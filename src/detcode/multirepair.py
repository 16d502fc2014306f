"""Repair of several simultaneously failed nodes.

Two mechanisms beat repairing each failure independently:

* joint transmission — the per-failure repair vectors a helper would send
  overlap linearly, so their concatenation compresses to at most
  beta_e = C(d, m) - C(d-e, m) symbols per helper. The payloads themselves
  are built and decoded in :mod:`detcode.repair`; the null-space
  certificate of the rank bound is in ``tests/certificates.py``.

* centralized sequencing — a repair center restores the failed nodes one at
  a time on a prefix schedule: the helper in slot j = 1..d sends one joint
  payload for failed[:j], and step s = 0..e-1 repairs failed[s] from
  failed[:s] + helpers[s:], the nodes already rebuilt (free at the center),
  then the later slots. Averaged over the d helpers the download is
  beta_bar_e = (m/d) * (C(d+1, m+1) - C(d-e+1, m+1)) per helper, and a
  d-fold rotation (in ``tests/certificates.py``) equalizes it exactly. The
  center expands each payload once, stripe after stripe, and step s reads
  failed[s]'s segment out of every stripe by :func:`detcode.repair.gather`.
  The steps,
  center-local transmits included, are linear in the helpers' payloads:
  from twice as many stripes as the payloads carry symbols per stripe, the
  whole sequence runs as one operator of :mod:`detcode.repair`, built from
  :func:`decode_centralized` on the first repair of a (failure tuple, helper
  tuple, mode) and kept in :func:`detcode.repair.decode_operator`'s cache
  for every later one. It needs at most d failures, one slot per failure.

:func:`helper_bound` is the one rule mapping a repair mode to its bound.
"""

from __future__ import annotations

from fractions import Fraction

from .code import EncoderMatrix, OverlapError, StripeBatch, checked_ids  # OverlapError re-exported
from .repair import decode_payloads, decode_repair_vectors, decompress_payload, gather, helper_payload
from .subsets import binom


class TooManyFailures(ValueError):
    """More simultaneous failures than helpers per repair."""


def joint_bandwidth(d: int, m: int, e: int) -> int:
    """Per-helper symbols to jointly repair e failures: C(d,m) - C(d-e,m)."""
    if e < 1:
        raise ValueError(f"need at least one failure, got e={e}")
    return binom(d, m) - binom(d - e, m)


def centralized_bandwidth(d: int, m: int, e: int) -> Fraction:
    """Average per-helper symbols under centralized sequential repair, exact."""
    if e < 1:
        raise ValueError(f"need at least one failure, got e={e}")
    return Fraction(m, d) * (binom(d + 1, m + 1) - binom(d - e + 1, m + 1))


def helper_bound(d: int, m: int, e: int, mode: str) -> int | Fraction:
    """Symbols per stripe a helper sends to repair e failures in *mode*: single and naive
    e * beta (even above alpha), joint beta_e, centralized beta_bar_e averaged over the d helpers."""
    if mode in ("single", "naive"):  # single repairs e = 1
        return e * binom(d - 1, m - 1)
    if mode == "joint":
        return joint_bandwidth(d, m, e)
    if mode == "centralized":
        return centralized_bandwidth(d, m, e)
    raise ValueError(f"unknown mode {mode!r}")


def centralized_repair(failed, helpers, contents, encoder: EncoderMatrix, m: int):
    """Sequentially repair all failed nodes; returns (stripe batches, symbol counts).

    *contents* maps node id to its stripe batch for every helper. The helper
    in slot j sends one joint payload for its served prefix, failed[:j], for
    every stripe; :func:`decode_centralized` is the repair center.
    """
    failed = checked_ids(failed, "failed ids", n=encoder.n)
    if len(failed) > encoder.d:
        raise TooManyFailures(f"{len(failed)} failures need as many helper slots, got {encoder.d}")
    helpers = checked_ids(helpers, "helper ids", n=encoder.n, count=encoder.d, failed=failed)
    payloads = [helper_payload(contents[h], h, failed[:slot], encoder, m) for slot, h in enumerate(helpers, start=1)]
    sent = {payload.helper: len(payload.symbols) for payload in payloads}
    return decode_payloads(decode_centralized, payloads, encoder, failed), sent


def decode_centralized(payloads, encoder: EncoderMatrix, failed) -> dict[int, StripeBatch]:
    """Repair center, step by step: failed stripe batches from the helpers' prefix payloads.

    Payloads come in helper-slot order, each covering its slot's served
    prefix. Nodes repaired earlier feed later repairs through the same
    transmit and expansion, at zero transmission cost. The builder and the
    test oracle of the centralized decode operator.
    """
    m, failed = payloads[0].m, tuple(failed)
    helpers = tuple(payload.helper for payload in payloads)
    seg = binom(encoder.d, m - 1)
    # per helper: repair vectors, stripe after stripe, seg per served failure
    expanded = {pl.helper: StripeBatch(decompress_payload(pl, encoder), len(pl.failed) * seg) for pl in payloads}
    repaired: dict[int, StripeBatch] = {}
    for step, f in enumerate(failed):
        helper_ids = failed[:step] + helpers[step:]  # the repaired prefix, then the later slots
        vectors = [
            decompress_payload(helper_payload(repaired[h], h, (f,), encoder, m), encoder)
            if h in repaired  # center-local, free
            else gather(expanded[h].symbols, len(expanded[h]), seg, step * seg, expanded[h].alpha)
            for h in helper_ids
        ]
        repaired.update(decode_repair_vectors(vectors, helper_ids, encoder, (f,), m))
    return repaired
