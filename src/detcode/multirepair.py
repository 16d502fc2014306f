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

:data:`REPAIR_MODES` lists the four repair modes and :func:`repair_nodes` is
the one entry that runs them: it refuses a bad request, then has each
helper transmit once and decodes. :func:`helper_bound` is the one rule
mapping a repair mode to its bound, and :func:`within_bound` checks one
repair's measured traffic against it.
"""

from __future__ import annotations

from fractions import Fraction

from .code import EncoderMatrix, OverlapError, StripeBatch, checked_ids  # OverlapError re-exported
from . import repair  # called through the module: perfbench/spans.py would time a name bound here as this layer
from .repair import decode_payloads, decode_repair_vectors, decompress_payload, gather, helper_payload
from .subsets import binom


class TooManyFailures(ValueError):
    """More simultaneous failures than helpers per repair."""


REPAIR_MODES = ("single", "naive", "joint", "centralized")


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


def within_bound(d: int, m: int, mode: str, failed, stripes: int, symbols_by_helper) -> bool:
    """True when every helper of one repair, or for centralized their mean, sent at most its
    :func:`helper_bound` per stripe, over *stripes* stripes."""
    cap = helper_bound(d, m, len(failed), mode) * stripes
    sent = [Fraction(sum(symbols_by_helper.values()), d)] if mode == "centralized" else symbols_by_helper.values()
    return all(v <= cap for v in sent)


def repair_nodes(mode: str, failed, helpers, content, encoder: EncoderMatrix, m: int):
    """Rebuild the *failed* nodes from *helpers* in *mode*, every stripe; returns (stripe batches, symbols per helper).

    *content* maps a helper id to its stripe batch (a callable). A bad
    request is refused before any helper is read: an unknown mode, no
    failure, single with more than one, centralized with more than d.
    single and joint repair the failure tuple as one group, and naive each
    failure as its own: each helper transmits once, one payload per group
    from one product (e * beta symbols per stripe for naive), and each group
    is decoded from its d payloads. centralized sequences the tuple through
    the repair center (:func:`centralized_repair`).
    """
    if mode not in REPAIR_MODES:
        raise ValueError(f"mode must be one of {REPAIR_MODES}, got {mode!r}")
    if not failed:
        raise ValueError("nothing to repair")
    if mode == "single" and len(failed) != 1:
        raise ValueError("single mode repairs exactly one node")
    if mode == "centralized":
        if len(failed) > encoder.d:
            raise TooManyFailures(f"{len(failed)} failures need as many helper slots, got {encoder.d}")
        return centralized_repair(failed, helpers, {h: content(h) for h in helpers}, encoder, m)
    groups = tuple((f,) for f in failed) if mode == "naive" else (failed,)
    sent = [repair.helper_payloads(content(h), h, groups, encoder, m) for h in helpers]
    rebuilt = {}
    for i, group in enumerate(groups):
        rebuilt.update(repair.decode_failed_nodes([payloads[i] for payloads in sent], helpers, encoder, group))
    return rebuilt, {h: sum(len(payload.symbols) for payload in payloads) for h, payloads in zip(helpers, sent)}


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
