"""Repair of one or several simultaneously failed nodes, in every mode.

A mode is the failure groups each helper serves plus one decode: every
helper multiplies its stripe batch by the compress bases of its groups in
one product (:func:`detcode.repair.helper_payloads`), and each group is
decoded from the d payloads for it.

* single and joint serve the failure tuple as one group, naive each failure
  as its own; :func:`detcode.repair.decode_factored` decodes a group. The
  per-failure repair vectors a helper would send overlap linearly, so a
  joint payload compresses to at most beta_e = C(d, m) - C(d-e, m) symbols,
  against e * beta for naive (the null-space certificate of the rank bound
  is in ``tests/certificates.py``).

* centralized — a repair center restores the failures one at a time on a
  prefix schedule: the helper in slot j = 1..d serves failed[:j], and
  :func:`decode_centralized` decodes the tuple, step s = 0..e-1 repairing
  failed[s] from failed[:s] + helpers[s:], the nodes already rebuilt (free
  at the center), then the later slots. Averaged over the d helpers the
  download is beta_bar_e = (m/d) * (C(d+1, m+1) - C(d-e+1, m+1)) per
  helper, and a d-fold rotation (in ``tests/certificates.py``) equalizes
  it exactly. The center expands each payload once, and step s reads
  failed[s]'s segment of every stripe as one contiguous run of its planes.
  It needs at most d failures, one slot per failure.

Both decodes are linear: from twice as many stripes as the payloads carry
symbols per stripe, a group decodes by one operator, built on the first
repair of a (failure tuple, helper tuple, mode) and kept in
:func:`detcode.repair.decode_operator`'s cache for every later one.

:data:`REPAIR_MODES` lists the modes and :func:`repair_nodes`, the one entry,
runs their plans. :func:`helper_bound` maps a mode to its bound,
:func:`within_bound` checks one repair against it, and :func:`bandwidth_table`
tabulates it.
"""

from __future__ import annotations

from fractions import Fraction

from .code import EncoderMatrix, OverlapError, StripeBatch, checked_ids, derive_params  # OverlapError re-exported
from . import repair  # called through the module: perfbench/spans.py would time a name bound here as this layer
from .repair import decode_repair_vectors, decompress_payload, helper_payload
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
    if e < 1:
        raise ValueError(f"need at least one failure, got e={e}")
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


def bandwidth_table(d: int, m: int, e_max: int, mode: str = "all"):
    """Rows of (e, mode, per-helper symbols, symbols normalized by alpha).

    Values are exact; normalized entries are Fractions. Each is
    :func:`helper_bound` capped at alpha (a helper never needs to send more
    than its whole content), which only naive exceeds.
    """
    if e_max < 1:
        raise ValueError(f"empty failure-count range range(1, {e_max + 1}): need at least one e >= 1")
    alpha = derive_params(d, m)[0]
    modes = REPAIR_MODES[1:] if mode == "all" else (mode,)  # single is naive at e = 1
    values = [(e, kind, min(helper_bound(d, m, e, kind), alpha)) for e in range(1, e_max + 1) for kind in modes]
    return [(e, kind, value, Fraction(value) / alpha) for e, kind, value in values]


def check_request(mode: str, failed, d: int) -> None:
    """Refuse a bad repair request before any helper is chosen or read: an unknown mode, no failure, single with
    more than one, centralized with more than d."""
    if mode not in REPAIR_MODES:
        raise ValueError(f"mode must be one of {REPAIR_MODES}, got {mode!r}")
    if not failed:
        raise ValueError("nothing to repair")
    if mode == "single" and len(failed) != 1:
        raise ValueError("single mode repairs exactly one node")
    if mode == "centralized" and len(failed) > d:
        raise TooManyFailures(f"{len(failed)} failures need as many helper slots, got {d}")


def repair_nodes(mode: str, failed, helpers, content, encoder: EncoderMatrix, m: int):
    """Rebuild the *failed* nodes from *helpers* in *mode*, every stripe; returns (stripe batches, symbols per helper).

    *content* maps a helper id to its stripe batch (a callable). A bad request
    is refused (:func:`check_request`) before any helper is read. Each helper
    transmits once, one payload per group it serves: the tuple (single,
    joint), each failure (naive), or failed[:j] at slot j (centralized). Each
    group then decodes once, by ``decode_factored`` or by :func:`decode_centralized`.
    """
    check_request(mode, failed, encoder.d)
    groups = tuple((f,) for f in failed) if mode == "naive" else (failed,)
    served, decode = [groups] * len(helpers), repair.decode_factored
    if mode == "centralized":
        served, decode = [(failed[:slot],) for slot in range(1, len(helpers) + 1)], decode_centralized
    sent = [repair.helper_payloads(content(h), h, own, encoder, m) for h, own in zip(helpers, served)]
    rebuilt = {}
    for i, group in enumerate(groups):
        rebuilt.update(repair.decode_payloads(decode, [payloads[i] for payloads in sent], encoder, group))
    return rebuilt, {h: sum(len(payload.symbols) for payload in payloads) for h, payloads in zip(helpers, sent)}


def centralized_repair(failed, helpers, contents, encoder: EncoderMatrix, m: int):
    """Sequentially repair all failed nodes; returns (stripe batches, symbol counts).

    *contents* maps node id to its stripe batch for every helper. The ids
    are checked before any helper is read; :func:`repair_nodes` then runs
    the centralized plan.
    """
    failed = checked_ids(failed, "failed ids", n=encoder.n)
    check_request("centralized", failed, encoder.d)
    helpers = checked_ids(helpers, "helper ids", n=encoder.n, count=encoder.d, failed=failed)
    return repair_nodes("centralized", failed, helpers, contents.__getitem__, encoder, m)


def decode_centralized(payloads, encoder: EncoderMatrix, failed) -> dict[int, StripeBatch]:
    """Repair center, step by step: failed stripe batches from the helpers' prefix payloads.

    Payloads come in helper-slot order, each covering its slot's served
    prefix. Nodes repaired earlier feed later repairs through the same
    transmit and expansion, at zero transmission cost. The builder and the
    test oracle of the centralized decode operator.
    """
    m, failed = payloads[0].m, tuple(failed)
    helpers = tuple(payload.helper for payload in payloads)
    # per helper: repair vectors, plane-major, one block of C(d, m-1) planes per served failure
    expanded = {pl.helper: decompress_payload(pl, encoder) for pl in payloads}
    size = len(expanded[helpers[0]]) // len(payloads[0].failed)  # one block: C(d, m-1) planes of every stripe
    repaired: dict[int, StripeBatch] = {}
    for step, f in enumerate(failed):
        helper_ids = failed[:step] + helpers[step:]  # the repaired prefix, then the later slots
        vectors = [
            decompress_payload(helper_payload(repaired[h], h, (f,), encoder, m), encoder)
            if h in repaired  # center-local, free
            else expanded[h][step * size : (step + 1) * size]
            for h in helper_ids
        ]
        repaired.update(decode_repair_vectors(vectors, helper_ids, encoder, (f,), m))
    return repaired
