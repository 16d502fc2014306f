"""Repair of several simultaneously failed nodes.

Two mechanisms beat repairing each failure independently:

* joint transmission — the per-failure repair vectors a helper would send
  overlap linearly, so their concatenation compresses to at most
  beta_e = C(d, m) - C(d-e, m) symbols per helper. The payloads themselves
  are built and decoded in :mod:`detcode.repair`; the null-space
  certificate of the rank bound is in :mod:`detcode.certificates`.

* centralized sequencing — a repair center restores the failed nodes one at
  a time and reuses freshly repaired nodes as helpers for the rest; symbol
  exchange among nodes already at the center is free. Averaged over the d
  helpers the download is beta_bar_e = (m/d) * (C(d+1, m+1) - C(d-e+1, m+1))
  per helper, and a d-fold rotation schedule (in :mod:`detcode.certificates`)
  equalizes it exactly. The steps, center-local transmits included, are
  linear in the helpers' payloads: from twice as many stripes as the
  payloads carry symbols per stripe, the whole sequence runs as one
  operator of :mod:`detcode.repair`, built from :func:`decode_centralized`
  on the first repair of a (failure tuple, helper tuple, mode) and kept in
  :func:`detcode.repair.decode_operator`'s cache for every later one.
  It needs at most d failures, one helper slot per failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import EncoderMatrix, OverlapError, StripeBatch, checked_ids  # OverlapError re-exported
from .field import interleave
from .repair import decode_payloads, decode_repair_vectors, decompress_payload, helper_payload
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


@dataclass(frozen=True)
class CentralRepairPlan:
    """Accounting for centralized sequential repair.

    Helper in slot j (1-based) serves the failed prefix f_1..f_min(j,e) with
    one joint payload of at most joint_bandwidth(d, m, min(j, e)) symbols;
    symbols exchanged among already-repaired nodes at the center are free.
    """

    failed: tuple[int, ...]
    helpers: tuple[int, ...]
    m: int

    def __post_init__(self):
        if len(self.failed) > len(self.helpers):
            raise TooManyFailures(
                f"{len(self.failed)} failures need as many helper slots, got {len(self.helpers)}"
            )
        checked_ids(self.failed, "failed ids")
        checked_ids(self.helpers, "helper ids", failed=self.failed)

    @property
    def d(self) -> int:
        return len(self.helpers)

    @property
    def e(self) -> int:
        return len(self.failed)

    def served_prefix(self, slot: int) -> tuple[int, ...]:
        """Failed nodes receiving data from the helper in 1-based slot."""
        return self.failed[: min(slot, self.e)]

    @property
    def per_helper_bandwidth(self) -> tuple[int, ...]:
        return tuple(
            joint_bandwidth(self.d, self.m, min(slot, self.e))
            for slot in range(1, self.d + 1)
        )

    @property
    def total_bandwidth(self) -> int:
        return sum(self.per_helper_bandwidth)

    def helper_sequence(self, step: int) -> tuple[int, ...]:
        """d helpers used to repair the failure at 0-based *step*: the
        already-repaired prefix plus the helper slots beyond it."""
        return self.failed[:step] + self.helpers[step:]


def centralized_repair(failed, helpers, contents, encoder: EncoderMatrix, m: int):
    """Sequentially repair all failed nodes; returns (stripe batches, symbol counts).

    *contents* maps node id to its stripe batch for every helper. Each helper
    transmits one joint payload covering its served prefix for every stripe;
    :func:`decode_centralized` is the repair center.
    """
    plan = CentralRepairPlan(tuple(failed), tuple(helpers), m)
    payloads = [
        helper_payload(contents[h], h, plan.served_prefix(slot), encoder, m)
        for slot, h in enumerate(plan.helpers, start=1)
    ]
    sent = {payload.helper: len(payload.symbols) for payload in payloads}
    return decode_payloads(decode_centralized, payloads, encoder, plan.failed), sent


def decode_centralized(payloads, encoder: EncoderMatrix, failed) -> dict[int, StripeBatch]:
    """Repair center, step by step: failed stripe batches from the helpers' prefix payloads.

    Payloads come in helper-slot order, each covering its slot's served
    prefix. Nodes repaired earlier feed later repairs through the same
    transmit and expansion, at zero transmission cost. The builder and the
    test oracle of the centralized decode operator.
    """
    m = payloads[0].m
    plan = CentralRepairPlan(tuple(failed), tuple(payload.helper for payload in payloads), m)
    seg = binom(plan.d, m - 1)
    # per helper: repair vectors, stripe after stripe, and their width, seg per served failure
    expanded = {pl.helper: (decompress_payload(pl, encoder), len(pl.failed) * seg) for pl in payloads}
    repaired: dict[int, StripeBatch] = {}
    for step, f in enumerate(plan.failed):
        helper_ids = plan.helper_sequence(step)
        vectors = [
            decompress_payload(helper_payload(repaired[h], h, (f,), encoder, m), encoder)
            if h in repaired  # center-local, free
            else interleave([expanded[h][0][step * seg + j :: expanded[h][1]] for j in range(seg)])
            for h in helper_ids
        ]
        repaired.update(decode_repair_vectors(vectors, helper_ids, encoder, (f,), m))
    return repaired
