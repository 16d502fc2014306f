"""Repair of several simultaneously failed nodes.

Two mechanisms beat repairing each failure independently:

* joint transmission — the per-failure repair vectors a helper would send
  overlap linearly, so their concatenation compresses to at most
  beta_e = C(d, m) - C(d-e, m) symbols per helper. A certificate matrix in
  the left null space of the concatenation witnesses the rank bound. The
  payloads themselves are built and decoded in :mod:`detcode.repair`.

* centralized sequencing — a repair center restores the failed nodes one at
  a time and reuses freshly repaired nodes as helpers for the rest; symbol
  exchange among nodes already at the center is free. Averaged over the d
  helpers the download is beta_bar_e = (m/d) * (C(d+1, m+1) - C(d-e+1, m+1))
  per helper, and a d-fold rotation schedule equalizes it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import EncoderMatrix
from .field import Matrix, vec_mat
from .repair import decode_repair_vectors, decompress_payload, helper_payload, repair_basis
from .subsets import binom, position, subsets


class TooManyFailures(ValueError):
    """More simultaneous failures than helpers per repair."""


class OverlapError(ValueError):
    """Helper set intersects the failed set."""


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


def multi_repair_matrix(failed, m: int, encoder: EncoderMatrix) -> Matrix:
    """Horizontal concatenation of the per-failure repair matrices, in order."""
    return repair_basis(encoder, tuple(failed), m)[0].copy()


@dataclass(frozen=True)
class NullSpaceMatrix:
    """Left-null-space certificate for the concatenated repair matrix.

    Full row rank C(d-e, m) by construction: restricted to columns labeled
    by subsets avoiding the anchor set, the matrix is diagonal with entries
    plus/minus the anchor minor of the failed rows.
    """

    matrix: Matrix
    row_labels: tuple[tuple[int, ...], ...]
    column_labels: tuple[tuple[int, ...], ...]
    anchor: tuple[int, ...]


def null_space_matrix(failed, m: int, encoder: EncoderMatrix) -> NullSpaceMatrix:
    """Certificate matrix annihilating the concatenated repair matrix.

    The anchor is the lexicographically first e-subset of column positions
    on which the failed encoder rows have a nonzero minor (one exists since
    those rows are independent). Rows are labeled by m-subsets avoiding the
    anchor; the entry at (I, L) is a signed e x e minor of the failed rows
    on (I + anchor) - L when L is contained in I + anchor, else zero.
    """
    failed = list(failed)
    d = encoder.d
    e = len(failed)
    if e > d:
        raise TooManyFailures(f"at most d={d} simultaneous failures, got {e}")
    field = encoder.field
    failed_rows = encoder.rows_submatrix(failed)

    anchor = None
    for candidate in subsets(d, e).ordering:
        minor = failed_rows.submatrix(range(e), [x - 1 for x in candidate])
        if minor.det() != 0:
            anchor = candidate
            break
    assert anchor is not None, "failed rows of an MDS encoder are independent"

    outside = [x for x in range(1, d + 1) if x not in anchor]
    if m <= len(outside):
        row_labels = tuple(
            tuple(outside[i - 1] for i in combo)
            for combo in subsets(len(outside), m).ordering
        )
    else:
        row_labels = ()  # certificate is empty once e > d - m
    col_space = subsets(d, m)
    matrix = Matrix.zeros(field, len(row_labels), len(col_space))
    anchor_set = set(anchor)
    for r, i_label in enumerate(row_labels):
        support = tuple(sorted(set(i_label) | anchor_set))
        support_set = set(support)
        for c, l_label in enumerate(col_space.ordering):
            if not set(l_label) <= support_set:
                continue
            sign = sum(position(support, j) for j in l_label)
            keep = [x for x in support if x not in l_label]
            minor = failed_rows.submatrix(range(e), [x - 1 for x in keep]).det()
            matrix.set(r, c, field.signed(minor, sign))
    return NullSpaceMatrix(
        matrix=matrix,
        row_labels=row_labels,
        column_labels=col_space.ordering,
        anchor=anchor,
    )


def split_segments(vector: list[int], e: int, d: int, m: int) -> list[list[int]]:
    """Per-failure slices of a concatenated repair vector, in failure order."""
    seg = len(subsets(d, m - 1))
    return [vector[i * seg : (i + 1) * seg] for i in range(e)]


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
        if set(self.failed) & set(self.helpers):
            raise OverlapError(
                f"helpers {sorted(set(self.failed) & set(self.helpers))} are failed"
            )
        if len(set(self.failed)) != len(self.failed):
            raise ValueError("failed ids must be distinct")
        if len(set(self.helpers)) != len(self.helpers):
            raise ValueError("helper ids must be distinct")

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
    """Sequentially repair all failed nodes; returns (contents, symbol counts).

    *contents* maps node id to its stripe row for every helper. Each helper
    transmits one joint payload covering its served prefix; nodes repaired
    earlier feed later repairs directly at zero transmission cost.
    """
    plan = CentralRepairPlan(tuple(failed), tuple(helpers), m)
    d = plan.d

    segments: dict[int, dict[int, list[int]]] = {}
    sent: dict[int, int] = {}
    for slot in range(1, d + 1):
        h = plan.helpers[slot - 1]
        prefix = plan.served_prefix(slot)
        payload = helper_payload(contents[h], h, prefix, encoder, m)
        sent[h] = len(payload.symbols)
        full = decompress_payload(payload, encoder)
        segments[h] = dict(zip(prefix, split_segments(full, len(prefix), d, m)))

    repaired: dict[int, list[int]] = {}
    for step, f in enumerate(plan.failed):
        helper_ids = plan.helper_sequence(step)
        xi = repair_basis(encoder, (f,), m)[0]
        vectors = [
            vec_mat(repaired[h], xi) if h in repaired else segments[h][f]  # center-local, free
            for h in helper_ids
        ]
        repaired.update(decode_repair_vectors(vectors, helper_ids, encoder, (f,), m))
    return repaired, sent


def supercode_schedule(d: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Role rotation equalizing per-helper cost over d code segments.

    Entry [segment-1][slot-1] is the 1-based plan role the helper in that
    slot plays for that segment: ((slot + segment - 2) mod d) + 1. Across
    all d segments every slot plays every role exactly once.
    """
    if e > d:
        raise TooManyFailures(f"at most d={d} simultaneous failures, got {e}")
    return tuple(
        tuple((slot + segment - 2) % d + 1 for slot in range(1, d + 1))
        for segment in range(1, d + 1)
    )


def supercode_helper_totals(d: int, m: int, e: int) -> list[int]:
    """Per-helper symbols summed over all d segments of the rotation."""
    schedule = supercode_schedule(d, e)
    totals = [0] * d
    for segment_roles in schedule:
        for slot, role in enumerate(segment_roles):
            totals[slot] += joint_bandwidth(d, m, min(role, e))
    return totals
