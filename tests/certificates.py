"""Certificates of the paper's bounds and accessors that only tests read: code that only verifies results.

Tests import these names as ``from certificates import ...``, as they do ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from detcode.code import EncoderMatrix, MessageMatrix
from detcode.field import Matrix
from detcode.multirepair import TooManyFailures, joint_bandwidth
from detcode.repair import repair_matrix
from detcode.subsets import binom, incidence, position, subsets


def entry(message: MessageMatrix, x: int, column_label) -> int:
    """Entry at row x, column label I of the message's first stripe (plane-major: column rank(I) * S)."""
    return message.matrix[x - 1, subsets(message.d, message.m).rank(column_label) * message.stripes]


def shared_symbol(message: MessageMatrix, x: int, members) -> int:
    """Value of the first stripe's (m+1)-set symbol (x, members), read from its slot."""
    rest = tuple(y for y in members if y != x)
    return message.matrix[x - 1, subsets(message.d, message.m).rank(rest) * message.stripes]


def tradeoff_bound(d: int, level: int, alpha: int, beta: int) -> Fraction:
    """Largest file size a linear code with the given (alpha, beta) can store.

    Piecewise-linear in (alpha, beta); *level* is the segment index,
    floor(d*beta/alpha). Returned as an exact rational.
    """
    return Fraction(d + 1, level + 2) * (level * alpha + Fraction(d, level + 1) * beta)


def per_helper_bandwidth(d: int, m: int, e: int) -> tuple[int, ...]:
    """Symbols per stripe the helper in each slot of a centralized repair sends: joint_bandwidth(d, m, min(slot, e))."""
    return tuple(joint_bandwidth(d, m, min(slot, e)) for slot in range(1, d + 1))


def total_bandwidth(d: int, m: int, e: int) -> int:
    """Symbols per stripe all helpers of a centralized repair send in all."""
    return sum(per_helper_bandwidth(d, m, e))


def multi_repair_matrix(failed, m: int, encoder: EncoderMatrix) -> Matrix:
    """Horizontal concatenation of the per-failure repair matrices, in order."""
    return Matrix.hstack([repair_matrix(f, m, encoder) for f in failed])


def column_dependency(j_label, f: int, m: int, encoder: EncoderMatrix) -> list[int]:
    """A combination of repair-matrix columns that sums to zero.

    For an (m-2)-subset J, the columns labeled J + {y} over y outside J are
    linearly dependent with coefficients (-1)**position(J + {y}, y) times the
    failed node's coefficient for y. Returned as a full-length vector over
    the C(d, m-1) column space (zeros elsewhere); requires m >= 2. Nonzero
    whenever the failed row has a nonzero coefficient outside J, which MDS
    guarantees for J = the empty set.
    """
    if m < 2:
        raise ValueError("column dependencies exist only for m >= 2")
    d = encoder.d
    psi = encoder.row(f)
    target = subsets(d, m - 2).rank(tuple(sorted(j_label)))
    coeffs = [0] * binom(d, m - 1)
    for k, y, rest, sign in incidence(d, m - 1):
        if rest == target:
            coeffs[k] = sign * psi[y - 1]
    return Matrix(encoder.field, [coeffs]).row(0)


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
    anchor_set = set(anchor)
    rows = []
    for i_label in row_labels:
        support = tuple(sorted(set(i_label) | anchor_set))
        support_set = set(support)
        row = [0] * len(col_space)
        for c, l_label in enumerate(col_space.ordering):
            if not set(l_label) <= support_set:
                continue
            sign = sum(position(support, j) for j in l_label)
            keep = [x for x in support if x not in l_label]
            minor = failed_rows.submatrix(range(e), [x - 1 for x in keep]).det()
            row[c] = -minor if sign % 2 else minor
        rows.append(row)
    return NullSpaceMatrix(
        matrix=Matrix(encoder.field, rows, cols=len(col_space)),
        row_labels=row_labels,
        column_labels=col_space.ordering,
        anchor=anchor,
    )


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
