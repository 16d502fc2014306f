"""Independent oracles used to compute expected values, kept free of the
elimination code they cross-check."""

import struct
from itertools import combinations

from detcode.field import DimensionMismatch, Matrix


def identity(field, n: int):
    """The n x n identity matrix over *field*."""
    return Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def is_zero(matrix) -> bool:
    return all(v == 0 for row in matrix.data for v in row)


def column(matrix, j: int) -> list[int]:
    return [row[j] for row in matrix.data]


def det_cofactor(rows) -> int:
    """Integer determinant by recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += -term if j % 2 else term
    return total


def brute_rank(matrix) -> int:
    """Largest k such that some k x k submatrix has a nonzero determinant mod p."""
    p = matrix.field.p
    rows, cols = matrix.shape
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i, j] for j in csel] for i in rsel]
                if det_cofactor(sub) % p != 0:
                    return k
    return 0


def as_lists(rows) -> list[list[int]]:
    """Rows of any int sequences (arrays, tuples, lists) as lists, to compare by value: an array never equals a list."""
    return [list(row) for row in rows]


def matmul_scalar(a, b) -> list[list[int]]:
    """Rows of the product of two matrices by the plain triple loop, reduced mod p once per entry."""
    p = a.field.p
    return [
        [sum(a[i, k] * b[k, j] for k in range(a.cols)) % p for j in range(b.cols)]
        for i in range(a.rows)
    ]


def vec_mat(vec, matrix) -> list[int]:
    """Row vector times matrix, mod p."""
    if len(vec) != matrix.rows:
        raise DimensionMismatch("vector length != row count")
    p = matrix.field.p
    return [sum(v * matrix[k, j] for k, v in enumerate(vec)) % p for j in range(matrix.cols)]


def mul_vec(matrix, vec) -> list[int]:
    """Matrix times column vector, mod p."""
    if len(vec) != matrix.cols:
        raise DimensionMismatch("vector length != column count")
    p = matrix.field.p
    return [sum(matrix[i, k] * v for k, v in enumerate(vec)) % p for i in range(matrix.rows)]


def signed_sums_scalar(terms, p) -> list[int]:
    """Entry-wise sum of sign * entry over (sign, sequence) terms, reduced mod p once per entry."""
    return [sum(sign * seq[t] for sign, seq in terms) % p for t in range(len(terms[0][1]))]


def reduced_scalar(values, p) -> list[int]:
    """Each value reduced mod p, one at a time."""
    return [v % p for v in values]


def first_nonzero_scalar(terms, p):
    """The index of the first entry whose signed sum is nonzero mod p, or None."""
    return next((t for t, v in enumerate(signed_sums_scalar(terms, p)) if v), None)


def symbol_body_spec(values, p) -> bytes:
    """The symbol body of canonical *values* over GF(p), written from the format spec one symbol at a time.

    Away from p = 257: each symbol in ceil(bits(p) / 8) little-endian bytes. At p = 257: tag 1, the <I> count of
    symbols equal to 256, their sorted <I> positions, then one low byte per symbol; or, where that is longer than two
    bytes per symbol, tag 2 and two little-endian bytes per symbol.
    """
    width = (p.bit_length() + 7) // 8
    fixed = b"".join(v.to_bytes(width, "little") for v in values)
    if p != 257:
        return fixed
    positions = [i for i, v in enumerate(values) if v == 256]
    if 5 + 4 * len(positions) + len(values) > 1 + 2 * len(values):
        return b"\x02" + fixed
    return b"\x01" + struct.pack(f"<{1 + len(positions)}I", len(positions), *positions) + bytes(v % 256 for v in values)


def stripe_rows(flat, width: int) -> list[list[int]]:
    """The stripes of a plane-major batch of *width* symbols per stripe, picked one by one: symbol c of stripe s is
    entry c * S + s."""
    stripes = len(flat) // width
    return [[flat[c * stripes + s] for c in range(width)] for s in range(stripes)]


def plane_major(rows) -> list[int]:
    """Stripe rows of one width laid out plane-major, symbol c of every stripe in turn: the inverse of stripe_rows."""
    return [row[c] for c in range(len(rows[0]) if rows else 0) for row in rows]


def batch_product_scalar(parts, weights, blocks: int = 1) -> list[list[int]]:
    """:func:`detcode.field.batch_product` stripe by stripe: each stripe of the plane-major (flat, width) *parts*,
    side by side, times *weights* by :func:`vec_mat`, the output columns split into *blocks* plane-major batches."""
    rows = [stripe_rows(flat, w) for flat, w in parts]
    stripes = len(rows[0])
    outs = [vec_mat([v for part in rows for v in part[s]], weights) for s in range(stripes)]
    width = weights.cols // blocks
    return [plane_major([out[b * width : (b + 1) * width] for out in outs]) for b in range(blocks)]
