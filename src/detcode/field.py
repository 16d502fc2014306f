"""Exact arithmetic in prime fields GF(p) and dense linear algebra over them.

Field elements are plain Python ints kept canonical (0 <= value < p); a
:class:`Field` instance carries the (checked prime) modulus.
:class:`Matrix` implements exact Gauss-Jordan elimination with a
deterministic leftmost-pivot rule, so ranks, inverses, and pivot-column
bases are reproducible across runs and machines. All of the package's
prime arithmetic (primality, inverses, every reduction mod p) is here:
other modules hand it plain ints and get canonical ones back.

Every product is one word-parallel kernel, :func:`combine_rows`: K
sequences of one length L (a stripe batch's columns, a payload's strided
slices, message rows) are combined by a K x r weight matrix into r output
sequences. One side is packed into one int per row, an entry per
fixed-width slot (:func:`slot_width`), so one big-int multiply-add
combines a whole row and one reduction per output entry makes it exact.
The long operand is never copied through :class:`Matrix`. An output
whose weight column is a unit vector (a systematic node's row in
encode, an identity row of a recover inverse) is a copy of its row.

The weights are always a :class:`Matrix`, checked when built and
prepared (columns and their unit indices, or packed rows) once per
orientation, and the modulus is its field's. A cached repair basis or
read keeps its weights as Matrix, so every helper and repair shares one
check and one packing. :attr:`Matrix.T` is built once.

Every operand row and every symbol blob is range-checked against
[0, p), and each check runs on the packed int or bytes it is packed
into anyway: two word-parallel mask tests per row (:func:`_range_test`),
not a Python pass per entry.

The paper's alternating sums (parity completion, the parity check, the
repair readout) are one primitive, :func:`signed_sums`, the only code
that applies :func:`detcode.subsets.incidence` signs to stripe data.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, sub


class CompositeModulus(ValueError):
    """Field modulus is not prime."""


class DimensionMismatch(ValueError):
    """Matrix shapes (or moduli) do not line up."""


class Singular(ValueError):
    """Square matrix has no inverse."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every modulus that fits a machine word."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n."""
    candidate = max(n, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def element_width(p: int) -> int:
    """Bytes needed to serialize one canonical element of GF(p)."""
    return (p.bit_length() + 7) // 8


_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}  # unsigned, by item size


def slot_width(p: int, k: int) -> int:
    """Bytes per slot of the packed product over GF(p) with inner dimension k.

    A slot accumulates k products of canonical entries, at most
    k * (p-1)**2, and must hold that bound without a carry into its
    neighbour: a machine word of 4 or 8 bytes while the bound fits one,
    else the bound's whole bytes (k = 0 is sized as 1: a canonical entry fits).
    """
    bound = max(k, 1) * (p - 1) ** 2
    return 4 if bound < 1 << 32 else 8 if bound < 1 << 64 else (bound.bit_length() + 7) // 8


def _encode(values, width: int) -> bytes:
    """Little-endian bytes of non-negative ints, width bytes each; OverflowError or TypeError for any other entry."""
    code = _TYPECODES.get(width)
    if code is None:
        return b"".join([v.to_bytes(width, "little") for v in values])
    items = array(code, values)
    if sys.byteorder == "big":
        items.byteswap()
    return items.tobytes()


@lru_cache(maxsize=8)
def _range_test(count: int, slot: int, p: int):
    """The predicate: a packed int of *count* slot-byte entries holds only entries below p.

    Two word-parallel tests, for p.bit_length() = b < 8 * slot, with a 1 in
    the lowest bit of every slot: no entry has a bit at b or above, and
    adding 2**b - p to every entry then sets no bit b (it cannot carry into
    the next slot). Cached per shape: the masks cost about as much as
    testing two rows.
    """
    b = p.bit_length()
    assert b < 8 * slot
    ones = int.from_bytes(b"\1".ljust(slot, b"\0") * count, "little")
    high = ones << b
    excess, offset = (ones << 8 * slot) - high, ((1 << b) - p) * ones
    return lambda packed: not (packed & excess or (packed + offset) & high)


def _in_range(blob, width: int, p: int) -> bool:
    """Whether every width-byte little-endian int of *blob* is below p; a C-level max where p fills the width."""
    if p.bit_length() == 8 * width:
        return max(_decode(blob, width), default=0) < p
    return _range_test(len(blob) // width, width, p)(int.from_bytes(blob, "little"))


def _decode(blob, width: int):
    """The width-byte little-endian ints of *blob*; a zero-copy view on little-endian hosts."""
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(blob[i : i + width], "little") for i in range(0, len(blob), width)]
    if sys.byteorder == "little":
        return memoryview(blob).cast(code)
    items = array(code)
    items.frombytes(blob)
    items.byteswap()
    return items


def combine_rows(rows, weights: "Matrix") -> list[list[int]]:
    """The r linear combinations over GF(p) of a list *rows* of K sequences of one length L.

    Output i is the sum over k of weights[k][i] * rows[k], where *weights*
    is a K x r :class:`Matrix` over GF(p), checked and prepared once: the
    columns of X @ weights for the matrix X whose columns are the rows.
    ValueError for a row entry outside [0, p), checked word-parallel on each
    packed row (:func:`_range_test`), or by one C-level min/max over all
    entries where the weights are packed.

    With r <= L each row is packed into one int and an output is one
    big-int multiply-add per nonzero weight, or a fresh copy of row k where
    its weight column is the k-th unit vector (:attr:`Matrix.unit_columns`).
    With fewer entries per row than outputs the weights' packed rows
    (:attr:`Matrix.packed_rows`) are combined once per entry position
    instead, then transposed back. Either way each computed output entry is
    reduced mod p once.
    """
    k = len(rows)
    length = len(rows[0]) if rows else 0
    if len(set(map(len, rows))) > 1:
        raise DimensionMismatch("ragged rows")
    if weights.rows != k:
        raise DimensionMismatch(f"{weights.rows} weight rows for {k} rows")
    p, r = weights.field.p, weights.cols
    slot = slot_width(p, k)
    out_of_range = f"operand entry out of field range [0, {p})"

    def combine(coeffs, terms, count):
        acc = 0
        for a, x in zip(coeffs, terms):
            if a:
                acc += a * x
        return [v % p for v in _decode(acc.to_bytes(count * slot, "little"), slot)]

    if r <= length or not length:
        try:
            packed = [int.from_bytes(_encode(row, slot), "little") for row in rows]
        except (OverflowError, TypeError):
            raise ValueError(out_of_range) from None
        if not all(map(_range_test(length, slot, p), packed)):
            raise ValueError(out_of_range)
        return [
            combine(column, packed, length) if unit is None else list(rows[unit])
            for column, unit in zip(*weights.unit_columns)
        ]
    entries = list(chain.from_iterable(rows))
    if not 0 <= min(entries) <= max(entries) < p:
        raise ValueError(out_of_range)
    return list(map(list, zip(*[combine(entries[j::length], weights.packed_rows, r) for j in range(length)])))


def signed_sums(terms, p: int) -> list[int]:
    """Entry-wise canonical sum over GF(p) of one or more (sign, sequence) terms, each sign +1 or -1.

    The sequences have one length and may hold any ints (neither that nor
    the signs is checked). One lazy C-level map(add or sub) per term, from a
    +1 term where there is one; one reduction per entry, even for one term.
    """
    terms = list(terms)
    signs = [sign for sign, _ in terms]
    # start from a +1 term; first is -1 only when every sign is: sum the negation
    first, acc = terms.pop(signs.index(1) if 1 in signs else 0)
    for sign, seq in terms:
        acc = map(add if sign == first else sub, acc, seq)
    return [v % p for v in acc] if first == 1 else [-v % p for v in acc]


def interleave(columns) -> list:
    """One or more equal-length columns side by side, row after row, in one flat list.

    Columns shorter than 5 entries are zipped, longer ones slice-assigned: 5 is the crossover measured
    for 4 to 120 columns on CPython 3.11.
    """
    if len(columns[0]) < 5:
        return list(chain.from_iterable(zip(*columns)))
    flat = [0] * (len(columns) * len(columns[0]))
    for c, column in enumerate(columns):
        flat[c :: len(columns)] = column
    return flat


def pack_symbols(values, p: int) -> bytes:
    """Little-endian bytes of GF(p) symbols, element_width(p) each; ValueError outside [0, p).

    The range check runs word-parallel on the packed bytes; 2-byte symbols
    are packed and checked 4 bytes wide (array('I') fills from a list about
    twice as fast as array('H')), then narrowed.
    """
    if not isinstance(values, (list, tuple)):  # array() would read bytes-like input as machine words
        values = list(values)
    width = element_width(p)
    wide = 4 if width == 2 else width
    try:
        blob = _encode(values, wide)
    except (OverflowError, TypeError):
        raise ValueError("symbol out of field range") from None
    if not _in_range(blob, wide, p):
        raise ValueError("symbol out of field range")
    if wide == width:
        return blob
    narrow = bytearray(len(values) * 2)
    narrow[0::2], narrow[1::2] = blob[0::4], blob[1::4]
    return bytes(narrow)


def unpack_symbols(blob, p: int) -> list[int]:
    """Inverse of :func:`pack_symbols`; ValueError on a symbol outside [0, p) or a partial one.

    The range check runs word-parallel on the blob, before it is decoded.
    """
    width = element_width(p)
    if len(blob) % width:
        raise ValueError(f"symbol out of field range: {len(blob)} bytes is not a whole number of {width}-byte symbols")
    if not _in_range(blob, width, p):
        raise ValueError("symbol out of field range")
    return list(_decode(blob, width))


class Field:
    """Prime field GF(p).

    Parameters
    ----------
    p : int
        Field modulus; must be prime (checked at construction).
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise CompositeModulus(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"


class Matrix:
    """Dense matrix over a prime field; all entries canonical ints.

    Rows and columns are 0-indexed here; higher-level modules translate
    their subset labels to positions before touching a Matrix.

    A Matrix is also the one weight operand of :func:`combine_rows`, whose
    preparation it builds on first use and keeps: its rows must not change.
    """

    def __init__(self, field: Field, data, cols: int | None = None):
        p = field.p
        self.field = field
        self.data = tuple(tuple([v % p for v in row]) for row in data)
        self.rows = len(self.data)
        if not self.rows and cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.cols = len(self.data[0]) if self.rows else cols
        if any(len(row) != self.cols for row in self.data):
            raise DimensionMismatch("ragged rows")
        if cols is not None and cols != self.cols:
            raise DimensionMismatch("explicit cols disagrees with data")

    @classmethod
    def wrap(cls, field: Field, rows, cols: int) -> "Matrix":
        """A matrix on *rows*, which must be canonical and cols wide: no copy, no check."""
        matrix = cls.__new__(cls)
        matrix.field, matrix.data, matrix.rows, matrix.cols = field, rows, len(rows), cols
        return matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> list[int]:
        return list(self.data[i])

    @cached_property
    def unit_columns(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int | None, ...]]:
        """(columns, units), built once: unit i is k where column i is the k-th unit vector, else None.

        The one transposition of a Matrix, which :attr:`T` wraps; no rows give cols empty columns."""
        columns = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return columns, tuple([c.index(1) if c.count(0) == self.rows - 1 and 1 in c else None for c in columns])

    @cached_property
    def packed_rows(self) -> tuple[int, ...]:
        """The rows packed as weights one int each, a slot_width(p, rows)-byte slot per entry, built once."""
        slot = slot_width(self.field.p, self.rows)
        return tuple(int.from_bytes(_encode(row, slot), "little") for row in self.data)

    @cached_property
    def T(self) -> "Matrix":
        """The transpose, built once: a wrap of :attr:`unit_columns`' columns."""
        return Matrix.wrap(self.field, self.unit_columns[0], self.rows)

    def submatrix(self, row_indices, col_indices) -> "Matrix":
        cols = list(col_indices)
        return Matrix(
            self.field,
            [[self.data[i][j] for j in cols] for i in row_indices],
            cols=len(cols),
        )

    @staticmethod
    def hstack(blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatch("nothing to stack")
        first = blocks[0]
        if any(b.rows != first.rows or b.field != first.field for b in blocks):
            raise DimensionMismatch("row counts or moduli differ")
        data = [[v for b in blocks for v in b.data[i]] for i in range(first.rows)]
        return Matrix(first.field, data, cols=sum(b.cols for b in blocks))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise DimensionMismatch("moduli differ")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if not self.cols:  # no rows to combine: the kernel cannot tell the output length
            return Matrix.wrap(self.field, [[0] * other.cols for _ in range(self.rows)], other.cols)
        return Matrix.wrap(self.field, combine_rows(other.data, self.T), other.cols)

    def _eliminate(self):
        """Gauss-Jordan to reduced row echelon form; leftmost pivots first.

        Returns (rref rows, pivot column indices, pivot product). The product
        of the pivots, negated once per row swap, is the determinant of a
        square matrix of full rank. Column linear relations are preserved by
        row operations, which is what pivot_columns relies on.
        """
        p = self.field.p
        a = list(self.data)  # rows are replaced, never changed in place
        pivots: list[int] = []
        product = 1
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if a[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                a[r], a[pivot_row] = a[pivot_row], a[r]
                product = -product
            product = product * a[r][c] % p
            inv = pow(a[r][c], -1, p)
            a[r] = [v * inv % p for v in a[r]]
            lead = a[r]
            for i in range(self.rows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [(v - f * w) % p for v, w in zip(a[i], lead)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return a, pivots, product

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def pivot_columns(self):
        """Lexicographically-first maximal independent column set, plus expansion.

        Returns (pivots, expand): pivots is the ordered list of pivot column
        indices and expand is the len(pivots) x cols matrix of the nonzero
        rows of the reduced row echelon form, so that
        self == self.submatrix(range(self.rows), pivots) @ expand, exactly.
        """
        rref, pivots, _ = self._eliminate()
        return pivots, Matrix(self.field, rref[: len(pivots)], cols=self.cols)

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan on [A | I]; raises Singular when rank-deficient."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices have inverses")
        n = self.rows
        augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(self.data)]
        rref, pivots, _ = Matrix.wrap(self.field, augmented, 2 * n)._eliminate()
        if pivots != list(range(n)):
            raise Singular(f"rank < {n}")
        return Matrix(self.field, [row[n:] for row in rref], cols=n)

    def det(self) -> int:
        """Exact determinant mod p: the signed pivot product, or 0 below full rank."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant needs a square matrix")
        _, pivots, product = self._eliminate()
        return product if len(pivots) == self.rows else 0

    def __eq__(self, other):
        """Equal field, shape and entries, whether the rows are tuples or lists."""
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.shape == self.shape
            and list(map(tuple, other.data)) == list(map(tuple, self.data))
        )

    def __repr__(self):
        return f"Matrix(GF({self.field.p}), {self.rows}x{self.cols})"
