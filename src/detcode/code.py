"""Code parameters, encoder matrix, message matrix, and full data recovery.

A code instance is determined by (n, d, m, p): n storage nodes, any d of
which suffice to recover the file, mode m selecting a point on the
storage/bandwidth trade-off, and a prime field modulus p. Derived sizes:

    alpha = C(d, m)          symbols stored per node
    beta  = C(d-1, m-1)      symbols downloaded per helper per repair
    F     = m * C(d+1, m+1)  source symbols per stripe

Node i stores row i of the product of the n x d encoder matrix with the
d x alpha message matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import Field, Matrix, is_prime, CompositeModulus
from .subsets import binom, position, subsets


class BadMode(ValueError):
    """Mode m outside [1, d]."""


class FieldTooSmall(ValueError):
    """Modulus too small for the requested node count."""


class WrongLength(ValueError):
    """Source symbol sequence has the wrong length."""


class ParityViolation(ValueError):
    """An alternating-sum parity constraint fails; data is corrupt."""


def derive_params(d: int, m: int) -> tuple[int, int, int]:
    """(alpha, beta, F) for helpers-per-repair d and mode m."""
    if not 1 <= m <= d:
        raise BadMode(f"mode must satisfy 1 <= m <= d, got m={m}, d={d}")
    return binom(d, m), binom(d - 1, m - 1), m * binom(d + 1, m + 1)


def tradeoff_bound(d: int, level: int, alpha: int, beta: int) -> Fraction:
    """Largest file size a linear code with the given (alpha, beta) can store.

    Piecewise-linear in (alpha, beta); *level* is the segment index,
    floor(d*beta/alpha). Returned as an exact rational.
    """
    return Fraction(d + 1, level + 2) * (level * alpha + Fraction(d, level + 1) * beta)


@dataclass(frozen=True)
class CodeConfig:
    """Single source of parameter truth: (n, d, m, p) plus derived sizes."""

    n: int
    d: int
    m: int
    p: int

    def __post_init__(self):
        if not 1 <= self.m <= self.d:
            raise BadMode(f"mode must satisfy 1 <= m <= d, got m={self.m}, d={self.d}")
        if not self.d < self.n:
            raise ValueError(f"need d < n, got d={self.d}, n={self.n}")
        if not is_prime(self.p):
            raise CompositeModulus(f"modulus {self.p} is not prime")
        if self.p < self.n + 1:
            raise FieldTooSmall(
                f"need p >= n + 1 = {self.n + 1} distinct nonzero generators, got p={self.p}"
            )

    @property
    def alpha(self) -> int:
        return binom(self.d, self.m)

    @property
    def beta(self) -> int:
        return binom(self.d - 1, self.m - 1)

    @property
    def file_symbols(self) -> int:
        return self.m * binom(self.d + 1, self.m + 1)

    @property
    def field(self) -> Field:
        return Field(self.p)


class EncoderMatrix:
    """n x d generator over GF(p); every d x d row-submatrix is invertible."""

    def __init__(self, matrix: Matrix, systematic: bool):
        self.matrix = matrix
        self.systematic = systematic

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def d(self) -> int:
        return self.matrix.cols

    @property
    def field(self) -> Field:
        return self.matrix.field

    def row(self, node_id: int) -> list[int]:
        """Encoding row of a node; node ids are 1-based."""
        if not 1 <= node_id <= self.n:
            raise ValueError(f"node id {node_id} not in [1, {self.n}]")
        return self.matrix.row(node_id - 1)

    def entry(self, node_id: int, x: int) -> int:
        """Coefficient applied to message row x (1-based) in a node's content."""
        return self.matrix[node_id - 1, x - 1]

    def rows_submatrix(self, node_ids) -> Matrix:
        return self.matrix.submatrix([i - 1 for i in node_ids], range(self.d))


@lru_cache(maxsize=64)
def build_encoder(n: int, d: int, field: Field, systematic: bool = True) -> EncoderMatrix:
    """Vandermonde generator on points 1..n, optionally in systematic form.

    Row i of the raw matrix is (i**0, i**1, ..., i**(d-1)) mod p. Systematic
    form right-multiplies by the inverse of the top d x d block, making the
    first d nodes store raw message rows. Any d rows of a Vandermonde matrix
    on distinct points are independent, and so are they after multiplying by
    an invertible matrix: the result is MDS without a runtime check.

    Memoized on the arguments, so every cluster of the same (n, d, p) shares
    one encoder, and with it the repair bases cached per encoder. The
    returned encoder is shared: do not mutate it.
    """
    if field.p < n + 1:
        raise FieldTooSmall(
            f"need p >= n + 1 = {n + 1} distinct nonzero generators, got p={field.p}"
        )
    vand = Matrix(field, [[pow(i, j, field.p) for j in range(d)] for i in range(1, n + 1)])
    if systematic:
        top = vand.submatrix(range(d), range(d))
        vand = vand @ top.inverse()
    return EncoderMatrix(vand, systematic)


class SymbolLayout:
    """Canonical placement of the F source symbols in the d x alpha message matrix.

    Source order is the direct-symbol block first (columns in lexicographic
    order, member x ascending within each column label), then the
    cross-column block ((m+1)-subsets in lexicographic order, x ascending,
    the largest member excluded: that slot is a parity).
    """

    __slots__ = ("d", "m", "columns", "v_slots", "w_slots", "parity_sets", "file_symbols")

    def __init__(self, d: int, m: int):
        self.d = d
        self.m = m
        self.columns = subsets(d, m)
        self.v_slots = tuple(
            (x, label) for label in self.columns.ordering for x in label
        )
        if m < d:
            w_sets = subsets(d, m + 1).ordering
        else:
            w_sets = ()
        self.w_slots = tuple((x, label) for label in w_sets for x in label[:-1])
        self.parity_sets = w_sets
        self.file_symbols = len(self.v_slots) + len(self.w_slots)


@lru_cache(maxsize=None)
def symbol_layout(d: int, m: int) -> SymbolLayout:
    return SymbolLayout(d, m)


class MessageMatrix:
    """d x alpha symbol matrix with subset-labeled columns.

    Entry at row x, column label I is a direct source symbol when x is a
    member of I, and otherwise the shared symbol tied to the (m+1)-set
    I + {x}. For each (m+1)-set the slot owned by its largest member is a
    parity fixed so the alternating sum over the set vanishes.
    """

    def __init__(self, layout: SymbolLayout, matrix: Matrix):
        if matrix.shape != (layout.d, len(layout.columns)):
            raise WrongLength(
                f"message matrix must be {layout.d} x {len(layout.columns)}, got {matrix.shape}"
            )
        self.layout = layout
        self.matrix = matrix

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def m(self) -> int:
        return self.layout.m

    def entry(self, x: int, column_label) -> int:
        return self.matrix[x - 1, self.layout.columns.rank(column_label)]

    def shared_symbol(self, x: int, members) -> int:
        """Value of the (m+1)-set symbol (x, members), read from its slot."""
        rest = tuple(y for y in members if y != x)
        return self.matrix[x - 1, self.layout.columns.rank(rest)]

    def verify_parity(self) -> None:
        """Check every alternating-sum constraint; raises ParityViolation."""
        field = self.matrix.field
        for group in self.layout.parity_sets:
            total = 0
            for y in group:
                total += field.signed(self.shared_symbol(y, group), position(group, y))
            if total % field.p != 0:
                raise ParityViolation(f"parity fails for {group}")

    def extract_symbols(self) -> list[int]:
        """Source symbols back out, in canonical order; verifies parity first."""
        self.verify_parity()
        out = [self.entry(x, label) for x, label in self.layout.v_slots]
        out.extend(self.shared_symbol(x, label) for x, label in self.layout.w_slots)
        return out

    def __eq__(self, other):
        return isinstance(other, MessageMatrix) and other.matrix == self.matrix


def build_message_matrix(source, d: int, m: int, field: Field) -> MessageMatrix:
    """Arrange F source symbols into the message matrix, completing parities."""
    layout = symbol_layout(d, m)
    source = [field.element(v) for v in source]
    if len(source) != layout.file_symbols:
        raise WrongLength(
            f"need exactly {layout.file_symbols} source symbols, got {len(source)}"
        )
    values: dict[tuple[int, tuple[int, ...]], int] = {}
    it = iter(source)
    for slot in layout.v_slots:
        values[slot] = next(it)
    for slot in layout.w_slots:
        values[slot] = next(it)
    for group in layout.parity_sets:
        top = group[-1]
        acc = 0
        for y in group[:-1]:
            acc += field.signed(values[(y, group)], position(group, y))
        values[(top, group)] = field.signed(acc, m)

    columns = layout.columns
    data = [[0] * len(columns) for _ in range(d)]
    for col_idx, label in enumerate(columns.ordering):
        member_set = set(label)
        for x in range(1, d + 1):
            if x in member_set:
                data[x - 1][col_idx] = values[(x, label)]
            else:
                joined = tuple(sorted(member_set | {x}))
                data[x - 1][col_idx] = values[(x, joined)]
    return MessageMatrix(layout, Matrix(field, data))


def encode(encoder: EncoderMatrix, message: MessageMatrix) -> list[list[int]]:
    """Per-node contents: row i of the encoder-times-message product."""
    product = encoder.matrix @ message.matrix
    return [product.row(i) for i in range(encoder.n)]


def recover_data(contents, node_ids, encoder: EncoderMatrix, m: int) -> MessageMatrix:
    """Rebuild the message matrix from any d node contents.

    Inverts the d encoder rows selected by *node_ids* and re-verifies the
    parity constraints (a cheap integrity check on the recovered data).
    """
    node_ids = list(node_ids)
    if len(node_ids) != encoder.d or len(set(node_ids)) != len(node_ids):
        raise ValueError(f"need exactly {encoder.d} distinct node ids, got {node_ids}")
    stacked = Matrix.stack_rows(encoder.field, contents)
    dmat = encoder.rows_submatrix(node_ids).inverse() @ stacked
    message = MessageMatrix(symbol_layout(encoder.d, m), dmat)
    message.verify_parity()
    return message
