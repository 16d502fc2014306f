"""Code parameters, encoder matrix, message matrix, and full data recovery.

A code instance is determined by (n, d, m, p): n storage nodes, any d of
which suffice to recover the file, mode m selecting a point on the
storage/bandwidth trade-off, and a prime field modulus p. Derived sizes:

    alpha = C(d, m)          symbols stored per node
    beta  = C(d-1, m-1)      symbols downloaded per helper per repair
    F     = m * C(d+1, m+1)  source symbols per stripe

The message matrix of S stripes is d x (S * alpha), plane-major: position
c of stripe s is column c * S + s. Node i stores row i of its product with
the n x d encoder matrix as one flat :class:`StripeBatch`, whose plane
``symbols[c * S:(c + 1) * S]`` is symbol c of every stripe: no layer builds
a list per stripe, and every kernel operand is one plane. Message rows and
node content are machine-word arrays (:func:`detcode.field.symbol_typecode`);
a byte source is scattered into them one plane per source cell
(:func:`build_message_matrix`), and a read's further-node check is one
array comparison per node. A block's source
cells (:func:`source_cells`) and parity groups are read from
:func:`detcode.subsets.incidence`, the package's one sign rule. Every
alternating sum is one kernel product by a sign column
(:func:`incidence_terms`): one completes every parity cell of every group
and stripe, one checks every group on recover, by a zero test of its
output. A source other than bytes is reduced once on entry
(:func:`detcode.field.reduced`; a byte source over p > 255 is canonical as
it is), so the matrix needs no reducing copy.
A read's weights, one cached inversion per node tuple (:func:`recover_weights`),
also decode a repair from d helpers (:func:`detcode.repair.decode_repair_vectors`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .field import (  # CompositeModulus and FieldTooLarge re-exported
    CompositeModulus,
    Field,
    FieldTooLarge,
    Matrix,
    combine_rows,
    reduced,
    symbol_array,
    symbol_typecode,
    widen,
)
from .subsets import binom, incidence, subsets


class BadMode(ValueError):
    """Mode m outside [1, d]."""


class FieldTooSmall(ValueError):
    """Modulus too small for the requested node count."""


class WrongLength(ValueError):
    """Source symbol sequence has the wrong length."""


class ParityViolation(ValueError):
    """Read data is corrupt: a parity constraint fails, or further nodes disagree with the read.

    ``nodes`` lists every further node of a read whose batch differs from its
    re-encoding, in read order; it is empty when the read itself fails parity.
    """

    def __init__(self, message: str, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class OverlapError(ValueError):
    """Helper set intersects the failed set."""


def checked_ids(ids, what: str, n: int | None = None, count: int | None = None, failed=()) -> tuple[int, ...]:
    """*ids* as a tuple, checked: exactly *count* (if given), distinct, in [1, n] (if given), none *failed*.

    The one node-id rule of every repair and recover entry; *what* names the ids in its errors.
    """
    ids = tuple(ids)
    if count is not None and len(ids) != count:
        raise ValueError(f"need exactly {count} distinct {what}, got {list(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{what} must be distinct, got {list(ids)}")
    if n is not None and (outside := [i for i in ids if not 1 <= i <= n]):
        raise ValueError(f"node id {outside[0]} not in [1, {n}]")
    if overlap := sorted(set(ids) & set(failed)):
        raise OverlapError(f"helpers {overlap} are failed")
    return ids


@lru_cache(maxsize=256)
def derive_params(d: int, m: int) -> tuple[int, int, int]:
    """(alpha, beta, F) for helpers-per-repair d and mode m.

    Cached, and bounded because a shard header may name any (d, m); BadMode is raised anew on every call.
    """
    if not 1 <= m <= d:
        raise BadMode(f"mode must satisfy 1 <= m <= d, got m={m}, d={d}")
    return binom(d, m), binom(d - 1, m - 1), m * binom(d + 1, m + 1)


@dataclass(frozen=True)
class StripeBatch:
    """One node's content: S stripes of alpha symbols, plane-major (position c of stripe s at c * S + s), in one array.

    The array is array('I') where every symbol is below 2**32 (every p up
    to 2**32, so p = 257) and array('Q') otherwise: the kernel packs it as
    its own buffer and the shard codec widens and narrows it by byte-plane
    copies, with no int object per symbol. Symbols given as any other
    sequence are converted once, here (:func:`detcode.field.symbol_array`);
    ValueError for one outside [0, 2**64). An array never equals a list, and
    ``bytes()`` of it is its raw machine buffer, not one byte per symbol:
    compare ``list(batch.symbols)`` with a list.

    ``len`` is S; ``batch[s]`` and iteration (by index) yield stripe rows, ``symbols[s::S]``, as array slices,
    which never equal a list.
    """

    symbols: array
    alpha: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "symbols", symbol_array(self.symbols))
        except (OverflowError, TypeError):
            raise ValueError("stripe symbols must be ints in [0, 2**64)") from None
        if self.alpha < 1 or len(self.symbols) % self.alpha:
            raise ValueError(f"{len(self.symbols)} symbols are not whole stripes of alpha = {self.alpha}")

    def __len__(self) -> int:
        return len(self.symbols) // self.alpha

    def __getitem__(self, s: int) -> array:
        """Stripe s (negative counts from the end) as a fresh array slice of alpha symbols; IndexError past S."""
        stripes = len(self)
        return self.symbols[range(stripes)[s] :: stripes]


@dataclass(frozen=True)
class CodeConfig:
    """Single source of parameter truth: (n, d, m, p) plus derived sizes."""

    n: int
    d: int
    m: int
    p: int

    def __post_init__(self):
        derive_params(self.d, self.m)  # raises BadMode
        field = Field(self.p)  # FieldTooLarge or CompositeModulus
        if not self.d < self.n:
            raise ValueError(f"need d < n, got d={self.d}, n={self.n}")
        _encoder_points(self.n, field)  # FieldTooSmall; builds nothing (shard headers come here)

    @property
    def alpha(self) -> int:
        return derive_params(self.d, self.m)[0]

    @property
    def beta(self) -> int:
        return derive_params(self.d, self.m)[1]

    @property
    def file_symbols(self) -> int:
        return derive_params(self.d, self.m)[2]

    @property
    def field(self) -> Field:
        return Field(self.p)


class EncoderMatrix:
    """n x d generator over GF(p); every d x d row-submatrix is invertible."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix

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
        checked_ids((node_id,), "node id", n=self.n)
        return self.matrix.row(node_id - 1)

    def rows_submatrix(self, node_ids) -> Matrix:
        """Encoding rows of distinct nodes, in the given order."""
        return self.matrix.submatrix([i - 1 for i in checked_ids(node_ids, "node ids", n=self.n)], range(self.d))


@lru_cache(maxsize=512)
def recover_weights(encoder: EncoderMatrix, node_ids: tuple[int, ...]) -> Matrix:
    """d x len(node_ids) weight matrix of a read: column i is row i of the first d ids' inverse, or id i's row times it.

    Cached: every read or repair by these ids in this order shares one inversion (d ids weight a repair decode too).
    """
    inverse = encoder.rows_submatrix(node_ids[: encoder.d]).inverse()
    checks = encoder.rows_submatrix(node_ids[encoder.d :]) @ inverse
    return Matrix.wrap(encoder.field, [*inverse.data, *checks.data], encoder.d).T


def _encoder_points(n: int, field: Field) -> range:
    """The encoder's Vandermonde points 1..n: distinct and nonzero only if p >= n + 1, else FieldTooSmall."""
    if field.p < n + 1:
        raise FieldTooSmall(
            f"need p >= n + 1 = {n + 1} distinct nonzero generators, got p={field.p}"
        )
    return range(1, n + 1)


@lru_cache(maxsize=64)
def build_encoder(n: int, d: int, field: Field) -> EncoderMatrix:
    """Vandermonde generator on points 1..n, in systematic form.

    Row i of the raw matrix is (i**0, i**1, ..., i**(d-1)), reduced by Matrix.
    Systematic form right-multiplies by the inverse of the top d x d block,
    making the first d nodes store raw message rows. Any d rows of a
    Vandermonde matrix on distinct points are independent, and so are they
    after multiplying by an invertible matrix: MDS without a runtime check.

    Memoized on the arguments, so every cluster of the same (n, d, p) shares
    one encoder, and with it the repair bases cached per encoder. The
    returned encoder is shared: do not mutate it.
    """
    vand = Matrix(field, [[i**j for j in range(d)] for i in _encoder_points(n, field)])
    return EncoderMatrix(vand @ vand.submatrix(range(d), range(d)).inverse())


@lru_cache(maxsize=None)
def source_cells(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """The F source cells of a stripe's block, 0-based (row, column), in source order; cached.

    The direct cells (x - 1, rank of I) of incidence(d, m), then each (m+1)-set K's cells
    (x - 1, rank of K - {x}) of every member but the largest, whose cell is K's parity.
    """
    shared = incidence(d, m + 1) if m < d else ()
    return tuple((x - 1, i) for i, x, _, _ in incidence(d, m)) + tuple(
        (x - 1, i) for t, (_, x, i, _) in enumerate(shared) if t % (m + 1) < m
    )


@lru_cache(maxsize=None)
def _sign_column(k: int, field: Field, parity: bool) -> Matrix:
    """The one-column weight Matrix of :func:`incidence_terms`, cached: the k members' signs in order, which every
    k-set shares with the one k-set of [1, k]; with *parity*, the first k - 1 times minus the last."""
    signs = [sign for *_, sign in incidence(k, k)]
    if parity:
        signs = [-signs[-1] * sign for sign in signs[:-1]]
    return Matrix(field, [[sign] for sign in signs])


def incidence_terms(rows, d: int, k: int, width: int, field: Field, parity: bool = False, groups: int = 1) -> tuple[list[array], Matrix]:
    """The terms and sign column of every k-set K's alternating sum over *rows*: one combine_rows call.

    *rows* are d rows of *groups* blocks of *width* planes of B entries each:
    column j of block g is the plane from (g * width + j) * B. Term i is one
    array of :func:`detcode.field.symbol_typecode` holding, block after
    block and K after K within it, its member x's plane j of block g in
    ``rows[x - 1]``, j the rank of K - {x}; entry (g * R + r) * B + b of the
    product is K's sum over entry b of block g (K of rank r of R). Member i
    of every K has the sign (-1)**(i + 1), p - 1 for -1 in the column. With
    *parity* the largest member's term is left out and the others' signs are
    multiplied by minus its sign: the product is then the entry of K's
    parity cell, the largest member's, that makes K's sum vanish. Each plane
    is one contiguous slice copy.
    """
    code, table = symbol_typecode(field.p), incidence(d, k)
    plane, terms = len(rows[0]) // (width * groups) if rows else 0, []
    for i in range(k - 1 if parity else k):
        flat = array(code)  # rows of this typecode are copied as buffers: no int per symbol
        for g in range(groups):
            for _, x, j, _ in table[i::k]:
                start = (g * width + j) * plane
                flat.extend(rows[x - 1][start : start + plane])
        terms.append(flat)
    return terms, _sign_column(k, field, parity)


class MessageMatrix:
    """d x (S * alpha) symbol matrix of mode m: S stripes plane-major, position c of stripe s in column c * S + s.

    In each stripe's block, the entry at row x, column label I is a direct
    source symbol when x is a member of I, and otherwise the shared symbol
    tied to the (m+1)-set I + {x}. For each (m+1)-set the slot owned by its
    largest member is a parity fixed so the alternating sum over the set
    vanishes. d is the matrix's row count; an m outside [1, d] raises BadMode.
    """

    def __init__(self, matrix: Matrix, m: int):
        self.matrix, self.d, self.m = matrix, matrix.rows, m
        self.alpha = derive_params(self.d, m)[0]
        if matrix.cols % self.alpha:
            raise WrongLength(f"message matrix must be {self.d} x (S * {self.alpha}), got {matrix.shape}")

    @property
    def stripes(self) -> int:
        return self.matrix.cols // self.alpha

    def verify_parity(self) -> None:
        """Check every alternating-sum constraint of every stripe by one product (:func:`incidence_terms`) and a
        zero test of its output; raises ParityViolation naming the first failing group, then stripe."""
        if self.m == self.d:
            return
        sums = combine_rows(*incidence_terms(self.matrix.data, self.d, self.m + 1, self.alpha, self.matrix.field))[0]
        if sums != array(sums.typecode, [0]) * len(sums):  # one C-level compare
            k, bad = divmod(next(t for t, v in enumerate(sums) if v), self.stripes)
            raise ParityViolation(f"stripe {bad}: parity fails for {subsets(self.d, self.m + 1).unrank(k)}")

    def extract_symbols(self) -> array:
        """Source symbols back out, stripe after stripe, in canonical order, as one array of
        :func:`detcode.field.symbol_typecode`; does not check parity. Each source cell's plane is one slice, written
        into every stripe by one strided slice assignment."""
        rows, stripes, cells = self.matrix.data, self.stripes, source_cells(self.d, self.m)
        flat = array(symbol_typecode(self.matrix.field.p), [0]) * (stripes * len(cells))
        for t, (r, c) in enumerate(cells):
            flat[t :: len(cells)] = rows[r][c * stripes : (c + 1) * stripes]
        return flat

    def __eq__(self, other):
        return isinstance(other, MessageMatrix) and other.matrix == self.matrix


def build_message_matrix(source, d: int, m: int, field: Field) -> MessageMatrix:
    """Arrange S * F source symbols (any ints), stripe after stripe, into S plane-major stripes, completing parities.

    Each row is one array of :func:`detcode.field.symbol_typecode`, and
    source cell t = (r, c) of every stripe, ``source[t::F]``, is plane c of
    row r. A bytes or bytearray source over p > 255 is canonical as it is:
    each cell's bytes fill its plane of the row's low byte plane, which is
    then widened, with no int per symbol. Any other source is reduced once
    on entry and scattered by array slice assignment.
    """
    alpha, _, per_stripe = derive_params(d, m)
    if len(source) % per_stripe:
        raise WrongLength(
            f"need a whole number of stripes of {per_stripe} source symbols, got {len(source)}"
        )
    code, stripes = symbol_typecode(field.p), len(source) // per_stripe
    if isinstance(source, (bytes, bytearray)) and field.p > 255:
        data = [bytearray(stripes * alpha) for _ in range(d)]
    else:
        source, data = reduced(source, field.p), [array(code, [0]) * (stripes * alpha) for _ in range(d)]
    for t, (r, c) in enumerate(source_cells(d, m)):
        data[r][c * stripes : (c + 1) * stripes] = source[t::per_stripe]
    data = [row if isinstance(row, array) else widen(row, 1, code) for row in data]
    if m < d:  # source and parity cells are disjoint: one product completes every group of every stripe
        parities = combine_rows(*incidence_terms(data, d, m + 1, alpha, field, parity=True))[0]
        for g, (_, x, i, _) in enumerate(incidence(d, m + 1)[m :: m + 1]):
            data[x - 1][i * stripes : (i + 1) * stripes] = parities[g * stripes : (g + 1) * stripes]
    return MessageMatrix(Matrix.wrap(field, data, stripes * alpha), m)


def encode(encoder: EncoderMatrix, message: MessageMatrix) -> list[StripeBatch]:
    """Per-node stripe batches: the rows of the encoder-times-message product."""
    product = encoder.matrix @ message.matrix
    return [StripeBatch(row, message.alpha) for row in product.data]


def recover_data(contents, node_ids, encoder: EncoderMatrix, m: int) -> MessageMatrix:
    """Rebuild the message matrix of every stripe from the stripe batches of d or more nodes.

    One packed product of the cached :func:`recover_weights` with the first
    d ids' flat symbol lists rebuilds the message; parity is then verified
    per stripe. Each further id's output re-encodes its batch: if any
    differ, ParityViolation names the first and lists all in ``nodes``.
    """
    node_ids, d = checked_ids(node_ids, "node ids", n=encoder.n), encoder.d
    if len(node_ids) < d:
        raise ValueError(f"need at least {d} distinct node ids, got {list(node_ids)}")
    if len(contents) != len(node_ids):
        raise ValueError(f"{len(contents)} stripe batches for {len(node_ids)} node ids")
    rows = combine_rows([batch.symbols for batch in contents[:d]], recover_weights(encoder, node_ids))
    message = MessageMatrix(Matrix.wrap(encoder.field, rows[:d], len(rows[0])), m)
    message.verify_parity()
    bad = [i for i, batch, expected in zip(node_ids[d:], contents[d:], rows[d:]) if batch.symbols != expected]
    if bad:
        raise ParityViolation(f"node {bad[0]} disagrees with the data read from nodes {list(node_ids[:d])}", bad)
    return message
