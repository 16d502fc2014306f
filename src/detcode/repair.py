"""Helper-independent repair of one or several failed nodes.

The public repair matrix of a failure tuple (the per-failure coefficient
matrices side by side) depends only on the failed nodes' encoder rows, and
one Gauss-Jordan pass factors it as compress @ expand in the unit-lead
basis: compress is its pivot columns, each scaled so that its first nonzero
entry is 1, and expand the nonzero rows of its reduced row echelon form,
each scaled back. Any invertible change of basis keeps the symbol count and
the exact decode, and this one makes every column of a systematic failed
node (whose encoder row is a unit vector, so each column holds one +-1) a
unit column: the helpers of a tuple of systematic nodes send their stored
planes as they are, with no kernel call, which is repair by transfer. A
helper sends its stripe batch (S x alpha) times compress, at most
beta_e = C(d, m) - C(d-e, m) symbols per stripe for e failures
(beta = C(d-1, m-1) for one): each unit column is a stored plane sent as
is, and the other columns take one product over only the planes they read
(:func:`transmit_plan`). The replacement side
expands the d received batches by expand, undoes the encoding with one
product over every stripe, and reads each failed node's stripes out by
signed sums. No helper needs to know which other nodes are helping;
single-failure repair is the case e = 1. So there is one compress per
failure tuple, whichever helpers serve it: :func:`repair_basis` builds it
and expand once as :class:`~detcode.field.Matrix`, which keeps them
prepared for the product kernel, and all d helpers of every repair of that
tuple share them. A helper serving several failure groups at once (naive
repair: one group per failed node) sends its batch times their compress
bases side by side, the same way, split into one payload per group
(:func:`helper_payloads`), so every repair costs a helper at most one
transmit product, naive included. A plane sent as is is not range-checked
by the helper: the receiver's product is the check, since every decode
(the operator's product, :func:`decompress_payload` in the factored
decode, the repair center's) packs every received symbol through the
kernel, which refuses one outside [0, p).

Both the repair matrix and the readout read the one sign rule,
:func:`detcode.subsets.incidence`: the matrix takes the signs as
coefficients, which :class:`~detcode.field.Matrix` reduces, and the readout
is one product of every column label's terms by their sign column
(:func:`detcode.code.incidence_terms`). No reduction mod p is written here.

That decode, step by step (:func:`decode_factored`), is a fixed linear map
from the symbols received per stripe to the e * alpha symbols of the failed
nodes, and so is the repair center's
(:func:`detcode.multirepair.decode_centralized`). :func:`decode_operator`
compiles either into one :class:`~detcode.field.Matrix` by running it on
the unit batch. A batch of at least twice as many stripes as the operator
has rows decodes by one product with it; a smaller batch runs the
factored decode, which also stays the operator's builder and the test
oracle. A cached operator's product beats the factored decode from one
times the rows on; a build plus one product breaks even only from about 3
times the rows at (12, 6, 3) with e = 3, 3 to 4 times with e = 1, and
beyond 8 times at (8, 4, 2) (CPython 3.11, plane-major batches, unit-lead
bases, whose expand has no unit pivot columns). The operator depends only on
the code, the decode, the failure and helper tuples and the mode, and the
default helpers give every object repaired after a node failure the same
tuple, so every repair of a tuple after the first skips the build. Every
compiled repair weight is kept by one rule: :func:`repair_basis`,
:func:`transmit_plan` and :func:`decode_operator` each keep a
least-recently-used cache bounded by the entries charged for it
(:data:`OPERATOR_BUDGET`), where a result larger than the budget is kept alone.

Transmit, decompression and the operator's decode each map S stripes to S
stripes by :func:`detcode.field.batch_product`: the plane-major batch (or
the planes a transmit reads, joined) or payloads go in as one part, and
plane-major product planes (a transmit's, assembled with its stored planes
into one block per failure group), vectors or failed batches (one block per
failure) come out. The helpers' repair vectors are node-major rows of
:func:`detcode.field.combine_rows` by the cached read inverse, and the
readout's sums hold each failed node's planes in order, one contiguous
block per failure. Every weight depends only on the failure and helper
tuples, so stripe data is never copied into a Matrix.

Wire format of a payload, version 6, all integers little-endian::

    <B version=6> <B m> <B e> <e x H failed ids> <H helper> <I count>
    followed by the count symbols' body (:func:`detcode.field.pack_symbols`):
      at p = 257  <B tag=1> <I escapes> <escapes x I positions> <count x B low bytes>
               or <B tag=2> <count x H symbols>   (only where tag 1 is longer)
      otherwise   count symbols of ceil(bits(p) / 8) bytes each

One payload carries a helper's symbols for every stripe under one header,
plane-major (symbol j of every stripe, then symbol j + 1), so count is a
multiple of rank(compress). The positions are those of the symbols equal
to 256, strictly increasing, so a GF(257) payload costs about 1 + 4/257
bytes per symbol. The body is decoded first and its symbol count compared
with count; version 3 (2-byte GF(257) symbols), version 4 (stripe after
stripe) and version 5 (this layout, but symbols in the raw pivot-column
basis, which a version 6 reader would decode wrongly) are refused. The basis
is not sent: both ends derive the unit-lead compress and expand from the
public repair matrix of (failed ids, m).
"""

from __future__ import annotations

import struct
from array import array
from collections import OrderedDict, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import update_wrapper
from threading import Lock
from typing import NamedTuple

from .code import EncoderMatrix, OverlapError, StripeBatch, checked_ids, derive_params, incidence_terms, recover_weights  # OverlapError re-exported
from .field import Matrix, batch_product, combine_rows, pack_symbols, symbol_array, symbol_typecode, unpack_symbols
from .subsets import binom, incidence


class WrongTarget(ValueError):
    """Payload addressed to a different failure set."""


def repair_matrix(f: int, m: int, encoder: EncoderMatrix) -> Matrix:
    """Repair-coefficient matrix for failed node f at mode m.

    Shape alpha x C(d, m-1): rows labeled by m-subsets, columns by
    (m-1)-subsets. The entry at (I, J) is (-1)**position(I, x) times the
    failed node's encoder coefficient for x when I = J + {x}, else zero.
    """
    d = encoder.d
    psi = encoder.row(f)
    cols = binom(d, m - 1)
    data = [[0] * cols for _ in range(binom(d, m))]
    for i, x, j, sign in incidence(d, m):
        data[i][j] = sign * psi[x - 1]
    return Matrix(encoder.field, data, cols=cols)


OPERATOR_BUDGET = 2**19
"""Charged entries (:func:`_charge`) that each of :func:`repair_basis`, :func:`transmit_plan` and
:func:`decode_operator` keeps.

Heap retained at p = 257, rows, prepared columns, key and cache node
included (tracemalloc around ``cache_clear()``). A kept operator fits about
16 bytes per entry, 58 per row and per column and 0.6-0.9 KiB per operator:
117 KiB for the 114 x 60 of a (12, 6, 3) three-failure joint operator, 2.9
KiB for the 12 x 6 of an (8, 4, 2) single one, 0.8-1.4 KiB for the 4 x 2
of an (8, 4, 4) two-failure joint one. Charged in 16-byte entry units, that
is 4 per row and per column and 64 per Matrix: at most 16 bytes per charged
entry. A kept basis or transmit plan, with both kernel preparations of
every Matrix, retains 11.7-19.1 bytes per charged entry at (8, 4, 2),
(12, 6, 3) and (16, 10, 3) with e <= 3 (a plan of stacked groups 15.7-19.1;
one whose weights are its basis's compress, shared, 8-9 at the smaller two):
the budget keeps 22 (16, 10, 3) three-failure bases in about 9.2 MiB, where
a count of 512 could keep 225 MiB."""


def _charge(kept) -> int:
    """Budget entries a kept Matrix costs: rows x columns, 4 per row and per column, and 64; a tuple, its parts' sum;
    anything else (a plane index, an absent Matrix), 1."""
    if isinstance(kept, tuple):
        return sum(map(_charge, kept))
    return kept.rows * kept.cols + 4 * (kept.rows + kept.cols) + 64 if isinstance(kept, Matrix) else 1


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _EntryBoundedCache:
    """Least-recently-used cache of a function returning a Matrix or a tuple of them, charging at most
    OPERATOR_BUDGET entries in all, or one larger result alone.

    Called with positional arguments only, which are the key. Kept results
    are shared, which Matrix allows: its rows never change. A new result
    evicts the least recently used ones until the kept ones fit the budget
    or it is kept alone, so one larger than the budget is built once while
    it is in use. The bookkeeping is locked, the build is not: threads
    missing one key at once each build it, and the first to finish is kept.
    """

    def __init__(self, build):
        update_wrapper(self, build)
        self._build, self._lock = build, Lock()
        self._kept, self._entries, self._hits, self._misses = OrderedDict(), 0, 0, 0

    def __call__(self, *key):
        kept = self._kept
        with self._lock:
            if (result := kept.get(key)) is not None:
                kept.move_to_end(key)
                self._hits += 1
                return result
            self._misses += 1
        result = self._build(*key)
        with self._lock:
            if key not in kept:
                kept[key] = result
                self._entries += _charge(result)
                while self._entries > OPERATOR_BUDGET and len(kept) > 1:
                    self._entries -= _charge(kept.popitem(last=False)[1])
        return result

    def cache_info(self) -> CacheInfo:
        """Hits, misses, the budget and the entries kept: maxsize and currsize count charged entries."""
        with self._lock:
            return CacheInfo(self._hits, self._misses, OPERATOR_BUDGET, self._entries)

    def cache_clear(self) -> None:
        with self._lock:
            self._kept.clear()
            self._entries = self._hits = self._misses = 0


@_EntryBoundedCache
def repair_basis(encoder: EncoderMatrix, failed: tuple[int, ...], m: int) -> tuple[Matrix, Matrix]:
    """(compress, expand) for a failure tuple, the unit-lead basis; cached per encoder, shared.

    Column j of failure i's segment of the tuple's repair matrix has index
    i * C(d, m-1) + j. compress is the alpha x rank
    :class:`~detcode.field.Matrix` of its pivot columns, each scaled so its
    first nonzero entry is 1, and expand the rank x e * C(d, m-1) nonzero
    rows of its reduced row echelon form, each scaled back, so the repair
    matrix is compress @ expand (:meth:`~detcode.field.Matrix.unit_lead_factors`).
    A systematic failed node's encoder row is a unit vector, so each of its
    pivot columns is a single +-1 and scales to a unit column: its helpers
    send rank of their stored symbols unchanged. Both keep their kernel
    preparation as long as the cache entry lives, charged as compress plus
    expand (:class:`_EntryBoundedCache`). A mode outside [1, d] raises BadMode naming m.
    """
    derive_params(encoder.d, m)
    checked_ids(failed, "failed ids", n=encoder.n)
    return Matrix.hstack([repair_matrix(f, m, encoder) for f in failed]).unit_lead_factors()


WIRE_VERSION = 6
_WIRE_HEAD = struct.Struct("<BBB")  # version, mode, failure count
_WIRE_TAIL = struct.Struct("<HI")  # helper id, symbol count


@dataclass(frozen=True)
class RepairPayload:
    """Compressed repair data one helper sends for a tuple of failed nodes, every stripe.

    ``symbols`` is any int sequence as given; :func:`helper_payload` and
    :meth:`from_bytes` give one array of
    :func:`detcode.field.symbol_typecode`, which never equals a tuple.
    """

    failed: tuple[int, ...]
    helper: int
    m: int
    symbols: Sequence[int]

    def to_bytes(self, p: int) -> bytes:
        """Serialize; a zero m or e, or a field that does not fit its wire slot, raises ValueError."""
        if not (self.m and self.failed):
            raise ValueError(f"payload {'mode m' if not self.m else 'failure count e'} must be at least 1, got 0")
        try:
            parts = [
                _WIRE_HEAD.pack(WIRE_VERSION, self.m, len(self.failed)),
                struct.pack(f"<{len(self.failed)}H", *self.failed),
                _WIRE_TAIL.pack(self.helper, len(self.symbols)),
            ]
        except struct.error as exc:
            raise ValueError(f"payload does not fit wire format v{WIRE_VERSION}: {exc}") from exc
        parts.append(pack_symbols(self.symbols, p))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes, p: int) -> "RepairPayload":
        """Parse one payload; every malformed blob raises ValueError."""
        try:
            version, m, e = _WIRE_HEAD.unpack_from(blob, 0)
            if version != WIRE_VERSION:
                raise ValueError(f"unsupported payload version {version}")
            failed = struct.unpack_from(f"<{e}H", blob, _WIRE_HEAD.size)
            offset = _WIRE_HEAD.size + 2 * e
            helper, count = _WIRE_TAIL.unpack_from(blob, offset)
        except struct.error as exc:
            raise ValueError(f"truncated payload header: {exc}") from exc
        if not (m and e):  # nothing to repair: refused here, not deep in decode
            raise ValueError(f"payload {'mode m' if not m else 'failure count e'} must be at least 1, got 0")
        symbols = unpack_symbols(blob[offset + _WIRE_TAIL.size :], p)
        if len(symbols) != count:
            raise ValueError(f"payload length holds {len(symbols)} symbols, not the header's count {count}")
        return cls(failed, helper, m, symbols)


class TransmitPlan(NamedTuple):
    """How a helper sends its stripe batch times compress (one basis, or several side by side): :func:`transmit_plan`.

    Payload plane j is plane picks[j] of the batch, its stored planes then
    the product planes: below alpha, the stored plane that unit column j of
    compress copies; from alpha on, product plane picks[j] - alpha. The
    product is the planes *reads*, joined in that order, times *weights*,
    compress on those planes and its other columns, one plane per column.
    weights is None where every column is a unit column, and compress itself
    where none is and the columns read every plane.
    """

    picks: tuple[int, ...]
    reads: tuple[int, ...]
    weights: Matrix | None


@_EntryBoundedCache
def transmit_plan(encoder: EncoderMatrix, groups: tuple[tuple[int, ...], ...], m: int) -> TransmitPlan:
    """The :class:`TransmitPlan` of the :func:`repair_basis` compress of each failure group, side by side; cached per
    encoder, shared, charged as its weights plus one entry per plane index (:class:`_EntryBoundedCache`).

    Groups of unequal rank raise ValueError: the payloads split the sent
    planes into equal blocks, one per group.
    """
    bases = [repair_basis(encoder, group, m)[0] for group in groups]
    if len(ranks := {basis.cols for basis in bases}) != 1:
        raise ValueError(f"failure groups {list(groups)} need one basis rank, got {sorted(ranks)}")
    compress = bases[0] if len(bases) == 1 else Matrix.hstack(bases)
    columns, units = compress.unit_columns
    others = [j for j, unit in enumerate(units) if unit is None]
    reads = tuple(i for i in range(compress.rows) if any(columns[j][i] for j in others))
    computed = iter(range(compress.rows, compress.rows + len(others)))
    picks = tuple(next(computed) if unit is None else unit for unit in units)
    if len(others) == compress.cols and len(reads) == compress.rows:
        return TransmitPlan(picks, reads, compress)
    return TransmitPlan(picks, reads, compress.submatrix(reads, others) if others else None)


def _planes(batch: array, stripes: int, picks) -> array:
    """Planes *picks* of the plane-major *batch* (stripes symbols each), joined in that order by slice copies."""
    out = array(batch.typecode)
    for i in picks:
        out += batch[i * stripes : (i + 1) * stripes]
    return out


def helper_payloads(h_content: StripeBatch, helper: int, groups, encoder: EncoderMatrix, m: int) -> list[RepairPayload]:
    """Repair data from one helper for each failure group: its stripe batch times every group's compress, side by side.

    compress is a function of the public repair matrix alone, so sender and
    receiver agree without negotiation and without knowing the other helpers.
    By the group's :func:`transmit_plan`, a unit column of compress sends its
    stored plane as is, with no kernel call; the other columns take one
    :func:`~detcode.field.batch_product` over only the planes they read (the
    whole batch where they read every plane). The sent planes split into one
    block per group, each that group's plane-major payload. A plane sent as
    is was not range-checked here: the receiver's product is the check
    (every decode packs every received symbol through the kernel).
    """
    groups = tuple(tuple(group) for group in groups)
    picks, reads, weights = transmit_plan(encoder, groups, m)
    stored, stripes, code = h_content.symbols, len(h_content), symbol_typecode(encoder.field.p)
    if stored.typecode != code:  # a narrower batch of a p above 2**32, or values past any p up to 2**32
        try:
            stored = array(code, stored)
        except OverflowError:
            raise ValueError(f"operand entry out of field range [0, {encoder.field.p})") from None
    if weights is not None:
        part = stored if len(reads) == h_content.alpha else _planes(stored, stripes, reads)
        if weights.cols == len(picks):  # no unit column: the product is the payloads
            blocks = batch_product([(part, len(reads))], weights, len(groups))
            return [RepairPayload(group, helper, m, block) for group, block in zip(groups, blocks)]
        stored = stored + batch_product([(part, len(reads))], weights)[0]  # product planes after the stored ones
    width = len(picks) // len(groups)
    blocks = [_planes(stored, stripes, picks[i * width : (i + 1) * width]) for i in range(len(groups))]
    return [RepairPayload(group, helper, m, block) for group, block in zip(groups, blocks)]


def helper_payload(h_content: StripeBatch, helper: int, failed, encoder: EncoderMatrix, m: int) -> RepairPayload:
    """Repair data from one helper for one failure tuple: :func:`helper_payloads` of that one group."""
    return helper_payloads(h_content, helper, (failed,), encoder, m)[0]


def _payload_shape(payload: RepairPayload, encoder: EncoderMatrix) -> tuple[Matrix, int]:
    """(expand, stripes): the payload's basis expand, one row per basis rank, and the stripes its symbols cover, by
    one basis lookup; ValueError unless whole."""
    expand, count = repair_basis(encoder, payload.failed, payload.m)[1], len(payload.symbols)
    if count % expand.rows:
        raise ValueError(f"payload from helper {payload.helper} carries {count} symbols, not a multiple of the basis rank {expand.rows}")
    return expand, count // expand.rows


def decompress_payload(payload: RepairPayload, encoder: EncoderMatrix, expand: Matrix | None = None) -> array:
    """Full-length repair vectors, plane-major: the received symbols times expand, one product.

    *expand*, where the caller has it from :func:`_payload_shape` (as
    :func:`decode_payloads` does), saves the basis lookup.
    """
    if expand is None:
        expand, _ = _payload_shape(payload, encoder)
    return batch_product([(payload.symbols, expand.rows)], expand)[0]


def decode_failed_nodes(payloads, helper_ids, encoder: EncoderMatrix, failed, m: int) -> dict[int, StripeBatch]:
    """Exact stripe batch of every failed node from d helper payloads, at the receiver's mode *m*."""
    failed = checked_ids(failed, "failed ids", n=encoder.n)
    helper_ids = checked_ids(helper_ids, "helpers", n=encoder.n, count=encoder.d, failed=failed)
    if tuple(payload.helper for payload in payloads) != helper_ids:
        raise ValueError(f"payloads must come from helpers {list(helper_ids)}, in that order")
    for payload in payloads:
        if payload.m != m:
            raise ValueError(f"payload from helper {payload.helper} has mode m={payload.m}, not the receiver's m={m}")
        if payload.failed != failed:
            raise WrongTarget(
                f"payload from helper {payload.helper} targets nodes {payload.failed}, not {failed}"
            )
    return decode_payloads(decode_factored, payloads, encoder, failed)


def decode_factored(payloads, encoder: EncoderMatrix, failed, expands=None) -> dict[int, StripeBatch]:
    """Joint decode step by step: decompress each payload (by its *expands* entry where given), then
    decode_repair_vectors.

    The builder and the test oracle of the joint decode operator.
    """
    expands = expands or [None] * len(payloads)
    vectors = [decompress_payload(payload, encoder, expand) for payload, expand in zip(payloads, expands)]
    helper_ids = tuple(payload.helper for payload in payloads)
    return decode_repair_vectors(vectors, helper_ids, encoder, failed, payloads[0].m)


def decode_payloads(factored, payloads, encoder: EncoderMatrix, failed) -> dict[int, StripeBatch]:
    """Failed stripe batches from payloads, by the operator of *factored* or by *factored* itself.

    *factored(payloads, encoder, failed, expands)* is a linear decode. From
    twice as many stripes as its operator has rows (one per received symbol
    of a stripe) the batch goes through the operator: one lookup (one build on
    a cache miss), one product, no intermediate repair vectors. Fewer stripes
    run *factored* directly, handed each payload's expand from the one basis
    lookup per payload here, and keep nothing.
    """
    shapes = [_payload_shape(payload, encoder) for payload in payloads]
    if len(counts := {stripes for _, stripes in shapes}) != 1:
        raise ValueError(f"payloads carry different stripe counts {sorted(counts)}")
    ranks = [expand.rows for expand, _ in shapes]
    if counts.pop() < 2 * sum(ranks):
        return factored(payloads, encoder, failed, [expand for expand, _ in shapes])
    sources = tuple((payload.helper, payload.failed, rank) for payload, rank in zip(payloads, ranks))
    operator = decode_operator(factored, encoder, failed, sources, payloads[0].m)
    decoded = batch_product([(pl.symbols, rank) for pl, rank in zip(payloads, ranks)], operator, len(failed))
    return {f: StripeBatch(flat, operator.cols // len(failed)) for f, flat in zip(failed, decoded)}


@_EntryBoundedCache
def decode_operator(factored, encoder: EncoderMatrix, failed: tuple[int, ...], sources, m: int) -> Matrix:
    """Decode operator of *factored*: a Matrix of received symbols per stripe x e * alpha; cached, shared.

    *sources* is the (helper, failure tuple it serves, basis rank) of each
    payload, in order. The operator is *factored* run on the unit batch,
    whose stripe t carries a 1 in received position t (payload after
    payload, rank positions each; plane j of a payload holds its position
    j): row t is that decode's output for stripe t, the failed nodes' alpha
    entries each in failure order. Kernel
    outputs or unit-batch copies, they are canonical: wrapped
    unchecked, as tuples, since a kept operator is shared.

    Every argument is the key (the encoder by identity, which
    :func:`detcode.code.build_encoder` shares), positional only. The least
    recently used operators are evicted first to keep their charged entries
    within :data:`OPERATOR_BUDGET`, or the newest alone where it is larger;
    ``decode_operator.cache_info()`` reports hits, misses, the budget and the
    charged entries kept, and ``cache_clear()`` empties it.
    """
    total = sum(rank for _, _, rank in sources)
    payloads, offset = [], 0
    for helper, target, rank in sources:
        symbols = symbol_array([0] * (total * rank))
        symbols[offset :: total + 1] = symbol_array([1] * rank)  # plane j: a 1 at stripe offset + j
        payloads.append(RepairPayload(target, helper, m, symbols))
        offset += rank
    decoded = factored(payloads, encoder, failed)
    rows = tuple(tuple([v for f in failed for v in decoded[f][t]]) for t in range(total))
    return Matrix.wrap(encoder.field, rows, len(failed) * decoded[failed[0]].alpha)


def decode_repair_vectors(vectors, helper_ids, encoder: EncoderMatrix, failed, m: int) -> dict[int, StripeBatch]:
    """Failed stripe batches from the d decompressed repair vectors, helper order.

    One product with the inverse of the selected encoder rows (the cached
    read weights :func:`detcode.code.recover_weights` of the d helpers)
    decodes every stripe and failure: the result holds a d x C(d, m-1) repair space per
    stripe and failure, plane-major, one block of planes per failure, each decoded by signed sums.
    """
    space = combine_rows(vectors, recover_weights(encoder, tuple(helper_ids)))
    sums = combine_repair_space(space, encoder.d, m, encoder.field, len(failed))
    size = len(sums) // len(failed)  # failure i's stripes are block i of the sums
    return {f: StripeBatch(sums[i * size : (i + 1) * size], binom(encoder.d, m)) for i, f in enumerate(failed)}


def combine_repair_space(rows, d: int, m: int, field, groups: int = 1) -> array:
    """Signed-sum readout of repair spaces, plane-major: entry (g * alpha + r) * B + b is label r of space b of group g.

    *rows* are the d rows of *groups* blocks of B spaces each; column j of
    space b of group g is entry (g * C(d, m-1) + j) * B + b. Its entry at
    column label I is the sum over x in I of (-1)**position(I, x) times the
    entry at (row x, column I - {x}): one product of every label's terms by
    their sign column (:func:`detcode.code.incidence_terms`).
    """
    return combine_rows(*incidence_terms(rows, d, m, binom(d, m - 1), field, groups=groups))[0]
