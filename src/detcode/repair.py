"""Helper-independent repair of one or several failed nodes.

The public repair matrix of a failure tuple (the per-failure coefficient
matrices side by side) depends only on the failed nodes' encoder rows, and
one Gauss-Jordan pass factors it as compress @ expand: compress is its
pivot columns, expand the nonzero rows of its reduced row echelon form. A
helper multiplies its own content by compress and transmits the result (at
most beta_e = C(d, m) - C(d-e, m) symbols for e failures, beta =
C(d-1, m-1) for one). The replacement side expands each of the d received
vectors by expand, undoes the encoding, and reassembles each failed node's
symbols by signed sums. No helper needs to know which other nodes are
helping. Single-failure repair is the case e = 1 of the same path. The
repair matrix and the signed-sum readout both read
:func:`detcode.subsets.incidence`, the package's one sign rule.

Wire format of a payload, version 2, all integers little-endian::

    <B version=2> <B m> <B e> <e x H failed ids> <H helper> <H count>
    followed by count symbols of element_width(p) bytes each

Pivot columns are not sent: both ends derive them from the public repair
matrix of (failed ids, m). Symbols are packed by
:func:`detcode.field.pack_symbols`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .code import EncoderMatrix, rows_inverse
from .field import Matrix, element_width, pack_symbols, unpack_symbols, vec_mat
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


@lru_cache(maxsize=512)
def repair_basis(encoder: EncoderMatrix, failed: tuple[int, ...], m: int):
    """(compress, pivot columns, expand) for a failure tuple; cached per encoder.

    The repair matrix of the tuple is the horizontal concatenation of the
    per-failure repair matrices in failure order, so column j of segment i
    has index i * C(d, m-1) + j. compress is its pivot columns (alpha x
    rank) and expand the nonzero rows of its reduced row echelon form
    (rank x e * C(d, m-1)); their product is the repair matrix, exactly.
    The cached matrices are shared: do not mutate them.
    """
    if len(set(failed)) != len(failed):
        raise ValueError(f"failed ids must be distinct, got {list(failed)}")
    xi = Matrix.hstack([repair_matrix(f, m, encoder) for f in failed])
    pivots, expand = xi.pivot_columns()
    return xi.submatrix(range(xi.rows), pivots), tuple(pivots), expand


WIRE_VERSION = 2
_WIRE_HEAD = struct.Struct("<BBB")  # version, mode, failure count
_WIRE_TAIL = struct.Struct("<HH")  # helper id, symbol count


@dataclass(frozen=True)
class RepairPayload:
    """Compressed repair data one helper sends for a tuple of failed nodes."""

    failed: tuple[int, ...]
    helper: int
    m: int
    symbols: tuple[int, ...]

    def to_bytes(self, p: int) -> bytes:
        """Serialize; a field that does not fit its wire slot raises ValueError."""
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
        offset += _WIRE_TAIL.size
        if len(blob) != offset + count * element_width(p):
            raise ValueError("payload length does not match symbol count")
        return cls(failed, helper, m, tuple(unpack_symbols(blob[offset:], p)))


def helper_payload(h_content, helper: int, failed, encoder: EncoderMatrix, m: int) -> RepairPayload:
    """Repair data from one helper: its content times the pivot columns.

    The pivots are a function of the (public) repair matrix alone, so sender
    and receiver agree without negotiation and the payload never depends on
    who else is helping.
    """
    failed = tuple(failed)
    compress, _, _ = repair_basis(encoder, failed, m)
    return RepairPayload(failed, helper, m, tuple(vec_mat(list(h_content), compress)))


def decompress_payload(payload: RepairPayload, encoder: EncoderMatrix) -> list[int]:
    """Full-length repair vector: the received symbols times the reduced rows."""
    _, pivots, expand = repair_basis(encoder, payload.failed, payload.m)
    if len(payload.symbols) != len(pivots):
        raise ValueError(
            f"payload carries {len(payload.symbols)} symbols, "
            f"the repair matrix has rank {len(pivots)}"
        )
    return vec_mat(list(payload.symbols), expand)


def decode_failed_nodes(payloads, helper_ids, encoder: EncoderMatrix, failed) -> dict[int, list[int]]:
    """Exact contents of every failed node from d helper payloads."""
    failed = tuple(failed)
    helper_ids = tuple(helper_ids)
    d = encoder.d
    if len(helper_ids) != d or len(set(helper_ids)) != d:
        raise ValueError(f"need exactly {d} distinct helpers, got {list(helper_ids)}")
    if tuple(payload.helper for payload in payloads) != helper_ids:
        raise ValueError(f"payloads must come from helpers {list(helper_ids)}, in that order")
    modes = {payload.m for payload in payloads}
    if len(modes) != 1:
        raise ValueError("payloads disagree on mode")
    for payload in payloads:
        if payload.failed != failed:
            raise WrongTarget(
                f"payload from helper {payload.helper} targets nodes {payload.failed}, not {failed}"
            )
    vectors = [decompress_payload(payload, encoder) for payload in payloads]
    return decode_repair_vectors(vectors, helper_ids, encoder, failed, modes.pop())


def decode_repair_vectors(vectors, helper_ids, encoder: EncoderMatrix, failed, m: int) -> dict[int, list[int]]:
    """Failed contents from the d decompressed repair vectors, helper order.

    One inversion of the selected encoder rows serves every failure: each
    failure's segment of the stacked vectors becomes its repair space, which
    decodes by signed sums.
    """
    d = encoder.d
    field = encoder.field
    inverse = rows_inverse(encoder, tuple(helper_ids))
    seg = binom(d, m - 1)
    return {
        f: combine_repair_space(
            inverse @ Matrix.stack_rows(field, [v[i * seg : (i + 1) * seg] for v in vectors]),
            d, m, field,
        )
        for i, f in enumerate(failed)
    }


def combine_repair_space(space: Matrix, d: int, m: int, field) -> list[int]:
    """Signed-sum readout of one failure's repair space into node content.

    The entry at column label I is the sum over x in I of
    (-1)**position(I, x) times the entry at (row x, column I - {x}).
    """
    rows = space.data
    out = [0] * binom(d, m)
    for i, x, j, sign in incidence(d, m):
        out[i] += sign * rows[x - 1][j]
    return [v % field.p for v in out]
