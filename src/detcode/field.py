"""Exact arithmetic in prime fields GF(p) and dense linear algebra over them.

Field elements are ints kept canonical (0 <= value < p). :func:`symbol_typecode`
is the one rule of what a field is: a prime p below 2**64, whose symbols sit
in machine words, array('I') up to p = 2**32 (so at p = 257) and array('Q')
beyond. From 2**64 on it raises :class:`FieldTooLarge`, in :class:`Field` and
in every function that takes a bare p; and a big-endian host cannot import
the module, since the shard and wire formats are little-endian and an array
is packed as its own buffer. A long sequence of symbols (a node's content, a
payload, a kernel output) is one such array: the kernel packs it as its own
buffer and returns fresh arrays, and the symbol codec widens and narrows it
by byte-plane slice copies (:func:`widen`), converting no symbol one at a
time. Two traps: an array never equals a list (compare ``list(a)``), and
``bytes(a)`` is its raw machine buffer, not one byte per symbol.
:class:`Matrix` implements exact Gauss-Jordan elimination with a
deterministic leftmost-pivot rule, so ranks, inverses and pivot-column bases
are reproducible. All of the package's prime arithmetic (primality, inverses,
every reduction mod p) is here: other modules hand it plain ints and get
canonical ones back.

Every product is one word-parallel kernel with two entries. In
:func:`combine_rows` K node-major sequences of one length L (message rows,
node batches, repair vectors) are combined by a K x r weight matrix into r
output sequences, whatever L and r; :func:`batch_product` maps plane-major
stripe batches (a helper's batch, a payload) to plane-major batches, stripe
by stripe, so every operand is one plane and every output a concatenation. One
side is packed into one int per row, an entry per fixed-width slot
(:func:`slot_width`), so one big-int multiply-add (:func:`_combine`)
combines a whole window of a row or, in a batch of fewer stripes than
outputs, a whole stripe by packed weights. The long operand is never copied
through :class:`Matrix`. A windowed output whose weight column is a unit
vector (a systematic node's row in encode, an identity row of a recover
inverse) is a copy of its row.

Rows are walked in windows of WINDOW entries (2048, chosen by measurement:
2048 to 16384 ran within host noise on encode, read and joint repair; the
smallest keeps the masks smallest), and each window is packed, range-checked,
combined and reduced on its own. The masks of those steps are cached per
window length, so every cached mask has at most WINDOW slots, whatever the
row or file length; :func:`pack_symbols` and :func:`unpack_symbols` check
fixed-width bodies through the same windows.

Symbol codec. :func:`pack_symbols` and :func:`unpack_symbols` are the one
body layout of shard files and repair payloads. At p = 257 every value but
256 fits a byte, so a body is a layout tag, then (tag ESCAPED) the <I>
count and the strictly increasing <I> positions of the escapes, the symbols
equal to 256 (where the second byte plane is nonzero), and one low byte per
symbol, taken by one byte-plane copy: about 1.01 bytes per symbol of coded
data. Where the escapes would make it longer than two bytes per symbol
(more than about a quarter of the symbols), the body is tag FIXED and two
bytes per symbol. The decoder accepts exactly the bytes the encoder writes,
so each content has one body, and an escaped body needs no range pass (a
low byte is below 256, an escape is 256). Every other p keeps
:func:`element_width` little-endian bytes per symbol, with no tag.

Reduction. At p = 257 with 4-byte slots (every product over GF(257) with
K <= 65535 rows, that is, the CLI default for n <= 256) every output window,
whatever its length, is reduced word-parallel by :func:`_folded`, with no
Python loop over its entries. A slot holds a sum of K products of entries in
[0, 257), so at most K * 256**2 < 2**32 (the bound :func:`slot_width` sizes
the slot by). Since 2**16 = 1 mod 257, adding each slot's high half to its
low half leaves at most 2**16 - 2 + K; a second such fold (K > 256) leaves at
most 2**16 - 1. Since 2**8 = -1, low byte + 257 - the rest is then in
[1, 512], and one masked subtract of 257 where that is 257 or more (bit 9 of
the slot plus 255) makes every slot canonical. No step carries or borrows
across a slot. At any other prime or slot width each entry is reduced by % p.

The weights are always a :class:`Matrix` of the modulus, checked when built
and prepared once per orientation (:attr:`Matrix.unit_columns`,
:attr:`Matrix.packed_rows`), so a cached repair basis or read shares one
check and one packing. Each entry checks the operands' shapes once and hands
them to its orientation (:func:`_windowed`, or :func:`_weight_packed` for
:func:`batch_product` alone), which range-checks every operand row and symbol
blob against [0, p) on the int or bytes it packs anyway: two word-parallel
mask tests per window (:func:`_in_field`), not a Python pass per entry.

The paper's alternating sums (parity completion, the parity check, the
repair readout) are products too: :func:`detcode.code.incidence_terms`
lists a sum's terms and gives their :func:`detcode.subsets.incidence`
signs as a one-column weight Matrix (-1 as p - 1), so each is one
:func:`combine_rows` call. A sequence of arbitrary ints enters the field
through :func:`reduced`.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from itertools import chain

if sys.byteorder != "little":  # array buffers are read and written as the little-endian shard and wire formats
    raise ImportError(f"detcode needs a little-endian host; this one is {sys.byteorder}-endian")


class CompositeModulus(ValueError):
    """Field modulus is not prime."""


class FieldTooLarge(ValueError):
    """Modulus of 2**64 or more: no shard header records it and no machine word holds its symbols."""


class DimensionMismatch(ValueError):
    """Matrix shapes (or moduli) do not line up."""


class Singular(ValueError):
    """Square matrix has no inverse."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact below 2**64, and ValueError from 2**64 on, where twelve bases are not proof."""
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact only below 2**64, got {n}")
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
    """Bytes of one canonical element of GF(p) in a fixed-width body (GF(257)'s FIXED layout included); FieldTooLarge
    from p = 2**64 (:func:`symbol_typecode`)."""
    symbol_typecode(p)
    return (p.bit_length() + 7) // 8


_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}  # unsigned, by item size


def slot_width(p: int, k: int) -> int:
    """Bytes per slot of the packed product over GF(p) with inner dimension k.

    A slot accumulates k products of canonical entries, at most
    k * (p-1)**2, and must hold that bound without a carry into its
    neighbour: a machine word of 4 or 8 bytes while the bound fits one,
    else the bound's whole bytes, 16 at p = 2**61 - 1 (k = 0 is sized as 1:
    a canonical entry fits). FieldTooLarge from p = 2**64 (:func:`symbol_typecode`).
    """
    bound = max(k, 1) * (p - 1) ** 2
    if bound < 1 << 64:
        return 4 if bound < 1 << 32 else 8
    symbol_typecode(p)  # every modulus of 2**64 or more has a bound past a machine word
    return (bound.bit_length() + 7) // 8


def symbol_typecode(p: int) -> str:
    """The typecode of the machine-word array that holds GF(p) symbols: 'I' (4 bytes) for p <= 2**32, else
    'Q' (8 bytes). The one rule of which moduli are fields here: FieldTooLarge from p = 2**64, where no machine
    word holds a symbol and no shard header records p."""
    if p >= 1 << 64:
        raise FieldTooLarge(f"p = {p} is 2**64 or more: a shard header records p in 8 bytes, and symbols are machine words")
    return "I" if p <= 1 << 32 else "Q"


def symbol_array(values) -> array:
    """A symbol sequence as one machine-word array: itself if it is already an array('I') or array('Q'), else
    array('I') where every value is below 2**32 and array('Q') otherwise. OverflowError for a value outside
    [0, 2**64), TypeError for one that is not an int. Bytes-like input is read as one value per byte, never as
    machine words."""
    if isinstance(values, array) and values.typecode in "IQ":
        return values
    if not isinstance(values, (list, tuple)):
        values = list(values)
    try:
        return array("I", values)
    except OverflowError:
        return array("Q", values)


def _encode(values, width: int):
    """Little-endian bytes of non-negative ints, width bytes each; OverflowError or TypeError for any other entry.

    An array of width-byte items is its own buffer (no copy); other sequences are converted once, in C where
    width is a machine word."""
    code = _TYPECODES.get(width)
    if code is None:
        return b"".join([v.to_bytes(width, "little") for v in values])
    if isinstance(values, array) and values.itemsize == width:
        return memoryview(values).cast("B")
    return array(code, values).tobytes()


def widen(blob, width: int, code: str) -> array:
    """The width-byte little-endian ints of *blob* as one array(code) of items at least that wide.

    One byte-plane slice copy per byte of width into a zeroed buffer of the
    item size, then one C-level fill: no conversion per symbol. The values
    are not checked.
    """
    items = array(code)
    size = items.itemsize
    if width < size:
        wide = bytearray(len(blob) // width * size)
        for b in range(width):
            wide[b::size] = blob[b::width]
        blob = wide
    items.frombytes(blob)
    return items


def _narrowed(raw: bytes, size: int, width: int) -> bytes:
    """The low *width* bytes of each *size*-byte little-endian int of *raw*: one byte-plane slice copy per byte."""
    if width == size:
        return raw
    narrow = bytearray(len(raw) // size * width)
    for b in range(width):
        narrow[b::width] = raw[b::size]
    return bytes(narrow)


WINDOW = 2048  # entries per window of the kernel and the symbol codec; bounds every cached mask


@lru_cache(maxsize=8)
def _masks(count: int, slot: int, p: int) -> tuple[int, ...]:
    """Masks over a window of *count* <= WINDOW slot-byte slots: the range test's (excess, offset, high), then at
    p = 257 with 4-byte slots the fold's (low16, low8, p_all). Cached per window length, so no entry outgrows
    WINDOW slots whatever the row or file length.

    With b = p.bit_length() < 8 * slot and a 1 in the lowest bit of every slot: excess has bits b and above,
    offset holds 2**b - p and high bit b in every slot; low16 and low8 hold 2**16 - 1 and 2**8 - 1, p_all holds p.
    """
    b = p.bit_length()
    assert b < 8 * slot and count <= WINDOW
    ones = int.from_bytes(b"\1".ljust(slot, b"\0") * count, "little")
    high = ones << b
    masks = ((ones << 8 * slot) - high, ((1 << b) - p) * ones, high)
    if p == 257 and slot == 4:
        masks += (0xFFFF * ones, 0xFF * ones, p * ones)
    return masks


def _in_field(packed: list[int], masks: tuple[int, ...]) -> bool:
    """Whether the packed ints of one window hold only entries below p, given the :func:`_masks` of its length.

    Two word-parallel tests per int: no entry has a bit at b = p.bit_length() or above, and adding 2**b - p to
    every entry then sets no bit b (it cannot carry into the next slot).
    """
    excess, offset, high = masks[0], masks[1], masks[2]
    for x in packed:
        if x & excess or (x + offset) & high:
            return False
    return True


def _in_range(blob, width: int, p: int) -> bool:
    """Whether every width-byte little-endian int of *blob* is below p: window by window, or a C-level max where
    p fills the width."""
    if p.bit_length() == 8 * width:
        return max(_decode(blob, width), default=0) < p
    step = WINDOW * width
    for start in range(0, len(blob), step):
        window = blob[start : start + step]
        if not _in_field([int.from_bytes(window, "little")], _masks(len(window) // width, width, p)):
            return False
    return True


def _decode(blob, width: int):
    """The width-byte little-endian ints of *blob*: a zero-copy view where width is a machine word, else a list."""
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(blob[i : i + width], "little") for i in range(0, len(blob), width)]
    return memoryview(blob).cast(code)


def _folded(acc: int, count: int, k: int, masks: tuple[int, ...]) -> array:
    """The *count* 4-byte slots of *acc*, each a sum of k products of entries in [0, 257), reduced mod 257
    word-parallel by the :func:`_masks` of count slots (see the module docstring)."""
    _, offset, high, low16, low8, p_all = masks
    acc = (acc & low16) + (acc >> 16 & low16)  # 2**16 = 1: each slot at most 2**16 - 2 + k
    if k > 256:
        acc = (acc & low16) + (acc >> 16 & low16)  # now at most 2**16 - 1
    acc = (acc & low8) + p_all - (acc >> 8 & low16)  # 2**8 = -1: each slot in [1, 512]
    acc -= (((acc + offset) & high) >> 9) * 257  # bit 9 of slot + 255 is set exactly where slot >= 257
    return widen(acc.to_bytes(count * 4, "little"), 4, "I")


def _combine(coeffs, terms, count: int, k: int, p: int, slot: int, fold):
    """One output window, the sum of a * x over *coeffs* and packed *terms* (count slot-byte slots, k terms), as an
    array of :func:`symbol_typecode`: by :func:`_folded` where *fold* holds its masks, else reduced by % p per entry."""
    acc = 0
    for a, x in zip(coeffs, terms):
        if a:
            acc += a * x
    if fold:
        return _folded(acc, count, k, fold)
    return array(symbol_typecode(p), [v % p for v in _decode(acc.to_bytes(count * slot, "little"), slot)])


def combine_rows(rows, weights: "Matrix") -> list[array]:
    """The r linear combinations over GF(p) of a list *rows* of K sequences of one length L.

    Output i is the sum over k of weights[k][i] * rows[k], where *weights*
    is a K x r :class:`Matrix` over GF(p), checked and prepared once: the
    columns of X @ weights for the matrix X whose columns are the rows.
    DimensionMismatch for ragged rows or K other than weights.rows;
    ValueError for a row entry outside [0, p), checked word-parallel on the
    bytes it packs anyway. Rows may be any int sequences; an array whose
    items are a slot wide is packed as its own buffer, with no conversion
    per entry. Every output is a fresh array of :func:`symbol_typecode`.
    The rows are packed window by window (:func:`_windowed`) at any L,
    fewer entries than outputs included, and every computed output window
    is reduced once: by :func:`_folded` at p = 257 with 4-byte slots, else
    by % p per entry.
    """
    k = len(rows)
    length = len(rows[0]) if rows else 0
    if len(set(map(len, rows))) > 1:
        raise DimensionMismatch("ragged rows")
    if weights.rows != k:
        raise DimensionMismatch(f"{weights.rows} weight rows for {k} rows")
    return _windowed(rows, length, weights, symbol_typecode(weights.field.p))


def batch_product(parts, weights: "Matrix", blocks: int = 1) -> list[array]:
    """Stripe s of the plane-major batches *parts* side by side times *weights*, for every stripe, as *blocks*
    plane-major batches: block b holds output columns b * c to (b + 1) * c - 1 of every stripe, c = weights.cols / blocks.

    *parts* are (flat, width) pairs, flat holding S stripes of width symbols
    (symbol c of stripe s at c * S + s), one S for all, the widths summing
    to weights.rows (else DimensionMismatch, also where blocks does not
    divide weights.cols). Each block is a fresh array of :func:`symbol_typecode`;
    ValueError for an entry outside [0, p) or not an int. With 0 < S <
    weights.cols the stripes are combined by the packed weights
    (:func:`_weight_packed`); otherwise each part's plane c, the slice
    ``flat[c * S:(c + 1) * S]``, is one row of :func:`_windowed`, and each
    block concatenates its output planes.
    """
    r, k, counts = weights.cols, 0, set()
    for flat, w in parts:  # a stripe count per part, -1 for a partial stripe
        counts.add(len(flat) // w if w > 0 and not len(flat) % w else -1)
        k += w
    if weights.rows != k or r % blocks or len(counts) != 1 or -1 in counts:
        raise DimensionMismatch(f"parts {[w for _, w in parts]} wide, not whole stripes of one count, for {weights.rows} x {r} weights in {blocks} blocks")
    stripes, code, width = counts.pop(), symbol_typecode(weights.field.p), r // blocks
    if 0 < stripes < r:
        return _weight_packed(parts, stripes, weights, code, blocks)
    outs = [array(code) for _ in range(blocks)]
    for i, plane in enumerate(_windowed([flat[c * stripes : (c + 1) * stripes] for flat, w in parts for c in range(w)], stripes, weights, code)):
        outs[i // width] += plane
    return outs


def _windowed(rows, length: int, weights: "Matrix", code: str) -> list[array]:
    """:func:`combine_rows` of K rows of length L by K weight rows, shapes checked by the caller: the rows are packed
    WINDOW entries at a time into one int each, range-checked on those ints (:func:`_in_field`), and combined by one
    big-int multiply-add per nonzero weight; a unit weight column (:attr:`Matrix.unit_columns`) copies its row."""
    p, k = weights.field.p, len(rows)
    slot = slot_width(p, k)
    columns, units = weights.unit_columns
    try:
        blobs = [_encode(row, slot) for row in rows]
    except (OverflowError, TypeError):
        raise ValueError(f"operand entry out of field range [0, {p})") from None
    windowed = length > WINDOW  # outputs of several windows are sized once, so no window regrows them
    outputs = [array(code, [0]) * length for _ in units] if windowed or not length else [None] * len(units)
    for begin in range(0, length, WINDOW):  # a row of one window is sliced whole: the same bytes, no copy
        end = min(begin + WINDOW, length)
        packed = [int.from_bytes(blob[begin * slot : end * slot], "little") for blob in blobs]
        masks = _masks(end - begin, slot, p)
        if not _in_field(packed, masks):
            raise ValueError(f"operand entry out of field range [0, {p})")
        fold = masks if len(masks) > 3 else None
        for i, unit in enumerate(units):
            if unit is None:
                values = _combine(columns[i], packed, end - begin, k, p, slot, fold)
                if windowed:
                    outputs[i][begin:end] = values
                else:
                    outputs[i] = values
    for i, unit in enumerate(units):  # copies of rows checked above; a slice costs half a conversion
        if unit is not None:
            row = rows[unit]
            outputs[i] = row[:] if type(row) is array and row.typecode == code else array(code, row)
    return outputs


def _weight_packed(parts, stripes: int, weights: "Matrix", code: str, blocks: int) -> list[array]:
    """:func:`batch_product` (its one caller, which checks shapes) of 0 < S < r whole stripes per part: the parts are
    range-checked word-parallel on their own buffers (:func:`_in_range`), and stripe s, ``flat[s::S]`` of every part,
    is combined by :attr:`Matrix.packed_rows` (unit columns too) into outputs written plane by plane, ``out[s::S]``."""
    p, r, k = weights.field.p, weights.cols, weights.rows
    slot, size, width = slot_width(p, k), array(code).itemsize, r // blocks
    try:
        in_field = all(_in_range(_encode(flat, size), size, p) for flat, _ in parts)
    except (OverflowError, TypeError):
        in_field = False
    if not in_field:
        raise ValueError(f"operand entry out of field range [0, {p})")
    masks = _masks(r, slot, p) if r <= WINDOW else ()
    fold, outs = masks if len(masks) > 3 else None, [array(code, [0]) * (stripes * width) for _ in range(blocks)]
    for s in range(stripes):
        values = _combine(chain.from_iterable(flat[s::stripes] for flat, _ in parts), weights.packed_rows, r, k, p, slot, fold)
        for b, out in enumerate(outs):
            out[s::stripes] = values[b * width : (b + 1) * width]
    return outs


def reduced(values, p: int) -> array:
    """Each of the ints *values* reduced mod p, in order, as one array of :func:`symbol_typecode`: one reduction
    per entry. FieldTooLarge from p = 2**64."""
    return array(symbol_typecode(p), [v % p for v in values])


ESCAPED, FIXED = 1, 2  # layout tags of a GF(257) body: its bytes per symbol, escapes aside


def _escapes_fit(escapes: int, count: int) -> bool:
    """Whether a GF(257) body of *count* symbols, *escapes* of them 256, takes the escaped layout: its 4-byte count,
    4-byte positions and *count* low bytes make it no longer than the fixed layout's 2 * count bytes."""
    return 4 + 4 * escapes <= count


def pack_symbols(values, p: int) -> bytes:
    """The body of GF(p) symbols (see "Symbol codec" above): ValueError outside [0, p), FieldTooLarge from
    p = 2**64.

    The symbols are packed as items of :func:`symbol_typecode` (an array of
    that item size is its own buffer, any other sequence is converted once
    in C) and range-checked word-parallel on those bytes. Byte-plane slice
    copies then narrow each item to element_width(p) bytes or, at p = 257,
    take its low byte; the second byte plane, 1 exactly at the escapes,
    gives their count and, where ESCAPED is no longer (:func:`_escapes_fit`),
    their positions by C-level searches.
    """
    width, size = element_width(p), array(symbol_typecode(p)).itemsize
    if not isinstance(values, (array, list, tuple)):  # array() would read bytes-like input as machine words
        values = list(values)
    try:
        blob = _encode(values, size)
    except (OverflowError, TypeError):
        raise ValueError("symbol out of field range") from None
    if not _in_range(blob, size, p):
        raise ValueError("symbol out of field range")
    raw = bytes(blob)
    if p != 257:
        return _narrowed(raw, size, width)
    high = raw[1::size]  # 1 exactly at the symbols equal to 256
    escapes = high.count(1)
    if not _escapes_fit(escapes, len(high)):
        return bytes((FIXED,)) + _narrowed(raw, size, 2)
    positions, at = [], high.find(1)
    while at >= 0:
        positions.append(at)
        at = high.find(1, at + 1)
    return b"".join((bytes((ESCAPED,)), escapes.to_bytes(4, "little"), _encode(positions, 4), raw[::size]))


def unpack_symbols(blob, p: int) -> array:
    """Inverse of :func:`pack_symbols`, one array of :func:`symbol_typecode`; ValueError on any body that
    pack_symbols does not write (a symbol outside [0, p), a partial one, or at p = 257 a malformed or
    non-canonical layout), FieldTooLarge from p = 2**64.

    The range check runs word-parallel on the blob, before byte-plane slice
    copies widen it to the array's item size (:func:`widen`). An ESCAPED
    body needs no range check: a low byte is below 256 and an escape is 256.
    """
    width, code = element_width(p), symbol_typecode(p)
    if p == 257:
        if not blob:
            raise ValueError("malformed symbol layout: no layout tag")
        tag, blob = blob[0], bytes(blob[1:])  # bytes count and search; a memoryview does neither
        if tag == ESCAPED:
            return _unescaped(blob, code)
        if tag != FIXED:
            raise ValueError(f"malformed symbol layout: unknown tag {tag}")
    if len(blob) % width:
        raise ValueError(f"symbol out of field range: body length {len(blob)} is not a whole number of {width}-byte symbols")
    if not _in_range(blob, width, p):
        raise ValueError("symbol out of field range")
    if p == 257 and _escapes_fit(blob[1::2].count(1), len(blob) // 2):
        raise ValueError("malformed symbol layout: fixed width where the escaped layout is shorter")
    return widen(blob, width, code)


def _unescaped(blob, code: str) -> array:
    """The symbols of an ESCAPED GF(257) body after its tag (see :func:`pack_symbols`); ValueError unless the
    length holds the escapes' count and positions, the encoder would pick this layout, the positions rise strictly
    below the symbol count and the low bytes under them are 0."""
    escapes = int.from_bytes(blob[:4], "little")
    start = 4 + 4 * escapes
    count = len(blob) - start
    if count < 0:
        raise ValueError(f"malformed symbol layout: {len(blob)} bytes after the tag do not hold {escapes} escape positions")
    if not _escapes_fit(escapes, count):
        raise ValueError(f"malformed symbol layout: escaped where the fixed width is shorter ({escapes} escapes in {count} symbols)")
    positions = widen(blob[4:start], 4, code)
    if list(positions) != sorted(set(positions)) or positions and positions[-1] >= count:
        raise ValueError(f"malformed symbol layout: escape positions not strictly increasing below {count}")
    low = blob[start:]
    if any(low[i] for i in positions):
        raise ValueError("malformed symbol layout: nonzero low byte at an escape")
    symbols = widen(low, 1, code)
    for i in positions:
        symbols[i] = 256
    return symbols


class Field:
    """Prime field GF(p).

    Parameters
    ----------
    p : int
        Field modulus; must be prime and below 2**64 (checked at construction: CompositeModulus,
        FieldTooLarge).
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        symbol_typecode(p)  # FieldTooLarge from 2**64, where is_prime is not exact
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

        The one kept transposition of a Matrix, which :attr:`T` wraps; no rows give cols empty columns."""
        columns = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return columns, tuple(c.index(1) if c.count(0) == len(c) - 1 and 1 in c else None for c in columns)

    @cached_property
    def packed_rows(self) -> tuple[int, ...]:
        """Each row's entries packed as weights into one int, a slot_width(p, rows)-byte slot per column: built once."""
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
