"""Byte-level checks of the payload and shard formats."""

import hashlib
import random
import struct
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from detcode.cluster import (
    SHARD_MAGIC,
    SHARD_VERSION,
    _SHARD_HEADER,
    Cluster,
    ShardFile,
    ShardFormatError,
    read_shard,
    shard_path,
    write_all_shards,
    write_shard,
)
from detcode.field import element_width
from detcode.subsets import binom
from detcode.code import CodeConfig, StripeBatch, build_message_matrix, encode
from detcode.field import pack_symbols, unpack_symbols
from detcode.repair import RepairPayload, decompress_payload, helper_payload
from oracles import stripe_rows, symbol_body_spec


# Payload v6: <B version=6><B m><B e><e x H failed><H helper><I count>, then
# the count symbols, plane-major (symbol j of every stripe, then symbol j + 1),
# as the symbol body of pack_symbols:
# little-endian symbols of element_width(p) bytes (1 byte for p = 13), or at
# p = 257 a layout tag, then escapes and low bytes (tag 1) or 2-byte symbols
# (tag 2).


def test_single_payload_layout(encoder8, contents8):
    payload = helper_payload(contents8[1], 2, (5,), encoder8, 2)
    assert payload == RepairPayload(failed=(5,), helper=2, m=2, symbols=array("I", (10, 9, 7)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "06 02 01" "05 00" "02 00" "03 00 00 00" "0a 09 07"
    )


def test_joint_payload_layout(encoder8, contents8):
    payload = helper_payload(contents8[0], 1, (5, 6), encoder8, 2)
    assert payload == RepairPayload(failed=(5, 6), helper=1, m=2, symbols=array("I", (11, 0, 8, 7, 10)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "06 02 02" "05 00 06 00" "01 00" "05 00 00 00" "0b 00 08 07 0a"
    )


def test_two_byte_payload_symbols_little_endian():
    """One 256 in two symbols: escaping it would cost more than two bytes per symbol, so the body is tag 2 and
    2-byte little-endian symbols."""
    payload = RepairPayload(failed=(5, 6), helper=3, m=2, symbols=(256, 1))
    assert payload.to_bytes(257) == bytes.fromhex(
        "06 02 02" "05 00 06 00" "03 00" "02 00 00 00" "02" "00 01 01 00"
    )


def test_two_stripe_payload_layout(gf13, encoder8, message8):
    """One header for both stripes, plane-major: stripe 0's symbols (10, 9, 7) are the one-stripe payload's, and
    stripe 1's (3, 10, 9) interleave with them, symbol j of both stripes in turn."""
    message = build_message_matrix([*message8.extract_symbols(), *range(20)], 4, 2, gf13)
    payload = helper_payload(encode(encoder8, message)[1], 2, (5,), encoder8, 2)
    assert payload == RepairPayload(failed=(5,), helper=2, m=2, symbols=array("I", (10, 3, 9, 10, 7, 9)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "06 02 01" "05 00" "02 00" "06 00 00 00" "0a 03" "09 0a" "07 09"
    )


def test_payload_beyond_two_byte_count_round_trips():
    payload = RepairPayload(failed=(5,), helper=1, m=2, symbols=tuple(i % 257 for i in range(70_000)))
    blob = payload.to_bytes(257)
    assert blob[7:11] == (70_000).to_bytes(4, "little")
    assert RepairPayload.from_bytes(blob, 257) == replace(payload, symbols=array("I", payload.symbols))


def test_v2_payload_rejected_as_unsupported_version():
    v2 = bytes.fromhex("02 02 01" "05 00" "02 00" "03 00" "01 09 07")
    with pytest.raises(ValueError, match="unsupported payload version 2"):
        RepairPayload.from_bytes(v2, 13)


@pytest.mark.parametrize("p, body", [(13, "01 09 07 0c 0a 09"), (257, "01 00 00 00 00" "01 09 07 0c 0a 09")])
def test_v4_payload_rejected_as_unsupported_version(p, body):
    """Version 4 held the symbols stripe after stripe (here two stripes of three); no reader of it is kept."""
    v4 = bytes.fromhex("04 02 01" "05 00" "02 00" "06 00 00 00" + body)
    with pytest.raises(ValueError, match="unsupported payload version 4"):
        RepairPayload.from_bytes(v4, p)


@pytest.mark.parametrize("p, body", [(13, "01 09 07"), (257, "01 00 01 09 00 07 00")])
def test_v3_payload_rejected_as_unsupported_version(p, body):
    """Version 3 held 2-byte GF(257) symbols with no layout tag; no reader of it is kept."""
    v3 = bytes.fromhex("03 02 01" "05 00" "02 00" "03 00 00 00" + body)
    with pytest.raises(ValueError, match="unsupported payload version 3"):
        RepairPayload.from_bytes(v3, p)


@pytest.mark.parametrize("p, body", [(13, "01 09 07"), (257, "01" "00 00 00 00" "01 09 07")])
def test_v5_payload_rejected_as_unsupported_version(p, body):
    """Version 5 had v6's layout but sent the raw pivot columns' symbols, not the unit-lead basis's; read as v6
    such a payload would decode to wrong symbols, so it is refused."""
    v5 = bytes.fromhex("05 02 01" "05 00" "02 00" "03 00 00 00" + body)
    with pytest.raises(ValueError, match="unsupported payload version 5"):
        RepairPayload.from_bytes(v5, p)


def test_single_payload_roundtrip(encoder8, contents8):
    payload = helper_payload(contents8[0], 1, (7,), encoder8, 2)
    assert RepairPayload.from_bytes(payload.to_bytes(13), 13) == payload


def test_joint_payload_roundtrip(encoder8, contents8):
    payload = helper_payload(contents8[3], 4, (5, 8), encoder8, 2)
    assert RepairPayload.from_bytes(payload.to_bytes(13), 13) == payload


def test_single_payload_rejects_bad_symbol():
    payload = RepairPayload(failed=(5,), helper=1, m=2, symbols=(14,))
    with pytest.raises(ValueError, match="field range"):
        RepairPayload.from_bytes(payload.to_bytes(17), 13)


def test_payload_rejects_truncation_version_and_length():
    blob = RepairPayload(failed=(5, 6), helper=1, m=2, symbols=(5, 0, 8)).to_bytes(257)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            RepairPayload.from_bytes(blob[:cut], 257)
    with pytest.raises(ValueError, match="version"):
        RepairPayload.from_bytes(b"\x01" + blob[1:], 257)
    with pytest.raises(ValueError, match="length"):
        RepairPayload.from_bytes(blob + b"\x00", 257)


def test_decompress_rejects_wrong_symbol_count(encoder8, contents8):
    """The count must be a whole number of stripes of the basis rank (5 here)."""
    payload = helper_payload(contents8[0], 1, (5, 6), encoder8, 2)
    for symbols in (payload.symbols[:-1], payload.symbols + array("I", [0])):
        short = RepairPayload(payload.failed, payload.helper, payload.m, symbols)
        with pytest.raises(ValueError, match="rank"):
            decompress_payload(short, encoder8)


class _FourGigaSymbols(tuple):
    """A symbol sequence reporting 2**32 entries, one more than v3's count holds."""

    def __len__(self):
        return 0x1_0000_0000


@pytest.mark.parametrize(
    "payload",
    [
        RepairPayload(failed=(5,), helper=1, m=256, symbols=()),
        RepairPayload(failed=tuple(range(1, 257)), helper=1, m=2, symbols=()),
        RepairPayload(failed=(0x10000,), helper=1, m=2, symbols=()),
        RepairPayload(failed=(5,), helper=0x10000, m=2, symbols=()),
        RepairPayload(failed=(5,), helper=1, m=2, symbols=_FourGigaSymbols()),
        RepairPayload(failed=(5,), helper=1, m=2, symbols=(257,)),
    ],
    ids=["m", "failure-count", "failed-id", "helper", "symbol-count", "symbol"],
)
def test_to_bytes_rejects_field_that_does_not_fit(payload):
    with pytest.raises(ValueError):
        payload.to_bytes(257)


@given(
    st.builds(
        RepairPayload,
        failed=st.lists(st.integers(-1, 0x10000), max_size=4).map(tuple),
        helper=st.integers(-1, 0x10000),
        m=st.integers(-1, 0x100),
        symbols=st.lists(st.integers(-1, 257), max_size=6).map(tuple),
    )
)
def test_to_bytes_round_trips_or_raises_value_error(payload):
    try:
        blob = payload.to_bytes(257)
    except ValueError:
        return
    assert RepairPayload.from_bytes(blob, 257) == replace(payload, symbols=array("I", payload.symbols))


# 65521 is the largest two-byte prime: its blobs have the symbol width of
# GF(257) but may carry symbols outside it, for the parser to reject.
_payloads = st.builds(
    RepairPayload,
    failed=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4).map(tuple),
    helper=st.integers(0, 0xFFFF),
    m=st.integers(1, 0xFF),
    symbols=st.lists(st.integers(0, 65520), max_size=6).map(tuple),
)


@given(
    blob=st.one_of(
        st.binary(max_size=32),
        st.builds(lambda payload, cut: payload.to_bytes(65521)[:cut], _payloads, st.integers(0, 32)),
    )
)
def test_payload_parse_round_trips_or_raises_value_error(blob):
    try:
        payload = RepairPayload.from_bytes(blob, 257)
    except ValueError:
        return
    assert payload.to_bytes(257) == blob


@pytest.mark.parametrize(
    "field, blob, payload",
    [
        ("mode m", "06 00 01" "05 00" "01 00" "00 00 00 00" "02", RepairPayload((5,), 1, 0, ())),
        ("failure count e", "06 02 00" "01 00" "00 00 00 00" "02", RepairPayload((), 1, 2, ())),
    ],
    ids=["mode-m", "failure-count-e"],
)
def test_zero_mode_or_failure_count_is_rejected_at_the_wire(field, blob, payload):
    """Such payloads once parsed and failed deep in decode with unrelated messages."""
    with pytest.raises(ValueError, match=f"payload {field} must be at least 1, got 0"):
        RepairPayload.from_bytes(bytes.fromhex(blob), 257)
    with pytest.raises(ValueError, match=f"payload {field} must be at least 1, got 0"):
        payload.to_bytes(257)


@pytest.mark.parametrize("p", [13, 257, 65537])
@given(data=st.data())
def test_symbol_codec_round_trips_and_rejects_out_of_range(p, data):
    width = (p.bit_length() + 7) // 8
    values = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
    blob = pack_symbols(values, p)
    assert blob == symbol_body_spec(values, p)
    assert list(unpack_symbols(blob, p)) == values
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(p, 256**width - 1)))
    with pytest.raises(ValueError, match="symbol out of field range"):
        pack_symbols(values + [bad], p)
    fixed = (b"\x02" if p == 257 else b"") + b"".join(v.to_bytes(width, "little") for v in values)  # GF(257)'s tag 2
    if bad >= 0:
        with pytest.raises(ValueError, match="symbol out of field range"):
            unpack_symbols(fixed + bad.to_bytes(width, "little"), p)
    if width > 1:
        with pytest.raises(ValueError, match="symbol out of field range"):
            unpack_symbols(fixed + bytes(width - 1), p)


def test_three_byte_symbols_little_endian():
    assert pack_symbols([65536, 1], 65537) == bytes.fromhex("00 00 01" "01 00 00")
    assert list(unpack_symbols(bytes.fromhex("00 00 01" "01 00 00"), 65537)) == [65536, 1]


def test_two_byte_symbols_little_endian(tmp_path):
    """One 256 in six symbols: the body is tag 2, then 2-byte little-endian symbols."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    stripes = StripeBatch([256] + [0] * 5, 6)
    path = shard_path(tmp_path, 3)
    write_shard(path, config, 3, stripes, original_len=1)
    blob = path.read_bytes()
    header = struct.Struct("<4sBQHHBHQQ")
    magic, version, p, n, d, m, node_id, stripe_count, original_len = header.unpack_from(blob, 0)
    assert magic == SHARD_MAGIC
    assert version == SHARD_VERSION
    assert (p, n, d, m, node_id, stripe_count, original_len) == (257, 8, 4, 2, 3, 1, 1)
    assert blob[header.size :] == b"\x02" + (256).to_bytes(2, "little") + bytes(10)
    shard = read_shard(path)
    assert shard.stripes == StripeBatch([256, 0, 0, 0, 0, 0], 6)
    assert shard.node_id == 3


@pytest.mark.parametrize(
    "n, d, m, digest",
    [
        (8, 4, 2, "3da9a75ac2d796b234fd387f383c6bd596f365900e1d9c0b341b3578a9ba060b"),
        (12, 6, 3, "63f7e13f7c8551122ad3c2f788bd07618461bfcc758aef7ebca4f93b910653f7"),
    ],
    ids=["8-4-2", "12-6-3"],
)
def test_shard_directory_bytes_pinned(tmp_path, n, d, m, digest):
    """Every shard of a seeded 64 KiB file over GF(257), byte for byte: sha256 of names and contents in name order."""
    data = random.Random(64).randbytes(65536)
    write_all_shards(tmp_path, Cluster.from_file(data, CodeConfig(n=n, d=d, m=m, p=257)))
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    assert h.hexdigest() == digest


def test_shard_rejects_bad_magic(tmp_path):
    path = tmp_path / "node_1.detc"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(ShardFormatError):
        read_shard(path)


def test_shard_rejects_truncation(tmp_path):
    config = CodeConfig(n=8, d=4, m=2, p=257)
    path = shard_path(tmp_path, 1)
    write_shard(path, config, 1, StripeBatch([1, 2, 3, 4, 5, 6], 6), original_len=6)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(ShardFormatError):
        read_shard(path)


def test_shard_rejects_out_of_field_symbol(tmp_path):
    """A symbol of 257 or more in either GF(257) layout: 0xFFFF in the fixed one (one 256 in six symbols), a
    nonzero low byte under an escape (256 + 255) in the escaped one (one 256 in twelve)."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    path = shard_path(tmp_path, 1)
    write_shard(path, config, 1, StripeBatch([1, 2, 3, 4, 5, 256], 6), original_len=None)
    blob = bytearray(path.read_bytes())
    assert blob[_SHARD_HEADER.size] == 2
    blob[-1] = 0xFF  # makes the last 2-byte symbol >= 257
    blob[-2] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ShardFormatError, match="symbol out of field range"):
        read_shard(path)
    write_shard(path, config, 1, StripeBatch([1, 2, 3, 4, 5, 6, 7, 8, 256, 9, 10, 11], 6), original_len=None)
    blob = bytearray(path.read_bytes())
    assert blob[_SHARD_HEADER.size :][:9] == bytes.fromhex("01" "01 00 00 00" "08 00 00 00")
    blob[-4] = 0xFF  # the low byte of the escaped symbol 8
    path.write_bytes(bytes(blob))
    with pytest.raises(ShardFormatError, match="nonzero low byte at an escape"):
        read_shard(path)
    with pytest.raises(ValueError, match="symbol out of field range"):
        write_shard(path, config, 1, StripeBatch([1, 2, 3, 4, 5, 257], 6), original_len=6)


@pytest.mark.parametrize(
    "node_id, stripes, original_len, match",
    [
        # would be read back as "payload is 30 bytes, expected 36"
        pytest.param(1, StripeBatch([1, 2, 3], 3), 6, "alpha = 6", id="short-stripe"),
        pytest.param(1, StripeBatch(list(range(1, 13)), 4), 6, "alpha = 6", id="regrouped"),
        pytest.param(9, StripeBatch([1, 2, 3, 4, 5, 6], 6), 6, r"node id 9 not in \[1, 8\]", id="node-above-n"),
        pytest.param(0, StripeBatch([1, 2, 3, 4, 5, 6], 6), 6, r"node id 0 not in \[1, 8\]", id="node-zero"),
        pytest.param(1, StripeBatch([1, 2, 3, 4, 5, 6], 6), -1, "shard header does not fit", id="negative-length"),
        # would be read back as "recorded length 1000000 needs 50000 stripes of 20 symbols, got 1"
        pytest.param(1, StripeBatch([1, 2, 3, 4, 5, 6], 6), 10**6, "needs 50000 stripes", id="length-beyond-stripes"),
    ],
)
def test_write_shard_rejects_what_read_shard_would(tmp_path, node_id, stripes, original_len, match):
    """Each of these once wrote a shard that failed to load; now nothing is touched."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    path = shard_path(tmp_path, 1)
    write_shard(path, config, 1, StripeBatch([6, 5, 4, 3, 2, 1], 6), original_len=6)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=match):
        write_shard(path, config, node_id, stripes, original_len)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node_1.detc"]  # no temporary file left
    assert path.read_bytes() == before
    assert read_shard(path).stripes == StripeBatch([6, 5, 4, 3, 2, 1], 6)


@pytest.mark.parametrize(
    "node_id, stripes, original_len, match",
    [
        (0, StripeBatch([1, 2, 3, 4, 5, 6], 6), 6, r"node id 0 not in \[1, 8\]"),
        (9, StripeBatch([1, 2, 3, 4, 5, 6], 6), 6, r"node id 9 not in \[1, 8\]"),
        (1, StripeBatch(list(range(1, 13)), 4), 6, "alpha = 6"),
        (1, StripeBatch([1, 2, 3, 4, 5, 6], 6), 10**6, "needs 50000 stripes"),
        (1, StripeBatch([1, 2, 3, 4, 5, 6] * 2, 6), 20, "needs 1 stripes"),
    ],
)
def test_shard_file_refuses_what_read_shard_would(node_id, stripes, original_len, match):
    with pytest.raises(ValueError, match=match):
        ShardFile(CodeConfig(n=8, d=4, m=2, p=257), node_id, original_len, stripes)


def test_shard_file_records_none_as_zero():
    """0 over stripes means "not a byte file" (None); over no stripes 0 is an empty byte file and None is refused."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    assert ShardFile(config, 1, 0, StripeBatch([1, 2, 3, 4, 5, 6], 6)).original_len is None
    assert ShardFile(config, 1, 0, StripeBatch([], 6)).original_len == 0
    with pytest.raises(ValueError, match="not a byte file needs at least one stripe"):
        ShardFile(config, 1, None, StripeBatch([], 6))
    assert ShardFile(config, 1, None, StripeBatch([1, 2, 3, 4, 5, 6], 6)).to_bytes()[28:36] == bytes(8)  # the length field


@st.composite
def _shard_files(draw):
    """A valid shard of 0-3 stripes; its length is None (one or more stripes), 0 or one that pads to the stripes."""
    p, n, d, m = draw(st.sampled_from([(13, 8, 4, 2), (257, 8, 4, 2), (65537, 6, 3, 3), (2**31 - 1, 6, 3, 2), (2**61 - 1, 5, 2, 1)]))
    config = CodeConfig(n=n, d=d, m=m, p=p)
    count = draw(st.integers(0, 3))
    size = count * config.alpha
    symbols = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    fitting = st.integers((count - 1) * config.file_symbols + 1, count * config.file_symbols) if count else st.just(0)
    original_len = draw((st.none() | st.just(0) | fitting) if count else st.just(0))
    return ShardFile(config, draw(st.integers(1, n)), original_len, StripeBatch(symbols, config.alpha))


@settings(max_examples=200, deadline=None)
@given(shard=_shard_files())
def test_shard_file_round_trips(shard):
    assert ShardFile.from_bytes(shard.to_bytes()) == shard


@pytest.mark.parametrize("original_len, stripe_count", [(10**6, 1), (21, 1), (20, 2), (1, 0)])
def test_shard_rejects_recorded_length_that_needs_other_stripes(tmp_path, original_len, stripe_count):
    """A positive byte length pads to ceil(length / F) stripes, F = 20 here;
    a header claiming other stripes is refused at parse time."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    path = shard_path(tmp_path, 1)
    header = _SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, 257, 8, 4, 2, 1, stripe_count, original_len)
    path.write_bytes(header + pack_symbols([0] * (stripe_count * config.alpha), 257))
    with pytest.raises(ShardFormatError, match=f"recorded length {original_len} needs"):
        read_shard(path)


def test_shard_rejects_inconsistent_header(tmp_path):
    path = tmp_path / "node_1.detc"
    header = struct.Struct("<4sBQHHBHQQ")
    # p = 15 is composite, so the header cannot describe a valid code
    path.write_bytes(header.pack(SHARD_MAGIC, SHARD_VERSION, 15, 8, 4, 2, 1, 0, 0))
    with pytest.raises(ShardFormatError):
        read_shard(path)


@st.composite
def _shard_blobs(draw):
    """Arbitrary bytes, or a shard header over often valid fields and a body that often fits it."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    valid = st.sampled_from([(13, 8, 4, 2), (257, 8, 4, 2), (65537, 6, 3, 3), (2**31 - 1, 6, 3, 2), (2**61 - 1, 5, 2, 1)])
    p, n, d, m = draw(valid | st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 0xFF)))
    stripes = draw(st.integers(0, 3) | st.integers(0, 2**64 - 1))
    header = _SHARD_HEADER.pack(
        SHARD_MAGIC,
        draw(st.just(SHARD_VERSION) | st.integers(0, 0xFF)),
        p,
        n,
        d,
        m,
        draw(st.integers(0, 8) | st.integers(0, 0xFFFF)),
        stripes,
        draw(st.integers(0, 2**64 - 1)),
    )
    width, count = element_width(p), stripes * binom(d, m)
    if count > 32 or draw(st.booleans()):
        return header + draw(st.binary(max_size=64))
    symbols = draw(st.lists(st.integers(0, max(p - 1, 0)) | st.just(max(p - 1, 0)), min_size=count, max_size=count))
    if symbols and draw(st.booleans()):  # one symbol anywhere in its width, in the field or not
        symbols[draw(st.integers(0, count - 1))] = draw(st.integers(0, 256**width - 1))
    if all(v < p for v in symbols):
        body = symbol_body_spec(symbols, p)
    else:  # only a fixed-width body holds it: GF(257)'s tag 2
        body = (b"\x02" if p == 257 else b"") + b"".join(v.to_bytes(width, "little") for v in symbols)
    if body and draw(st.booleans()):  # one body byte set anew: a tag, an escape count or position, a low byte
        body = bytearray(body)
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 0xFF))
    return header + bytes(body)


@settings(max_examples=300, deadline=None)
@given(blob=_shard_blobs())
def test_read_shard_raises_only_shard_format_error(tmp_path_factory, blob):
    """A shard that parses is written back byte for byte; anything else raises ShardFormatError."""
    path = tmp_path_factory.getbasetemp() / "fuzz" / "node_1.detc"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(blob)
    try:
        shard = read_shard(path)
    except ShardFormatError:
        return
    write_shard(path, shard.config, shard.node_id, shard.stripes, shard.original_len)
    assert path.read_bytes() == blob


# sha256 over the sha256 of every shard file, node order, for a seeded file of each size over GF(257);
# then one joint payload's to_bytes: helper d + 1 to failed nodes (1, 2) of the 900-byte file.
GOLDEN_SHARDS = {
    (8, 4, 1): (
        "c8d0133b89f7918d3137aed7c317677e5f643070074f9b2f6b4b07902bc81eee",
        "6c08d9360137fbc755bae923daa83f429670c9e84b46b3dbe631747524b945c0",
        "5af7ca19c690df76d85fb79d70bd9c15f6a3a31f2645660f7948c8af5d5371a3",
        "6b8c169b9fb8244bc26c506980719467a300843b765e7126a357700b46eed096",
        "5a0faa4819b24ab3a83a3569091e75b079287eabae88d6085d3bb13b2f79376e",
    ),
    (8, 4, 2): (
        "21519fa5c3375293c93f38ee040b1c6829acf4a36cea1b4de581b8bc575b0124",
        "65c60ed5f0f590fd1dd9c24d27326bf62979b788116c4a61624925659e3195c9",
        "e2d14365e8bd042499e7c2c593518335dd6d9a9f10f8c418d05fe18b4b12797d",
        "d65cf93b6ff7e7e91e681af35215a10b21ec4f07814006448c256750d5aafb38",
        "802bd714c24cd2840a446fcbbc61c2fdfa0cc9f7f0c01b3b48474c2d3416f5ad",
    ),
    (8, 4, 4): (
        "9344f27f87379090e84c00112182e4dc8ff75b2d100c4bdfeb4fc6a15281d6de",
        "7d87da2c266f7a2ad0a6c8dbf48ba450c654d90d132d1dc5025a4214c31cf0c3",
        "e3482a76b8767446577edfdc87f352c070f0d97adc4221a8915bcdb1a0ee3b87",
        "af17d0689c3d60024f8ea5cd5f03bacc5eb803f97d016f7330abfa23660d77d5",
        "3d2b7212f275e2f5496d0c068ef8324412570254fe168afde54ed36caeec621b",
    ),
    (12, 6, 3): (
        "465dc087b5158c1e56b6ad01fe83c3232c81ddba5e7fa928b71131bb53a8ad32",
        "d2ce6655952454b7ab677702acdecc1510ee332d8bcebe85d5524ebb153cc44d",
        "2cfc586779871bbc377d9bd0679113b22cecdb14aced603064dd11165c9bb589",
        "ce7913cd4e6e7c17f2d508a6c015ef71d4585b1a98360b9c301e0bef491cb221",
        "3583496054bb5a798e4a5a67bf83f2638d5a933462e252c58b73bfd0ffcf8061",
    ),
    (16, 10, 3): (
        "504df11d3531a0e323e646c3b3e1e2b964daf40bad599731ea7a91f4ec97fd75",
        "941f28dad3733c97c930dd9d3c74b0c91ede2fe307ca6e6f9e70604ebad42c7b",
        "d661a90c318064e900329be6b4a42aaa01035762bc941c5cf42294d9eac6b4fd",
        "d72457b2c61d99b9acaa5fc1e0b4b5c0f4e210e76e22d2aa2db0305a33472adc",
        "dc801d463660ff28dd1253316c277491aaa193f5d2d1ab7259fc5e603205ccb9",
    ),
}


@pytest.mark.parametrize("n, d, m", sorted(GOLDEN_SHARDS))
def test_shard_and_payload_bytes_golden(tmp_path, n, d, m):
    """Source order, parity completion, encoding and both wire formats, byte for byte, at 0, 1, 900 and 5000 bytes."""
    config, digests, clusters = CodeConfig(n=n, d=d, m=m, p=257), GOLDEN_SHARDS[n, d, m], {}
    for size, digest in zip((0, 1, 900, 5000), digests):
        directory = tmp_path / str(size)
        directory.mkdir()
        clusters[size] = Cluster.from_file(random.Random(size).randbytes(size), config)
        write_all_shards(directory, clusters[size])
        h = hashlib.sha256()
        for node_id in range(1, n + 1):
            h.update(hashlib.sha256(shard_path(directory, node_id).read_bytes()).digest())
        assert h.hexdigest() == digest, size
    payload = helper_payload(clusters[900].contents[d + 1], d + 1, (1, 2), clusters[900].encoder, m)
    assert hashlib.sha256(payload.to_bytes(257)).hexdigest() == digests[4]


# The same seeded files and payloads as the byte goldens, pinned by content instead of by format: sha256 over
# every node's decoded symbols (read back from its shard, 4-byte array items, stripe after stripe), node order, at
# 0, 1, 900 and 5000 bytes; then over the decoded symbols of the joint payload above, stripe after stripe (its
# symbols in the unit-lead basis of repair_basis, so a change of basis moves that digest alone).
GOLDEN_CONTENT = {
    (8, 4, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "df565ad95a2a38949278f1087b90506136d904dff2f789c7f8cc5a3bf5771afe",
        "b54ff365cf4e6735dd1352e3ab235de1a74d56df16977298a7d43fa32563cd89",
        "fa830b4f19a2d182253b519aac3870a6a16290a98aa8fa556925d0677ce42198",
        "5612a21c02633b624acc4a734d4f224c145cc2881616ab435c4d3f8183252d07",
    ),
    (8, 4, 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ba969c1be0c5e024cdde735c8cf3353b368d944c2252562a87d82b363d2b394c",
        "571f9cc0bf6440047e074400f98623e0d0e925f943b659337ca2b8937233e23a",
        "3a2e98af3ff78071ec3d6cff54640e6965ba5a14f623d97eb80eb50bebef5a23",
        "de9229f9a33c1be483350feb4441199d6f1c8acc9cbfc037356f9ded5918868f",
    ),
    (8, 4, 4): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8ed6eddd0f8e0dda546ce074e0d1a3cea2c3561abbdd7a5dbb56bce0606db47d",
        "4a0781310d790c7b522ed6e3205e86f6a30886c48a7362202de33ea754f71e60",
        "ceddd4190e073b85a3af1c5027ae55a3fa4e58ca3af78266759f5b13de6d6725",
        "549500c50890348e8dc48245fde67afd09e3a6dfb6541542efb264f73ae4b1c8",
    ),
    (12, 6, 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "964e34c0cdf53c33ddf89ed282ed8d843fbb0ece877c23ed99288cc0eaa69860",
        "b45a03f56e4ebc4e1feff039ce9a9e366fac53b94691a0589a1abe288941158b",
        "f3dd1b495deec12010939f21d313e0605d920f8ffe8052a9f9c9d45ce28a6440",
        "f6c7c6976cc4aa2f4e9ccd3c4a959ff166412da92b3881ca57862977d727c650",
    ),
    (16, 10, 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "47f480b3da8845ccd5ae446b45bd108694532ed0de832d7279fa0518973efed2",
        "5de88e4ce198d82479c2df2322d98a2aa4d5f0a1534cfb0cb07fda6efe4a4e58",
        "6b20900ffcdc8758d63d32cbec5aa265be1532cf9299dff227ba20dba6dc0e5d",
        "60a7766cb35b7d2b2d193d9f7a0dcc33fde677488792f893e617f2de1ca16d45",
    ),
}


def _stripe_major(symbols, width: int) -> bytes:
    """The 4-byte items of a plane-major batch of *width* symbols per stripe, stripe after stripe: the order every
    content digest was taken in, whatever the body order of the format."""
    return array("I", [v for row in stripe_rows(symbols, width) for v in row]).tobytes()


def _content_digest(directory, n):
    h = hashlib.sha256()
    for node_id in range(1, n + 1):
        stripes = read_shard(shard_path(directory, node_id)).stripes
        h.update(_stripe_major(stripes.symbols, stripes.alpha))
    return h.hexdigest()


@pytest.mark.parametrize("n, d, m", sorted(GOLDEN_CONTENT))
def test_shard_and_payload_content_golden(tmp_path, n, d, m):
    """What the shards and a payload hold, whatever their byte layout: a format change leaves these digests alone."""
    config, digests, clusters = CodeConfig(n=n, d=d, m=m, p=257), GOLDEN_CONTENT[n, d, m], {}
    for size, digest in zip((0, 1, 900, 5000), digests):
        directory = tmp_path / str(size)
        directory.mkdir()
        clusters[size] = Cluster.from_file(random.Random(size).randbytes(size), config)
        write_all_shards(directory, clusters[size])
        assert _content_digest(directory, n) == digest, size
    payload = helper_payload(clusters[900].contents[d + 1], d + 1, (1, 2), clusters[900].encoder, m)
    symbols = RepairPayload.from_bytes(payload.to_bytes(257), 257).symbols
    assert hashlib.sha256(_stripe_major(symbols, len(symbols) // clusters[900].stripe_count)).hexdigest() == digests[4]


@pytest.mark.parametrize(
    "n, d, m, digest",
    [
        (8, 4, 2, "eb089b6dc4bb97e2f0e25d804d5cdd5a1045e40322ae9e6615bc071db94c676f"),
        (12, 6, 3, "71e426d9cdf37bc6e7a1265ce060a482ad3f91dd0b538c60ada6ae3b817e6450"),
    ],
)
def test_shard_directory_content_pinned(tmp_path, n, d, m, digest):
    """The decoded symbols of test_shard_directory_bytes_pinned's shards, node order: independent of the format."""
    data = random.Random(64).randbytes(65536)
    write_all_shards(tmp_path, Cluster.from_file(data, CodeConfig(n=n, d=d, m=m, p=257)))
    assert _content_digest(tmp_path, n) == digest


# --- the GF(257) symbol body: escaped (tag 1) or fixed (tag 2), one body per content ---


def _escaped(count, positions, low) -> bytes:
    """A tag-1 body as written by hand: the escape count, the positions and the low bytes, unchecked."""
    return b"\x01" + struct.pack(f"<{1 + len(positions)}I", count, *positions) + bytes(low)


@st.composite
def _gf257_bodies(draw):
    """k symbols of which 0, 1, k // 4 or k // 4 + 1 (at most k) are 256, the rest any byte, in drawn places."""
    k = draw(st.integers(0, 48))
    escapes = min(k, draw(st.sampled_from([0, 1, k // 4, k // 4 + 1])))
    places = draw(st.permutations(range(k)))[:escapes]
    values = draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    for i in places:
        values[i] = 256
    return values


@settings(max_examples=100, deadline=None)
@given(values=_gf257_bodies())
def test_gf257_body_round_trips_at_every_escape_count(values):
    """The body is its spec's, takes the escaped layout exactly where that is no longer than the fixed one, and
    costs at most one byte over two per symbol."""
    k, escapes = len(values), values.count(256)
    blob = pack_symbols(values, 257)
    assert blob == symbol_body_spec(values, 257)
    assert blob[0] == (1 if 4 + 4 * escapes <= k else 2)
    assert len(blob) <= 2 * k + 1
    assert list(unpack_symbols(blob, 257)) == list(unpack_symbols(memoryview(blob), 257)) == values


def test_all_256_bodies_take_the_fixed_layout():
    for k in range(0, 41):
        blob = pack_symbols([256] * k, 257)
        assert blob == b"\x02" + b"\x00\x01" * k and len(blob) == 2 * k + 1
        assert list(unpack_symbols(blob, 257)) == [256] * k


@settings(max_examples=200, deadline=None)
@given(
    blob=st.binary(max_size=40)
    | st.builds(
        lambda values, at, byte: symbol_body_spec(values, 257)[:at] + bytes([byte]) + symbol_body_spec(values, 257)[at + 1 :],
        _gf257_bodies(),
        st.integers(0, 60),
        st.integers(0, 0xFF),
    )
)
def test_gf257_body_accepted_only_as_written(blob):
    """Any body unpack_symbols accepts is the one pack_symbols writes for its symbols: the encoding is canonical."""
    try:
        symbols = unpack_symbols(blob, 257)
    except ValueError:
        return
    assert pack_symbols(symbols, 257) == blob


# Twelve symbols, the body of two stripes at (8, 4, 2): the escaped layout fits up to two escapes.
_TWELVE = [7] * 12
_REFUSED_BODIES = {
    "no-tag": (b"", "no layout tag"),
    "tag-0": (b"\x00" + bytes(12), "unknown tag 0"),
    "tag-3": (b"\x03" + bytes(24), "unknown tag 3"),
    "unsorted": (_escaped(2, [5, 3], [0 if i in (3, 5) else 7 for i in range(12)]), "not strictly increasing below 12"),
    "repeated": (_escaped(2, [3, 3], [0 if i == 3 else 7 for i in range(12)]), "not strictly increasing below 12"),
    "position-past-k": (_escaped(1, [12], _TWELVE), "not strictly increasing below 12"),
    "count-past-length": (_escaped(1000, [3], [0 if i == 3 else 7 for i in range(12)]), "do not hold 1000 escape positions"),
    "low-byte-at-escape": (_escaped(1, [3], _TWELVE), "nonzero low byte at an escape"),
    "fixed-where-escaped-is-shorter": (b"\x02" + b"\x07\x00" * 12, "fixed width where the escaped layout is shorter"),
    "truncated-count": (b"\x01\x00\x00", "2 bytes after the tag do not hold 0 escape positions"),
    "escaped-where-fixed-is-shorter": (_escaped(3, [0, 1, 2], [0, 0, 0] + [7] * 9), "escaped where the fixed width is shorter"),
    "two-byte-symbol-257": (b"\x02" + b"\x01\x01" + b"\x00\x01" * 11, "symbol out of field range"),
    "partial-two-byte-symbol": (b"\x02" + b"\x00\x01" * 11 + b"\x00", "symbol out of field range: body length 23"),
}


@pytest.mark.parametrize("name", sorted(_REFUSED_BODIES))
def test_gf257_body_refusals(tmp_path, name):
    """Each body the encoder does not write is refused with ValueError, and read_shard refuses it as a shard body
    of two stripes with ShardFormatError."""
    body, message = _REFUSED_BODIES[name]
    with pytest.raises(ValueError, match=message):
        unpack_symbols(body, 257)
    path = shard_path(tmp_path, 1)
    path.write_bytes(_SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, 257, 8, 4, 2, 1, 2, 0) + body)
    with pytest.raises(ShardFormatError, match=message):
        read_shard(path)


def test_v1_shard_refused_as_unsupported_version(tmp_path):
    """Version 1 held 2-byte GF(257) symbols with no layout tag; no reader of it is kept."""
    path = shard_path(tmp_path, 1)
    path.write_bytes(_SHARD_HEADER.pack(SHARD_MAGIC, 1, 257, 8, 4, 2, 1, 1, 0) + b"\x07\x00" * 6)
    with pytest.raises(ShardFormatError, match="unsupported version 1"):
        read_shard(path)


def test_v2_shard_refused_as_unsupported_version(tmp_path):
    """Version 2 held the same escaped body stripe after stripe (here two stripes of six); no reader of it is kept."""
    path = shard_path(tmp_path, 1)
    path.write_bytes(_SHARD_HEADER.pack(SHARD_MAGIC, 2, 257, 8, 4, 2, 1, 2, 0) + _escaped(0, [], range(12)))
    with pytest.raises(ShardFormatError, match="unsupported version 2"):
        read_shard(path)


def test_joint_payload_costs_one_byte_per_symbol_and_its_escapes():
    """A random 64 KiB file's joint payload at (8, 4, 2): at most 1.02 bytes per symbol past its header, where
    two bytes per symbol was the cost before the escaped layout."""
    cluster = Cluster.from_file(random.Random(64).randbytes(65536), CodeConfig(n=8, d=4, m=2, p=257))
    payload = helper_payload(cluster.contents[3], 3, (1, 2), cluster.encoder, 2)
    blob, header = payload.to_bytes(257), 3 + 2 * 2 + 6
    assert blob[header] == 1  # escaped
    assert len(blob) - header <= 1.02 * len(payload.symbols)


def test_escape_count_short_of_its_positions_is_refused_by_the_header_count(tmp_path):
    """A count one short reads the last position as four more low bytes: a body of other symbols, which only the
    symbol count in the shard or payload header tells apart."""
    body = _escaped(0, [3], [0 if i == 3 else 7 for i in range(12)])
    assert list(unpack_symbols(body, 257)) == [3, 0, 0, 0] + [0 if i == 3 else 7 for i in range(12)]
    path = shard_path(tmp_path, 1)
    path.write_bytes(_SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, 257, 8, 4, 2, 1, 2, 0) + body)
    with pytest.raises(ShardFormatError, match="body holds 16 symbols, expected 2 stripes of 6"):
        read_shard(path)
    payload = RepairPayload((5,), 1, 2, [7] * 12).to_bytes(257)
    with pytest.raises(ValueError, match="holds 16 symbols, not the header's count 12"):
        RepairPayload.from_bytes(payload[:11] + body, 257)
