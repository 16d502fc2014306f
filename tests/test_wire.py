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


# Payload v3: <B version=3><B m><B e><e x H failed><H helper><I count>, then
# count little-endian symbols of element_width(p) bytes (1 byte for p = 13),
# stripe after stripe.


def test_single_payload_layout(encoder8, contents8):
    payload = helper_payload(contents8[1], 2, (5,), encoder8, 2)
    assert payload == RepairPayload(failed=(5,), helper=2, m=2, symbols=array("I", (1, 9, 7)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "03 02 01" "05 00" "02 00" "03 00 00 00" "01 09 07"
    )


def test_joint_payload_layout(encoder8, contents8):
    payload = helper_payload(contents8[0], 1, (5, 6), encoder8, 2)
    assert payload == RepairPayload(failed=(5, 6), helper=1, m=2, symbols=array("I", (5, 0, 8, 1, 1)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "03 02 02" "05 00 06 00" "01 00" "05 00 00 00" "05 00 08 01 01"
    )


def test_two_byte_payload_symbols_little_endian():
    payload = RepairPayload(failed=(5, 6), helper=3, m=2, symbols=(256, 1))
    assert payload.to_bytes(257) == bytes.fromhex(
        "03 02 02" "05 00 06 00" "03 00" "02 00 00 00" "00 01 01 00"
    )


def test_two_stripe_payload_layout(gf13, encoder8, message8):
    """One header for both stripes; stripe 0's symbols are the one-stripe payload's."""
    message = build_message_matrix([*message8.extract_symbols(), *range(20)], 4, 2, gf13)
    payload = helper_payload(encode(encoder8, message)[1], 2, (5,), encoder8, 2)
    assert payload == RepairPayload(failed=(5,), helper=2, m=2, symbols=array("I", (1, 9, 7, 12, 10, 9)))
    assert payload.to_bytes(13) == bytes.fromhex(
        "03 02 01" "05 00" "02 00" "06 00 00 00" "01 09 07" "0c 0a 09"
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
        ("mode m", "03 00 01" "05 00" "01 00" "00 00 00 00", RepairPayload((5,), 1, 0, ())),
        ("failure count e", "03 02 00" "01 00" "00 00 00 00", RepairPayload((), 1, 2, ())),
    ],
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
    assert blob == b"".join(v.to_bytes(width, "little") for v in values)
    assert list(unpack_symbols(blob, p)) == values
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(p, 256**width - 1)))
    with pytest.raises(ValueError, match="symbol out of field range"):
        pack_symbols(values + [bad], p)
    if bad >= 0:
        with pytest.raises(ValueError, match="symbol out of field range"):
            unpack_symbols(blob + bad.to_bytes(width, "little"), p)
    if width > 1:
        with pytest.raises(ValueError, match="symbol out of field range"):
            unpack_symbols(blob + bytes(width - 1), p)


def test_three_byte_symbols_little_endian():
    assert pack_symbols([65536, 1], 65537) == bytes.fromhex("00 00 01" "01 00 00")
    assert list(unpack_symbols(bytes.fromhex("00 00 01" "01 00 00"), 65537)) == [65536, 1]


def test_two_byte_symbols_little_endian(tmp_path):
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
    assert blob[header.size : header.size + 2] == (256).to_bytes(2, "little")
    shard = read_shard(path)
    assert shard.stripes == StripeBatch([256, 0, 0, 0, 0, 0], 6)
    assert shard.node_id == 3


@pytest.mark.parametrize(
    "n, d, m, digest",
    [
        (8, 4, 2, "de0581fe4e9839450a7b77402c03226f044a967d43c472d77b2d7ffa6f45c6c1"),
        (12, 6, 3, "f9945e9b18803cc53c6b024425be8c571bb72f859da8764316f3240815a51ddb"),
    ],
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
    config = CodeConfig(n=8, d=4, m=2, p=257)
    path = shard_path(tmp_path, 1)
    write_shard(path, config, 1, StripeBatch([1, 2, 3, 4, 5, 6], 6), original_len=6)
    blob = bytearray(path.read_bytes())
    blob[-1] = 0xFF  # makes the last 2-byte symbol >= 257
    blob[-2] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ShardFormatError):
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
    assert ShardFile(config, 1, None, StripeBatch([1, 2, 3, 4, 5, 6], 6)).to_bytes()[-20:-12] == bytes(8)


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
    symbols = draw(st.lists(st.integers(0, max(p - 1, 0)), min_size=count, max_size=count))
    if symbols and draw(st.booleans()):  # one symbol anywhere in its width, in the field or not
        symbols[draw(st.integers(0, count - 1))] = draw(st.integers(0, 256**width - 1))
    return header + b"".join(v.to_bytes(width, "little") for v in symbols)


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
        "b2d094e11633c1c0b34dc0e9a277f1b20b1b94c05f4ea124d040a3566fd53342",
        "9097e41c077b9b8cb7364e9d80e90c9d3087cf310b64201ec6a6432906b9dcdd",
        "4759941ddf140d6faf140842726ec760e2e6f9684bafe6b33279d22bea3c4cf4",
        "1df188ed314fad7198d8e0c6ab9a606d3f5df20eece95d6a2e51d5e3eeb2c706",
        "23566a6b00b9f7079fb6dcbb2700f37b6f572b278236ce65320170bba663fd66",
    ),
    (8, 4, 2): (
        "c656b83b2e8087cc10515fbc619d14fa228efce7557334d5bb26b7de747ec06e",
        "f69276d38cf10a3ca609d2e5a5910f8079598bbf41b1665a6dee9ac4d5644e17",
        "409ea82637a12d93f5378f4603666b7c6411fd133e67f8466e59dc4f50e2a38d",
        "60de4aefe13a863df86ff801986fe21bdfcce5c65d99f004bd2e22535789d765",
        "2431ed0f992acfd9de85f7420429e1e5f567dc5dec27589837a0427d51ba0e7c",
    ),
    (8, 4, 4): (
        "a174bdf23ec363fd789e2252b602b8437bb410aa59f313ce6bbbed4ae15e47fc",
        "f56ab5a9862494f1545b1dd4a7367495640189f73807ab09134a676141d13ffb",
        "c902fbdf3c8dc48034c70662bf7b763845b2a9c68ccef872423b1278c4b87616",
        "07c797871f878e1640f3236da69ad57ee789cdd4bb47c817119b872adc6138fd",
        "97861e398b91ac004d1715ca352a6fa64d0de527a7de68649569b78a19dcd393",
    ),
    (12, 6, 3): (
        "0ae1fc8a2e1491851cc837123cfcdbaebc926b40d954047d8ee461aea8bcccca",
        "09de290bc4f563b0035f86bff58241a5fee6c23c180e8fd8fb7f91f145efaee1",
        "ddc988c91e64e64c08a942d5e3c9d4e35a4945b168988fee6dd07770b2f22953",
        "8cc922a5b03917ebee271b6e111d15e85f7d92669387afc91f1b0235c19c7604",
        "dee8da6158d061354c5752f2ee0d6a4ce64f35bf7ad584e28bf1e546492899ed",
    ),
    (16, 10, 3): (
        "1b5e8beebe79bb7996314dbc7ae1019775ac528c05f3dc875ff2b0c48b024914",
        "a251909fcece735c5389bc3988ee0e12ab38a8422286de1a0671f2c86a09ec56",
        "1397e5f181807170017ed39e3a47e7a5499c075daa12da80a831314cebe3c655",
        "d90defa9b8f82c30bc595d92592432a3ea6f3392c6accbf2807175bddd1dfafc",
        "77d526c3d501a7c5e3f9ee59befe9d61a8166834f9d8f6a312122f9ad6eaf2c4",
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
