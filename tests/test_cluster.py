import gc
import os
import random
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import detcode.cluster
import detcode.field
import detcode.multirepair
import detcode.repair
from detcode.cluster import (
    BandwidthLedger,
    Cluster,
    FieldTooSmallForBytes,
    NotEnoughHelpers,
    RepairEvent,
    ShardBlob,
    ShardFormatError,
    assemble_file,
    ingest_file,
    load_cluster,
    shard_path,
    write_all_shards,
    write_shard,
)
from detcode.code import CodeConfig, ParityViolation, StripeBatch, build_message_matrix
from detcode.multirepair import OverlapError, TooManyFailures, bandwidth_table, helper_bound
from certificates import capacity_curve


CFG257 = CodeConfig(n=8, d=4, m=2, p=257)
CFG13 = CodeConfig(n=8, d=4, m=2, p=13)


def _random_cluster(seed=1, stripes=2, config=CFG13):
    rng = random.Random(seed)
    message = build_message_matrix(
        [rng.randrange(config.p) for _ in range(stripes * config.file_symbols)],
        config.d,
        config.m,
        config.field,
    )
    return Cluster.build(config, message)


def _snapshot(cluster):
    return {i: StripeBatch(c.symbols[:], c.alpha) for i, c in cluster.contents.items() if c}


# --- ingestion -----------------------------------------------------------


def test_ingest_empty_file():
    message, length = ingest_file(b"", CFG257)
    assert message.stripes == 0 and length == 0


def test_ingest_exact_stripe_no_padding():
    data = bytes(range(20))
    message, length = ingest_file(data, CFG257)
    assert message.stripes == 1 and length == 20
    assert list(message.extract_symbols()) == list(data)


def test_ingest_pads_with_zeros():
    message, length = ingest_file(b"\x01\x02\x03", CFG257)
    assert message.stripes == 1 and length == 3
    assert list(message.extract_symbols()) == [1, 2, 3] + [0] * 17


def test_ingest_requires_byte_capable_field():
    with pytest.raises(FieldTooSmallForBytes):
        ingest_file(b"hi", CFG13)


def test_assemble_rejects_oversized_symbols():
    with pytest.raises(ValueError):
        assemble_file([300] + [0] * 19, 5)


@pytest.mark.parametrize("bad", [256, -1])
def test_assemble_names_a_symbol_outside_a_byte(bad):
    with pytest.raises(ValueError, match="recovered symbol exceeds a byte; data is corrupt"):
        assemble_file([1, 2, bad, 3], 4)
    assert assemble_file([1, 2, 3, bad], 3) == bytes([1, 2, 3])  # padding is not read


@pytest.mark.parametrize("code", ["I", "Q"])
def test_assemble_reads_the_low_byte_plane_of_an_array(code):
    """An array of byte values gives exactly those bytes, not bytes() of its machine buffer (itemsize bytes per
    symbol); a symbol of 256 or more within the length raises the declared error, one past it is padding."""
    data = bytes(range(256)) + random.Random(5).randbytes(300)
    symbols = array(code, list(data))
    assert assemble_file(symbols, len(data)) == data
    assert assemble_file(symbols + array(code, [256, 7]), len(data)) == data
    for bad in (256, 2**8 + 2**16, 2**31):
        with pytest.raises(ValueError, match=r"^recovered symbol exceeds a byte; data is corrupt$"):
            assemble_file(array(code, [1, 2, bad, 3]), 4)


def test_assemble_rejects_fewer_symbols_than_the_length():
    with pytest.raises(ValueError, match="fewer symbols than the recorded file length"):
        assemble_file([1, 2, 3], 4)


def test_assemble_refuses_a_negative_length():
    """A length of -1 once sliced off the last symbol and returned b"\\x01" for [1, 2]."""
    with pytest.raises(ValueError, match=r"^file length must be at least 0, got -1$"):
        assemble_file([1, 2], -1)
    assert assemble_file([1, 2], 0) == b""


def test_file_roundtrip_10k():
    rng = random.Random(2)
    data = bytes(rng.randrange(256) for _ in range(10 * 1024))
    cluster = Cluster.from_file(data, CFG257)
    assert cluster.recover_file() == data
    assert cluster.recover_file([5, 6, 7, 8]) == data


# --- failure and repair ----------------------------------------------------


def test_single_repair_restores_and_ledger_counts():
    cluster = _random_cluster()
    before = _snapshot(cluster)
    cluster.fail_nodes([5])
    event = cluster.repair("single", [5], helpers=(1, 2, 3, 4))
    assert cluster.contents[5] == before[5]
    assert event.symbols_by_helper == {1: 6, 2: 6, 3: 6, 4: 6}  # beta=3 x 2 stripes
    assert cluster.ledger.within_bounds(cluster.config)


def test_default_helpers_are_lowest_alive():
    cluster = _random_cluster()
    cluster.fail_nodes([2])
    event = cluster.repair("single", [2])
    assert event.helpers == (1, 3, 4, 5)


def test_joint_repair_two_failures():
    cluster = _random_cluster(seed=3)
    before = _snapshot(cluster)
    cluster.fail_nodes([5, 6])
    event = cluster.repair("joint", [5, 6])
    assert cluster.contents[5] == before[5]
    assert cluster.contents[6] == before[6]
    assert all(v == 10 for v in event.symbols_by_helper.values())  # 5 per stripe
    assert cluster.ledger.within_bounds(cluster.config)


def test_naive_repair_costs_more():
    cluster = _random_cluster(seed=4)
    cluster.fail_nodes([5, 6])
    event = cluster.repair("naive", [5, 6])
    assert all(v == 12 for v in event.symbols_by_helper.values())  # 2 x beta x 2


def test_centralized_repair_total_bounded():
    cluster = _random_cluster(seed=5)
    before = _snapshot(cluster)
    cluster.fail_nodes([5, 6])
    event = cluster.repair("centralized", [5, 6])
    assert cluster.contents[5] == before[5]
    assert cluster.contents[6] == before[6]
    cap = 4 * helper_bound(4, 2, 2, "centralized") * cluster.stripe_count
    assert Fraction(event.total) <= cap


@pytest.mark.parametrize(
    "mode,failed,cap",
    # per helper per stripe at (d, m) = (4, 2): beta = 3, e * beta = 6,
    # beta_2 = 5, and the centralized total d * beta_bar_2 = 18 as 4.5 each
    [("single", (5,), 3), ("naive", (5, 6), 6), ("joint", (5, 6), 5), ("centralized", (5, 6), 4.5)],
)
def test_within_bounds_rejects_one_symbol_over_cap(mode, failed, cap):
    helpers = (1, 2, 3, 4)
    at_cap = {h: int(cap * 2) for h in helpers}
    for symbols, expected in ((at_cap, True), ({**at_cap, 1: at_cap[1] + 1}, False)):
        ledger = BandwidthLedger()
        ledger.record(RepairEvent(mode, failed, helpers, 2, symbols))
        assert ledger.within_bounds(CFG257) is expected


def test_refused_fail_nodes_fails_no_node():
    """An unknown id anywhere in the call refuses it before any node is failed."""
    cluster = _random_cluster()
    with pytest.raises(ValueError, match="^no node 99$"):
        cluster.fail_nodes([2, 99])
    assert cluster.alive() == list(range(1, 9)) and cluster.failed() == []


def test_failed_node_has_no_content():
    cluster = _random_cluster()
    cluster.fail_nodes([6])
    with pytest.raises(ValueError, match="^node 6 is failed$"):
        cluster.node_content(6)


def test_ledger_total_is_the_sum_of_its_events():
    """A 300-byte file at (8, 4, 2) is 15 stripes: a single repair takes 4 helpers * beta = 3 * 15 = 180 symbols,
    a joint repair of two nodes 4 * beta_2 = 5 * 15 = 300, and the ledger's total is their sum."""
    cluster = Cluster.from_file(random.Random(30).randbytes(300), CFG257)
    assert cluster.stripe_count == 15
    cluster.fail_nodes([3])
    cluster.repair("single", [3])
    cluster.fail_nodes([3, 6])
    cluster.repair("joint", [3, 6])
    assert [event.total for event in cluster.ledger.events] == [180, 300]
    assert cluster.ledger.total == 480


def test_repair_refuses_alive_nodes():
    cluster = _random_cluster()
    with pytest.raises(ValueError):
        cluster.repair("single", [5])


@pytest.mark.parametrize("mode", ["naive", "joint", "centralized"])
def test_repeated_failed_ids_are_refused(mode):
    """A repeated id is refused before any repair runs: no event, the node stays failed."""
    cluster = Cluster.from_file(bytes(range(200)), CFG257)
    cluster.fail_nodes([3])
    with pytest.raises(ValueError, match="failed ids must be distinct"):
        cluster.repair(mode, [3, 3])
    assert cluster.ledger.events == []
    assert cluster.failed() == [3]


def test_not_enough_helpers():
    cluster = _random_cluster()
    cluster.fail_nodes([1, 2, 3, 4, 5])
    with pytest.raises(NotEnoughHelpers):
        cluster.repair("joint", [1, 2, 3, 4, 5])


def test_overlapping_helpers_rejected():
    cluster = _random_cluster()
    cluster.fail_nodes([5, 6])
    with pytest.raises(OverlapError):
        cluster.repair("joint", [5, 6], helpers=(1, 2, 3, 5))


def test_failed_helper_rejected():
    cluster = _random_cluster()
    cluster.fail_nodes([5, 6])
    with pytest.raises(NotEnoughHelpers):
        cluster.repair("single", [5], helpers=(1, 2, 3, 6))


@pytest.mark.parametrize(
    "mode, failed, match",
    [
        ("fast", [5], "mode must be one of"),
        ("joint", [], "nothing to repair"),
        ("single", [5, 6], "single mode repairs exactly one node"),
        ("joint", [5, 9], r"node id 9 not in \[1, 8\]"),
    ],
)
def test_repair_refuses_bad_requests_before_any_repair(mode, failed, match):
    cluster = _random_cluster()
    cluster.fail_nodes([5, 6])
    with pytest.raises(ValueError, match=match):
        cluster.repair(mode, failed)
    assert cluster.ledger.events == []
    assert cluster.failed() == [5, 6]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("node", [1, 5])
def test_default_read_never_returns_other_bytes(m, node):
    """One symbol of a read node (1) or of the checking node (5) off by one,
    in range: the default read returns the file or raises ParityViolation.
    Parity covers no direct cell, so node 1 once read back other bytes."""
    config = CodeConfig(n=8, d=4, m=m, p=257)
    data = random.Random(m).randbytes(2 * config.file_symbols - 1)
    for position in range(2 * config.alpha):
        cluster = Cluster.from_file(data, config)
        changed = cluster.contents[node].symbols[:]
        changed[position] = (changed[position] + 1) % 257
        cluster.contents[node] = StripeBatch(changed, config.alpha)
        try:
            assert cluster.recover_file() == data
        except ParityViolation:
            pass


def test_cluster_needs_an_alive_node():
    with pytest.raises(ValueError, match="at least one alive node"):
        Cluster(CFG257, dict.fromkeys(range(1, 9)))


def test_cluster_takes_its_stripe_count_from_a_decoded_node(tmp_path):
    """Loaded nodes are undecoded ShardBlobs, whose len() is not a stripe
    count: a cluster of them needs stripe_count, and a cluster with one
    decoded node (node 3, after node 1's blob) counts that node's stripes."""
    data = random.Random(4000).randbytes(4000)
    write_all_shards(tmp_path, Cluster.from_file(data, CFG257))
    loaded = load_cluster(tmp_path)
    with pytest.raises(ValueError, match="needs stripe_count"):
        Cluster(loaded.config, dict(loaded.contents), loaded.original_len)
    loaded.node_content(3)
    cluster = Cluster(loaded.config, dict(loaded.contents), loaded.original_len)
    assert cluster.stripe_count == loaded.stripe_count == 200
    assert cluster.recover_file() == data


def test_recover_rejects_bad_node_ids():
    """Explicit ids must be d distinct alive nodes, as helpers must."""
    cluster = Cluster.from_file(bytes(range(200)), CFG257)
    cluster.fail_nodes([5])
    for ids in ([1, 2, 3, 5], [1, 2, 3, 99]):
        with pytest.raises(NotEnoughHelpers):
            cluster.recover_file(ids)
    for ids in ([1, 2, 3], [1, 1, 2, 3]):
        with pytest.raises(ValueError):
            cluster.recover_file(ids)
    assert cluster.recover_file([1, 2, 3, 4]) == bytes(range(200))


@pytest.mark.parametrize(
    "mode,failed,senders",
    # centralized: node 5, repaired first, also transmits to the center once
    [("single", (5,), [1, 2, 3, 4]), ("naive", (5, 6), [1, 2, 3, 4]),
     ("joint", (5, 6), [1, 2, 3, 4]), ("centralized", (5, 6), [1, 2, 3, 4, 5])],
)
def test_repair_transmits_once_per_helper_per_group(monkeypatch, mode, failed, senders):
    """A repair makes one helper_payloads call per helper, the transmit
    entry of every mode, not one per stripe or per failure: naive's helpers
    send both failures' payloads from one product. At five stripes the
    decode is factored, and at 40 every mode here applies a decode operator
    (at most 20 received symbols per stripe at (8, 4, 2)). At 40 stripes the
    centralized operator is built on the first repair only, so node 5's
    center-local transmit, made by the build, is missing from the second."""
    real = detcode.repair.helper_payloads
    calls = []

    def counting(content, helper, *args):
        calls.append(helper)
        return real(content, helper, *args)

    monkeypatch.setattr(detcode.repair, "helper_payloads", counting)
    for stripes in (5, 40):
        cluster = _random_cluster(seed=12, stripes=stripes)
        before = _snapshot(cluster)
        detcode.repair.decode_operator.cache_clear()
        for warm in (False, True):
            calls.clear()
            cluster.fail_nodes(failed)
            cluster.repair(mode, failed, helpers=(1, 2, 3, 4))
            assert sorted(calls) == [h for h in senders if not (warm and stripes == 40 and h in failed)]
            assert _snapshot(cluster) == before


def test_centralized_repair_of_more_failures_than_helpers_is_refused():
    """Five failures at (12, 3, 2): centralized repair raises the declared
    error, while joint and naive repair rebuild all five nodes, on both
    sides of the operator's stripe-count rule."""
    config = CodeConfig(n=12, d=3, m=2, p=257)
    failed = [1, 2, 3, 4, 5]
    for stripes in (3, 20):
        cluster = _random_cluster(seed=5, stripes=stripes, config=config)
        before = _snapshot(cluster)
        cluster.fail_nodes(failed)
        with pytest.raises(TooManyFailures):
            cluster.repair("centralized", failed)
        assert cluster.failed() == failed
        for mode in ("joint", "naive"):
            cluster.fail_nodes(failed)
            cluster.repair(mode, failed)
            assert _snapshot(cluster) == before


def test_centralized_refusal_reads_no_helper(tmp_path):
    """Five failures at (9, 4, 2) from loaded shards: centralized repair is
    refused before any helper is read, so the four helpers' bodies stay
    undecoded ShardBlobs."""
    config = CodeConfig(n=9, d=4, m=2, p=257)
    write_all_shards(tmp_path, _random_cluster(seed=7, stripes=3, config=config))
    cluster = load_cluster(tmp_path)
    failed = [1, 2, 3, 4, 5]
    cluster.fail_nodes(failed)
    with pytest.raises(TooManyFailures):
        cluster.repair("centralized", failed)
    assert all(isinstance(cluster.contents[i], ShardBlob) for i in (6, 7, 8, 9))
    assert cluster.ledger.events == []


def test_recovery_after_repair_sequence():
    rng = random.Random(8)
    data = bytes(rng.randrange(256) for _ in range(1000))
    cluster = Cluster.from_file(data, CFG257)
    cluster.fail_nodes([3, 7])
    cluster.repair("joint", [3, 7])
    cluster.fail_nodes([1])
    cluster.repair("single", [1])
    cluster.fail_nodes([2, 4])
    cluster.repair("centralized", [2, 4])
    for ids in [(1, 2, 3, 4), (5, 6, 7, 8), (2, 3, 5, 7)]:
        assert cluster.recover_file(ids) == data


def test_shard_bytes_deterministic(tmp_path):
    """Same input encodes to byte-identical shard files, run to run."""
    rng = random.Random(33)
    data = bytes(rng.randrange(256) for _ in range(600))
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_all_shards(tmp_path / sub, Cluster.from_file(data, CFG257))
    for i in range(1, 9):
        first = (tmp_path / "a" / f"node_{i}.detc").read_bytes()
        second = (tmp_path / "b" / f"node_{i}.detc").read_bytes()
        assert first == second


def test_write_into_missing_directory_names_it_and_creates_nothing(tmp_path):
    """Not the hidden temporary file's name: the directory the caller gave, which must exist."""
    missing = tmp_path / "absent" / "shards"
    cluster = Cluster.from_file(bytes(range(200)), CFG257)
    with pytest.raises(FileNotFoundError, match="shard directory does not exist") as raised:
        write_all_shards(missing, cluster)
    assert raised.value.filename == str(missing) and ".tmp" not in str(raised.value)
    with pytest.raises(FileNotFoundError) as raised:
        write_shard(shard_path(missing, 3), CFG257, 3, cluster.contents[3], 200)
    assert raised.value.filename == str(missing)
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_shard_under_another_node_name(tmp_path):
    """A stale copy of node 3 saved as node 5 neither fails node 5 silently
    nor replaces node 3's content."""
    write_all_shards(tmp_path, Cluster.from_file(bytes(range(200)), CFG257))
    (tmp_path / "node_5.detc").write_bytes((tmp_path / "node_3.detc").read_bytes())
    with pytest.raises(ShardFormatError, match="node_5.detc"):
        load_cluster(tmp_path)


def test_load_rejects_empty_directory_and_disagreeing_headers(tmp_path):
    with pytest.raises(ShardFormatError, match="no shard files found"):
        load_cluster(tmp_path)
    write_all_shards(tmp_path, Cluster.from_file(bytes(range(200)), CFG257))
    other = Cluster.from_file(bytes(range(30)), CFG257)  # 2 stripes, not 10
    write_shard(shard_path(tmp_path, 2), CFG257, 2, other.contents[2], 30)
    with pytest.raises(ShardFormatError, match="shard headers disagree"):
        load_cluster(tmp_path)


def test_load_cluster_builds_no_encoder_before_it_is_used(tmp_path, monkeypatch):
    """A header-only shard claiming a huge code loads without building its
    n x d Vandermonde, and a read with fewer than d shards is refused first;
    a readable cluster builds its encoder once, on first use."""
    (tmp_path / "huge").mkdir()
    config = CodeConfig(n=65535, d=4, m=1, p=65537)
    write_shard(shard_path(tmp_path / "huge", 1), config, 1, StripeBatch([], config.alpha), 0)
    (tmp_path / "small").mkdir()
    write_all_shards(tmp_path / "small", Cluster.from_file(bytes(range(200)), CFG257))
    built = []
    real = detcode.cluster.build_encoder
    monkeypatch.setattr(detcode.cluster, "build_encoder", lambda *args: built.append(args) or real(*args))
    huge = load_cluster(tmp_path / "huge")
    with pytest.raises(NotEnoughHelpers):
        huge.recover_file()
    assert built == []
    small = load_cluster(tmp_path / "small")
    assert built == []
    assert small.recover_file() == bytes(range(200))
    assert small.encoder is small.encoder and built == [(8, 4, CFG257.field)]


def test_shard_round_trip_keeps_a_cluster_byte_or_not(tmp_path):
    """A cluster not built from a byte file is recorded with length 0 over
    its stripes and loads back as one; an empty byte file has no stripes
    and loads back as b''."""
    cluster = _random_cluster(stripes=3, config=CFG257)
    for name in ("symbols", "empty"):
        (tmp_path / name).mkdir()
    write_all_shards(tmp_path / "symbols", cluster)
    loaded = load_cluster(tmp_path / "symbols")
    assert loaded.original_len is None and loaded.stripe_count == 3
    assert loaded.recover_stripes() == cluster.recover_stripes()
    for kept in (cluster, loaded):
        with pytest.raises(ValueError, match="cluster was not built from a byte file"):
            kept.recover_file()
    empty = Cluster.from_file(b"", CFG257)
    write_all_shards(tmp_path / "empty", empty)
    loaded = load_cluster(tmp_path / "empty")
    assert loaded.original_len == 0 and loaded.stripe_count == 0
    assert empty.recover_file() == loaded.recover_file() == b""


def test_zero_stripe_cluster_not_from_a_byte_file_writes_no_shard(tmp_path):
    """Zero stripes would read back as an empty byte file: the write is refused before any file exists."""
    config = CodeConfig(n=6, d=3, m=1, p=257)
    cluster = Cluster.build(config, build_message_matrix([], 3, 1, config.field))
    with pytest.raises(ValueError, match="cluster was not built from a byte file"):
        cluster.recover_file()
    with pytest.raises(ValueError, match="not a byte file needs at least one stripe"):
        write_all_shards(tmp_path, cluster)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("broken", ["write", "replace"])
def test_interrupted_shard_write_keeps_old_shard(tmp_path, monkeypatch, broken):
    """A rewrite that fails part way leaves the old shard's bytes and no
    temporary file; the directory still loads."""
    data = bytes(range(200))
    cluster = Cluster.from_file(data, CFG257)
    write_all_shards(tmp_path, cluster)
    path = shard_path(tmp_path, 3)
    before = path.read_bytes()
    if broken == "write":
        real_write = Path.write_bytes

        def half_then_fail(self, blob):
            real_write(self, blob[: len(blob) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    else:
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
    changed = cluster.contents[3].symbols[:]
    changed[0] = (changed[0] + 1) % 257
    with pytest.raises(OSError, match="disk full"):
        write_shard(path, CFG257, 3, StripeBatch(changed, CFG257.alpha), len(data))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"node_{i}.detc" for i in range(1, 9)]
    assert load_cluster(tmp_path).recover_file() == data


def test_kernel_caches_do_not_grow_with_the_file(tmp_path):
    """After a put, write_all_shards, load_cluster, two reads and a joint repair at (8, 4, 2), the kernel's
    mask cache holds the same bytes at 64 KiB and at 1 MiB, and at most 0.5 MiB: masks are cut to windows of at
    most WINDOW entries, not to whole rows or shards. Measured with tracemalloc around cache_clear."""
    masks = detcode.field._masks

    def cache_bytes(size):
        data, directory = random.Random(size).randbytes(size), tmp_path / str(size)
        directory.mkdir()
        masks.cache_clear()
        tracemalloc.start()
        try:
            write_all_shards(directory, Cluster.from_file(data, CFG257))
            cluster = load_cluster(directory)
            assert cluster.recover_file() == data and cluster.recover_file([5, 6, 7, 8]) == data
            cluster.fail_nodes([2, 5])
            cluster.repair("joint", [2, 5])
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            masks.cache_clear()
            gc.collect()
            return held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    cache_bytes(32 << 10)  # warms the operator caches, whose construction runs the kernel on short rows once
    small, large = cache_bytes(64 << 10), cache_bytes(1 << 20)
    assert small == large <= 1 << 19


def test_node_content_heap_after_a_put():
    """After Cluster.from_file of 1 MiB at (8, 4, 2), p = 257, the tracemalloc heap is at most 11 MiB: each of the
    8 nodes holds 314574 symbols, 4 bytes each in its array('I'), 9.6 MiB in all. Node content as lists of
    ints (an 8-byte pointer per symbol, and the lists built on the way) held 19.3 MiB."""
    data = random.Random(1).randbytes(1 << 20)
    gc.collect()
    tracemalloc.start()
    try:
        cluster = Cluster.from_file(data, CFG257)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 11 << 20, held
    assert all(batch.symbols.typecode == "I" and len(batch.symbols) == 314574 for batch in cluster.contents.values())


def test_repair_determinism():
    events = []
    for _ in range(2):
        cluster = _random_cluster(seed=11)
        cluster.fail_nodes([6])
        event = cluster.repair("single", [6])
        events.append((event.helpers, tuple(sorted(event.symbols_by_helper.items()))))
    assert events[0] == events[1]


@pytest.mark.parametrize("m", [1, 4])
def test_repair_modes_at_tradeoff_extremes(m):
    """Min-bandwidth (m=1) and min-storage (m=d) settings repair cleanly."""
    config = CodeConfig(n=8, d=4, m=m, p=13)
    cluster = _random_cluster(seed=40 + m, stripes=2, config=config)
    before = _snapshot(cluster)
    cluster.fail_nodes([5])
    cluster.repair("single", [5])
    cluster.fail_nodes([2, 7])
    cluster.repair("joint", [2, 7])
    cluster.fail_nodes([1, 8])
    cluster.repair("centralized", [1, 8])
    assert _snapshot(cluster) == before
    assert cluster.ledger.within_bounds(config)


def test_randomized_soak_small_config():
    """Thousands of fail/repair episodes never exceed the ledger bounds and
    always restore the exact encoded contents."""
    rng = random.Random(0xFEED)
    cluster = _random_cluster(seed=21, stripes=1)
    baseline = _snapshot(cluster)
    for episode in range(10_000):
        e = rng.choice((1, 1, 1, 1, 2, 2, 3))
        failed = rng.sample(range(1, 9), e)
        cluster.fail_nodes(failed)
        mode = "single" if e == 1 else rng.choice(("naive", "joint", "centralized"))
        cluster.repair(mode, failed)
        if episode % 2500 == 0:
            assert _snapshot(cluster) == baseline
    assert _snapshot(cluster) == baseline
    assert cluster.ledger.within_bounds(cluster.config)


def test_randomized_soak_wide_config():
    rng = random.Random(0xBEEF)
    config = CodeConfig(n=12, d=10, m=3, p=13)
    cluster = _random_cluster(seed=22, stripes=1, config=config)
    baseline = _snapshot(cluster)
    for _ in range(24):
        failed = rng.sample(range(1, 13), 1)
        cluster.fail_nodes(failed)
        cluster.repair("single", failed)
    for failed in ((3, 9), (1, 12)):
        cluster.fail_nodes(failed)
        cluster.repair("joint", failed)
    assert _snapshot(cluster) == baseline
    assert cluster.ledger.within_bounds(config)


# --- reference tables -------------------------------------------------------


def test_bandwidth_table_rows():
    rows = bandwidth_table(10, 3, 4, mode="all")
    assert len(rows) == 12
    by_key = {(e, kind): (value, norm) for e, kind, value, norm in rows}
    assert by_key[(1, "naive")] == (36, Fraction(3, 10))
    assert by_key[(2, "naive")] == (72, Fraction(3, 5))
    assert by_key[(4, "naive")] == (120, Fraction(1))
    assert by_key[(2, "joint")] == (64, Fraction(8, 15))
    assert by_key[(3, "joint")] == (85, Fraction(17, 24))
    assert by_key[(2, "centralized")] == (Fraction(306, 5), Fraction(51, 100))


def test_bandwidth_table_single_mode():
    rows = bandwidth_table(4, 2, 3, mode="joint")
    assert [(e, value) for e, _, value, _ in rows] == [(1, 3), (2, 5), (3, 6)]


def test_capacity_curve_flat():
    rows = capacity_curve(6, 3, range(7, 12))
    assert rows == [(n, 105) for n in range(7, 12)]


def test_capacity_curve_small_example():
    assert capacity_curve(4, 2, [8]) == [(8, 20)]
