"""A node's content is one flat StripeBatch from encode to shard and back."""

import random
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from detcode import Cluster, CodeConfig, Field, Matrix, ShardFile, StripeBatch, load_cluster, read_shard, shard_path, write_all_shards
from detcode.cluster import SHARD_MAGIC, SHARD_VERSION
from detcode.field import batch_product, combine_rows
from detcode.multirepair import helper_bound
from oracles import as_lists, batch_product_scalar, stripe_rows, symbol_body_spec


def _stripe_counts(d: int, m: int, e: int):
    """0 and 1 stripes; fewer than the joint rank (the weight-packed product);
    twice the joint operator's rows or more (the operator decode)."""
    rank = helper_bound(d, m, e, "joint")
    few = st.integers(1, rank - 1) if rank > 1 else st.just(1)
    return st.just(0) | st.just(1) | few | st.integers(2 * d * rank, 2 * d * rank + 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_round_trips_through_shards_get_and_every_repair(tmp_path_factory, data):
    m = data.draw(st.integers(1, 4), label="m")
    config = CodeConfig(n=8, d=4, m=m, p=257)
    failed = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed")
    stripes = data.draw(_stripe_counts(4, m, len(failed)), label="stripes")
    pad = data.draw(st.integers(0, config.file_symbols - 1), label="padding") if stripes else 0
    blob = random.Random(data.draw(st.integers(0, 2**32), label="seed")).randbytes(stripes * config.file_symbols - pad)

    cluster = Cluster.from_file(blob, config)
    encoded = dict(cluster.contents)
    for batch in encoded.values():
        assert len(batch) == stripes and len(batch.symbols) == stripes * config.alpha
        assert list(batch) == [batch.symbols[s::stripes] for s in range(stripes)]

    # shard bytes: the v3 header, then symbol c of every stripe for each c in turn, in the GF(257) body layout, from its spec
    directory = tmp_path_factory.mktemp("batch")
    write_all_shards(directory, cluster)
    for node, batch in encoded.items():
        header = struct.pack("<4sBQHHBHQQ", SHARD_MAGIC, SHARD_VERSION, 257, 8, 4, m, node, stripes, len(blob))
        body = symbol_body_spec([batch[s][c] for c in range(config.alpha) for s in range(stripes)], 257)
        assert shard_path(directory, node).read_bytes() == header + body
        assert read_shard(shard_path(directory, node)).stripes == batch

    reads = sorted(data.draw(st.permutations(range(1, 9)), label="reads")[:4])
    assert load_cluster(directory).recover_file(reads) == blob

    helpers = [h for h in data.draw(st.permutations(range(1, 9)), label="helpers") if h not in failed][:4]
    for mode in ("single", "naive", "joint", "centralized"):
        group = failed[:1] if mode == "single" else failed
        cluster.fail_nodes(group)
        cluster.repair(mode, group, helpers)
        assert {f: cluster.contents[f] for f in group} == {f: encoded[f] for f in group}, mode

    if config.alpha > 1:  # with alpha = 1 every length is whole stripes
        extra = data.draw(st.integers(1, config.alpha - 1), label="ragged")
        with pytest.raises(ValueError, match="not whole stripes"):
            StripeBatch([*encoded[1].symbols, *[0] * extra], config.alpha)


def test_batch_rows_and_equality():
    batch = StripeBatch([1, 2, 3, 4, 5, 6], 3)  # plane-major: symbol c of stripe s at c * 2 + s
    assert len(batch) == 2 and list(batch[0]) == [1, 3, 5] and list(batch[-1]) == [2, 4, 6]
    assert [list(row) for row in batch] == [[1, 3, 5], [2, 4, 6]]
    with pytest.raises(IndexError):
        batch[2]
    assert batch == StripeBatch([1, 2, 3, 4, 5, 6], 3)
    assert batch != StripeBatch([1, 2, 3, 4, 5, 6], 2)  # same symbols, other stripes
    assert len(StripeBatch([], 3)) == 0 and list(StripeBatch([], 3)) == []
    with pytest.raises(ValueError, match="not whole stripes"):
        StripeBatch([1, 2], 0)


@pytest.mark.parametrize("p, code", [(257, "I"), (65537, "I"), (2**31 - 1, "I"), (2**61 - 1, "Q")])
def test_batch_from_a_list_a_shard_and_a_repair_agree(tmp_path, p, code):
    """A node's content is one array of one typecode wherever it comes from: built from a list, read back from its
    shard, or rebuilt by a single, joint or centralized repair. All of them compare equal."""
    config = CodeConfig(n=8, d=4, m=2, p=p)
    cluster = Cluster.from_file(random.Random(p).randbytes(3000), config)
    node = 6  # a parity node: at 2**61 - 1 its symbols need 8 bytes
    from_list = StripeBatch(list(cluster.contents[node].symbols), config.alpha)
    write_all_shards(tmp_path, cluster)
    batches = [from_list, read_shard(shard_path(tmp_path, node)).stripes]
    for mode in ("single", "joint", "centralized"):
        cluster.fail_nodes([node])
        cluster.repair(mode, [node])
        batches.append(cluster.contents[node])
    assert all(batch == from_list for batch in batches)
    assert [type(batch.symbols) for batch in batches] == [array] * 5
    assert {batch.symbols.typecode for batch in batches} == {code}


def test_shard_body_and_kernel_outputs_are_arrays_at_257():
    """At p = 257 a parsed shard's symbols and every kernel output, rows or weights packed, are array('I')."""
    config = CodeConfig(n=8, d=4, m=2, p=257)
    blob = ShardFile(config, 1, None, StripeBatch([256, 0, 1, 2, 3, 4], 6)).to_bytes()
    symbols = ShardFile.from_bytes(blob).stripes.symbols
    assert type(symbols) is array and symbols.typecode == "I" and list(symbols) == [256, 0, 1, 2, 3, 4]
    weights = Matrix(Field(257), [[1, 0, 2], [0, 1, 3]])  # two unit columns and a dense one
    for length in (1, 5):  # fewer entries than outputs, and more
        outputs = combine_rows([[256] * length, [1] * length], weights)
        assert [(type(output), output.typecode) for output in outputs] == [(array, "I")] * 3
        assert [list(output) for output in outputs] == [[256] * length, [1] * length, [(512 + 3) % 257] * length]
    (packed,) = batch_product([([256, 1], 2)], weights)  # one stripe: the weights packed
    assert (type(packed), packed.typecode, list(packed)) == (array, "I", [256, 1, (512 + 3) % 257])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plane_major_products_match_a_per_stripe_oracle(data):
    """The layout oracle: S in {0, 1, 2, 3, 7} stripes of 1-3 plane-major parts (arrays or lists), times weights of
    more output columns than stripes (the weight-packed orientation) or at most as many (the windowed one), in 1-3
    blocks: batch_product gives what a scalar product stripe by stripe, laid out plane-major, gives. A part read as a
    StripeBatch yields stripe s as batch[s], batch[s - S] and its s-th row."""
    p = data.draw(st.sampled_from([13, 257, 65537]), label="p")
    stripes = data.draw(st.sampled_from([0, 1, 2, 3, 7]), label="stripes")
    packed = stripes > 0 and data.draw(st.booleans(), label="weight-packed")
    blocks = data.draw(st.integers(1, 3 if packed or not stripes else min(3, stripes)), label="blocks")
    least, most = (stripes // blocks + 1, stripes // blocks + 3) if packed else (1, max(stripes // blocks, 1))
    width = data.draw(st.integers(least, most), label="block width")
    assert (0 < stripes < blocks * width) == packed
    widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="widths")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    weights = Matrix(Field(p), [[rng.randrange(p) for _ in range(blocks * width)] for _ in range(sum(widths))])
    parts = [([rng.randrange(p) for _ in range(stripes * w)], w) for w in widths]
    parts = [(array("I", flat) if data.draw(st.booleans(), label="array") else flat, w) for flat, w in parts]
    assert as_lists(batch_product(parts, weights, blocks)) == batch_product_scalar(parts, weights, blocks)
    for flat, w in parts:
        batch, rows = StripeBatch(flat, w), stripe_rows(flat, w)
        assert len(batch) == stripes
        assert [list(batch[s]) for s in range(stripes)] == [list(batch[s - stripes]) for s in range(stripes)] == rows
        assert [list(row) for row in batch] == rows
