import random
import shutil

import pytest
from click.testing import CliRunner

import detcode.cluster
from detcode.cli import main
from detcode.code import StripeBatch
from detcode.cluster import NotEnoughHelpers, ShardFormatError, load_cluster, read_shard, shard_path, write_shard


def _encode_fixture(tmp_path, size=3000, seed=9, n=8, d=4, m=2, prime=None, data=None):
    if data is None:
        rng = random.Random(seed)
        data = bytes(rng.randrange(256) for _ in range(size))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    shards = tmp_path / "shards"
    runner = CliRunner()
    _ok(runner, "encode", "--input", src, "--n", n, "--d", d, "--m", m, "--out", shards,
        *([] if prime is None else ["--prime", prime]))
    return runner, data, shards


def _ok(runner, *args):
    """Run one detcode command, which must exit 0; returns its output."""
    result = runner.invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 0, result.output
    return result.output


def _repair_verify_recover(runner, shards, data, out, mode, failed):
    """Delete the failed shards and rebuild them in *mode* byte for byte; verify and the default recover then pass."""
    originals = {i: shard_path(shards, i).read_bytes() for i in failed}
    for i in failed:
        shard_path(shards, i).unlink()
    _ok(runner, "multirepair", "--shards", shards, "--failed", ",".join(map(str, failed)), "--mode", mode)
    assert {i: shard_path(shards, i).read_bytes() for i in failed} == originals
    assert "MISMATCH" not in _ok(runner, "verify", "--shards", shards)
    _ok(runner, "recover", "--shards", shards, "--output", out)
    assert out.read_bytes() == data


def test_encode_writes_all_shards(tmp_path):
    _, _, shards = _encode_fixture(tmp_path)
    names = sorted(p.name for p in shards.glob("*.detc"))
    assert names == [f"node_{i}.detc" for i in range(1, 9)]


def test_encode_recover_roundtrip(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    out = tmp_path / "out.bin"
    result = runner.invoke(
        main,
        ["recover", "--shards", str(shards), "--nodes", "2,4,6,8", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == data


def test_repair_missing_shard(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    original = shard_path(shards, 5).read_bytes()
    shard_path(shards, 5).unlink()
    result = runner.invoke(main, ["repair", "--shards", str(shards), "--failed", "5"])
    assert result.exit_code == 0, result.output
    assert shard_path(shards, 5).read_bytes() == original


def test_multirepair_joint_and_centralized(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    originals = {i: shard_path(shards, i).read_bytes() for i in (3, 6)}
    shard_path(shards, 3).unlink()
    shard_path(shards, 6).unlink()
    result = runner.invoke(
        main,
        ["multirepair", "--shards", str(shards), "--failed", "3,6", "--mode", "joint"],
    )
    assert result.exit_code == 0, result.output
    for i in (3, 6):
        assert shard_path(shards, i).read_bytes() == originals[i]

    shard_path(shards, 3).unlink()
    shard_path(shards, 6).unlink()
    result = runner.invoke(
        main,
        ["multirepair", "--shards", str(shards), "--failed", "3,6",
         "--mode", "centralized", "--helpers", "1,2,4,5"],
    )
    assert result.exit_code == 0, result.output
    for i in (3, 6):
        assert shard_path(shards, i).read_bytes() == originals[i]


def test_multirepair_naive_of_three_failures(tmp_path):
    """Naive repair of nodes 2, 5 and 7 over 150 stripes at (8, 4, 2): each helper's one transmit product takes the
    windowed orientation and sends e * beta = 9 symbols per stripe, more than alpha = 6, and each failure is decoded
    by its operator. Every rebuilt shard is byte-identical; verify and the default recover pass."""
    runner, data, shards = _encode_fixture(tmp_path)
    failed = (2, 5, 7)
    originals = {i: shard_path(shards, i).read_bytes() for i in failed}
    for i in failed:
        shard_path(shards, i).unlink()
    result = runner.invoke(main, ["multirepair", "--shards", str(shards), "--failed", "2,5,7", "--mode", "naive"])
    assert result.exit_code == 0, result.output
    assert "(150 stripes)" in result.output and result.output.rstrip().endswith(f"total {4 * 9 * 150}")
    assert {i: shard_path(shards, i).read_bytes() for i in failed} == originals
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 0 and "MISMATCH" not in result.output, result.output
    out = tmp_path / "out.bin"
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == data


def test_verify_clean_and_corrupted(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 0, result.output
    assert "MISMATCH" not in result.output

    # corrupt one symbol of node 2 without breaking the container format
    shard = read_shard(shard_path(shards, 2))
    symbols = shard.stripes.symbols[:]
    symbols[0] = (symbols[0] + 1) % shard.config.p
    write_shard(shard_path(shards, 2), shard.config, 2, StripeBatch(symbols, shard.config.alpha), shard.original_len)
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 1
    assert "node 2: MISMATCH" in result.output


@pytest.mark.parametrize("n, d, m", [(8, 4, 2), (12, 6, 3)])
def test_verify_blames_exactly_the_one_damaged_node(tmp_path, n, d, m):
    """Damage symbol 0 of one node at a time, on a fresh copy: verify blames that node and no other,
    inside the first window (a direct or a parity-covered cell) as well as past it."""
    runner, _, shards = _encode_fixture(tmp_path, size=2000, n=n, d=d, m=m)
    for node in range(1, n + 1):
        copy = shutil.copytree(shards, tmp_path / f"damaged_{node}")
        shard = read_shard(shard_path(copy, node))
        symbols = shard.stripes.symbols[:]
        symbols[0] = (symbols[0] + 1) % shard.config.p
        write_shard(shard_path(copy, node), shard.config, node, StripeBatch(symbols, shard.config.alpha), shard.original_len)
        result = runner.invoke(main, ["verify", "--shards", str(copy)])
        assert result.exit_code == 1, result.output
        assert [line for line in result.output.splitlines() if "MISMATCH" in line] == [f"node {node}: MISMATCH"]


def test_verify_with_fewer_than_d_shards_is_one_error_line(tmp_path):
    runner, _, shards = _encode_fixture(tmp_path)
    for node in range(1, 6):
        shard_path(shards, node).unlink()
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert result.output == "Error: need at least 4 distinct node ids, got [6, 7, 8]\n"


def test_verify_with_no_consistent_reference_subset_exits_1(tmp_path):
    """Symbol 0 of every shard plus 1 mod 257 leaves no rotation of d reference nodes consistent."""
    runner, _, shards = _encode_fixture(tmp_path, size=4000)
    for node in range(1, 9):
        shard = read_shard(shard_path(shards, node))
        symbols = shard.stripes.symbols[:]
        symbols[0] = (symbols[0] + 1) % shard.config.p
        write_shard(shard_path(shards, node), shard.config, node, StripeBatch(symbols, shard.config.alpha), shard.original_len)
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 1
    assert result.output == "every reference subset is internally inconsistent\n"


def test_repair_after_corruption_restores(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    original = shard_path(shards, 7).read_bytes()
    shard = read_shard(shard_path(shards, 7))
    symbols = shard.stripes.symbols[:]
    symbols[3] = (symbols[3] + 5) % shard.config.p
    write_shard(shard_path(shards, 7), shard.config, 7, StripeBatch(symbols, shard.config.alpha), shard.original_len)
    result = runner.invoke(main, ["repair", "--shards", str(shards), "--failed", "7"])
    assert result.exit_code == 0, result.output
    assert shard_path(shards, 7).read_bytes() == original


def test_recover_rejects_unavailable_node_cleanly(tmp_path):
    runner, _, shards = _encode_fixture(tmp_path)
    shard_path(shards, 5).unlink()
    for nodes in ("1,2,3,5", "1,2,3,9"):
        result = runner.invoke(
            main,
            ["recover", "--shards", str(shards), "--nodes", nodes, "--output", str(tmp_path / "out.bin")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert "Traceback" not in result.output


def test_recover_without_nodes_is_checked_against_the_next_node(tmp_path):
    """The default read decodes from nodes 1-4 and checks them against node 5, which a flipped bit fails."""
    runner, data, shards = _encode_fixture(tmp_path, size=2000)
    out = tmp_path / "out.bin"
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == data
    path = shard_path(shards, 1)
    shard = read_shard(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) - len(shard.stripes.symbols)] ^= 1  # low bit of the first symbol's low byte (escaped layout)
    path.write_bytes(bytes(blob))
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(tmp_path / "bad.bin")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: node 5 disagrees")
    assert not (tmp_path / "bad.bin").exists()


def test_reads_without_a_spare_shard_say_they_are_not_cross_checked(tmp_path):
    """With shards 5-8 gone no alive shard is left to check the first four against, and a
    flipped bit in node 1 can pass parity: recover and verify say the read was not
    cross-checked, before and after the flip, and keep exit code 0. With a spare they say checked."""
    runner, data, shards = _encode_fixture(tmp_path)
    out = tmp_path / "out.bin"
    checked = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out)])
    assert checked.output == "recovered 3000 bytes from the first 4 alive nodes, checked against the next\n"
    assert runner.invoke(main, ["verify", "--shards", str(shards)]).output.endswith("verified 150 stripes across 8 shards\n")
    for node in range(5, 9):
        shard_path(shards, node).unlink()
    unchecked = "not cross-checked: no spare shard is alive"
    verify_output = "".join(f"node {i}: not cross-checked\n" for i in range(1, 5))
    verify_output += f"missing shards: [5, 6, 7, 8]\nread 150 stripes across 4 shards, {unchecked}\n"
    for flip in (False, True):
        if flip:
            path = shard_path(shards, 1)
            blob = bytearray(path.read_bytes())
            blob[len(blob) - len(read_shard(path).stripes.symbols)] ^= 1  # low bit of the first symbol's low byte
            path.write_bytes(bytes(blob))
        result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"recovered 3000 bytes from the first 4 alive nodes, {unchecked}\n"
        assert flip or out.read_bytes() == data
        result = runner.invoke(main, ["verify", "--shards", str(shards)])
        assert result.exit_code == 0, result.output
        assert result.output == verify_output


def test_bandwidth_csv(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["bandwidth", "--d", "10", "--m", "3", "--emax", "2", "--mode", "all"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "e,mode,symbols,normalized,decimal"
    assert "2,joint,64,8/15," in lines[5]
    assert "2,centralized,306/5,51/100,0.51" in lines[6]


def test_capacity_csv():
    runner = CliRunner()
    result = runner.invoke(main, ["capacity", "--d", "4", "--m", "2", "--nmax", "7"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,F"
    assert lines[1:] == ["5,20", "6,20", "7,20"]


@pytest.mark.parametrize("n_max", ["4", "2"])
def test_capacity_rejects_empty_node_range(n_max):
    result = CliRunner().invoke(main, ["capacity", "--d", "4", "--m", "2", "--nmax", n_max])
    assert result.exit_code == 1
    assert result.output == f"Error: empty node-count range range(5, {int(n_max) + 1}): need at least one n > d = 4\n"


def test_cli_shards_survive_reload(tmp_path):
    _, data, shards = _encode_fixture(tmp_path)
    cluster = load_cluster(shards)
    assert cluster.recover_file() == data


def test_multirepair_naive_mode(tmp_path):
    runner, data, shards = _encode_fixture(tmp_path)
    originals = {i: shard_path(shards, i).read_bytes() for i in (2, 5)}
    shard_path(shards, 2).unlink()
    shard_path(shards, 5).unlink()
    result = runner.invoke(
        main,
        ["multirepair", "--shards", str(shards), "--failed", "2,5", "--mode", "naive"],
    )
    assert result.exit_code == 0, result.output
    for i in (2, 5):
        assert shard_path(shards, i).read_bytes() == originals[i]


def test_multirepair_refuses_a_failed_list_that_is_not_integers(tmp_path):
    runner, _, shards = _encode_fixture(tmp_path)
    result = runner.invoke(main, ["multirepair", "--shards", str(shards), "--failed", "2,x"])
    assert result.exit_code == 2
    assert "expected comma-separated integers, got '2,x'" in result.output


def test_encode_rejects_small_prime_cleanly(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(b"abc")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["encode", "--input", str(src), "--n", "8", "--d", "4", "--m", "2",
         "--prime", "13", "--out", str(tmp_path / "shards")],
    )
    assert result.exit_code == 1
    assert "Error" in result.output and "257" in result.output


def test_encode_refuses_a_prime_no_shard_header_holds(tmp_path):
    """p = 2**64 + 13 is prime, but a shard header records p in 8 bytes: refused before any shard is written."""
    src = tmp_path / "input.bin"
    src.write_bytes(b"abc")
    result = CliRunner().invoke(
        main,
        ["encode", "--input", str(src), "--n", "8", "--d", "4", "--m", "2",
         "--prime", "18446744073709551629", "--out", str(tmp_path / "shards")],
    )
    assert result.exit_code == 1
    assert "Error: p = 18446744073709551629 is 2**64 or more" in result.output
    assert not (tmp_path / "shards").exists()


def test_repair_rejects_overlapping_helpers_cleanly(tmp_path):
    runner, _, shards = _encode_fixture(tmp_path)
    shard_path(shards, 5).unlink()
    result = runner.invoke(
        main,
        ["repair", "--shards", str(shards), "--failed", "5", "--helpers", "1,2,3,5"],
    )
    assert result.exit_code == 1
    assert "Error" in result.output


def _set_unknown_tag(path):
    """The body layout tag, the byte after the 36-byte header, set to the unknown 0x7f."""
    blob = bytearray(path.read_bytes())
    blob[36] = 0x7F
    path.write_bytes(bytes(blob))


def test_malformed_body_blocks_only_the_reads_of_its_node(tmp_path):
    """Node 3's layout tag set to 0x7f at (8, 4, 2): the directory loads, a read of nodes 5-8 returns the file,
    every read that names node 3 raises ShardFormatError naming node_3.detc, and the default read passes over
    node 3 (nodes 1, 2, 4 and 5, checked against node 6) and records it as skipped."""
    _, data, shards = _encode_fixture(tmp_path, size=2000)
    _set_unknown_tag(shard_path(shards, 3))
    cluster = load_cluster(shards)
    assert cluster.alive() == list(range(1, 9)) and cluster.stripe_count == 100
    assert cluster.recover_file([5, 6, 7, 8]) == data and cluster.skipped == {}
    for ids in ([1, 2, 3, 4], [3, 6, 7, 8]):
        with pytest.raises(ShardFormatError, match=r"node_3\.detc: malformed symbol layout: unknown tag 127"):
            cluster.recover_file(ids)
    assert cluster.recover_file() == data
    assert cluster.skipped == {3: f"{shard_path(shards, 3)}: malformed symbol layout: unknown tag 127"}
    assert [type(cluster.contents[i]).__name__ for i in range(1, 9)] == ["StripeBatch"] * 2 + ["ShardBlob"] + ["StripeBatch"] * 5
    assert cluster.recover_file([4, 5, 6, 7]) == data


def test_repair_rebuilds_a_shard_with_a_malformed_body(tmp_path):
    """Node 3's layout tag set to 0x7f: the directory still loads, repair rebuilds node 3 byte for byte from
    nodes 1, 2, 4 and 5, and verify then passes."""
    runner, _, shards = _encode_fixture(tmp_path, size=2000)
    original = shard_path(shards, 3).read_bytes()
    _set_unknown_tag(shard_path(shards, 3))
    result = runner.invoke(main, ["repair", "--shards", str(shards), "--failed", "3"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("repaired node 3 with helpers [1, 2, 4, 5]")
    assert shard_path(shards, 3).read_bytes() == original
    result = runner.invoke(main, ["verify", "--shards", str(shards)])
    assert result.exit_code == 0, result.output
    assert result.output.endswith("verified 100 stripes across 8 shards\n")


def test_recover_passes_over_a_malformed_body_unless_its_node_is_named(tmp_path):
    """Node 3's layout tag set to 0x7f: a recover with --nodes naming node 3 names node_3.detc, exits 1 and
    writes no output file; one that leaves it out returns the file; the default recover passes over node 3,
    writes the file and names node 3 on stderr."""
    runner, data, shards = _encode_fixture(tmp_path, size=2000)
    _set_unknown_tag(shard_path(shards, 3))
    reason = f"{shard_path(shards, 3)}: malformed symbol layout: unknown tag 127"
    out = tmp_path / "out.bin"
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--nodes", "3,4,5,6", "--output", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {reason}\n"
    assert not out.exists()
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--nodes", "4,5,6,7", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == data
    out.unlink()
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == data
    assert result.stdout == "recovered 2000 bytes from the first 4 alive nodes, checked against the next\n"
    assert result.stderr == f"skipped node 3: {reason}\n"


def test_default_helpers_pass_over_a_malformed_body(tmp_path):
    """Node 3's layout tag set to 0x7f at (8, 4, 2): a default-helper repair of node 6 takes nodes 1, 2, 4 and 5,
    rebuilds node 6 byte for byte and lists node 3 on its event and on stderr; --helpers naming node 3 exits 1;
    with nodes 3-7 unreadable, too few helpers remain and the error names them."""
    runner, _, shards = _encode_fixture(tmp_path, size=2000)
    original = shard_path(shards, 6).read_bytes()
    _set_unknown_tag(shard_path(shards, 3))
    cluster = load_cluster(shards)
    cluster.fail_nodes([6])
    event = cluster.repair("single", [6])
    assert (event.helpers, event.skipped) == ((1, 2, 4, 5), (3,))
    shard_path(shards, 6).unlink()
    result = runner.invoke(main, ["repair", "--shards", str(shards), "--failed", "6", "--helpers", "1,2,3,4"])
    assert result.exit_code == 1 and "node_3.detc: malformed symbol layout: unknown tag 127" in result.output
    assert not shard_path(shards, 6).exists()
    result = runner.invoke(main, ["repair", "--shards", str(shards), "--failed", "6"])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("repaired node 6 with helpers [1, 2, 4, 5]")
    assert result.stderr == f"skipped node 3: {shard_path(shards, 3)}: malformed symbol layout: unknown tag 127\n"
    assert shard_path(shards, 6).read_bytes() == original
    for node in (4, 5, 6, 7):
        _set_unknown_tag(shard_path(shards, node))
    cluster = load_cluster(shards)
    with pytest.raises(NotEnoughHelpers, match=r"need 4 alive nodes, only 3 available \(unreadable: \[3, 4, 5, 6, 7\]\)"):
        cluster.recover_file()


def test_each_call_decodes_only_the_shards_it_reads(tmp_path, monkeypatch):
    """Shard bodies decoded (unpack_symbols calls) at (8, 4, 2): none by load_cluster, 4 by an explicit read,
    5 by the default read (the first d and the check node), 4 by a single repair (its helpers), 8 by verify."""
    runner, _, shards = _encode_fixture(tmp_path, size=2000)
    decoded = []
    real = detcode.cluster.unpack_symbols
    monkeypatch.setattr(detcode.cluster, "unpack_symbols", lambda blob, p: decoded.append(p) or real(blob, p))
    load_cluster(shards)
    assert decoded == []
    out = str(tmp_path / "out.bin")
    for args, count in (
        (["recover", "--nodes", "2,4,6,8", "--output", out], 4),
        (["recover", "--output", out], 5),
        (["repair", "--failed", "3"], 4),
        (["verify"], 8),
    ):
        decoded.clear()
        result = runner.invoke(main, [args[0], "--shards", str(shards), *args[1:]])
        assert result.exit_code == 0, result.output
        assert len(decoded) == count, args


def test_recover_refuses_an_unknown_layout_tag_only_where_it_reads(tmp_path):
    """A seeded 64 KiB file at (8, 4, 2): with node 7's layout tag set to 0x7f, a read of nodes 1-4 still
    returns the file; once node 5's tag is set too, a read naming node 5 exits 1 on the unknown tag and writes
    no output file, and the default read checks nodes 1-4 against node 6 instead and names node 5 on stderr."""
    runner, data, shards = _encode_fixture(tmp_path, data=random.Random(64).randbytes(65536))
    _set_unknown_tag(shard_path(shards, 7))
    out = tmp_path / "out.bin"
    _ok(runner, "recover", "--shards", shards, "--nodes", "1,2,3,4", "--output", out)
    assert out.read_bytes() == data
    _set_unknown_tag(shard_path(shards, 5))
    out3 = tmp_path / "out3.bin"
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--nodes", "1,2,3,5", "--output", str(out3)])
    assert result.exit_code == 1
    assert "malformed symbol layout: unknown tag 127" in result.output
    assert not out3.exists()
    result = runner.invoke(main, ["recover", "--shards", str(shards), "--output", str(out3)])
    assert result.exit_code == 0, result.output
    assert out3.read_bytes() == data
    assert result.stderr.startswith("skipped node 5: ") and "node_7" not in result.stderr


def test_64kib_repairs_then_verify_blames_a_flipped_low_bit(tmp_path):
    """A seeded 64 KiB file at (8, 4, 2). Nodes 2 and 5 are rebuilt jointly; recover reads nodes 2, 5, 7 and 8,
    then the checked default (the first d alive, checked against the next). A single repair of node 3 from
    helpers 4, 6, 7 and 8 runs the decode operator (many stripes), and verify passes. Once the low bit of its
    last symbol's low byte (the last byte of an escaped GF(257) body) is flipped, verify exits 1 and blames
    node 1 alone (inside the first d alive) on a copy, then node 6."""
    runner, data, shards = _encode_fixture(tmp_path, data=random.Random(64).randbytes(65536))
    out = tmp_path / "out.bin"
    _repair_verify_recover(runner, shards, data, out, "joint", (2, 5))
    _ok(runner, "recover", "--shards", shards, "--nodes", "2,5,7,8", "--output", out)
    assert out.read_bytes() == data
    original = shard_path(shards, 3).read_bytes()
    shard_path(shards, 3).unlink()
    _ok(runner, "repair", "--shards", shards, "--failed", "3", "--helpers", "4,6,7,8")
    assert shard_path(shards, 3).read_bytes() == original
    assert "MISMATCH" not in _ok(runner, "verify", "--shards", shards)
    for directory, node in ((shutil.copytree(shards, tmp_path / "shards_node1"), 1), (shards, 6)):
        path = shard_path(directory, node)
        blob = bytearray(path.read_bytes())
        assert blob[36] == 1  # the escaped layout's tag
        blob[-1] ^= 1
        path.write_bytes(bytes(blob))
        result = runner.invoke(main, ["verify", "--shards", str(directory)])
        assert result.exit_code == 1, result.output
        assert [line for line in result.output.splitlines() if "MISMATCH" in line] == [f"node {node}: MISMATCH"]


@pytest.mark.parametrize(
    "size, seed, n, d, m, prime, repairs",
    [
        (900, 900, 16, 10, 3, None, [("centralized", (2, 7, 11)), ("naive", (4, 15))]),
        (5000, 5000, 8, 4, 1, None, [("joint", (3, 6))]),
        (5000, 5000, 8, 4, 4, None, [("joint", (3, 6))]),
        (300000, 300, 8, 4, 2, None, [("joint", (1, 6))]),
        (5000, 5000, 8, 4, 2, 263, [("joint", (1, 6))]),
        (5000, 5000, 8, 4, 2, 65537, [("joint", (1, 6))]),
    ],
    ids=["one-stripe-16-10-3", "m=1", "m=d", "300KB", "p=263", "p=65537"],
)
def test_seeded_file_survives_repair_verify_and_recover(tmp_path, size, seed, n, d, m, prime, repairs):
    """Each repair rebuilds its shards byte for byte, then verify and the default recover pass.

    A 900-byte file at (16, 10, 3) is one stripe, too few for a decode operator: its centralized and naive
    repairs run the factored decode. (8, 4, 1) and (8, 4, 4) are the edges of the sign table: readout labels of
    one member, and m = d, with no parity groups and no shared cells. A 300000-byte file at (8, 4, 2) has rows
    of 90000 symbols, many kernel windows plus a tail. Encoded at --prime 263 the file runs the per-entry
    reduction instead of the GF(257) fold; at --prime 65537 its 3-byte symbols sit in 4-byte array items (the
    shard codec widens and narrows them) and the kernel's slots are 8 bytes. Both keep the fixed-width body,
    with no layout tag: 36 header bytes, then 2 or 3 bytes per symbol."""
    runner, data, shards = _encode_fixture(tmp_path, n=n, d=d, m=m, prime=prime, data=random.Random(seed).randbytes(size))
    if prime is not None:
        path = shard_path(shards, 1)
        width = {263: 2, 65537: 3}[prime]
        assert len(path.read_bytes()) == 36 + width * len(read_shard(path).stripes.symbols)
    for mode, failed in repairs:
        _repair_verify_recover(runner, shards, data, tmp_path / "out.bin", mode, failed)


@pytest.mark.parametrize("command", ["repair", "multirepair"])
def test_an_empty_helper_list_is_refused_not_read_as_the_default(tmp_path, command):
    """--helpers "" names no helper: refused as recover --nodes "" is, with no shard written for node 5."""
    runner, _, shards = _encode_fixture(tmp_path)
    shard_path(shards, 5).unlink()
    result = runner.invoke(main, [command, "--shards", str(shards), "--failed", "5", "--helpers", ""])
    assert result.exit_code == 1
    assert result.output == "Error: need exactly 4 distinct node ids, got []\n"
    assert not shard_path(shards, 5).exists()


@pytest.mark.parametrize(
    "m, e_max, error",
    [
        ("5", "2", "mode must satisfy 1 <= m <= d, got m=5, d=4"),
        ("2", "0", "empty failure-count range range(1, 1): need at least one e >= 1"),
        ("2", "-2", "empty failure-count range range(1, -1): need at least one e >= 1"),
    ],
    ids=["m>d", "emax=0", "emax<0"],
)
def test_bandwidth_refuses_bad_input_before_the_header(m, e_max, error):
    result = CliRunner().invoke(main, ["bandwidth", "--d", "4", "--m", m, "--emax", e_max])
    assert result.exit_code == 1
    assert result.output == f"Error: {error}\n"


@pytest.mark.parametrize(
    "args",
    [["bandwidth", "--d", "4", "--m", "2", "--emax", "2"], ["capacity", "--d", "4", "--m", "2", "--nmax", "6"]],
    ids=["bandwidth", "capacity"],
)
def test_curve_commands_take_no_format_option(args):
    """Both curves print CSV only, so neither takes a --format option."""
    result = CliRunner().invoke(main, [*args, "--format", "csv"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--format" in result.output
