"""The benchmark's three workloads and the end-to-end metrics they report.

Each workload is a series of identical rounds: the seed draws the bytes,
while the make-up of a round (sizes, grid points, modes, failed and helper
nodes, read sets) is fixed, so every run does the same work per round and
the same share of its operations fails. Each round runs every operation
type (put, get, and repair in all four modes), because every workload
reports every end-to-end metric; the workloads differ in object size, code
parameters and mix, so each one is dominated by a different layer.

Only the package's public entry points are called: ``Cluster.from_file``,
``Cluster.fail_nodes``, ``Cluster.repair``, ``Cluster.recover_file``,
``write_all_shards``, ``write_shard`` and ``load_cluster``. Functions are
looked up on the package at each call, so the traced run sees the calls.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

import detcode
from detcode import Cluster, CodeConfig, shard_path

from calib import Clock
from checks import CheckFailed, check_bytes, check_repaired, check_symbols

P = 257
MODES = ("single", "naive", "joint", "centralized")
OP_KINDS = ("put", "get", "repair", "scrub_get")

# name, unit, better, bound: the bound is the share of the parent's median by
# which a metric may worsen. Bounds of timed metrics are at least three times
# the spread measured between runs (bulk repairs give two samples per mode
# and run, and small objects are timed in tens of milliseconds); counts fixed
# by the code's parameters get the smallest bound, so that one extra symbol
# or byte per stripe is caught.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("put_MBps", "MB/s", "higher", 0.2),
    ("get_MBps", "MB/s", "higher", 0.2),
    ("repair_single_MBps", "MB/s", "higher", 0.2),
    ("repair_naive_MBps", "MB/s", "higher", 0.2),
    ("repair_joint_MBps", "MB/s", "higher", 0.2),
    ("repair_centralized_MBps", "MB/s", "higher", 0.2),
    ("object_put_ms", "ms", "lower", 0.22),
    ("object_repair_ms", "ms", "lower", 0.2),
    ("object_get_ms", "ms", "lower", 0.2),
    ("disk_bytes_per_byte", "ratio", "lower", 0.01),
    ("helper_symbols_single", "symbols", "lower", 0.01),
    ("helper_symbols_joint", "symbols", "lower", 0.01),
    ("helper_symbols_centralized", "symbols", "lower", 0.01),
    ("peak_rss_MB", "MB", "lower", 0.1),
)


class Stats:
    """Samples and operation counts of one run."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.puts = []  # (file bytes, Timing)
        self.gets = []
        self.repairs = {mode: [] for mode in MODES}
        self.file_bytes = self.shard_bytes = 0  # over all puts
        self.symbols = {}  # mode -> largest symbols per stripe seen
        self.attempted = Counter()
        self.failed = Counter()
        self.correct = True

    def check(self, fn, *args) -> None:
        """Run one output check; a wrong answer makes the run incorrect."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)

    def record_symbols(self, event, config: CodeConfig) -> None:
        self.check(
            check_symbols, event.mode, config.d, config.m, event.failed,
            event.helpers, event.stripes, event.symbols_by_helper,
        )
        if event.mode == "centralized":
            value = event.total / (config.d * event.stripes)
        elif event.mode in ("single", "joint"):
            value = max(event.symbols_by_helper.values()) / event.stripes
        else:
            return
        self.symbols[event.mode] = max(self.symbols.get(event.mode, 0), value)

    def metrics(self) -> dict:
        timed = {"put": self.puts, "get": self.gets, **{f"{mode} repair": r for mode, r in self.repairs.items()}}
        missing = [kind for kind, samples in timed.items() if not samples]
        if missing:
            raise SystemExit(f"error: no {', '.join(missing)} succeeded, so there is nothing to time")

        def rate(samples):
            return sum(b for b, _ in samples) / sum(t.seconds for _, t in samples) / 1e6

        def median_ms(samples):
            return statistics.median(t.seconds for _, t in samples) * 1e3

        out = {"put_MBps": rate(self.puts), "get_MBps": rate(self.gets)}
        for mode in MODES:
            out[f"repair_{mode}_MBps"] = rate(self.repairs[mode])
        out["object_put_ms"] = median_ms(self.puts)
        out["object_repair_ms"] = median_ms([r for mode in MODES for r in self.repairs[mode]])
        out["object_get_ms"] = median_ms(self.gets)
        out["disk_bytes_per_byte"] = self.shard_bytes / self.file_bytes
        for mode in ("single", "joint", "centralized"):
            out[f"helper_symbols_{mode}"] = self.symbols[mode]
        return out

    def timings(self) -> list:
        """Every timed operation so far."""
        return [t for _, t in self.puts + self.gets] + [t for r in self.repairs.values() for _, t in r]


class Lifecycle:
    """Counts the operations of one object; those left when it fails count as failed."""

    def __init__(self, stats: Stats, kinds):
        self.stats = stats
        self.pending = list(kinds)
        for kind in kinds:
            stats.attempted[kind] += 1

    def done(self, kind: str) -> None:
        self.pending.remove(kind)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
        for kind in self.pending:
            self.stats.failed[kind] += 1
        return True


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _put(stats: Stats, life: Lifecycle, data: bytes, config: CodeConfig, directory: Path) -> Cluster:
    def put():
        cluster = Cluster.from_file(data, config)
        return cluster, detcode.write_all_shards(directory, cluster)

    (cluster, paths), timing = stats.clock.time(put)
    stats.puts.append((len(data), timing))
    stats.file_bytes += len(data)
    stats.shard_bytes += sum(os.path.getsize(p) for p in paths)
    life.done("put")
    return cluster


def _disk_repair(stats, life, mode, failed, helpers, saved, directory: Path, nbytes: int) -> None:
    """CLI-style repair: load the shards, repair, write each rebuilt shard."""
    for f in failed:
        os.remove(shard_path(directory, f))

    def repair():
        cluster = detcode.load_cluster(directory)
        event = cluster.repair(mode, failed, helpers)
        for f in failed:
            detcode.write_shard(shard_path(directory, f), cluster.config, f, cluster.contents[f], cluster.original_len)
        return cluster, event

    (cluster, event), timing = stats.clock.time(repair)
    stats.repairs[mode].append((nbytes, timing))
    for f in failed:
        stats.check(check_repaired, cluster.contents[f], saved[f], f)
    stats.record_symbols(event, cluster.config)
    life.done("repair")


def _disk_get(stats, life, ids, directory: Path, data: bytes) -> None:
    out, timing = stats.clock.time(lambda: detcode.load_cluster(directory).recover_file(ids))
    stats.gets.append((len(data), timing))
    stats.check(check_bytes, out, data, f"get from {ids or 'default nodes'}")
    life.done("get")


class BulkRW:
    """One 64 KiB file at (8, 4, 2): put, six reads, four one-node repairs per round.

    Reads rotate over the all-parity set {5, 6, 7, 8}, the mixed set
    {2, 3, 5, 8} and the default first-d-alive choice, and go through the
    shard files as the CLI does. Each repair rebuilds one node of the next
    read's set, so that read also checks the rewritten shard.
    """

    config = CodeConfig(n=8, d=4, m=2, p=P)
    size = 64 * 1024
    kinds = ("put",) + ("get",) * 6 + ("repair",) * 4
    reads = ((5, 6, 7, 8), (2, 3, 5, 8), None)
    # (failed node, helpers) of the repair before each of the first four reads
    repairs = ((6, (1, 2, 4, 7)), (3, (1, 5, 6, 8)), (1, (2, 4, 5, 7)), (7, (1, 3, 6, 8)))

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.data = random.Random(f"bulk-rw:{seed}").randbytes(self.size)

    def round(self, stats: Stats) -> None:
        directory = _fresh_dir(self.workdir / "bulk-rw")
        with Lifecycle(stats, self.kinds) as life:
            cluster = _put(stats, life, self.data, self.config, directory)
            for k in range(6):
                if k < len(MODES):
                    f, helpers = self.repairs[k]
                    saved = {f: cluster.contents[f]}
                    _disk_repair(stats, life, MODES[k], [f], list(helpers), saved, directory, self.size)
                _disk_get(stats, life, self.reads[k % 3], directory, self.data)
        shutil.rmtree(directory, ignore_errors=True)


class BulkRepair:
    """One 100 KiB file at (12, 6, 3) held in memory, repaired in all four modes per round.

    Nodes 2, 7 and 11 fail (node 2 alone in single mode) and nodes 1, 4, 5,
    8, 9 and 12 help, in every mode. After each repair the file is read
    through the repaired nodes.
    """

    config = CodeConfig(n=12, d=6, m=3, p=P)
    size = 100 * 1024
    kinds = ("put",) + ("repair", "get") * 4
    failed3 = [2, 7, 11]
    helpers = [1, 4, 5, 8, 9, 12]
    fillers = (3, 6, 10, 12, 1, 4)  # the rest of each read set

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.data = random.Random(f"bulk-repair:{seed}").randbytes(self.size)

    def round(self, stats: Stats) -> None:
        d = self.config.d
        directory = _fresh_dir(self.workdir / "bulk-repair")
        with Lifecycle(stats, self.kinds) as life:
            cluster = _put(stats, life, self.data, self.config, directory)
            for mode in MODES:
                failed = self.failed3[:1] if mode == "single" else self.failed3
                saved = {f: cluster.contents[f] for f in failed}
                cluster.fail_nodes(failed)
                event, timing = stats.clock.time(lambda: cluster.repair(mode, failed, self.helpers))
                stats.repairs[mode].append((self.size, timing))
                for f in failed:
                    stats.check(check_repaired, cluster.contents[f], saved[f], f)
                stats.record_symbols(event, self.config)
                life.done("repair")

                ids = sorted(failed + [i for i in self.fillers if i not in failed][: d - len(failed)])
                out, timing = stats.clock.time(lambda: cluster.recover_file(ids))
                stats.gets.append((self.size, timing))
                stats.check(check_bytes, out, self.data, f"get through repaired nodes {failed}")
                life.done("get")
        shutil.rmtree(directory, ignore_errors=True)


GRID = ((16, 10, 3), (8, 4, 1), (8, 4, 4))
COMBOS = (("single", 1),) + tuple((mode, e) for mode in MODES[1:] for e in (1, 2, 3))
SIZES = tuple(512 + (4096 - 512) * i // 9 for i in range(10))
SCRUB_SIZE = 2048


def _small_plan():
    """Every (grid point, mode, failure count) once, with its size and node choices.

    Node choices are drawn once from a fixed generator, so they differ from
    object to object but not from seed to seed: every round then costs the
    same, and the seed only draws the bytes.
    """
    rng = random.Random("small-objects-plan")
    plan = []
    for k, (n, d, m) in enumerate(GRID):
        for j, (mode, e) in enumerate(COMBOS):
            nodes = range(1, n + 1)
            failed = sorted(rng.sample(nodes, e))
            alive = [i for i in nodes if i not in failed]
            helpers = sorted(rng.sample(alive, d))
            reads = sorted(failed + rng.sample(alive, d - e))
            plan.append(((n, d, m), SIZES[(j + 3 * k) % len(SIZES)], mode, failed, helpers, reads))
    return tuple(plan)


class SmallObjects:
    """Thirty objects of 0.5-4 KiB per round, each put, damaged, repaired and read on disk.

    A round holds every (grid point, mode, failure count) once, with sizes
    laid along a fixed ladder and fixed node choices; the seed draws the
    bytes. Each round ends with one scrub-get per grid
    point on a fixed object: one direct symbol of node 1's stripe 0 is
    altered on disk and the object is read with the default node choice.
    """

    kinds = ("put", "repair", "get")
    plan = _small_plan()

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"small-objects:{seed}")
        self.workdir = workdir
        self.scrubs = []
        for n, d, m in GRID:
            # fixed object: the scrub-get's outcome must not depend on the seed
            config = CodeConfig(n=n, d=d, m=m, p=P)
            data = random.Random(f"scrub:{n}:{d}:{m}").randbytes(SCRUB_SIZE)
            template = _fresh_dir(workdir / f"scrub-{n}-{d}-{m}")
            detcode.write_all_shards(template, Cluster.from_file(data, config))
            self.scrubs.append((template, data, config))

    def round(self, stats: Stats) -> None:
        directory = self.workdir / "object"
        for (n, d, m), size, mode, failed, helpers, reads in self.plan:
            data = self.rng.randbytes(size)
            _fresh_dir(directory)
            with Lifecycle(stats, self.kinds) as life:
                cluster = _put(stats, life, data, CodeConfig(n=n, d=d, m=m, p=P), directory)
                saved = {f: cluster.contents[f] for f in failed}
                _disk_repair(stats, life, mode, failed, helpers, saved, directory, size)
                _disk_get(stats, life, reads, directory, data)
        for template, data, config in self.scrubs:
            self._scrub_get(stats, template, data, config, directory)
        shutil.rmtree(directory, ignore_errors=True)

    @staticmethod
    def _scrub_get(stats: Stats, template: Path, data: bytes, config: CodeConfig, directory: Path) -> None:
        """Read after silent damage: right bytes or a declared error pass, other bytes fail."""
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(template, directory)
        path = shard_path(directory, 1)
        blob = bytearray(path.read_bytes())
        # Shard format v1 ends with the stripes, alpha little-endian two-byte
        # GF(257) symbols each. The first symbol of node 1 (systematic) is
        # the direct symbol at column {1..m} of stripe 0, which holds byte 0;
        # flipping its low bit keeps it a byte, so it stays in range.
        stripes = -(-len(data) // config.file_symbols)
        blob[len(blob) - stripes * config.alpha * 2] ^= 0x01
        path.write_bytes(bytes(blob))
        stats.attempted["scrub_get"] += 1
        try:
            out = detcode.load_cluster(directory).recover_file()
        except DECLARED_ERRORS:
            return
        if out != data:
            stats.failed["scrub_get"] += 1


DECLARED_ERRORS = (ValueError, ZeroDivisionError) + tuple(
    obj for obj in vars(detcode).values() if isinstance(obj, type) and issubclass(obj, Exception)
)

WORKLOADS = {"bulk-rw": BulkRW, "bulk-repair": BulkRepair, "small-objects": SmallObjects}
