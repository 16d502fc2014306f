"""Benchmark of the detcode storage system: one workload per run.

    python3 perfbench/run.py --workload bulk-rw --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec

A run sets up the workload, runs whole rounds of it until ``--seconds``
have passed, checks every output, and prints each metric by name with its
unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one untraced round
is timed, then traced rounds report the per-layer split and the tracing
overhead. ``--workload all`` runs every workload, each in its own process.
``--write-spec`` rewrites BENCHMARK.json from the definitions here.

The package is imported from ``src/`` of the checkout this file sits in; a
checkout without it is an error (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
RUN_SECONDS = 20

WORKLOAD_WHY = {
    "bulk-rw": "a 64 KiB file at (8,4,2): per-stripe encode and decode kernels in field and code dominate, read-heavy",
    "bulk-repair": "a 100 KiB file at (12,6,3) in memory, three failures: helper transmit, decompression and repair decode dominate",
    "small-objects": "0.5-4 KiB objects on three grid points through shard files: per-object set-up and operator building dominate",
}


def _import_package():
    if not (SRC / "detcode" / "__init__.py").is_file():
        print(f"error: no detcode package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import detcode

    if Path(detcode.__file__).resolve().parent != (SRC / "detcode").resolve():
        print(f"error: imported detcode from {detcode.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _setup(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed, workdir)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median calibrated set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _probe_one_setup(workload: str, seed: int) -> None:
    """Import the package and prepare the workload, once, and print the calibrated time."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        _, timing = Clock().time(lambda: (_import_package(), _setup(workload, seed, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(timing.seconds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _print_ops(stats, kinds) -> None:
    for kind in kinds:
        if stats.attempted[kind]:
            print(f"ops {kind}: attempted {stats.attempted[kind]} failed {stats.failed[kind]}")


def _result(stats, metrics: dict, units: dict) -> dict:
    return {
        "correct": stats.correct,
        "attempted": sum(stats.attempted.values()),
        "failed": sum(stats.failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_one(args) -> int:
    _import_package()
    from checks import self_test
    from spans import Tracer, per_layer_names
    from workloads import END_TO_END, OP_KINDS, Stats

    self_test()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
        workload = _setup(args.workload, args.seed, workdir)
        stats = Stats(Clock())
        if args.trace:
            # one untraced round, then traced rounds; the overhead compares
            # the calibrated time of the timed operations per round
            workload.round(stats)
            untraced = sum(t.seconds for t in stats.timings())
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
            rounds = 0
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                workload.round(stats)
                rounds += 1
                tracer.end_round()
            tracer.enabled = False
            _print_ops(stats, OP_KINDS)
            traced = (sum(t.seconds for t in stats.timings()) - untraced) / rounds
            metrics = tracer.metrics(rounds, traced / untraced)
            units = {name: unit for name, unit, _ in per_layer_names()}
            print(f"traced rounds: {rounds}; timed operations per round: untraced {untraced:.3f} s, "
                  f"traced {traced:.3f} s (calibrated)")
            if tracer.absent:
                print(f"absent callables (reported as 0): {', '.join(tracer.absent)}")
        else:
            start = time.perf_counter()
            workload.round(stats)
            # memory through set-up and one round: later rounds add cache
            # entries at a pace set by the speed of the program
            peak_rss_mb = _peak_rss_mb()
            rounds = 1
            while time.perf_counter() - start < args.seconds:
                workload.round(stats)
                rounds += 1
            _print_ops(stats, OP_KINDS)
            metrics = stats.metrics()
            metrics["setup_s"] = setup_s
            metrics["peak_rss_MB"] = peak_rss_mb
            units = {name: unit for name, unit, _, _ in END_TO_END}
            timings = stats.timings()
            speed = sum(t.seconds for t in timings) / sum(t.wall for t in timings)
            print(f"rounds: {rounds}; calibrated / wall time of the timed operations: {speed:.3f}; "
                  f"peak RSS after all rounds {_peak_rss_mb():.2f} MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(_result(stats, metrics, units)), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    from_code = 0
    for workload in WORKLOAD_WHY:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900,
        )
        from_code = from_code or proc.returncode
    return from_code


def write_spec() -> int:
    sys.path.insert(0, str(SRC))
    from spans import per_layer_names
    from workloads import END_TO_END

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in per_layer_names()],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _probe_one_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
