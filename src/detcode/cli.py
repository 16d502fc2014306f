"""Command-line front-end: encode files to shards, recover, repair, report curves."""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from pathlib import Path

import click

from .cluster import Cluster, load_cluster, shard_path, stray_shards, write_all_shards, write_shard
from .code import CodeConfig, ParityViolation, recover_data
from .field import next_prime_at_least
from .multirepair import REPAIR_MODES, bandwidth_table


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {text!r}")


_UNCHECKED = "not cross-checked: no spare shard is alive"


def _report_skipped(cluster: Cluster) -> None:
    """Name on stderr every node a default pick passed over, and why."""
    for node_id, reason in sorted(cluster.skipped.items()):
        click.echo(f"skipped node {node_id}: {reason}", err=True)


def _rational(value) -> str:
    return str(Fraction(value))


def _friendly_errors(fn):
    """Present domain errors as one-line messages instead of tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ZeroDivisionError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


@click.group()
def main():
    """Erasure-coded storage with bandwidth-efficient exact node repair."""


@main.command(name="encode")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--n", "n", required=True, type=int, help="Total storage nodes.")
@click.option("--d", "d", required=True, type=int, help="Helpers per repair (= recovery threshold).")
@click.option("--m", "m", required=True, type=int, help="Trade-off mode, 1 (min bandwidth) .. d (min storage).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path))
@_friendly_errors
def encode_cmd(input_path: Path, n: int, d: int, m: int, out_dir: Path):
    """Encode a file into n shard files, one per node, over GF(p) for the smallest prime p >= max(257, n + 1).

    Refuses, writing nothing, an --out that holds a shard file this encode would not overwrite.
    """
    config = CodeConfig(n=n, d=d, m=m, p=next_prime_at_least(max(257, n + 1)))
    if stray := [path.name for path in stray_shards(out_dir, n)]:
        raise ValueError(f"{out_dir} holds shard files that this encode would not overwrite: {', '.join(stray)}")
    data = input_path.read_bytes()
    cluster = Cluster.from_file(data, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = write_all_shards(out_dir, cluster)
    click.echo(
        f"encoded {len(data)} bytes into {len(paths)} shards "
        f"({cluster.stripe_count} stripes, alpha={config.alpha}, beta={config.beta}, "
        f"F={config.file_symbols}, p={config.p})"
    )


@main.command(name="recover")
@click.option("--shards", "shard_dir", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--nodes", "nodes", default=None, help="Comma-separated ids of the d nodes to read (default: the first d alive whose shards decode, checked against the next).")
@click.option("--output", "output_path", required=True, type=click.Path(dir_okay=False, path_type=Path))
@_friendly_errors
def recover_cmd(shard_dir: Path, nodes: str | None, output_path: Path):
    """Rebuild the original file from any d shards.

    Without --nodes the first d alive are read and checked against the next, passing over (and naming on stderr)
    any whose shard body does not decode; an explicit --nodes read refuses such a node and is checked by parity only.
    """
    ids = None if nodes is None else _parse_ids(nodes)
    cluster = load_cluster(shard_dir)
    data = cluster.recover_file(ids)
    output_path.write_bytes(data)
    _report_skipped(cluster)
    check = "checked against the next" if len(cluster.alive()) - len(cluster.skipped) > cluster.config.d else _UNCHECKED
    read = f"nodes {list(ids)}" if ids is not None else f"the first {cluster.config.d} alive nodes, {check}"
    click.echo(f"recovered {len(data)} bytes from {read}")


@main.command(name="repair")
@click.option("--shards", "shard_dir", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--failed", "failed", required=True, help="Comma-separated failed node ids.")
@click.option("--mode", "mode", type=click.Choice(REPAIR_MODES[1:]), default="joint", show_default=True)
@click.option("--helpers", "helpers", default=None, help="Comma-separated helper ids (default: the first d alive whose shards decode).")
@_friendly_errors
def repair_cmd(shard_dir: Path, failed: str, mode: str, helpers: str | None):
    """Regenerate one or more nodes' shards from d helpers; one node is joint repair at e = 1."""
    failed_ids = _parse_ids(failed)
    cluster = load_cluster(shard_dir)
    cluster.fail_nodes(failed_ids)
    event = cluster.repair(mode, failed_ids, None if helpers is None else _parse_ids(helpers))
    for f in failed_ids:
        write_shard(shard_path(shard_dir, f), cluster.config, f, cluster.node_content(f), cluster.original_len)
    _report_skipped(cluster)
    per_helper = ", ".join(f"{h}:{v}" for h, v in sorted(event.symbols_by_helper.items()))
    click.echo(
        f"repaired nodes {list(failed_ids)} in {mode} mode with helpers {list(event.helpers)}; "
        f"symbols per helper ({event.stripes} stripes): {per_helper}; total {event.total}"
    )


@main.command(name="verify")
@click.option("--shards", "shard_dir", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@_friendly_errors
def verify_cmd(shard_dir: Path):
    """Cross-check every shard against data recovered from d of them.

    Each rotation of the alive list is one recover_data read: its first d
    decode, every other shard is checked against its re-encoding. A corrupt
    shard among the first d would shift the blame onto honest ones, so a
    rotation failing parity is skipped and the fewest mismatches win. With
    no spare shard alive nothing is cross-checked, and verify says so.
    """
    cluster = load_cluster(shard_dir)
    alive = cluster.alive()
    best: set[int] | None = None
    for k in range(len(alive)):
        ids = alive[k:] + alive[:k]
        try:
            recover_data([cluster.node_content(i) for i in ids], ids, cluster.encoder, cluster.config.m)
            bad = set()
        except ParityViolation as exc:
            if not exc.nodes:
                continue
            bad = set(exc.nodes)
        if best is None or len(bad) < len(best):
            best = bad
        if not best:
            break
    if best is None:
        click.echo("every reference subset is internally inconsistent")
        sys.exit(1)
    spare = len(alive) > cluster.config.d
    for node_id in alive:
        click.echo(f"node {node_id}: {'MISMATCH' if node_id in best else 'ok' if spare else 'not cross-checked'}")
    missing = sorted(set(range(1, cluster.config.n + 1)) - set(alive))
    if missing:
        click.echo(f"missing shards: {missing}")
    if best:
        sys.exit(1)
    stripes = f"{cluster.stripe_count} stripes across {len(alive)} shards"
    click.echo(f"verified {stripes}" if spare else f"read {stripes}, {_UNCHECKED}")


@main.command(name="bandwidth")
@click.option("--d", "d", required=True, type=int)
@click.option("--m", "m", required=True, type=int)
@click.option("--emax", "e_max", required=True, type=int)
@click.option("--mode", "mode", type=click.Choice([*REPAIR_MODES[1:], "all"]), default="all", show_default=True)
@_friendly_errors
def bandwidth_cmd(d: int, m: int, e_max: int, mode: str):
    """Per-helper repair bandwidth vs. number of failures, exact rationals."""
    rows = bandwidth_table(d, m, e_max, mode)
    click.echo("e,mode,symbols,normalized,decimal")
    for e, kind, symbols, normalized in rows:
        click.echo(
            f"{e},{kind},{_rational(symbols)},{_rational(normalized)},{float(normalized):.10g}"
        )


@main.command(name="capacity")
@click.option("--d", "d", required=True, type=int)
@click.option("--m", "m", required=True, type=int)
@click.option("--nmax", "n_max", required=True, type=int)
@_friendly_errors
def capacity_cmd(d: int, m: int, n_max: int):
    """Storage capacity F = m * C(d+1, m+1) for every node count from d+1 to nmax.

    F is the same for every n; d, m and nmax are checked as one code of nmax
    nodes over the smallest prime above nmax.
    """
    n_values = range(d + 1, n_max + 1)
    if not n_values:
        raise ValueError(f"empty node-count range {n_values!r}: need at least one n > d = {d}")
    config = CodeConfig(n=n_max, d=d, m=m, p=next_prime_at_least(n_max + 1))
    click.echo("n,F")
    for n in n_values:
        click.echo(f"{n},{config.file_symbols}")


if __name__ == "__main__":
    main()
