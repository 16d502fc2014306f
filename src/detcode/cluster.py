"""Deterministic in-process storage simulator and shard persistence.

The simulator stores nodes and commits repairs: :meth:`Cluster.repair`
checks the node state and chooses the helpers; every repair-mode rule (the
modes, their plans, the bounds and their table) is in :mod:`detcode.multirepair`.

Byte files map one byte per field element (so p >= 257), zero-padded up to
a whole number of stripes with the true length recorded. A node's content
is its plane-major :class:`~detcode.code.StripeBatch`, one flat
machine-word array in shard body order, coded in one call per object.
Shards go to disk as ``node_<id>.detc`` files, replaced atomically; the
generator matrix is a pure function of (n, d, p), so independently written
shards stay mutually consistent.

A shard file (version 3) is a 36-byte header, then the body: the node's
symbols plane-major (symbol c of every stripe, then symbol c + 1) in the
symbol codec that repair payloads share
(:func:`detcode.field.pack_symbols`, :func:`detcode.field.unpack_symbols`),
about 1.01 bytes per symbol at p = 257 (one low byte per symbol, plus the
positions of the symbols equal to 256) and the fixed width at any other p.
Reading a shard checks its header, then decodes the body and compares its
symbol count with the header's stripes; a version-1 shard (2-byte GF(257)
symbols) and a version-2 shard (stripe after stripe) are refused. Loading a
directory (:func:`load_cluster`) checks every header and decodes no body: a
node's body is decoded when a call first reads that node
(:meth:`Cluster.node_content`), so a malformed body is refused by the calls
that name its node and blocks no other, and a default read or repair passes
over it to the next alive node and records it (:attr:`Cluster.skipped`,
:attr:`RepairEvent.skipped`). A node's file whose header does not parse is
loaded and refused the same way, with the header's error. A read's bytes
are the low byte plane of the recovered symbols (:func:`assemble_file`),
never ``bytes()`` of the array, which is its raw machine buffer.
"""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .code import (
    CodeConfig,
    EncoderMatrix,
    MessageMatrix,
    StripeBatch,
    build_encoder,
    build_message_matrix,
    checked_ids,
    encode,
    recover_data,
)
from .field import pack_symbols, symbol_array, unpack_symbols, widen
from .multirepair import check_request, repair_nodes, within_bound


class NotEnoughHelpers(ValueError):
    """Fewer alive non-failed nodes than a repair needs."""


class FieldTooSmallForBytes(ValueError):
    """Byte ingestion needs p >= 257."""


class ShardFormatError(ValueError):
    """Shard file is malformed or inconsistent."""


def ingest_file(data: bytes, config: CodeConfig) -> tuple[MessageMatrix, int]:
    """Lay bytes out as one message matrix of whole stripes; returns (message, true length)."""
    if config.p < 257:
        raise FieldTooSmallForBytes(f"byte ingestion needs p >= 257, got {config.p}")
    padded = bytes(data) + bytes(-len(data) % config.file_symbols)  # bytes: build_message_matrix skips their reduction
    return build_message_matrix(padded, config.d, config.m, config.field), len(data)


def assemble_file(symbols, original_len: int) -> bytes:
    """The recovered source symbols, stripe after stripe, as bytes without the padding.

    The bytes are the symbols' low byte plane, one slice of the array's
    buffer (``tobytes()[::itemsize]``); they are the file only if every symbol
    is below 256, which holds exactly where widening them back gives the
    symbols again: one C-level comparison, about ten times faster than
    ``max`` over the array. ``bytes()`` of the array would be its raw
    machine buffer instead.
    """
    if original_len < 0:
        raise ValueError(f"file length must be at least 0, got {original_len}")
    if len(symbols) < original_len:
        raise ValueError("fewer symbols than the recorded file length")
    corrupt = "recovered symbol exceeds a byte; data is corrupt"
    try:
        head = symbol_array(symbols[:original_len])
    except (OverflowError, TypeError):  # outside [0, 2**64), or not an int
        raise ValueError(corrupt) from None
    data = head.tobytes()[:: head.itemsize]
    if widen(data, 1, head.typecode) != head:
        raise ValueError(corrupt)
    return data


@dataclass
class RepairEvent:
    """Measured symbol traffic for one repair; ``skipped`` lists the alive nodes a default helper pick passed over."""

    mode: str
    failed: tuple[int, ...]
    helpers: tuple[int, ...]
    stripes: int
    symbols_by_helper: dict[int, int]
    skipped: tuple[int, ...] = ()

    @property
    def total(self) -> int:
        return sum(self.symbols_by_helper.values())


@dataclass
class BandwidthLedger:
    """Per-event, per-helper symbol accounting."""

    events: list[RepairEvent] = dc_field(default_factory=list)

    def record(self, event: RepairEvent) -> None:
        self.events.append(event)

    @property
    def total(self) -> int:
        return sum(event.total for event in self.events)

    def within_bounds(self, config: CodeConfig) -> bool:
        """True when every event passes :func:`~detcode.multirepair.within_bound`."""
        return all(
            within_bound(config.d, config.m, e.mode, e.failed, e.stripes, e.symbols_by_helper) for e in self.events
        )


class ShardBlob(NamedTuple):
    """A loaded node's shard file, its body not yet decoded: :meth:`Cluster.node_content` decodes it on first use.

    *error* is why the file's header did not parse (:func:`load_cluster`); node_content refuses such a node with it.
    """

    path: Path
    blob: bytes
    error: str | None = None


class Cluster:
    """n simulated node stores with failure injection and four repair modes.

    ``contents`` maps every node id to its stripes, to None for a failed node,
    or, for a node loaded from a shard and not read yet, to its undecoded
    :class:`ShardBlob`; :meth:`node_content` is the one accessor that decodes.
    *stripe_count* is needed when no node is a decoded StripeBatch
    (:func:`load_cluster` takes it from the headers; ValueError without it);
    otherwise it defaults to the first decoded node's. ``skipped`` maps each node a default pick passed over to why.
    """

    def __init__(
        self,
        config: CodeConfig,
        contents: dict[int, StripeBatch | ShardBlob | None],
        original_len: int | None = None,
        stripe_count: int | None = None,
    ):
        alive = [content for content in contents.values() if content is not None]
        if not alive:
            raise ValueError("a cluster needs at least one alive node")
        if stripe_count is None:
            stripe_count = next((len(content) for content in alive if not isinstance(content, ShardBlob)), None)
            if stripe_count is None:
                raise ValueError("a cluster of undecoded shards needs stripe_count")
        self.config = config
        self.contents = contents
        self.stripe_count = stripe_count
        self.original_len = original_len
        self.ledger = BandwidthLedger()
        self.skipped: dict[int, str] = {}

    @cached_property
    def encoder(self) -> EncoderMatrix:
        """The code's encoder, built on first use: a loaded cluster that never repairs or recovers builds none."""
        return build_encoder(self.config.n, self.config.d, self.config.field)

    @classmethod
    def build(cls, config: CodeConfig, message: MessageMatrix, original_len: int | None = None) -> "Cluster":
        contents = encode(build_encoder(config.n, config.d, config.field), message)
        return cls(config, dict(enumerate(contents, start=1)), original_len)

    @classmethod
    def from_file(cls, data: bytes, config: CodeConfig) -> "Cluster":
        message, original_len = ingest_file(data, config)
        return cls.build(config, message, original_len)

    def alive(self) -> list[int]:
        return sorted(i for i, c in self.contents.items() if c is not None)

    def failed(self) -> list[int]:
        return sorted(i for i, c in self.contents.items() if c is None)

    def node_content(self, node_id: int) -> StripeBatch:
        """Node *node_id*'s stripes; ValueError if it is failed.

        A loaded node's body is decoded here, on the first call that reads
        the node, and its stripes replace the :class:`ShardBlob`. A malformed
        body, or a header that did not parse, raises ShardFormatError naming
        the file, as :func:`read_shard` does, and stays undecoded.
        """
        content = self.contents[node_id]
        if content is None:
            raise ValueError(f"node {node_id} is failed")
        if isinstance(content, ShardBlob):
            try:
                if content.error is not None:
                    raise ValueError(content.error)
                content = _parse_body(content.blob, self.config, self.stripe_count)
            except ValueError as exc:
                raise ShardFormatError(f"{content.path}: {exc}") from exc
            self.contents[node_id] = content
        return content

    def fail_nodes(self, ids) -> None:
        """Mark every node of *ids* failed; ValueError naming the first unknown id, with no node failed."""
        ids = list(ids)
        if unknown := [i for i in ids if i not in self.contents]:
            raise ValueError(f"no node {unknown[0]}")
        self.contents.update(dict.fromkeys(ids))

    def _pick_nodes(self, excluded: set[int], node_ids, spare: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(ids, skipped): d distinct alive node ids outside *excluded* as given, or by default the first d alive
        whose shards decode and up to *spare* more, passing over (and recording in :attr:`skipped`) each that does
        not; *excluded* holds failed ids only, so no alive node is in it."""
        d = self.config.d
        if node_ids is None:
            picked, skipped = [], []
            for i in self.alive():
                if len(picked) == d + spare:
                    break
                try:
                    self.node_content(i)
                except ShardFormatError as exc:
                    skipped.append(i)
                    self.skipped[i] = str(exc)
                else:
                    picked.append(i)
            if len(picked) < d:
                raise NotEnoughHelpers(f"need {d} alive nodes, only {len(picked)} available" + (f" (unreadable: {skipped})" if skipped else ""))
            return tuple(picked), tuple(skipped)
        node_ids = checked_ids(node_ids, "node ids", count=d, failed=excluded)
        unavailable = [i for i in node_ids if self.contents.get(i) is None]
        if unavailable:
            raise NotEnoughHelpers(f"nodes {unavailable} are failed or do not exist")
        return node_ids, ()

    def repair(self, mode: str, failed, helpers=None) -> RepairEvent:
        """Restore failed nodes bit-exactly by :func:`~detcode.multirepair.repair_nodes`; returns the recorded ledger event.

        The cluster checks the node state (ids in range, no alive node
        repaired) and the request, then chooses the helpers, so a refused
        request reads none. Contents change only once every failure is rebuilt.
        """
        failed = checked_ids(failed, "failed ids", n=self.config.n)
        if any(self.contents.get(f) is not None for f in failed):
            raise ValueError("refusing to repair a node that is still alive")
        check_request(mode, failed, self.config.d)
        helper_ids, skipped = self._pick_nodes(set(failed), helpers)
        rebuilt, sent = repair_nodes(mode, failed, helper_ids, self.node_content, self.encoder, self.config.m)
        self.contents.update(rebuilt)
        event = RepairEvent(mode, failed, helper_ids, self.stripe_count, sent, skipped)
        self.ledger.record(event)
        return event

    def recover_stripes(self, node_ids=None) -> MessageMatrix:
        """Message matrix of every stripe from d distinct alive nodes; by default the first d readable, checked by the next."""
        ids, _ = self._pick_nodes(set(), node_ids, spare=1)
        return recover_data([self.node_content(i) for i in ids], ids, self.encoder, self.config.m)

    def recover_file(self, node_ids=None) -> bytes:
        if self.original_len is None:
            raise ValueError("cluster was not built from a byte file")
        message = self.recover_stripes(node_ids)
        return assemble_file(message.extract_symbols(), self.original_len)


# --- shard persistence -------------------------------------------------

SHARD_MAGIC = b"DETC"
SHARD_VERSION = 3  # version 3: canonical direct-then-shared source order, zero padding, escaped GF(257) bodies, plane-major
_SHARD_HEADER = struct.Struct("<4sBQHHBHQQ")


def _shard_name(node_id: int) -> str:
    return f"node_{node_id}.detc"


def shard_path(directory, node_id: int) -> Path:
    return Path(directory) / _shard_name(node_id)


def _node_of(path: Path, n: int) -> int | None:
    """The node id in [1, n] that *path* is named for (``node_<id>.detc``), else None."""
    digits = path.name[len("node_") : -len(".detc")]
    node_id = int(digits) if digits.isdecimal() else 0
    return node_id if path.name == _shard_name(node_id) and 1 <= node_id <= n else None


def stray_shards(directory, n: int) -> list[Path]:
    """The shard files (``node_*.detc``) in *directory* that are named for no node in [1, n], in node order."""
    stray = [path for path in Path(directory).glob("node_*.detc") if _node_of(path, n) is None]
    return sorted(stray, key=lambda path: (len(path.name), path.name))


def _recorded_length(config: CodeConfig, node_id: int, original_len: int | None, count: int) -> int | None:
    """The shard rule on a node id, a recorded byte length and *count* stripes; returns the length as kept.

    The node id is in [1, n] and a positive recorded byte length pads to
    exactly the stripes. ``original_len`` None (not a byte file) needs a
    stripe and is recorded as 0; 0 over stripes is None.
    """
    checked_ids((node_id,), "node id", n=config.n)
    length = original_len or 0
    if length > 0 and count != (need := -(-length // config.file_symbols)):
        raise ValueError(f"recorded length {length} needs {need} stripes of {config.file_symbols} symbols, got {count}")
    if original_len is None and not count:
        raise ValueError("a shard that is not a byte file needs at least one stripe: zero stripes read back as an empty byte file")
    return length if length or not count else None


class _Header(NamedTuple):
    config: CodeConfig
    node_id: int
    stripe_count: int
    original_len: int | None


def _parse_header(blob: bytes, config: CodeConfig | None = None) -> _Header:
    """The header step of a shard read: the 36 header bytes, under the shard rule; ValueError if malformed.

    *config* is a code an earlier header recorded: a header recording the
    same code reuses it, so a directory's shards build one CodeConfig.
    """
    if len(blob) < _SHARD_HEADER.size:
        raise ValueError("truncated header")
    magic, version, p, n, d, m, node_id, stripe_count, original_len = _SHARD_HEADER.unpack_from(blob, 0)
    if magic != SHARD_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != SHARD_VERSION:
        raise ValueError(f"unsupported version {version}")
    if config is None or (config.n, config.d, config.m, config.p) != (n, d, m, p):
        config = CodeConfig(n=n, d=d, m=m, p=p)
    return _Header(config, node_id, stripe_count, _recorded_length(config, node_id, original_len, stripe_count))


def _parse_body(blob: bytes, config: CodeConfig, stripe_count: int) -> StripeBatch:
    """The body step of a shard read: the symbols after the header, exactly *stripe_count* stripes; ValueError if not."""
    symbols = unpack_symbols(blob[_SHARD_HEADER.size :], config.p)
    if len(symbols) != stripe_count * config.alpha:
        raise ValueError(f"body holds {len(symbols)} symbols, expected {stripe_count} stripes of {config.alpha}")
    return StripeBatch(symbols, config.alpha)


@dataclass(frozen=True)
class ShardFile:
    """One node's shard: the one shard rule, checked on construction, and its byte layout.

    Stripes are alpha symbols long; the node id and the recorded length
    follow :func:`_recorded_length`, which also checks a header on its own
    (:func:`load_cluster`).
    """

    config: CodeConfig
    node_id: int
    original_len: int | None
    stripes: StripeBatch

    def __post_init__(self):
        if self.stripes.alpha != (alpha := self.config.alpha):
            raise ValueError(f"stripes must be alpha = {alpha} symbols long, got {self.stripes.alpha}")
        length = _recorded_length(self.config, self.node_id, self.original_len, len(self.stripes))
        object.__setattr__(self, "original_len", length)

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)

    def to_bytes(self) -> bytes:
        """The header, then the stripes as little-endian symbols; ValueError if a header field does not fit."""
        c = self.config
        try:
            header = _SHARD_HEADER.pack(
                SHARD_MAGIC, SHARD_VERSION, c.p, c.n, c.d, c.m, self.node_id, self.stripe_count, self.original_len or 0
            )
        except struct.error as exc:
            raise ValueError(f"shard header does not fit: {exc}") from exc
        return header + pack_symbols(self.stripes.symbols, c.p)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShardFile":
        """Parse one shard, header step then body step; anything malformed, or refused by the shard rule, raises ValueError."""
        header = _parse_header(blob)
        return cls(header.config, header.node_id, header.original_len, _parse_body(blob, header.config, header.stripe_count))


def write_shard(path, config: CodeConfig, node_id: int, stripes: StripeBatch, original_len: int | None) -> None:
    """Write one node's shard atomically; anything read_shard would reject raises ValueError.

    :class:`ShardFile` checks and packs the shard before any file is
    touched. The bytes go to a temporary file that load_cluster does not
    read, which then replaces the shard, so an interrupted write leaves the
    old one whole. A missing directory raises FileNotFoundError naming it,
    and nothing is created.
    """
    blob = ShardFile(config, node_id, original_len, stripes).to_bytes()
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        temp.write_bytes(blob)
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, FileNotFoundError) and not path.parent.exists():
            raise FileNotFoundError(errno.ENOENT, "shard directory does not exist", str(path.parent)) from None
        raise


def read_shard(path) -> ShardFile:
    """One shard file, parsed by :meth:`ShardFile.from_bytes`; ShardFormatError names the path."""
    try:
        return ShardFile.from_bytes(Path(path).read_bytes())
    except ValueError as exc:
        raise ShardFormatError(f"{path}: {exc}") from exc


def write_all_shards(directory, cluster: Cluster) -> list[Path]:
    """Write every alive node's shard (:func:`write_shard`): into a missing directory, FileNotFoundError naming it."""
    paths = [shard_path(directory, node_id) for node_id in cluster.alive()]
    for path, node_id in zip(paths, cluster.alive()):
        write_shard(path, cluster.config, node_id, cluster.node_content(node_id), cluster.original_len)
    return paths


def load_cluster(directory) -> Cluster:
    """Rebuild a cluster from the shards in a directory: every header is checked, no body is decoded.

    Each file is read once, here. Nodes without a shard file are marked
    failed; every header that parses must pass the shard rule, name its file
    and agree with the others on the code, the stripe count and the recorded
    length. A node keeps its file as a :class:`ShardBlob` until a call first
    reads it (:meth:`Cluster.node_content`), so a malformed body is refused
    by the calls that read that node and by no other. A file of node i in
    [1, n] whose header does not parse is such a node too, refused with the
    header's error; a file of no such node, or a directory where no header
    parses, raises that error here.
    """
    directory = Path(directory)
    headers: list[_Header] = []
    blobs: dict[int, ShardBlob] = {}
    damaged: list[tuple[Path, bytes, ValueError]] = []
    for path in sorted(directory.glob("node_*.detc"), key=lambda path: path.name):
        blob = path.read_bytes()
        try:
            header = _parse_header(blob, headers[0].config if headers else None)
        except ValueError as exc:
            damaged.append((path, blob, exc))
            continue
        if path.name != _shard_name(header.node_id):
            raise ShardFormatError(f"{path}: file name disagrees with header node id {header.node_id}")
        headers.append(header)
        blobs[header.node_id] = ShardBlob(path, blob)
    if not headers and not damaged:
        raise ShardFormatError(f"no shard files found in {directory}")
    if len({(h.config, h.stripe_count, h.original_len) for h in headers}) > 1:
        raise ShardFormatError("shard headers disagree")
    n = headers[0].config.n if headers else 0
    for path, blob, exc in damaged:
        if (node_id := _node_of(path, n)) is None:
            raise ShardFormatError(f"{path}: {exc}") from exc
        blobs[node_id] = ShardBlob(path, blob, str(exc))
    config, _, stripe_count, original_len = headers[0]
    contents: dict[int, StripeBatch | ShardBlob | None] = dict.fromkeys(range(1, config.n + 1))
    contents.update(blobs)
    return Cluster(config, contents, original_len, stripe_count)
