"""Per-layer tracing from outside the program.

The tracer wraps the public callables listed in ``TARGETS`` wherever a
``detcode.*`` module binds them (modules import names directly, so
``detcode.cluster.helper_payload`` is the same object as
``detcode.repair.helper_payload`` and both are replaced). Each call is a
span with a name, a start, an end and the enclosing span as its parent.
Spans are summed as they close rather than kept one by one: a bulk round
makes millions of them. A layer's self time is the time its spans cover
minus the time covered by their child spans.

A callable that no longer exists is reported as absent, with zero calls,
so that deleting a duplicate path does not break the traced run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("field", "subsets", "code", "repair", "multirepair", "cluster")

# (metric prefix, module, attribute path)
TARGETS = (
    ("field.matmul", "field", "Matrix.__matmul__"),
    ("field.inverse", "field", "Matrix.inverse"),
    ("field.pivot_columns", "field", "Matrix.pivot_columns"),
    ("field.rank", "field", "Matrix.rank"),
    ("field.det", "field", "Matrix.det"),
    ("field.vec_mat", "field", "vec_mat"),
    ("subsets.rank", "subsets", "Subsets.rank"),
    ("code.build_encoder", "code", "build_encoder"),
    ("code.build_message_matrix", "code", "build_message_matrix"),
    ("code.encode", "code", "encode"),
    ("code.recover_data", "code", "recover_data"),
    ("code.verify_parity", "code", "MessageMatrix.verify_parity"),
    ("code.extract_symbols", "code", "MessageMatrix.extract_symbols"),
    ("repair.repair_matrix", "repair", "repair_matrix"),
    ("repair.helper_payload", "repair", "helper_payload"),
    ("repair.decompress_payload", "repair", "decompress_payload"),
    ("repair.decode_failed_node", "repair", "decode_failed_node"),
    ("repair.combine_repair_space", "repair", "combine_repair_space"),
    ("multirepair.joint_helper_payload", "multirepair", "joint_helper_payload"),
    ("multirepair.decompress_joint", "multirepair", "decompress_joint"),
    ("multirepair.decode_failed_nodes", "multirepair", "decode_failed_nodes"),
    ("multirepair.centralized_repair", "multirepair", "centralized_repair"),
    ("multirepair.null_space_matrix", "multirepair", "null_space_matrix"),
    ("cluster.ingest_file", "cluster", "ingest_file"),
    ("cluster.build", "cluster", "Cluster.build"),
    ("cluster.repair", "cluster", "Cluster.repair"),
    ("cluster.recover_stripes", "cluster", "Cluster.recover_stripes"),
    ("cluster.assemble_file", "cluster", "assemble_file"),
    ("cluster.write_shard", "cluster", "write_shard"),
    ("cluster.read_shard", "cluster", "read_shard"),
    ("cluster.load_cluster", "cluster", "load_cluster"),
)

# lru caches whose hit rate is reported: (metric prefix, module, attribute)
CACHES = (
    ("repair.repair_basis", "repair", "repair_basis"),
    ("multirepair.joint_basis", "multirepair", "joint_basis"),
)


def _matrix_key(matrix):
    return matrix.field.p, tuple(map(tuple, matrix.data))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _inverse_key(args, kwargs):
    return _matrix_key(args[0])


def _repair_matrix_key(args, kwargs):
    encoder = _arg(args, kwargs, 2, "encoder")
    return _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "m"), _matrix_key(encoder.matrix)


def _file_size(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# metric prefix -> (suffix, function of the call's arguments); "distinct"
# counts distinct keys, "bytes" sums the values
EXTRAS = {
    "field.inverse": ("distinct", _inverse_key),
    "repair.repair_matrix": ("distinct", _repair_matrix_key),
    "cluster.write_shard": ("bytes", _file_size),
    "cluster.read_shard": ("bytes", _file_size),
}


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    names = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for prefix, _, _ in TARGETS:
        names.append((f"{prefix}.calls", "count", "lower"))
        names.append((f"{prefix}.s", "s", "lower"))
    for prefix, _, _ in CACHES:
        names.append((f"{prefix}.hits", "count", "higher"))
        names.append((f"{prefix}.misses", "count", "lower"))
    for prefix, (suffix, _) in EXTRAS.items():
        names.append((f"{prefix}.{suffix}", "count" if suffix == "distinct" else "bytes", "lower"))
    names.append(("trace.overhead", "ratio", "lower"))
    names.append(("trace.absent", "count", "lower"))
    return names


class Tracer:
    """Installs span-recording wrappers; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.distinct = defaultdict(set)  # keys seen in the current round
        self.distinct_total = Counter()  # per-round distinct counts, summed
        self.bytes = Counter()
        self.absent = []
        self._stack = []  # child time covered so far, one cell per open span
        self._cache_start = {}

    def _wrap(self, prefix, layer, fn):
        tracer = self
        extra = EXTRAS.get(prefix)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            stack = tracer._stack
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[prefix] += 1
                tracer.seconds[prefix] += duration
                tracer.self_seconds[layer] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                if extra is not None:
                    kind, key = extra
                    if kind == "distinct":
                        tracer.distinct[prefix].add(key(args, kwargs))
                    else:
                        tracer.bytes[prefix] += key(args, kwargs)

        return span

    def install(self) -> None:
        """Replace every target in its class, or in every detcode module binding it."""
        modules = [mod for name, mod in list(sys.modules.items()) if name == "detcode" or name.startswith("detcode.")]
        for prefix, layer, attr in TARGETS:
            home = sys.modules.get(f"detcode.{layer}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = owner.__dict__.get(name) if owner is not None else None
            if raw is None:
                self.absent.append(f"detcode.{layer}.{attr}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(self._wrap(prefix, layer, raw.__func__)))
                else:
                    setattr(owner, name, self._wrap(prefix, layer, raw))
                continue
            wrapped = self._wrap(prefix, layer, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
        self._cache_start = {prefix: self._cache_info(layer, attr) for prefix, layer, attr in CACHES}

    def end_round(self) -> None:
        for prefix, keys in self.distinct.items():
            self.distinct_total[prefix] += len(keys)
        self.distinct.clear()

    @staticmethod
    def _cache_info(layer, attr):
        fn = getattr(sys.modules.get(f"detcode.{layer}"), attr, None)
        info = getattr(fn, "cache_info", None)
        return (info().hits, info().misses) if info else None

    def metrics(self, rounds: int, overhead: float) -> dict:
        """Per-layer figures per traced round, keyed by metric name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_seconds[layer] / rounds
        for prefix, _, _ in TARGETS:
            out[f"{prefix}.calls"] = self.calls[prefix] / rounds
            out[f"{prefix}.s"] = self.seconds[prefix] / rounds
        for prefix, layer, attr in CACHES:
            start, end = self._cache_start.get(prefix), self._cache_info(layer, attr)
            if start is None or end is None:
                if f"detcode.{layer}.{attr}" not in self.absent:
                    self.absent.append(f"detcode.{layer}.{attr}")
                hits = misses = 0
            else:
                hits, misses = end[0] - start[0], end[1] - start[1]
            out[f"{prefix}.hits"] = hits / rounds
            out[f"{prefix}.misses"] = misses / rounds
        for prefix, (suffix, _) in EXTRAS.items():
            if suffix == "distinct":
                out[f"{prefix}.distinct"] = self.distinct_total[prefix] / rounds
            else:
                out[f"{prefix}.bytes"] = self.bytes[prefix] / rounds
        out["trace.overhead"] = overhead
        out["trace.absent"] = len(self.absent)
        return out
