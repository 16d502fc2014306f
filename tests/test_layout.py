"""The source guards: one test per rule that the runtime modules must keep.

These tests are the guards. CI runs them in its tier-1 step, with the rest of
the suite, and keeps no other copy of them. A pattern is an extended regular
expression as ``grep -nE`` reads it; it is matched here line by line with
:mod:`re`, which reads every construct these patterns use (``\\b``, ``\\s``,
bracket sets, escaped parentheses and brackets) as grep does.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "detcode").glob("*.py"))


def _outside(name: str) -> list[Path]:
    """``$(ls src/detcode/*.py | grep -v '/<name>$')``: every runtime module but *name*."""
    return [path for path in SOURCES if path.name != name]


def _grep(pattern: str, paths) -> list[str]:
    """``grep -nE pattern paths``: each matching line as ``path:number:line``."""
    found = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}:{line}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if found.search(line)
    ]


def test_prime_arithmetic_only_in_field():
    """Reductions mod p, inverses and primality tests live in
    src/detcode/field.py; every other module goes through it."""
    assert _grep(r"%\s*([a-z_.]*\.)?p\b|__rmod__|\bpow\(|\bis_prime\(", _outside("field.py")) == []


def test_transposes_and_weight_preparation_only_in_field():
    """A Matrix caches its transpose (Matrix.T) and its weight preparation;
    no other module transposes by zip(*...) or builds its own weights type."""
    assert _grep(r"zip\(\*|Weights", _outside("field.py")) == []


def test_bandwidth_closed_forms_called_only_in_multirepair():
    """helper_bound in src/detcode/multirepair.py is the one rule mapping a
    repair mode to its bound; every other module goes through it."""
    assert _grep(r"\b(joint|centralized)_bandwidth\(", _outside("multirepair.py")) == []


def test_alternating_sums_are_kernel_products():
    """Parity completion, the parity check and the repair readout are each one
    combine_rows product by a sign column (code.incidence_terms); no module
    sums signed terms entry by entry in Python."""
    assert _grep(r"\b(signed_sums|first_nonzero_sum|_unreduced)\b|from operator import", SOURCES) == []


def test_batch_products_stay_in_plane_order():
    """Transmit, decompression and the decode operator map plane-major batches to
    plane-major batches (field.batch_product); no module interleaves kernel
    outputs into another order or splits a batch into columns to feed one."""
    repair = [ROOT / "src/detcode/repair.py", ROOT / "src/detcode/multirepair.py"]
    assert _grep(r"\binterleave\b", SOURCES) == []
    assert _grep(r"for c in range\(alpha\)\]|for j in range\(rank\)\]", repair) == []


def test_stripe_batches_stay_plane_major():
    """Every stripe batch, message row, payload, repair vector and decode output
    holds symbol position c of all S stripes as one contiguous plane, so the
    code, repair and repair-center modules slice planes: no stripe-strided
    slice (``[c::alpha]``, ``[j::step]``, ``[c::w]``) and no gather of a
    segment out of every stripe."""
    modules = [ROOT / "src/detcode" / name for name in ("code.py", "repair.py", "multirepair.py")]
    assert _grep(r"::\s*(alpha|step|w|seg|stride)\b|\bgather\(", modules) == []


def test_symbols_are_machine_words():
    """field.symbol_typecode is the one modulus rule (FieldTooLarge from 2**64) and
    field.py refuses big-endian hosts at import, so no module keeps a list path
    for symbols or a branch on the host's byte order."""
    assert _grep(r"sys\.byteorder\s*==|\bif code else\b|else (list\(|\[\]|\[0\])", SOURCES) == []


def test_body_lengths_come_from_the_codec():
    """field.pack_symbols/unpack_symbols decide how many bytes a shard body or
    payload takes (escaped at p = 257); shards and payloads compare the
    decoded symbol count with their header and never size a body by hand."""
    assert _grep(r"\belement_width\(", _outside("field.py")) == []


def test_kernel_size_rules_stay_deleted():
    """Every GF(257) window with 4-byte slots is folded, whatever its length (no
    FOLD_MIN); combine_rows always runs the windowed orientation, so the
    weight-packed one (_weight_packed) serves batch_product alone; and a read's
    low byte plane is one slice of the array's buffer (no field.narrow)."""
    assert _grep(r"\bFOLD_MIN\b|\bnarrow\(", SOURCES) == []
    t = ast.parse((ROOT / "src/detcode/field.py").read_text(encoding="utf-8"))
    c = sorted({f.name for f in ast.walk(t) if isinstance(f, ast.FunctionDef) for n in ast.walk(f) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_weight_packed"})
    assert c == ["batch_product"], f"_weight_packed called by {c}"


def test_repair_mode_names_only_in_multirepair_and_cli():
    """src/detcode/multirepair.py holds every repair-mode rule (REPAIR_MODES,
    repair_nodes, helper_bound, within_bound); cli.py names the modes only
    for its --mode default. No other module holds a "naive", "joint" or
    "centralized" string literal."""
    names = {"naive", "joint", "centralized"}
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}:{node.value!r}"
        for path in SOURCES
        if path.name not in ("multirepair.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


def test_mode_list_and_bound_only_in_multirepair_and_cli():
    """REPAIR_MODES and helper_bound are used only by multirepair.py, which
    holds every mode rule, and cli.py, which offers the modes as choices;
    __init__.py only re-exports. No other module names either, not even
    to import it."""
    names = {"REPAIR_MODES", "helper_bound"}
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("multirepair.py", "cli.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert found == []
