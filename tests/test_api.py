"""The package's public name list matches what it actually exports, the benchmark's traced names resolve, and
the README's examples run."""

import ast
import importlib
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import detcode


def test_all_names_resolve():
    for name in detcode.__all__:
        assert hasattr(detcode, name), name


def test_all_lists_exactly_the_imported_public_names():
    imported = {
        name
        for name, value in vars(detcode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(detcode.__all__) == sorted(imported)
    assert len(set(detcode.__all__)) == len(detcode.__all__)


# Named by perfbench/spans.py but gone by design (merged into other entries or moved to tests/certificates.py).
TRACED_ABSENT = {
    "detcode.field.vec_mat",
    "detcode.repair.decode_failed_node",
    "detcode.multirepair.joint_helper_payload",
    "detcode.multirepair.decompress_joint",
    "detcode.multirepair.decode_failed_nodes",
    "detcode.multirepair.null_space_matrix",
    "detcode.multirepair.joint_basis",
}


def test_traced_names_resolve():
    """Every callable and cache that the benchmark's tracer names (TARGETS and CACHES in perfbench/spans.py, read
    here as literals, not run) resolves in detcode as the tracer looks it up, but for the by-design absentees: a
    deleted or renamed entry fails here before the traced benchmark reports it absent."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    listed = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("TARGETS", "CACHES")
    }
    absent = set()
    for _, layer, attr in listed["TARGETS"]:  # a function in its module, or a method in its class's __dict__
        owner_name, _, name = attr.rpartition(".")
        home = importlib.import_module(f"detcode.{layer}")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None or owner.__dict__.get(name) is None:
            absent.add(f"detcode.{layer}.{attr}")
    for _, layer, attr in listed["CACHES"]:
        if getattr(getattr(importlib.import_module(f"detcode.{layer}"), attr, None), "cache_info", None) is None:
            absent.add(f"detcode.{layer}.{attr}")
    assert absent <= TRACED_ABSENT, sorted(absent - TRACED_ABSENT)


def _run_after_runtime_import(check: str):
    """Run *check* in a fresh interpreter once ``import detcode, detcode.cli`` has loaded the runtime."""
    env = dict(os.environ, PYTHONPATH=str(Path(detcode.__file__).parents[1]))
    code = f"import pkgutil, sys, detcode, detcode.cli; {check}"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_runtime_loads_every_module():
    """The package holds only runtime code: the library and the CLI load every module it ships."""
    _run_after_runtime_import(
        "missing = [i.name for i in pkgutil.iter_modules(detcode.__path__) if 'detcode.' + i.name not in sys.modules]; "
        "assert not missing, missing"
    )


def test_runtime_does_not_load_numpy():
    """The packed product needs only the standard library; numpy would cost start-up time and memory."""
    _run_after_runtime_import("assert 'numpy' not in sys.modules")


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    """Every ```python block of README.md runs, in order and in one namespace, on a seeded data.bin."""
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.bin").write_bytes(random.Random(2018).randbytes(5000))
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "True"  # the ledger is within the paper's bounds
