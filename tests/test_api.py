"""The package's public name list matches what it actually exports, and the README's examples run."""

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
