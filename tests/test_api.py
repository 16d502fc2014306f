"""The package's public name list matches what it actually exports."""

import os
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


def _assert_runtime_does_not_load(module: str):
    env = dict(os.environ, PYTHONPATH=str(Path(detcode.__file__).parents[1]))
    code = f"import sys, detcode, detcode.cli; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_runtime_does_not_load_certificates():
    """Verification-only code stays off the runtime path."""
    _assert_runtime_does_not_load("detcode.certificates")


def test_runtime_does_not_load_numpy():
    """The packed product needs only the standard library; numpy would cost start-up time and memory."""
    _assert_runtime_does_not_load("numpy")
