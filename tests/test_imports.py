"""Each ``coopsim`` module imports on its own.

The package's ``__init__`` imports nothing, so importing one module loads
only what that module imports.  Each module is imported first in a fresh
interpreter under ``-S``, with only ``src`` and the standard library on the
path, so a module that leans on another being loaded first, or on a package
from outside the standard library, fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = [
    "agents", "appraisal", "cli", "corpus", "engine",
    "lifecycle", "reputation", "scenario", "statements", "trust",
]


def test_modules_are_the_package_files():
    files = sorted(p.stem for p in (SRC / "coopsim").glob("*.py") if p.stem != "__init__")
    assert files == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import coopsim.{name}"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
