"""The public API surface and the package's import boundary."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cclab

PACKAGE_DIR = Path(cclab.__file__).parent
# numerical and symbolic libraries stay test and scratch tools: every
# certificate the package prints rests on its own exact kernels
FORBIDDEN_IMPORTS = {"numpy", "sympy", "scipy", "mpmath"}


def test_every_public_name_resolves():
    assert len(set(cclab.__all__)) == len(cclab.__all__)
    for name in cclab.__all__:
        assert getattr(cclab, name, None) is not None, name


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_numeric_library_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not imported_roots(tree) & FORBIDDEN_IMPORTS


def test_import_check_sees_every_form():
    tree = ast.parse("import numpy as np\nfrom scipy.linalg import solve\n"
                     "import os.path\nfrom . import sympy\n")
    assert imported_roots(tree) == {"numpy", "scipy", "os"}


def test_crossover_runs_without_mpmath():
    """A None entry in sys.modules makes every import of mpmath fail."""
    script = ("import sys\n"
              "sys.modules['mpmath'] = None\n"
              "import cclab.cli\n"
              "sys.exit(cclab.cli.main(['hilbert', '--crossover', '10', '0', '0']))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "crossover n = 1048519" in done.stdout.splitlines()
