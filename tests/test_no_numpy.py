"""The library runs without numpy.

numpy is a test dependency only: ``Matrix.arr`` imports it when read, and
no library code reads ``arr``.  So importing the package and the CLI loads
no numpy, and with numpy blocked the CLI prints what it prints with numpy
present.
"""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twohom.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CATALOG = ROOT / "catalog.json"


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_numpy():
    proc = _python("import sys, twohom, twohom.cli\n"
                   "print('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# numpy set to None in sys.modules makes any import of it raise ImportError
_BLOCKED = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from twohom.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [
    ["selftest", "--seed", "0"],
    ["derive", str(CATALOG), "T2", "Zmod2", "--degrees", "0..2"],
], ids=lambda argv: argv[0])
def test_the_cli_runs_with_numpy_blocked(argv):
    proc = _python(_BLOCKED, *argv)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert proc.stdout == out.getvalue()


def _numpy_imports(tree: ast.Module) -> list:
    """(line, at module level) of each import of numpy."""
    top = {id(node) for node in tree.body}
    return [(node.lineno, id(node) in top) for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "numpy" for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "numpy")]


def test_only_matrix_arr_imports_numpy():
    found = {}
    for path in sorted((SRC / "twohom").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update({(path.name, line): top
                      for line, top in _numpy_imports(tree)})
    assert not any(found.values()), f"numpy imported at module level: {found}"
    assert len(found) == 1, found
    (name, line), = found
    tree = ast.parse((SRC / "twohom" / name).read_text(encoding="utf-8"))
    arr = [f for f in ast.walk(tree)
           if isinstance(f, ast.FunctionDef) and f.name == "arr"]
    assert name == "exactlin.py" and len(arr) == 1
    assert arr[0].lineno <= line <= arr[0].end_lineno


def test_checker_finds_numpy_imports():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.linalg import det\n"
                     "def f():\n"
                     "    import numpy\n"
                     "import numbers\n")
    assert sorted(_numpy_imports(tree)) == [(1, True), (2, True), (4, False)]
