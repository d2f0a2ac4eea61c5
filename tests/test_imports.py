"""Every name a library module imports is used in that module, every
plain ``name = ...`` assignment in a function is read by that function,
and every private ``_name`` function, class or module-level constant is
read somewhere in the library outside its own definition.

``__init__.py`` is exempt from the import check: it imports names to
re-export them.  Names in quoted annotations count as used.  Tuple
unpacking is exempt from the assignment check, since it may bind names
only to discard them.

The package's public surface, ``twohom.__all__``, is pinned as a list, so
that a name added or removed shows in the diff of this file.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import twohom

SRC = Path(__file__).resolve().parents[1] / "src" / "twohom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used(ast.parse(n.value, mode="eval"))
    return used


# sorted(twohom.__all__): the re-exported names and the submodules that
# the package imports
PUBLIC = [
    "ChainHomotopy", "ChainMor", "ComparisonLift", "Complex2",
    "DerivedResult", "FPModule", "FunctorSpec", "HomologyData", "LongSeq",
    "Matrix", "ModMor", "OneMor", "RelCokernelResult", "RelKernelResult",
    "Resolution", "RingSpec", "TwoModule", "TwoMor", "ZZ", "apply",
    "biproduct", "check_long_sequence", "check_projective_vanishing",
    "check_relative_two_exact", "classical_tor_oracle", "cokernel", "compare",
    "complex2", "compose", "derive", "derive_mor", "derived", "direct_sum",
    "equal_mor", "exactlin", "fpmod", "hnf", "hom_basis",
    "homotopy_between_lifts", "homotopy_equiv_witness", "horseshoe", "hyper",
    "induced", "invariant_factors",
    "is_essentially_surjective", "is_extension", "is_faithful", "is_full",
    "is_right_relative_two_exact", "is_valid_mor", "kernel", "kernel_basis",
    "lift_through", "long_sequence", "pi0", "pi1", "pi_profile",
    "product_resolution", "rc_factorize", "relative_cokernel",
    "relative_kernel", "resolution", "resolution_independence", "resolve",
    "rk_factorize", "snf", "solve_many", "sum_module", "tensor", "tensor_mor",
    "total", "twomod", "validate_chain_homotopy", "validate_chain_mor",
    "validate_complex", "validate_resolution", "vcomp", "whisker_left",
    "whisker_right"]


def test_public_surface_is_pinned():
    assert sorted(twohom.__all__) == PUBLIC


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("from typing import Optional, List\nx: 'List[int]' = []\n")
    assert set(_imported(tree)) - _used(tree) == {"Optional"}


def _own_nodes(fn):
    """The nodes of a function body, without those of nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_assignments(tree: ast.Module) -> list:
    """(function, name, line) of each ``name = ...`` the function never reads
    (a read in a nested function counts)."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                out += [(fn.name, t.id, node.lineno) for t in node.targets
                        if isinstance(t, ast.Name) and t.id not in read]
    return sorted(out, key=lambda d: d[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_assignment(path):
    dead = _dead_assignments(ast.parse(path.read_text(encoding="utf-8")))
    assert not dead, f"{path.name} assigns names it never reads: {dead}"


def test_checker_flags_a_dead_assignment():
    tree = ast.parse(
        "def f(a):\n"
        "    ring = a.ring\n"          # dead
        "    x, y = a\n"               # tuple unpacking: exempt
        "    z = 1\n"                  # read by the nested function
        "    w = 2\n"                  # read
        "    def g():\n"
        "        u = 3\n"              # dead, reported for g
        "        return z\n"
        "    return w + g()\n")
    assert [(f, n) for f, n, _ in _dead_assignments(tree)] == [
        ("f", "ring"), ("g", "u")]


def _reads(tree: ast.AST):
    """Every name a subtree reads: loaded names, attributes, imported names
    and the names in quoted annotations."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield from _reads(ast.parse(n.value, mode="eval"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private(trees: dict) -> list:
    """(module, name, line) of each private function, class or module-level
    constant that no module reads outside its own definition."""
    defs = []
    for mod, tree in trees.items():
        defs += [(mod, n.name, n.lineno, n) for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and _private(n.name)]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            defs += [(mod, t.id, node.lineno, None) for t in targets
                     if isinstance(t, ast.Name) and _private(t.id)]
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    return sorted((mod, name, line) for mod, name, line, node in defs
                  if read[name] == (Counter(_reads(node))[name] if node else 0))


def test_no_unreferenced_private_name():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    dead = _unreferenced_private(trees)
    assert not dead, f"private names that nothing references: {dead}"


def test_checker_flags_an_unreferenced_private_name():
    trees = {"a.py": ast.parse(
        "_LIMIT = 3\n"                  # read by b.py
        "_UNUSED = 4\n"                 # flagged
        "def _helper(x):\n"             # read by f
        "    return x\n"
        "def _connecting(n):\n"         # flagged: only it calls itself
        "    return _connecting(n - 1)\n"
        "class _Stage:\n"               # read in a quoted annotation
        "    def _step(self):\n"        # read as an attribute
        "        return 1\n"
        "    def _dead(self):\n"        # flagged
        "        return 2\n"
        "def f(s: '_Stage'):\n"
        "    return _helper(s._step())\n"),
        "b.py": ast.parse("from .a import _LIMIT\n")}
    assert _unreferenced_private(trees) == [
        ("a.py", "_UNUSED", 2), ("a.py", "_connecting", 5), ("a.py", "_dead", 10)]


def _discarded_transforms(tree: ast.Module) -> list:
    """Line of each ``snf(...)`` result unpacked into ``_``:
    a transform built only to be thrown away, where a narrower ``want``
    would skip it."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "snf" and any(
                isinstance(t, (ast.Tuple, ast.List)) and any(
                    isinstance(e, ast.Name) and e.id == "_" for e in t.elts)
                for t in node.targets):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_transform_built_to_be_discarded(path):
    lines = _discarded_transforms(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} discards snf results at lines {lines}"


def test_checker_flags_a_discarded_transform():
    tree = ast.parse(
        "d, _ = snf(a, 'DU')\n"             # flagged
        "d, = snf(a, 'D')\n"                # asks only for D
        "_, u = exactlin.snf(a, 'DU')\n"    # flagged
        "d, u, v = snf(a)\n"                # reads every matrix
        "[d, _, v] = snf(a)\n"              # flagged
        "_ = len(a)\n")                     # not a normal form
    assert _discarded_transforms(tree) == [1, 3, 5]


def _canonical_keywords(tree: ast.Module) -> list:
    """Line of each call that passes the private ``_rows`` keyword, with
    which exactlin makes a matrix of rows it has already reduced."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and any(k.arg == "_rows" for k in node.keywords))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "exactlin.py"],
                         ids=lambda p: p.name)
def test_only_exactlin_builds_matrices_from_raw_arrays(path):
    lines = _canonical_keywords(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} passes _rows at lines {lines}; "
                       "cut blocks with Matrix slicing instead")


def test_checker_flags_a_canonical_keyword():
    tree = ast.parse(
        "m = Matrix(r, 1, 1, None, _rows=((1,),))\n"     # flagged
        "m = Matrix(r, 1, 1, [1])\n"                      # public constructor
        "x = sol[:2]\n"                                   # a slice
        "f(Matrix.zeros(r, 1, 1), _rows=rows)\n")        # flagged
    assert _canonical_keywords(tree) == [1, 4]
