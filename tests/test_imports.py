"""Every name a module of src/bnicolor imports is used in that module.

An AST name scan, so that deleting a helper cannot leave a dead import
behind. `__init__.py` re-exports by importing and is exempt. The names the
benchmark's layer wrappers replace (`bench/spans.py`) are looked up in the
module that imports them, so they stay bound there even where the module's
own code no longer calls them.

A second scan keeps `numpy.random` out of the library: its one random draw
is `legal.draw_classes`, a Philox over numpy arrays. A third keeps `assert`
statements out: `python -O` strips them, so a guarantee the library relies on
must raise an error instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bnicolor"
ALL_MODULES = sorted(p.stem for p in SRC.glob("*.py"))
MODULES = [m for m in ALL_MODULES if m != "__init__"]

# module -> names bench/spans.py patches in it
PATCHED = {
    "base": ("run", "choose_point", "poly_eval"),
    "edgecolor": ("run", "poly_eval", "build_line_graph", "conflict_bitmap"),
    "extensions": ("run",),
    "generators": ("build_line_graph",),
    "legal": ("run", "choose_point"),
    "sim": ("run", "build_line_graph", "run_on_line_graph"),
}


def _imported(tree):
    """Bound name -> line of each import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source: str, keep=()):
    tree = ast.parse(source)
    used = _used(tree) | set(keep)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    source = (SRC / f"{module}.py").read_text()
    assert unused_imports(source, PATCHED.get(module, ())) == []


@pytest.mark.parametrize("module", sorted(PATCHED))
def test_patched_names_stay_bound(module):
    mod = importlib.import_module(f"bnicolor.{module}")
    for name in PATCHED[module]:
        assert callable(getattr(mod, name, None)), f"bnicolor.{module}.{name}"


def test_the_scan_finds_a_dead_import():
    source = (
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "def f(x: 'Optional[List[int]]') -> None:\n"
        "    np = 'Dict'\n"
        "    return np\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]
    assert unused_imports(source, keep=("os",)) == [(2, "Dict")]


def numpy_random_uses(source: str):
    """Lines that import `numpy.random` or read `.random` off a name numpy is
    bound to."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname for a in node.names if a.name == "numpy" and a.asname}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"numpy.{node.attr}"] if node.value.id in numpy_names else []
        else:
            continue
        if any(n == "numpy.random" or n.startswith("numpy.random.") for n in names):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_numpy_random(module):
    assert numpy_random_uses((SRC / f"{module}.py").read_text()) == []


def test_the_scan_finds_numpy_random():
    source = (
        "import random\n"
        "import numpy as xp\n"
        "import numpy.random\n"
        "from numpy import random as npr\n"
        "from numpy.random import Philox\n"
        "def f() -> int:\n"
        "    return xp.random.default_rng, xp.randomize, random.random()\n"
    )
    assert numpy_random_uses(source) == [3, 4, 5, 7]


def assert_lines(source: str):
    """Lines of the `assert` statements in source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_assert(module):
    assert assert_lines((SRC / f"{module}.py").read_text()) == []


def test_the_scan_finds_asserts():
    source = (
        "def f(x):\n"
        "    assert x > 0, 'x'\n"
        "    note = 'assert x'  # assert in a comment\n"
        "    if x:\n"
        "        assert (x, note)\n"
        "    return x\n"
        "assert f(1)\n"
    )
    assert assert_lines(source) == [2, 5, 7]
