"""Every name a module of src/bnicolor imports is used in that module.

An AST name scan, so that deleting a helper cannot leave a dead import
behind. `__init__.py` re-exports by importing and is exempt. The names the
benchmark's layer wrappers replace (`bench/spans.py`) are looked up in the
module that imports them, so they stay bound there even where the module's
own code no longer calls them.

A second scan keeps `numpy.random` out of the library: its one random draw
is `legal.draw_classes`, a Philox over numpy arrays. A third keeps `assert`
statements out: `python -O` strips them, so a guarantee the library relies on
must raise an error instead. A fourth keeps dead definitions out: every
module-level function or class must be reached from `bnicolor.__all__`,
from a module's top-level code or from one of the few that `UNREACHED_OK`
keeps on purpose. A fifth keeps closure cells out of the generators that
the vertex programs keep suspended between steps (see
`tests/test_legal.py::TestGeneratorRules` for what a cell costs there). A
sixth keeps reads of a graph's `id_bound` inside `graph.py`: every other
module takes N from `graph.knowledge`. A seventh keeps the plan arithmetic,
the calls of `recursion_schedule` and `smallest_pprime`, inside `legal.py`,
and those of `linial_schedule` and `step_plan` inside `legal.py` and
`numbers.py`: every plan sized by a schedule comes from `legal.legal_plan`,
and every level from `legal.level_plans`. An eighth keeps
reads of `_fill` and `__new__` (as in `Graph.__new__`) inside `graph.py`:
every other module gets a graph from the validating constructor or from
`graph.graph_from_sorted_adjacency`.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from bnicolor.edgecolor import EdgeColorProgram
from bnicolor.legal import RecursiveColorProgram

SRC = Path(__file__).resolve().parents[1] / "src" / "bnicolor"
ALL_MODULES = sorted(p.stem for p in SRC.glob("*.py"))
MODULES = [m for m in ALL_MODULES if m != "__init__"]

# module -> names bench/spans.py patches in it (bench/measure.py times setup
# through the `experiment.generate` patch)
PATCHED = {
    "base": ("run", "choose_point", "poly_eval"),
    "edgecolor": ("run", "poly_eval", "build_line_graph", "conflict_bitmap"),
    "experiment": ("generate",),
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


def attribute_reads(source: str, attr: str):
    """Lines that read the attribute `attr` off any object."""
    tree = ast.parse(source)
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load)
    )


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "graph"])
def test_only_graph_reads_the_id_bound(module):
    """A route learns the Id bound N from `graph.knowledge`, which applies the
    clamps every plan needs, never from the graph itself."""
    assert attribute_reads((SRC / f"{module}.py").read_text(), "id_bound") == []


def test_the_scan_finds_id_bound_reads():
    source = (
        "def f(g, lgm):\n"
        "    n0 = max(g.id_bound, 1)\n"
        "    note = 'g.id_bound'  # g.id_bound in a comment\n"
        "    g.id_bound = 3\n"
        "    return lgm.lg.id_bound, getattr(g, 'id_bound')\n"
    )
    assert attribute_reads(source, "id_bound") == [2, 5]


def call_lines(source: str, names):
    """Lines that call a function named in names, by name or as an attribute."""
    tree = ast.parse(source)
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", getattr(n.func, "attr", None)) in names
    )


def fill_bypasses(source: str):
    """Lines that read `_fill` or `__new__` off any object."""
    return sorted(set(attribute_reads(source, "_fill") + attribute_reads(source, "__new__")))


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "graph"])
def test_only_graph_fills_a_graph(module):
    """A graph built without the validating constructor comes from
    `graph.graph_from_sorted_adjacency`, the one unchecked entry point."""
    assert fill_bypasses((SRC / f"{module}.py").read_text()) == []


def test_the_scan_finds_fill_bypasses():
    source = (
        "from graph import Graph\n"
        "def f(adj, g):\n"
        "    lg = Graph.__new__(Graph)\n"
        "    note = 'lg._fill(adj)'  # lg._fill(adj) in a comment\n"
        "    lg._fill(adj)\n"
        "    fill, new = g._fill, object.__new__(Graph)\n"
        "    return lg, fill, new, g.fill(adj)\n"
    )
    assert fill_bypasses(source) == [3, 5, 6]


# plan-arithmetic function -> the modules that may call it
PLAN_ARITHMETIC = {
    "recursion_schedule": ("legal",),
    "smallest_pprime": ("legal",),
    "linial_schedule": ("legal", "numbers"),
    "step_plan": ("legal", "numbers"),
}


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "legal"])
def test_only_legal_calls_the_plan_arithmetic(module):
    """A route sizes its levels through `legal.legal_plan` or
    `legal.level_plans`, never from the schedule or a step plan itself;
    `numbers` builds its Linial schedule from step plans."""
    banned = [name for name, homes in PLAN_ARITHMETIC.items() if module not in homes]
    assert call_lines((SRC / f"{module}.py").read_text(), banned) == []


def test_the_scan_finds_plan_arithmetic_calls():
    source = (
        "from params import recursion_schedule\n"
        "def f(params, delta, legal):\n"
        "    schedule = recursion_schedule(params, delta)\n"
        "    note = 'smallest_pprime(9, 2)'  # smallest_pprime(9, 2) in a comment\n"
        "    pp = legal.smallest_pprime(schedule[0], 2)\n"
        "    plans = numbers.linial_schedule(9, 2) + [step_plan(9, 2, 1)]\n"
        "    return recursion_schedule, [smallest_pprime(L, 0) for L in schedule]\n"
    )
    assert call_lines(source, PLAN_ARITHMETIC) == [3, 5, 6, 6, 7]
    assert call_lines(source, ["step_plan"]) == [6]


# module-level definitions that nothing in src/bnicolor reaches, kept on purpose
UNREACHED_OK = {
    # the radius-r ball a locality audit reruns a route on (ROADMAP item 3)
    "ball",
    # the oracle for the class-subgraph claim of the defective step (criterion 3)
    "greedy_color_by_key",
}


def unreached_definitions(sources, roots=()):
    """Module-level functions and classes of `sources` (module -> text) that
    live code never names. Live code is every top-level statement that is not
    a definition, plus the definitions named in `roots` and, transitively,
    those that live code names; an import alone names nothing."""
    defs, todo = {}, list(roots)
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                todo.extend(_used(node))
    live = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in live:
            live.add(name)
            for node in defs[name]:
                todo.extend(_used(node))
    return sorted(set(defs) - live)


def test_every_definition_is_reached():
    import bnicolor

    sources = {m: (SRC / f"{m}.py").read_text() for m in ALL_MODULES}
    assert unreached_definitions(sources, [*bnicolor.__all__, *UNREACHED_OK]) == []
    reached = UNREACHED_OK.difference(unreached_definitions(sources, bnicolor.__all__))
    assert not reached, f"reached now, drop from UNREACHED_OK: {sorted(reached)}"


def test_the_scan_finds_dead_definitions():
    sources = {
        "a": "from b import helper\nclass Kept: pass\nTABLE = {'k': used}\n",
        "b": (
            "def used(x: 'Kept'):\n    return helper(x)\n"
            "def helper(x):\n    return x\n"
            "class Dead:\n    pass\n"
            "def only_dead(d: Dead):\n    return d\n"
            "def exported():\n    pass\n"
        ),
    }
    assert unreached_definitions(sources) == ["Dead", "exported", "only_dead"]
    assert unreached_definitions(sources, ["exported"]) == ["Dead", "only_dead"]


# the generators that vertex programs keep suspended between steps
GENERATORS = [
    f
    for cls in (RecursiveColorProgram, EdgeColorProgram)
    for f in vars(cls).values()
    if inspect.isgeneratorfunction(f)
]


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda f: f.__qualname__)
def test_generator_body_has_no_cell(gen):
    """A comprehension or lambda in a generator's body makes every local it
    reads a closure cell (Python 3.10 and 3.11), held once per suspended run."""
    assert gen.__code__.co_cellvars == ()

