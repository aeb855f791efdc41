import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.coloring import EdgeColoring, VertexColoring
from bnicolor.generators import complete_graph, cycle_graph, path_graph
from bnicolor.graph import graph_from_edges
from bnicolor.verify import (
    VerificationReport,
    brute_chromatic_number,
    check_edge_coloring,
    check_vertex_coloring,
    greedy_color_by_key,
)

from conftest import small_graphs
from oracles import check_defect_pigeonhole


class TestVertexChecker:
    def test_legal_coloring(self):
        g = cycle_graph(4)
        rep = check_vertex_coloring(g, VertexColoring({1: 1, 2: 2, 3: 1, 4: 2}, 2, 0))
        assert rep.legal and rep.ok
        assert rep.measured_defect == 0
        assert rep.palette_used == 2

    def test_measures_defect(self):
        g = complete_graph(3)
        rep = check_vertex_coloring(g, VertexColoring({1: 1, 2: 1, 3: 2}, 2, 1))
        assert not rep.legal
        assert rep.measured_defect == 1
        assert rep.ok  # within the claimed defect

    def test_claimed_defect_violation(self):
        g = complete_graph(3)
        rep = check_vertex_coloring(g, VertexColoring({1: 1, 2: 1, 3: 1}, 1, 1))
        assert rep.measured_defect == 2
        assert not rep.ok
        assert any(claim == "claimed-defect-exceeded" for claim, _ in rep.violated)

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            check_vertex_coloring(path_graph(3), VertexColoring({1: 1}, 1, 0))

    def test_rejects_vertices_outside_the_graph(self):
        col = VertexColoring({1: 1, 2: 2, 3: 1, 4: 2, 99: 1}, 2, 0)
        with pytest.raises(ValueError, match="99"):
            check_vertex_coloring(cycle_graph(4), col)

    def test_checker_is_pure(self):
        g = cycle_graph(5)
        col = VertexColoring({v: 1 + v % 2 for v in g.vertices}, 2, 0)
        before = dict(col.colors)
        check_vertex_coloring(g, col)
        assert col.colors == before

    def test_json_stable(self):
        g = cycle_graph(4)
        col = VertexColoring({1: 1, 2: 2, 3: 1, 4: 2}, 2, 0)
        assert check_vertex_coloring(g, col).to_json() == check_vertex_coloring(g, col).to_json()


class TestEdgeChecker:
    def test_legal_edge_coloring(self):
        g = path_graph(3)
        rep = check_edge_coloring(g, EdgeColoring({(1, 2): 1, (2, 3): 2}, 2, 0))
        assert rep.legal and rep.measured_defect == 0

    def test_incident_conflict_measured(self):
        g = path_graph(3)
        rep = check_edge_coloring(g, EdgeColoring({(1, 2): 1, (2, 3): 1}, 1, 0))
        assert not rep.legal
        assert rep.measured_defect == 1

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            check_edge_coloring(path_graph(3), EdgeColoring({(1, 2): 1}, 1, 0))

    def test_rejects_pairs_outside_the_graph(self):
        col = EdgeColoring({(1, 2): 1, (2, 3): 2, (1, 3): 3}, 3, 0)
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            check_edge_coloring(path_graph(3), col)


def _frozen_check_vertex_coloring(g, col):
    """`check_vertex_coloring` as it was before both checkers shared one
    scan, verbatim, kept as an oracle."""
    missing = [v for v in g.vertices if v not in col.colors]
    if missing:
        raise ValueError(f"partial coloring, uncolored vertices: {missing[:10]}")
    if len(col.colors) != g.n:
        extra = sorted(v for v in col.colors if v not in g.adj)
        raise ValueError(f"coloring names vertices the graph lacks: {extra[:10]}")
    violated = []
    defect = 0
    worst = None
    for v in g.vertices:
        same = sum(1 for u in g.adj[v] if col.colors[u] == col.colors[v])
        if same > defect:
            defect, worst = same, v
    legal = defect == 0
    for v in g.vertices:
        if not (1 <= col.colors[v] <= col.palette):
            violated.append(("palette-overflow", (v, col.colors[v])))
    if defect > col.claimed_defect:
        violated.append(("claimed-defect-exceeded", worst))
    return VerificationReport(legal, defect, col.colors_used(), violated)


def _frozen_check_edge_coloring(g, col):
    """`check_edge_coloring` as it was before both checkers shared one scan
    (an O(m * delta) rescan of each edge's neighborhood), verbatim."""
    edges = g.edges()
    missing = [e for e in edges if e not in col.colors]
    if missing:
        raise ValueError(f"partial coloring, uncolored edges: {missing[:10]}")
    if len(col.colors) != len(edges):
        known = set(edges)
        extra = sorted(e for e in col.colors if e not in known)
        raise ValueError(f"coloring names pairs that are not edges of the graph: {extra[:10]}")
    violated = []
    defect = 0
    worst = None
    for u, w in edges:
        k = col.colors[(u, w)]
        same = 0
        for v in (u, w):
            other = w if v == u else u
            for z in g.adj[v]:
                if z == other:
                    continue
                e2 = (v, z) if v < z else (z, v)
                if col.colors[e2] == k:
                    same += 1
        if same > defect:
            defect, worst = same, (u, w)
    legal = defect == 0
    for e in edges:
        if not (1 <= col.colors[e] <= col.palette):
            violated.append(("palette-overflow", (e, col.colors[e])))
    if defect > col.claimed_defect:
        violated.append(("claimed-defect-exceeded", worst))
    used = len(set(col.colors.values()))
    return VerificationReport(legal, defect, used, violated)


def _outcome(check, g, col):
    try:
        return check(g, col).to_dict()
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def _colorings(draw, edge):
    """A graph and a vertex or edge coloring of it with few colors (so with
    defects), colors outside the palette, and at times uncolored items and
    items the graph lacks: other Ids, non-edges, reversed edges and pairs
    with an endpoint that is no vertex."""
    g = draw(small_graphs(max_n=8))
    items = g.edges() if edge else list(g.vertices)
    palette = draw(st.integers(0, 4))
    colors = {x: draw(st.integers(-1, palette + 1)) for x in items}
    if items and draw(st.integers(0, 3)) == 0:
        for x in draw(st.sets(st.sampled_from(items), min_size=1)):
            del colors[x]
    if draw(st.integers(0, 3)) == 0:
        ids = st.integers(-1, g.n + 2)
        outside = st.tuples(ids, ids) if edge else ids
        for x in draw(st.lists(outside, min_size=1, max_size=3)):
            if x not in colors and (not edge or x[0] != x[1]):
                colors[x] = draw(st.integers(1, 3))
    made = EdgeColoring if edge else VertexColoring
    return g, made(colors, palette, draw(st.integers(0, 3)))


class TestCheckersMatchFrozen:
    @given(_colorings(edge=False))
    @settings(max_examples=300, deadline=None)
    def test_vertex_checker(self, drawn):
        g, col = drawn
        got = _outcome(check_vertex_coloring, g, col)
        assert got == _outcome(_frozen_check_vertex_coloring, g, col)

    @given(_colorings(edge=True))
    @settings(max_examples=300, deadline=None)
    def test_edge_checker(self, drawn):
        g, col = drawn
        got = _outcome(check_edge_coloring, g, col)
        assert got == _outcome(_frozen_check_edge_coloring, g, col)


class TestBruteChromatic:
    @pytest.mark.parametrize(
        "maker,expect",
        [
            (lambda: path_graph(5), 2),
            (lambda: cycle_graph(5), 3),
            (lambda: cycle_graph(6), 2),
            (lambda: complete_graph(4), 4),
            (lambda: graph_from_edges(3, []), 1),
        ],
    )
    def test_known_values(self, maker, expect):
        assert brute_chromatic_number(maker()) == expect

    def test_petersen(self, petersen):
        assert brute_chromatic_number(petersen) == 3

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_chromatic_number(path_graph(15))

    @given(small_graphs(max_n=8))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, g):
        chi = brute_chromatic_number(g)
        assert chi <= g.delta + 1
        if g.m:
            assert chi >= 2


def _orient_then_greedy(g, key):
    """Reference copy of the orient-then-greedy pair `greedy_color_by_key`
    replaced: orient every edge toward its smaller (key, Id) end, sort
    topologically (heads first, a heap of Ids breaking ties), and give each
    vertex the smallest color its out-neighbors lack. Returns (colors,
    largest out-degree + 1)."""
    head = {(u, w): u if (key[u], u) < (key[w], w) else w for u, w in g.edges()}

    def outs(v):
        return [w for w in g.adj[v] if head[(min(v, w), max(v, w))] == w]

    remaining = {v: len(outs(v)) for v in g.vertices}
    ready = [v for v, d in remaining.items() if d == 0]
    heapq.heapify(ready)
    colors = {}
    while ready:
        v = heapq.heappop(ready)
        used = {colors[u] for u in outs(v)}
        colors[v] = min(k for k in range(1, len(used) + 2) if k not in used)
        for w in g.adj[v]:
            if head[(min(v, w), max(v, w))] == v:
                remaining[w] -= 1
                if remaining[w] == 0:
                    heapq.heappush(ready, w)
    assert len(colors) == g.n
    return colors, max((len(outs(v)) for v in g.vertices), default=0) + 1


class TestGreedyOrientation:
    @given(small_graphs(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_legal_and_within_outdegree(self, g):
        col = greedy_color_by_key(g, {v: v for v in g.vertices})  # Ids are a legal coloring
        assert check_vertex_coloring(g, col).legal
        out_degree = max((sum(u < v for u in g.adj[v]) for v in g.vertices), default=0)
        assert max(col.colors.values(), default=1) <= out_degree + 1 == col.palette

    @given(small_graphs(max_n=9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_orient_then_greedy(self, g, data):
        keys = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))  # with ties
        key = dict(zip(g.vertices, keys))
        col = greedy_color_by_key(g, key)
        assert (col.colors, col.palette) == _orient_then_greedy(g, key)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match=r"key misses vertices: \[3\]"):
            greedy_color_by_key(cycle_graph(3), {1: 1, 2: 2})


class TestPigeonhole:
    def test_bound_holds_for_balanced_split(self):
        g = cycle_graph(6)
        phi = VertexColoring({v: v for v in g.vertices}, 6, 0)
        psi = VertexColoring({v: 1 + v % 2 for v in g.vertices}, 2, 0)
        rep = check_defect_pigeonhole(g, phi, psi, p=2, Lambda=2)
        assert not rep.violated

    def test_detects_violation(self):
        g = complete_graph(4)
        phi = VertexColoring({v: v for v in g.vertices}, 4, 0)
        psi = VertexColoring({v: 1 for v in g.vertices}, 1, 0)
        rep = check_defect_pigeonhole(g, phi, psi, p=4, Lambda=3)
        assert rep.violated
