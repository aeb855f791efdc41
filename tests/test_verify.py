import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.coloring import EdgeColoring, VertexColoring
from bnicolor.generators import complete_graph, cycle_graph, path_graph
from bnicolor.graph import graph_from_edges, orient_by_color_then_id
from bnicolor.verify import (
    brute_chromatic_number,
    check_defect_pigeonhole,
    check_edge_coloring,
    check_vertex_coloring,
    greedy_color_along_orientation,
)

from conftest import small_graphs


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


class TestGreedyOrientation:
    @given(small_graphs(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_legal_and_within_outdegree(self, g):
        base = {v: v for v in g.vertices}  # ids are a legal coloring
        o = orient_by_color_then_id(g, base)
        col = greedy_color_along_orientation(g, o)
        assert check_vertex_coloring(g, col).legal
        assert max(col.colors.values(), default=1) <= o.max_out_degree() + 1


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
