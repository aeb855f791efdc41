import re
import warnings
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.graph import (
    Graph,
    GraphError,
    ball,
    build_line_graph,
    format_edge_list,
    graph_from_edges,
    independence_at_most,
    induced_subgraph,
    neighborhood_independence,
    orient_by_color_then_id,
    parse_edge_list,
)
from bnicolor.generators import clique_pendant, complete_graph, cycle_graph

from conftest import small_graphs


class TestGraphCore:
    def test_basic_properties(self):
        g = graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert g.n == 4 and g.m == 3 and g.delta == 2
        assert g.neighbors(2) == (1, 3)
        assert g.has_edge(1, 2) and not g.has_edge(1, 3)
        assert g.edges() == [(1, 2), (2, 3), (3, 4)]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            graph_from_edges(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            graph_from_edges(2, [(1, 2), (2, 1)])

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(GraphError):
            Graph([0, 1], [])

    @pytest.mark.parametrize(
        "vertices,bad",
        [([1.5, 2], "1.5"), ([1, 2.0], "2.0"), ([3, "1", 2], "'1'"), ([1, None, 0.5], "None")],
    )
    def test_rejects_non_integer_ids(self, vertices, bad):
        """The first Id in input order that is not an integer is named."""
        with pytest.raises(GraphError, match=f"must be positive integers, got {re.escape(bad)}$"):
            Graph(vertices, [])

    def test_rejects_non_integer_ids_before_edges(self):
        with pytest.raises(GraphError, match="got 1.5$"):
            Graph([1.5, 2], [(1.5, 2)])

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(1.0, 2)], "edge (1.0,2) has a non-integer endpoint"),
            ([(1, 2), (3, Fraction(2))], "edge (3,Fraction(2, 1)) has a non-integer endpoint"),
            ([(2, 3), (1, 2.5)], "edge (1,2.5) has a non-integer endpoint"),
            ([(Decimal(1), 2), (1.0, 3)], "edge (Decimal('1'),2) has a non-integer endpoint"),
            ([(3, 3), (1.0, 2)], "self-loop at 3"),
            ([(1, 2), ([1], 3)], "edge ([1],3) has a non-integer endpoint"),
        ],
    )
    def test_rejects_non_integer_endpoints(self, edges, message):
        """An endpoint equal to a vertex Id but not an integer is refused like
        a non-integer vertex Id; the first bad edge in input order is named."""
        for given_edges in (edges, iter(edges)):
            with pytest.raises(GraphError) as got:
                Graph([1, 2, 3], given_edges)
            assert str(got.value) == message

    def test_accepts_integral_id_types(self):
        g = Graph([np.int64(3), 1, True], [(1, 3)])
        assert g.vertices == (1, 3) and g.has_edge(1, 3) and g.id_bound == 3
        g = Graph([1, 2, 3], [(np.int64(1), 3), (2, np.uint8(3))])
        assert g.has_edge(1, 3) and g.has_edge(2, 3)
        big = [np.int64(2**62 + i) for i in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning
            g = Graph(big, [(big[0], big[1]), (big[0], big[2])])
            assert g.degree(big[0]) == 2
            # a numpy Id next to Python Ids past int64's range
            g = Graph([np.int64(1), 2**63], [(np.int64(1), 2**63)])
            assert g.has_edge(1, 2**63) and g.id_bound == 2**63
            huge = [np.int64(1), 2**62, 2**62 + 1, 2**62 + 2]
            g = Graph(huge, [(huge[1], huge[2]), (huge[1], huge[3]), (huge[0], huge[1])])
            assert g.degree(2**62) == 3

    def test_induced_subgraph_keeps_ids(self):
        g = complete_graph(5)
        h = induced_subgraph(g, {2, 4, 5})
        assert h.vertices == (2, 4, 5)
        assert h.m == 3

    def test_ball_radius(self):
        g = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert set(ball(g, 1, 2).vertices) == {1, 2, 3}
        assert set(ball(g, 3, 1).vertices) == {2, 3, 4}


def _frozen_graph(vertices, edges):
    """Graph.__init__ as it was before the bulk checks, the reference: one
    check per edge, returning (vertices, adj, delta, id_bound)."""
    vs = sorted(set(vertices))
    if any(v <= 0 for v in vs):
        raise GraphError("vertex Ids must be positive integers")
    vset = set(vs)
    adj: Dict[int, List[int]] = {v: [] for v in vs}
    seen = set()
    for u, w in edges:
        if u == w:
            raise GraphError(f"self-loop at {u}")
        if u not in vset or w not in vset:
            raise GraphError(f"edge ({u},{w}) uses unknown vertex")
        key = (u, w) if u < w else (w, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(w)
        adj[w].append(u)
    adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
    return tuple(vs), adj, max((len(ns) for ns in adj.values()), default=0), vs[-1] if vs else 0


@st.composite
def _edge_inputs(draw):
    """Vertex sets with edge lists that may hold self-loops, unknown or
    non-positive Ids, duplicates and reversed duplicates."""
    vertices = draw(st.sets(st.integers(1, 9), max_size=8) | st.sets(st.integers(-1, 9), max_size=3))
    pool = st.sampled_from(sorted(vertices) or [1])
    ids = st.integers(-1, 11)
    edges = draw(st.lists(st.tuples(pool, pool) | st.tuples(ids, ids), max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    if edges and draw(st.booleans()):
        u, w = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (w, u))
    return vertices, edges


class TestGraphMatchesFrozenConstructor:
    @given(_edge_inputs(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_graph_or_same_error(self, inputs, as_generator):
        vertices, edges = inputs
        try:
            expected = _frozen_graph(vertices, edges)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                Graph(vertices, (e for e in edges) if as_generator else edges)
            assert str(got.value) == str(exc)
            return
        g = Graph(vertices, (e for e in edges) if as_generator else edges)
        assert (g.vertices, g.adj, g.delta, g.id_bound) == expected
        assert all(g.has_edge(u, w) == (w in g.adj[u]) for u in g.vertices for w in g.vertices)

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(1, 2), (3, 3), (1, 9)], "self-loop at 3"),
            ([(1, 2), (1, 9), (3, 3)], "edge (1,9) uses unknown vertex"),
            ([(2, 3), (1, 2), (3, 2), (4, 4)], "duplicate edge (2, 3)"),
            ([(1, 2), (2, 1)], "duplicate edge (1, 2)"),
            ([(9, 9)], "self-loop at 9"),
        ],
    )
    def test_first_bad_edge_named(self, edges, message):
        for given_edges in (edges, iter(edges)):
            with pytest.raises(GraphError) as got:
                graph_from_edges(4, given_edges)
            assert str(got.value) == message


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = complete_graph(4)
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "2 1\n2 1", "2 2\n1 2", "3 1\n3 1"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises((GraphError, ValueError)):
            parse_edge_list(text)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


class TestLineGraph:
    def test_line_of_k4(self):
        lgm = build_line_graph(complete_graph(4))
        assert lgm.lg.n == 6
        assert lgm.lg.delta == 4
        assert lgm.edge_of[1] == (1, 2)
        assert lgm.vertex_of[(1, 2)] == 1

    def test_line_of_path(self):
        lgm = build_line_graph(graph_from_edges(4, [(1, 2), (2, 3), (3, 4)]))
        assert lgm.lg.edges() == [(1, 2), (2, 3)]

    @given(small_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_line_graph_degree_bound(self, g):
        # an edge (u,w) meets at most (deg u - 1) + (deg w - 1) other edges
        lg = build_line_graph(g).lg
        if g.delta >= 1:
            assert lg.delta <= 2 * (g.delta - 1)

    @given(small_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_line_graph_independence_at_most_2(self, g):
        lg = build_line_graph(g).lg
        if lg.n:
            assert independence_at_most(lg, 2)


def _frozen_build_line_graph(g):
    """build_line_graph as it was before itertools.combinations, the reference."""
    edges = g.edges()
    rank = {e: i + 1 for i, e in enumerate(edges)}
    lg_edges = []
    for v in g.vertices:
        inc = [rank[(v, w) if v < w else (w, v)] for w in g.adj[v]]
        inc.sort()
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                lg_edges.append((inc[i], inc[j]))
    return Graph(range(1, len(edges) + 1), lg_edges), dict(enumerate(edges, 1))


class TestLineGraphMatchesFrozen:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_same_line_graph_and_edge_map(self, g):
        lgm = build_line_graph(g)
        lg, edge_of = _frozen_build_line_graph(g)
        assert lgm.lg == lg and lgm.lg.delta == lg.delta
        assert lgm.edge_of == edge_of
        assert lgm.vertex_of == {e: v for v, e in edge_of.items()}


class TestIndependence:
    def test_known_values(self, petersen):
        assert neighborhood_independence(petersen) == 3
        assert neighborhood_independence(complete_graph(5)) == 1
        assert neighborhood_independence(cycle_graph(5)) == 2
        assert neighborhood_independence(clique_pendant(8)) == 2
        star = graph_from_edges(6, [(1, k) for k in range(2, 7)])
        assert neighborhood_independence(star) == 5

    def test_edgeless_is_zero(self):
        assert neighborhood_independence(graph_from_edges(3, [])) == 0

    @given(small_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_threshold_consistency(self, g):
        i = neighborhood_independence(g)
        assert independence_at_most(g, i)
        if i > 0:
            assert not independence_at_most(g, i - 1)

    @given(small_graphs(min_n=2, max_n=7), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_induced_subgraphs(self, g, seed):
        import random

        if g.m == 0:
            return
        sub = random.Random(seed).sample(g.vertices, max(2, g.n // 2))
        h = induced_subgraph(g, sub)
        if h.m == 0:
            return
        assert neighborhood_independence(h) <= neighborhood_independence(g)


class TestOrientation:
    @given(small_graphs(max_n=9), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_color_orientation_acyclic(self, g, palette):
        colors = {v: 1 + (v * 7) % palette for v in g.vertices}
        o = orient_by_color_then_id(g, colors)
        assert o.is_acyclic()
        order = o.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for (u, w), head in o.direction.items():
            tail = u if head == w else w
            assert pos[head] < pos[tail]

    def test_cycle_detected(self):
        g = cycle_graph(3)
        from bnicolor.graph import Orientation

        o = Orientation(g, {(1, 2): 2, (2, 3): 3, (1, 3): 1})
        assert not o.is_acyclic()
        with pytest.raises(GraphError):
            o.topological_order()

    def test_missing_color_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(GraphError):
            orient_by_color_then_id(g, {1: 1, 2: 2})
