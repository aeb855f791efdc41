import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.coloring import (
    ColoringError,
    EdgeColoring,
    VertexColoring,
    parse_edge_coloring,
    parse_vertex_coloring,
)
from bnicolor.generators import complete_graph, cycle_graph

from oracles import format_edge_coloring, format_vertex_coloring


class TestVertexColoring:
    def test_colors_used_and_classes(self):
        col = VertexColoring({1: 2, 2: 2, 3: 1}, palette=3, claimed_defect=0)
        assert col.colors_used() == 2
        assert col.classes() == {1: [3], 2: [1, 2]}

    def test_roundtrip(self):
        col = VertexColoring({1: 3, 2: 1, 3: 2}, palette=4, claimed_defect=1)
        back = parse_vertex_coloring(format_vertex_coloring(col))
        assert back == col

    @given(
        st.dictionaries(st.integers(1, 30), st.integers(1, 9), min_size=1),
        st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, colors, defect):
        col = VertexColoring(colors, max(colors.values()), defect)
        assert parse_vertex_coloring(format_vertex_coloring(col)) == col

    @pytest.mark.parametrize("text", ["", "palette x defect 0\n", "palette 2\n1 1"])
    def test_rejects_malformed(self, text):
        with pytest.raises((ColoringError, ValueError)):
            parse_vertex_coloring(text)


class TestEdgeColoring:
    def test_roundtrip(self):
        g = cycle_graph(4)
        col = EdgeColoring({e: 1 + i % 2 for i, e in enumerate(g.edges())}, 2, 0)
        back = parse_edge_coloring(g, format_edge_coloring(g, col))
        assert back == col

    def test_format_requires_total_coloring(self):
        g = complete_graph(3)
        with pytest.raises(ColoringError):
            format_edge_coloring(g, EdgeColoring({(1, 2): 1}, 1, 0))
