"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from bnicolor.graph import Graph, graph_from_edges


@st.composite
def small_graphs(draw, min_n: int = 1, max_n: int = 10):
    """Arbitrary simple graphs on 1..n with a drawn edge subset."""
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if not possible:
        return graph_from_edges(n, [])
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return graph_from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 10):
    """Random tree plus extra edges: connected, arbitrary density."""
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**16)))
    edges = {(min(v, rng.randint(1, v - 1)), v) for v in range(2, n + 1)}
    extra = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(extra), unique=True, max_size=10))) if extra else set()
    return graph_from_edges(n, sorted(edges))


def spread_ids(g: Graph, seed: int = 0) -> Graph:
    """g with its vertices renamed, in order, to distinct random Ids below
    2**40 and the largest one to 2**40."""
    ids = sorted(random.Random(seed).sample(range(1, 2**40), g.n - 1)) + [2**40]
    new = dict(zip(g.vertices, ids))
    return Graph(ids, [(new[u], new[w]) for u, w in g.edges()])


def canonical(obj):
    """JSON-ready copy with str dict keys and lists for tuples."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


@pytest.fixture
def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return graph_from_edges(10, outer + spokes + inner)
