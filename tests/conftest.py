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


def recording(run, transcripts):
    """`run` (`sim.run`, or a stand-in with its signature) that records every
    call's messages: each call appends a list to `transcripts` and passes an
    `on_send` that adds one row (round, sender, dst, bits) to it per
    destination of each batch run, in delivery order, and hands the call on
    to the caller's own `on_send`, if any. The list is appended before the run
    starts, so a run that raises leaves the rows it sent."""

    def recorded_run(*args, on_send=None, **kwargs):
        rows = []
        transcripts.append(rows)

        def record(rnd, src, dsts, bits):
            rows.extend((rnd, src, dst, bits) for dst in dsts)
            if on_send is not None:
                on_send(rnd, src, dsts, bits)

        return run(*args, on_send=record, **kwargs)

    return recorded_run


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
