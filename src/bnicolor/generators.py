"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

import random
from typing import Dict, Optional

from .graph import Graph, GraphError, build_line_graph, graph_from_edges

KINDS = (
    "path",
    "cycle",
    "complete",
    "bipartite",
    "random_gnd",
    "line_of",
    "clique_pendant",
    "hypergraph_line",
)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A = 1..a, side B = a+1..a+b."""
    if a < 1 or b < 1:
        raise GraphError("bipartite needs a, b >= 1")
    return graph_from_edges(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def random_gnd(n: int, d: int, prob: Optional[float] = None, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, prob) conditioned to max degree <= d: candidate edges are
    visited in seeded random order and dropped when either endpoint is full."""
    if n < 1 or d < 0:
        raise GraphError("random_gnd needs n >= 1, d >= 0")
    if prob is None:
        prob = min(1.0, d / max(n - 1, 1))
    rng = random.Random(seed)
    candidates = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < prob
    ]
    rng.shuffle(candidates)
    deg = {v: 0 for v in range(1, n + 1)}
    edges = []
    for u, w in candidates:
        if deg[u] < d and deg[w] < d:
            edges.append((u, w))
            deg[u] += 1
            deg[w] += 1
    return graph_from_edges(n, edges)


def clique_pendant(n: int) -> Graph:
    """n/2-clique with one pendant per clique vertex; I(G) = 2, delta = n/2."""
    if n < 4 or n % 2:
        raise GraphError("clique_pendant needs even n >= 4")
    half = n // 2
    edges = [(i, j) for i in range(1, half + 1) for j in range(i + 1, half + 1)]
    edges += [(i, half + i) for i in range(1, half + 1)]
    return graph_from_edges(n, edges)


def hypergraph_line(
    r: int, n_hyperedges: int, ground: int, seed: int = 0
) -> Graph:
    """Intersection graph of random hyperedges of size <= r over a ground set.

    Result vertices are the hyperedges; adjacency = shared ground vertex, so
    neighborhood independence <= r (independent neighbors of e must hit e in
    distinct ground points).
    """
    if r < 2 or n_hyperedges < 1 or ground < r:
        raise GraphError("hypergraph_line needs r >= 2, ground >= r, n_hyperedges >= 1")
    rng = random.Random(seed)
    hyperedges = []
    attempts = 0
    while len(hyperedges) < n_hyperedges:
        attempts += 1
        if attempts > 100 * n_hyperedges:
            raise GraphError("could not draw enough distinct hyperedges")
        size = rng.randint(2, r)
        he = frozenset(rng.sample(range(ground), size))
        if he not in hyperedges:
            hyperedges.append(he)
    edges = [
        (i, j)
        for i in range(1, n_hyperedges + 1)
        for j in range(i + 1, n_hyperedges + 1)
        if hyperedges[i - 1] & hyperedges[j - 1]
    ]
    return graph_from_edges(n_hyperedges, edges)


def generate(kind: str, params: Dict, seed: int = 0) -> Graph:
    """Dispatch by kind; `line_of` nests another generator spec under `inner`."""
    if kind == "path":
        return path_graph(int(params["n"]))
    if kind == "cycle":
        return cycle_graph(int(params["n"]))
    if kind == "complete":
        return complete_graph(int(params["n"]))
    if kind == "bipartite":
        return complete_bipartite(int(params["a"]), int(params["b"]))
    if kind == "random_gnd":
        return random_gnd(
            int(params["n"]), int(params["d"]), params.get("prob"), seed=seed
        )
    if kind == "line_of":
        inner = params["inner"]
        base = generate(inner["kind"], inner.get("params", {}), seed=seed)
        return build_line_graph(base).lg
    if kind == "clique_pendant":
        return clique_pendant(int(params["n"]))
    if kind == "hypergraph_line":
        return hypergraph_line(
            int(params["r"]),
            int(params["n"]),
            int(params["ground"]),
            seed=seed,
        )
    raise GraphError(f"unknown generator kind {kind!r}; known: {', '.join(KINDS)}")
