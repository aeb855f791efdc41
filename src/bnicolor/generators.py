"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

import math
import numbers
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

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


# Pair count from which random_gnd draws its candidates with numpy. Below it
# the per-pair loop is faster when run cold, as a generator call in a fresh
# experiment runs (measured in CHANGES.md).
VECTOR_DRAW_MIN_PAIRS = 8000
_DRAW_CHUNK = 1 << 14  # pairs per generator read; larger reads raised peak RSS


def _candidate_pairs(n: int, prob: float, rng: random.Random) -> List[Tuple[int, int]]:
    """The pairs (i, j), 1 <= i < j <= n in lexicographic order, for which
    `rng.random() < prob`, drawing one `random()` per pair in that order."""
    m = n * (n - 1) // 2
    if m < VECTOR_DRAW_MIN_PAIRS:
        return [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < prob
        ]
    # random() = ((a >> 5) * 2**26 + (b >> 6)) / 2**53 for the next two 32-bit
    # Mersenne Twister words a, b; getrandbits(64 * k) returns the next 2k words
    # in draw order, the first in the lowest bits. Each little-endian 64-bit
    # lane of its bytes is therefore a + b * 2**32 for one pair, and
    # random() < prob holds exactly when the 53-bit integer is below
    # ceil(prob * 2**53) (prob * 2**53 is exact for prob in [0, 1]).
    threshold = math.ceil(prob * 2**53)
    kept = []
    for lo in range(0, m, _DRAW_CHUNK):
        k = min(_DRAW_CHUNK, m - lo)
        lanes = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
        draws = ((lanes & 0xFFFFFFFF) >> 5 << 26) | (lanes >> 38)
        kept.append(np.flatnonzero(draws < threshold) + lo)
    kept = np.concatenate(kept)
    # row i (1-based) holds the n - i pairs (i, i+1) .. (i, n), from index starts[i - 1]
    sizes = np.arange(n - 1, 0, -1)
    starts = np.cumsum(sizes) - sizes
    rows = np.searchsorted(starts, kept, side="right")
    cols = kept - starts[rows - 1] + rows + 1
    return list(zip(rows.tolist(), cols.tolist()))


def random_gnd(n: int, d: int, prob: Optional[float] = None, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, prob) conditioned to max degree <= d: candidate edges are
    visited in seeded random order and dropped when either endpoint is full.

    `prob` defaults to d / (n - 1), capped at 1, and must be a real number in
    [0, 1]. Candidate (i, j) is kept when `random.Random(seed).random() < prob`,
    one draw per pair in lexicographic order, and the kept list is then
    shuffled by the same generator. From VECTOR_DRAW_MIN_PAIRS pairs on, the
    draw reads exactly the generator words the per-pair loop would consume, in
    blocks compared with numpy, so the candidates, the generator state after
    the draw, the shuffle and the graph are the same as the loop's; below it
    the loop itself runs.
    """
    if n < 1 or d < 0:
        raise GraphError("random_gnd needs n >= 1, d >= 0")
    if prob is None:
        prob = min(1.0, d / max(n - 1, 1))
    elif isinstance(prob, bool) or not isinstance(prob, numbers.Real) or not 0 <= prob <= 1:
        raise GraphError(f"random_gnd needs prob to be a real number in [0, 1], got {prob!r}")
    rng = random.Random(seed)
    candidates = _candidate_pairs(n, prob, rng)
    rng.shuffle(candidates)
    deg = [0] * (n + 1)
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


def _need(kind: str, params: Dict, key: str):
    if key not in params:
        raise GraphError(f"{kind} needs parameter {key!r}")
    return params[key]


def generate(kind: str, params: Dict, seed: int = 0) -> Graph:
    """Dispatch by kind; `line_of` nests another generator spec under `inner`.

    A missing or non-integer size parameter raises GraphError naming it;
    integral numbers and strings that int() parses are accepted.
    """

    def size(key: str) -> int:
        value = _need(kind, params, key)
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None or not (isinstance(value, str) or number == value):
            raise GraphError(f"{kind} parameter {key} must be an integer, got {value!r}")
        return number

    if kind == "path":
        return path_graph(size("n"))
    if kind == "cycle":
        return cycle_graph(size("n"))
    if kind == "complete":
        return complete_graph(size("n"))
    if kind == "bipartite":
        return complete_bipartite(size("a"), size("b"))
    if kind == "random_gnd":
        return random_gnd(size("n"), size("d"), params.get("prob"), seed=seed)
    if kind == "line_of":
        inner = _need(kind, params, "inner")
        base = generate(_need(kind, inner, "kind"), inner.get("params", {}), seed=seed)
        return build_line_graph(base).lg
    if kind == "clique_pendant":
        return clique_pendant(size("n"))
    if kind == "hypergraph_line":
        return hypergraph_line(size("r"), size("n"), size("ground"), seed=seed)
    raise GraphError(f"unknown generator kind {kind!r}; known: {', '.join(KINDS)}")
