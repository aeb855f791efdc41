"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

import math
import numbers
import random
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Graph, GraphError, build_line_graph, graph_from_edges, graph_from_sorted_adjacency
from .params import ParamReader

KINDS = ("path", "cycle", "complete", "bipartite", "random_gnd", "line_of", "clique_pendant",
         "hypergraph_line")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete needs n >= 1")
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


def _candidate_pairs(
    ids: List[int], prob: float, rng: random.Random
) -> Tuple[List[int], List[int]]:
    """The pairs (i, j), 1 <= i < j <= n in lexicographic order, for which
    `rng.random() < prob`, one draw per pair in that order, as two lists: the
    i's and the j's. Every entry is the object in `ids` (`list(range(n + 1))`),
    so one int object stands for each Id.

    From VECTOR_DRAW_MIN_PAIRS pairs on, numpy compares the generator words the
    per-pair loop would read, in `getrandbits` blocks, so the pairs and the
    generator state after the draw are the loop's. Its index -> (i, j) mapping
    is checked with an explicit raise: every pair in 1 <= i < j <= n, strictly
    increasing, so none is unknown, a self-loop or a repeat.
    """
    n = len(ids) - 1
    m = n * (n - 1) // 2
    if m < VECTOR_DRAW_MIN_PAIRS:
        us, ws = [], []
        for i in ids[1:]:
            for j in ids[i + 1 :]:
                if rng.random() < prob:
                    us.append(i)
                    ws.append(j)
        return us, ws
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
    # within the range, i * (n + 1) + j orders the pairs lexicographically
    in_range = (1 <= rows) & (rows < cols) & (cols <= n)
    if not (in_range.all() and (np.diff(rows * (n + 1) + cols) > 0).all()):
        raise GraphError("random_gnd drew a pair outside 1 <= i < j <= n or out of order")
    # an object array hands back the objects of `ids` themselves
    id_objects = np.array(ids, dtype=object)
    return id_objects[rows].tolist(), id_objects[cols].tolist()


def random_gnd(n: int, d: int, prob: Optional[float] = None, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, prob) conditioned to max degree <= d: candidate edges are
    visited in seeded random order and dropped when either endpoint is full.

    `prob` defaults to d / (n - 1), capped at 1, and must be a real number in
    [0, 1]. `random.Random(seed)` draws the candidates (`_candidate_pairs`) and
    then shuffles their index list `list(range(L))`, the permutation a shuffle
    of the L candidates themselves would make. One pass in that order appends
    each candidate whose endpoints both have fewer than d neighbors to their
    neighbor lists; the sorted lists go to `graph_from_sorted_adjacency`, with
    no edge list and no pass through the validating constructor, since the
    candidates are distinct and in range (checked in the numpy draw).
    """
    if n < 1 or d < 0:
        raise GraphError("random_gnd needs n >= 1, d >= 0")
    if prob is None:
        prob = min(1.0, d / max(n - 1, 1))
    elif isinstance(prob, bool) or not isinstance(prob, numbers.Real) or not 0 <= prob <= 1:
        raise GraphError(f"random_gnd needs prob to be a real number in [0, 1], got {prob!r}")
    rng = random.Random(seed)
    ids = list(range(n + 1))
    us, ws = _candidate_pairs(ids, prob, rng)
    order = list(range(len(us)))
    rng.shuffle(order)
    nbrs: List[List[int]] = [[] for _ in ids]
    for k in order:
        u, w = us[k], ws[k]
        nu, nw = nbrs[u], nbrs[w]
        if len(nu) < d and len(nw) < d:
            nu.append(w)
            nw.append(u)
    return graph_from_sorted_adjacency(dict(zip(ids[1:], map(tuple, map(sorted, nbrs[1:])))))


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
    """Dispatch by kind; `line_of` nests another generator spec under `inner`.

    The params (and an `inner` spec) are read through ParamReader before any
    graph is built, so an unknown kind, params that are not an object, or a
    key that is missing, of the wrong type or never read raises GraphError
    naming it.
    """
    if not isinstance(kind, str) or kind not in KINDS:
        raise GraphError(f"unknown generator kind {kind!r}; known: {', '.join(KINDS)}")
    read = ParamReader(params, kind, GraphError)
    size = partial(read.take, cast=int)
    if kind == "line_of":
        inner = ParamReader(read.take("inner", dict), "line_of inner", GraphError)
        spec = inner.take("kind", str), inner.take("params", dict, {})
        inner.done()
        read.done()
        return build_line_graph(generate(*spec, seed=seed)).lg
    if kind == "bipartite":
        build = partial(complete_bipartite, size("a"), size("b"))
    elif kind == "random_gnd":
        build = partial(random_gnd, size("n"), size("d"), read.take("prob", float, None), seed=seed)
    elif kind == "hypergraph_line":
        build = partial(hypergraph_line, size("r"), size("n"), size("ground"), seed=seed)
    else:  # one size n: path, cycle, complete or clique_pendant
        by_n = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
        build = partial(by_n.get(kind, clique_pendant), size("n"))
    read.done()
    return build()
