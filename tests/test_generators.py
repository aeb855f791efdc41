import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import generators
from bnicolor.generators import (
    KINDS,
    clique_pendant,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate,
    hypergraph_line,
    path_graph,
    random_gnd,
)
from bnicolor.graph import (
    GraphError,
    graph_from_edges,
    neighborhood_independence,
)

from oracles import independence_at_most


class TestBasicKinds:
    def test_path_single_vertex(self):
        g = path_graph(1)
        assert g.n == 1 and g.m == 0

    def test_cycle_minimum(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.m == 12 and g.delta == 4

    def test_clique_pendant_shape(self):
        g = clique_pendant(8)
        assert g.n == 8
        assert g.delta == 4  # clique degree 3 + one pendant
        assert neighborhood_independence(g) == 2

    def test_clique_pendant_rejects_odd(self):
        with pytest.raises(GraphError):
            clique_pendant(7)

    @pytest.mark.parametrize("n", [0, -3])
    def test_complete_rejects_n_below_1(self, n):
        with pytest.raises(GraphError, match="complete needs n >= 1"):
            complete_graph(n)


class TestRandomGnd:
    @given(st.integers(2, 40), st.integers(0, 8), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_degree_capped(self, n, d, seed):
        g = random_gnd(n, d, seed=seed)
        assert g.delta <= d

    def test_deterministic_in_seed(self):
        assert random_gnd(30, 5, seed=7) == random_gnd(30, 5, seed=7)
        assert random_gnd(30, 5, seed=7) != random_gnd(30, 5, seed=8)

    @pytest.mark.parametrize("prob", ["abc", [0.5], True, 2, -1, -1e-300, 1.0000001, math.nan, math.inf])
    def test_rejects_prob_outside_unit_interval(self, prob):
        with pytest.raises(GraphError, match="prob"):
            random_gnd(20, 3, prob=prob)


def _frozen_candidates(n, prob, rng):
    """The per-pair draw loop as it was before the numpy draw: the reference."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < prob]


def _frozen_random_gnd(n, d, prob=None, seed=0):
    """random_gnd as it was before the numpy draw: the reference."""
    if prob is None:
        prob = min(1.0, d / max(n - 1, 1))
    rng = random.Random(seed)
    candidates = _frozen_candidates(n, prob, rng)
    rng.shuffle(candidates)
    deg = {v: 0 for v in range(1, n + 1)}
    edges = []
    for u, w in candidates:
        if deg[u] < d and deg[w] < d:
            edges.append((u, w))
            deg[u] += 1
            deg[w] += 1
    return graph_from_edges(n, edges)


def _pairs(n, prob, rng):
    """`_candidate_pairs` on Ids 1..n as one list of (i, j) tuples."""
    return list(zip(*generators._candidate_pairs(list(range(n + 1)), prob, rng)))


_CUTOFF = generators.VECTOR_DRAW_MIN_PAIRS
# n = 126 has 7875 pairs and n = 127 has 8001: the two sides of the default cutoff
_SIZES = st.one_of(st.integers(1, 40), st.integers(125, 128))
_PROBS = st.one_of(st.sampled_from([None, 0, 1, 0.0, 1.0, 1e-9, 1 - 1e-9]), st.floats(0, 1))


class TestRandomGndMatchesFrozenLoop:
    """The numpy draw reads the words the per-pair loop would, so every graph,
    and the generator state after the draw, equal the loop's."""

    @given(
        _SIZES,
        st.integers(0, 12),
        _PROBS,
        st.integers(-(2**70), 2**70),
        st.sampled_from([1, _CUTOFF]),
        st.sampled_from([1, 7, generators._DRAW_CHUNK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_graph_and_generator_state(self, n, d, prob, seed, cutoff, chunk):
        with mock.patch.multiple(generators, VECTOR_DRAW_MIN_PAIRS=cutoff, _DRAW_CHUNK=chunk):
            g = random_gnd(n, d, prob, seed=seed)
            p = min(1.0, d / max(n - 1, 1)) if prob is None else prob
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _pairs(n, p, rng) == _frozen_candidates(n, p, ref_rng)
            assert rng.random() == ref_rng.random()
        ref = _frozen_random_gnd(n, d, prob, seed)
        assert g == ref
        assert (g.delta, g.id_bound, g.m) == (ref.delta, ref.id_bound, ref.m)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_prob_on_and_next_to_a_draw(self, seed):
        """Where prob equals a pair's draw, or is one float away from it, the
        integer threshold must decide as `random() < prob` does."""
        n = 130
        rng = random.Random(seed)
        draws = [rng.random() for _ in range(n * (n - 1) // 2)]
        for x in (min(draws), min(d for d in draws if d > 0.25), max(draws)):
            for prob in (x, math.nextafter(x, 0), math.nextafter(x, 1)):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                assert _pairs(n, prob, rng) == _frozen_candidates(n, prob, ref_rng)

    # the 12 seed-1 `flood` benchmark inputs are random_gnd(768, 48) at seeds 12..23
    @pytest.mark.parametrize(
        "n,d,seed", [(768, 48, s) for s in range(12, 24)] + [(300, 40, 1), (127, 126, 5)]
    )
    def test_large_inputs(self, n, d, seed):
        assert n * (n - 1) // 2 >= _CUTOFF
        assert random_gnd(n, d, seed=seed) == _frozen_random_gnd(n, d, seed=seed)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_pair_outside_the_range_raises(self, shift):
        """A row lookup that moves one pair out of 1 <= i < j <= n ends in
        GraphError, not in a graph with an unknown endpoint or a self-loop."""
        searchsorted = np.searchsorted

        def off_by_shift(*args, **kwargs):
            rows = searchsorted(*args, **kwargs)
            rows[len(rows) // 2] += shift
            return rows

        with mock.patch.object(generators.np, "searchsorted", off_by_shift):
            with pytest.raises(GraphError, match="outside 1 <= i < j <= n"):
                random_gnd(300, 40, seed=1)

    def test_a_repeated_pair_raises(self):
        """A pair index drawn twice would be a duplicate edge: it ends in
        GraphError too, since the pairs must strictly increase."""
        concatenate = np.concatenate

        def with_a_repeat(arrays, *args, **kwargs):
            kept = concatenate(arrays, *args, **kwargs)
            return concatenate([kept[:1], kept])

        with mock.patch.object(generators.np, "concatenate", with_a_repeat):
            with pytest.raises(GraphError, match="out of order"):
                random_gnd(300, 40, seed=1)


class TestRandomGndMemory:
    """Measured on random_gnd(768, 48, seed=1), the shape of the `flood`
    inputs, under Python 3.11: the graph kept 1.08x its adjacency containers
    and the build peaked at 1.74 MB. Building the graph through an edge list
    and the validating constructor kept 3.5x (a fresh int object for every
    neighbor entry above 256) and peaked at 3.84 MB."""

    def build(self):
        tracemalloc.start()
        try:
            g = random_gnd(768, 48, seed=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return g, kept, peak

    def test_graph_keeps_little_beyond_its_adjacency(self):
        """Every neighbor entry is the one int object of its Id."""
        g, kept, _ = self.build()
        size = sys.getsizeof(g.adj) + sum(map(sys.getsizeof, g.adj.values()))
        assert kept <= 1.3 * size, (kept, size)

    def test_build_peak(self):
        """No edge list or second adjacency lives beside the draw."""
        _, _, peak = self.build()
        assert peak <= 2_500_000, peak


class TestHypergraphLine:
    @given(st.integers(2, 4), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_independence_bounded_by_r(self, r, seed):
        g = hypergraph_line(r, 12, 20, seed=seed)
        assert independence_at_most(g, r)

    def test_infeasible_params(self):
        with pytest.raises(GraphError):
            hypergraph_line(5, 3, 4, seed=0)


VALID_PARAMS = {
    "path": {"n": 4},
    "cycle": {"n": 5},
    "complete": {"n": 4},
    "bipartite": {"a": 2, "b": 3},
    "random_gnd": {"n": 12, "d": 3},
    "line_of": {"inner": {"kind": "path", "params": {"n": 4}}},
    "clique_pendant": {"n": 6},
    "hypergraph_line": {"r": 3, "n": 6, "ground": 10},
}


class TestDispatch:
    def test_line_of_complete4(self):
        g = generate("line_of", {"inner": {"kind": "complete", "params": {"n": 4}}})
        assert g.n == 6 and g.delta == 4

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            generate("moebius", {})

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_kinds_dispatch(self, kind):
        g = generate(kind, VALID_PARAMS[kind], seed=1)
        assert g.n >= 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_unread_key_named(self, kind):
        with pytest.raises(GraphError, match=rf"unread keys in {kind} parameters: \['zz'\]$"):
            generate(kind, {**VALID_PARAMS[kind], "zz": 1})

    @pytest.mark.parametrize(
        "kind,params,missing",
        [
            ("random_gnd", {"n": 20}, "'d'"),
            ("random_gnd", {"d": 3}, "'n'"),
            ("bipartite", {"a": 2}, "'b'"),
            ("line_of", {}, "'inner'"),
            ("line_of", {"inner": {"params": {"n": 4}}}, "'kind'"),
            ("hypergraph_line", {"r": 3, "n": 6}, "'ground'"),
        ],
    )
    def test_missing_parameter_named(self, kind, params, missing):
        with pytest.raises(GraphError, match=f"needs parameter {missing}"):
            generate(kind, params)

    @pytest.mark.parametrize("value", ["abc", None, math.nan, math.inf, [3]])
    def test_non_integer_parameter(self, value):
        with pytest.raises(GraphError, match="^path parameter n must be int, got "):
            generate("path", {"n": value})

    @pytest.mark.parametrize(
        "kind,params,key,value",
        [
            ("path", {"n": 2.7}, "n", 2.7),
            ("path", {"n": -0.5}, "n", -0.5),
            ("cycle", {"n": 5.000001}, "n", 5.000001),
            ("complete", {"n": Fraction(7, 2)}, "n", Fraction(7, 2)),
            ("random_gnd", {"n": 10, "d": 2.5}, "d", 2.5),
            ("bipartite", {"a": 2, "b": 3.5}, "b", 3.5),
        ],
    )
    def test_non_integral_number_named(self, kind, params, key, value):
        message = f"{kind} parameter {key} must be int, got {re.escape(repr(value))}$"
        with pytest.raises(GraphError, match=message):
            generate(kind, params)

    @pytest.mark.parametrize("value", [4, 4.0, "4", " 4 ", np.int64(4), Fraction(8, 2)])
    def test_integral_values_accepted(self, value):
        assert generate("path", {"n": value}) == generate("path", {"n": 4})

    def test_deterministic_dispatch(self):
        a = generate("random_gnd", {"n": 25, "d": 4}, seed=3)
        b = generate("random_gnd", {"n": 25, "d": 4}, seed=3)
        assert a == b
