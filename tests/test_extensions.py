import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.extensions import (
    RandomizedParams,
    TradeoffParams,
    random_defect_bound,
    random_palette_size,
    randomized_color,
    randomized_defective,
    tradeoff_color,
)
from bnicolor.generators import complete_bipartite, complete_graph, random_gnd
from bnicolor.graph import Graph, build_line_graph
from bnicolor.legal import draw_class, draw_classes
from bnicolor.params import ParamError
from bnicolor.verify import check_vertex_coloring


class TestFormulas:
    def test_palette_size(self):
        assert random_palette_size(128, 4096) == math.ceil(128 / math.log(4096))
        assert random_palette_size(100, 3) == math.ceil(100 / math.log(3))

    def test_defect_bound(self):
        assert random_defect_bound(2.0, 4096) == math.ceil(2 * math.e * math.log(4096))

    def test_param_validation(self):
        with pytest.raises(ParamError):
            RandomizedParams(kappa=1.0).validate()
        with pytest.raises(ParamError):
            RandomizedParams(eta=0.0).validate()
        RandomizedParams().validate()

    def test_tradeoff_validation(self):
        with pytest.raises(ParamError):
            TradeoffParams("power:0.5", eta=1.0).validate(64)
        with pytest.raises(ParamError):
            TradeoffParams("const:0.5", eta=0.25).validate(64)  # g < 1
        with pytest.raises(ParamError):
            TradeoffParams("warp", eta=0.25).validate(64)
        TradeoffParams("log", eta=0.25).validate(64)


class TestSeedRange:
    """Philox keys are 64-bit words, so the randomized routes refuse a seed
    outside [-2**63, 2**63) instead of sharing its key with another seed."""

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64, -(2**63) - 1])
    def test_out_of_range_seed_refused(self, seed):
        with pytest.raises(ParamError, match="seed"):
            randomized_defective(random_gnd(256, 48, seed=1), RandomizedParams(seed=seed))
        with pytest.raises(ParamError, match="seed"):
            tradeoff_color(complete_graph(6), TradeoffParams("power:0.5", eta=0.25), 2, seed=seed)

    def test_range_ends_accepted_with_distinct_draws(self):
        g = random_gnd(256, 48, seed=1)
        lo = randomized_defective(g, RandomizedParams(seed=-(2**63)))
        hi = randomized_defective(g, RandomizedParams(seed=2**63 - 1))
        assert lo.colors != hi.colors


class TestDrawClass:
    @given(st.integers(0, 1000), st.integers(1, 5000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_range_and_determinism(self, seed, vid, p):
        k = draw_class(seed, vid, p)
        assert 1 <= k <= p
        assert draw_class(seed, vid, p) == k

    def test_varies_with_key(self):
        draws = {draw_class(0, vid, 1000) for vid in range(1, 50)}
        assert len(draws) > 20

    def test_matches_a_fresh_philox_generator(self):
        """The reset shared generator draws what a new one keyed (seed, vid) does,
        negative seeds (wrapped to uint64) included."""
        for seed in (0, 1, 7, 2**40 + 3, -1):
            for vid in range(1, 301):
                for p in (1, 2, 9, 1000):
                    fresh = np.random.Generator(np.random.Philox(key=[seed, vid]))
                    assert draw_class(seed, vid, p) == 1 + int(fresh.integers(p))


class TestDrawClasses:
    """The array Philox draws what `draw_class` draws, lane by lane."""

    SEEDS = (0, 1, 7, 2**40 + 3, -1, -(2**63), 2**63 - 1)
    # 2**31 + 11 sends about half the lanes through the rejection fallback
    PALETTES = (1, 2, 9, 16, 1000, 2**31 + 11)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_draw_class_on_dense_and_sparse_ids(self, seed):
        dense = range(1, 2001)
        sparse = sorted(random.Random(seed).sample(range(1, 2**40), 1999)) + [2**40]
        for p in self.PALETTES:
            for vids in (dense, sparse):
                assert draw_classes(seed, vids, p) == [draw_class(seed, v, p) for v in vids]

    def test_fallbacks_equal_draw_class(self):
        """Palettes above 2**32, Ids at or above 2**63 and seeds outside
        64-bit keys take `draw_class` itself."""
        for p in (2**32, 2**32 + 1, 2**40):
            assert draw_classes(3, range(1, 200), p) == [draw_class(3, v, p) for v in range(1, 200)]
        vids = [1, 2**63 - 1, 2**63, 2**64 - 1, 5]
        with warnings.catch_warnings():
            # numpy warns while casting the float64 key of a vid at or above 2**63
            warnings.simplefilter("ignore", RuntimeWarning)
            for seed in (0, 2**63, 2**64 - 1):
                assert draw_classes(seed, vids, 9) == [draw_class(seed, v, 9) for v in vids]

    def test_randomized_color_classes_on_sparse_ids(self):
        g = random_gnd(80, 24, seed=4)
        spaced = Graph([v * 2**40 for v in g.vertices], [(u * 2**40, w * 2**40) for u, w in g.edges()])
        col, report = randomized_color(spaced, RandomizedParams(seed=9))
        assert check_vertex_coloring(spaced, col).legal
        p = report.extra["class_palette"]
        for v, out in report.outputs.items():
            assert out["psi_hist"][0] == draw_class(9, v, p)


class TestRandomizedDefective:
    def test_reproducible_and_shaped(self):
        g = random_gnd(256, 48, seed=1)
        params = RandomizedParams(seed=11)
        a = randomized_defective(g, params)
        b = randomized_defective(g, params)
        assert a == b
        assert a.palette == random_palette_size(g.delta, g.n)
        assert a.claimed_defect == random_defect_bound(2.0, g.n)

    def test_rejects_low_degree(self):
        g = random_gnd(100, 3, seed=0)
        with pytest.raises(ParamError):
            randomized_defective(g, RandomizedParams())


class TestRandomizedColor:
    def test_legal_and_palette_claim(self):
        g = random_gnd(300, 24, seed=2)
        col, report = randomized_color(g, RandomizedParams(seed=5))
        assert check_vertex_coloring(g, col).legal
        p = report.extra["class_palette"]
        B = report.extra["class_degree_bound"]
        assert col.palette == p * (B + 1)
        if not report.flags:
            assert report.extra["max_class_degree"] <= B

    def test_seed_changes_output(self):
        g = random_gnd(300, 24, seed=2)
        a, _ = randomized_color(g, RandomizedParams(seed=5))
        b, _ = randomized_color(g, RandomizedParams(seed=6))
        assert a != b

    def test_rejects_unsound_inner_lambda(self):
        from bnicolor.params import LegalParams

        g = random_gnd(300, 24, seed=2)
        with pytest.raises(ParamError):
            randomized_color(g, RandomizedParams(seed=5), legal_params=LegalParams(1, 9, 5, 1))


class TestTradeoff:
    def test_line_graph_legal(self):
        g = build_line_graph(complete_bipartite(9, 9)).lg
        col, report = tradeoff_color(g, TradeoffParams("power:0.5", eta=0.25), c=2)
        assert check_vertex_coloring(g, col).legal
        assert max(col.colors.values()) <= col.palette

    def test_fallback_when_g_dominates(self):
        g = build_line_graph(complete_bipartite(5, 5)).lg
        col, report = tradeoff_color(g, TradeoffParams("power:1", eta=0.5), c=2)
        assert report.extra.get("fallback") == "legal_color"
        assert check_vertex_coloring(g, col).legal

    def test_deterministic(self):
        g = build_line_graph(complete_graph(7)).lg
        params = TradeoffParams("power:0.5", eta=0.25)
        a, _ = tradeoff_color(g, params, c=2, seed=1)
        b, _ = tradeoff_color(g, params, c=2, seed=1)
        assert a == b

    def test_rejects_bad_c(self):
        with pytest.raises(ParamError):
            tradeoff_color(complete_graph(4), TradeoffParams("log", 0.25), c=0)
