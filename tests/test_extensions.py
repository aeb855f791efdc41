import functools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import extensions
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
from bnicolor.graph import Graph, build_line_graph, graph_from_edges
from bnicolor.legal import draw_classes
from bnicolor.params import ParamError
from bnicolor.verify import check_vertex_coloring


ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _numpy_philox():
    bitgen = np.random.Philox(key=[0, 0])
    return bitgen, np.random.Generator(bitgen)


def draw_class(seed, vid, p):
    """The reference draw: the first `integers(p) + 1` of numpy's own
    `Generator(Philox(key=[seed % 2**64, vid]))`.

    One numpy generator is reset to the state a new one starts in (counter 0,
    that key, an empty buffer), because a new `Philox` costs ~20 us for a
    SeedSequence it then ignores; `test_matches_a_fresh_philox_generator`
    checks the reset against new generators.
    """
    bitgen, rng = _numpy_philox()
    zero = np.zeros(4, dtype=np.uint64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": np.array([seed % 2**64, vid], dtype=np.uint64)},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return 1 + int(rng.integers(p))


def _first_block_outputs(seed, vid):
    """The eight 32-bit outputs of numpy's first Philox block keyed [seed, vid],
    in the order its generator hands them out."""
    words = np.random.Philox(key=[seed, vid]).random_raw(4)
    return [int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]


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
        with pytest.raises(ParamError, match=r"seed must be in \[-2\*\*63, 2\*\*63\)"):
            draw_classes(seed, [1, 2], 9)

    def test_range_ends_accepted_with_distinct_draws(self):
        g = random_gnd(256, 48, seed=1)
        lo = randomized_defective(g, RandomizedParams(seed=-(2**63)))
        hi = randomized_defective(g, RandomizedParams(seed=2**63 - 1))
        assert lo.colors != hi.colors


class TestDrawClass:
    @given(st.integers(0, 1000), st.integers(1, 5000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_range_and_determinism(self, seed, vid, p):
        k = draw_classes(seed, [vid], p)[0]
        assert 1 <= k <= p
        assert draw_classes(seed, [vid], p) == [k] == [draw_class(seed, vid, p)]

    def test_varies_with_key(self):
        assert len(set(draw_classes(0, range(1, 50), 1000))) > 20

    def test_matches_a_fresh_philox_generator(self):
        """`draw_classes` and the reset reference draw what a new generator
        keyed [seed mod 2**64, vid] does, negative seeds and Ids above 2**63
        included; 2**31 + 11 rejects about half the outputs, so some lanes
        read past their first Philox block."""
        vids = list(range(1, 301)) + [2**40 + 3, 2**63 - 1, 2**63, 2**64 - 1]
        for seed in (0, 1, 7, 2**40 + 3, -1):
            keys = [np.array([seed % 2**64, v], dtype=np.uint64) for v in vids]
            for p in (1, 2, 9, 1000, 2**31 + 11, 3 * 2**30 + 1, 2**32):
                fresh = [1 + int(np.random.Generator(np.random.Philox(key=k)).integers(p)) for k in keys]
                assert draw_classes(seed, vids, p) == fresh
                assert [draw_class(seed, v, p) for v in vids] == fresh


class TestDrawClasses:
    """The array Philox draws what numpy's generator draws, lane by lane."""

    SEEDS = (0, 1, 7, 2**40 + 3, -1, -(2**63), 2**63 - 1)
    # 2**31 + 11 rejects about half the 32-bit outputs and 3 * 2**30 + 1 a
    # quarter, so lanes take second, third, ... outputs and later blocks
    PALETTES = (1, 2, 9, 16, 1000, 3 * 2**30 + 1, 2**31 + 11, 2**32)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_draw_class_on_dense_and_sparse_ids(self, seed):
        rng = random.Random(seed)
        dense = range(1, 2001)
        sparse = sorted(rng.sample(range(1, 2**40), 1999)) + [2**40]
        wide = sorted(rng.randrange(2**40, 2**64) for _ in range(397)) + [2**63 - 1, 2**63, 2**64 - 1]
        for p in self.PALETTES:
            for vids in (dense, sparse, wide):
                assert draw_classes(seed, vids, p) == [draw_class(seed, v, p) for v in vids]

    def test_later_blocks_are_reached(self):
        """Some lane of the 2**31 + 11 draw rejects all eight 32-bit outputs
        of its first block; it still equals the reference."""
        p = 2**31 + 11
        threshold = (2**32 - p) % p
        vids = range(1, 2001)
        late = [
            v
            for v in vids
            if all((u * p) & 0xFFFFFFFF < threshold for u in _first_block_outputs(3, v))
        ]
        assert late
        assert draw_classes(3, late, p) == [draw_class(3, v, p) for v in late]

    def test_ids_above_2_63_have_their_own_keys(self):
        """Ids in [2**63, 2**64) key their own uint64 stream instead of sharing
        a rounded float key."""
        high = [2**63 + i for i in range(1, 6)] + [2**64 - i for i in range(1, 4)]
        draws = draw_classes(0, high, 10**6)
        assert draws == [draw_class(0, v, 10**6) for v in high]
        assert len(set(draws)) == len(high)

    @pytest.mark.parametrize(
        "seed, vids, p, match",
        [
            (0, [1, 2**64], 9, "vertex Ids"),
            (0, [-1, 2], 9, "vertex Ids"),
            (0, [1, 2], 2**32 + 1, "class palette"),
            (0, [1, 2], 0, "class palette"),
            (2**63, [1, 2], 9, "seed"),
        ],
    )
    def test_out_of_range_inputs_refused(self, seed, vids, p, match):
        with pytest.raises(ParamError, match=match):
            draw_classes(seed, vids, p)

    def test_randomized_color_classes_on_sparse_ids(self):
        g = random_gnd(80, 24, seed=4)
        spaced = Graph([v * 2**40 for v in g.vertices], [(u * 2**40, w * 2**40) for u, w in g.edges()])
        col, report = randomized_color(spaced, RandomizedParams(seed=9))
        assert check_vertex_coloring(spaced, col).legal
        p = report.extra["class_palette"]
        for v, out in report.outputs.items():
            assert out["psi_hist"][0] == draw_class(9, v, p)

    def test_no_numpy_random_import(self):
        """The randomized route never imports `numpy.random`, rejected lanes
        included."""
        code = (
            "import sys\n"
            "from bnicolor.extensions import RandomizedParams, randomized_color\n"
            "from bnicolor.generators import random_gnd\n"
            "from bnicolor.legal import draw_classes\n"
            "draw_classes(0, range(1, 2000), 2**31 + 11)\n"
            "randomized_color(random_gnd(200, 24, seed=4), RandomizedParams(seed=4))\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"


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
        for g, text in (
            (random_gnd(100, 3, seed=0), "delta = 3 <= ln max(n, 3) = 4.61"),
            # ln 2 = 0.69: the check compares with ln 3
            (graph_from_edges(2, [(1, 2)]), "delta = 1 <= ln max(n, 3) = 1.10"),
        ):
            with pytest.raises(ParamError, match=re.escape(text)):
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

    def test_degraded_class_is_flagged_not_deadlocked(self, monkeypatch):
        """All of K_40 in one class: degree 39 against a bound of 21. The
        bottom reduction still ends in a legal coloring, with colors above
        the class palette, and the run carries both flags."""
        monkeypatch.setattr(extensions, "draw_classes", lambda seed, vids, p: [1] * len(vids))
        g = complete_graph(40)
        col, report = randomized_color(g, RandomizedParams())
        verification = check_vertex_coloring(g, col)
        assert verification.legal and verification.ok
        assert len(set(col.colors.values())) == 40
        assert report.flags == [
            "class degree 39 exceeds the probabilistic bound 21; re-seed",
            "class palette overflow: bottom color 40 > 22",
        ]


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
        a, _ = tradeoff_color(g, params, c=2)
        b, _ = tradeoff_color(g, params, c=2)
        assert a == b

    def test_rejects_bad_c(self):
        with pytest.raises(ParamError):
            tradeoff_color(complete_graph(4), TradeoffParams("log", 0.25), c=0)
