import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import legal
from bnicolor.base import choose_point, kuhn_defective_edge, step_color
from bnicolor.edgecolor import conflict_bitmap
from bnicolor.generators import path_graph, random_gnd
from bnicolor.graph import build_line_graph
from bnicolor.legal import C_LIN, legal_color, linial_coloring
from bnicolor.numbers import (
    PolyPlan,
    _value_rows,
    ceil_log2,
    linial_schedule,
    log_star,
    poly_coeffs,
    poly_eval,
    step_plan,
)
from bnicolor.params import preset_thm45
from bnicolor.verify import check_edge_coloring, check_vertex_coloring

from conftest import small_graphs, spread_ids


class TestChoosePoint:
    def test_conflict_free_point_exists(self):
        plan = PolyPlan(1, 7, 49)  # q=7 > k*delta for delta <= 6
        x, agreements = choose_point(5, [9, 22, 40], plan)
        assert agreements == 0

    def test_identical_colors_agree_everywhere(self):
        plan = PolyPlan(1, 5, 25)
        _, agreements = choose_point(7, [7], plan)
        assert agreements == 1

    def test_step_color_range(self):
        plan = PolyPlan(1, 5, 25)
        for col in range(1, 26):
            for x in range(5):
                assert 1 <= step_color(col, x, plan) <= plan.palette


def brute_force_counts(own, nbrs, plan):
    """Agreements per point, one poly_eval per neighbor and point."""
    k, q = plan.k, plan.q
    mine = [poly_eval(poly_coeffs(own, k, q), x, q) for x in range(q)]
    counts = [0] * q
    for col in nbrs:
        coeffs = poly_coeffs(col, k, q)
        for x in range(q):
            counts[x] += poly_eval(coeffs, x, q) == mine[x]
    return counts


@st.composite
def kernel_cases(draw):
    """A Linial or Kuhn step plan, an own color and neighbor colors drawn
    from the plan's whole range, with the own color and repeats mixed in."""
    n_colors = draw(st.integers(2, 5000))
    delta = draw(st.integers(1, 40))
    if draw(st.booleans()):
        plan = step_plan(n_colors, delta)
    else:
        plan = step_plan(n_colors, delta, draw(st.integers(1, 6)))
    color = st.integers(1, plan.q ** (plan.k + 1))
    own = draw(color)
    pool = draw(st.lists(color, min_size=1, max_size=4)) + [own]
    nbrs = draw(st.lists(st.one_of(color, st.sampled_from(pool)), max_size=delta))
    return plan, own, nbrs


class TestAgreementKernel:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, case):
        plan, own, nbrs = case
        counts = brute_force_counts(own, nbrs, plan)
        best = min(range(plan.q), key=lambda x: (counts[x], x))
        assert choose_point(own, nbrs, plan) == (best, counts[best])
        assert conflict_bitmap(own, nbrs, plan) == sum(1 << x for x, c in enumerate(counts) if c)

    def test_no_neighbors(self):
        plan = step_plan(200, 5)
        assert choose_point(17, [], plan) == (0, 0)
        assert conflict_bitmap(17, [], plan) == 0

    def test_identical_and_repeated_colors(self):
        plan = step_plan(200, 5)
        nbrs = [17, 17, 18, 18]
        counts = brute_force_counts(17, nbrs, plan)
        # each copy of the own color agrees at every point
        assert min(counts) >= 2
        assert choose_point(17, nbrs, plan) == (counts.index(min(counts)), min(counts))
        assert conflict_bitmap(17, [17], plan) == (1 << plan.q) - 1

    @pytest.mark.parametrize("plan", [step_plan(200, 5), step_plan(900, 12, 2)])
    def test_out_of_range_color_raises(self, plan):
        top = plan.q ** (plan.k + 1)
        for bad in (0, -3, top + 1):
            with pytest.raises(ValueError):
                choose_point(bad, [1], plan)
            with pytest.raises(ValueError):
                choose_point(1, [2, bad], plan)
            with pytest.raises(ValueError):
                conflict_bitmap(1, [bad], plan)
        choose_point(top, [1], plan)  # the largest color is in range

    def test_out_of_range_color_stays_out_of_the_memo(self):
        plan = step_plan(200, 5)
        bad = plan.q ** (plan.k + 1) + 1
        for _ in range(2):
            with pytest.raises(ValueError):
                choose_point(1, [2, bad, 3], plan)
            assert bad not in _value_rows(plan.k, plan.q)

    def test_fields_above_256(self):
        plan = step_plan(10**6, 300)
        assert plan.q > 256
        rng = random.Random(5)
        own = rng.randint(1, plan.n_colors)
        nbrs = [rng.randint(1, plan.n_colors) for _ in range(300)] + [own]
        counts = brute_force_counts(own, nbrs, plan)
        best = counts.index(min(counts))
        assert choose_point(own, nbrs, plan) == (best, counts[best])
        assert conflict_bitmap(own, nbrs, plan) == sum(1 << x for x, c in enumerate(counts) if c)
        assert len(_value_rows(plan.k, plan.q)[own]) == 2 * plan.q  # uint16 values

    def test_memo_holds_only_the_colors_seen(self, monkeypatch):
        seen = {}

        def recording(own, nbrs, plan):
            seen.setdefault((plan.k, plan.q), set()).update([own, *nbrs])
            return choose_point(own, nbrs, plan)

        monkeypatch.setattr(legal, "choose_point", recording)
        _value_rows.cache_clear()
        g = build_line_graph(random_gnd(16, 6, seed=2)).lg
        legal_color(g, preset_thm45(Fraction(3, 4), 2, g.delta))
        assert seen and _value_rows.cache_info().currsize == len(seen) <= 64
        for (k, q), colors in seen.items():
            rows = _value_rows(k, q)
            assert set(rows) == colors
            assert {len(row) for row in rows.values()} == {q}


class TestLinial:
    @given(small_graphs(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_legal_and_palette(self, g):
        col, report = linial_coloring(g)
        assert check_vertex_coloring(g, col).legal
        assert col.palette <= max(C_LIN * max(g.delta, 1) ** 2, g.id_bound)

    LATER_ITERATIONS = pytest.mark.parametrize(
        "n, d, seed, spread",
        [(200, 2, 1, False), (1000, 3, 1, False), (5000, 4, 1, False), (40, 12, 0, True), (40, 12, 1, True)],
    )

    @staticmethod
    def _graph(n, d, seed, spread):
        g = random_gnd(n, d, seed=seed)
        return spread_ids(g, seed) if spread else g

    @LATER_ITERATIONS
    def test_later_iterations(self, n, d, seed, spread):
        """These graphs take two or more iterations, and from the second on each
        vertex must read its neighbors' colors as sent (wire value plus 1);
        spread Ids reach 2**40."""
        g = self._graph(n, d, seed, spread)
        col, report = linial_coloring(g)
        assert report.rounds >= 2
        verification = check_vertex_coloring(g, col)
        assert verification.legal and verification.ok

    @LATER_ITERATIONS
    def test_matches_synchronous_reference(self, n, d, seed, spread):
        """The event-driven run equals all vertices stepping together from
        their Ids, one round per iteration; each message is the K_LIN header
        (kind, level of 1, iteration) plus the color in the plan's palette."""
        g = self._graph(n, d, seed, spread)
        plans = linial_schedule(max(g.id_bound, 1), max(g.delta, 1))
        cur = {v: v for v in g.vertices}
        for plan in plans:
            cur = {
                v: step_color(cur[v], choose_point(cur[v], [cur[u] for u in g.adj[v]], plan)[0], plan)
                for v in g.vertices
            }
        col, report = linial_coloring(g)
        assert col.colors == cur
        assert report.rounds == len(plans)
        L = len(plans)
        palette = max(plan.palette for plan in plans)
        assert report.max_msg_bits == 2 + 1 + ceil_log2(L + 1) + ceil_log2(palette)

    def test_round_count_logstar(self):
        g = random_gnd(400, 6, seed=1)
        col, report = linial_coloring(g)
        assert check_vertex_coloring(g, col).legal
        # schedule length is O(log* n); generous recorded constant
        assert report.rounds <= log_star(g.id_bound) + 4


class TestKuhnEdge:
    @pytest.mark.parametrize("p_prime", [1, 2, 3])
    def test_two_rounds_palette_defect(self, p_prime):
        g = random_gnd(40, 8, seed=4)
        col, report = kuhn_defective_edge(g, p_prime)
        assert report.rounds == 2
        assert col.palette == p_prime * p_prime
        rep = check_edge_coloring(g, col)
        assert rep.measured_defect <= 4 * (-(-g.delta // p_prime))

    def test_p_prime_delta_small_defect(self):
        g = random_gnd(30, 6, seed=2)
        col, _ = kuhn_defective_edge(g, g.delta)
        assert check_edge_coloring(g, col).measured_defect <= 4

    def test_rejects_bad_p_prime(self):
        with pytest.raises(ValueError):
            kuhn_defective_edge(path_graph(3), 0)
