import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.numbers import (
    PolyPlan,
    ceil_log2,
    is_prime,
    kuhn_step_plan,
    linial_schedule,
    linial_step_plan,
    log_star,
    next_prime,
    poly_coeffs,
    poly_eval,
)


class TestPrimes:
    def test_known_values(self):
        assert [q for q in range(2, 30) if is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1) and not is_prime(0)

    @pytest.mark.parametrize("q,expect", [(2, 2), (8, 11), (14, 17), (100, 101)])
    def test_next_prime(self, q, expect):
        assert next_prime(q) == expect

    @given(st.integers(2, 5000))
    @settings(max_examples=60, deadline=None)
    def test_next_prime_is_minimal(self, q):
        p = next_prime(q)
        assert p >= q and is_prime(p)
        assert not any(is_prime(r) for r in range(q, p))


class TestLogs:
    def test_log_star_values(self):
        assert [log_star(n) for n in (1, 2, 3, 4, 5, 16, 17, 65536, 65537)] == [
            0, 0, 1, 1, 2, 2, 3, 3, 4,
        ]

    def test_log_star_rejects_zero(self):
        with pytest.raises(ValueError):
            log_star(0)

    def test_ceil_log2_values(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 8, 9, 1024)] == [1, 1, 2, 3, 4, 10]

    @given(st.integers(2, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_ceil_log2_bounds(self, n):
        b = ceil_log2(n)
        assert 2**b >= n and 2 ** (b - 1) < n


class TestPlans:
    @given(st.integers(2, 100_000), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_step_plan_soundness(self, n_colors, delta):
        plan = linial_step_plan(n_colors, delta)
        # q > k*delta guarantees a conflict-free evaluation point exists
        assert plan.q > plan.k * delta
        # every color in 1..n_colors encodes as a degree-<=k polynomial
        assert plan.q ** (plan.k + 1) >= n_colors
        assert is_prime(plan.q)

    @given(st.integers(2, 100_000), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_schedule_strictly_shrinks(self, n_colors, delta):
        plans = linial_schedule(n_colors, delta)
        cur = n_colors
        for plan in plans:
            assert plan.n_colors == cur
            assert plan.palette < cur
            cur = plan.palette

    def test_final_palette_quadratic_in_delta(self):
        # recorded constant: final palette <= 9 * delta^2 over this sweep
        for delta in (1, 2, 4, 8, 16, 64, 128):
            for n in (10, 1000, 10**6):
                plans = linial_schedule(n, delta)
                assert (plans[-1].palette if plans else n) <= 9 * delta * delta

    @given(st.integers(2, 50_000), st.integers(2, 64), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_kuhn_plan_defect_target(self, n_colors, delta, d):
        plan = kuhn_step_plan(n_colors, delta, d)
        assert plan.k * delta // plan.q <= d
        assert plan.q ** (plan.k + 1) >= n_colors

    def test_kuhn_zero_defect_is_legal_plan(self):
        assert kuhn_step_plan(100, 5, 0) == linial_step_plan(100, 5)

    def test_kuhn_rejects_negative(self):
        with pytest.raises(ValueError):
            kuhn_step_plan(10, 3, -1)


class TestPolynomials:
    @given(st.integers(1, 7), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_coeffs_injective(self, q_idx, k):
        q = [2, 3, 5, 7, 11, 13, 17][q_idx - 1]
        seen = {}
        for color in range(1, min(q ** (k + 1), 200) + 1):
            key = tuple(poly_coeffs(color, k, q))
            assert key not in seen
            seen[key] = color

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            poly_coeffs(5, 1, 2)  # only 4 colors fit in degree-1 over GF(2)

    def test_eval_matches_horner(self):
        # P(x) = 3 + 2x + x^2 over GF(5)
        assert poly_eval([3, 2, 1], 2, 5) == (3 + 4 + 4) % 5

    def test_palette_property(self):
        assert PolyPlan(2, 7, 100).palette == 49
