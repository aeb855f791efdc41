import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.numbers import (
    PolyPlan,
    _root_bound,
    ceil_log2,
    is_prime,
    linial_schedule,
    log_star,
    next_prime,
    poly_coeffs,
    poly_eval,
    step_plan,
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
        plan = step_plan(n_colors, delta)
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
        plan = step_plan(n_colors, delta, d)
        assert plan.k * delta // plan.q <= d
        assert plan.q ** (plan.k + 1) >= n_colors

    def test_kuhn_zero_defect_is_legal_plan(self):
        # d = 0 takes the legal bound q > k*delta: the field 11 at k = 1
        assert step_plan(100, 5, 0) == step_plan(100, 5) == PolyPlan(1, 11, 100)

    def test_kuhn_rejects_negative(self):
        with pytest.raises(ValueError):
            step_plan(10, 3, -1)


def _frozen_linial_step_plan(n_colors, delta_bound):
    """The legal step plan as it was before `step_plan` merged it with the
    defective one; kept verbatim as the differential oracle."""
    if n_colors < 2:
        return PolyPlan(1, 2, n_colors)
    best = None
    for k in range(1, 64):
        q = next_prime(max(k * delta_bound + 1, _root_bound(n_colors, k + 1), 2))
        if best is None or q < best.q:
            best = PolyPlan(k, q, n_colors)
        if q == 2:
            break
    return best


def _frozen_kuhn_step_plan(n_colors, delta_bound, d):
    """The defective step plan as it was before the merge, verbatim."""
    if d < 0:
        raise ValueError("defect target must be non-negative")
    if d == 0:
        return _frozen_linial_step_plan(n_colors, delta_bound)
    if n_colors < 2:
        return PolyPlan(1, 2, n_colors)
    best = None
    for k in range(1, 64):
        q = next_prime(max(-(-k * delta_bound // d), _root_bound(n_colors, k + 1), 2))
        if best is None or q < best.q:
            best = PolyPlan(k, q, n_colors)
        if q == 2:
            break
    return best


# every n up to 40, the edges of small powers, and n up to 10**12 and 2**40
GRID_COLORS = sorted(
    set(range(41))
    | {64, 99, 100, 101, 127, 128, 255, 256, 299, 300}
    | {10**k + j for k in range(3, 13) for j in (-1, 0, 1)}
    | {2**k for k in (16, 24, 32, 40)}
)
GRID_DELTAS = (0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 24, 31, 39)


class TestStepPlanMatchesFrozenPlans:
    """`step_plan` is one formula for what were two functions, and every plan
    it gives must be the one they gave, or report bytes move. The full grid
    n <= 300 (and up to 10**12), delta < 40, d < 12 matched as well; it takes
    about 80 s, so the test runs a sample of it."""

    @pytest.mark.parametrize("d", range(12))
    def test_grid(self, d):
        for n in GRID_COLORS:
            for delta in GRID_DELTAS:
                assert step_plan(n, delta, d) == _frozen_kuhn_step_plan(n, delta, d), (n, delta)
                if d == 0:
                    assert step_plan(n, delta) == _frozen_linial_step_plan(n, delta), (n, delta)


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
