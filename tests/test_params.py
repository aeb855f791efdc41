import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    defect_bound,
    make_preset,
    preset_improved_s42,
    preset_thm45,
    preset_thm46,
    preset_thm48_3,
    recursion_schedule,
    smallest_feasible_thm46_t,
    vartheta_of_schedule,
)


class TestDefectBound:
    def test_worked_value(self):
        # (64/18 + 64/9)*2 + 2 = 23.333... -> 23
        assert defect_bound(DefectiveParams(2, 9, 64, 2)) == 23

    @pytest.mark.parametrize(
        "b,p,L,c,expect",
        [
            (1, 4, 16, 1, 9),  # (16/4 + 16/4)*1 + 1 = 9
            (2, 4, 16, 1, 7),  # (2 + 4)*1 + 1 = 7
            (2, 9, 23, 2, 9),
            (2, 9, 9, 2, 5),
        ],
    )
    def test_values(self, b, p, L, c, expect):
        assert defect_bound(DefectiveParams(b, p, L, c)) == expect

    @given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 200), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_float_floor(self, b, p, L, c):
        if b * p > L:
            return
        params = DefectiveParams(b, p, L, c)
        # exact rational result can only differ from float where floats round;
        # allow the exact value to be the floor of the exact fraction only
        exact = defect_bound(params)
        approx = (L / (b * p) + L / p) * c + c
        assert abs(exact - math.floor(approx)) <= 1

    def test_validate_rejects_overfull(self):
        with pytest.raises(ParamError):
            DefectiveParams(4, 5, 16, 1).validate()

    def test_validate_rejects_small_lambda(self):
        with pytest.raises(ParamError):
            DefectiveParams(1, 2, 8, 1).validate(delta=9)


class TestLegalParams:
    def test_precondition_p(self):
        with pytest.raises(ParamError):
            LegalParams(1, 8, 9, 2).validate(64)  # p must exceed 4c

    def test_precondition_lambda(self):
        with pytest.raises(ParamError):
            LegalParams(1, 9, 4, 2).validate(64)  # lambda must exceed 2c

    def test_trivial_case_allows_large_bp(self):
        LegalParams(9, 9, 100, 2).validate(50)  # Lambda <= lambda: no bp bound


class TestPresets:
    def test_thm45_shapes(self):
        lp = preset_thm45(Fraction(3, 4), 2, 4096)
        assert lp.p > 4 * lp.c and lp.lam > 2 * lp.c
        assert lp.b * lp.p <= 4096

    def test_thm45_clamps_small_delta(self):
        lp = preset_thm45(Fraction(3, 4), 2, 8)
        assert lp.clamped
        lp.validate(8)

    def test_thm45_strict_raises(self):
        with pytest.raises(ParamError):
            preset_thm45(Fraction(3, 4), 2, 8, strict=True)

    def test_thm46_infeasible_at_desk_scale(self):
        with pytest.raises(ParamError):
            preset_thm46(1, 2, 256)
        assert smallest_feasible_thm46_t(2, 256) is None

    def test_thm46_feasible_when_large(self):
        # c=1: base 4, t=1 needs p=4 > 4c=4? no -> still infeasible;
        # the first feasible case within range needs delta >= base^(3t)
        t = smallest_feasible_thm46_t(1, 4**6)
        assert t is None or preset_thm46(t, 1, 4**6).p > 4

    def test_make_preset_thm46_defaults_to_the_smallest_feasible_t(self):
        # t = 1 is never feasible: p = 3c + 1 <= 4c
        lp = make_preset("thm46", 1, 4096)
        assert lp.preset == "thm46(2)" and not lp.clamped
        with pytest.raises(ParamError, match=r"^no feasible thm46 exponent for c=2, delta=256$"):
            make_preset("thm46", 2, 256)

    def test_thm48_3_and_improved(self):
        for lp in (preset_thm48_3(Fraction(1, 2), 2, 1024), preset_improved_s42(2, 1024)):
            lp.validate(1024)

    def test_make_preset_unknown(self):
        with pytest.raises(ParamError):
            make_preset("thm99", 2, 64)


class TestSchedule:
    def test_worked_instance(self):
        lp = LegalParams(2, 9, 8, 2)
        sched = recursion_schedule(lp, 64)
        assert sched == [64, 23, 9, 5]
        assert vartheta_of_schedule(sched, 9) == 4374

    def test_trivial_schedule(self):
        lp = LegalParams(1, 9, 36, 2)
        assert recursion_schedule(lp, 20) == [20]
        assert vartheta_of_schedule([20], 9) == 21

    @given(st.integers(1, 3), st.integers(9, 24), st.integers(5, 60), st.integers(16, 300))
    @settings(max_examples=60, deadline=None)
    def test_schedule_monotone_and_terminates(self, b, p, lam, delta):
        lp = LegalParams(b, p, lam, 2)
        try:
            lp.validate(delta)
            sched = recursion_schedule(lp, delta)
        except ParamError:
            return
        assert sched[0] == delta
        assert all(x > y for x, y in zip(sched, sched[1:]))
        assert sched[-1] <= lam or len(sched) == 1

    def test_vartheta_formula(self):
        assert vartheta_of_schedule([64, 23, 9, 5], 9) == (5 + 1) * 9**3
