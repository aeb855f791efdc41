"""Algorithm parameter tuples, presets, and the pure-arithmetic recursion.

The recursive legal-coloring procedure is driven entirely by the degree bound
update Lambda' = floor((Lambda/(b*p) + Lambda/p)*c + c), evaluated here with
exact rationals. The schedule (the decreasing sequence of per-level degree
bounds) and the resulting palette bound vartheta = (Lambda_r + 1) * p^r are
computed top-down before any rounds run, so all parallel sub-invocations agree
on them by construction.

Preset note: the published closed-form parameter choices can violate their own
side conditions (p > 4c, b*p <= Lambda) at small degrees. Constructors clamp
to the nearest feasible values by default and record that they did; pass
strict=True to get the literal values or an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .numbers import log_star


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class DefectiveParams:
    b: int
    p: int
    Lambda: int
    c: int

    def validate(self, delta: Optional[int] = None):
        if self.b < 1 or self.p < 1 or self.c < 1 or self.Lambda < 1:
            raise ParamError(f"all parameters must be positive: {self}")
        if self.b * self.p > self.Lambda:
            raise ParamError(f"b*p = {self.b * self.p} exceeds Lambda = {self.Lambda}")
        if delta is not None and self.Lambda < delta:
            raise ParamError(f"Lambda = {self.Lambda} below graph max degree {delta}")


def defect_bound(params: DefectiveParams) -> int:
    """floor((Lambda/(b*p) + Lambda/p)*c + c), exact rational arithmetic."""
    L, b, p, c = params.Lambda, params.b, params.p, params.c
    value = (Fraction(L, b * p) + Fraction(L, p)) * c + c
    return math.floor(value)


@dataclass(frozen=True)
class LegalParams:
    b: int
    p: int
    lam: int  # recursion-termination threshold (lambda)
    c: int
    preset: str = "custom"
    eps: Optional[Fraction] = None  # exponent for thm45 / thm48_3
    clamped: bool = False

    def validate(self, Lambda: int):
        if min(self.b, self.p, self.lam, self.c) < 1:
            raise ParamError(f"all parameters must be positive: {self}")
        if self.p <= 4 * self.c:
            raise ParamError(f"need p > 4c: p={self.p}, c={self.c}")
        if self.lam <= 2 * self.c:
            raise ParamError(f"need lambda > 2c: lambda={self.lam}, c={self.c}")
        if Lambda > self.lam and self.b * self.p > Lambda:
            raise ParamError(
                f"b*p = {self.b * self.p} exceeds Lambda = {Lambda} (non-trivial case)"
            )

    def defective_at(self, Lambda: int) -> DefectiveParams:
        return DefectiveParams(self.b, self.p, Lambda, self.c)


def _clamp(
    b: int, p: int, lam: int, c: int, Lambda: int, strict: bool, label: str, **kw
) -> LegalParams:
    cb, cp, clam = b, p, lam
    clamped = False
    if cp <= 4 * c:
        cp = 4 * c + 1
        clamped = True
    if clam <= 2 * c:
        clam = 2 * c + 1
        clamped = True
    if Lambda > clam and cb * cp > Lambda:
        cb = max(1, Lambda // cp)
        clamped = True
    if Lambda > clam and cb * cp > Lambda:
        # even b = 1 does not fit: no defective step is possible at this
        # degree, so lift lambda to Lambda and let the bottom stage do it all
        clam = Lambda
        clamped = True
    out = LegalParams(cb, cp, clam, c, preset=label, clamped=clamped, **kw)
    if strict and clamped:
        raise ParamError(
            f"preset {label} literal values (b={b}, p={p}, lambda={lam}) violate "
            f"preconditions for c={c}, Lambda={Lambda}"
        )
    out.validate(Lambda)
    return out


def preset_thm45(eps: Fraction, c: int, delta: int, strict: bool = False) -> LegalParams:
    """b = ceil(delta^(eps/6)), p = ceil(delta^(eps/3)), lambda = ceil(delta^eps)."""
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise ParamError("thm45 needs 0 < eps <= 1")
    b = _ceil_pow(delta, eps / 6)
    p = _ceil_pow(delta, eps / 3)
    lam = _ceil_pow(delta, eps)
    return _clamp(b, p, lam, c, delta, strict, f"thm45({eps})", eps=eps)


def preset_thm46(t: int, c: int, delta: int, strict: bool = True) -> LegalParams:
    """lambda = (3c+1)^(6t), b = lambda^(1/3), p = lambda^(1/6); errors when
    infeasible at this degree, reporting the first feasible delta."""
    if t < 1:
        raise ParamError("thm46 needs t >= 1")
    base = 3 * c + 1
    lam = base ** (6 * t)
    b = base ** (2 * t)
    p = base**t
    if p <= 4 * c or b * p > delta:
        first = base ** (3 * t)  # need b*p = base^(3t) <= delta at least
        raise ParamError(
            f"thm46(t={t}) infeasible for c={c}, delta={delta}: needs p > 4c and "
            f"b*p = {b * p} <= delta (first feasible delta ~ {first})"
        )
    return _clamp(b, p, lam, c, delta, strict, f"thm46({t})")


def smallest_feasible_thm46_t(c: int, delta: int) -> Optional[int]:
    for t in range(1, 12):
        try:
            preset_thm46(t, c, delta)
            return t
        except ParamError:
            continue
    return None


def preset_thm48_3(eps: Fraction, c: int, delta: int, strict: bool = False) -> LegalParams:
    """lambda = ceil(log^eps delta), b = ceil(lambda^(1/3)), p = ceil(lambda^(1/6))."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ParamError("thm48_3 needs eps > 0")
    logd = max(math.log2(max(delta, 2)), 1.0)
    lam = math.ceil(logd ** float(eps))
    b = _ceil_pow(lam, Fraction(1, 3))
    p = _ceil_pow(lam, Fraction(1, 6))
    return _clamp(b, p, lam, c, delta, strict, f"thm48_3({eps})", eps=eps)


def preset_improved_s42(c: int, delta: int, strict: bool = False) -> LegalParams:
    """Constant-lambda preset for the improved recursion: lambda = log* delta."""
    lam = max(log_star(max(delta, 2)), 2)
    b = _ceil_pow(lam, Fraction(1, 3))
    p = _ceil_pow(lam, Fraction(1, 6))
    return _clamp(b, p, lam, c, delta, strict, "improved_s42")


PRESETS = ("thm45", "thm46", "thm48_3", "improved_s42", "custom")


def make_preset(
    name: str,
    c: int,
    delta: int,
    eps: Optional[Fraction] = None,
    t: Optional[int] = None,
    strict: bool = False,
) -> LegalParams:
    if name == "thm45":
        return preset_thm45(eps if eps is not None else Fraction(3, 4), c, delta, strict)
    if name == "thm46":
        return preset_thm46(t if t is not None else 1, c, delta, strict=True)
    if name == "thm48_3":
        return preset_thm48_3(eps if eps is not None else Fraction(1, 2), c, delta, strict)
    if name == "improved_s42":
        return preset_improved_s42(c, delta, strict)
    raise ParamError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")


def _ceil_pow(base: int, exponent: Fraction) -> int:
    """ceil(base^exponent) for a rational exponent, exactly.

    Finds the smallest integer v with v^den >= base^num.
    """
    num, den = exponent.numerator, exponent.denominator
    target = base**num
    v = max(1, math.ceil(float(base) ** (num / den)))
    while v**den >= target and v > 1:
        v -= 1
    while v**den < target:
        v += 1
    return v


def recursion_schedule(params: LegalParams, delta: int) -> List[int]:
    """Per-level degree bounds [Lambda_0 = delta, ..., Lambda_r <= lambda].

    For the thm45 preset additionally asserts the contraction inequality
    Lambda' <= 3c * Lambda / delta^(eps/3) whenever Lambda >= delta^eps.
    """
    seq = [delta]
    while seq[-1] > params.lam:
        cur = seq[-1]
        nxt = defect_bound(params.defective_at(cur))
        if nxt >= cur:
            raise ParamError(
                f"recursion fails to shrink: Lambda'={nxt} >= Lambda={cur} "
                f"(b={params.b}, p={params.p}, c={params.c})"
            )
        if params.preset.startswith("thm45") and params.eps is not None:
            _assert_contraction(cur, nxt, params.c, params.eps, delta)
        seq.append(nxt)
    return seq


def _assert_contraction(cur: int, nxt: int, c: int, eps: Fraction, delta: int):
    # only in the regime Lambda >= delta^eps; both comparisons done with
    # integer powers so rational exponents stay exact
    num, den = eps.numerator, eps.denominator
    if cur**den < delta**num:
        return
    # nxt <= 3c * cur / delta^(eps/3)  <=>  (nxt)^{3den} * delta^{num} <= (3c*cur)^{3den}
    if nxt ** (3 * den) * delta**num > (3 * c * cur) ** (3 * den):
        raise ParamError(
            f"contraction inequality violated at Lambda={cur}: Lambda'={nxt} "
            f"> 3c*Lambda/delta^(eps/3)"
        )


def vartheta_of_schedule(schedule: List[int], p: int) -> int:
    """(Lambda_r + 1) * p^r."""
    r = len(schedule) - 1
    return (schedule[-1] + 1) * p**r
