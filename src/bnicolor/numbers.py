"""Small number-theoretic helpers: primality, log*, and polynomial-family plans.

The coloring subroutines map a K-coloring into (evaluation point, value) pairs of
low-degree polynomials over a prime field. `step_plan` chooses the field size q
and the degree bound k of one step, legal (d = 0) or d-defective, and
`linial_schedule` iterates legal steps; both are pure arithmetic, shared by the
algorithms and by the tests' independent oracles. `agreement_counts` is the one
polynomial-agreement kernel behind the point choice of every reduction step. It
compares memoised value rows, each color's polynomial evaluated at every point
once per process; its docstring states the memo's bound and dtype rule. No
plan is refused for its size: k is free, and q is bounded only by the memory
one row takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

import numpy as np


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def next_prime(q: int) -> int:
    """Smallest prime >= q."""
    q = max(q, 2)
    while not is_prime(q):
        q += 1
    return q


def log_star(n: int) -> int:
    """Iterated base-2 logarithm: applications of log2 until the value is <= 2."""
    if n < 1:
        raise ValueError("log* needs n >= 1")
    count = 0
    x = float(n)
    while x > 2:
        x = math.log2(x)
        count += 1
    return count


def ceil_log2(n: int) -> int:
    return max(1, (n - 1).bit_length()) if n > 1 else 1


@dataclass(frozen=True)
class PolyPlan:
    """Field/degree choice for one polynomial-reduction step.

    A color in 1..n_colors is encoded base-q as the coefficients of a
    polynomial of degree <= k; the step output is x*q + P(x) for a chosen
    evaluation point x, i.e. a color in 1..q*q.
    """

    k: int
    q: int
    n_colors: int

    @property
    def palette(self) -> int:
        return self.q * self.q


def step_plan(n_colors: int, delta_bound: int, d: int = 0) -> PolyPlan:
    """Plan for one reduction step with at most d agreeing neighbors at the
    chosen point: q > k*delta for a legal step (d = 0), else q >= ceil(k*delta/d),
    which makes the agreement count floor(k*delta/q) <= d.

    Among degree bounds k >= 1, pick the one giving the smallest field, then the
    smallest such k.
    """
    if d < 0:
        raise ValueError("defect target must be non-negative")
    if n_colors < 2:
        return PolyPlan(1, 2, n_colors)
    best = None
    for k in range(1, 64):
        low = k * delta_bound + 1 if d == 0 else -(-k * delta_bound // d)
        q = next_prime(max(low, _root_bound(n_colors, k + 1), 2))
        if best is None or q < best.q:
            best = PolyPlan(k, q, n_colors)
        if q == 2:
            break
    return best


def linial_schedule(n_colors: int, delta_bound: int) -> List[PolyPlan]:
    """Iterate step plans until the palette stops shrinking; pure arithmetic."""
    plans: List[PolyPlan] = []
    current = n_colors
    while current > (delta_bound + 1) ** 2:  # else no step can shrink it: q > delta_bound
        plan = step_plan(current, delta_bound)
        if plan.palette >= current:
            break
        plans.append(plan)
        current = plan.palette
    return plans


def _root_bound(n_colors: int, power: int) -> int:
    """Smallest integer q with q**power >= n_colors."""
    q = max(2, round(n_colors ** (1.0 / power)))
    while q**power >= n_colors:
        q -= 1
    while q**power < n_colors:
        q += 1
    return q


def poly_coeffs(color: int, k: int, q: int) -> List[int]:
    """Base-q digits (low first) of color-1, padded to k+1 coefficients."""
    x = color - 1
    if not (0 <= x < q ** (k + 1)):
        raise ValueError(f"color {color} out of range for q={q}, k={k}")
    out = []
    for _ in range(k + 1):
        out.append(x % q)
        x //= q
    return out


def poly_eval(coeffs: List[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


class _ValueRows(dict):
    """Color -> bytes of P_color(0), ..., P_color(q-1) over GF(q), in the
    narrowest unsigned dtype that holds q-1. A row is built on the color's
    first lookup, once `poly_coeffs` has accepted the color. `poly_eval`
    runs over all points at once in int64, exact while q*q < 2**63: up to
    q = 3*10**9, where one row alone would take 12 GB."""

    def __init__(self, k: int, q: int):
        self.k, self.q = k, q
        self.points = np.arange(q, dtype=np.int64)
        self.dtype = np.min_scalar_type(q - 1)

    def __missing__(self, color: int) -> bytes:
        values = poly_eval(poly_coeffs(color, self.k, self.q), self.points, self.q)
        self[color] = values.astype(self.dtype).tobytes()
        return self[color]


@lru_cache(maxsize=64)
def _value_rows(k: int, q: int) -> _ValueRows:
    return _ValueRows(k, q)


def agreement_counts(own_color: int, nbr_colors: Sequence[int], plan: PolyPlan) -> np.ndarray:
    """Per evaluation point x in 0..q-1, the number of neighbor colors whose
    polynomial takes the same value at x as the own color's polynomial.

    All colors must lie in 1..q**(k+1), as for `poly_coeffs`. A neighbor with
    the own color agrees at every point; repeated neighbor colors count once
    each.

    The counts compare memoised value rows. The memo holds one `_ValueRows`
    for each of the 64 (k, q) pairs used last, and in it one row of q values
    for each in-range color looked up so far: q bytes while q <= 256, and 2
    or 4 bytes per value above.
    """
    rows = _value_rows(plan.k, plan.q)
    own = np.frombuffer(rows[own_color], rows.dtype)
    nbrs = np.frombuffer(b"".join([rows[c] for c in nbr_colors]), rows.dtype)
    return (nbrs.reshape(-1, plan.q) == own).sum(axis=0)
