"""Small number-theoretic helpers: primality, log*, and polynomial-family plans.

The coloring subroutines map a K-coloring into (evaluation point, value) pairs of
low-degree polynomials over a prime field. `step_plan` chooses the field size q
and the degree bound k of one step, legal (d = 0) or d-defective, and
`linial_schedule` iterates legal steps; both are pure arithmetic, shared by the
algorithms and by the tests' independent oracles. `agreement_counts` is the one
polynomial-agreement kernel behind the point choice of every reduction step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

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
    while True:
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


@lru_cache(maxsize=256)
def _power_table(plan: PolyPlan) -> Tuple[np.ndarray, int]:
    """(q, k+1) table of x**j mod q for every point x, and the color bound q**(k+1)."""
    k, q = plan.k, plan.q
    if (k + 1) * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"plan q={q}, k={k} overflows the int64 agreement kernel")
    table = np.ones((q, k + 1), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    for j in range(1, k + 1):
        table[:, j] = table[:, j - 1] * xs % q
    table.flags.writeable = False  # shared by every caller through the cache
    return table, q ** (k + 1)


def agreement_counts(own_color: int, nbr_colors: Sequence[int], plan: PolyPlan) -> np.ndarray:
    """Per evaluation point x in 0..q-1, the number of neighbor colors whose
    polynomial takes the same value at x as the own color's polynomial.

    All colors must lie in 1..q**(k+1), as for `poly_coeffs`. A neighbor with
    the own color agrees at every point; repeated neighbor colors count once
    each.
    """
    k, q = plan.k, plan.q
    table, bound = _power_table(plan)
    colors = [own_color, *nbr_colors]
    lo, hi = min(colors), max(colors)
    if lo < 1 or hi > bound:
        bad = lo if lo < 1 else hi
        raise ValueError(f"color {bad} out of range for q={q}, k={k}")
    rest = np.array(colors, dtype=np.int64) - 1
    digits = np.empty((k + 1, len(colors)), dtype=np.int64)
    for j in range(k + 1):
        rest, digits[j] = np.divmod(rest, q)
    values = table @ digits % q  # values[x, i] = P_i(x)
    return np.count_nonzero(values[:, 1:] == values[:, :1], axis=1)
