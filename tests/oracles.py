"""Checks that only the tests use: independent oracles for properties the
library's algorithms rely on but never compute themselves."""

from __future__ import annotations

from bnicolor.graph import Graph, _neighbor_bits


def independence_at_most(g: Graph, c: int) -> bool:
    """True iff I(G) <= c, by searching each neighborhood for c+1 independent vertices."""
    if c < 0:
        return False
    nbr_bits = _neighbor_bits(g)

    def has_independent(avail: int, need: int) -> bool:
        if need == 0:
            return True
        if bin(avail).count("1") < need:
            return False
        low = avail & -avail
        v = low.bit_length() - 1
        if has_independent((avail & ~nbr_bits[v]) & ~low, need - 1):
            return True
        return has_independent(avail & ~low, need)

    return not any(has_independent(mask, c + 1) for mask in nbr_bits.values())
