"""The reference kernel that the benchmark's times are measured against.

On a shared machine the speed of the whole process changes with the
neighbours' load, by up to about 2x and for seconds to minutes at a time.
The benchmark therefore times this kernel just before and just after every
operation and divides the operation's seconds by the mean of the two, which
cancels the load of that moment. Multiplied by REF_SECONDS, the result reads
as seconds on an unloaded machine.

The kernel is plain Python that does not touch bnicolor, so no change to the
library changes it: a greedy coloring of a fixed random graph, which uses the
same kinds of operations as the simulator (dicts, sets, small ints, calls).
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# about the kernel's fastest seconds on a 2-core x86 virtual machine under
# Python 3.11; it only sets the scale of every reported time
REF_SECONDS = 0.02

N, EDGES = 4000, 16000


def reference_kernel() -> int:
    rng = random.Random(12345)
    adj = [set() for _ in range(N)]
    for _ in range(EDGES):
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    colors = {}
    for v in sorted(range(N), key=lambda v: -len(adj[v])):
        used = {colors[w] for w in adj[v] if w in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return max(colors.values())


def reference_seconds() -> float:
    """Seconds of one call of the reference kernel."""
    gc.collect()
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start
