"""A machine-speed probe, so that end-to-end times follow the library and not the host.

On a shared host the speed of one core drifts: a fixed Python loop runs
15-20% slower or faster from one few-second stretch to the next, and
more between runs minutes apart.  That drift is larger than any bound a
benchmark could keep.  So the closed loop times a fixed pure-Python task,
the probe, every ``EVERY_S`` seconds between items, and every end-to-end
time is scaled by ``REFERENCE_S`` over the probe's median time around it:
a time is reported as it would read on a core where the probe takes
exactly ``REFERENCE_S``.

The probe does what the library's inner loops do (depth-first reach over
a dict of successor tuples, set and frozenset building, sorting) but
never calls the library, so a change to the library moves scaled times
exactly as much as raw ones.  Raw figures and the probe's own median go
into the metadata of every run.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from array import array

# The probe's time on the core the scaled figures refer to.  A fixed round
# figure: on a 2-vCPU cloud host with CPython 3.11 the probe takes
# 0.5-1.0 ms, depending on the load from elsewhere on the host.
REFERENCE_S = 0.0006
# Probe spacing, and how many probes on each side of an item set its scale.
EVERY_S = 0.025
HALF_WINDOW = 8


def _probe_graph(n: int = 300, degree: int = 3, seed: int = 20250701) -> dict[str, tuple[str, ...]]:
    rng = random.Random(seed)
    names = [f"p{k:04d}" for k in range(n)]
    return {v: tuple(rng.sample(names, degree)) for v in names}


_GRAPH = _probe_graph()
_STARTS = tuple(sorted(_GRAPH)[:: len(_GRAPH) // 6])


def probe_task() -> int:
    """The fixed task: reach from six nodes, as sets, frozensets and a sort."""
    total = 0
    for s in _STARTS:
        seen = {s}
        stack = [s]
        while stack:
            for w in _GRAPH[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(sorted(frozenset(seen)))
    return total


def time_probe() -> float:
    t0 = time.perf_counter()
    probe_task()
    return time.perf_counter() - t0


def probe_median(k: int = 15) -> float:
    """The median of ``k`` probes taken now."""
    return statistics.median(time_probe() for _ in range(k))


class SpeedProbe:
    """Probes taken between the items of one closed loop."""

    def __init__(self):
        self.at = array("q")  # number of items finished when each probe ran
        self.took = array("d")
        self._last = -float("inf")

    def tick(self, items_done: int) -> None:
        """Probe once if ``EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.at.append(items_done)
            self.took.append(time_probe())
            self._last = time.perf_counter()

    def scales(self, n_items: int) -> list[float]:
        """Per item, ``REFERENCE_S`` over the median of the probes nearest it."""
        if not self.took:
            return [1.0] * n_items
        took = list(self.took)
        window = [
            REFERENCE_S / statistics.median(took[max(0, j - HALF_WINDOW) : j + HALF_WINDOW + 1])
            for j in range(len(took))
        ]
        # Item i ran between the probes before and after it; use the later one.
        last = len(took) - 1
        return [window[min(bisect.bisect_right(self.at, i), last)] for i in range(n_items)]

    def median(self) -> float | None:
        return statistics.median(self.took) if self.took else None
