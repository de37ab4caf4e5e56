"""A fixed reference kernel that tracks the machine's momentary speed.

On a shared machine the speed available to one process drifts by tens
of percent over seconds and minutes as other tenants come and go.  The
benchmark runs this kernel — a heap-based Dijkstra over a fixed seeded
graph, written here and independent of the program — in the gaps
between measured passes, about 5% of the run's time.  The median kernel
time of a run is divided by :data:`REFERENCE_S` to give the run's
slowdown factor, and throughputs are reported at reference speed:
measured throughput times that factor.  A change to the program moves
the measured passes but not the kernel, so it still shows in full.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Dict, List, Tuple

#: Median kernel time on the machine the benchmark was tuned on (a
#: 2-vCPU Intel Xeon sandbox, Python 3.11).  Only a scale: it makes a
#: reference-speed throughput read like a throughput on that machine.
REFERENCE_S = 0.0044

#: Share of each measured pass's time spent on kernel samples after it.
SHARE = 0.05

_NODES = 1500
_EDGES_PER_NODE = 3


def _graph() -> Dict[int, List[Tuple[int, float]]]:
    rng = random.Random(20240607)
    adjacency: Dict[int, List[Tuple[int, float]]] = {i: [] for i in range(_NODES)}
    for node in range(_NODES):
        for _ in range(_EDGES_PER_NODE):
            other = rng.randrange(_NODES)
            weight = rng.random()
            adjacency[node].append((other, weight))
            adjacency[other].append((node, weight))
    return adjacency


class Calibration:
    """Kernel samples of one run."""

    def __init__(self) -> None:
        self._graph = _graph()
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time one kernel run (seconds) and record it."""
        graph = self._graph
        started = time.perf_counter()
        dist = {0: 0.0}
        done = set()
        heap = [(0.0, 0)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for other, weight in graph[node]:
                candidate = d + weight
                if candidate < dist.get(other, float("inf")):
                    dist[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def after_pass(self, pass_s: float) -> None:
        """Sample the kernel for about :data:`SHARE` of *pass_s*."""
        for _ in range(max(1, round(SHARE * pass_s / REFERENCE_S))):
            self.sample()

    def slowdown(self) -> float:
        """The run's median kernel time over :data:`REFERENCE_S`."""
        return statistics.median(self.samples) / REFERENCE_S
