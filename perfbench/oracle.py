"""Independent reference tree rate: the uncapacitated optimum.

With qubit budgets ignored, the best entanglement tree over a user set
is the maximum spanning tree over the best user-to-user channel rates
(the paper's Theorem 3).  :class:`TreeOracle` computes it with networkx
shortest paths on a digraph built straight from the network's fibers —
not with the program's channel search — so it serves as a correctness
bound (no tree may beat it, and Algorithm 2 must meet it) and as the
denominator of the ``rate_vs_opt`` quality metric.

In the digraph a channel's cost is ``α·ΣL − (#swaps)·ln q`` (the log of
Eq. 1, negated): the swap term sits on the out-edges of switches, only
switches with at least 2 qubits have out-edges, and quantum users other
than the channel's source never relay.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Optional

import networkx as nx


class TreeOracle:
    """Best channels and uncapacitated optimal trees of one network."""

    def __init__(self, network) -> None:
        self.network = network
        alpha = network.params.alpha
        q = network.params.swap_prob
        swap_cost = -math.log(q) if q > 0 else math.inf
        graph = nx.DiGraph()
        for fiber in network.fibers:
            for tail, head in ((fiber.u, fiber.v), (fiber.v, fiber.u)):
                cost = alpha * fiber.length
                if network.is_switch(tail):
                    if (network.qubits_of(tail) or 0) < 2 or math.isinf(swap_cost):
                        continue
                    cost += swap_cost
                graph.add_edge(tail, head, cost=cost)
        self._graph = graph
        self._costs: Dict[Hashable, Dict[Hashable, float]] = {}

    def channel_log_rate(self, source: Hashable, target: Hashable) -> float:
        """Log rate of the best source–target channel (``-inf`` if none)."""
        costs = self._costs.get(source)
        if costs is None:
            is_user = self.network.is_user

            def cost(tail, head, data):
                # Hidden edge: a user other than the source cannot relay.
                if tail != source and is_user(tail):
                    return None
                return data["cost"]

            costs = (
                nx.single_source_dijkstra_path_length(self._graph, source, weight=cost)
                if source in self._graph
                else {}
            )
            self._costs[source] = costs
        found = costs.get(target)
        return -found if found is not None else -math.inf

    def tree_log_rate(self, users: Iterable[Hashable]) -> Optional[float]:
        """Log Eq. 2 rate of the best tree over *users*; None if none exists."""
        members = sorted(set(users), key=repr)
        edges = []
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                log_rate = self.channel_log_rate(a, b)
                if log_rate > -math.inf:
                    edges.append((log_rate, repr(a), repr(b), a, b))
        edges.sort(key=lambda edge: (-edge[0], edge[1], edge[2]))
        parent = {member: member for member in members}

        def find(node):
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        chosen = []
        for log_rate, _, _, a, b in edges:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_a] = root_b
                chosen.append(log_rate)
        if len(chosen) != len(members) - 1:
            return None
        return math.fsum(chosen)
