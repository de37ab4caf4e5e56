"""Algorithm 2 against an independent networkx maximum spanning tree.

Algorithm 2's rate is the uncapacitated bound every bounded experiment
reports (:func:`repro.bounds.gap.trial_bounds`), so it is checked here
against code that shares nothing with it: best-channel costs from
networkx shortest paths on a digraph built straight from the fibers,
and ``nx.maximum_spanning_tree`` over those costs.  In the digraph a
channel costs ``α·ΣL − (#swaps)·ln q``: the swap term sits on the
out-edges of switches, only switches with at least 2 qubits have
out-edges, and a user other than the source never relays.
"""

from __future__ import annotations

import math

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimal import solve_optimal
from repro.network import NetworkParams
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network
from repro.topology.watts_strogatz import watts_strogatz_network


def best_channel_costs(network, source):
    """Cost of the best channel from *source* to every reachable node."""
    minus_ln_q = -math.log(network.params.swap_prob)
    graph = nx.DiGraph()
    graph.add_node(source)
    for fiber in network.fibers:
        for tail, head in ((fiber.u, fiber.v), (fiber.v, fiber.u)):
            if tail == source:
                graph.add_edge(tail, head, cost=network.params.alpha * fiber.length)
            elif network.is_switch(tail) and (network.qubits_of(tail) or 0) >= 2:
                graph.add_edge(
                    tail,
                    head,
                    cost=network.params.alpha * fiber.length + minus_ln_q,
                )
    # Users never relay: drop every out-edge of a user but the source.
    graph.remove_edges_from(
        [
            (tail, head)
            for tail, head in graph.edges
            if tail != source and network.is_user(tail)
        ]
    )
    return nx.single_source_dijkstra_path_length(graph, source, weight="cost")


def oracle_log_rate(network):
    """Log rate of the maximum spanning tree over best channels, or None."""
    users = list(network.user_ids)
    complete = nx.Graph()
    complete.add_nodes_from(users)
    for i, a in enumerate(users):
        costs = best_channel_costs(network, a)
        for b in users[i + 1 :]:
            if b in costs:
                complete.add_edge(a, b, log_rate=-costs[b])
    tree = nx.maximum_spanning_tree(complete, weight="log_rate")
    if tree.number_of_edges() != len(users) - 1:
        return None
    return math.fsum(d["log_rate"] for _, _, d in tree.edges(data=True))


@st.composite
def networks(draw):
    q = draw(st.sampled_from([0.5, 0.9, 1.0]))
    kind = draw(st.sampled_from(["waxman", "grid", "watts_strogatz"]))
    qubits = draw(st.integers(min_value=0, max_value=4))
    if kind == "grid":
        return grid_network(
            draw(st.integers(min_value=2, max_value=5)),
            draw(st.integers(min_value=2, max_value=5)),
            corner_users=draw(st.booleans()),
            qubits_per_switch=qubits,
            params=NetworkParams(swap_prob=q),
        )
    config = TopologyConfig(
        n_switches=draw(st.integers(min_value=2, max_value=25)),
        n_users=draw(st.integers(min_value=2, max_value=7)),
        avg_degree=draw(st.sampled_from([2.0, 4.0, 6.0])),
        qubits_per_switch=qubits,
        swap_prob=q,
    )
    generate = waxman_network if kind == "waxman" else watts_strogatz_network
    return generate(config, rng=draw(st.integers(0, 2**16)))


@settings(max_examples=80, deadline=None)
@given(networks())
def test_algorithm2_is_the_maximum_spanning_tree(network):
    solution = solve_optimal(network)
    expected = oracle_log_rate(network)
    if expected is None:
        assert not solution.feasible
        return
    assert solution.feasible
    assert math.isclose(
        solution.log_rate, expected, rel_tol=1e-9, abs_tol=1e-9
    ), (solution.log_rate, expected)
