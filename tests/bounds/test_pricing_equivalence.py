"""LP pricing through Algorithm 1's search against the old pricer.

:func:`reference_pricing_search` is the dict-and-:class:`IndexedMinHeap`
pricing search that :func:`repro.bounds.lp.solve_relaxation` used
before it priced through :func:`repro.core.channel.dijkstra` with a
``penalties`` map.  The two must agree exactly — same distances, same
predecessors — because the paths they trace become LP columns, and the
certificates pinned in ``certificate_identity.json`` depend on them.
The cache tests pin the rule that only all-zero penalties may use the
:class:`~repro.exec.cache.ChannelCache`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import dijkstra, trace_path
from repro.core.rates import swap_log_rate
from repro.exec import cache as exec_cache
from repro.network import NetworkParams
from repro.network.graph import QuantumNetwork
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network, ring_network
from repro.utils.heap import IndexedMinHeap


def reference_pricing_search(
    network: QuantumNetwork,
    source: Hashable,
    penalties: Dict[Hashable, float],
    budgets: Optional[Dict[Hashable, int]],
) -> Tuple[Dict[Hashable, float], Dict[Hashable, Hashable]]:
    """Exact pricing: min-cost user→user paths under dual penalties.

    Mirrors :func:`repro.core.channel.dijkstra` (same ``α·L − ln q``
    weight space, users never relay) but charges an extra nonnegative
    ``penalties[r]`` when transiting switch ``r``.  With *budgets*
    given, only switches holding ≥ 2 qubits may relay (the capacitated
    universe); with ``None`` every switch may relay (the uncapacitated
    universe used to bound capacity-exempt methods).
    """
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)

    dist: Dict[Hashable, float] = {source: 0.0}
    prev: Dict[Hashable, Hashable] = {}
    visited: set = set()
    heap = IndexedMinHeap()
    heap.push(source, 0.0)
    while len(heap):
        node, node_dist = heap.pop_min()
        if node in visited:
            continue
        visited.add(node)
        if node != source:
            if not network.is_switch(node):
                continue
            if budgets is not None and budgets.get(node, 0) < 2:
                continue
        transit_cost = (
            0.0
            if node == source
            else minus_ln_q + penalties.get(node, 0.0)
        )
        if math.isinf(transit_cost):
            continue  # q = 0: only the source's own fibers are usable
        for fiber in network.incident_fibers(node):
            neighbor = fiber.other_end(node)
            if neighbor in visited:
                continue
            if (
                network.is_switch(neighbor)
                and budgets is not None
                and budgets.get(neighbor, 0) < 2
            ):
                continue
            candidate = node_dist + transit_cost + alpha * fiber.length
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heap.push(neighbor, candidate)
    return dist, prev


def relay_residual(network, budgets):
    """The residual map the LP passes: budgets, or every switch relays."""
    if budgets is not None:
        return budgets
    return dict.fromkeys(network.switch_ids, 2)


def assert_same_pricing(network, source, penalties, budgets):
    dist, prev = dijkstra(
        network,
        source,
        relay_residual(network, budgets),
        penalties=penalties,
    )
    ref_dist, ref_prev = reference_pricing_search(
        network, source, penalties, budgets
    )
    assert list(dist.items()) == list(ref_dist.items())
    for target in network.user_ids:
        if target == source:
            continue
        assert (target in dist) == (target in ref_dist)
        if target in ref_dist:
            assert trace_path(prev, source, target) == trace_path(
                ref_prev, source, target
            )


# ----------------------------------------------------------------------
# Hypothesis-drawn networks, budgets and dual penalties
# ----------------------------------------------------------------------
SWAP_PROBS = st.sampled_from([0.0, 0.5, 0.9, 1.0])

#: Nonnegative dual penalties, with exact zeros (both signs) common:
#: the LP's sign-corrected duals produce ``-2.0 * 0.0 == -0.0``.
PENALTIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


@st.composite
def networks(draw):
    params = NetworkParams(alpha=1e-4, swap_prob=draw(SWAP_PROBS))
    kind = draw(st.sampled_from(["waxman", "grid", "ring"]))
    qubits = draw(st.integers(min_value=0, max_value=4))
    if kind == "grid":
        return grid_network(
            draw(st.integers(min_value=2, max_value=5)),
            draw(st.integers(min_value=2, max_value=5)),
            corner_users=draw(st.booleans()),
            qubits_per_switch=qubits,
            params=params,
        )
    if kind == "ring":
        n_nodes = draw(st.integers(min_value=3, max_value=12))
        return ring_network(
            n_nodes,
            n_users=draw(st.integers(min_value=2, max_value=n_nodes)),
            qubits_per_switch=qubits,
            params=params,
        )
    config = TopologyConfig(
        n_switches=draw(st.integers(min_value=0, max_value=25)),
        n_users=draw(st.integers(min_value=2, max_value=6)),
        avg_degree=draw(st.sampled_from([2.0, 4.0, 6.0])),
        qubits_per_switch=qubits,
        swap_prob=params.swap_prob,
    )
    return waxman_network(config, rng=draw(st.integers(0, 2**16)))


@st.composite
def pricing_cases(draw):
    """A network plus one pricing search's source, penalties, budgets."""
    network = draw(networks())
    switches = network.switch_ids
    if draw(st.booleans()):
        penalties = {}
    elif draw(st.booleans()):
        penalties = dict.fromkeys(switches, draw(st.sampled_from([0.0, -0.0])))
    else:
        penalties = {switch: draw(PENALTIES) for switch in switches}
    mode = draw(st.sampled_from(["uncapacitated", "budgets", "blocked"]))
    if mode == "uncapacitated":
        budgets = None
    elif mode == "budgets":
        budgets = network.residual_qubits()
    else:
        budgets = {
            switch: draw(st.integers(min_value=0, max_value=4))
            for switch in switches
        }
    source = draw(st.sampled_from(network.user_ids))
    return network, source, penalties, budgets


@settings(max_examples=200, deadline=None)
@given(pricing_cases())
def test_matches_reference_pricing_exactly(case):
    network, source, penalties, budgets = case
    assert_same_pricing(network, source, penalties, budgets)


@pytest.mark.parametrize(
    "network",
    [
        grid_network(4, 6, params=NetworkParams(swap_prob=1.0)),
        grid_network(5, 5, corner_users=False),
        ring_network(10, n_users=4, params=NetworkParams(swap_prob=1.0)),
    ],
    ids=["grid-q1", "grid-mid", "ring-q1"],
)
def test_tied_topologies_match_reference_pricing(network):
    # Equal penalties keep the lattice's ties; a single penalized
    # switch shifts them.
    first = network.switch_ids[0]
    for penalties in ({}, dict.fromkeys(network.switch_ids, 0.5), {first: 1.0}):
        for source in network.user_ids:
            assert_same_pricing(network, source, penalties, None)
            assert_same_pricing(
                network, source, penalties, network.residual_qubits()
            )


# ----------------------------------------------------------------------
# Cache rule: duals are not part of the key
# ----------------------------------------------------------------------
def _network():
    return waxman_network(TopologyConfig(n_switches=20, n_users=4), rng=3)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_penalties_share_the_unpenalized_entry(zero):
    network = _network()
    source = network.user_ids[0]
    with exec_cache.caching() as cache:
        plain = dijkstra(network, source)
        before = cache.stats()
        zeroed = dijkstra(
            network,
            source,
            penalties=dict.fromkeys(network.switch_ids, zero),
        )
        after = cache.stats()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
    assert after.entries == before.entries == 1
    assert zeroed == plain


def test_nonzero_penalties_bypass_the_cache():
    network = _network()
    source = network.user_ids[0]
    penalties = dict.fromkeys(network.switch_ids, 0.0)
    penalties[network.switch_ids[0]] = 0.25
    with exec_cache.caching() as cache:
        dijkstra(network, source)
        before = cache.stats()
        first = dijkstra(network, source, penalties=penalties)
        second = dijkstra(network, source, penalties=penalties)
        after = cache.stats()
    assert (after.hits, after.misses, after.entries) == (
        before.hits,
        before.misses,
        before.entries,
    )
    assert first == second == dijkstra(network, source, penalties=penalties)
