"""Algorithm 1's search against a reference copy and a networkx oracle.

:func:`reference_dijkstra` is the dict-and-:class:`IndexedMinHeap`
search that :func:`repro.core.channel.dijkstra` replaced with an
int-indexed loop over the network's routing snapshot.  The two must
agree exactly — same distances, same predecessors, same dict order —
because equal-cost ties decide which channel is returned, and the
experiment digests depend on it.  The networkx oracle checks the
distances against an independent shortest-path implementation.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import dijkstra
from repro.core.rates import swap_log_rate
from repro.network import NetworkBuilder, NetworkParams
from repro.network.errors import UnknownNodeError
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network, ring_network
from repro.utils.heap import IndexedMinHeap


def reference_dijkstra(
    network,
    source,
    residual=None,
    forbidden_fibers=None,
    allow_switch_source=False,
):
    """The dict-walking search, kept verbatim as the test reference."""
    if not allow_switch_source and not network.is_user(source):
        raise ValueError(f"source {source!r} must be a quantum user")
    qubits = network.residual_qubits() if residual is None else residual
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)  # in [0, +inf]

    dist = {source: 0.0}
    prev = {}
    visited = set()
    heap = IndexedMinHeap()
    heap.push(source, 0.0)

    while len(heap):
        node, node_dist = heap.pop_min()
        if node in visited:
            continue
        visited.add(node)
        # Only the source user and capable switches may relay onward.
        if node != source:
            if not network.is_switch(node):
                continue
            if qubits.get(node, 0) < 2:
                continue
        swap_cost = 0.0 if node == source else minus_ln_q
        if math.isinf(swap_cost):
            continue  # q = 0: cannot extend beyond the source's own links
        for fiber in network.incident_fibers(node):
            neighbor = fiber.other_end(node)
            if neighbor in visited:
                continue
            if forbidden_fibers and fiber.key in forbidden_fibers:
                continue
            # A neighbor is enterable if it terminates (any user) or can
            # potentially relay (switch with >= 2 residual qubits).
            if network.is_switch(neighbor) and qubits.get(neighbor, 0) < 2:
                continue
            candidate = node_dist + swap_cost + alpha * fiber.length
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heap.push(neighbor, candidate)
    return dist, prev


def assert_same_search(network, source, **kwargs):
    """dijkstra equals the reference, values and dict order both."""
    dist, prev = dijkstra(network, source, **kwargs)
    ref_dist, ref_prev = reference_dijkstra(network, source, **kwargs)
    assert list(dist.items()) == list(ref_dist.items())
    assert list(prev.items()) == list(ref_prev.items())
    return dist, prev


# ----------------------------------------------------------------------
# Hypothesis-drawn networks and search states
# ----------------------------------------------------------------------
#: q = 1 makes swaps free and q = 0 forbids them; both stress tie and
#: cut-off handling beyond the paper's q = 0.9.
SWAP_PROBS = st.sampled_from([0.0, 0.5, 0.9, 1.0])


@st.composite
def networks(draw):
    params = NetworkParams(alpha=1e-4, swap_prob=draw(SWAP_PROBS))
    kind = draw(st.sampled_from(["waxman", "grid", "ring"]))
    qubits = draw(st.integers(min_value=0, max_value=4))
    if kind == "grid":
        # Equal-length lattice fibers: many equal-cost paths.
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
def search_cases(draw):
    """A network plus one search's source, residual map and fibers."""
    network = draw(networks())
    kwargs = {}
    if draw(st.booleans()):
        kwargs["residual"] = {
            switch: draw(st.integers(min_value=0, max_value=4))
            for switch in network.switch_ids
        }
    fiber_keys = [fiber.key for fiber in network.fibers]
    if fiber_keys and draw(st.booleans()):
        kwargs["forbidden_fibers"] = set(
            draw(st.lists(st.sampled_from(fiber_keys), max_size=6))
        )
    if network.switch_ids and draw(st.booleans()):
        source = draw(st.sampled_from(network.switch_ids))
        kwargs["allow_switch_source"] = True
    else:
        source = draw(st.sampled_from(network.user_ids))
    return network, source, kwargs


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_matches_reference_exactly(case):
    network, source, kwargs = case
    assert_same_search(network, source, **kwargs)


@pytest.mark.parametrize(
    "network",
    [
        grid_network(4, 6, params=NetworkParams(swap_prob=1.0)),
        grid_network(5, 5, corner_users=False),
        ring_network(10, n_users=4, params=NetworkParams(swap_prob=1.0)),
        ring_network(9, n_users=3),
    ],
    ids=["grid-q1", "grid-mid", "ring-q1", "ring"],
)
def test_tied_topologies_match_reference(network):
    for source in network.user_ids:
        assert_same_search(network, source)


# ----------------------------------------------------------------------
# Differential oracle: networkx on the transformed digraph
# ----------------------------------------------------------------------
def transformed_digraph(network, source, residual, forbidden):
    """Algorithm 1's search space as a plain weighted digraph.

    Users other than the source are sinks, switches with fewer than 2
    residual qubits are dropped (unless they are the source), and every
    switch out-edge carries the swap cost ``-ln q``.
    """
    minus_ln_q = -swap_log_rate(network.params.swap_prob)
    graph = nx.DiGraph()
    graph.add_node(source)
    for node_id in network.node_ids:
        if network.is_switch(node_id) and residual.get(node_id, 0) < 2:
            continue
        graph.add_node(node_id)
    for fiber in network.fibers:
        if fiber.key in forbidden:
            continue
        for tail, head in ((fiber.u, fiber.v), (fiber.v, fiber.u)):
            if tail not in graph or head not in graph or head == source:
                continue
            weight = network.params.alpha * fiber.length
            if tail != source:
                if not network.is_switch(tail) or math.isinf(minus_ln_q):
                    continue
                weight += minus_ln_q
            graph.add_edge(tail, head, weight=weight)
    return graph


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_distances_match_networkx_oracle(case):
    network, source, kwargs = case
    residual = kwargs.get("residual") or network.residual_qubits()
    forbidden = kwargs.get("forbidden_fibers") or set()
    dist, _ = dijkstra(network, source, **kwargs)
    graph = transformed_digraph(network, source, residual, forbidden)
    expected = nx.single_source_dijkstra_path_length(graph, source)
    assert set(dist) == set(expected)
    for node_id, value in expected.items():
        assert math.isclose(dist[node_id], value, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# The memoized routing snapshot follows every topology change
# ----------------------------------------------------------------------
def diamond():
    """a joins b through s1 or s2 at equal cost: a real tie."""
    return (
        NetworkBuilder()
        .user("a", (0, 0))
        .switch("s1", (1000, 1000))
        .switch("s2", (1000, -1000))
        .user("b", (2000, 0))
        .fiber("a", "s1", 1000)
        .fiber("a", "s2", 1000)
        .fiber("s1", "b", 1000)
        .fiber("s2", "b", 1000)
        .build()
    )


class TestSnapshotInvalidation:
    def test_add_user(self):
        net = diamond()
        dijkstra(net, "a")
        net.add_user("c", (3000, 0))
        assert "c" not in assert_same_search(net, "a")[0]
        net.add_fiber("c", "s1", 500)
        dist, _ = assert_same_search(net, "c")
        assert "b" in dist

    def test_add_switch(self):
        net = diamond()
        dijkstra(net, "a")
        net.add_switch("s3", (500, 0))
        dist, _ = assert_same_search(net, "s3", allow_switch_source=True)
        assert list(dist) == ["s3"]

    def test_add_fiber(self):
        net = diamond()
        before, _ = dijkstra(net, "a")
        net.add_fiber("a", "b", 100)
        after, prev = assert_same_search(net, "a")
        assert after["b"] < before["b"]
        assert prev["b"] == "a"

    def test_remove_fiber(self):
        net = diamond()
        assert dijkstra(net, "a")[1]["b"] == "s1"
        net.remove_fiber("s1", "b")
        _, prev = assert_same_search(net, "a")
        assert prev["b"] == "s2"

    def test_align_fiber_order_restores_tie_order(self):
        reference = diamond()
        net = reference.copy()
        net.remove_fiber("a", "s1")
        net.add_fiber("a", "s1", 1000)
        # a's row now lists s2 first, so the tie at b flips to s2.
        assert dijkstra(net, "a")[1]["b"] == "s2"
        net.align_fiber_order(reference)
        dist, prev = assert_same_search(net, "a")
        ref_dist, ref_prev = dijkstra(reference, "a")
        assert prev["b"] == "s1"
        assert list(dist.items()) == list(ref_dist.items())
        assert list(prev.items()) == list(ref_prev.items())

    def test_mutating_a_copy_leaves_the_original(self):
        original = diamond()
        before = dijkstra(original, "a")
        clone = original.copy()
        clone.remove_fiber("s1", "b")
        clone.add_fiber("a", "b", 100)
        _, clone_prev = assert_same_search(clone, "a")
        assert clone_prev["b"] == "a"
        assert dijkstra(original, "a") == before
        assert_same_search(original, "a")

    def test_with_params(self):
        net = diamond()
        before, _ = dijkstra(net, "a")
        slower = net.with_params(NetworkParams(alpha=2e-4, swap_prob=0.5))
        after, _ = assert_same_search(slower, "a")
        assert after["b"] > before["b"]
        assert dijkstra(net, "a")[0] == before

    def test_with_switch_qubits(self):
        net = diamond()
        assert "b" in dijkstra(net, "a")[0]
        starved = net.with_switch_qubits(1)
        dist, _ = assert_same_search(starved, "a")
        assert "b" not in dist


class TestUnknownSource:
    def test_switch_source_search_raises_typed_error(self):
        with pytest.raises(UnknownNodeError) as info:
            dijkstra(diamond(), "missing", allow_switch_source=True)
        assert info.value.node_id == "missing"

    def test_user_source_search_raises_typed_error(self):
        with pytest.raises(UnknownNodeError) as info:
            dijkstra(diamond(), "missing")
        assert info.value.node_id == "missing"
