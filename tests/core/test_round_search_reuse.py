"""Reusing searches across reservation rounds changes no channel.

Algorithm 4, Algorithm 3's phase 2, the N-FUSION star and the two
repair loops each run rounds of "search from every source, keep the
best channel, reserve it".  They now share one
:class:`~repro.core.channel.RoundSearches` per solve and search a
source again only after a reservation blocks a switch.  The reference
loops below are the per-round loops as they were before, searching
from every source on every round.  The hypothesis suites check that
each rewritten loop returns exactly the reference's channels, in order,
over random Waxman, grid and ring networks with random starting
residuals; the count tests check the searches are actually saved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import nfusion
from repro.bounds import rounding
from repro.core.channel import RoundSearches, best_channels_from
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key, solve_optimal
from repro.core.prim_based import solve_prim
from repro.core.problem import Channel, MUERPSolution
from repro.extensions.recovery import apply_failures, repair_solution
from repro.network import NetworkBuilder, NetworkParams, QuantumNetwork
from repro.network.link import fiber_key
from repro.obs import metrics as obs_metrics
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network, ring_network
from repro.utils.unionfind import UnionFind


# ----------------------------------------------------------------------
# Reference loops: one search per source per round
# ----------------------------------------------------------------------
def reference_prim(network, start, remaining, ledger):
    """Algorithm 4's rounds; ``None`` when growth gets stuck."""
    connected = [start]
    selected = []
    while remaining:
        best = None
        for source in connected:
            found = best_channels_from(network, source, remaining, ledger)
            for channel in found.values():
                if best is None or channel_sort_key(channel) < channel_sort_key(best):
                    best = channel
        if best is None:
            return None
        ledger.reserve_channel(best)
        newcomer = best.endpoints[1]
        remaining.discard(newcomer)
        connected.append(newcomer)
        selected.append(best)
    return selected


def reference_conflict_free(network, user_list, ordered, ledger):
    """Algorithm 3: phase 1 as is, phase 2 searching every round."""
    unions = UnionFind(user_list)
    selected = []
    for channel in ordered:
        a, b = channel.endpoints
        if unions.connected(a, b):
            continue
        if ledger.try_reserve_channel(channel):
            unions.union(a, b)
            selected.append(channel)
    while unions.n_components > 1:
        best = None
        for index, source in enumerate(user_list):
            targets = [
                t
                for t in user_list[index + 1 :]
                if not unions.connected(source, t)
            ]
            if not targets:
                continue
            found = best_channels_from(network, source, targets, ledger)
            for channel in found.values():
                if best is None or channel_sort_key(channel) < channel_sort_key(best):
                    best = channel
        if best is None:
            return None
        admitted = ledger.try_reserve_channel(best)
        assert admitted
        unions.union(*best.endpoints)
        selected.append(best)
    return selected


def reference_route_star(network, center, user_list):
    """N-FUSION's star, re-routing after every admission."""
    residual = network.residual_qubits()
    pending = [u for u in user_list if u != center]
    star = []
    while pending:
        found = best_channels_from(network, center, pending, residual)
        best_target = None
        best_channel = None
        for target, channel in found.items():
            if best_channel is None or channel_sort_key(channel) < channel_sort_key(
                best_channel
            ):
                best_target, best_channel = target, channel
        if best_channel is None:
            return None
        for switch in best_channel.switches:
            residual[switch] -= 2
        star.append(best_channel)
        pending.remove(best_target)
    return star


def reference_repair(network, users, chosen, unions, ledger):
    """The LP rounding's Algorithm-1 completion (``log_rate >`` rule)."""
    added = 0
    while unions.n_components > 1:
        best = None
        for source in users:
            targets = [
                u for u in users if not unions.connected(source, u)
            ]
            if not targets:
                continue
            found = best_channels_from(network, source, targets, ledger)
            for channel in found.values():
                if best is None or channel.log_rate > best.log_rate:
                    best = channel
        if best is None:
            raise rounding._AttemptFailed("components cannot be reconnected")
        if not ledger.try_reserve_channel(best):
            raise rounding._AttemptFailed("residual search returned a full switch")
        a, b = best.endpoints
        unions.union(a, b)
        chosen.append(best)
        added += 1
    return added


def reference_reconnect(damaged, users, unions, residual):
    """The fiber-cut repair's rounds; ``None`` when users stay split."""
    new_channels = []
    while unions.n_components > 1:
        best = None
        for index, source in enumerate(users):
            targets = [
                t for t in users[index + 1 :] if not unions.connected(source, t)
            ]
            if not targets:
                continue
            found = best_channels_from(damaged, source, targets, residual)
            for candidate in found.values():
                if best is None or channel_sort_key(candidate) < channel_sort_key(best):
                    best = candidate
        if best is None:
            return None
        for switch in best.switches:
            residual[switch] -= 2
        unions.union(*best.endpoints)
        new_channels.append(best)
    return new_channels


# ----------------------------------------------------------------------
# Hypothesis-drawn networks and residuals
# ----------------------------------------------------------------------
SWAP_PROBS = st.sampled_from([0.0, 0.9, 1.0])
QUBITS = st.sampled_from([1, 2, 4])


@st.composite
def networks(draw):
    params = NetworkParams(alpha=1e-4, swap_prob=draw(SWAP_PROBS))
    kind = draw(st.sampled_from(["waxman", "grid", "ring"]))
    qubits = draw(QUBITS)
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
        n_users=draw(st.integers(min_value=2, max_value=7)),
        avg_degree=draw(st.sampled_from([3.0, 4.0, 6.0])),
        qubits_per_switch=qubits,
        swap_prob=params.swap_prob,
    )
    return waxman_network(config, rng=draw(st.integers(0, 2**16)))


def draw_residual(draw, network):
    """Either the full budgets or a random residual of at most Q each."""
    budgets = network.residual_qubits()
    if draw(st.booleans()):
        return budgets
    return {
        switch: draw(st.integers(min_value=0, max_value=qubits))
        for switch, qubits in budgets.items()
    }


def with_budgets(network, budgets):
    """Copy of *network* whose switches hold *budgets* qubits."""
    clone = QuantumNetwork(network.params)
    for node in network.nodes:
        if network.is_switch(node.id):
            clone.add_switch(node.id, node.position, qubits=budgets[node.id])
        else:
            clone.add_user(node.id, node.position)
    for fiber in network.fibers:
        clone.add_fiber(fiber.u, fiber.v, fiber.length, fiber.cores)
    return clone


def paths(channels):
    return None if channels is None else [c.path for c in channels]


# ----------------------------------------------------------------------
# Differential suites
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_prim_matches_reference(data):
    network = data.draw(networks())
    users = network.user_ids
    start = data.draw(st.sampled_from(users))
    residual = draw_residual(data.draw, network)
    shared = dict(residual)
    solution = solve_prim(network, users, start=start, residual=shared)
    ledger = CapacityLedger.adopt(residual, network)
    expected = reference_prim(network, start, set(users) - {start}, ledger)
    if expected is None:
        assert not solution.feasible
        assert shared == residual
    else:
        assert paths(solution.channels) == paths(expected)
        assert shared == ledger.as_dict()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_conflict_free_matches_reference(data):
    network = data.draw(networks())
    users = network.user_ids
    residual = draw_residual(data.draw, network)
    base = solve_optimal(network, users)
    base_channels = base.channels if base.feasible else ()
    if data.draw(st.booleans()):
        base_channels = ()  # phase 2 builds the whole tree
    solution = solve_conflict_free(
        network, users, base_channels=base_channels, residual=dict(residual)
    )
    expected = reference_conflict_free(
        network,
        users,
        sorted(base_channels, key=channel_sort_key),
        CapacityLedger.adopt(residual, network),
    )
    if expected is None:
        assert not solution.feasible
    else:
        assert paths(solution.channels) == paths(expected)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nfusion_star_matches_reference(data):
    network = data.draw(networks())
    network = with_budgets(network, draw_residual(data.draw, network))
    users = network.user_ids
    for center in users:
        assert paths(nfusion._route_star(network, center, users)) == paths(
            reference_route_star(network, center, users)
        )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rounding_repair_matches_reference(data):
    network = data.draw(networks())
    users = sorted(network.user_ids, key=repr)
    residual = draw_residual(data.draw, network)
    # Few merges leave many components, so the repair runs many rounds.
    merged = data.draw(
        st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)),
                 max_size=len(users) // 2)
    )
    outcomes = []
    for repair in (rounding._repair, reference_repair):
        unions = UnionFind(users)
        for a, b in merged:
            unions.union(a, b)
        ledger = CapacityLedger.adopt(residual, network)
        chosen = []
        try:
            added = repair(network, users, chosen, unions, ledger)
        except rounding._AttemptFailed as failure:
            added = str(failure)
        outcomes.append((added, paths(chosen), ledger.as_dict()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fiber_cut_repair_matches_reference(data):
    network = data.draw(networks())
    solution = solve_prim(network, rng=data.draw(st.integers(0, 99)))
    if not solution.feasible:
        return
    # Cutting several channels makes the repair run several rounds.
    cuts = []
    for channel in data.draw(
        st.lists(st.sampled_from(solution.channels), min_size=1, max_size=3)
    ):
        hop = data.draw(st.integers(0, channel.n_links - 1))
        cuts.append((channel.path[hop], channel.path[hop + 1]))
    residual = draw_residual(data.draw, network)
    # The budget includes the solution's own reservations.
    for used in solution.channels:
        for switch in used.switches:
            residual[switch] += 2
    report = repair_solution(
        network, solution, failed_fibers=cuts, residual=dict(residual)
    )

    dead = {fiber_key(*cut) for cut in cuts}
    kept = [
        c for c in solution.channels
        if not any(fiber_key(u, v) in dead for u, v in zip(c.path, c.path[1:]))
    ]
    users = sorted(solution.users, key=repr)
    unions = UnionFind(users)
    for c in kept:
        unions.union(*c.endpoints)
        for switch in c.switches:
            residual[switch] -= 2
    expected = reference_reconnect(
        apply_failures(network, cuts), users, unions, residual
    )
    if expected is None:
        assert not report.solution.feasible
    else:
        assert report.solution.feasible
        assert paths(report.new_channels) == paths(expected)


# ----------------------------------------------------------------------
# Search counts
# ----------------------------------------------------------------------
def dijkstra_calls(solve):
    with obs_metrics.collecting() as registry:
        result = solve()
    return result, registry.counters().get("core.dijkstra.calls", 0)


@pytest.mark.parametrize("seed", range(4))
def test_prim_searches_each_source_once_when_nothing_blocks(seed):
    users = 6
    network = waxman_network(
        TopologyConfig(n_switches=30, n_users=users, qubits_per_switch=2 * users),
        rng=seed,
    )
    solution, calls = dijkstra_calls(lambda: solve_prim(network, rng=seed))
    assert solution.feasible
    assert calls == users - 1


@pytest.mark.parametrize("seed", range(4))
def test_nfusion_searches_each_center_once_when_nothing_blocks(seed):
    users = 6
    network = waxman_network(
        TopologyConfig(n_switches=30, n_users=users, qubits_per_switch=2 * users),
        rng=seed,
    )
    solution, calls = dijkstra_calls(lambda: nfusion.solve_nfusion(network))
    assert solution.feasible
    assert calls == users


def bottleneck_network():
    """Users a–d, each about 1 km from switch ``s1`` and 2 km from ``s2``.

    ``s1`` holds 2 qubits, so the first channel blocks it; ``s2`` holds
    enough for every later channel and never blocks.  User ``x`` is
    isolated: it only serves as an unreachable target.
    """
    builder = NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
    builder.switch("s1", (0, 0), qubits=2).switch("s2", (0, 5000), qubits=8)
    for index, user in enumerate("abcdx"):
        builder.user(user, (1000 * index, 1000))
        if user != "x":
            builder.fiber(user, "s1", length=1000.0 + index)
            builder.fiber(user, "s2", length=2000.0 + index)
    return builder.build()


def test_blocking_reservation_forces_a_re_search():
    network = bottleneck_network()
    users = ["a", "b", "c", "d"]
    solution, calls = dijkstra_calls(
        lambda: solve_prim(network, users, start="a")
    )
    # Round 1 searches a; its channel blocks s1, so round 2 searches a
    # and b again; round 3 reuses both and searches only the newcomer.
    assert calls == 1 + 2 + 1
    assert solution.channels[0].switches == ("s1",)
    expected = reference_prim(
        network, "a", {"b", "c", "d"}, CapacityLedger.from_network(network)
    )
    assert paths(solution.channels) == paths(expected)


def test_blocking_phase_two_reservation_forces_a_re_search():
    network = bottleneck_network()
    users = ["a", "b", "c", "d"]
    solution = solve_conflict_free(network, users, base_channels=())
    expected = reference_conflict_free(
        network, users, [], CapacityLedger.from_network(network)
    )
    assert paths(solution.channels) == paths(expected)
    assert solution.channels[0].switches == ("s1",)


def test_blocking_star_admission_forces_a_re_search():
    network = bottleneck_network()
    users = ["a", "b", "c", "d"]
    star, calls = dijkstra_calls(
        lambda: nfusion._route_star(network, "a", users)
    )
    assert calls == 2  # before and after s1 blocks
    assert paths(star) == paths(reference_route_star(network, "a", users))


def test_blocking_rounding_repair_re_searches():
    network = bottleneck_network()
    users = ["a", "b", "c", "d"]
    outcomes = []
    for repair in (rounding._repair, reference_repair):
        ledger = CapacityLedger.from_network(network)
        chosen = []
        added = repair(network, users, chosen, UnionFind(users), ledger)
        outcomes.append((added, paths(chosen), ledger.as_dict()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1][0] == ("a", "s1", "b")


def test_blocking_fiber_cut_repair_re_searches():
    network = bottleneck_network()
    tree = MUERPSolution(
        channels=tuple(
            Channel.from_path(network, path)
            for path in (("a", "s2", "b"), ("b", "s2", "c"), ("c", "s2", "d"))
        ),
        users=frozenset("abcd"),
        method="prim",
        feasible=True,
    )
    # a and b lose s2: they can rejoin only through s1, whose one
    # channel (a-s1-b) blocks it for the round after.
    cuts = [("a", "s2"), ("b", "s2")]
    report = repair_solution(network, tree, failed_fibers=cuts)
    unions = UnionFind(["a", "b", "c", "d"])
    unions.union("c", "d")
    residual = network.residual_qubits()
    residual["s2"] -= 2
    expected = reference_reconnect(
        apply_failures(network, cuts), ["a", "b", "c", "d"], unions, residual
    )
    assert expected is None
    assert not report.solution.feasible
    assert paths(report.new_channels) == [("a", "s1", "b")]


def test_round_searches_serve_subsets_in_target_order():
    network = bottleneck_network()
    residual = network.residual_qubits()
    searches = RoundSearches(best_channels_from, network, residual)
    with obs_metrics.collecting() as registry:
        first = searches.channels_from("a", ["d", "b", "c"])
        again = searches.channels_from("a", ["c", "d"])
        assert registry.counters()["core.dijkstra.calls"] == 1
        # A target outside the stored search needs a fresh one.
        wider = searches.channels_from("a", ["b", "d", "x"])
        assert registry.counters()["core.dijkstra.calls"] == 2
    assert list(first) == ["d", "b", "c"]
    assert list(again) == ["c", "d"]
    assert again == {t: first[t] for t in ("c", "d")}
    assert list(wider) == ["b", "d"]  # x is unreachable
