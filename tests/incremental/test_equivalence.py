"""Property suite: incremental == from-scratch, byte for byte.

The incremental router's entire value proposition rests on one
contract: for any valid delta stream, the incrementally maintained
trees and aggregates are **byte-identical** to the from-scratch
reference — with or without the exact cache and the delta bus.  Hypothesis drives seeded topologies and churn streams
through every configuration and compares sha256 digests of the
canonical aggregates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.incremental import IncrementalRouter
from repro.incremental import delta as incremental_delta
from repro.sim.workload import ChurnSpec, generate_churn
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network


@pytest.fixture(autouse=True)
def _clean_globals():
    exec_cache.disable()
    incremental_delta.disable()
    yield
    exec_cache.disable()
    incremental_delta.disable()


def _network(kind: str, seed: int):
    if kind == "grid":
        return grid_network(4, 4)
    config = TopologyConfig(n_switches=16, n_users=5, qubits_per_switch=4)
    return waxman_network(config, rng=seed)


def _events(network, seed: int, n_events: int, mix):
    return generate_churn(
        network,
        ChurnSpec(n_faults=n_events, fault_mix=mix),
        rng=seed + 1,
    )


def _run(
    kind: str,
    seed: int,
    n_events: int,
    mix,
    method: str,
    mode: str,
    caching: bool = False,
    bus_scope: str = "",
):
    network = _network(kind, seed)
    users = tuple(sorted(network.user_ids, key=repr))
    events = _events(network, seed, n_events, mix)
    router_args = dict(
        users=users, method=method, seed=seed, mode=mode, radius=2
    )
    if not caching and not bus_scope:
        router = IncrementalRouter(network, **router_args)
        router.run(events)
        return router
    cache = ChannelCache()
    cache_ctx = (
        exec_cache.caching(cache) if caching else _null()
    )
    bus_ctx = (
        incremental_delta.tracking(scope=bus_scope)
        if bus_scope
        else _null()
    )
    with cache_ctx, bus_ctx:
        router = IncrementalRouter(network, **router_args)
        router.run(events)
    return router


class _null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


MIXES = st.sampled_from(
    [
        (0.6, 0.2, 0.2),
        (0.3, 0.3, 0.4),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=30),
    mix=MIXES,
    kind=st.sampled_from(["grid", "waxman"]),
)
def test_incremental_equals_from_scratch(seed, n_events, mix, kind):
    inc = _run(kind, seed, n_events, mix, "prim", "incremental")
    ref = _run(kind, seed, n_events, mix, "prim", "from_scratch")
    assert inc.aggregate() == ref.aggregate()
    assert inc.digest() == ref.digest()


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=25),
    mix=MIXES,
)
def test_cache_and_warmstart_never_change_results(seed, n_events, mix):
    plain = _run("grid", seed, n_events, mix, "prim", "incremental")
    cached = _run(
        "grid", seed, n_events, mix, "prim", "incremental", caching=True
    )
    scoped = _run(
        "grid",
        seed,
        n_events,
        mix,
        "prim",
        "incremental",
        caching=True,
        bus_scope="region",
    )
    assert plain.digest() == cached.digest()
    assert plain.digest() == scoped.digest()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=20),
    mix=MIXES,
)
def test_region_and_fingerprint_scopes_agree(seed, n_events, mix):
    region = _run(
        "grid",
        seed,
        n_events,
        mix,
        "prim",
        "incremental",
        caching=True,
        bus_scope="region",
    )
    fingerprint = _run(
        "grid",
        seed,
        n_events,
        mix,
        "prim",
        "incremental",
        caching=True,
        bus_scope="fingerprint",
    )
    assert region.digest() == fingerprint.digest()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=20),
)
def test_conflict_free_method_equivalence(seed, n_events):
    mix = (0.6, 0.2, 0.2)
    inc = _run("grid", seed, n_events, mix, "conflict_free", "incremental")
    ref = _run("grid", seed, n_events, mix, "conflict_free", "from_scratch")
    assert inc.digest() == ref.digest()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=30),
    mix=MIXES,
    kind=st.sampled_from(["grid", "waxman"]),
)
def test_every_installed_splice_passed_the_verifier(seed, n_events, mix, kind):
    router = _run(kind, seed, n_events, mix, "prim", "incremental")
    splices = sum(
        1 for o in router.outcomes if o.action == "splice"
    )
    # The engine audits every candidate splice; only verified ones are
    # installed, so the verified counter must cover every splice action.
    assert router.counters.get("splice.verified", 0) >= splices


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=25),
    mix=MIXES,
)
def test_replay_is_deterministic(seed, n_events, mix):
    first = _run("grid", seed, n_events, mix, "prim", "incremental")
    second = _run("grid", seed, n_events, mix, "prim", "incremental")
    assert first.digest() == second.digest()
