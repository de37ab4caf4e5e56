"""``trial_bounds``: Algorithm 2 certifies first, the LP runs only on the rest."""

from __future__ import annotations

import dataclasses
import math

import repro.obs.metrics as obs_metrics
from repro.bounds.gap import trial_bounds
from repro.bounds.lp import compute_bound
from repro.core.optimal import solve_optimal
from repro.core.registry import solve
from repro.experiments.config import ExperimentConfig
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.runner import (
    BOUND_KEY,
    UNCAP_BOUND_KEY,
    resumable_rates,
    run_trial,
)
from repro.network.graph import QuantumNetwork
from repro.topology import TopologyConfig, waxman_network
from repro.utils.rng import ensure_rng


def _network(seed=3):
    return waxman_network(
        TopologyConfig(n_switches=20, n_users=6, qubits_per_switch=2),
        rng=seed,
    )


def test_reaching_algorithm2_certifies_without_an_lp():
    network = _network()
    optimum = solve_optimal(network).rate
    with obs_metrics.collecting() as registry:
        bounds = trial_bounds(
            network, {"optimal": optimum, "prim": optimum}, backend="simplex"
        )
    counters = registry.counters()
    assert bounds.certified_optimal
    assert bounds.certificate is None
    assert bounds.capacitated == bounds.uncapacitated == optimum
    assert counters["bounds.certified"] == 1
    assert "bounds.lp.solves" not in counters


def test_falling_short_runs_the_capacitated_lp_once():
    network = _network()
    optimum = solve_optimal(network).rate
    with obs_metrics.collecting() as registry:
        bounds = trial_bounds(
            network, {"prim": 0.5 * optimum}, backend="simplex"
        )
    counters = registry.counters()
    lp = compute_bound(network, backend="simplex")
    assert not bounds.certified_optimal
    assert dataclasses.replace(bounds.certificate, solve_seconds=0.0) == (
        dataclasses.replace(lp, solve_seconds=0.0)
    )
    assert bounds.capacitated == min(lp.rate_bound, optimum)
    assert bounds.uncapacitated == optimum
    assert counters["bounds.lp.solves"] == 1
    assert "bounds.certified" not in counters


def test_algorithm2_is_solved_when_the_trial_did_not_run_it():
    network = _network(seed=11)
    prim = solve("prim", network, rng=ensure_rng(0)).rate
    without = trial_bounds(network, {"prim": prim}, backend="simplex")
    optimum = solve_optimal(network).rate
    with_it = trial_bounds(
        network, {"prim": prim, "optimal": optimum}, backend="simplex"
    )
    assert without.uncapacitated == with_it.uncapacitated == optimum
    assert without.capacitated == with_it.capacitated


def test_exempt_methods_alone_never_certify():
    network = _network()
    optimum = solve_optimal(network).rate
    bounds = trial_bounds(network, {"optimal": optimum}, backend="simplex")
    assert not bounds.certified_optimal
    assert bounds.certificate is not None
    assert bounds.for_method("optimal") == optimum
    assert bounds.for_method("prim") == bounds.capacitated


def test_a_network_without_a_tree_is_never_certified():
    # Two users with no fiber between them: no tree, every rate is 0.
    network = QuantumNetwork()
    network.add_user("alice", (0, 0))
    network.add_user("bob", (100, 0))
    network.add_switch("s", (50, 0), qubits=2)
    network.add_fiber("alice", "s")
    with obs_metrics.collecting() as registry:
        bounds = trial_bounds(network, {"prim": 0.0}, backend="simplex")
    assert not bounds.certified_optimal
    assert bounds.capacitated == bounds.uncapacitated == 0.0
    assert "bounds.certified" not in registry.counters()


def test_runner_stores_trial_bounds():
    config = ExperimentConfig(
        n_switches=20,
        n_users=6,
        qubits_per_switch=2,
        n_networks=2,
        seed=5,
        methods=("optimal", "conflict_free", "prim"),
        bound="lp",
        bound_backend="simplex",
    )
    rates = run_trial(config, 0)
    assert rates[UNCAP_BOUND_KEY] == rates["optimal"]
    assert rates[BOUND_KEY] <= rates["optimal"]
    assert max(rates["conflict_free"], rates["prim"]) <= rates[BOUND_KEY] * (
        1 + 1e-7
    )
    assert math.isfinite(rates[BOUND_KEY])


def test_records_with_lp_only_bounds_are_recomputed(tmp_path):
    # Bounded checkpoints written before Algorithm 2 certified trials
    # carry LP-only bounds under the old keys; resuming must not mix
    # them with the current ones.
    config = ExperimentConfig(
        n_switches=20, n_users=6, n_networks=1, seed=5,
        methods=("prim",), bound="lp",
    )
    store = CheckpointStore(tmp_path / "trials.jsonl")
    store.record(
        config, 0, {"prim": 0.1, "__lp_bound__": 0.2,
                    "__lp_bound_uncap__": 0.3},
    )
    assert resumable_rates(store, config, 0) is None
    store.record(config, 0, {"prim": 0.1, BOUND_KEY: 0.2,
                             UNCAP_BOUND_KEY: 0.3})
    assert resumable_rates(store, config, 0) == {
        "prim": 0.1, BOUND_KEY: 0.2, UNCAP_BOUND_KEY: 0.3,
    }
