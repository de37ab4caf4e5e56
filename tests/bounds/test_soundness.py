"""Property tests: the certified bound dominates every solver.

This is the load-bearing guarantee of ``repro.bounds`` — a single
counterexample means an unsound certificate (or an invalid solution
slipping past the verifier), so these properties run on every CI build
under both LP backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.gap import optimality_gap, trial_bounds
from repro.bounds.lp import compute_bound, scipy_available
from repro.core.registry import CAPACITY_EXEMPT_METHODS, solve
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network
from repro.utils.rng import ensure_rng

#: Methods gated per generated network (a solver cross-section: greedy
#: tree heuristics, the paper algorithms and the LP-rounding solver).
METHODS = (
    "optimal",
    "alg2",
    "conflict_free",
    "prim",
    "random_tree",
    "lp_rounding",
)

BACKENDS = ["simplex"] + (["scipy"] if scipy_available() else [])


def _assert_sound(network, backend):
    capacitated = compute_bound(network, backend=backend)
    uncapacitated = compute_bound(
        network, backend=backend, capacitated=False
    )
    rates = {}
    for method in METHODS:
        solution = solve(method, network, rng=ensure_rng(0))
        rates[method] = solution.rate
        bound = (
            uncapacitated
            if method in CAPACITY_EXEMPT_METHODS
            else capacitated
        )
        gap = optimality_gap(solution.rate, bound)
        assert gap >= -1e-7, (
            f"{method} beat the {backend} bound: rate "
            f"{solution.rate:.6e} > {bound.rate_bound:.6e}"
        )
    # Algorithm 2 is the uncapacitated bound experiments report, so the
    # uncapacitated LP must dominate it too (the LP is the looser one).
    assert optimality_gap(rates["optimal"], uncapacitated) >= -1e-7, (
        f"Algorithm 2 beat the uncapacitated {backend} LP: rate "
        f"{rates['optimal']:.6e} > {uncapacitated.rate_bound:.6e}"
    )
    # The bounds experiments report: sound for every method, and never
    # looser than either LP.
    bounds = trial_bounds(network, rates, backend=backend)
    assert bounds.uncapacitated == rates["optimal"]
    assert bounds.capacitated <= capacitated.rate_bound * (1 + 1e-9)
    for method in METHODS:
        gap = optimality_gap(rates[method], bounds.for_method(method))
        assert gap >= -1e-7, (
            f"{method} beat trial_bounds: rate {rates[method]:.6e} > "
            f"{bounds.for_method(method):.6e}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    qubits=st.sampled_from([2, 4]),
)
def test_bound_dominates_on_waxman(backend, seed, qubits):
    network = waxman_network(
        TopologyConfig(
            n_switches=20, n_users=6, qubits_per_switch=qubits
        ),
        rng=seed,
    )
    _assert_sound(network, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=8, deadline=None)
@given(
    rows=st.integers(3, 5),
    cols=st.integers(3, 5),
    qubits=st.sampled_from([2, 4]),
)
def test_bound_dominates_on_grid(backend, rows, cols, qubits):
    network = grid_network(rows, cols, qubits_per_switch=qubits)
    _assert_sound(network, backend)


#: Toy networks for the exhaustive check: roomy (Q=4, 3 users), and
#: sparse with Q=2 and 6 users, where the exact optimum falls below
#: Algorithm 2's rate on about a third of seeds, so those trials reach
#: the capacitated LP.
BRUTE_FORCE_CONFIGS = (
    TopologyConfig(n_switches=6, n_users=3, qubits_per_switch=4),
    TopologyConfig(
        n_switches=8, n_users=6, avg_degree=2.5, qubits_per_switch=2
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    config=st.sampled_from(BRUTE_FORCE_CONFIGS),
)
def test_bound_dominates_brute_force(seed, config):
    """On toy networks the exhaustive optimum must respect the bound."""
    network = waxman_network(config, rng=seed)
    try:
        exact = solve("exact", network, rng=ensure_rng(0))
    except RuntimeError:
        return  # path explosion guard tripped; nothing to compare
    bound = compute_bound(network, backend="simplex")
    assert optimality_gap(exact.rate, bound) >= -1e-7
