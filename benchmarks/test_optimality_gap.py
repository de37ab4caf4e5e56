"""Bench: how close do the heuristics get to certified optimality?

The paper proves Algorithms 3/4 are heuristics for an NP-hard problem
but never measures their optimality gap.  Two instruments close that
hole:

* on capacity-tight **toy** instances, the branch-and-bound exact
  solver gives the true optimum — and doubles as a soundness check on
  the certified bound (``bound ≥ exact``) and on the capacitated LP,
  which certified networks otherwise skip;
* at **fig scale** (where exact search explodes),
  :func:`repro.bounds.gap.trial_bounds` certifies an upper bound, so
  every heuristic gets a *certified* gap instead of an unverifiable
  one.  Algorithm 2's rate bounds every tree; a network where a
  heuristic reaches it is certified optimal, and the capacitated LP
  runs only on the others.

Archives ``results/optimality_gap.txt`` (human table) and
``results/BENCH_bounds.json`` (per-tier bound, certified networks,
best-heuristic gap and bound-time p50/p95, plus a same-seed double-run
determinism digest).
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from repro.analysis.tables import Table
from repro.bounds.gap import optimality_gap, trial_bounds
from repro.bounds.lp import compute_bound
from repro.bounds.rounding import solve_lp_rounding
from repro.core.conflict_free import solve_conflict_free
from repro.core.exact import solve_exact
from repro.core.prim_based import solve_prim
from repro.core.tree import validate_solution
from repro.topology.base import TopologyConfig
from repro.topology.waxman import waxman_network
from repro.utils.rng import ensure_rng, spawn_rngs

from benchmarks.conftest import BENCH_NETWORKS, BENCH_SEED

#: (name, topology, exact solver tractable at this scale?)
TIERS = (
    ("toy", TopologyConfig(
        n_switches=8, n_users=4, avg_degree=3.5, qubits_per_switch=2
    ), True),
    ("mid", TopologyConfig(
        n_switches=25, n_users=8, qubits_per_switch=2
    ), False),
    ("fig", TopologyConfig(
        n_switches=50, n_users=10, qubits_per_switch=4
    ), False),
)

HEURISTICS = ("conflict_free", "prim", "lp_rounding")


def _solve_heuristic(name, network, rng):
    if name == "conflict_free":
        return solve_conflict_free(network)
    if name == "prim":
        return solve_prim(network, rng=rng)
    return solve_lp_rounding(network, rng=rng)


def _measure_tier(name, config, with_exact):
    """One tier: per-network certified bound + heuristic gaps (+ exact)."""
    bounds, bound_seconds, exact_gaps = [], [], []
    gaps = {h: [] for h in HEURISTICS}
    feasible_networks = certified_networks = 0
    for trial, rng in enumerate(spawn_rngs(BENCH_SEED, BENCH_NETWORKS)):
        network = waxman_network(config, rng=rng)
        rates = {}
        for heuristic in HEURISTICS:
            solution = _solve_heuristic(
                heuristic, network, ensure_rng(1000 + trial)
            )
            # Only a verified tree may certify the network optimal.
            report = validate_solution(
                network, solution, enforce_capacity=True
            )
            assert report.ok, f"{heuristic} invalid on tier {name}: {report}"
            rates[heuristic] = solution.rate
        started = time.perf_counter()
        certified = trial_bounds(network, rates)
        bound_seconds.append(time.perf_counter() - started)
        bounds.append(certified.capacitated)
        certified_networks += certified.certified_optimal
        if certified.capacitated == 0.0:
            continue
        feasible_networks += 1
        for heuristic, rate in rates.items():
            gap = optimality_gap(rate, certified.capacitated)
            assert gap >= -1e-7, (
                f"{heuristic} beat the certified bound on tier {name}"
            )
            gaps[heuristic].append(gap)
        if with_exact:
            exact = solve_exact(network)
            if exact.feasible:
                exact_gap = optimality_gap(exact.rate, certified.capacitated)
                assert exact_gap >= -1e-7, "certified bound below exact optimum"
                # Certified networks skip the LP, so check it here too.
                lp_gap = optimality_gap(exact.rate, compute_bound(network))
                assert lp_gap >= -1e-7, "capacitated LP below exact optimum"
                exact_gaps.append(exact_gap)
    best_gaps = [
        min(gaps[h][i] for h in HEURISTICS)
        for i in range(feasible_networks)
    ]
    return {
        "tier": name,
        "n_switches": config.n_switches,
        "n_users": config.n_users,
        "qubits_per_switch": config.qubits_per_switch,
        "networks": BENCH_NETWORKS,
        "feasible_networks": feasible_networks,
        "certified_networks": certified_networks,
        "mean_bound": float(np.mean(bounds)) if bounds else 0.0,
        "mean_gap_percent": {
            h: 100.0 * float(np.mean(g)) if g else 0.0
            for h, g in gaps.items()
        },
        "best_heuristic_gap_percent": (
            100.0 * float(np.mean(best_gaps)) if best_gaps else 0.0
        ),
        "exact_gap_percent": (
            100.0 * float(np.mean(exact_gaps)) if exact_gaps else None
        ),
        "bound_seconds_p50": float(np.percentile(bound_seconds, 50)),
        "bound_seconds_p95": float(np.percentile(bound_seconds, 95)),
    }


def _measure():
    return [
        _measure_tier(name, config, with_exact)
        for name, config, with_exact in TIERS
    ]


def _digest(tiers):
    """Hash of everything deterministic (bounds + gaps, no timings)."""
    stripped = [
        {k: v for k, v in tier.items() if not k.startswith("bound_seconds")}
        for tier in tiers
    ]
    blob = json.dumps(stripped, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_optimality_gap(benchmark, archive, results_dir):
    tiers = benchmark.pedantic(_measure, rounds=1, iterations=1)
    digest = _digest(tiers)
    # Same-seed double run: byte-identical bounds and gaps.
    assert digest == _digest(_measure())

    table = Table(
        [
            "tier",
            "scale",
            "bound (mean)",
            "certified",
            "best heuristic gap",
            "exact gap",
            "bound p50",
            "bound p95",
        ],
        title=(
            "Certified optimality gaps vs. Algorithm 2's rate "
            "(capacitated LP only where no heuristic reaches it)"
        ),
    )
    for tier in tiers:
        table.add_row(
            [
                tier["tier"],
                f"{tier['n_switches']}sw/{tier['n_users']}u"
                f"/Q{tier['qubits_per_switch']}",
                f"{tier['mean_bound']:.4e}",
                f"{tier['certified_networks']}/{tier['networks']}",
                f"{tier['best_heuristic_gap_percent']:.2f}%",
                (
                    f"{tier['exact_gap_percent']:.2f}%"
                    if tier["exact_gap_percent"] is not None
                    else "—"
                ),
                f"{tier['bound_seconds_p50'] * 1e3:.1f}ms",
                f"{tier['bound_seconds_p95'] * 1e3:.1f}ms",
            ]
        )
    archive("optimality_gap", table.render())

    payload = {
        "seed": BENCH_SEED,
        "networks_per_tier": BENCH_NETWORKS,
        "tiers": tiers,
        "determinism": {
            "digest": digest,
            "double_run_identical": True,
        },
    }
    (results_dir / "BENCH_bounds.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    for tier in tiers:
        assert tier["feasible_networks"] > 0, tier["tier"]
        # Certified: every heuristic stays at-or-below its bound, and
        # the best one lands within 60% of it at every tier.
        for gap in tier["mean_gap_percent"].values():
            assert -1e-5 <= gap <= 100.0
        assert tier["best_heuristic_gap_percent"] <= 60.0
    # The toy tier's exact optimum respects the bound (soundness) and
    # sits no further from it than the best heuristic does.
    toy = tiers[0]
    assert toy["exact_gap_percent"] is not None
    assert (
        toy["exact_gap_percent"]
        <= toy["best_heuristic_gap_percent"] + 1e-9
    )
