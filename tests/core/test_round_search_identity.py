"""Round-based solvers reproduce their recorded outputs exactly.

``round_search_identity.json`` was recorded while every reservation
round of Algorithm 4, N-FUSION, Algorithm 3's phase 2, the LP rounding
repair and the fiber-cut repair still searched again from each source.
Each case pins one network (Waxman, grid or ring; grid and ring have
exact equal-cost ties) under Q ∈ {1, 2, 3, 4} and a seed in 0–2, and per
solver the feasibility, the channel paths in order and the solution's
``repr(log_rate)``.  Sparse Waxman networks at Q = 3 are where the
LP rounding attempts run out of columns and fall back to their
Algorithm-1 repair.  The shared-ledger case also pins the residual left
after each of its two requests.  Nothing recorded depends on the hash
seed: node ids are written as ``repr`` and residuals are sorted by it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.nfusion import solve_nfusion
from repro.bounds.rounding import solve_lp_rounding
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions.recovery import repair_solution
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network, ring_network

GOLDEN = Path(__file__).with_name("round_search_identity.json")

KINDS = ("waxman", "sparse", "grid", "ring")
QUBITS = (1, 2, 3, 4)
SEEDS = (0, 1, 2)


def build_network(kind, qubits, seed):
    """The case's network; *seed* also varies the grid and ring shape."""
    if kind in ("waxman", "sparse"):
        return waxman_network(
            TopologyConfig(
                n_switches=24,
                n_users=6,
                avg_degree=3.0 if kind == "sparse" else 6.0,
                qubits_per_switch=qubits,
            ),
            rng=seed,
        )
    if kind == "grid":
        return grid_network(3 + seed, 5, qubits_per_switch=qubits)
    return ring_network(9 + 2 * seed, n_users=4 + seed, qubits_per_switch=qubits)


def solution_record(solution):
    return {
        "feasible": solution.feasible,
        "paths": [[repr(node) for node in c.path] for c in solution.channels],
        "log_rate": repr(solution.log_rate),
    }


def residual_record(ledger):
    return sorted([repr(s), q] for s, q in ledger.items())


def first_cut(solution):
    """The first fiber of the solution's first channel."""
    path = solution.channels[0].path
    return path[0], path[1]


def record(kind, qubits, seed):
    """Run every round-based solver on one network."""
    network = build_network(kind, qubits, seed)
    users = network.user_ids
    out = {}

    prim = solve_prim(network, rng=seed)
    out["prim"] = solution_record(prim)

    ledger = CapacityLedger.from_network(network)
    shared = []
    half = len(users) // 2
    for request in (users[:half], users[half:]):
        solution = solve_prim(network, request, rng=seed, residual=ledger)
        shared.append(
            {**solution_record(solution), "residual": residual_record(ledger)}
        )
    out["prim_shared"] = shared

    out["conflict_free"] = solution_record(solve_conflict_free(network))
    out["nfusion"] = solution_record(solve_nfusion(network))
    out["lp_rounding"] = solution_record(
        solve_lp_rounding(network, rng=seed, backend="simplex")
    )

    cut = first_cut(prim) if prim.feasible else None
    if cut is None:
        out["repair"] = None
    else:
        report = repair_solution(network, prim, failed_fibers=[cut])
        out["repair"] = {
            "cut": [repr(node) for node in cut],
            **solution_record(report.solution),
            "new_paths": [
                [repr(node) for node in c.path] for c in report.new_channels
            ],
        }
    return out


def all_cases():
    return [
        {"kind": kind, "qubits": qubits, "seed": seed,
         "record": record(kind, qubits, seed)}
        for kind in KINDS
        for qubits in QUBITS
        for seed in SEEDS
    ]


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{c['kind']}-Q{c['qubits']}-seed{c['seed']}" for c in CASES],
)
def test_matches_recorded_outputs(case):
    assert record(case["kind"], case["qubits"], case["seed"]) == case["record"]


def test_golden_covers_every_case():
    assert [(c["kind"], c["qubits"], c["seed"]) for c in CASES] == [
        (kind, qubits, seed)
        for kind in KINDS
        for qubits in QUBITS
        for seed in SEEDS
    ]


if __name__ == "__main__":
    # Re-record the golden: python tests/core/test_round_search_identity.py
    GOLDEN.write_text(json.dumps(all_cases(), indent=1) + "\n")
