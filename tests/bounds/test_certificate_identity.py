"""LP bound certificates are byte-identical to the recorded ones.

``certificate_identity.json`` was recorded from the LP bound while its
column-generation pricing still ran a private dict-walking copy of
Algorithm 1's search.  Each case pins the fields that pricing decides
— the bound and master objective (as ``repr``), rounds, pivots,
columns and capacity duals — on Waxman networks (10 users) for both
LP universes and qubit budgets Q ∈ {1, 2, 4}, with the simplex backend
and, when it is importable, scipy.  Q = 1 blocks every relay in the
capacitated universe but none in the uncapacitated one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bounds.lp import compute_bound, scipy_available
from repro.topology import TopologyConfig, waxman_network

CASES = json.loads(
    (Path(__file__).with_name("certificate_identity.json")).read_text()
)


def _case_id(case) -> str:
    universe = "cap" if case["capacitated"] else "uncap"
    return (
        f"s{case['n_switches']}-seed{case['seed']}-Q{case['qubits']}"
        f"-{universe}-{case['backend']}"
    )


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_matches_recorded_certificate(case):
    if case["backend"] == "scipy" and not scipy_available():
        pytest.skip("scipy is not importable")
    network = waxman_network(
        TopologyConfig(
            n_switches=case["n_switches"], qubits_per_switch=case["qubits"]
        ),
        rng=case["seed"],
    )
    certificate = compute_bound(
        network, backend=case["backend"], capacitated=case["capacitated"]
    )
    assert repr(certificate.log_bound) == case["log_bound"]
    assert repr(certificate.objective) == case["objective"]
    assert certificate.rounds == case["rounds"]
    assert certificate.pivots == case["pivots"]
    assert certificate.n_columns == case["n_columns"]
    assert [
        [repr(switch), repr(dual)]
        for switch, dual in certificate.switch_duals.items()
    ] == case["switch_duals"]
