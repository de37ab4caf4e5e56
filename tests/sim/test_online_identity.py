"""Plain online runs reproduce the fault-free loss loop exactly.

``online_identity.json`` was recorded from the scheduler that still had
a separate loop for runs with no fault injector, retry policy,
admission controller, replication or deadline.  Each case pins the
outcomes of one plain run: per request the disposition, slots, served
users, channel paths and ``repr(log_rate)``, plus the run's simulated
slots, peak qubit usage and the absent resilience report.  Only fields
that do not depend on the hash seed are recorded; peak usage and user
sets are sorted by ``repr``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.online import OnlineScheduler
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.topology.base import TopologyConfig
from repro.topology.registry import generate

CASES = json.loads(
    (Path(__file__).with_name("online_identity.json")).read_text()
)

#: (switches, users, qubits per switch): the online_serving benchmark's
#: shape, and a small capacity-bound one.
SHAPES = ((50, 10, 4), (20, 8, 2))
SEEDS = range(5)
METHODS = ("prim", "conflict_free")
MAX_WAITS = range(5)


def run_record(shape, seed, method, max_wait, empty=False):
    """Run one plain stream and return its hash-seed-free record."""
    n_switches, n_users, qubits = shape
    network = generate(
        "waxman",
        TopologyConfig(
            n_switches=n_switches, n_users=n_users, qubits_per_switch=qubits
        ),
        seed,
    )
    spec = WorkloadSpec(
        arrival_rate=3.0, horizon=12, mean_hold=4.0, max_wait=max_wait
    )
    requests = (
        [] if empty else generate_workload(network.user_ids, spec, rng=seed)
    )
    result = OnlineScheduler(network, method=method, rng=seed).run(requests)
    return {
        "outcomes": [
            [
                o.request.name,
                o.disposition,
                o.accepted,
                o.start_slot,
                o.release_slot,
                [repr(u) for u in o.served_users],
                None
                if o.solution is None
                else [
                    [[repr(node) for node in c.path], repr(c.log_rate)]
                    for c in o.solution.channels
                ],
            ]
            for o in result.outcomes
        ],
        "slots_simulated": result.slots_simulated,
        "peak_qubit_usage": sorted(
            [repr(s), q] for s, q in result.peak_qubit_usage.items()
        ),
        "resilience_is_none": result.resilience is None,
    }


def case_id(case):
    shape = "x".join(str(v) for v in case["shape"])
    if case["empty"]:
        return f"{shape}-empty"
    return f"{shape}-seed{case['seed']}-{case['method']}-wait{case['max_wait']}"


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_matches_loss_loop(case):
    record = run_record(
        tuple(case["shape"]),
        case["seed"],
        case["method"],
        case["max_wait"],
        empty=case["empty"],
    )
    assert record == case["record"]
