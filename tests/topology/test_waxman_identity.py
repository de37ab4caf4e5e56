"""The vectorized Waxman generator reproduces the scalar one exactly.

``waxman_identity.json`` was recorded from the scalar generator, which
scored every node pair with :mod:`math` in a Python loop.  Each case
pins the full content fingerprint and the fiber insertion order, which
path searches break equal-cost ties by.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.topology import TopologyConfig, waxman_network

CASES = json.loads(
    (Path(__file__).with_name("waxman_identity.json")).read_text()
)


def fiber_order_digest(network) -> str:
    order = "\n".join(repr(fiber.key) for fiber in network.fibers)
    return hashlib.sha256(order.encode()).hexdigest()


@pytest.mark.parametrize(
    "case", CASES, ids=[f"s{c['n_switches']}-seed{c['seed']}" for c in CASES]
)
def test_matches_scalar_generator(case):
    network = waxman_network(
        TopologyConfig(n_switches=case["n_switches"]), rng=case["seed"]
    )
    assert network.n_fibers == case["n_fibers"]
    assert network.fingerprint("full") == case["fingerprint"]
    assert fiber_order_digest(network) == case["fiber_order_sha256"]
