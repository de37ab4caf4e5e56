"""Incremental re-solve engine churn benchmark.

Drives one seeded fault-churn workload (from the shared
``sim/workload.generate_churn`` generator — the same stream the
``repro incremental`` CLI replays) through the three
:class:`~repro.incremental.engine.IncrementalRouter` modes at the
gate scale of 50 switches, and archives the machine-readable results to
``benchmarks/results/BENCH_incremental.json``:

* **amortized events/sec** — the ``resolve`` baseline recomputes the
  full tree from scratch on every structural event (the pre-subsystem
  cost model); the incremental engine classifies each delta and mostly
  no-ops or splices.  The gate requires >= 3x events/sec.
* **p95 per-event latency** — per-``apply()`` wall clock in each mode;
  the tail is where full re-solves hurt the online hot path.
* **equivalence gate** — the incremental run must digest byte-identically
  to the policy-equivalent ``from_scratch`` reference (the same
  contract the hypothesis suite in ``tests/incremental`` fuzzes).
* **invalidation scoping gate** — replaying the structural churn as
  live graph mutations under a delta bus must invalidate strictly
  fewer cache entries with region scope than with fingerprint scope.

Scale knob: the shared ``REPRO_BENCH_SEED`` from ``conftest``.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.channel import dijkstra
from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.incremental import IncrementalRouter
from repro.incremental import delta as incremental_delta
from repro.incremental.events import DeltaKind
from repro.sim.workload import ChurnSpec, generate_churn
from repro.topology import TopologyConfig, waxman_network

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))

#: Gate scale (fixed by the acceptance criteria, not an env knob).
N_SWITCHES = 50
N_USERS = 8
N_EVENTS = 120
FAULT_MIX = (0.5, 0.2, 0.3)

#: Acceptance gates (CI fails the job when any is violated).
MIN_SPEEDUP_VS_RESOLVE = 3.0


def _build():
    config = TopologyConfig(
        n_switches=N_SWITCHES, n_users=N_USERS, qubits_per_switch=4
    )
    network = waxman_network(config, rng=BENCH_SEED)
    users = tuple(sorted(network.user_ids, key=repr))
    events = generate_churn(
        network,
        ChurnSpec(n_faults=N_EVENTS, fault_mix=FAULT_MIX),
        rng=BENCH_SEED + 1,
    )
    return network, users, events


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(int(len(ordered) * q), len(ordered) - 1)
    return ordered[index]


def _timed_run(network, users, events, mode, accelerated):
    """Run one mode over the stream; returns (router, metrics dict)."""
    if accelerated:
        cache = ChannelCache()
        cache_ctx = exec_cache.caching(cache)
        bus_ctx = incremental_delta.tracking(scope="region", radius=2)
    else:
        cache = None
        cache_ctx = bus_ctx = None
    latencies = []

    def drive():
        router = IncrementalRouter(
            network, users=users, method="prim", seed=BENCH_SEED, mode=mode
        )
        started = time.perf_counter()
        for event in events:
            at = time.perf_counter()
            router.apply(event)
            latencies.append(time.perf_counter() - at)
        return router, time.perf_counter() - started

    if cache_ctx is not None:
        with cache_ctx, bus_ctx:
            router, seconds = drive()
    else:
        router, seconds = drive()

    record = {
        "mode": mode,
        "accelerated": accelerated,
        "wall_seconds": seconds,
        "events_per_second": len(events) / seconds,
        "p50_event_seconds": _percentile(latencies, 0.50),
        "p95_event_seconds": _percentile(latencies, 0.95),
        "max_event_seconds": max(latencies),
        "counters": {
            k: router.counters[k] for k in sorted(router.counters)
        },
    }
    if cache is not None:
        record["cache"] = cache.stats().to_dict()
    return router, record


def _scoped_invalidations(scope):
    """Replay the structural churn as live graph mutations under a bus.

    Interleaves channel searches (cache fills) with the mutations so
    every event's hygiene pass has entries to consider — exactly the
    online pattern of repeated searches between faults.
    """
    network, users, events = _build()
    cache = ChannelCache()
    structural = [
        e
        for e in events
        if e.kind in (DeltaKind.FIBER_CUT, DeltaKind.FIBER_RESTORE)
    ]
    removed = {}
    with exec_cache.caching(cache):
        with incremental_delta.tracking(scope=scope, radius=2):
            for event in structural:
                for source in users[:3]:
                    dijkstra(network, source)
                u, v = event.target
                if event.kind is DeltaKind.FIBER_CUT:
                    if network.has_fiber(u, v):
                        removed[event.target] = network.remove_fiber(u, v)
                else:
                    fiber = removed.pop(event.target, None)
                    if fiber is not None and not network.has_fiber(u, v):
                        network.add_fiber(u, v, fiber.length, fiber.cores)
    stats = cache.stats()
    return {
        "scope": scope,
        "structural_events": len(structural),
        "invalidations": stats.invalidations,
        "invalidations_by_cause": dict(
            sorted(stats.invalidations_by_cause.items())
        ),
        "lookups": stats.lookups,
        "hits": stats.hits,
    }


def test_incremental_churn(results_dir, capsys):
    network, users, events = _build()

    naive, naive_record = _timed_run(
        network, users, events, "resolve", accelerated=False
    )
    reference, reference_record = _timed_run(
        network, users, events, "from_scratch", accelerated=False
    )
    incremental, incremental_record = _timed_run(
        network, users, events, "incremental", accelerated=True
    )

    speedup = (
        incremental_record["events_per_second"]
        / naive_record["events_per_second"]
    )
    equivalent = incremental.digest() == reference.digest()

    region = _scoped_invalidations("region")
    fingerprint = _scoped_invalidations("fingerprint")

    payload = {
        "config": {
            "topology": "waxman",
            "n_switches": N_SWITCHES,
            "n_users": N_USERS,
            "n_events": N_EVENTS,
            "fault_mix": list(FAULT_MIX),
            "seed": BENCH_SEED,
            "method": "prim",
        },
        "runs": [naive_record, reference_record, incremental_record],
        "speedup_vs_resolve": speedup,
        "equivalence": {
            "incremental_digest": incremental.digest(),
            "from_scratch_digest": reference.digest(),
            "byte_identical": equivalent,
        },
        "invalidation_scoping": {
            "region": region,
            "fingerprint": fingerprint,
        },
        "gates": {
            "min_speedup_vs_resolve": MIN_SPEEDUP_VS_RESOLVE,
            "byte_identical_aggregates": True,
            "region_strictly_below_fingerprint": True,
        },
    }
    out_path = results_dir / "BENCH_incremental.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print()
        for record in payload["runs"]:
            label = record["mode"] + (
                "+cache" if record["accelerated"] else ""
            )
            print(
                f"  {label}: {record['events_per_second']:.0f} ev/s "
                f"(p95 {record['p95_event_seconds'] * 1000:.2f}ms)"
            )
        print(
            f"  speedup vs resolve baseline: {speedup:.1f}x, "
            f"equivalence: {equivalent}"
        )
        print(
            f"  invalidations: region={region['invalidations']} "
            f"vs fingerprint={fingerprint['invalidations']}"
        )
        print(f"archived to {out_path}")

    # Gate 1: amortized events/sec over the from-scratch baseline.
    assert speedup >= MIN_SPEEDUP_VS_RESOLVE, (
        f"incremental engine only {speedup:.2f}x over the resolve "
        f"baseline, below the {MIN_SPEEDUP_VS_RESOLVE}x gate"
    )

    # Gate 2: byte-identical final aggregates vs from-scratch solves.
    assert equivalent, (
        "incremental aggregate diverged from the from-scratch "
        "reference:\n"
        f"  incremental : {incremental.digest()}\n"
        f"  from_scratch: {reference.digest()}"
    )

    # Gate 3: region scoping must beat whole-fingerprint invalidation.
    assert region["invalidations"] < fingerprint["invalidations"], (
        f"region-scoped invalidations ({region['invalidations']}) not "
        f"strictly below fingerprint-scoped "
        f"({fingerprint['invalidations']})"
    )
