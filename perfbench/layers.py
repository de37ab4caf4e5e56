"""Which program functions the traced run wraps, and the layer metrics.

Span names are ``<layer>.<function>``.  Per-layer metrics combine span
times (self time = duration minus child spans) with the program's own
``repro.obs`` counters, and :func:`counter_mismatches` cross-checks the
two wherever both count the same event.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from spans import END, NAME, OK, PARENT, START, Span, Target, self_times


def _trial_ctx(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    trial = args[1] if len(args) > 1 else kwargs["trial"]
    return (
        f"trial:s{config.n_switches}u{config.n_users}"
        f"q{config.qubits_per_switch}:{trial}"
    )


def _request_ctx(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return f"request:{request.name}"


def _pass_ctx(args, kwargs) -> str:
    scheduler = args[0]
    return "pass:tenant" if scheduler.admission is not None else "pass:loss"


TARGETS: Tuple[Target, ...] = (
    # topology
    Target("repro.topology.registry", "generate", "topology.generate"),
    Target("repro.topology.waxman", "waxman_network", "topology.waxman"),
    # core.channel — Algorithm 1
    Target("repro.core.channel", "dijkstra", "channel.dijkstra"),
    Target("repro.core.channel", "find_best_channel", "channel.find_best_channel"),
    Target("repro.core.channel", "best_channels_from", "channel.best_channels_from"),
    Target(
        "repro.core.channel",
        "all_pairs_best_channels",
        "channel.all_pairs_best_channels",
    ),
    # exec.cache
    Target("repro.exec.cache:ChannelCache", "key_for", "cache.key_for"),
    Target("repro.exec.cache:ChannelCache", "get", "cache.get"),
    Target("repro.exec.cache:ChannelCache", "put", "cache.put"),
    # tree assembly — Algorithms 2-4
    Target("repro.core.optimal", "solve_optimal", "tree.optimal"),
    Target("repro.core.conflict_free", "solve_conflict_free", "tree.conflict_free"),
    Target("repro.core.prim_based", "solve_prim", "tree.prim"),
    # baselines
    Target("repro.baselines.nfusion", "solve_nfusion", "baselines.nfusion"),
    Target("repro.baselines.eqcast", "solve_eqcast", "baselines.eqcast"),
    # core.tree + verify
    Target("repro.core.tree", "validate_solution", "verify.validate_solution"),
    Target("repro.verify.verifier:SolutionVerifier", "verify", "verify.verify"),
    Target("repro.verify.verifier:SolutionVerifier", "audit", "verify.audit"),
    # bounds
    Target("repro.bounds.lp", "compute_bound", "bounds.compute_bound"),
    # exec.engine + experiments.runner
    Target("repro.exec.engine:ExecutionEngine", "run_experiment", "engine.run_experiment"),
    Target("repro.experiments.sweeps", "sweep", "engine.sweep"),
    Target("repro.experiments.runner", "run_experiment", "engine.runner_run_experiment"),
    Target("repro.experiments.runner", "run_trial", "engine.run_trial", _trial_ctx),
    Target("repro.experiments.runner", "run_on_network", "engine.run_on_network"),
    # core.ledger
    Target("repro.core.ledger:CapacityLedger", "reserve", "ledger.reserve"),
    Target("repro.core.ledger:CapacityLedger", "release", "ledger.release"),
    # sim.online
    Target("repro.sim.online:OnlineScheduler", "run", "online.run", _pass_ctx),
    Target("repro.sim.online:OnlineScheduler", "_route", "online.route", _request_ctx),
    # tenancy / resilience / admission
    Target("repro.tenancy.serving", "serve_tenants", "tenancy.serve_tenants"),
    Target("repro.tenancy.replicas", "plan_replica_set", "tenancy.plan_replica_set"),
    Target("repro.extensions.recovery", "repair_solution", "resilience.repair_solution"),
)

#: Per-layer metric name → (unit, better).  The order is the output order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "topology.generate_s": ("s", "lower"),
    "topology.networks": ("count", "lower"),
    "channel.search_self_s": ("s", "lower"),
    "channel.dijkstra_calls": ("count", "lower"),
    "channel.nodes_settled": ("count", "lower"),
    "channel.edges_scanned": ("count", "lower"),
    "channel.relaxations": ("count", "lower"),
    "cache.lookups": ("count", "higher"),
    "cache.hits": ("count", "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.invalidations": ("count", "lower"),
    "cache.lookup_s": ("s", "lower"),
    "tree.optimal_self_s": ("s", "lower"),
    "tree.conflict_free_self_s": ("s", "lower"),
    "tree.prim_self_s": ("s", "lower"),
    "baselines.nfusion_self_s": ("s", "lower"),
    "baselines.eqcast_self_s": ("s", "lower"),
    "verify.validate_s": ("s", "lower"),
    "verify.calls": ("count", "lower"),
    "bounds.compute_s": ("s", "lower"),
    "bounds.lp_solves": ("count", "lower"),
    "bounds.lp_rounds": ("count", "lower"),
    "bounds.lp_pivots": ("count", "lower"),
    "bounds.prim_gap_pct": ("%", "lower"),
    "engine.self_s": ("s", "lower"),
    "trial_s.p50": ("s", "lower"),
    "trial_s.p90": ("s", "lower"),
    "trial_s.samples": ("count", "higher"),
    "ledger.s": ("s", "lower"),
    "ledger.reserves": ("count", "lower"),
    "ledger.releases": ("count", "lower"),
    "ledger.rollbacks": ("count", "lower"),
    "online.loop_self_s": ("s", "lower"),
    "online.route_s.p50": ("s", "lower"),
    "online.route_s.p99": ("s", "lower"),
    "online.route_s.samples": ("count", "higher"),
    "online.admitted": ("count", "higher"),
    "online.rejected": ("count", "lower"),
    "online.slots": ("count", "lower"),
    "online.loss_requests_per_s": ("1/s", "higher"),
    "online.tenant_requests_per_s": ("1/s", "higher"),
    "tenancy.plan_replica_set_s": ("s", "lower"),
    "resilience.repair_s": ("s", "lower"),
    "online.failovers": ("count", "lower"),
    "online.repairs": ("count", "lower"),
    "online.retries": ("count", "lower"),
    "admission.shed": ("count", "lower"),
    "admission.throttled": ("count", "lower"),
    "calibration.slowdown": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_ops_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(
    spans: Sequence[Span],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Summed times per span name and per layer.

    Returns ``(self_by_name, incl_by_name, incl_by_layer,
    calls_by_layer)``.  Inclusive sums skip spans nested in a span of
    the same name (or layer, for the layer sums), so recursion and
    calls within a layer are not counted twice; ``calls_by_layer``
    counts the outermost calls into each layer.
    """
    selfs = self_times(spans)
    self_by_name: Dict[str, float] = {}
    incl_by_name: Dict[str, float] = {}
    incl_by_layer: Dict[str, float] = {}
    calls_by_layer: Dict[str, int] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        layer = _layer(name)
        duration = span[END] - span[START]
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[index]
        same_name = same_layer = False
        parent = span[PARENT]
        while parent >= 0:
            ancestor = spans[parent][NAME]
            same_name = same_name or ancestor == name
            same_layer = same_layer or _layer(ancestor) == layer
            parent = spans[parent][PARENT]
        if not same_name:
            incl_by_name[name] = incl_by_name.get(name, 0.0) + duration
        if not same_layer:
            incl_by_layer[layer] = incl_by_layer.get(layer, 0.0) + duration
            calls_by_layer[layer] = calls_by_layer.get(layer, 0) + 1
    return self_by_name, incl_by_name, incl_by_layer, calls_by_layer


def _sum(table: Mapping[str, float], *names: str) -> float:
    return float(sum(table.get(name, 0) for name in names))


def _prefixed(table: Mapping[str, float], prefix: str) -> float:
    return float(sum(v for k, v in table.items() if k.startswith(prefix)))


def span_counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Calls that returned (not raised), per span name."""
    counts: Dict[str, int] = {}
    for span in spans:
        if span[OK]:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
    return counts


def layer_metrics(
    spans: Sequence[Span], counters: Mapping[str, float]
) -> Dict[str, float]:
    """Every span- and counter-derived per-layer metric of one traced run."""
    self_s, incl_s, layer_s, layer_calls = layer_times(spans)
    c = counters
    durations: Dict[str, List[float]] = {}
    for span in spans:
        if span[NAME] in ("engine.run_trial", "online.route"):
            durations.setdefault(span[NAME], []).append(span[END] - span[START])
    trials = durations.get("engine.run_trial", [])
    routes = durations.get("online.route", [])
    hits = c.get("repro.exec.cache.hits", 0)
    lookups = hits + c.get("repro.exec.cache.misses", 0)
    return {
        "topology.generate_s": _sum(layer_s, "topology"),
        "topology.networks": _sum(layer_calls, "topology"),
        "channel.search_self_s": _prefixed(self_s, "channel."),
        "channel.dijkstra_calls": _sum(c, "core.dijkstra.calls"),
        "channel.nodes_settled": _sum(c, "core.dijkstra.nodes_settled"),
        "channel.edges_scanned": _sum(c, "core.dijkstra.edges_scanned"),
        "channel.relaxations": _sum(c, "core.dijkstra.relaxations"),
        "cache.lookups": float(lookups),
        "cache.hits": float(hits),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.invalidations": _sum(c, "repro.exec.cache.invalidations"),
        "cache.lookup_s": _sum(incl_s, "cache.key_for", "cache.get"),
        "tree.optimal_self_s": _sum(self_s, "tree.optimal"),
        "tree.conflict_free_self_s": _sum(self_s, "tree.conflict_free"),
        "tree.prim_self_s": _sum(self_s, "tree.prim"),
        "baselines.nfusion_self_s": _sum(self_s, "baselines.nfusion"),
        "baselines.eqcast_self_s": _sum(self_s, "baselines.eqcast"),
        "verify.validate_s": _sum(layer_s, "verify"),
        "verify.calls": _sum(layer_calls, "verify"),
        "bounds.compute_s": _sum(layer_s, "bounds"),
        "bounds.lp_solves": _sum(c, "bounds.lp.solves"),
        "bounds.lp_rounds": _sum(c, "bounds.lp.rounds"),
        "bounds.lp_pivots": _sum(c, "bounds.lp.pivots"),
        "engine.self_s": _prefixed(self_s, "engine."),
        "trial_s.p50": percentile(trials, 50),
        "trial_s.p90": percentile(trials, 90),
        "trial_s.samples": float(len(trials)),
        "ledger.s": _sum(layer_s, "ledger"),
        "ledger.reserves": _sum(c, "core.ledger.reserves"),
        "ledger.releases": _sum(c, "core.ledger.releases"),
        "ledger.rollbacks": _sum(c, "core.ledger.rollbacks"),
        "online.loop_self_s": _sum(self_s, "online.run"),
        "online.route_s.p50": percentile(routes, 50),
        "online.route_s.p99": percentile(routes, 99),
        "online.route_s.samples": float(len(routes)),
        "online.admitted": _sum(c, "sim.online.admitted"),
        "online.rejected": _sum(c, "sim.online.rejected"),
        "online.slots": _sum(c, "sim.online.slots"),
        "tenancy.plan_replica_set_s": _sum(incl_s, "tenancy.plan_replica_set"),
        "resilience.repair_s": _sum(incl_s, "resilience.repair_solution"),
        "online.failovers": _sum(c, "sim.online.failovers"),
        "online.repairs": _sum(c, "sim.online.repairs"),
        "online.retries": _sum(c, "sim.online.retries"),
        "admission.shed": _prefixed(c, "sim.online.admission.shed."),
        "admission.throttled": _sum(c, "sim.online.admission.throttled"),
        "trace.spans": float(len(spans)),
    }


def counter_mismatches(
    spans: Sequence[Span], counters: Mapping[str, float]
) -> List[str]:
    """Span counts that disagree with the program's own counters.

    A search served from the channel cache returns before the program
    counts it, so ``dijkstra`` spans equal searches plus cache hits.
    """
    counts = span_counts(spans)
    c = counters
    pairs = [
        (
            "channel.dijkstra",
            c.get("core.dijkstra.calls", 0) + c.get("repro.exec.cache.hits", 0),
            "core.dijkstra.calls + repro.exec.cache.hits",
        ),
        (
            "cache.get",
            c.get("repro.exec.cache.hits", 0) + c.get("repro.exec.cache.misses", 0),
            "repro.exec.cache.hits + repro.exec.cache.misses",
        ),
        (
            "channel.best_channels_from",
            c.get("core.channel_search.single_source_calls", 0),
            "core.channel_search.single_source_calls",
        ),
        (
            "channel.find_best_channel",
            c.get("core.channel_search.pair_calls", 0),
            "core.channel_search.pair_calls",
        ),
        ("ledger.reserve", c.get("core.ledger.reserves", 0), "core.ledger.reserves"),
        ("ledger.release", c.get("core.ledger.releases", 0), "core.ledger.releases"),
        ("bounds.compute_bound", c.get("bounds.lp.solves", 0), "bounds.lp.solves"),
        ("engine.run_trial", c.get("experiments.trials", 0), "experiments.trials"),
    ]
    problems = []
    for span_name, expected, source in pairs:
        got = counts.get(span_name, 0)
        if got != expected:
            problems.append(
                f"{got} {span_name} spans but {source} = {expected:g}"
            )
    return problems
