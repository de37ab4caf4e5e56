"""The three benchmark workloads: seeded inputs, units of work, checks.

Every workload is built from one integer seed.  ``build(seed)``
constructs the inputs the program receives — experiment configs, or
networks, request streams and fault schedules — and ``units(inputs)``
returns the measured units of work, each a call into the program's
public API.  ``evaluate`` checks the outputs of one pass over the units
and derives the quality metrics and the output digest.

The ``repro`` modules are imported lazily (inside functions) so the
benchmark can time the import as part of its set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from oracle import TreeOracle

#: Sec. V-A defaults are ``ExperimentConfig``'s own; these set run length.
SWEEP_NETWORKS_PER_POINT = 8
LARGE_SWITCHES = 1000
LARGE_USERS = 12
LARGE_NETWORKS = 5
ONLINE_INSTANCES = 10
ONLINE_ARRIVAL_RATE = 4.0
ONLINE_HORIZON = 30
ONLINE_MEAN_HOLD = 5.0
ONLINE_MAX_WAIT = 3
ONLINE_TENANTS = 4
ONLINE_TENANT_SKEW = 1.0
ONLINE_FAULTS = 3
ONLINE_REPLICAS = 2
#: The multi-tenant soak benchmark's admission settings.
ONLINE_ADMISSION = {"rate": 1.5, "burst": 4.0, "bulkhead": 8, "queue_size": 8}

#: Slack allowed above a certified LP bound (floating-point noise).
BOUND_RTOL = 1e-7
#: Slack, relative to the log rate, between a tree and the independent
#: uncapacitated optimum (floating-point summation order).
OPTIMUM_RTOL = 1e-9


def derive_seeds(seed: int, count: int) -> List[int]:
    """*count* independent 32-bit seeds drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) for value in state]


def _float_text(value: float) -> str:
    return repr(float(value))


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_for(network, oracles: Dict[int, TreeOracle]) -> TreeOracle:
    oracle = oracles.get(id(network))
    if oracle is None:
        oracle = oracles[id(network)] = TreeOracle(network)
    return oracle


def _against_optimum(
    solution, optimum: Optional[float], exact: bool
) -> Optional[str]:
    """Why *solution* disagrees with the uncapacitated optimum, or None.

    No tree may beat the optimum; with *exact* (Algorithm 2) it must
    meet it, and be feasible exactly when the optimum exists.
    """
    tolerance = OPTIMUM_RTOL * max(1.0, abs(optimum or 0.0))
    if exact and solution.feasible != (optimum is not None):
        return (
            f"feasible={solution.feasible} but the independent optimum "
            f"{'exists' if optimum is not None else 'does not exist'}"
        )
    if not solution.feasible:
        return None
    if optimum is None or solution.log_rate > optimum + tolerance:
        return (
            f"log rate {solution.log_rate!r} beats the uncapacitated "
            f"optimum {optimum!r}"
        )
    if exact and solution.log_rate < optimum - tolerance:
        return (
            f"log rate {solution.log_rate!r} misses the uncapacitated "
            f"optimum {optimum!r}"
        )
    return None


@dataclass
class Unit:
    """One measured call into the program.

    ``ops`` is how many operations (trials or requests) one call does;
    ``digest`` maps the call's output to a string that is equal for
    identical outputs.
    """

    name: str
    ops: int
    fn: Callable[[], Any]
    digest: Callable[[Any], str]


@dataclass
class Evaluation:
    """What the checks found on one pass over a workload's units."""

    attempted: int = 0
    ok: int = 0
    failed: int = 0
    #: log(rate / uncapacitated optimum) of every measured tree.
    log_ratios: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    prim_gap_pct: float = 0.0
    #: The LP backend ``auto`` resolved to, when the LP bound is on.
    lp_backend: str = ""


@contextlib.contextmanager
def capturing_solves(store: List[Tuple[str, Any, Any]]):
    """Record ``(method, network, solution)`` of every experiment solve.

    Swaps the solver dispatcher the experiment runner calls for a
    recording shim, so each tree can be validated after the timed
    region; the shim costs one extra call per solve.
    """
    import repro.experiments.runner as runner

    original = runner.solve

    def recording(method, network, *args, **kwargs):
        solution = original(method, network, *args, **kwargs)
        store.append((method, network, solution))
        return solution

    runner.solve = recording
    try:
        yield store
    finally:
        runner.solve = original


def _check_solves(
    captured: Sequence[Tuple[str, Any, Any]],
    reported: Sequence[Tuple[str, float]],
    evaluation: Evaluation,
    label: str,
) -> None:
    """Validate every captured tree and tie it to the reported rate.

    Each tree must pass ``validate_solution`` (capacity exempt only for
    Algorithm 2), stay at or below the independent uncapacitated
    optimum, and Algorithm 2 must meet that optimum.
    """
    from repro.core.tree import validate_solution

    if len(captured) != len(reported):
        evaluation.problems.append(
            f"{label}: {len(captured)} solves captured, "
            f"{len(reported)} rates reported"
        )
        evaluation.failed += abs(len(captured) - len(reported))
    oracles: Dict[int, TreeOracle] = {}
    for (method, network, solution), (want_method, rate) in zip(
        captured, reported
    ):
        evaluation.attempted += 1
        issues = []
        report = validate_solution(
            network, solution, enforce_capacity=method != "optimal"
        )
        if not report.ok:
            issues.append(f"invalid tree: {report}")
        if method != want_method or solution.rate != rate:
            issues.append(
                f"reported {want_method} rate {rate!r}, solve returned "
                f"{solution.rate!r}"
            )
        optimum = _oracle_for(network, oracles).tree_log_rate(network.user_ids)
        disagreement = _against_optimum(solution, optimum, method == "optimal")
        if disagreement:
            issues.append(disagreement)
        if issues:
            evaluation.failed += 1
            evaluation.problems.extend(f"{label}: {method}: {i}" for i in issues)
        elif solution.feasible:
            evaluation.ok += 1
            if method in ("conflict_free", "prim"):
                evaluation.log_ratios.append(solution.log_rate - optimum)


def _result_rates(result) -> List[Tuple[str, float]]:
    """(method, rate) in the order the runner solves them."""
    config = result.config
    return [
        (method, result.outcome(method).rates[trial])
        for trial in range(config.n_networks)
        for method in config.methods
    ]


def _result_payload(result) -> Dict[str, Any]:
    return {
        "config": dataclasses.asdict(result.config),
        "rates": {
            o.method: [_float_text(r) for r in o.rates] for o in result.outcomes
        },
        "bounds": [_float_text(b) for b in result.bounds],
        "uncap_bounds": [_float_text(b) for b in result.uncap_bounds],
    }


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
class PaperSweep:
    """Fig. 6(a) user sweep and Fig. 8(a) qubit sweep, LP bound on."""

    name = "paper_sweep"
    imports = (
        "repro",
        "repro.exec.engine",
        "repro.experiments.fig6_scale",
        "repro.experiments.fig8_switch",
        "repro.bounds.lp",
        "repro.bounds.gap",
    )
    captures_solves = True

    def build(self, seed: int):
        from repro.bounds import lp
        from repro.experiments.config import ExperimentConfig

        # Resolving the ``auto`` LP backend imports scipy.optimize: set-up.
        lp.scipy_available()
        (config_seed,) = derive_seeds(seed, 1)
        return ExperimentConfig(
            n_networks=SWEEP_NETWORKS_PER_POINT,
            seed=config_seed,
            bound="lp",
            bound_backend="auto",
        )

    def input_bytes(self, base) -> bytes:
        return json.dumps(dataclasses.asdict(base), sort_keys=True).encode()

    def units(self, base) -> List[Unit]:
        from repro.exec import engine as engine_mod
        from repro.experiments import fig6_scale, fig8_switch

        def figure(run):
            def call():
                # A fresh engine per figure, as one CLI invocation
                # ``repro exec <fig> --workers 1`` builds one.
                with engine_mod.ExecutionEngine(workers=1) as engine:
                    with engine_mod.executing(engine):
                        return run(base)

            return call

        n = base.n_networks
        return [
            Unit("fig6a", len(fig6_scale.USER_COUNTS) * n,
                 figure(fig6_scale.run_fig6a), self._digest),
            Unit("fig8a", len(fig8_switch.QUBIT_COUNTS) * n,
                 figure(fig8_switch.run_fig8a), self._digest),
        ]

    @staticmethod
    def _digest(sweep) -> str:
        return _sha([_result_payload(r) for r in sweep.results])

    def evaluate(self, base, outputs, captured) -> Evaluation:
        from repro.bounds import lp
        from repro.bounds.gap import optimality_gap

        evaluation = Evaluation()
        gaps: List[float] = []
        for unit_name in ("fig6a", "fig8a"):
            sweep = outputs[unit_name]
            reported = [
                pair for result in sweep.results for pair in _result_rates(result)
            ]
            _check_solves(captured[unit_name], reported, evaluation, unit_name)
            for value, result in zip(sweep.values, sweep.results):
                for method in result.config.methods:
                    rates = result.outcome(method).rates
                    for trial, (rate, bound) in enumerate(
                        zip(rates, result.bounds_for(method))
                    ):
                        if rate > bound * (1.0 + BOUND_RTOL):
                            evaluation.problems.append(
                                f"{unit_name}[{sweep.parameter}={value}] "
                                f"trial {trial}: {method} rate {rate!r} "
                                f"exceeds its LP bound {bound!r}"
                            )
                            evaluation.failed += 1
                gaps.extend(
                    100.0 * optimality_gap(rate, bound)
                    for rate, bound in zip(
                        result.outcome("prim").rates, result.bounds
                    )
                )
        evaluation.prim_gap_pct = sum(gaps) / len(gaps)
        evaluation.digest = _sha(
            [self._digest(outputs["fig6a"]), self._digest(outputs["fig8a"])]
        )
        evaluation.lp_backend = "scipy" if lp.scipy_available() else "simplex"
        return evaluation


# ----------------------------------------------------------------------
# large_network
# ----------------------------------------------------------------------
class LargeNetwork:
    """1,000-switch networks, every method, plain serial runner."""

    name = "large_network"
    imports = ("repro", "repro.experiments.runner")
    captures_solves = True

    def build(self, seed: int):
        from repro.experiments.config import ExperimentConfig

        return tuple(
            ExperimentConfig(
                n_switches=LARGE_SWITCHES,
                n_users=LARGE_USERS,
                n_networks=1,
                seed=network_seed,
            )
            for network_seed in derive_seeds(seed, LARGE_NETWORKS)
        )

    def input_bytes(self, configs) -> bytes:
        return json.dumps(
            [dataclasses.asdict(c) for c in configs], sort_keys=True
        ).encode()

    def units(self, configs) -> List[Unit]:
        from repro.experiments import runner

        def trial(config):
            return lambda: runner.run_experiment(config)

        return [
            Unit(f"network{index}", 1, trial(config), self._digest)
            for index, config in enumerate(configs)
        ]

    @staticmethod
    def _digest(result) -> str:
        return _sha(_result_payload(result))

    def evaluate(self, configs, outputs, captured) -> Evaluation:
        evaluation = Evaluation()
        digests = []
        for index in range(len(configs)):
            name = f"network{index}"
            result = outputs[name]
            _check_solves(captured[name], _result_rates(result), evaluation, name)
            digests.append(self._digest(result))
        evaluation.digest = _sha(digests)
        return evaluation


# ----------------------------------------------------------------------
# online_serving
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OnlineInstance:
    """One network with its request stream and fault schedule."""

    network: Any
    requests: Tuple[Any, ...]
    schedule: Any
    scheduler_seed: int


class OnlineServing:
    """Request streams served by the loss loop, then the tenant loop.

    A run serves ``ONLINE_INSTANCES`` independent networks, each with
    its own stream and fault schedule, so one seed's figures do not
    hinge on one network's bottlenecks.
    """

    name = "online_serving"
    imports = (
        "repro",
        "repro.sim.online",
        "repro.sim.workload",
        "repro.resilience.faults",
        "repro.tenancy",
        "repro.tenancy.serving",
        "repro.extensions.recovery",
        "repro.verify.verifier",
        "repro.admission.backpressure",
    )
    captures_solves = False

    def build(self, seed: int) -> Tuple[OnlineInstance, ...]:
        from repro.resilience.faults import random_schedule
        from repro.sim.workload import WorkloadSpec, generate_workload
        from repro.topology.base import TopologyConfig
        from repro.topology.registry import generate

        spec = WorkloadSpec(
            arrival_rate=ONLINE_ARRIVAL_RATE,
            horizon=ONLINE_HORIZON,
            mean_hold=ONLINE_MEAN_HOLD,
            max_wait=ONLINE_MAX_WAIT,
            n_tenants=ONLINE_TENANTS,
            tenant_skew=ONLINE_TENANT_SKEW,
        )
        seeds = derive_seeds(seed, 4 * ONLINE_INSTANCES)
        instances = []
        for index in range(ONLINE_INSTANCES):
            net_seed, stream_seed, fault_seed, scheduler_seed = seeds[
                4 * index : 4 * index + 4
            ]
            network = generate(
                "waxman",
                TopologyConfig(n_switches=50, n_users=10, qubits_per_switch=4),
                net_seed,
            )
            requests = generate_workload(network.user_ids, spec, rng=stream_seed)
            schedule = random_schedule(
                network,
                n_faults=ONLINE_FAULTS,
                horizon=ONLINE_HORIZON,
                rng=fault_seed,
            )
            instances.append(
                OnlineInstance(network, tuple(requests), schedule, scheduler_seed)
            )
        return tuple(instances)

    def input_bytes(self, instances) -> bytes:
        return json.dumps(
            [
                {
                    "network": instance.network.fingerprint("full"),
                    "requests": [
                        [
                            r.name,
                            [repr(u) for u in r.users],
                            r.arrival,
                            r.hold,
                            r.max_wait,
                            r.tenant,
                        ]
                        for r in instance.requests
                    ],
                    "faults": instance.schedule.to_specs(),
                    "scheduler_seed": instance.scheduler_seed,
                }
                for instance in instances
            ],
            sort_keys=True,
            default=repr,
        ).encode()

    def units(self, instances) -> List[Unit]:
        from repro.resilience import faults
        from repro.sim import online
        from repro.tenancy import replicas, serving

        def loss_pass(instance):
            def call():
                scheduler = online.OnlineScheduler(
                    instance.network, rng=instance.scheduler_seed
                )
                return scheduler.run(list(instance.requests))

            return call

        def tenant_pass(instance):
            def call():
                return serving.serve_tenants(
                    instance.network,
                    list(instance.requests),
                    rng=instance.scheduler_seed,
                    replication=replicas.ReplicationPolicy(k=ONLINE_REPLICAS),
                    fault_injector=faults.FaultInjector(
                        instance.schedule, instance.network
                    ),
                    **ONLINE_ADMISSION,
                )

            return call

        units = []
        for index, instance in enumerate(instances):
            n = len(instance.requests)
            units.append(
                Unit(
                    f"loss{index}",
                    n,
                    loss_pass(instance),
                    lambda r: _sha(self._outcomes(r)),
                )
            )
            units.append(
                Unit(
                    f"tenant{index}",
                    n,
                    tenant_pass(instance),
                    lambda r: _sha(self._outcomes(r.result)),
                )
            )
        return units

    @staticmethod
    def _outcomes(result) -> List[List[str]]:
        return [
            [
                o.request.name,
                o.disposition,
                _float_text(o.solution.rate) if o.solution is not None else "",
            ]
            for o in result.outcomes
        ]

    @staticmethod
    def _check_pass(instance, result, label, evaluation, oracle) -> None:
        """One disposition per request, no overbooking, valid trees."""
        from repro.core.tree import validate_solution

        network = instance.network
        names = [r.name for r in instance.requests]
        got = [o.request.name for o in result.outcomes]
        if got != names:
            evaluation.problems.append(
                f"{label}: {len(got)} outcomes for {len(names)} requests "
                "(each request needs exactly one disposition)"
            )
            evaluation.failed += abs(len(names) - len(got)) or 1
        for switch, peak in sorted(result.peak_qubit_usage.items(), key=repr):
            if peak > (network.qubits_of(switch) or 0):
                evaluation.problems.append(
                    f"{label}: switch {switch!r} overbooked ({peak} qubits)"
                )
                evaluation.failed += 1
        for outcome in result.outcomes:
            evaluation.attempted += 1
            if not outcome.accepted:
                continue
            solution = outcome.solution
            report = validate_solution(network, solution)
            optimum = oracle.tree_log_rate(solution.users)
            issue = (
                None if report.ok else f"invalid tree: {report}"
            ) or _against_optimum(solution, optimum, exact=False)
            if issue:
                evaluation.problems.append(
                    f"{label}: {outcome.request.name}: {issue}"
                )
                evaluation.failed += 1
                continue
            evaluation.ok += 1
            evaluation.log_ratios.append(solution.log_rate - optimum)

    def evaluate(self, instances, outputs, captured) -> Evaluation:
        evaluation = Evaluation()
        digests = []
        for index, instance in enumerate(instances):
            loss = outputs[f"loss{index}"]
            tenant = outputs[f"tenant{index}"]
            bad = {o.disposition for o in loss.outcomes} - {"served", "rejected"}
            if bad:
                evaluation.problems.append(
                    f"loss{index}: unexpected dispositions {sorted(bad)}"
                )
            oracle = TreeOracle(instance.network)
            self._check_pass(instance, loss, f"loss{index}", evaluation, oracle)
            self._check_pass(
                instance, tenant.result, f"tenant{index}", evaluation, oracle
            )
            unattributed = tenant.unattributed()
            if unattributed:
                evaluation.problems.append(
                    f"tenant{index}: {len(unattributed)} requests without "
                    "exactly one disposition"
                )
                evaluation.failed += len(unattributed)
            digests.append(
                [self._outcomes(loss), self._outcomes(tenant.result)]
            )
        evaluation.digest = _sha(digests)
        return evaluation


WORKLOADS = {w.name: w for w in (PaperSweep(), LargeNetwork(), OnlineServing())}
