"""Experiment execution: generate networks, run solvers, aggregate.

Replicates the paper's protocol: each data point averages the
entanglement rate over ``n_networks`` (default 20) independently
generated random networks, with infeasible runs contributing rate 0.

Every produced solution is validated against the MUERP invariants
(defence in depth).  Algorithm 2 is validated without the capacity
check: the paper runs it under the sufficient-capacity condition — in
Fig. 8(a)'s words, "the switches in Algorithm 2 ha[ve] 2|U| = 20 qubits"
regardless of the swept budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.baselines  # noqa: F401 - registers baseline solvers
import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro.analysis.stats import SummaryStats, summarize
from repro.analysis.tables import Table
from repro.core.registry import CAPACITY_EXEMPT_METHODS, DISPLAY_NAMES, solve
from repro.core.tree import validate_solution
from repro.experiments.checkpoint import CheckpointStore, active_store
from repro.experiments.config import ExperimentConfig
from repro.network.graph import QuantumNetwork
from repro.topology.registry import generate
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

#: Reserved keys in per-trial rate maps carrying the certified
#: capacitated bound and the uncapacitated one (Algorithm 2's rate, see
#: :func:`repro.bounds.gap.trial_bounds`).  They ride through the
#: checkpoint store and shard merges exactly like method rates, which
#: is what keeps bounded runs resumable and worker-count invariant.
#: Records under the older LP-only keys (``__lp_bound__``) lack these,
#: so they are recomputed instead of mixed in.
BOUND_KEY = "__bound__"
UNCAP_BOUND_KEY = "__uncap_bound__"

#: Relative slack for the in-run soundness gate (rate vs. bound).
_SOUNDNESS_RTOL = 1e-7


@dataclass(frozen=True)
class MethodOutcome:
    """Aggregated results of one method over all generated networks."""

    method: str
    rates: Tuple[float, ...]

    @property
    def display(self) -> str:
        return DISPLAY_NAMES.get(self.method, self.method)

    @property
    def stats(self) -> SummaryStats:
        return summarize(self.rates)

    @property
    def mean_rate(self) -> float:
        return self.stats.mean


@dataclass(frozen=True)
class ExperimentResult:
    """All method outcomes for one experiment configuration.

    When the config enabled bound computation (``config.bound ==
    "lp"``), ``bounds``/``uncap_bounds`` hold the per-trial certified
    capacitated and uncapacitated rate bounds (aligned with each
    outcome's ``rates``) and every table gains an optimality-gap
    column.
    """

    config: ExperimentConfig
    outcomes: Tuple[MethodOutcome, ...]
    bounds: Tuple[float, ...] = ()
    uncap_bounds: Tuple[float, ...] = ()

    def outcome(self, method: str) -> MethodOutcome:
        for candidate in self.outcomes:
            if candidate.method == method:
                return candidate
        raise KeyError(f"no outcome for method {method!r}")

    def mean_rates(self) -> Dict[str, float]:
        return {o.method: o.mean_rate for o in self.outcomes}

    @property
    def has_bounds(self) -> bool:
        return bool(self.bounds)

    @property
    def mean_bound(self) -> float:
        """Mean certified capacitated rate bound across trials."""
        if not self.bounds:
            raise ValueError("experiment ran without bound computation")
        return float(np.mean(self.bounds))

    def bounds_for(self, method: str) -> Tuple[float, ...]:
        """Per-trial bounds *method* must stay below.

        Capacity-exempt methods (Algorithm 2 under its
        sufficient-capacity assumption) are measured against the
        uncapacitated bound; everything else against the capacitated
        one (see :func:`repro.bounds.gap.trial_bounds`).
        """
        if not self.bounds:
            raise ValueError("experiment ran without bound computation")
        if method in CAPACITY_EXEMPT_METHODS:
            return self.uncap_bounds
        return self.bounds

    def gap_aggregates(self):
        """Per-method :class:`~repro.bounds.gap.GapAggregate` map."""
        from repro.bounds.gap import aggregate_gaps

        aggregates = {}
        for outcome in self.outcomes:
            aggregates.update(
                aggregate_gaps(
                    {outcome.method: outcome.rates},
                    self.bounds_for(outcome.method),
                )
            )
        return aggregates

    def to_table(self, title: Optional[str] = None) -> Table:
        columns = ["method", "mean rate", "min", "max", "failures"]
        gaps = None
        if self.has_bounds:
            columns.append("gap vs LP bound")
            gaps = self.gap_aggregates()
        table = Table(columns, title=title)
        for outcome in self.outcomes:
            stats = outcome.stats
            row = [
                outcome.display,
                stats.mean,
                stats.minimum,
                stats.maximum,
                f"{stats.n_zero}/{stats.n}",
            ]
            if gaps is not None:
                row.append(f"{gaps[outcome.method].mean_gap_percent:.2f}%")
            table.add_row(row)
        return table


def run_on_network(
    network: QuantumNetwork,
    methods: Sequence[str],
    rng: RngLike = None,
    validate: bool = True,
) -> Dict[str, float]:
    """Run each method once on *network*, returning method → rate.

    Raises ``AssertionError`` if any solver emits an invalid tree (this
    is a library bug, never a legitimate experiment outcome).
    """
    generator = ensure_rng(rng)
    metrics = obs_metrics.active()
    rates: Dict[str, float] = {}
    for method in methods:
        started = time.perf_counter()
        solution = solve(method, network, rng=generator)
        if metrics is not None:
            metrics.inc(f"experiments.solves.{method}")
            metrics.observe(
                f"experiments.solve_seconds.{method}",
                time.perf_counter() - started,
            )
            if not solution.feasible:
                metrics.inc(f"experiments.infeasible.{method}")
        if validate:
            report = validate_solution(
                network,
                solution,
                enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
            )
            assert report.ok, (
                f"solver {method!r} produced an invalid solution: {report}"
            )
        rates[method] = solution.rate
    return rates


def run_trial(
    config: ExperimentConfig,
    trial: int,
    rng: RngLike = None,
) -> Dict[str, float]:
    """Run one ``(config, trial)`` work unit: generate, solve, validate.

    The unit of work the parallel execution engine shards: it depends
    only on ``(config, trial)`` — the per-trial RNG is index-seeded via
    :func:`~repro.utils.rng.spawn_rngs`, so any process can compute any
    trial in any order and produce the identical method → rate map.
    Callers that already spawned the trial generators (the serial loop
    below) pass the matching *rng* to skip re-deriving it.
    """
    network_rng = (
        rng
        if rng is not None
        else spawn_rngs(config.seed, config.n_networks)[trial]
    )
    with obs_trace.span("experiment.trial", trial=trial):
        network = generate(
            config.topology, config.topology_config(), network_rng
        )
        rates = run_on_network(network, config.methods, network_rng)
        if config.bound == "lp":
            _attach_bounds(network, config, rates)
        return rates


def _attach_bounds(
    network: QuantumNetwork,
    config: ExperimentConfig,
    rates: Dict[str, float],
) -> None:
    """Compute the trial's certified bounds and gate every rate against them.

    Stores :func:`repro.bounds.gap.trial_bounds`' capacitated and
    uncapacitated bounds under :data:`BOUND_KEY` /
    :data:`UNCAP_BOUND_KEY` and asserts in-run soundness: a heuristic
    rate above its certified bound is a library bug (in the solver, the
    verifier or the bound itself), never a legitimate outcome.
    """
    from repro.bounds.gap import optimality_gap, trial_bounds

    bounds = trial_bounds(network, rates, backend=config.bound_backend)
    rates[BOUND_KEY] = bounds.capacitated
    rates[UNCAP_BOUND_KEY] = bounds.uncapacitated
    metrics = obs_metrics.active()
    for method in config.methods:
        bound = bounds.for_method(method)
        gap = optimality_gap(rates[method], bound)
        assert gap >= -_SOUNDNESS_RTOL, (
            f"solver {method!r} rate {rates[method]:.6e} exceeds the "
            f"certified bound {bound:.6e} — unsound bound or invalid "
            f"solution"
        )
        if metrics is not None:
            metrics.observe(f"bounds.gap_percent.{method}", 100.0 * gap)


def resumable_rates(
    store: Optional[CheckpointStore],
    config: ExperimentConfig,
    trial: int,
) -> Optional[Dict[str, float]]:
    """Recorded rates for *trial* if the store fully covers *config*.

    A resumable record must cover every requested method; partial
    records (e.g. from a sweep with fewer methods) are recomputed
    rather than trusted.
    """
    if store is None:
        return None
    recorded = store.get(config, trial)
    if recorded is None or any(m not in recorded for m in config.methods):
        return None
    keys = list(config.methods)
    if config.bound == "lp":
        if BOUND_KEY not in recorded or UNCAP_BOUND_KEY not in recorded:
            return None
        keys += [BOUND_KEY, UNCAP_BOUND_KEY]
    return {k: recorded[k] for k in keys}


def run_experiment(
    config: ExperimentConfig,
    checkpoint: Optional[CheckpointStore] = None,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the full averaged experiment described by *config*.

    With a *checkpoint* store (passed explicitly or made ambient via
    :func:`repro.experiments.checkpoint.checkpointing`), every completed
    trial is persisted atomically and previously recorded trials are
    skipped — a killed sweep resumes losslessly.  Because the per-trial
    RNGs come from :func:`~repro.utils.rng.spawn_rngs` (index-seeded,
    order-independent), resumed aggregates equal a straight-through run.

    With ``workers > 1`` (or an ambient
    :class:`~repro.exec.engine.ExecutionEngine` activated via
    :func:`repro.exec.engine.executing`), trials are sharded across a
    process pool and merged deterministically — aggregates are
    byte-identical for every worker count.  ``KeyboardInterrupt``
    during a parallel run cancels outstanding shards, flushes the
    checkpoints of completed ones into the store, and re-raises, so a
    Ctrl-C'd sweep neither orphans workers nor loses finished work.
    """
    if workers is not None and workers > 1:
        from repro.exec.engine import ExecutionEngine

        # Owned engine: close it (joining the worker pool) on the way
        # out so no executor outlives the call.
        with ExecutionEngine(workers=workers) as engine:
            return engine.run_experiment(config, checkpoint=checkpoint)
    from repro.exec.engine import active_engine

    engine = active_engine()
    if engine is not None:
        return engine.run_experiment(config, checkpoint=checkpoint)

    store = checkpoint if checkpoint is not None else active_store()
    network_rngs = spawn_rngs(config.seed, config.n_networks)
    per_method: Dict[str, List[float]] = {m: [] for m in config.methods}
    bounds: List[float] = []
    uncap_bounds: List[float] = []
    metrics = obs_metrics.active()
    with obs_trace.span(
        "experiment.run",
        topology=config.topology,
        n_networks=config.n_networks,
        methods=",".join(config.methods),
    ):
        for trial, network_rng in enumerate(network_rngs):
            rates = resumable_rates(store, config, trial)
            if rates is not None and metrics is not None:
                metrics.inc("experiments.trials_resumed")
            if rates is None:
                trial_started = time.perf_counter()
                rates = run_trial(config, trial, network_rng)
                if metrics is not None:
                    metrics.inc("experiments.trials")
                    metrics.observe(
                        "experiments.trial_seconds",
                        time.perf_counter() - trial_started,
                    )
                if store is not None:
                    store.record(config, trial, rates)
            for method in config.methods:
                per_method[method].append(rates[method])
            if config.bound == "lp":
                bounds.append(rates[BOUND_KEY])
                uncap_bounds.append(rates[UNCAP_BOUND_KEY])
    outcomes = tuple(
        MethodOutcome(method, tuple(per_method[method]))
        for method in config.methods
    )
    return ExperimentResult(
        config=config,
        outcomes=outcomes,
        bounds=tuple(bounds),
        uncap_bounds=tuple(uncap_bounds),
    )
