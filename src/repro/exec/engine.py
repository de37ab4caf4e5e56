"""The execution engine: shards × backends × deterministic merge.

:class:`ExecutionEngine` takes any index-addressable grid of work —
experiment trials, fig7b replicas, Monte-Carlo runs — partitions it with
a :class:`~repro.exec.shard.ShardPlan`, runs the shards on a backend,
and reassembles results in canonical item order.  Two backends:

* **serial** (``workers=1``, the default): shards run in-process, in
  shard order, sharing the engine's persistent
  :class:`~repro.exec.cache.ChannelCache`.  Because the plan and the
  per-item RNGs are index-derived, this produces byte-identical results
  to the pre-engine serial code path.
* **process** (``workers>1``): shards run on a lazily-created
  ``ProcessPoolExecutor``.  Each worker process owns one process-global
  channel cache (installed by the pool initializer), so repeated-graph
  sweeps keep their hit rate across shards and sweep points.  Shard
  results carry the per-shard cache-stat deltas back to the parent,
  which aggregates them into the active metrics registry
  (``repro.exec.*``).

Checkpoint discipline: concurrent writers must never share one
atomic-rename JSONL target, so each shard writes a private sibling file
(``<store>.shards/shard-<k>.jsonl``) which the parent merges through
:meth:`~repro.experiments.checkpoint.CheckpointStore.merge_from` — after
success, and for completed shards on ``KeyboardInterrupt`` (outstanding
futures are cancelled, the pool is torn down, finished work is flushed,
and the interrupt re-raises).  The merge is *self-healing*: a corrupt
or torn shard file is quarantined to ``<store>.shards/quarantine/`` and
its trials are re-recorded from the in-memory shard result (or simply
re-executed on the next resume), so one bad file never poisons a sweep.

Fault tolerance: the process backend is driven by a
:class:`~repro.exec.supervisor.ShardSupervisor` — per-shard heartbeat
files with a hang watchdog, crash detection, bounded retry with
backoff reusing the :mod:`repro.resilience` policy family, and
poison-shard quarantine with graceful degradation to in-process serial
execution.  Every recovery is attributed in the engine-lifetime
:attr:`ExecutionEngine.report` (a
:class:`~repro.exec.supervisor.DispositionReport`).

The engine can be made *ambient* with :func:`executing`, mirroring the
checkpoint/metrics idiom, so sweep drivers that call
:func:`repro.experiments.runner.run_experiment` internally parallelize
without threading an engine through every signature::

    with ExecutionEngine(workers=4) as engine:
        with executing(engine):
            run_fig6a()                # trials now shard across 4 procs
    print(engine.stats.describe())
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs.metrics as obs_metrics
from repro.exec.cache import CacheStats, ChannelCache
from repro.exec import cache as exec_cache
from repro.exec.shard import Shard, ShardPlan
from repro.exec.supervisor import (
    COMPLETED,
    DispositionReport,
    ShardDisposition,
    ShardSupervisor,
    SupervisionPolicy,
)

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "ShardResult",
    "active_engine",
    "executing",
    "result_payload",
]


@dataclass
class EngineStats:
    """Cumulative accounting of everything an engine has executed."""

    shards_run: int = 0
    items_run: int = 0
    items_resumed: int = 0
    retries: int = 0
    quarantines: int = 0
    checkpoint_heals: int = 0
    checkpoint_records_skipped: int = 0
    #: Trial indices whose results never reached the checkpoint store
    #: when a run was interrupted — exactly what ``--resume`` re-runs.
    unflushed_trials: List[int] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)

    def absorb_cache(self, delta: CacheStats) -> None:
        self.cache = self.cache.merged(delta)

    def describe(self) -> str:
        text = (
            f"{self.items_run} item(s) in {self.shards_run} shard(s), "
            f"{self.items_resumed} resumed; cache: "
            f"{self.cache.hits}/{self.cache.lookups} hits "
            f"({self.cache.hit_rate:.1%}), "
            f"{self.cache.invalidations} invalidation(s), "
            f"{self.cache.evictions} eviction(s)"
        )
        if (
            self.retries
            or self.quarantines
            or self.checkpoint_heals
            or self.checkpoint_records_skipped
        ):
            text += (
                f"; recovery: {self.retries} retry(ies), "
                f"{self.quarantines} quarantine(s), "
                f"{self.checkpoint_heals} trial(s) healed, "
                f"{self.checkpoint_records_skipped} corrupt record(s) "
                f"skipped"
            )
        if self.unflushed_trials:
            text += (
                f"; {len(self.unflushed_trials)} unflushed trial(s) "
                f"re-run on resume: {self.unflushed_trials}"
            )
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards_run": self.shards_run,
            "items_run": self.items_run,
            "items_resumed": self.items_resumed,
            "retries": self.retries,
            "quarantines": self.quarantines,
            "checkpoint_heals": self.checkpoint_heals,
            "checkpoint_records_skipped": self.checkpoint_records_skipped,
            "unflushed_trials": list(self.unflushed_trials),
            "cache": self.cache.to_dict(),
        }


@dataclass(frozen=True)
class ShardResult:
    """What one executed shard hands back to the engine.

    Attributes:
        shard_index: Which shard of the plan this is.
        results: item index → the item's result payload.
        cache_stats: Channel-cache counter deltas attributable to this
            shard (zeros when caching was disabled).
    """

    shard_index: int
    results: Dict[int, Any]
    cache_stats: CacheStats = field(default_factory=CacheStats)


# ----------------------------------------------------------------------
# Worker-side plumbing.  Everything submitted to the pool must be a
# module-level callable with picklable arguments.
# ----------------------------------------------------------------------

#: Per-process channel cache installed by :func:`_worker_init`.
_worker_cache: Optional[ChannelCache] = None


def _worker_init(use_cache: bool, cache_size: int) -> None:
    """Pool initializer: give the worker process its own channel cache.

    The cache is process-global (enabled for the worker's whole life),
    so hits accumulate across every shard and sweep point the worker
    serves — that persistence is where repeated-graph sweeps earn their
    hit rate.
    """
    # Forked workers inherit the parent's executor-manager wakeup
    # registry; their exit hook would then write to a pipe fd that is
    # not valid in the child, printing a spurious "Bad file descriptor"
    # traceback at shutdown (CPython fork-mode quirk).  The registry is
    # meaningless in a worker — drop the inherited entries.
    try:
        import concurrent.futures.process as _cf_process

        _cf_process._threads_wakeups.clear()
    except (ImportError, AttributeError):  # pragma: no cover
        pass
    global _worker_cache
    if use_cache:
        _worker_cache = ChannelCache(max_entries=cache_size)
        exec_cache.enable(_worker_cache)
    else:
        _worker_cache = None
        exec_cache.disable()


def _cache_stats_snapshot() -> CacheStats:
    cache = exec_cache.active()
    return cache.stats() if cache is not None else CacheStats()


def _run_generic_shard(
    shard: Shard,
    fn: Callable[[Any], Any],
    payloads: Dict[int, Any],
    progress: Optional[Callable[[int], None]] = None,
) -> ShardResult:
    """Run ``fn(payload)`` for every item of *shard*, in item order.

    *progress* (injected by the shard supervisor) is called with the
    number of completed items after each one — the worker-side
    heartbeat that feeds the hang watchdog.
    """
    before = _cache_stats_snapshot()
    results: Dict[int, Any] = {}
    for done, item in enumerate(shard.items, start=1):
        results[item] = fn(payloads[item])
        if progress is not None:
            progress(done)
    return ShardResult(
        shard_index=shard.index,
        results=results,
        cache_stats=_cache_stats_snapshot().delta(before),
    )


def _run_experiment_shard(
    shard: Shard,
    config: "ExperimentConfig",
    checkpoint_path: Optional[str],
    progress: Optional[Callable[[int], None]] = None,
) -> ShardResult:
    """Run the experiment trials of *shard*; checkpoint each locally.

    Uses :func:`repro.experiments.runner.run_trial`, the same work unit
    the serial runner executes, so a shard's rates are bit-equal to the
    serial loop's for the same trial indices.  *progress* is the
    supervisor-injected heartbeat callback.
    """
    from repro.experiments.checkpoint import CheckpointStore
    from repro.experiments.runner import run_trial

    before = _cache_stats_snapshot()
    store = (
        CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
    )
    results: Dict[int, Dict[str, float]] = {}
    for done, trial in enumerate(shard.items, start=1):
        rates = run_trial(config, trial)
        results[trial] = rates
        if store is not None:
            store.record(config, trial, rates)
        if progress is not None:
            progress(done)
    return ShardResult(
        shard_index=shard.index,
        results=results,
        cache_stats=_cache_stats_snapshot().delta(before),
    )


if False:  # pragma: no cover - import-time typing only
    from repro.experiments.config import ExperimentConfig  # noqa: F401


class ExecutionEngine:
    """Runs sharded work grids serially or across a process pool.

    Args:
        workers: Process count.  ``1`` (default) runs in-process and is
            byte-identical to the legacy serial path; ``N > 1`` uses a
            ``ProcessPoolExecutor`` with ``N`` workers.
        use_cache: Memoize channel searches (serial: one engine-lifetime
            cache; process: one cache per worker process).
        cache_size: LRU bound per cache.
        supervision: Fault-tolerance knobs for the process backend
            (retry budget, backoff, hang watchdog, quarantine).  The
            default :class:`~repro.exec.supervisor.SupervisionPolicy`
            retries each shard up to three pool attempts, then
            quarantines it to in-process serial execution.
        chaos: Optional fault injector (see :mod:`repro.exec.chaos`)
            consulted on every pool submission — used by the chaos-soak
            harness and tests, ``None`` in production.

    The engine is reusable across calls (the pool and the serial cache
    persist) and is a context manager; :meth:`close` tears the pool
    down.  Determinism contract: for a fixed grid, results and
    aggregates are identical for every ``workers`` value and for
    ``use_cache`` on or off — parallelism and caching are pure
    wall-clock optimizations.  Recovery preserves the contract: retries
    and quarantine fallbacks re-run the same pure shard function on the
    same index-derived arguments.
    """

    def __init__(
        self,
        workers: int = 1,
        use_cache: bool = True,
        cache_size: int = 4096,
        supervision: Optional[SupervisionPolicy] = None,
        chaos: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.use_cache = use_cache
        self.cache_size = cache_size
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self.chaos = chaos
        self.stats = EngineStats()
        #: Engine-lifetime ledger of what happened to every shard.
        self.report = DispositionReport()
        self._run_seq = 0
        self._current_dispositions: Dict[int, ShardDisposition] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._serial_cache: Optional[ChannelCache] = (
            ChannelCache(max_entries=cache_size) if use_cache else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.use_cache, self.cache_size),
            )
        return self._pool

    def _abandon_pool(self, terminate: bool) -> None:
        """Discard the current pool (it broke, or a worker is wedged).

        With ``terminate=True`` the worker processes are killed first —
        the only way to reclaim a hung worker, since a submitted call
        cannot be recalled.  The next :meth:`_ensure_pool` builds a
        fresh pool; the supervisor resubmits affected shards to it.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        pool.shutdown(wait=True, cancel_futures=True)
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("repro.exec.supervisor.pool_rebuilds")

    @property
    def cache(self) -> Optional[ChannelCache]:
        """The serial-backend cache (``None`` for process backends)."""
        return self._serial_cache

    # ------------------------------------------------------------------
    # Core shard execution
    # ------------------------------------------------------------------
    def run_shards(
        self,
        shard_fn: Callable[..., ShardResult],
        shard_args: Sequence[Tuple],
        on_shard_done: Optional[Callable[[ShardResult], None]] = None,
        checkpoint_paths: Optional[Dict[int, str]] = None,
    ) -> List[ShardResult]:
        """Execute ``shard_fn(*args)`` for every entry of *shard_args*.

        Returns results ordered by submission index (not completion
        order).  *on_shard_done* fires in the parent as each shard
        completes — the engine uses it to flush merged checkpoints
        incrementally.  *checkpoint_paths* (shard index → private
        checkpoint file) lets the supervisor's chaos harness target
        shard checkpoints for truncation injection.

        On the process backend each shard runs under the
        :class:`~repro.exec.supervisor.ShardSupervisor`: worker crashes
        and hangs are detected, the shard is retried with backoff, and
        a poison shard degrades to in-process serial execution instead
        of failing the run.  Every shard's story lands in
        :attr:`report`.

        ``KeyboardInterrupt`` while shards are outstanding cancels the
        queued ones, tears the pool down (no orphaned workers), then
        re-raises; completed shards' callbacks have already run, so
        their checkpoints are safe.  A ``KeyboardInterrupt`` raised
        *inside* a worker propagates out of its future and is treated
        identically.
        """
        self._run_seq += 1
        dispositions: Dict[int, ShardDisposition] = {}
        for position, args in enumerate(shard_args):
            first = args[0] if args else None
            if isinstance(first, Shard):
                key, items = first.index, len(first)
            else:
                key, items = position, 1
            dispositions[key] = self.report.ensure(self._run_seq, key, items)
        self._current_dispositions = dispositions
        if self.workers == 1:
            return self._run_shards_serial(shard_fn, shard_args, on_shard_done)
        supervisor = ShardSupervisor(
            self,
            self.supervision,
            dispositions,
            chaos=self.chaos,
            checkpoint_paths=checkpoint_paths,
        )
        return supervisor.run(shard_fn, shard_args, on_shard_done)

    def _absorb(self, result: ShardResult) -> None:
        self.stats.shards_run += 1
        self.stats.items_run += len(result.results)
        self.stats.absorb_cache(result.cache_stats)
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("repro.exec.shards_run")
            metrics.inc("repro.exec.items_run", len(result.results))
            delta = result.cache_stats
            # Worker processes have their own (inactive) registries, so
            # their cache deltas are republished here; the serial
            # backend's cache already published per-lookup counters.
            if self.workers > 1:
                if delta.hits:
                    metrics.inc("repro.exec.cache.hits", delta.hits)
                if delta.misses:
                    metrics.inc("repro.exec.cache.misses", delta.misses)
                if delta.evictions:
                    metrics.inc("repro.exec.cache.evictions", delta.evictions)
                if delta.invalidations:
                    metrics.inc(
                        "repro.exec.cache.invalidations", delta.invalidations
                    )

    def _run_shards_serial(
        self,
        shard_fn: Callable[..., ShardResult],
        shard_args: Sequence[Tuple],
        on_shard_done: Optional[Callable[[ShardResult], None]],
    ) -> List[ShardResult]:
        scope = (
            exec_cache.caching(self._serial_cache)
            if self._serial_cache is not None
            else nullcontext()
        )
        results: List[ShardResult] = []
        with scope:
            for args in shard_args:
                # In-process shard functions compute their own cache
                # deltas against the shared serial cache.
                result = shard_fn(*args)
                results.append(result)
                disposition = self._current_dispositions.get(
                    result.shard_index
                )
                if disposition is not None:
                    disposition.attempts = max(disposition.attempts, 1)
                    disposition.backend = "serial"
                    disposition.outcome = COMPLETED
                self._absorb(result)
                if on_shard_done is not None:
                    on_shard_done(result)
        return results

    # ------------------------------------------------------------------
    # Generic item mapping
    # ------------------------------------------------------------------
    def map_items(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> List[Any]:
        """``[fn(p) for p in payloads]``, sharded across the backend.

        *fn* must be a module-level (picklable) callable.  Results come
        back in payload order regardless of shard scheduling.
        """
        if not payloads:
            return []
        plan = ShardPlan.build(len(payloads), self.workers)
        payload_map = dict(enumerate(payloads))
        shard_args = [
            (shard, fn, {i: payload_map[i] for i in shard.items})
            for shard in plan
        ]
        results = self.run_shards(_run_generic_shard, shard_args)
        merged: Dict[int, Any] = {}
        for shard_result in results:
            merged.update(shard_result.results)
        return [merged[i] for i in range(len(payloads))]

    # ------------------------------------------------------------------
    # Experiment orchestration
    # ------------------------------------------------------------------
    def run_experiment(
        self,
        config: "ExperimentConfig",
        checkpoint: Optional["CheckpointStore"] = None,
    ) -> "ExperimentResult":
        """Sharded, checkpointed equivalent of the serial runner.

        Byte-identical aggregates for every worker count: trials are
        keyed by index, shards are index-arithmetic, and the merge
        assembles rates in trial order before aggregation.
        """
        from repro.experiments.checkpoint import active_store
        from repro.experiments.runner import (
            ExperimentResult,
            MethodOutcome,
            resumable_rates,
        )

        store = checkpoint if checkpoint is not None else active_store()
        metrics = obs_metrics.active()
        # Self-healing pass: a previous run that died between a shard's
        # completion and its merge leaves shard-*.jsonl files behind.
        # Absorb them (tolerantly — corrupt files are quarantined) so
        # their trials resume instead of re-running, and so corrupt
        # records simply fall into the pending set below and re-execute.
        self._absorb_leftover_shards(store)
        rates_by_trial: Dict[int, Dict[str, float]] = {}
        pending: List[int] = []
        for trial in range(config.n_networks):
            recorded = resumable_rates(store, config, trial)
            if recorded is not None:
                rates_by_trial[trial] = recorded
            else:
                pending.append(trial)
        if rates_by_trial:
            self.stats.items_resumed += len(rates_by_trial)
            if metrics is not None:
                metrics.inc("experiments.trials_resumed", len(rates_by_trial))

        if pending:
            plan = ShardPlan.over(pending, self.workers)
            shard_dir = self._shard_checkpoint_dir(store)
            shard_paths = self._shard_checkpoint_paths(shard_dir, plan)

            def flush(result: ShardResult) -> None:
                for trial, rates in result.results.items():
                    rates_by_trial[trial] = rates
                self._merge_shard_checkpoint(
                    store, shard_paths.get(result.shard_index)
                )
                self._heal_shard_records(store, config, result)

            shard_args = [
                (shard, config, shard_paths.get(shard.index))
                for shard in plan
            ]
            try:
                self.run_shards(
                    _run_experiment_shard,
                    shard_args,
                    on_shard_done=flush,
                    checkpoint_paths=shard_paths,
                )
            except BaseException:
                # Late flush: shards that completed after the failing /
                # interrupted one may have checkpoints on disk that the
                # callback never saw — absorb whatever exists before
                # propagating, so no finished trial is forfeited.
                for path in shard_paths.values():
                    self._merge_shard_checkpoint(store, path)
                self._cleanup_shard_dir(shard_dir, shard_paths)
                # Surface what was lost: trials with no flushed
                # checkpoint are exactly what --resume re-runs.
                if store is not None:
                    unflushed = [
                        t for t in pending if not store.has(config, t)
                    ]
                else:
                    unflushed = list(pending)
                self.stats.unflushed_trials = sorted(unflushed)
                if metrics is not None:
                    metrics.set_gauge(
                        "repro.exec.checkpoint.unflushed_trials",
                        len(unflushed),
                    )
                raise
            self._cleanup_shard_dir(shard_dir, shard_paths)
            if metrics is not None:
                metrics.inc("experiments.trials", len(pending))

        outcomes = tuple(
            MethodOutcome(
                method,
                tuple(
                    rates_by_trial[trial][method]
                    for trial in range(config.n_networks)
                ),
            )
            for method in config.methods
        )
        bounds: tuple = ()
        uncap_bounds: tuple = ()
        if config.bound == "lp":
            # The certified bounds ride through shard results and
            # checkpoints under reserved keys, exactly like methods.
            from repro.experiments.runner import BOUND_KEY, UNCAP_BOUND_KEY

            bounds = tuple(
                rates_by_trial[trial][BOUND_KEY]
                for trial in range(config.n_networks)
            )
            uncap_bounds = tuple(
                rates_by_trial[trial][UNCAP_BOUND_KEY]
                for trial in range(config.n_networks)
            )
        return ExperimentResult(
            config=config,
            outcomes=outcomes,
            bounds=bounds,
            uncap_bounds=uncap_bounds,
        )

    def run_sweep(
        self,
        base: "ExperimentConfig",
        parameter: str,
        values: Sequence[object],
    ) -> "SweepResult":
        """Sweep *parameter* over *values*, sharding each point's trials.

        Sweep points run in order (their shards fan out within each
        point), so checkpoint/resume layout matches the serial sweep.
        """
        from repro.experiments.sweeps import SweepResult

        if not values:
            raise ValueError("sweep needs at least one value")
        results = [
            self.run_experiment(base.replace(**{parameter: value}))
            for value in values
        ]
        return SweepResult(
            parameter=parameter,
            values=tuple(values),
            results=tuple(results),
        )

    # ------------------------------------------------------------------
    # Shard-checkpoint helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_checkpoint_dir(store) -> Optional[Path]:
        if store is None:
            return None
        return Path(str(store.path) + ".shards")

    @staticmethod
    def _shard_checkpoint_paths(
        shard_dir: Optional[Path], plan: ShardPlan
    ) -> Dict[int, str]:
        if shard_dir is None:
            return {}
        shard_dir.mkdir(parents=True, exist_ok=True)
        return {
            shard.index: str(shard_dir / f"shard-{shard.index}.jsonl")
            for shard in plan
        }

    def _merge_shard_checkpoint(self, store, path: Optional[str]):
        """Fold one shard checkpoint into the main store, tolerantly.

        A clean file merges and is removed; a corrupt or torn one has
        its valid records salvaged, then the file itself is quarantined
        to ``<store>.shards/quarantine/`` for post-mortems instead of
        poisoning the merge.  Returns the
        :class:`~repro.experiments.checkpoint.MergeReport` (or ``None``
        when there was nothing to merge).
        """
        if store is None or path is None or not os.path.exists(path):
            return None
        report = store.merge_from(path)
        if report.clean:
            os.unlink(path)
        else:
            self.stats.checkpoint_records_skipped += report.skipped
            self._quarantine_checkpoint_file(store, path)
        return report

    @staticmethod
    def _quarantine_checkpoint_file(store, path: str) -> Path:
        quarantine_dir = (
            Path(str(store.path) + ".shards") / "quarantine"
        )
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        source = Path(path)
        target = quarantine_dir / source.name
        serial = 1
        while target.exists():
            target = quarantine_dir / f"{source.stem}-{serial}{source.suffix}"
            serial += 1
        os.replace(path, target)
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("repro.exec.checkpoint.files_quarantined")
        return target

    def _heal_shard_records(self, store, config, result: ShardResult) -> None:
        """Re-record trials the shard's checkpoint file failed to carry.

        The in-memory :class:`ShardResult` is authoritative — if the
        on-disk shard file was truncated or corrupted (torn write,
        chaos injection, disk fault), the missing trials are simply
        written again from memory, so the main store stays complete
        without re-executing anything.
        """
        if store is None:
            return
        healed = 0
        for trial in sorted(result.results):
            if not store.has(config, trial):
                store.record(config, trial, result.results[trial])
                healed += 1
        if not healed:
            return
        self.stats.checkpoint_heals += healed
        disposition = self._current_dispositions.get(result.shard_index)
        if disposition is not None:
            disposition.healed_trials += healed
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("repro.exec.supervisor.checkpoint_heals", healed)

    def _absorb_leftover_shards(self, store) -> None:
        shard_dir = self._shard_checkpoint_dir(store)
        if shard_dir is None or not shard_dir.is_dir():
            return
        for path in sorted(shard_dir.glob("shard-*.jsonl")):
            self._merge_shard_checkpoint(store, str(path))

    @staticmethod
    def _cleanup_shard_dir(
        shard_dir: Optional[Path], shard_paths: Dict[int, str]
    ) -> None:
        if shard_dir is None:
            return
        for path in shard_paths.values():
            if os.path.exists(path):
                os.unlink(path)
        try:
            shard_dir.rmdir()
        except OSError:  # pragma: no cover - non-empty/external files
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = "serial" if self.workers == 1 else f"pool×{self.workers}"
        return (
            f"ExecutionEngine({backend}, cache="
            f"{'on' if self.use_cache else 'off'})"
        )


if False:  # pragma: no cover - import-time typing only
    from repro.experiments.checkpoint import CheckpointStore  # noqa: F401
    from repro.experiments.runner import ExperimentResult  # noqa: F401
    from repro.experiments.sweeps import SweepResult  # noqa: F401


def result_payload(result: Any) -> Any:
    """A JSON-serializable, canonical view of an experiment result.

    Covers every shape the experiment catalogue returns
    (:class:`~repro.experiments.runner.ExperimentResult`,
    :class:`~repro.experiments.sweeps.SweepResult`,
    :class:`~repro.experiments.fig7_edges.EdgeRemovalResult`) plus
    nested tuples/lists of them.  Determinism checks serialize this
    payload with sorted keys and compare bytes — byte equality of the
    payloads is the definition of "``--workers N`` produced identical
    results".
    """
    from repro.experiments.fig7_edges import EdgeRemovalResult
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.sweeps import SweepResult

    if isinstance(result, ExperimentResult):
        return {
            "kind": "experiment",
            "rates": {o.method: list(o.rates) for o in result.outcomes},
        }
    if isinstance(result, SweepResult):
        return {
            "kind": "sweep",
            "parameter": result.parameter,
            "values": list(result.values),
            "points": [result_payload(r) for r in result.results],
        }
    if isinstance(result, EdgeRemovalResult):
        return {
            "kind": "edge-removal",
            "ratios": list(result.ratios),
            "series": {m: list(v) for m, v in result.series.items()},
        }
    if isinstance(result, (tuple, list)):
        return [result_payload(r) for r in result]
    return result


# ----------------------------------------------------------------------
# Ambient-engine plumbing (mirrors checkpointing()/collecting()).
# ----------------------------------------------------------------------
_ACTIVE_ENGINES: List[ExecutionEngine] = []


def active_engine() -> Optional[ExecutionEngine]:
    """The innermost engine activated by :func:`executing`, if any."""
    return _ACTIVE_ENGINES[-1] if _ACTIVE_ENGINES else None


@contextmanager
def executing(engine: ExecutionEngine) -> Iterator[ExecutionEngine]:
    """Make *engine* ambient for every ``run_experiment`` in the block.

    Sweep drivers call :func:`repro.experiments.runner.run_experiment`
    internally with no engine parameter; wrapping the sweep in
    ``executing`` parallelizes every trial they run without threading
    the engine through each call signature.  The engine's pool is left
    alive on exit (the engine is reusable); call :meth:`close` or use
    the engine itself as a context manager to tear it down.
    """
    _ACTIVE_ENGINES.append(engine)
    try:
        yield engine
    finally:
        popped = _ACTIVE_ENGINES.pop()
        assert popped is engine, "executing stack corrupted"
