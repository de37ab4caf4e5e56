"""Command-line interface.

Examples::

    repro list
    repro solve --topology waxman --method conflict_free --seed 42
    repro experiment fig5 --networks 5 --seed 7
    repro experiment headline --networks 3 --checkpoint out.jsonl --resume

Exit codes are distinct per failure class so scripts can branch on
them: ``0`` success, ``1`` generic failure, ``2`` invalid input
(:class:`~repro.utils.validation.ValidationError` / bad arguments),
``3`` solver failure (unknown solver, solver crash or timeout), ``4``
verification failure (a produced solution violated a MUERP invariant).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.ascii_plot import log_bar_chart
from repro.core.registry import (
    CAPACITY_EXEMPT_METHODS,
    SOLVERS,
    SolveTimeout,
    UnknownSolverError,
    solve,
    solve_robust,
)
from repro.core.tree import validate_solution
from repro.experiments.catalog import EXPERIMENTS, run_named
from repro.experiments.config import ExperimentConfig
from repro.topology.base import TopologyConfig
from repro.topology.registry import GENERATORS, generate
from repro.utils.validation import ValidationError

#: Process exit codes, one per failure class (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_VERIFICATION_ERROR = 4
#: Conventional 128+SIGINT: the run was interrupted; progress report
#: (including unflushed trials) was printed before exiting.
EXIT_INTERRUPTED = 130


def _obs_parent() -> argparse.ArgumentParser:
    """Shared ``--metrics``/``--trace`` flags for every subcommand.

    The same options exist on the top-level parser (with real
    defaults); the per-subcommand copies use ``argparse.SUPPRESS`` so
    ``repro --metrics m.json solve`` and ``repro solve --metrics
    m.json`` both work, with the subcommand position winning.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="write solver/runtime metrics to FILE after the command",
    )
    parent.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default=argparse.SUPPRESS,
        help="metrics file format (default json; prom = Prometheus text)",
    )
    parent.add_argument(
        "--trace",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="write spans as JSONL to FILE after the command",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-user entanglement routing over quantum internets "
            "(ICDCS 2024 reproduction)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write solver/runtime metrics to FILE after the command",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="metrics file format (default json; prom = Prometheus text)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write spans as JSONL to FILE after the command",
    )
    obs_parent = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list solvers, topologies and experiments",
        parents=[obs_parent],
    )

    solve_parser = sub.add_parser(
        "solve",
        help="generate one network and route it",
        parents=[obs_parent],
    )
    solve_parser.add_argument("--topology", default="waxman")
    solve_parser.add_argument("--method", default="conflict_free")
    solve_parser.add_argument("--switches", type=int, default=50)
    solve_parser.add_argument("--users", type=int, default=10)
    solve_parser.add_argument("--degree", type=float, default=6.0)
    solve_parser.add_argument("--qubits", type=int, default=4)
    solve_parser.add_argument("--swap-prob", type=float, default=0.9)
    solve_parser.add_argument("--seed", type=int, default=7)
    solve_parser.add_argument(
        "--show-channels", action="store_true", help="print channel paths"
    )
    solve_parser.add_argument(
        "--robust",
        action="store_true",
        help=(
            "solve through the verified fallback chain "
            "(watchdog + independent verifier) and print the audit"
        ),
    )
    solve_parser.add_argument(
        "--fallback",
        action="append",
        default=None,
        metavar="METHOD",
        help="extra solver tried when --method fails (repeatable; "
        "implies --robust semantics only when --robust is given)",
    )

    obs_parser = sub.add_parser(
        "obs",
        help="run an instrumented demo solve and print its metrics",
        parents=[obs_parent],
    )
    obs_parser.add_argument("--topology", default="waxman")
    obs_parser.add_argument("--method", default="conflict_free")
    obs_parser.add_argument("--switches", type=int, default=40)
    obs_parser.add_argument("--users", type=int, default=8)
    obs_parser.add_argument("--degree", type=float, default=6.0)
    obs_parser.add_argument("--qubits", type=int, default=4)
    obs_parser.add_argument("--seed", type=int, default=7)
    obs_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="stdout format for the metric snapshot",
    )

    experiment_parser = sub.add_parser(
        "experiment",
        help="run a named experiment (fig5, fig6a, …)",
        parents=[obs_parent],
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument(
        "--networks", type=int, default=20, help="random networks per point"
    )
    experiment_parser.add_argument("--seed", type=int, default=7)
    experiment_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a Markdown section instead of a text table",
    )
    experiment_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL file receiving one atomic record per finished trial",
    )
    experiment_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already recorded in --checkpoint "
        "(losslessly continues a killed run)",
    )
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard trials over N processes via the execution engine "
        "(results are byte-identical for every N; N=1 runs the "
        "engine's serial backend with channel caching on)",
    )
    experiment_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the channel-computation cache inside the engine "
        "(only meaningful with --workers)",
    )

    exec_parser = sub.add_parser(
        "exec",
        help="run a named experiment through the parallel execution "
        "engine and report shard/cache statistics",
        parents=[obs_parent],
    )
    exec_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    exec_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = in-process serial backend)",
    )
    exec_parser.add_argument(
        "--networks", type=int, default=20, help="random networks per point"
    )
    exec_parser.add_argument("--seed", type=int, default=7)
    exec_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the channel-computation cache",
    )
    exec_parser.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        metavar="N",
        help="LRU bound on cached channel searches (per process)",
    )
    exec_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help="also run serially (1 worker, no cache) and fail unless "
        "the results are byte-identical",
    )
    exec_parser.add_argument(
        "--chaos",
        action="store_true",
        help="chaos soak: deterministically inject worker kills, hangs "
        "and checkpoint truncation mid-sweep and let the shard "
        "supervisor recover (requires --workers >= 2)",
    )
    exec_parser.add_argument(
        "--chaos-kills",
        type=int,
        default=3,
        metavar="N",
        help="worker-kill budget for --chaos (default 3)",
    )
    exec_parser.add_argument(
        "--chaos-hangs",
        type=int,
        default=1,
        metavar="N",
        help="worker-hang budget for --chaos (default 1)",
    )
    exec_parser.add_argument(
        "--chaos-truncations",
        type=int,
        default=1,
        metavar="N",
        help="shard-checkpoint truncation budget for --chaos (default 1)",
    )
    exec_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="shuffle seed for the chaos action order (default 0)",
    )
    exec_parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervisor hang watchdog: recycle the pool when a shard "
        "makes no progress for this long (default 120; 2 under --chaos)",
    )

    stats_parser = sub.add_parser(
        "stats",
        help="generate one network and print its topology stats",
        parents=[obs_parent],
    )
    stats_parser.add_argument("--topology", default="waxman")
    stats_parser.add_argument("--switches", type=int, default=50)
    stats_parser.add_argument("--users", type=int, default=10)
    stats_parser.add_argument("--degree", type=float, default=6.0)
    stats_parser.add_argument("--seed", type=int, default=7)

    montecarlo_parser = sub.add_parser(
        "montecarlo",
        help="validate a routed tree's rate by simulation",
        parents=[obs_parent],
    )
    montecarlo_parser.add_argument("--topology", default="waxman")
    montecarlo_parser.add_argument("--method", default="conflict_free")
    montecarlo_parser.add_argument("--switches", type=int, default=50)
    montecarlo_parser.add_argument("--users", type=int, default=10)
    montecarlo_parser.add_argument("--trials", type=int, default=100_000)
    montecarlo_parser.add_argument("--seed", type=int, default=7)

    resilience_parser = sub.add_parser(
        "resilience",
        help="run a chaos scenario: online service under injected faults",
        parents=[obs_parent],
    )
    resilience_parser.add_argument("--topology", default="waxman")
    resilience_parser.add_argument(
        "--method", default="prim", choices=("prim", "conflict_free")
    )
    resilience_parser.add_argument("--switches", type=int, default=40)
    resilience_parser.add_argument("--users", type=int, default=10)
    resilience_parser.add_argument("--qubits", type=int, default=4)
    resilience_parser.add_argument(
        "--faults", type=int, default=10, help="fault events to inject"
    )
    resilience_parser.add_argument(
        "--horizon", type=int, default=40, help="arrival/fault horizon (slots)"
    )
    resilience_parser.add_argument(
        "--arrival-rate", type=float, default=0.6, help="requests per slot"
    )
    resilience_parser.add_argument(
        "--retry",
        default="backoff",
        choices=("none", "fixed", "backoff"),
        help="retry policy pacing blocked requests",
    )
    resilience_parser.add_argument(
        "--no-degradation",
        action="store_true",
        help="abandon faulted requests instead of serving user subsets",
    )
    resilience_parser.add_argument("--seed", type=int, default=7)
    resilience_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run the scenario twice and fail unless reports are identical",
    )

    admit_parser = sub.add_parser(
        "admit",
        help="overload demo: online serving behind admission control",
        parents=[obs_parent],
    )
    admit_parser.add_argument("--topology", default="waxman")
    admit_parser.add_argument(
        "--method", default="prim", choices=("prim", "conflict_free")
    )
    admit_parser.add_argument("--switches", type=int, default=40)
    admit_parser.add_argument("--users", type=int, default=10)
    admit_parser.add_argument("--qubits", type=int, default=4)
    admit_parser.add_argument(
        "--horizon", type=int, default=40, help="arrival horizon (slots)"
    )
    admit_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=3.0,
        help="requests per slot (crank this up to overload the network)",
    )
    admit_parser.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="tenant labels for per-tenant rate limiting (0 = untenanted)",
    )
    admit_parser.add_argument(
        "--max-wait", type=int, default=5, help="blocked-request patience"
    )
    admit_parser.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="token-bucket refill per tenant per slot",
    )
    admit_parser.add_argument(
        "--burst", type=float, default=4.0, help="token-bucket capacity"
    )
    admit_parser.add_argument(
        "--bulkhead",
        type=int,
        default=32,
        help="max in-system requests per tenant",
    )
    admit_parser.add_argument(
        "--queue-size", type=int, default=8, help="admission queue bound"
    )
    admit_parser.add_argument(
        "--shed-policy",
        default="drop-newest",
        choices=(
            "drop-newest",
            "drop-oldest",
            "deadline-aware",
            "lowest-rate-first",
        ),
        help="victim selection when the admission queue is full",
    )
    admit_parser.add_argument("--seed", type=int, default=7)
    admit_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the no-admission comparison run",
    )
    admit_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help=(
            "run the scenario twice and fail unless reports and "
            "admission stats are byte-identical"
        ),
    )

    incremental_parser = sub.add_parser(
        "incremental",
        help=(
            "delta-aware routing demo: replay a churn stream "
            "incrementally and against the from-scratch reference"
        ),
        parents=[obs_parent],
    )
    incremental_parser.add_argument("--topology", default="waxman")
    incremental_parser.add_argument(
        "--method", default="prim", choices=("prim", "conflict_free")
    )
    incremental_parser.add_argument("--switches", type=int, default=40)
    incremental_parser.add_argument("--users", type=int, default=8)
    incremental_parser.add_argument("--qubits", type=int, default=4)
    incremental_parser.add_argument(
        "--events", type=int, default=60, help="churn events to generate"
    )
    incremental_parser.add_argument(
        "--fault-mix",
        default="0.5,0.2,0.3",
        help=(
            "comma-separated weights over fiber, switch, capacity "
            "event families (default 0.5,0.2,0.3)"
        ),
    )
    incremental_parser.add_argument(
        "--radius",
        type=int,
        default=2,
        help="fiber-hop radius of the splice search region",
    )
    incremental_parser.add_argument(
        "--scope",
        default="region",
        choices=("region", "fingerprint"),
        help="cache-invalidation scope for structural events",
    )
    incremental_parser.add_argument("--seed", type=int, default=7)
    incremental_parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="skip the from-scratch reference run (no equivalence check)",
    )
    incremental_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help=(
            "replay the incremental run twice and fail unless the "
            "aggregate digests are byte-identical"
        ),
    )

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "multi-tenant demo: SLO-guarded serving with k-redundant "
            "trees, weighted-fair shedding and chaos faults"
        ),
        parents=[obs_parent],
    )
    serve_parser.add_argument("--topology", default="waxman")
    serve_parser.add_argument(
        "--method", default="prim", choices=("prim", "conflict_free")
    )
    serve_parser.add_argument("--switches", type=int, default=25)
    serve_parser.add_argument("--users", type=int, default=10)
    serve_parser.add_argument("--qubits", type=int, default=4)
    serve_parser.add_argument(
        "--horizon", type=int, default=48, help="arrival horizon (slots)"
    )
    serve_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=2.0,
        help="mean requests per slot (Poisson)",
    )
    serve_parser.add_argument(
        "--tenants", type=int, default=4, help="number of tenant labels"
    )
    serve_parser.add_argument(
        "--tenant-skew",
        type=float,
        default=1.1,
        help="Zipf exponent over tenant popularity (0 = uniform)",
    )
    serve_parser.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.5,
        help="sinusoidal load swing in [0, 1] (0 = flat rate)",
    )
    serve_parser.add_argument(
        "--diurnal-period",
        type=int,
        default=24,
        help="slots per diurnal cycle",
    )
    serve_parser.add_argument(
        "--max-wait", type=int, default=5, help="blocked-request patience"
    )
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="trees reserved per admitted group (k-redundancy; 1 = off)",
    )
    serve_parser.add_argument(
        "--faults",
        type=int,
        default=12,
        help="chaos faults injected over the horizon (0 = no chaos)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="token-bucket refill per tenant per slot",
    )
    serve_parser.add_argument(
        "--burst", type=float, default=4.0, help="token-bucket capacity"
    )
    serve_parser.add_argument(
        "--bulkhead",
        type=int,
        default=32,
        help="max in-system requests per tenant",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=16, help="admission queue bound"
    )
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full serving summary as JSON instead of the table",
    )
    serve_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help=(
            "run the scenario twice and fail unless the serving "
            "summaries are byte-identical"
        ),
    )

    bounds_parser = sub.add_parser(
        "bounds",
        help=(
            "certify one network: LP relaxation bound, per-method "
            "optimality gaps and the rounding-based solver"
        ),
        parents=[obs_parent],
    )
    bounds_parser.add_argument("--topology", default="waxman")
    bounds_parser.add_argument("--switches", type=int, default=50)
    bounds_parser.add_argument("--users", type=int, default=10)
    bounds_parser.add_argument("--degree", type=float, default=6.0)
    bounds_parser.add_argument("--qubits", type=int, default=4)
    bounds_parser.add_argument("--swap-prob", type=float, default=0.9)
    bounds_parser.add_argument("--seed", type=int, default=7)
    bounds_parser.add_argument(
        "--backend",
        choices=("auto", "simplex", "scipy"),
        default="auto",
        help="LP backend (auto prefers scipy when installed)",
    )
    bounds_parser.add_argument(
        "--method",
        action="append",
        default=None,
        metavar="METHOD",
        help="solver to gap against the bound (repeatable; default "
        "conflict_free, prim, lp_rounding)",
    )
    bounds_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the certificate and gaps as JSON instead of a table",
    )
    bounds_parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help=(
            "solve the relaxation and the rounding solver twice and "
            "fail unless certificates and trees are byte-identical"
        ),
    )

    return parser


def _command_list() -> int:
    print("solvers:     ", ", ".join(sorted(SOLVERS)))
    print("topologies:  ", ", ".join(sorted(GENERATORS)))
    print("experiments: ", ", ".join(sorted(EXPERIMENTS)))
    return 0


def _command_solve(args: argparse.Namespace) -> int:
    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        avg_degree=args.degree,
        qubits_per_switch=args.qubits,
        swap_prob=args.swap_prob,
    )
    network = generate(args.topology, config, rng=args.seed)
    if args.robust:
        chain = (args.method,) + tuple(
            m for m in (args.fallback or ()) if m != args.method
        )
        result = solve_robust(
            network, rng=args.seed, chain=chain, timeout_s=60.0
        )
        solution = result.solution
        print(network)
        print(solution)
        print(result.audit.render())
        if not result.audit.succeeded and any(
            a.status == "invalid" for a in result.audit.attempts
        ):
            return EXIT_VERIFICATION_ERROR
        if solution.feasible and args.show_channels:
            for channel in solution.channels:
                print(f"  {channel}")
        return EXIT_OK
    solution = solve(args.method, network, rng=args.seed)
    report = validate_solution(
        network,
        solution,
        enforce_capacity=args.method not in CAPACITY_EXEMPT_METHODS,
    )
    print(network)
    print(solution)
    if not report.ok:
        print(report)
        return EXIT_VERIFICATION_ERROR
    if solution.feasible and args.show_channels:
        for channel in solution.channels:
            print(f"  {channel}")
    return EXIT_OK


def _command_obs(args: argparse.Namespace) -> int:
    """Instrumented demo: robust-solve one network, print the metrics.

    The metric snapshot goes to stdout (pipe it straight into a file or
    a scrape target); the network/solution summary goes to stderr.
    """
    import json

    import repro.obs as obs

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        avg_degree=args.degree,
        qubits_per_switch=args.qubits,
    )
    network = generate(args.topology, config, rng=args.seed)
    result = solve_robust(
        network, rng=args.seed, chain=(args.method,), timeout_s=60.0
    )
    print(network, file=sys.stderr)
    print(result.solution, file=sys.stderr)
    registry = obs.active()
    if registry is None:  # pragma: no cover - main() always enables here
        print("metrics collection inactive", file=sys.stderr)
        return EXIT_FAILURE
    if args.format == "prom":
        print(obs.render_prometheus(registry), end="")
    else:
        print(json.dumps(registry.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _command_stats(args: argparse.Namespace) -> int:
    from repro.network.statistics import degree_histogram, topology_stats

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        avg_degree=args.degree,
    )
    network = generate(args.topology, config, rng=args.seed)
    stats = topology_stats(network)
    print(network)
    print(stats.describe())
    print("degree histogram:")
    for degree, count in sorted(degree_histogram(network).items()):
        print(f"  {degree:3d}: {'#' * count} ({count})")
    return 0


def _command_montecarlo(args: argparse.Namespace) -> int:
    from repro.sim.protocol import simulate_solution

    config = TopologyConfig(
        n_switches=args.switches, n_users=args.users
    )
    network = generate(args.topology, config, rng=args.seed)
    solution = solve(args.method, network, rng=args.seed)
    print(network)
    print(solution)
    if not solution.feasible:
        print("infeasible; nothing to simulate")
        return 1
    result = simulate_solution(
        network, solution, trials=args.trials, rng=args.seed
    )
    low, high = result.confidence_interval()
    print(
        f"analytic rate (Eq.2): {result.analytic_rate:.6e}\n"
        f"empirical rate:       {result.empirical_rate:.6e} "
        f"(95% CI [{low:.3e}, {high:.3e}], {args.trials} trials)\n"
        f"consistent:           {'yes' if result.consistent else 'NO'}"
    )
    return 0 if result.consistent else 1


def _command_resilience(args: argparse.Namespace) -> int:
    from repro.resilience import (
        ExponentialBackoffPolicy,
        FaultInjector,
        FixedRetryPolicy,
        random_schedule,
    )
    from repro.sim.online import OnlineScheduler
    from repro.sim.workload import WorkloadSpec, generate_workload

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        qubits_per_switch=args.qubits,
    )
    network = generate(args.topology, config, rng=args.seed)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=5,
    )

    def one_run():
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        schedule = random_schedule(
            network, args.faults, args.horizon, rng=args.seed + 2
        )
        injector = FaultInjector(schedule, network)
        if args.retry == "fixed":
            policy = FixedRetryPolicy(delay=1, max_attempts=8)
        elif args.retry == "backoff":
            policy = ExponentialBackoffPolicy(
                base_delay=1,
                factor=2.0,
                max_delay=8,
                max_attempts=8,
                jitter=0.25,
                rng=args.seed + 3,
            )
        else:
            policy = None
        scheduler = OnlineScheduler(
            network,
            method=args.method,
            rng=args.seed,
            fault_injector=injector,
            retry_policy=policy,
            allow_degradation=not args.no_degradation,
        )
        return scheduler.run(requests), requests

    result, requests = one_run()
    report = result.resilience
    print(network)
    print(
        f"workload: {len(requests)} requests over {args.horizon} slots, "
        f"{args.faults} faults scheduled"
    )
    print(
        f"acceptance: {result.n_accepted}/{len(result.outcomes)} "
        f"({result.acceptance_ratio:.1%}), {result.n_degraded} degraded"
    )
    print(report.render())
    overbooked = [
        s
        for s, peak in result.peak_qubit_usage.items()
        if peak > (network.qubits_of(s) or 0)
    ]
    print(f"capacity overbooked: {'YES ' + repr(overbooked) if overbooked else 'no'}")
    if overbooked:
        return 1
    if args.verify_determinism:
        second, _ = one_run()
        if second.resilience.to_dict() != report.to_dict():
            print("determinism check: FAILED (reports differ)")
            return 1
        print("determinism check: ok (identical reports)")
    return 0


def _command_admit(args: argparse.Namespace) -> int:
    """Overload demo: one hot workload, with and without admission."""
    import json

    from repro.admission import AdmissionController
    from repro.sim.online import OnlineScheduler
    from repro.sim.workload import WorkloadSpec, generate_workload

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        qubits_per_switch=args.qubits,
    )
    network = generate(args.topology, config, rng=args.seed)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=args.max_wait,
        n_tenants=args.tenants,
    )

    def one_run(with_admission: bool):
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        admission = None
        if with_admission:
            admission = AdmissionController.default(
                network,
                rate=args.rate,
                burst=args.burst,
                bulkhead=args.bulkhead,
                queue_size=args.queue_size,
                shed_policy=args.shed_policy,
            )
        scheduler = OnlineScheduler(
            network,
            method=args.method,
            rng=args.seed,
            admission=admission,
        )
        return scheduler.run(requests), requests

    result, requests = one_run(with_admission=True)
    print(network)
    print(
        f"workload: {len(requests)} requests over {args.horizon} slots "
        f"({args.arrival_rate} req/slot, {args.tenants} tenant(s))"
    )
    print(
        f"acceptance: {result.n_accepted}/{len(result.outcomes)} "
        f"({result.acceptance_ratio:.1%}), "
        f"{result.n_degraded} degraded, {result.n_shed} shed"
    )
    print("admission stats:")
    print(json.dumps(result.admission, indent=2, sort_keys=True))

    # Safety gates the overload scenario must hold:
    overbooked = [
        s
        for s, peak in result.peak_qubit_usage.items()
        if peak > (network.qubits_of(s) or 0)
    ]
    print(
        "capacity overbooked: "
        f"{'YES ' + repr(overbooked) if overbooked else 'no'}"
    )
    report = result.resilience
    unattributed = [
        r.name for r in requests if r.name not in report.dispositions
    ]
    print(
        "unattributed requests: "
        f"{'YES ' + repr(unattributed) if unattributed else 'none'}"
    )
    if overbooked or unattributed:
        return EXIT_FAILURE

    if not args.no_baseline:
        baseline, _ = one_run(with_admission=False)
        print(
            f"baseline (no admission): {baseline.n_accepted}/"
            f"{len(baseline.outcomes)} accepted "
            f"({baseline.acceptance_ratio:.1%})"
        )
    if args.verify_determinism:
        second, _ = one_run(with_admission=True)
        same = (
            second.resilience.to_dict() == report.to_dict()
            and json.dumps(second.admission, sort_keys=True, default=repr)
            == json.dumps(result.admission, sort_keys=True, default=repr)
        )
        if not same:
            print("determinism check: FAILED (reports differ)")
            return EXIT_FAILURE
        print("determinism check: ok (identical shed decisions)")
    return EXIT_OK


def _command_serve(args: argparse.Namespace) -> int:
    """Multi-tenant demo: SLO-guarded serving over redundant trees."""
    import json

    from repro.resilience.faults import FaultInjector, random_schedule
    from repro.sim.workload import WorkloadSpec, generate_workload
    from repro.tenancy import ReplicationPolicy, serve_tenants

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        qubits_per_switch=args.qubits,
    )
    network = generate(args.topology, config, rng=args.seed)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=args.max_wait,
        n_tenants=args.tenants,
        tenant_skew=args.tenant_skew,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period=args.diurnal_period,
    )

    def one_run():
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        injector = None
        if args.faults > 0:
            schedule = random_schedule(
                network,
                n_faults=args.faults,
                horizon=args.horizon,
                rng=args.seed + 2,
            )
            injector = FaultInjector(schedule, network)
        served = serve_tenants(
            network,
            requests,
            method=args.method,
            rng=args.seed,
            replication=ReplicationPolicy(k=max(1, args.replicas)),
            fault_injector=injector,
            rate=args.rate,
            burst=args.burst,
            bulkhead=args.bulkhead,
            queue_size=args.queue_size,
        )
        return served, requests

    served, requests = one_run()
    summary = served.to_dict()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=repr))
    else:
        print(network)
        print(
            f"workload: {len(requests)} requests over {args.horizon} "
            f"slots ({args.arrival_rate} req/slot, {args.tenants} "
            f"tenant(s), skew {args.tenant_skew})"
        )
        print(served.render())

    # Safety gates the multi-tenant scenario must hold:
    overbooked = served.overbooked_switches(network)
    print(
        "capacity overbooked: "
        f"{'YES ' + repr(overbooked) if overbooked else 'no'}"
    )
    unattributed = served.unattributed()
    print(
        "unattributed requests: "
        f"{'YES ' + repr(unattributed) if unattributed else 'none'}"
    )
    if overbooked or unattributed:
        return EXIT_VERIFICATION_ERROR

    if args.verify_determinism:
        second, _ = one_run()
        same = json.dumps(
            second.to_dict(), sort_keys=True, default=repr
        ) == json.dumps(summary, sort_keys=True, default=repr)
        if not same:
            print("determinism check: FAILED (serving summaries differ)")
            return EXIT_FAILURE
        print("determinism check: ok (identical serving summaries)")
    return EXIT_OK


def _command_experiment(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.experiments.checkpoint import CheckpointStore, checkpointing

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    scope = nullcontext()
    if args.checkpoint:
        import os

        if not args.resume and os.path.exists(args.checkpoint):
            # A fresh (non-resume) run must not silently blend with a
            # previous run's records.
            os.unlink(args.checkpoint)
        store = CheckpointStore(args.checkpoint)
        if args.resume and len(store):
            print(f"resuming: {len(store)} trial(s) already checkpointed")
        scope = checkpointing(store)
    base = ExperimentConfig(n_networks=args.networks, seed=args.seed)
    engine = None
    engine_cm = nullcontext()
    engine_scope = nullcontext()
    if args.workers is not None:
        # Explicit --workers (including 1) routes through the execution
        # engine: N>1 shards trials over a process pool, N=1 runs the
        # serial backend; both enable channel caching unless --no-cache.
        # The engine itself is a context manager: leaving it joins the
        # worker pool, so no executor outlives the command.
        from repro.exec.engine import ExecutionEngine, executing

        engine_cm = engine = ExecutionEngine(
            workers=args.workers, use_cache=not args.no_cache
        )
        engine_scope = executing(engine)
    try:
        with scope, engine_cm, engine_scope:
            result = run_named(args.name, base)
    except KeyboardInterrupt:
        # Tell --resume users exactly what state was kept: checkpointed
        # trials resume for free, unflushed ones re-run.
        print()
        if engine is not None:
            print(f"interrupted: {engine.stats.describe()}", file=sys.stderr)
            if engine.stats.unflushed_trials:
                print(
                    f"unflushed trial(s) {engine.stats.unflushed_trials} "
                    "had no checkpoint on disk and will re-run on "
                    "--resume",
                    file=sys.stderr,
                )
        else:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    if args.markdown:
        from repro.analysis import report
        from repro.experiments.sweeps import SweepResult
        from repro.experiments.fig7_edges import EdgeRemovalResult

        if isinstance(result, SweepResult):
            print(report.sweep_markdown(result, f"experiment {args.name}"))
        elif isinstance(result, EdgeRemovalResult):
            print(report.edge_removal_markdown(result, f"experiment {args.name}"))
        elif hasattr(result, "to_table"):
            print(result.to_table(title=f"experiment {args.name}").render())
        return 0
    if hasattr(result, "to_table"):
        print(result.to_table(title=f"experiment {args.name}").render())
    else:  # pragma: no cover - all catalogue entries render tables
        print(result)
    # Bonus: a terminal log-scale chart for single-point summaries.
    if hasattr(result, "results") and result.results:
        last = result.results[-1]
        chart = log_bar_chart(
            {o.display: o.mean_rate for o in last.outcomes},
            title=f"(last swept point: {result.parameter}={result.values[-1]})",
        )
        print()
        print(chart)
    return 0


def _command_exec(args: argparse.Namespace) -> int:
    import json
    import tempfile
    import time as _time
    from contextlib import ExitStack

    from repro.exec.engine import ExecutionEngine, executing, result_payload
    from repro.exec.shard import ShardPlan

    base = ExperimentConfig(n_networks=args.networks, seed=args.seed)
    plan = ShardPlan.build(args.networks, args.workers)
    print(f"experiment {args.name}: shard plan {plan.describe()}")

    chaos = None
    supervision = None
    if args.chaos:
        if args.workers < 2:
            print(
                "--chaos needs the process backend: use --workers >= 2",
                file=sys.stderr,
            )
            return EXIT_VALIDATION_ERROR
        from repro.exec.chaos import ChaosInjector
        from repro.exec.supervisor import SupervisionPolicy

        hang_timeout = (
            args.hang_timeout if args.hang_timeout is not None else 2.0
        )
        # Tight backoff so the soak exercises recovery, not sleep.
        supervision = SupervisionPolicy(
            hang_timeout_s=hang_timeout, backoff_unit_s=0.05
        )
        chaos = ChaosInjector(
            kills=args.chaos_kills,
            hangs=args.chaos_hangs,
            truncations=args.chaos_truncations,
            seed=args.chaos_seed,
            hang_sleep_s=max(30.0, hang_timeout * 10),
        )
        print(
            f"chaos soak: budget {args.chaos_kills} kill(s), "
            f"{args.chaos_hangs} hang(s), {args.chaos_truncations} "
            f"truncation(s); hang watchdog {hang_timeout}s"
        )
    elif args.hang_timeout is not None:
        from repro.exec.supervisor import SupervisionPolicy

        supervision = SupervisionPolicy(hang_timeout_s=args.hang_timeout)

    engine = ExecutionEngine(
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_size=args.cache_size,
        supervision=supervision,
        chaos=chaos,
    )
    started = _time.perf_counter()
    try:
        with ExitStack() as stack:
            if args.chaos and args.chaos_truncations > 0:
                # Truncation injection needs shard checkpoint files to
                # tear; give the soak an ephemeral store.
                from repro.experiments.checkpoint import (
                    CheckpointStore,
                    checkpointing,
                )

                chaos_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-chaos-")
                )
                stack.enter_context(
                    checkpointing(
                        CheckpointStore(f"{chaos_dir}/chaos-soak.jsonl")
                    )
                )
            stack.enter_context(engine)
            stack.enter_context(executing(engine))
            result = run_named(args.name, base)
    except KeyboardInterrupt:
        print()
        print(f"interrupted: {engine.stats.describe()}", file=sys.stderr)
        if engine.stats.unflushed_trials:
            print(
                f"unflushed trial(s) {engine.stats.unflushed_trials} had "
                "no checkpoint on disk and will re-run on --resume",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    elapsed = _time.perf_counter() - started

    if hasattr(result, "to_table"):
        print(result.to_table(title=f"experiment {args.name}").render())
    print()
    print(f"wall time: {elapsed:.2f}s with {args.workers} worker(s)")
    print(f"engine: {engine.stats.describe()}")
    if not engine.report.clean or args.chaos:
        print(engine.report.render())
    if chaos is not None:
        print(chaos.summary())

    if args.verify_determinism:
        reference_engine = ExecutionEngine(workers=1, use_cache=False)
        with reference_engine, executing(reference_engine):
            reference = run_named(args.name, base)
        canonical = lambda r: json.dumps(  # noqa: E731
            result_payload(r), sort_keys=True
        )
        if canonical(result) != canonical(reference):
            print(
                "determinism check FAILED: parallel result diverges "
                "from the serial reference",
                file=sys.stderr,
            )
            return EXIT_VERIFICATION_ERROR
        print("determinism check: ok (byte-identical to serial run)")
    return EXIT_OK


def _command_incremental(args: argparse.Namespace) -> int:
    """Churn replay: incremental engine vs the from-scratch reference.

    The two modes run the same maintenance policy over the same seeded
    event stream (:func:`repro.sim.workload.generate_churn`); their
    aggregate digests must be byte-identical — a mismatch exits with
    ``EXIT_VERIFICATION_ERROR``, exactly like a failed solution audit.
    """
    from repro.exec import cache as exec_cache
    from repro.incremental import IncrementalRouter, tracking
    from repro.sim.workload import ChurnSpec, generate_churn

    try:
        mix = tuple(float(w) for w in args.fault_mix.split(","))
        spec = ChurnSpec(n_faults=args.events, fault_mix=mix)
    except ValueError as exc:
        print(f"bad --fault-mix / --events: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        qubits_per_switch=args.qubits,
    )

    def one_run(mode: str):
        network = generate(args.topology, config, rng=args.seed)
        users = tuple(sorted(network.user_ids, key=repr))
        events = generate_churn(network, spec, rng=args.seed + 1)
        if mode == "from_scratch":
            router = IncrementalRouter(
                network,
                users=users,
                method=args.method,
                seed=args.seed,
                mode=mode,
                radius=args.radius,
            )
            router.run(events)
            return router, None
        cache = exec_cache.ChannelCache()
        with exec_cache.caching(cache), tracking(
            scope=args.scope, radius=args.radius
        ):
            router = IncrementalRouter(
                network,
                users=users,
                method=args.method,
                seed=args.seed,
                mode="incremental",
                radius=args.radius,
            )
            router.run(events)
        return router, cache

    inc, cache = one_run("incremental")
    print(
        f"incremental: {len(inc.outcomes)} events applied, "
        f"final tree {'feasible' if inc.solution.feasible else 'INFEASIBLE'} "
        f"({inc.solution.method})"
    )
    for name in sorted(inc.counters):
        print(f"  {name}: {inc.counters[name]}")
    if cache is not None:
        stats = cache.stats()
        print(
            f"  cache: {stats.hits} hits / {stats.misses} misses, "
            f"{stats.invalidations} invalidations "
            f"{stats.invalidations_by_cause}"
        )
    print(f"digest: {inc.digest()}")

    if not args.skip_baseline:
        ref, _ = one_run("from_scratch")
        if ref.digest() != inc.digest():
            print(
                "equivalence check: FAILED (incremental and from-scratch "
                "aggregates differ)"
            )
            return EXIT_VERIFICATION_ERROR
        print("equivalence check: ok (byte-identical aggregates)")
    if args.verify_determinism:
        again, _ = one_run("incremental")
        if again.digest() != inc.digest():
            print("determinism check: FAILED (replay digest differs)")
            return EXIT_VERIFICATION_ERROR
        print("determinism check: ok (identical replay)")
    return EXIT_OK


def _command_bounds(args: argparse.Namespace) -> int:
    """Certify one network and gap the requested solvers against it.

    Runs every ``--method`` (default conflict_free, prim and the
    LP-rounding solver) and verifies each tree (capacity enforced
    unless the method is exempt), then takes the network's bounds from
    :func:`repro.bounds.gap.trial_bounds`: Algorithm 2's rate is the
    uncapacitated bound, and the capacitated LP runs only when no
    capacity-aware method reached it.  An invalid tree, or a solver
    beating its certified bound, exits with ``EXIT_VERIFICATION_ERROR`` — that is a library
    bug, never a legitimate outcome.  ``--verify-determinism`` re-solves
    the relaxation and the rounding and fails the same way unless
    byte-identical.
    """
    import dataclasses
    import json

    from repro.bounds.gap import SOUNDNESS_TOLERANCE, gap_percent, trial_bounds
    from repro.bounds.lp import solve_relaxation
    from repro.bounds.rounding import solve_lp_rounding

    try:
        from repro.bounds.lp import _resolve_backend

        _resolve_backend(args.backend)
    except ImportError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    config = TopologyConfig(
        n_switches=args.switches,
        n_users=args.users,
        avg_degree=args.degree,
        qubits_per_switch=args.qubits,
        swap_prob=args.swap_prob,
    )
    network = generate(args.topology, config, rng=args.seed)
    methods = tuple(args.method or ("conflict_free", "prim", "lp_rounding"))
    solved = []
    for method in methods:
        solution = solve(method, network, rng=args.seed)
        # Only a verified tree may certify the trial optimal: a
        # capacity-violating tree at Algorithm 2's rate would otherwise
        # certify itself.
        report = validate_solution(
            network,
            solution,
            enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
        )
        if not report.ok:
            print(f"{method}: {report}", file=sys.stderr)
            return EXIT_VERIFICATION_ERROR
        solved.append((method, solution.rate))
    bounds = trial_bounds(network, dict(solved), backend=args.backend)
    certificate = bounds.certificate

    def _comparable(cert):
        return dataclasses.replace(cert, solve_seconds=0.0)

    if args.verify_determinism:
        first = solve_relaxation(network, backend=args.backend)
        again = solve_relaxation(network, backend=args.backend)
        rounded_a = solve_lp_rounding(
            network, rng=args.seed, backend=args.backend
        )
        rounded_b = solve_lp_rounding(
            network, rng=args.seed, backend=args.backend
        )
        if (
            _comparable(again.certificate) != _comparable(first.certificate)
            or again.columns != first.columns
            or again.values != first.values
            or (
                certificate is not None
                and _comparable(certificate) != _comparable(first.certificate)
            )
        ):
            print("determinism check: FAILED (relaxation differs)")
            return EXIT_VERIFICATION_ERROR
        if (
            rounded_a.channels != rounded_b.channels
            or rounded_a.log_rate != rounded_b.log_rate
        ):
            print("determinism check: FAILED (rounding differs)")
            return EXIT_VERIFICATION_ERROR
        # Keep stdout a single JSON document under --json.
        print(
            "determinism check: ok (identical certificate and tree)",
            file=sys.stderr if args.json else sys.stdout,
        )

    rows = []
    violations = 0
    for method, rate in solved:
        bound = bounds.for_method(method)
        gap = gap_percent(rate, bound)
        if gap < -100.0 * SOUNDNESS_TOLERANCE:
            violations += 1
        rows.append((method, rate, bound, gap))

    if args.json:
        payload = {
            "certified_optimal": bounds.certified_optimal,
            "capacitated_rate_bound": bounds.capacitated,
            "uncapacitated_rate_bound": bounds.uncapacitated,
            "certificate": None if certificate is None else {
                **dataclasses.asdict(certificate),
                "rate_bound": certificate.rate_bound,
                "switch_duals": {
                    repr(k): v
                    for k, v in certificate.switch_duals.items()
                },
            },
            "gaps": [
                {
                    "method": m,
                    "rate": r,
                    "bound": b,
                    "gap_percent": g,
                }
                for m, r, b, g in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(network)
        if certificate is None:
            print(
                "LP bound: not needed (certified optimal: a "
                "capacity-aware method reached Algorithm 2's rate)"
            )
        else:
            print(
                f"LP bound: rate ≤ {certificate.rate_bound:.6e} "
                f"(log {certificate.log_bound:.6f}, backend "
                f"{certificate.backend}, {certificate.rounds} round(s), "
                f"{certificate.pivots} pivot(s), "
                f"{certificate.n_columns} column(s), "
                f"{'converged' if certificate.dual_feasible else 'early stop'})"
            )
        print(f"capacitated bound: rate ≤ {bounds.capacitated:.6e}")
        print(
            f"uncapacitated bound (Algorithm 2): rate ≤ "
            f"{bounds.uncapacitated:.6e}"
        )
        for method, rate, bound_rate, gap in rows:
            print(
                f"  {method:<16} rate {rate:.6e}  gap {gap:6.2f}%"
                + ("  [uncapacitated bound]"
                   if method in CAPACITY_EXEMPT_METHODS else "")
            )
    if violations:
        print(
            f"soundness check: FAILED ({violations} method(s) beat "
            "their certified bound)",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION_ERROR
    return EXIT_OK


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "exec":
        return _command_exec(args)
    if args.command == "solve":
        return _command_solve(args)
    if args.command == "obs":
        return _command_obs(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "montecarlo":
        return _command_montecarlo(args)
    if args.command == "resilience":
        return _command_resilience(args)
    if args.command == "admit":
        return _command_admit(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "incremental":
        return _command_incremental(args)
    if args.command == "bounds":
        return _command_bounds(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Failure classes map to distinct exit codes (module docstring):
    validation → 2, solver → 3, verification → 4.

    ``--metrics FILE`` / ``--trace FILE`` (global or per-subcommand)
    collect observability data around the whole command and write it
    on the way out; the informational notes go to stderr so stdout
    stays byte-identical to an uninstrumented run.
    """
    import repro.obs as obs
    from repro.verify.invariants import InvariantViolation

    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    metrics_format = getattr(args, "metrics_format", "json")
    trace_path = getattr(args, "trace", None)
    collect_metrics = bool(metrics_path) or args.command == "obs"
    registry = obs.enable() if collect_metrics else None
    tracer = obs.enable_tracer() if trace_path else None
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except (UnknownSolverError, SolveTimeout) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except InvariantViolation as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_ERROR
    finally:
        if registry is not None:
            obs.disable()
            if metrics_path:
                if metrics_format == "prom":
                    obs.write_metrics_prometheus(registry, metrics_path)
                else:
                    obs.write_metrics_json(registry, metrics_path)
                print(f"metrics written to {metrics_path}", file=sys.stderr)
        if tracer is not None:
            obs.disable_tracer()
            n_spans = obs.write_trace_jsonl(tracer, trace_path)
            print(
                f"{n_spans} span(s) written to {trace_path}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
