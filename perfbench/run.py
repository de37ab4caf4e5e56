"""Benchmark command: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures untraced for half the time, then runs one traced
pass over the workload's units and reports the per-layer metrics, the
tracing overhead, and writes the spans under ``perfbench/out/``.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is 1 when a correctness check
fails and 2 when the program cannot be imported or run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import spans
from calibration import Calibration
from workloads import WORKLOADS, capturing_solves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-ups timed per untraced run, each in a fresh interpreter except
#: the run's own; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metric name → (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "rate_vs_opt": ("ratio", "higher"),
    "ok_frac": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time the imports and input construction, print the seconds",
    )
    return parser.parse_args(argv)


def import_program(workload) -> float:
    """Import the program from ``src/``; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise ImportError(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    started = time.perf_counter()
    for module in workload.imports:
        importlib.import_module(module)
    imported = Path(sys.modules["repro"].__file__).resolve()
    if src.resolve() not in imported.parents:
        raise ImportError(f"repro imported from {imported}, not from {src}")
    return time.perf_counter() - started


class Measurement:
    """Timed passes over a workload's units.

    Units run in order, cycling, until every unit has run once and
    *seconds* have elapsed.  The first pass's outputs are kept for the
    correctness checks; every later output must digest identically.
    """

    def __init__(self, units) -> None:
        self.units = units
        self.calibration = Calibration()
        self.samples: Dict[str, List[float]] = {u.name: [] for u in units}
        self.outputs: Dict[str, object] = {}
        self.digests: Dict[str, str] = {}
        self.captured: Dict[str, list] = {}
        self.drift: List[str] = []

    def run_unit(self, unit, capture: bool) -> float:
        store: list = []
        scope = capturing_solves(store) if capture else contextlib.nullcontext()
        with scope:
            started = time.perf_counter()
            output = unit.fn()
            elapsed = time.perf_counter() - started
        digest = unit.digest(output)
        if unit.name not in self.digests:
            self.outputs[unit.name] = output
            self.digests[unit.name] = digest
            self.captured[unit.name] = store
        elif digest != self.digests[unit.name]:
            self.drift.append(unit.name)
        return elapsed

    def run(self, seconds: float, capture_first: bool) -> None:
        started = time.perf_counter()
        index = 0
        while True:
            unit = self.units[index % len(self.units)]
            first = index < len(self.units)
            elapsed = self.run_unit(unit, capture_first and first)
            self.samples[unit.name].append(elapsed)
            self.calibration.after_pass(elapsed)
            index += 1
            if (
                index >= len(self.units)
                and time.perf_counter() - started >= seconds
            ):
                return

    def attempted(self) -> int:
        return sum(u.ops * len(self.samples[u.name]) for u in self.units)

    def ops_per_s(self, names=None) -> float:
        """Operations per second of a median pass over the units."""
        chosen = [u for u in self.units if names is None or u.name in names]
        return sum(u.ops for u in chosen) / sum(
            statistics.median(self.samples[u.name]) for u in chosen
        )

    def ops_per_ref_s(self, names=None) -> float:
        """:meth:`ops_per_s` at the calibration kernel's reference speed."""
        return self.ops_per_s(names) * self.calibration.slowdown()


def traced_pass(units, checker: Measurement):
    """One pass over *units* under spans and counters.

    Returns ``(recorder, counters, ops_per_s)``; outputs are digested
    against *checker*'s first pass, so tracing must not change them.
    """
    from repro import obs

    recorder = spans.SpanRecorder()
    elapsed = 0.0
    with obs.collecting() as registry:
        with spans.Patcher(recorder, layers.TARGETS) as patcher:
            for unit in units:
                elapsed += checker.run_unit(unit, capture=False)
        leftovers = patcher.leftovers()
    if leftovers:
        raise RuntimeError(f"span wrappers left installed: {leftovers}")
    ops = sum(u.ops for u in units) / elapsed
    return recorder, registry.counters(), ops


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_in_fresh_interpreter(args) -> float:
    """Seconds of one set-up in a new interpreter (``--setup-only``)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        import_s = import_program(workload)
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    inputs = workload.build(args.seed)
    setup_s = import_s + (time.perf_counter() - started)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if not args.trace:
        setups = [setup_s] + [
            setup_in_fresh_interpreter(args) for _ in range(SETUP_REPEATS - 1)
        ]
        setup_s = statistics.median(setups)
    units = workload.units(inputs)

    measurement = Measurement(units)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    measurement.run(untraced_seconds, capture_first=workload.captures_solves)
    evaluation = workload.evaluate(
        inputs, measurement.outputs, measurement.captured
    )

    if args.trace:
        recorder, counters, traced_ops = traced_pass(units, measurement)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl.gz"
        recorder.write(span_file)
        span_list = recorder.finished()
        evaluation.problems.extend(layers.counter_mismatches(span_list, counters))
        values = layers.layer_metrics(span_list, counters)
        untraced_ops = measurement.ops_per_s()
        values["bounds.prim_gap_pct"] = evaluation.prim_gap_pct
        for kind in ("loss", "tenant"):
            chosen = {u.name for u in units if u.name.startswith(kind)}
            values[f"online.{kind}_requests_per_s"] = (
                measurement.ops_per_ref_s(chosen) if chosen else 0.0
            )
        values["calibration.slowdown"] = measurement.calibration.slowdown()
        values["trace.untraced_ops_per_s"] = untraced_ops
        values["trace.traced_ops_per_s"] = traced_ops
        values["trace.overhead_ops_per_s"] = traced_ops - untraced_ops
        values["trace.overhead_pct"] = 100.0 * (untraced_ops - traced_ops) / untraced_ops
        print(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": measurement.ops_per_ref_s(),
            "rate_vs_opt": (
                math.exp(statistics.fmean(evaluation.log_ratios))
                if evaluation.log_ratios
                else 0.0
            ),
            "ok_frac": evaluation.ok / evaluation.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
    table = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in table.items()
    }

    if not evaluation.log_ratios:
        evaluation.problems.append("no feasible tree to measure quality on")
    for name in measurement.drift:
        evaluation.problems.append(f"{name}: output changed between passes")
    drifted = sum(u.ops for u in units if u.name in measurement.drift)
    samples = {name: len(times) for name, times in measurement.samples.items()}
    print(f"workload {workload.name} seed {args.seed} passes {samples}")
    if evaluation.lp_backend:
        print(f"lp_backend {evaluation.lp_backend}")
    print(f"digest {workload.name} {evaluation.digest}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for problem in evaluation.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not evaluation.problems
    result = {
        "correct": correct,
        "attempted": measurement.attempted(),
        "failed": evaluation.failed + drifted,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
