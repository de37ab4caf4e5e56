"""Repeated mode: run one workload over several seeds and summarise.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload online_serving --seeds 1-10 --seconds 30

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
each metric's median, first and third quartiles and their spread
(``(q3 - q1) / median``, quartiles as ``statistics.quantiles(n=4)``
gives them).  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"`` → a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values = {}
    units = {}
    failed = False
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [
                sys.executable, str(RUN),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", args.seconds,
                "--trace", args.trace,
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        digest = next((l for l in lines if l.startswith("digest ")), "digest ? ?")
        print(f"seed {seed}: exit {done.returncode}, {digest.split()[-1][:16]}")
        if done.returncode != 0 or not lines:
            failed = True
            print(done.stderr, file=sys.stderr)
            continue
        metrics = json.loads(lines[-1])["metrics"]
        for name, entry in metrics.items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        if args.trace == "0":
            print("  " + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()))

    print(f"{'metric':32} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (
            statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        )
        spread = (q3 - q1) / median if median else float("nan")
        print(
            f"{name:32} {units[name]:>9} {median:12.6g} {q1:12.6g} "
            f"{q3:12.6g} {spread:8.4f}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
