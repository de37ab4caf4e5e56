"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracle import TreeOracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(name, start, end, parent):
    return (name, start, end, parent, None, True)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("engine.run_trial", 0.0, 10.0, -1),  # 0
        _span("tree.prim", 1.0, 6.0, 0),  # 1
        _span("channel.best_channels_from", 2.0, 4.0, 1),  # 2
        _span("channel.dijkstra", 2.5, 3.5, 2),  # 3
        _span("channel.dijkstra", 4.5, 5.0, 1),  # 4
        _span("verify.validate_solution", 7.0, 8.0, 0),  # 5
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.5, 1.0, 1.0, 0.5, 1.0])
    self_s, incl_s, layer_s, layer_calls = layers.layer_times(tree)
    assert self_s["channel.dijkstra"] == pytest.approx(1.5)
    assert self_s["channel.best_channels_from"] == pytest.approx(1.0)
    # dijkstra at 2.5-3.5 runs inside another channel span: one layer entry.
    assert layer_s["channel"] == pytest.approx(2.0 + 0.5)
    assert layer_calls["channel"] == 2
    assert incl_s["channel.dijkstra"] == pytest.approx(1.5)
    assert layer_s["engine"] == pytest.approx(10.0)


def test_self_time_clips_and_merges_children():
    tree = [
        _span("a.x", 0.0, 4.0, -1),
        _span("b.y", 1.0, 3.0, 0),
        _span("b.z", 2.0, 5.0, 0),  # overlaps y and outlives its parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert layers.percentile(values, 50) == 50.0
    assert layers.percentile(values, 99) == 99.0
    assert layers.percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    first = workload.input_bytes(workload.build(11))
    again = workload.input_bytes(workload.build(11))
    other = workload.input_bytes(workload.build(12))
    assert first == again
    assert first != other


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _bindings():
    """Every module-level, dict and class binding of the traced targets."""
    patcher = spans.Patcher(spans.SpanRecorder(), layers.TARGETS)
    snapshot = {}
    for module in patcher._modules():
        for key, value in vars(module).items():
            if type(value) is dict:
                for inner_key, inner in value.items():
                    if callable(inner):
                        snapshot[(module.__name__, key, repr(inner_key))] = inner
            elif isinstance(value, type):
                for attr, raw in vars(value).items():
                    snapshot[(module.__name__, key, attr)] = raw
            elif callable(value):
                snapshot[(module.__name__, key)] = value
    return snapshot


def test_wrappers_are_installed_and_removed():
    workload = WORKLOADS["online_serving"]
    run.import_program(workload)
    from repro.core import channel, prim_based
    from repro.sim import online
    from repro.topology.base import TopologyConfig
    from repro.topology.registry import generate

    network = generate(
        "waxman", TopologyConfig(n_switches=12, n_users=4), 3
    )
    before = _bindings()
    recorder = spans.SpanRecorder()
    with spans.Patcher(recorder, layers.TARGETS) as patcher:
        assert getattr(online.solve_prim, "__wrapped_by_perfbench__", False)
        assert getattr(channel.dijkstra, "__wrapped_by_perfbench__", False)
        prim_based.solve_prim(network)
    assert patcher.leftovers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[spans.NAME] for span in recorder.finished()}
    assert {"tree.prim", "channel.best_channels_from", "channel.dijkstra"} <= names


def test_wrappers_are_removed_when_the_traced_call_raises():
    recorder = spans.SpanRecorder()
    from repro.core import prim_based

    original = prim_based.solve_prim
    with pytest.raises(Exception):
        with spans.Patcher(recorder, layers.TARGETS):
            prim_based.solve_prim(None)
    assert prim_based.solve_prim is original
    assert recorder.finished()[0][spans.OK] is False


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_matches_algorithm_2(seed):
    from repro.core.optimal import solve_optimal
    from repro.topology.base import TopologyConfig
    from repro.topology.registry import generate

    network = generate("waxman", TopologyConfig(n_switches=20, n_users=5), seed)
    solution = solve_optimal(network)
    optimum = TreeOracle(network).tree_log_rate(network.user_ids)
    assert solution.feasible == (optimum is not None)
    if optimum is not None:
        assert math.isclose(solution.log_rate, optimum, rel_tol=1e-9)


# ----------------------------------------------------------------------
# Names and the emitted result
# ----------------------------------------------------------------------
def test_benchmark_json_names_match_the_code():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        layers.PER_LAYER
    )
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "workload, trace", [("online_serving", 1), ("paper_sweep", 0)]
)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    code, result = _run(
        ["--workload", workload, "--seed", "5", "--seconds", "0.01",
         "--trace", str(trace)]
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(NAME.match(name) for name in result["metrics"])
