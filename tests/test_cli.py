"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    EXIT_OK,
    EXIT_SOLVER_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFICATION_ERROR,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.topology == "waxman"
        assert args.method == "conflict_free"
        assert args.switches == 50

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "solvers" in out and "waxman" in out

    def test_solve_small(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
                "--show-channels",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MUERPSolution" in out
        assert "Channel[" in out

    def test_solve_with_optimal(self, capsys):
        code = main(
            ["solve", "--method", "optimal", "--switches", "8", "--users", "3"]
        )
        assert code == 0

    def test_experiment_reduced(self, capsys):
        code = main(
            ["experiment", "fig6b", "--networks", "1", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_switches" in out
        assert "Alg-2" in out

    def test_experiment_ablation(self, capsys):
        code = main(
            [
                "experiment",
                "ablation-fusion-penalty",
                "--networks",
                "1",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert "mu=" in capsys.readouterr().out


class TestNewCommands:
    def test_stats(self, capsys):
        code = main(["stats", "--switches", "10", "--users", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degree histogram" in out
        assert "connected" in out

    def test_montecarlo_consistent(self, capsys):
        code = main(
            [
                "montecarlo",
                "--switches",
                "10",
                "--users",
                "3",
                "--trials",
                "5000",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "consistent:           yes" in out

    def test_admit_overload_demo(self, capsys):
        code = main(
            [
                "admit",
                "--switches",
                "15",
                "--users",
                "6",
                "--horizon",
                "20",
                "--arrival-rate",
                "4",
                "--seed",
                "5",
                "--verify-determinism",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "admission stats:" in out
        assert "capacity overbooked: no" in out
        assert "unattributed requests: none" in out
        assert "baseline (no admission):" in out
        assert "determinism check: ok" in out

    def test_admit_shed_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["admit", "--shed-policy", "coin-flip"]
            )

    def test_admit_metrics_snapshot(self, capsys, tmp_path):
        metrics_file = tmp_path / "admit-metrics.json"
        code = main(
            [
                "admit",
                "--switches",
                "12",
                "--users",
                "5",
                "--horizon",
                "12",
                "--arrival-rate",
                "5",
                "--seed",
                "2",
                "--no-baseline",
                "--metrics",
                str(metrics_file),
            ]
        )
        assert code == EXIT_OK
        snapshot = json.loads(metrics_file.read_text())
        counters = snapshot["counters"]
        assert any(
            key.startswith("sim.online.admission.") for key in counters
        )

    def test_serve_multitenant_demo(self, capsys):
        code = main(
            [
                "serve",
                "--switches",
                "15",
                "--users",
                "6",
                "--horizon",
                "20",
                "--arrival-rate",
                "3",
                "--faults",
                "6",
                "--seed",
                "5",
                "--verify-determinism",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tenant serving report" in out
        assert "capacity overbooked: no" in out
        assert "unattributed requests: none" in out
        assert "determinism check: ok" in out

    def test_serve_json_output(self, capsys):
        code = main(
            [
                "serve",
                "--switches",
                "12",
                "--users",
                "5",
                "--horizon",
                "12",
                "--arrival-rate",
                "3",
                "--faults",
                "0",
                "--seed",
                "2",
                "--json",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("capacity overbooked")])
        assert "jain_index" in payload
        assert "tenants" in payload

    def test_experiment_markdown(self, capsys):
        code = main(
            ["experiment", "fig8b", "--networks", "1", "--seed", "2", "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("### experiment fig8b")
        assert "| swap_prob |" in out

    def test_experiment_markdown_edge_removal(self, capsys):
        code = main(
            ["experiment", "fig7b", "--networks", "1", "--seed", "2", "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed ratio" in out


class TestExitCodes:
    """Regression: each failure class owns a distinct nonzero exit code."""

    def test_constants_are_distinct(self):
        codes = {
            EXIT_OK,
            EXIT_VALIDATION_ERROR,
            EXIT_SOLVER_ERROR,
            EXIT_VERIFICATION_ERROR,
        }
        assert len(codes) == 4
        assert EXIT_OK == 0

    def test_unknown_solver_exits_3(self, capsys):
        code = main(
            ["solve", "--method", "prmi", "--switches", "8", "--users", "3"]
        )
        assert code == EXIT_SOLVER_ERROR
        err = capsys.readouterr().err
        assert "solver error" in err
        assert "prim" in err  # did-you-mean suggestion surfaces

    def test_validation_error_exits_2(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "8",
                "--users",
                "3",
                "--swap-prob",
                "1.5",
            ]
        )
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "swap_prob" in err

    def test_nan_parameter_exits_2_with_message(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "8",
                "--users",
                "3",
                "--swap-prob",
                "nan",
            ]
        )
        assert code == EXIT_VALIDATION_ERROR
        assert "NaN" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_2(self, capsys):
        code = main(
            ["experiment", "fig6b", "--networks", "1", "--resume"]
        )
        assert code == EXIT_VALIDATION_ERROR
        assert "--checkpoint" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--users", "0"], "users"),
            (["--users", "3", "--qubits", "-1"], "qubits_per_switch"),
        ],
    )
    def test_bad_topology_value_exits_2_with_one_line(
        self, capsys, flags, field
    ):
        code = main(["solve", "--switches", "10"] + flags)
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("validation error:")
        assert field in err
        assert len(err.strip().splitlines()) == 1


class TestBoundsCommand:
    ARGS = ["bounds", "--switches", "20", "--users", "6", "--qubits", "2"]

    def test_json_reports_algorithm2_and_certification(self, capsys):
        from repro.core.optimal import solve_optimal
        from repro.topology import TopologyConfig, waxman_network

        code = main(self.ARGS + ["--json", "--verify-determinism"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "determinism check: ok" in captured.err
        network = waxman_network(
            TopologyConfig(n_switches=20, n_users=6, qubits_per_switch=2),
            rng=7,
        )
        optimum = solve_optimal(network).rate
        assert payload["uncapacitated_rate_bound"] == optimum
        best = max(g["rate"] for g in payload["gaps"])
        if payload["certified_optimal"]:
            assert payload["certificate"] is None
            assert payload["capacitated_rate_bound"] == optimum
        else:
            assert payload["capacitated_rate_bound"] == min(
                payload["certificate"]["rate_bound"], optimum
            )
        assert best <= payload["capacitated_rate_bound"] * (1 + 1e-7)

    def test_table_labels_whether_the_lp_ran(self, capsys):
        # Seed 7: Prim reaches Algorithm 2's rate on the 25-switch
        # network, while capacity binds on the 20-switch one.
        certified = ["bounds", "--switches", "25", "--users", "8",
                     "--qubits", "2"]
        assert main(certified) == EXIT_OK
        out = capsys.readouterr().out
        assert "LP bound: not needed (certified optimal" in out
        assert "uncapacitated bound (Algorithm 2)" in out
        assert main(self.ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "LP bound: rate ≤" in out
        assert "not needed" not in out

    def test_capacity_violating_tree_cannot_certify(
        self, monkeypatch, capsys
    ):
        # Algorithm 2's tree overbooks a switch on this network (capacity
        # binds); passed off as Prim's, it reaches Algorithm 2's rate and
        # would certify itself if the CLI trusted unverified rates.
        import repro.cli as cli
        from repro.core.optimal import solve_optimal

        real_solve = cli.solve

        def overbooking_prim(method, network, rng=None):
            if method == "prim":
                return solve_optimal(network)
            return real_solve(method, network, rng=rng)

        monkeypatch.setattr(cli, "solve", overbooking_prim)
        assert main(self.ARGS + ["--json"]) == EXIT_VERIFICATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over capacity" in captured.err


class TestRobustSolveCommand:
    def test_robust_prints_audit(self, capsys):
        code = main(
            [
                "solve",
                "--robust",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "solve audit" in out
        assert "winner: conflict_free" in out

    def test_robust_with_fallback(self, capsys):
        code = main(
            [
                "solve",
                "--robust",
                "--method",
                "prim",
                "--fallback",
                "conflict_free",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
            ]
        )
        assert code == EXIT_OK
        assert "prim" in capsys.readouterr().out


class TestExperimentCheckpointFlags:
    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trials.jsonl"
        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "2",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK
        first = capsys.readouterr().out
        assert path.exists()
        recorded = path.read_text().count("\n")
        assert recorded > 0
        # Every line carries the integrity envelope.
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"entry", "sha256"}

        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "2",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
                "--resume",
            ]
        )
        assert code == EXIT_OK
        second = capsys.readouterr().out
        assert "resuming" in second
        # Identical tables: the resumed run replays recorded trials.
        assert first.splitlines()[-5:] == [
            line for line in second.splitlines() if "resuming" not in line
        ][-5:]

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text("garbage that would fail integrity checks\n")
        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "1",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK
