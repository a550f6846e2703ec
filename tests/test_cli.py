"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import EXPERIMENTS, _to_jsonable, build_parser, main
from repro.experiments.sweep import PRESETS


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nope"])

    def test_missing_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_defaults(self):
        # Omitted options parse to "no overrides": the experiment or preset
        # runs with its own defaults.
        parser = build_parser()
        args = parser.parse_args(["run", "table6"])
        assert args.name == "table6"
        assert args.set is None
        assert args.workers is None

    @pytest.mark.parametrize(
        "verb, options",
        [
            ("run", {"--set", "--workers", "--obs-dir", "--out"}),
            ("sweep", {"--grid", "--set", "--workers", "--out"}),
        ],
    )
    def test_run_and_sweep_take_only_generic_options(self, verb, options, capsys):
        with pytest.raises(SystemExit):
            main([verb, "-h"])
        listed = set(re.findall(r"(--[a-z][a-z-]*)", capsys.readouterr().out))
        assert listed - {"--help"} == options


class TestExecution:
    def test_run_table6_prints_json(self, capsys):
        assert main(["run", "table6", "--set", "samples=200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition_cpu"]["operation"] == "partition_cpu"
        assert payload["partition_cpu"]["samples"] == 200

    def test_run_table6_writes_file(self, tmp_path, capsys):
        out = tmp_path / "table6.json"
        assert main(["run", "table6", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 7

    def test_all_experiments_registered(self):
        expected = {
            "fig1", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "composed",
            "interference", "metastable_campaign", "routing", "table1", "table6", "summary",
        }
        assert set(EXPERIMENTS) == expected
        assert not set(EXPERIMENTS) & set(PRESETS)

    def test_resilience_preset_reports_localization_and_mitigation(self, capsys):
        assert main([
            "run", "resilience", "--set", "duration_s=14", "--set", "load_rps=15",
            "--set", "application=hotel_reservation",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["application"] == "hotel_reservation"
        assert 0.0 <= payload["precision"] <= 1.0
        assert 0.0 <= payload["recall"] <= 1.0
        assert payload["windows_scored"] > 0
        assert "slo_violation_seconds" in payload
        assert "time_to_mitigate_s" in payload

    def test_sweep_campaigns_runs_resilience_grid(self, capsys):
        assert main([
            "sweep", "resilience", "--grid", "campaign=random", "--grid", "controller=none",
            "--set", "application=hotel_reservation", "--set", "load_rps=12",
            "--set", "duration_s=12",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert row["controller"] == "none"
        assert row["campaign"] == "random"
        assert "precision" in row and "recall" in row

    def test_sweep_scenario_with_anomalies(self, capsys):
        assert main([
            "sweep", "scenario", "--set", "application=hotel_reservation",
            "--set", "anomaly_rate_per_s=0.2", "--set", "load_rps=12",
            "--set", "duration_s=8", "--grid", "seed=0,1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["seed"] for row in payload] == [0, 1]


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "scenario", "--set", "bogus=1"], "accepted: application"),
            (["run", "fig1", "--set", "bogus=1"], "accepted: duration_s"),
            (["sweep", "scenario", "--grid", "bogus=1,2"], "accepted: application"),
            (["sweep", "resilience", "--set", "window_s=4"], "accepted: application"),
            (["run", "scenario", "--set", "seed"], "expected KEY=VALUE"),
            (["run", "scenario", "--set", "controller=warp"], "unknown controller"),
            (["run", "resilience", "--set", "scope=galaxy"], "galaxy"),
            (["run", "routed_tenants", "--set", "policy=bogus"], "unknown routing policy"),
            (
                ["run", "metastable", "--set", "admission=survival_kit", "--set", "application=nope"],
                "unknown application 'nope'",
            ),
            (["run", "table6", "--obs-dir", "record"], "apply to presets only"),
            (["run", "scenario", "--workers", "2"], "--workers applies to experiments"),
            (["run", "scenario", "--set", "duration_s=-1"], "duration_s must be > 0"),
            (["run", "scenario", "--set", "load_rps=-5"], "load_rps must be >= 0"),
            (
                ["run", "aggressor_victim", "--set", "victim_load_rps=-5"],
                "load_rps must be >= 0",
            ),
            (["run", "identical_tenants", "--set", "node_quota=0"], "node_quota must be >= 1"),
            (
                ["run", "aggressor_victim", "--set", "victim_slo_scale=0.0"],
                "slo_scale must be > 0",
            ),
        ],
    )
    def test_user_errors_exit_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1


class TestObservabilityCli:
    def test_obs_run_record_and_inspect(self, tmp_path, capsys):
        record_dir = tmp_path / "record"
        assert main([
            "run", "aggressor_victim", "--set", "duration_s=5",
            "--obs-dir", str(record_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        obs = payload["observability"]
        assert obs["journal_records"] > 0
        assert "routing_pick" in obs["by_kind"]
        assert set(obs["run_record"]) == {
            "journal", "metrics", "prometheus", "summary", "trace",
        }
        assert main(["inspect", str(record_dir)]) == 0
        report = capsys.readouterr().out
        assert "journal:" in report
        assert "causal timeline" in report or "no anomaly injections" in report

    def test_unknown_preset_exits_cleanly(self, capsys):
        assert main(["run", "interference", "--set", "preset=nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown preset 'nope'")

    def test_inspect_missing_record_exits_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing")]) == 2
        assert "error: no journal at" in capsys.readouterr().err


class TestJsonConversion:
    def test_dataclass_converted(self):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            y: str

        assert _to_jsonable(Point(1, "a")) == {"x": 1, "y": "a"}

    def test_nested_structures(self):
        assert _to_jsonable({"a": [1, (2, 3)]}) == {"a": [1, [2, 3]]}

    def test_unknown_objects_stringified(self):
        class Opaque:
            def __repr__(self) -> str:
                return "<opaque>"

        assert _to_jsonable(Opaque()) == "<opaque>"

    def test_as_dict_used_when_available(self):
        from repro.metrics.latency import LatencyStats

        stats = LatencyStats.from_samples([1.0, 2.0, 3.0])
        converted = _to_jsonable(stats)
        assert converted["count"] == 3
