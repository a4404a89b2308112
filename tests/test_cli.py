"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import EXPERIMENTS, SCENARIOS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "mars-colony"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig-z99"])

    def test_all_scenarios_registered(self):
        assert set(SCENARIOS) == {"shopping", "hospital", "holiday-camp"}

    def test_every_paper_figure_has_an_experiment(self):
        for name in ("fig-vi5a", "fig-vi5b", "fig-vi6a", "fig-vi6b",
                     "fig-vi7", "fig-vi8", "fig-vi9", "fig-vi10",
                     "fig-vi11", "fig-vi12", "fig-vi13", "table-iv1",
                     "ch4-summary", "ch5-homeomorphism",
                     "adaptation-effectiveness"):
            assert name in EXPERIMENTS


class TestScenarioCommand:
    @pytest.mark.parametrize("name", ["shopping", "hospital", "holiday-camp"])
    def test_runs_end_to_end(self, name):
        out = io.StringIO()
        code = main(["scenario", name, "--services", "6"], out=out)
        text = out.getvalue()
        assert f"scenario: " in text
        assert "composition utility" in text
        assert "execution" in text
        assert code in (0, 1)  # success, or honest failure reporting

    def test_seed_option(self):
        out_a, out_b = io.StringIO(), io.StringIO()
        main(["scenario", "shopping", "--seed", "5", "--services", "6"],
             out=out_a)
        main(["scenario", "shopping", "--seed", "5", "--services", "6"],
             out=out_b)
        # Same seed -> same utility line (service ids differ by global
        # counter, utilities must match).
        line_a = [l for l in out_a.getvalue().splitlines()
                  if "composition utility" in l]
        line_b = [l for l in out_b.getvalue().splitlines()
                  if "composition utility" in l]
        assert line_a == line_b


class TestExperimentCommand:
    def test_table_iv1(self):
        out = io.StringIO()
        assert main(["experiment", "table-iv1"], out=out) == 0
        assert "multiplicative" in out.getvalue()

    def test_fig_vi13(self):
        out = io.StringIO()
        assert main(["experiment", "fig-vi13"], out=out) == 0
        assert "transform_ms" in out.getvalue()

    def test_fig_vi9(self):
        out = io.StringIO()
        assert main(["experiment", "fig-vi9"], out=out) == 0
        assert "count" in out.getvalue()


class TestRepositoryCommand:
    def test_dump_is_loadable(self):
        from repro.adaptation.repository_io import load_repository

        out = io.StringIO()
        assert main(["repository", "shopping"], out=out) == 0
        recovered = load_repository(out.getvalue())
        assert recovered.require("shopping")


class TestWindowedObservabilityFlags:
    def test_slo_parses_bound_and_floor(self):
        parser = build_parser()
        args = parser.parse_args(
            ["scenario", "shopping", "--slo", "250:0.95"]
        )
        assert args.slo.p99_ms == 250.0
        assert args.slo.availability == 0.95

    def test_slo_parses_bare_bound(self):
        parser = build_parser()
        args = parser.parse_args(["scenario", "shopping", "--slo", "250"])
        assert args.slo.p99_ms == 250.0
        assert args.slo.availability is None

    def test_slo_rejects_garbage(self):
        parser = build_parser()
        for bad in ("fast", "-1", "250:1.5", "250:soon"):
            with pytest.raises(SystemExit):
                parser.parse_args(["scenario", "shopping", "--slo", bad])

    def test_scenario_slo_prints_timeline_and_verdicts(self):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6",
                     "--slo", "60000"], out=out)
        text = out.getvalue()
        assert "windowed timeline" in text
        assert "SLO on the 'request' stage" in text
        assert "SLO PASSED" in text or "SLO VIOLATED" in text
        assert code in (0, 1)

    def test_serve_slo_uses_request_stage(self):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6", "--serve",
                     "--workers", "2", "--requests", "4",
                     "--slo", "60000:0.5"], out=out)
        text = out.getvalue()
        assert "SLO on the 'request' stage" in text
        assert "availability" in text
        assert code == 0

    def test_metrics_windows_out_writes_jsonl(self, tmp_path):
        import json

        path = tmp_path / "windows.jsonl"
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6",
                     "--metrics-windows-out", str(path)], out=out)
        assert code in (0, 1)
        assert f"window records to {path}" in out.getvalue()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "no window records written"
        assert all(r["type"] == "window" for r in records)
        stages = {r["stage"] for r in records}
        assert "discovery" in stages and "execution" in stages

    def test_experiment_slo_evaluates_windows(self):
        out = io.StringIO()
        code = main(["experiment", "table-iv1", "--slo", "60000"], out=out)
        assert "windowed timeline" in out.getvalue()
        assert code == 0


class TestServeMode:
    def test_serve_brokers_requests_through_the_pool(self):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6", "--serve",
                     "--workers", "2", "--requests", "5"], out=out)
        text = out.getvalue()
        assert "serve: 5 requests, 2 workers" in text
        assert "brokered 5 requests" in text
        assert "req/s" in text
        assert "latency: p50" in text
        assert "request coalescing:" in text
        assert "discovery batching:" in text
        assert code == 0

    def test_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["scenario", "shopping", "--serve"])
        assert args.workers == 4
        assert args.requests == 16
        assert args.chaos is None


class TestChaosOption:
    @staticmethod
    def chaos_file(tmp_path):
        from repro.resilience import FaultSchedule

        schedule = FaultSchedule.runtime_chaos(
            (0.0, 0.2), crashes=1, stalls=1, stall_seconds=0.01, seed=3
        )
        path = tmp_path / "chaos.json"
        schedule.dump(path)
        return path

    def test_chaos_requires_serve(self, tmp_path):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6",
                     "--chaos", str(self.chaos_file(tmp_path))], out=out)
        assert code == 2
        assert "--chaos requires --serve" in out.getvalue()

    def test_chaos_serve_injects_and_verifies_invariants(self, tmp_path):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--services", "6", "--serve",
                     "--workers", "2", "--requests", "6",
                     "--chaos", str(self.chaos_file(tmp_path))], out=out)
        text = out.getvalue()
        assert "chaos: 2 runtime events, 0 environment events" in text
        assert "chaos: fired" in text
        assert "worker_crash" in text
        assert "supervision:" in text
        assert "invariants: OK" in text
        assert code in (0, 1)  # a request may fail under injected faults
