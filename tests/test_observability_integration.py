"""End-to-end observability: traced middleware runs and the CLI flags."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.env.scenarios import build_shopping_scenario
from repro.middleware.config import MiddlewareConfig
from repro.middleware.qasom import QASOM
from repro.observability import (
    NULL_OBSERVABILITY,
    Observability,
    ObservabilityConfig,
    enabled,
    get_default,
)
from repro.composition.qassa import QASSA


@pytest.fixture
def scenario():
    return build_shopping_scenario()


def _middleware(scenario, obs=None, config=None):
    return QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
        config=config,
        observability=obs,
    )


class TestTracedRun:
    def test_span_tree_covers_the_whole_pipeline(self, scenario):
        obs = Observability(clock=scenario.environment.clock)
        middleware = _middleware(scenario, obs)
        result = middleware.run(scenario.request)

        assert result.report.succeeded
        assert len(obs.spans) == 1
        root = obs.spans[0]
        assert root.name == "runtime.request"
        assert result.trace is root

        names = {span.name for span in root.walk()}
        assert {"compose", "discovery", "qassa.select", "qassa.cluster",
                "qassa.global", "bind", "invoke", "execute"} <= names

        # The global phase reports the distinct assignments it aggregated,
        # never more than the assignments the selection scored.
        select = root.find("qassa.select")[0]
        (global_span,) = select.find("qassa.global")
        assert 0 < global_span.attributes["aggregations"] <= (
            select.attributes["utility_evaluations"]
        )

        # One discovery span per activity, carrying the pool size.
        discoveries = root.find("discovery")
        assert len(discoveries) == scenario.task.size()
        assert all(s.attributes["pool_size"] > 0 for s in discoveries)

        # Every invocation attempt produced an attributed span.
        invokes = root.find("invoke")
        assert len(invokes) == len(result.report.invocations)
        assert all("service_id" in s.attributes for s in invokes)

        # Binding spans nest under their invocation attempts.
        for invoke in invokes:
            assert [c.name for c in invoke.children] == ["bind"]

        # Durations are measured, and the simulated clock was captured.
        assert root.duration > 0
        assert root.sim_duration == pytest.approx(result.report.elapsed)

    def test_adaptation_spans_recorded(self, scenario):
        obs = Observability(clock=scenario.environment.clock)
        middleware = _middleware(scenario, obs)
        result = middleware.run(scenario.request)
        # The shopping scenario's default run raises at least one trigger.
        assert result.adaptations
        adapt_spans = result.trace.find("adapt.substitute")
        assert adapt_spans
        assert adapt_spans[0].attributes["trigger_kind"] in (
            "violation", "forecast", "failure",
        )

    def test_serial_ranked_submission_composes_under_a_compose_span(
        self, scenario
    ):
        obs = Observability(clock=scenario.environment.clock)
        middleware = _middleware(scenario, obs)
        handle = middleware.submit(scenario.request, ranked=2, execute=False)
        assert handle.alternatives()
        (root,) = obs.spans
        assert root.name == "runtime.request"
        composes = [c for c in root.children if c.name == "compose"]
        assert len(composes) == 1
        assert [c.name for c in composes[0].children if c.name.startswith(
            "qassa"
        )] == ["qassa.select"]
        assert root.find("qassa.select") == composes[0].find("qassa.select")

    def test_metrics_populated_by_a_run(self, scenario):
        obs = Observability(clock=scenario.environment.clock)
        middleware = _middleware(scenario, obs)
        result = middleware.run(scenario.request)

        assert obs.metrics.value("qassa_selections_total") == 1
        ok = obs.metrics.value("invocations_total", status="ok") or 0
        failed = obs.metrics.value("invocations_total", status="failed") or 0
        assert ok + failed == len(result.report.invocations)
        assert obs.metrics.value("discovery_queries_total") >= scenario.task.size()
        assert obs.metrics.value("monitor_observations_total") > 0
        histogram = obs.metrics.histogram("qassa_selection_seconds")
        assert histogram.count == 1

    def test_failed_invocations_traced_as_retries(self, scenario):
        obs = Observability(clock=scenario.environment.clock)
        middleware = _middleware(scenario, obs)
        plan = middleware.submit(scenario.request, execute=False).plan()
        # Kill one bound primary: the engine must retry on an alternate.
        victim = next(iter(plan.selections.values())).primary
        scenario.environment.kill_service(victim.service_id)
        result = middleware.submit(plan=plan, adapt=False).result()
        assert result.report.succeeded
        invokes = result.trace.find("invoke")
        assert invokes, "execution produced no invoke spans"
        assert all(
            s.attributes["service_id"] != victim.service_id for s in invokes
        )


class TestConfigurationSurface:
    def test_observability_off_by_default(self, scenario):
        middleware = _middleware(scenario)
        assert middleware.observability is NULL_OBSERVABILITY
        result = middleware.run(scenario.request)
        assert result.trace is None
        assert middleware.observability.spans == ()

    def test_config_knob_enables_observability(self, scenario):
        config = MiddlewareConfig(
            observability=ObservabilityConfig(enabled=True)
        )
        middleware = _middleware(scenario, config=config)
        assert middleware.observability.enabled
        result = middleware.run(scenario.request)
        assert result.trace is not None
        assert result.trace.find("qassa.select")

    def test_explicit_instance_gets_environment_clock(self, scenario):
        obs = Observability()
        middleware = _middleware(scenario, obs)
        assert middleware.observability.tracer.clock is scenario.environment.clock

    def test_fresh_config_per_instance(self, scenario):
        first = _middleware(scenario)
        second = _middleware(scenario)
        assert first.config is not second.config

    def test_ambient_default_picked_up_by_bare_components(self, scenario):
        with enabled() as obs:
            selector = QASSA(scenario.properties)
        assert selector.obs is obs
        # Outside the block the ambient default is NULL again.
        assert get_default() is NULL_OBSERVABILITY
        assert QASSA(scenario.properties).obs is NULL_OBSERVABILITY


class TestCliFlags:
    def test_scenario_trace_prints_span_tree(self):
        out = io.StringIO()
        code = main(["scenario", "shopping", "--trace"], out=out)
        assert code == 0
        text = out.getvalue()
        for stage in ("run", "compose", "discovery", "qassa.select",
                      "qassa.cluster", "qassa.global", "bind", "invoke"):
            assert stage in text, f"span {stage!r} missing from --trace output"
        assert "ms" in text  # durations are printed

    def test_scenario_metrics_out_round_trips(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "metrics.jsonl"
        code = main(
            ["scenario", "shopping", "--metrics-out", str(path)], out=out
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in path.read_text().splitlines() if line.strip()
        ]
        assert records
        types = {record["type"] for record in records}
        assert "span" in types
        assert any(t.startswith("metric.") for t in types)
        spans = [r for r in records if r["type"] == "span"]
        by_id = {r["span_id"]: r for r in spans}
        assert all(
            r["parent_id"] is None or r["parent_id"] in by_id for r in spans
        )

    def test_experiment_trace_prints_breakdown(self):
        out = io.StringIO()
        code = main(["experiment", "fig-vi5a", "--trace"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "per-stage breakdown:" in text
        assert "qassa.select" in text

    def test_flags_do_not_change_exit_code_or_report(self):
        plain, traced = io.StringIO(), io.StringIO()
        assert main(["scenario", "shopping"], out=plain) == 0
        assert main(["scenario", "shopping", "--trace"], out=traced) == 0
        # The scenario output itself is identical; --trace only appends.
        assert traced.getvalue().startswith(plain.getvalue())
