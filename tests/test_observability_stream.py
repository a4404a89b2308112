"""Tests for the runtime's one event stream (repro.observability.events).

Every lifecycle edge goes through :meth:`EventStream.emit`, and one emit
leaves exactly what :data:`EFFECTS` lists for its kind: a counter, a
marker span carrying the event's attributes, a ring entry and, for
``invariant.violation`` and ``slo.breach``, a forensic bundle.
"""

from __future__ import annotations

import dataclasses
import glob
import io
import json

import pytest

from repro import cli
from repro.errors import RuntimeInvariantError
from repro.observability import Observability
from repro.observability import events as rt_events
from repro.observability.events import (
    EFFECTS,
    INVARIANT_VIOLATION,
    SLO_BREACH,
    EventStream,
    FlightRecorder,
)
from repro.observability.forensics import BUNDLE_SCHEMA, ForensicReporter
from repro.resilience import FaultSchedule
from repro.runtime import (
    MiddlewareRuntime,
    RuntimeConfig,
    assert_runtime_invariants,
)

from tests.worlds import build_world

#: One attribute set for every kind; chaos injections label their counter
#: with ``kind``.
ATTRS = {"kind": "worker_crash", "worker": 1, "seq": 3}


def _live_stream():
    obs = Observability()
    recorder = FlightRecorder(capacity=64)
    forensics = ForensicReporter(recorder, observability=obs)
    return EventStream(obs, recorder, forensics), obs, recorder, forensics


@pytest.mark.parametrize("kind", sorted(EFFECTS))
def test_one_emit_leaves_exactly_what_the_table_lists(kind):
    stream, obs, recorder, forensics = _live_stream()
    stream.emit(kind, "t1", **ATTRS)
    effect = EFFECTS[kind]

    counters = [
        (record["name"], record["labels"], record["value"])
        for record in obs.metrics.snapshot() if record["type"] == "counter"
    ]
    labels = {label: ATTRS[label] for label in effect.labels}
    expected = [(effect.counter, labels, 1.0)] if effect.counter else []
    assert counters == expected

    spans = [(s.name, s.attributes) for s in obs.tracer.all_spans()]
    assert spans == ([(effect.span, ATTRS)] if effect.span else [])

    (event,) = recorder.events()
    assert (event.kind, event.trace_id, event.attributes) == (
        kind, "t1", ATTRS,
    )

    reasons = [bundle["reason"] for bundle in forensics.bundles]
    assert reasons == ([effect.bundle] if effect.bundle else [])
    if effect.bundle:
        assert forensics.bundles[0]["context"] == ATTRS


def test_an_unknown_kind_is_refused():
    with pytest.raises(KeyError):
        EventStream().emit("no.such.kind")


class _OffRecorder:
    enabled = False

    def record(self, *args, **kwargs):
        raise AssertionError("a disabled recorder was written to")


def _refuse_event(*args, **kwargs):
    raise AssertionError("a RuntimeEvent was built with the recorder off")


class TestRecorderOff:
    @pytest.mark.parametrize("kind", sorted(EFFECTS))
    def test_emit_records_nothing(self, kind, monkeypatch):
        monkeypatch.setattr(rt_events, "RuntimeEvent", _refuse_event)
        obs = Observability()
        EventStream(obs, _OffRecorder()).emit(kind, "t1", **ATTRS)
        effect = EFFECTS[kind]
        assert len(obs.tracer.all_spans()) == (1 if effect.span else 0)

    def test_a_runtime_without_a_recorder_builds_no_event(self, monkeypatch):
        monkeypatch.setattr(rt_events, "RuntimeEvent", _refuse_event)
        middleware, requests, _ = build_world(profiles=2, repeats=2)
        with MiddlewareRuntime(
            middleware, RuntimeConfig(workers=2, queue_depth=8)
        ) as runtime:
            handles = [runtime.submit(request) for request in requests]
            runtime.drain(timeout=60.0)
        assert not runtime.recorder.enabled
        assert all(handle.exception() is None for handle in handles)


class TestInvariantViolation:
    def test_assert_records_the_event_and_dumps_the_bundle(self, tmp_path):
        middleware, requests, _ = build_world()
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(workers=1, queue_depth=2,
                          forensics_dir=str(tmp_path)),
            autostart=False,
        )
        handle = runtime.submit(requests[0])  # queued, never processed
        with pytest.raises(RuntimeInvariantError, match="lost"):
            assert_runtime_invariants(runtime, [handle])
        runtime.close(drain=False)
        (event,) = [e for e in runtime.recorder.events()
                    if e.kind == INVARIANT_VIOLATION]
        (path,) = glob.glob(str(tmp_path / "*invariant_violation.json"))
        with open(path) as stream:
            bundle = json.load(stream)
        assert bundle["context"] == event.attributes
        assert event.attributes["handles"] == 1

    def test_cli_serve_chaos_records_the_event_and_dumps_the_bundle(
        self, tmp_path, monkeypatch
    ):
        schedule = tmp_path / "chaos.json"
        FaultSchedule.runtime_chaos(
            (0.0, 0.2), crashes=0, stalls=1, snapshot_failures=0,
            stall_seconds=0.001, seed=7,
        ).dump(str(schedule))
        verify = cli.verify_runtime_invariants

        def stubbed(runtime, handles):
            return dataclasses.replace(
                verify(runtime, handles), violations=("stubbed violation",)
            )

        monkeypatch.setattr(cli, "verify_runtime_invariants", stubbed)
        forensics = tmp_path / "forensics"
        out = io.StringIO()
        code = cli.main(
            ["scenario", "shopping", "--serve", "--workers", "2",
             "--requests", "4", "--chaos", str(schedule),
             "--forensics", str(forensics)],
            out=out,
        )
        assert code == 1
        assert "invariants: stubbed violation" in out.getvalue()
        (path,) = glob.glob(str(forensics / "*invariant_violation.json"))
        with open(path) as stream:
            bundle = json.load(stream)
        assert bundle["context"] == {
            "violations": ["stubbed violation"], "handles": 4,
            "committed": 4,
        }
        last = bundle["events"][-1]
        assert last["kind"] == INVARIANT_VIOLATION
        assert last["attributes"] == bundle["context"]


class TestSloBreach:
    def test_cli_serve_slo_records_each_breach_and_dumps_its_bundle(
        self, tmp_path, monkeypatch
    ):
        # A 1 µs p99 bound fails every window with traffic: each failed
        # verdict is one slo.breach event, one count and one bundle.
        exported = {}
        export = cli._export_observability

        def capturing(args, obs, out, events=None):
            exported.update(obs=obs, events=events)
            export(args, obs, out, events=events)

        monkeypatch.setattr(cli, "_export_observability", capturing)
        forensics = tmp_path / "forensics"
        out = io.StringIO()
        code = cli.main(
            ["scenario", "shopping", "--serve", "--workers", "2",
             "--requests", "8", "--slo", "0.001",
             "--forensics", str(forensics)],
            out=out,
        )
        assert code == 0
        breaches = [
            event for event in exported["events"].recorder.events()
            if event.kind == SLO_BREACH
        ]
        paths = sorted(glob.glob(str(forensics / "*slo_breach.json")))
        assert breaches and len(paths) == len(breaches)
        assert out.getvalue().count("FAIL: p99") == len(breaches)
        (count,) = [
            record["value"] for record in exported["obs"].metrics.snapshot()
            if record["name"] == "slo_breaches_total"
        ]
        assert count == len(breaches)
        recorded = exported["events"].recorder.recorded_total
        assert (
            f"{recorded} runtime events recorded, {len(paths)} bundles"
            in out.getvalue()
        )
        for event, path in zip(breaches, paths):
            with open(path) as stream:
                bundle = json.load(stream)
            assert bundle["schema"] == BUNDLE_SCHEMA
            assert bundle["reason"] == "slo_breach"
            assert bundle["trace_id"] == event.trace_id
            assert bundle["context"] == event.attributes
            assert set(bundle["context"]) == {
                "window", "window_start", "failures", "slo",
            }
            assert bundle["trace_events"][-1]["kind"] == SLO_BREACH
