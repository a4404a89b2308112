"""Tests for the queueing workload drivers (repro.experiments.drivers)."""

from __future__ import annotations

import pytest

from repro.execution.clock import SimulatedClock
from repro.experiments import (
    ClosedLoopDriver,
    DriverReport,
    OnOffArrivals,
    OpenLoopDriver,
    PoissonArrivals,
    RequestRecord,
)
from repro.middleware.qasom import QASOM
from repro.qos.properties import STANDARD_PROPERTIES
from repro.runtime import MiddlewareRuntime, RequestStatus, RuntimeConfig
from repro.runtime.handle import RunSpec, RunHandle
from repro.semantics.ontology import Ontology
from repro.services.generator import ServiceGenerator
from repro.composition.request import UserRequest
from repro.composition.task import Task, leaf, sequence
from repro.env.environment import PervasiveEnvironment

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


def build_world(seed=5, services=6):
    ontology = Ontology("driver-tests")
    root = ontology.declare_class("task:Root")
    ontology.declare_class("task:One", [root])
    environment = PervasiveEnvironment(seed=seed)
    generator = ServiceGenerator(PROPS, seed=seed)
    for service in generator.candidates("task:One", services):
        environment.host_on_new_device(service)
    middleware = QASOM.for_environment(environment, PROPS, ontology=ontology)
    task = Task("drive", sequence(leaf("A", "task:One")))
    request = UserRequest(task=task, constraints=(),
                          weights={name: 1.0 for name in PROPS})
    return middleware, request


class TestArrivalProcesses:
    def test_poisson_is_seeded_and_monotone(self):
        process = PoissonArrivals(10.0, seed=42)
        first = process.times(50)
        assert first == PoissonArrivals(10.0, seed=42).times(50)
        assert all(b > a for a, b in zip(first, first[1:]))
        assert first != PoissonArrivals(10.0, seed=43).times(50)

    def test_poisson_mean_rate_is_plausible(self):
        times = PoissonArrivals(100.0, seed=1).times(2000)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(100.0, rel=0.2)

    def test_on_off_defers_arrivals_out_of_quiet_phases(self):
        process = OnOffArrivals(
            50.0, on_seconds=1.0, off_seconds=4.0, seed=7
        )
        times = process.times(200)
        assert times == process.times(200)
        period = 5.0
        for at in times:
            assert at % period <= 1.0 + 1e-9, f"arrival at {at} in OFF phase"

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(1.0, on_seconds=0.0, off_seconds=1.0)
        with pytest.raises(ValueError):
            OnOffArrivals(1.0, on_seconds=1.0, off_seconds=-1.0)


class TestClosedLoopDriver:
    def test_single_client_matches_serial_submit_and_wait(self):
        middleware, request = build_world()
        driver = ClosedLoopDriver(middleware.submit)
        report = driver.run([request] * 4)
        assert report.submitted == report.completed == 4
        assert all(r.status is RequestStatus.DONE for r in report.records)
        assert all(r.sim_seconds is not None for r in report.records)

    def test_think_time_advances_the_simulated_clock(self):
        middleware, request = build_world()
        clock = middleware.environment.clock
        started = clock.now()
        driver = ClosedLoopDriver(
            middleware.submit, clients=2, think_seconds=10.0, clock=clock
        )
        report = driver.run([request] * 4)
        # Two rounds of two clients -> two think pauses.
        assert clock.now() >= started + 20.0
        arrivals = [r.arrival_sim for r in report.records]
        assert arrivals[0] == arrivals[1] or arrivals[1] > arrivals[0]
        assert arrivals[2] >= arrivals[0] + 10.0

    def test_bounds_outstanding_requests_to_the_client_count(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware, RuntimeConfig(workers=2, queue_depth=2)
        )
        driver = ClosedLoopDriver(runtime.submit, clients=2)
        report = driver.run([request] * 6)
        runtime.close()
        # The round barrier means no admission rejections despite the
        # tiny queue: at most `clients` requests are ever outstanding.
        assert report.rejected == 0
        assert report.completed == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopDriver(lambda r: None, clients=0)
        with pytest.raises(ValueError):
            ClosedLoopDriver(lambda r: None, think_seconds=-1.0)
        with pytest.raises(ValueError):
            ClosedLoopDriver(lambda r: None, think_seconds=1.0)


class TestOpenLoopDriver:
    def test_back_to_back_submits_everything_without_waiting(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware, RuntimeConfig(workers=2, queue_depth=64)
        )
        driver = OpenLoopDriver(
            runtime.submit, clock=middleware.environment.clock
        )
        report = driver.run([request] * 8)
        runtime.drain()
        runtime.close()
        assert report.submitted == 8
        assert report.completed == 8

    def test_paced_arrivals_advance_the_clock(self):
        middleware, request = build_world()
        clock = middleware.environment.clock
        process = PoissonArrivals(2.0, seed=3)
        expected = process.times(5, start=clock.now())
        driver = OpenLoopDriver(
            middleware.submit, clock=clock, arrivals=process
        )
        report = driver.run([request] * 5)
        # Inline execution advances the clock between submissions, so each
        # arrival lands at its scheduled time or later (never earlier).
        for record, scheduled in zip(report.records, expected):
            assert record.arrival_sim >= scheduled - 1e-9
        assert clock.now() >= expected[-1]

    def test_overload_surfaces_as_rejected_records(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(workers=1, queue_depth=2),
            autostart=False,  # nothing drains the queue while submitting
        )
        driver = OpenLoopDriver(runtime.submit)
        report = driver.run([request] * 6)
        assert report.rejected == 4
        assert report.summary()["rejected"] == 4
        runtime.close(drain=False)

    def test_paced_arrivals_require_a_clock(self):
        with pytest.raises(ValueError):
            OpenLoopDriver(lambda r: None, arrivals=PoissonArrivals(1.0))


class TestDriverReport:
    def _record(self, index, arrival, sim_latency, status=RequestStatus.DONE):
        spec = RunSpec(plan=None, request=object.__new__(UserRequest))
        handle = RunHandle.__new__(RunHandle)
        handle.spec = spec
        handle.trace_id = None
        handle._status = status
        handle.submitted_sim = arrival
        handle.finished_sim = (
            arrival + sim_latency if sim_latency is not None else None
        )
        handle.submitted_wall = 0.0
        handle.started_wall = 0.0
        handle.finished_wall = sim_latency
        return RequestRecord(index, arrival, handle)

    def _report(self):
        report = DriverReport(window_seconds=1.0)
        report.records = [
            self._record(0, 0.1, 0.05),
            self._record(1, 0.5, 0.30),
            self._record(2, 1.2, 0.05),
            self._record(3, 1.4, None, status=RequestStatus.REJECTED),
        ]
        return report

    def test_latency_windows_key_on_arrival_time(self):
        series = self._report().latency_windows().series()
        assert [s.index for s in series] == [0, 1]
        assert [s.count for s in series] == [2, 1]

    def test_availability_counts_rejections_against_their_window(self):
        availability = self._report().availability()
        assert availability[0] == pytest.approx(1.0)
        assert availability[1] == pytest.approx(0.5)

    def test_goodput_is_sla_bounded_completions(self):
        report = self._report()
        assert report.goodput(1.0) == 3
        assert report.goodput(0.1) == 2
        assert report.summary(slo_seconds=0.1)["goodput"] == 2

    def test_summary_counts_every_terminal_state(self):
        summary = self._report().summary()
        assert summary["submitted"] == 4
        assert summary["completed"] == 3
        assert summary["rejected"] == 1
        assert summary["failed"] == 0
