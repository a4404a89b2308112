"""Concurrency-determinism: a pooled run is byte-identical to a serial run.

The runtime composes concurrently but commits executions in strict
admission order, so N seeded requests brokered through the pool must
produce exactly the plans *and* execution reports the serial middleware
produces for the same workload.  The identity harness submits two
requests to each of its fuzz worlds; here ten executing requests share
one world and four workers.  Worlds are compared through the exact
signatures of :mod:`repro.experiments.fuzzing`, which key on seeded
service *names* (service ids come from a process-global counter and
differ across identically-seeded worlds).
"""

from __future__ import annotations

from repro.experiments.fuzzing import plan_signature, report_signature
from repro.runtime import MiddlewareRuntime, RuntimeConfig

from tests.worlds import build_world


class TestPooledEqualsSerial:
    def test_pooled_run_matches_serial_byte_for_byte(self):
        middleware_serial, requests_serial, _ = build_world()
        serial = [middleware_serial.submit(r).result()
                  for r in requests_serial]

        middleware_pooled, requests_pooled, _ = build_world()
        config = RuntimeConfig(workers=4,
                               queue_depth=len(requests_pooled))
        with MiddlewareRuntime(middleware_pooled, config) as runtime:
            handles = [runtime.submit(r) for r in requests_pooled]
            runtime.drain()

        for index, (expected, handle) in enumerate(zip(serial, handles)):
            pooled = handle.result()
            assert plan_signature(expected.plan) == plan_signature(
                pooled.plan
            ), f"request {index}: plans diverged"
            assert report_signature(expected.report) == report_signature(
                pooled.report
            ), f"request {index}: execution reports diverged"

    def test_two_pooled_runs_match_each_other(self):
        signatures = []
        for _ in range(2):
            middleware, requests, _ = build_world()
            config = RuntimeConfig(workers=4, queue_depth=len(requests))
            with MiddlewareRuntime(middleware, config) as runtime:
                handles = [runtime.submit(r) for r in requests]
                runtime.drain()
            signatures.append(
                [plan_signature(h.result().plan) for h in handles]
            )
        assert signatures[0] == signatures[1]
