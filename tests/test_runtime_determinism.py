"""Concurrency-determinism: a pooled run is byte-identical to a serial run.

The runtime composes concurrently but commits executions in strict
admission order, so N seeded requests brokered through the pool must
produce exactly the plans *and* execution reports the serial middleware
produces for the same workload.  Worlds are compared through the exact
signatures of :mod:`repro.experiments.fuzzing`, which key on seeded
service *names* (service ids come from a process-global counter and
differ across identically-seeded worlds).
"""

from __future__ import annotations

import random
import threading

from repro.experiments.fuzzing import plan_signature, report_signature
from repro.middleware.qasom import QASOM
from repro.qos.properties import STANDARD_PROPERTIES
from repro.runtime import MiddlewareRuntime, RequestStatus, RuntimeConfig
from repro.semantics.ontology import Ontology
from repro.services.generator import ServiceGenerator
from repro.composition.request import UserRequest
from repro.composition.task import Task, leaf, sequence
from repro.env.environment import PervasiveEnvironment

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}
CAPS = ("task:Alpha", "task:Beta", "task:Gamma")


def build_world(seed=17, services=8, profiles=5, repeats=2):
    ontology = Ontology("runtime-determinism-tests")
    root = ontology.declare_class("task:Root")
    for capability in CAPS:
        ontology.declare_class(capability, [root])
    environment = PervasiveEnvironment(seed=seed)
    generator = ServiceGenerator(PROPS, seed=seed)
    for capability in CAPS:
        for service in generator.candidates(capability, services):
            environment.host_on_new_device(service)
    middleware = QASOM.for_environment(environment, PROPS,
                                       ontology=ontology)
    task = Task("det", sequence(leaf("A", CAPS[0]), leaf("B", CAPS[1]),
                                leaf("C", CAPS[2])))
    rng = random.Random(seed + 1)
    requests = []
    for _ in range(profiles):
        weights = {
            name: round(rng.uniform(0.1, 1.0), 3) for name in PROPS
        }
        requests.append(UserRequest(task=task, constraints=(),
                                    weights=weights))
    return middleware, [requests[i % profiles]
                        for i in range(profiles * repeats)], generator


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


class TestChurnUnderLoad:
    def test_all_requests_terminate_despite_concurrent_churn(self):
        middleware, requests, generator = build_world(repeats=4)
        registry = middleware.environment.registry
        stop = threading.Event()

        def churner():
            step = 0
            while not stop.is_set():
                service = registry.publish(
                    generator.service(CAPS[step % len(CAPS)])
                )
                registry.withdraw(service.service_id)
                step += 1

        thread = threading.Thread(target=churner)
        thread.start()
        try:
            config = RuntimeConfig(workers=4, queue_depth=len(requests))
            with MiddlewareRuntime(middleware, config) as runtime:
                handles = [runtime.submit(r) for r in requests]
                runtime.drain(timeout=60.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        for handle in handles:
            assert handle.done()
            assert handle.status in (
                RequestStatus.DONE, RequestStatus.FAILED
            )
            if handle.status is RequestStatus.DONE:
                assert handle.result().plan is not None
