"""Middleware worlds the runtime tests and the identity harness submit to:
a small fixed one (:func:`build_world`) and one per fuzz instance
(:func:`instance_world`)."""

from __future__ import annotations

import dataclasses
import random

from repro.composition.qassa import QassaConfig
from repro.composition.request import UserRequest
from repro.composition.task import Task, leaf, sequence
from repro.env.environment import PervasiveEnvironment
from repro.experiments.fuzzing import FuzzInstance
from repro.middleware.config import MiddlewareConfig
from repro.middleware.qasom import QASOM
from repro.qos.properties import STANDARD_PROPERTIES
from repro.semantics.ontology import Ontology
from repro.services.generator import ServiceGenerator

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}
CAPS = ("task:Alpha", "task:Beta", "task:Gamma")


def build_world(seed=17, services=8, profiles=5, repeats=2):
    """``(middleware, requests, generator)``: ``profiles`` weight profiles
    over one three-activity sequence, each submitted ``repeats`` times."""
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


def instance_world(instance: FuzzInstance) -> QASOM:
    """A fresh middleware hosting copies of the instance's pools, each
    service under a new id on its own device, that selects like a QASSA
    configured from the instance.  Discovery returns each pool in name
    order, the order the generator made it in.  Worlds built from one
    instance are identical and share no service."""
    environment = PervasiveEnvironment(seed=instance.seed)
    for _, pool in instance.candidates.items():
        for service in pool:
            environment.host_on_new_device(
                dataclasses.replace(service, service_id="")
            )
    return QASOM(
        environment, instance.properties,
        config=MiddlewareConfig(
            aggregation=instance.approach,
            qassa=QassaConfig(seed=instance.seed),
        ),
    )
