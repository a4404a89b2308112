"""Ready-made builds of the paper's motivating scenarios (§I.1).

Three scenarios drive the thesis: the **pervasive medical visit**, the
**pervasive shopping** trip (Fig. I.1) and the **pervasive entertaining**
holiday camp.  Each builder returns a fully-populated :class:`Scenario`:
a task ontology, an environment with devices/services, the user task with
its task class (alternative behaviours), and a representative user request.

These are what the example applications and the integration tests run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.semantics.ontology import Ontology
from repro.qos.properties import STANDARD_PROPERTIES, QoSProperty
from repro.services.generator import ServiceGenerator
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.task import (
    Task,
    conditional,
    leaf,
    loop,
    parallel,
    sequence,
)
from repro.adaptation.task_class import TaskClassRepository
from repro.env.device import DeviceClass
from repro.env.environment import EnvironmentConfig, PervasiveEnvironment

#: Property subset the scenarios constrain and weight.
SCENARIO_PROPERTIES: Dict[str, QoSProperty] = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}


@dataclass
class Scenario:
    """Everything an example application needs to run end to end."""

    name: str
    ontology: Ontology
    environment: PervasiveEnvironment
    task: Task
    request: UserRequest
    repository: TaskClassRepository
    properties: Dict[str, QoSProperty]


def build_task_ontology() -> Ontology:
    """The task (capability) ontology shared by the three scenarios.

    Concept hierarchy under ``task:UserActivity``; specialisations let the
    semantic discovery and homeomorphism matching exercise PLUGIN matches
    (e.g. ``task:CardPayment`` ⊑ ``task:Payment``).
    """
    onto = Ontology("tasks")
    root = onto.declare_class("task:UserActivity", label="User activity")

    # Shopping.
    onto.declare_class("task:Browse", [root])
    onto.declare_class("task:Order", [root])
    payment = onto.declare_class("task:Payment", [root])
    onto.declare_class("task:CardPayment", [payment])
    onto.declare_class("task:MobilePayment", [payment])
    onto.declare_class("task:Notification", [root])
    onto.declare_class("task:Delivery", [root])
    onto.declare_class("task:PickupPlanning", [root])

    # Hospital.
    onto.declare_class("task:Registration", [root])
    onto.declare_class("task:Diagnosis", [root])
    onto.declare_class("task:Pharmacy", [root])
    onto.declare_class("task:Scheduling", [root])

    # Entertainment.
    onto.declare_class("task:ChartLookup", [root])
    streaming = onto.declare_class("task:Streaming", [root])
    onto.declare_class("task:AudioStreaming", [streaming])
    onto.declare_class("task:VideoStreaming", [streaming])

    # Data concepts used in IOPE signatures and data constraints.
    data = onto.declare_class("data:Data", label="Data item")
    for concept in (
        "data:Query", "data:Catalogue", "data:OrderForm", "data:Receipt",
        "data:PatientRecord", "data:Prescription", "data:Appointment",
        "data:SongList", "data:MediaStream",
    ):
        onto.declare_class(concept, [data])
    onto.validate()
    return onto


def _populate(
    environment: PervasiveEnvironment,
    generator: ServiceGenerator,
    capabilities: Dict[str, int],
    device_class: DeviceClass,
) -> None:
    """Host ``capabilities[c]`` synthetic services per capability ``c``."""
    for capability, count in capabilities.items():
        for service in generator.candidates(capability, count):
            environment.host_on_new_device(service, device_class)


# ----------------------------------------------------------------------
def build_shopping_scenario(
    services_per_activity: int = 12, seed: int = 7
) -> Scenario:
    """Bob's commercial-centre shopping trip (Fig. I.1).

    The primary behaviour browses, orders, then pays and gets notified in
    parallel.  The task class holds two alternatives: a reordered behaviour
    (pay before notification, sequentially) and a finer-grained one where
    payment is split into authorisation + settlement — exercising the
    split mappings of §V.6.2.3.
    """
    ontology = build_task_ontology()
    ontology.declare_class("task:PaymentAuthorisation", ["task:Payment"])
    ontology.declare_class("task:PaymentSettlement", ["task:Payment"])

    environment = PervasiveEnvironment(
        EnvironmentConfig(churn_leave_rate=0.02, churn_join_rate=0.05),
        seed=seed,
    )
    generator = ServiceGenerator(SCENARIO_PROPERTIES, seed=seed)
    _populate(
        environment,
        generator,
        {
            "task:Browse": services_per_activity,
            "task:Order": services_per_activity,
            "task:CardPayment": services_per_activity,
            "task:MobilePayment": services_per_activity // 2 or 1,
            "task:Notification": services_per_activity,
            "task:PaymentAuthorisation": services_per_activity // 2 or 1,
            "task:PaymentSettlement": services_per_activity // 2 or 1,
            "task:PickupPlanning": services_per_activity // 2 or 1,
        },
        DeviceClass.SMARTPHONE,
    )

    task = Task(
        "shopping",
        sequence(
            leaf("Browse", "task:Browse",
                 inputs=frozenset({"data:Query"}),
                 outputs=frozenset({"data:Catalogue"})),
            leaf("Order", "task:Order",
                 inputs=frozenset({"data:Catalogue"}),
                 outputs=frozenset({"data:OrderForm"})),
            parallel(
                leaf("Pay", "task:Payment",
                     inputs=frozenset({"data:OrderForm"}),
                     outputs=frozenset({"data:Receipt"})),
                leaf("Notify", "task:Notification"),
            ),
        ),
    )

    # Alternative 1: same coordination, one extra delivery-planning step at
    # the end — the task embeds with every vertex mapped one-to-one and the
    # extra activity simply unused by the mapping.
    alternative_extended = Task(
        "shopping-with-pickup",
        sequence(
            leaf("BrowseAlt", "task:Browse",
                 outputs=frozenset({"data:Catalogue"})),
            leaf("OrderAlt", "task:Order",
                 outputs=frozenset({"data:OrderForm"})),
            parallel(
                leaf("PayAlt", "task:Payment",
                     outputs=frozenset({"data:Receipt"})),
                leaf("NotifyAlt", "task:Notification"),
            ),
            leaf("Pickup", "task:PickupPlanning"),
        ),
    )
    # Alternative 2: finer granularity — payment split into authorisation +
    # settlement (both ⊑ task:Payment), exercising the §V.6.2.3 split
    # mappings: the task's Pay vertex maps to the Authorise→Settle chain.
    alternative_split = Task(
        "shopping-split-payment",
        sequence(
            leaf("BrowseS", "task:Browse",
                 outputs=frozenset({"data:Catalogue"})),
            leaf("OrderS", "task:Order",
                 outputs=frozenset({"data:OrderForm"})),
            parallel(
                sequence(
                    leaf("Authorise", "task:PaymentAuthorisation"),
                    leaf("Settle", "task:PaymentSettlement",
                         outputs=frozenset({"data:Receipt"})),
                ),
                leaf("NotifyS", "task:Notification"),
            ),
        ),
    )

    repository = TaskClassRepository(ontology)
    shopping_class = repository.new_class(
        "shopping", "Buy items in a commercial centre"
    )
    shopping_class.add(task)
    shopping_class.add(alternative_extended)
    shopping_class.add(alternative_split)

    request = UserRequest(
        task=task,
        constraints=(
            GlobalConstraint.at_most("response_time", 4000.0),
            GlobalConstraint.at_most("cost", 250.0),
            GlobalConstraint.at_least("availability", 0.25),
        ),
        weights={"response_time": 0.3, "cost": 0.3, "availability": 0.2,
                 "reliability": 0.2},
    )
    return Scenario(
        "shopping", ontology, environment, task, request, repository,
        dict(SCENARIO_PROPERTIES),
    )


# ----------------------------------------------------------------------
def build_hospital_scenario(
    services_per_activity: int = 10, seed: int = 11
) -> Scenario:
    """Bob's pervasive medical visit: registration → diagnosis →
    (pharmacy ∥ scheduling) → payment, with a re-diagnosis loop."""
    ontology = build_task_ontology()
    environment = PervasiveEnvironment(
        EnvironmentConfig(churn_leave_rate=0.01, churn_join_rate=0.05),
        seed=seed,
    )
    generator = ServiceGenerator(SCENARIO_PROPERTIES, seed=seed)
    _populate(
        environment,
        generator,
        {
            "task:Registration": services_per_activity,
            "task:Diagnosis": services_per_activity,
            "task:Pharmacy": services_per_activity,
            "task:Scheduling": services_per_activity,
            "task:CardPayment": services_per_activity,
        },
        DeviceClass.SERVER,
    )

    task = Task(
        "medical-visit",
        sequence(
            leaf("Register", "task:Registration",
                 outputs=frozenset({"data:PatientRecord"})),
            loop(leaf("Diagnose", "task:Diagnosis",
                      inputs=frozenset({"data:PatientRecord"}),
                      outputs=frozenset({"data:Prescription"})),
                 max_iterations=2, expected_iterations=1.2),
            parallel(
                leaf("Pharmacy", "task:Pharmacy",
                     inputs=frozenset({"data:Prescription"})),
                leaf("FollowUp", "task:Scheduling",
                     outputs=frozenset({"data:Appointment"})),
            ),
            leaf("Pay", "task:Payment"),
        ),
    )
    # Alternative behaviour: the re-diagnosis loop is dropped (single
    # consultation) and payment is pinned to card payment — same parallel
    # coordination, so the primary's graph embeds one-to-one.
    alternative = Task(
        "medical-visit-single-consultation",
        sequence(
            leaf("RegisterAlt", "task:Registration",
                 outputs=frozenset({"data:PatientRecord"})),
            leaf("DiagnoseAlt", "task:Diagnosis",
                 outputs=frozenset({"data:Prescription"})),
            parallel(
                leaf("PharmacyAlt", "task:Pharmacy"),
                leaf("FollowUpAlt", "task:Scheduling",
                     outputs=frozenset({"data:Appointment"})),
            ),
            leaf("PayAlt", "task:CardPayment"),
        ),
    )
    repository = TaskClassRepository(ontology)
    visit_class = repository.new_class("medical-visit", "Hospital visit flow")
    visit_class.add(task)
    visit_class.add(alternative)

    request = UserRequest(
        task=task,
        constraints=(
            GlobalConstraint.at_most("response_time", 6000.0),
            GlobalConstraint.at_least("reliability", 0.2),
        ),
        weights={"response_time": 0.25, "cost": 0.15, "availability": 0.3,
                 "reliability": 0.3},
    )
    return Scenario(
        "hospital", ontology, environment, task, request, repository,
        dict(SCENARIO_PROPERTIES),
    )


# ----------------------------------------------------------------------
def build_holiday_camp_scenario(
    services_per_activity: int = 8, seed: int = 13
) -> Scenario:
    """Bob at the holiday camp: chart lookup, then audio *or* video
    streaming — entirely hosted on fellow campers' phones (ad hoc, churny)."""
    ontology = build_task_ontology()
    environment = PervasiveEnvironment(
        EnvironmentConfig(churn_leave_rate=0.08, churn_join_rate=0.08,
                          qos_noise=0.15),
        seed=seed,
    )
    generator = ServiceGenerator(SCENARIO_PROPERTIES, seed=seed)
    _populate(
        environment,
        generator,
        {
            "task:ChartLookup": services_per_activity,
            "task:AudioStreaming": services_per_activity,
            "task:VideoStreaming": services_per_activity,
        },
        DeviceClass.SMARTPHONE,
    )

    task = Task(
        "entertainment",
        sequence(
            leaf("Top10", "task:ChartLookup",
                 outputs=frozenset({"data:SongList"})),
            conditional(
                leaf("StreamAudio", "task:AudioStreaming",
                     outputs=frozenset({"data:MediaStream"})),
                leaf("StreamVideo", "task:VideoStreaming",
                     outputs=frozenset({"data:MediaStream"})),
                probabilities=(0.7, 0.3),
            ),
        ),
    )
    # Alternative behaviour: chart lookup followed by ONE generic streaming
    # activity.  The primary's two conditional branches (audio / video) are
    # mutually exclusive, so both *merge* onto the single Stream vertex — a
    # §V.6.2.3 particular vertex mapping.  Note the generic label sits
    # ABOVE the branch labels in the ontology, so this embedding needs the
    # SUBSUME matching threshold (see HomeomorphismConfig.minimum_degree).
    alternative = Task(
        "entertainment-any-stream",
        sequence(
            leaf("Top10Alt", "task:ChartLookup",
                 outputs=frozenset({"data:SongList"})),
            leaf("StreamAlt", "task:Streaming",
                 outputs=frozenset({"data:MediaStream"})),
        ),
    )
    repository = TaskClassRepository(ontology)
    fun_class = repository.new_class("entertainment", "Camp media streaming")
    fun_class.add(task)
    fun_class.add(alternative)

    request = UserRequest(
        task=task,
        constraints=(
            GlobalConstraint.at_most("response_time", 3000.0),
            GlobalConstraint.at_least("availability", 0.3),
        ),
        weights={"response_time": 0.4, "availability": 0.3, "reliability": 0.2,
                 "cost": 0.1},
    )
    return Scenario(
        "holiday-camp", ontology, environment, task, request, repository,
        dict(SCENARIO_PROPERTIES),
    )
