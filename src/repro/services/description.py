"""Quality-based service descriptions (QSD, Chapter II §2.2).

A :class:`ServiceDescription` is what a provider publishes into the
environment's registry.  It carries:

* a *capability* concept anchoring the service's functionality in a task
  ontology (semantic, so discovery can reason over it),
* IOPE signatures — Inputs, Outputs, Preconditions, Effects — as concept
  URIs,
* the advertised QoS vector (black-box QSD), and optionally per-operation
  QoS over a conversation (white-box QSD),
* provider/host metadata used by the environment simulator (which device
  hosts the service, whether it is currently reachable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.errors import ServiceDescriptionError
from repro.qos.values import QoSVector

_service_counter = itertools.count(1)


@dataclass(frozen=True)
class Operation:
    """One elementary operation of a white-box service conversation."""

    name: str
    capability: str
    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    qos: Optional[QoSVector] = None


@dataclass(frozen=True)
class Conversation:
    """The observable behaviour of a white-box service.

    ``flow`` lists (predecessor, successor) operation-name pairs; an empty
    flow with multiple operations means they are independent.
    """

    operations: Tuple[Operation, ...]
    flow: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        names = [op.name for op in self.operations]
        if len(names) != len(set(names)):
            raise ServiceDescriptionError("duplicate operation names in conversation")
        known = set(names)
        for pred, succ in self.flow:
            if pred not in known or succ not in known:
                raise ServiceDescriptionError(
                    f"flow edge ({pred!r}, {succ!r}) references unknown operation"
                )

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise ServiceDescriptionError(f"no operation named {name!r}")


@dataclass
class ServiceDescription:
    """A published pervasive service.

    ``advertised_qos`` is the provider's claim; the *run-time* QoS observed
    by the monitor may differ (that gap is exactly what QoS-driven adaptation
    compensates, Chapter V).
    """

    name: str
    capability: str
    advertised_qos: QoSVector
    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    preconditions: FrozenSet[str] = frozenset()
    effects: FrozenSet[str] = frozenset()
    conversation: Optional[Conversation] = None
    provider: str = "unknown"
    host_device: Optional[str] = None
    service_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceDescriptionError("service name must be non-empty")
        if not self.capability:
            raise ServiceDescriptionError("service capability must be non-empty")
        if not self.service_id:
            self.service_id = f"svc-{next(_service_counter):06d}"

    @property
    def is_white_box(self) -> bool:
        """True when the provider published a behavioural (conversation) QSD."""
        return self.conversation is not None

    def qos(self, name: str) -> float:
        """Advertised value for one QoS property."""
        return self.advertised_qos[name]

    def with_qos(self, qos: QoSVector) -> "ServiceDescription":
        """A copy advertising a different QoS vector (used to model providers
        republishing after a capability change)."""
        return ServiceDescription(
            name=self.name,
            capability=self.capability,
            advertised_qos=qos,
            inputs=self.inputs,
            outputs=self.outputs,
            preconditions=self.preconditions,
            effects=self.effects,
            conversation=self.conversation,
            provider=self.provider,
            host_device=self.host_device,
            service_id=self.service_id,
        )

    def __hash__(self) -> int:
        return hash(self.service_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceDescription):
            return NotImplemented
        return self.service_id == other.service_id

    def __repr__(self) -> str:
        return (
            f"ServiceDescription({self.name!r}, capability={self.capability!r}, "
            f"id={self.service_id!r})"
        )
