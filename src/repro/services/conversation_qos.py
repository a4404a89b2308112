"""White-box QSD: deriving service-level QoS from conversations (§II.2.2).

A white-box service description attaches QoS to the *operations* of its
conversation rather than (or in addition to) the service as a whole.  To
take part in selection — which reasons over one vector per service — the
per-operation values must be folded over the conversation's flow DAG:

* time-like additive properties follow the **critical path** (operations
  not ordered by the flow run concurrently);
* resource-like additive properties (cost, energy) sum over *all*
  operations;
* multiplicative properties multiply over all operations;
* min/max/average fold over all operations.

:func:`aggregate_conversation` computes the folded vector and
:func:`effective_qos` merges it under the service's explicit advertisement
(explicit black-box claims win — the provider knows best what it contracted).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Set

from repro.errors import ServiceDescriptionError
from repro.qos.properties import AggregationKind, QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import Conversation, ServiceDescription


def _critical_path(conversation: Conversation, values: Mapping[str, float]) -> float:
    """Longest (sum-weighted) path through the conversation's flow DAG."""
    successors: Dict[str, Set[str]] = {op.name: set() for op in conversation.operations}
    in_degree: Dict[str, int] = {op.name: 0 for op in conversation.operations}
    for pred, succ in conversation.flow:
        if succ not in successors[pred]:
            successors[pred].add(succ)
            in_degree[succ] += 1

    # Kahn order with longest-distance relaxation.
    distance = {name: values.get(name, 0.0) for name in successors}
    ready = [name for name, deg in in_degree.items() if deg == 0]
    order: List[str] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for succ in successors[current]:
            candidate = distance[current] + values.get(succ, 0.0)
            if candidate > distance[succ]:
                distance[succ] = candidate
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
    if len(order) != len(successors):
        raise ServiceDescriptionError(
            "conversation flow contains a cycle; cannot fold QoS"
        )
    return max(distance.values()) if distance else 0.0


def aggregate_conversation(
    conversation: Conversation,
    properties: Mapping[str, QoSProperty],
) -> QoSVector:
    """Fold per-operation QoS into one service-level vector.

    Only properties for which *every* operation declares a value are folded
    — a partial declaration gives no sound service-level guarantee.
    """
    foldable = [
        name
        for name, prop in properties.items()
        if all(
            op.qos is not None and name in op.qos
            for op in conversation.operations
        )
    ]
    values: Dict[str, float] = {}
    for name in foldable:
        prop = properties[name]
        per_op = {
            op.name: op.qos[name]  # type: ignore[index]
            for op in conversation.operations
        }
        kind = prop.aggregation
        if kind is AggregationKind.ADDITIVE:
            if prop.unit.dimension == "time":
                values[name] = _critical_path(conversation, per_op)
            else:
                values[name] = sum(per_op.values())
        elif kind is AggregationKind.MULTIPLICATIVE:
            values[name] = math.prod(per_op.values())
        elif kind is AggregationKind.MIN:
            values[name] = min(per_op.values())
        elif kind is AggregationKind.MAX:
            values[name] = max(per_op.values())
        else:  # AVERAGE
            values[name] = sum(per_op.values()) / len(per_op)
    return QoSVector(values, {n: properties[n] for n in values})


def effective_qos(
    service: ServiceDescription,
    properties: Mapping[str, QoSProperty],
) -> QoSVector:
    """The service's QoS as selection should see it.

    Black-box services return their advertisement unchanged.  White-box
    services get conversation-folded values for any property the
    advertisement does not cover explicitly (explicit claims win).
    """
    if service.conversation is None:
        return service.advertised_qos
    folded = aggregate_conversation(service.conversation, properties)
    merged: Dict[str, float] = {name: folded[name] for name in folded}
    merged.update({name: service.advertised_qos[name]
                   for name in service.advertised_qos})
    all_props = dict(folded.properties())
    all_props.update(service.advertised_qos.properties())
    return QoSVector(merged, all_props)


def with_effective_qos(
    service: ServiceDescription,
    properties: Mapping[str, QoSProperty],
) -> ServiceDescription:
    """A copy of the service advertising its effective (merged) QoS."""
    return service.with_qos(effective_qos(service, properties))
