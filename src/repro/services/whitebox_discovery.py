"""White-box service discovery: matching required behaviour (§II.3).

Black-box discovery matches profiles; *white-box* discovery additionally
checks that the service's observable **conversation** supports the
execution pattern the requester needs — "the way it is fulfilled, not only
what is fulfilled".  PERSE and METEOR-S do this with conversation/protocol
matching; here we reduce it to the same machinery behavioural adaptation
uses: the required behaviour and the service conversation both become
labelled graphs, and the requirement must embed into the conversation under
the extended subgraph homeomorphism (semantic operation labels, extra
provider-side operations allowed, order preserved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.adaptation.behaviour_graph import BehaviouralGraph, Vertex, task_to_graph
from repro.adaptation.homeomorphism import (
    HomeomorphismConfig,
    HomeomorphismResult,
    find_homeomorphism,
)
from repro.composition.task import Task
from repro.semantics.ontology import Ontology
from repro.services.description import Conversation, ServiceDescription
from repro.services.discovery import (
    DiscoveryQuery,
    QoSAwareDiscovery,
)


def conversation_to_graph(
    conversation: Conversation, name: str = "conversation"
) -> BehaviouralGraph:
    """A service conversation as a labelled behavioural graph.

    Operations become vertices labelled by their capability concept; flow
    edges become control edges — the same shape task graphs have, so the
    one matcher serves both discovery and adaptation.
    """
    graph = BehaviouralGraph(name)
    for operation in conversation.operations:
        graph.add_vertex(
            Vertex(
                vertex_id=operation.name,
                label=operation.capability,
                inputs=operation.inputs,
                outputs=operation.outputs,
                activity_name=operation.name,
            )
        )
    for pred, succ in conversation.flow:
        if not graph.has_edge(pred, succ):
            graph.add_edge(pred, succ)
    return graph


@dataclass(frozen=True)
class WhiteBoxQuery:
    """A discovery query carrying a required behaviour.

    ``behaviour`` is either a :class:`Task` (the requester's intended usage
    pattern) or a raw :class:`Conversation`.  ``require_conversation``
    decides what happens to black-box services: excluded (strict, default)
    or accepted on their profile alone (lenient — the §II.3 trade-off).
    """

    query: DiscoveryQuery
    behaviour: Union[Task, Conversation]
    require_conversation: bool = True


@dataclass
class WhiteBoxMatch:
    """One white-box result: the service + the behavioural evidence."""

    service: ServiceDescription
    embedding: Optional[HomeomorphismResult] = None

    @property
    def behaviourally_verified(self) -> bool:
        return self.embedding is not None and self.embedding.found


class WhiteBoxDiscovery:
    """Profile matching + conversation embedding."""

    def __init__(
        self,
        discovery: QoSAwareDiscovery,
        ontology: Optional[Ontology] = None,
        config: HomeomorphismConfig = HomeomorphismConfig(),
    ) -> None:
        self.discovery = discovery
        self.ontology = (
            ontology if ontology is not None else discovery.ontology
        )
        self.config = config

    def _required_graph(
        self, behaviour: Union[Task, Conversation]
    ) -> BehaviouralGraph:
        if isinstance(behaviour, Task):
            return task_to_graph(behaviour)
        return conversation_to_graph(behaviour, "required")

    def discover(self, white_box_query: WhiteBoxQuery) -> List[WhiteBoxMatch]:
        """Profile-admissible services whose conversation supports the
        required behaviour, behaviourally-verified ones first."""
        required = self._required_graph(white_box_query.behaviour)
        matches: List[WhiteBoxMatch] = []
        for profile_match in self.discovery.discover(white_box_query.query):
            service = profile_match.service
            if service.conversation is None:
                if not white_box_query.require_conversation:
                    matches.append(WhiteBoxMatch(service))
                continue
            host = conversation_to_graph(
                service.conversation, service.service_id
            )
            embedding = find_homeomorphism(
                required, host, self.ontology, self.config
            )
            if embedding.found:
                matches.append(WhiteBoxMatch(service, embedding))
        matches.sort(
            key=lambda m: (not m.behaviourally_verified, m.service.name)
        )
        return matches

    def candidates(
        self, white_box_query: WhiteBoxQuery
    ) -> List[ServiceDescription]:
        return [m.service for m in self.discover(white_box_query)]
