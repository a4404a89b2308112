"""Behavioural adaptation — the second adaptation strategy (§V.3).

When substitution cannot repair a composition (no alternates, the whole
environment degraded, a capability vanished), the task itself is re-realised
through an **alternative behaviour** from its task class:

1. the (failing) user task is transformed into its behavioural graph;
2. the task class repository is searched for an alternative behaviour into
   which the user's graph embeds under the extended vertex-disjoint subgraph
   homeomorphism (semantic labels, data constraints, splits);
3. for each admissible alternative (ordered by embedding cost — fewer extra
   activities first), QoS-aware selection runs again on the alternative's
   activities;
4. the first alternative yielding a feasible composition wins.

The homeomorphism direction matters: the *user task* is the pattern and the
*alternative behaviour* is the host — the alternative may refine activities
(splits) or interleave extra ones, but must cover everything the user asked
for, in a compatible order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import BehaviouralAdaptationError, CompositionError
from repro.adaptation.behaviour_graph import task_to_graph
from repro.adaptation.homeomorphism import (
    HomeomorphismConfig,
    HomeomorphismResult,
    find_homeomorphism,
)
from repro.adaptation.task_class import Behaviour, TaskClass, TaskClassRepository
from repro.composition.request import UserRequest
from repro.composition.selection import CandidateSets, CompositionPlan
from repro.composition.task import Task
from repro.semantics.matching import MatchCache
from repro.semantics.ontology import Ontology

#: Resolves an alternative behaviour's activities to candidate services.
#: Signature: (task) -> CandidateSets.  Usually wraps discovery + registry.
CandidateResolver = Callable[[Task], CandidateSets]

#: Runs QoS-aware selection.  Signature: (request, candidates) -> plan.
Selector = Callable[[UserRequest, CandidateSets], CompositionPlan]


@dataclass
class BehaviouralAdaptationResult:
    """Outcome: which alternative was adopted and its new composition."""

    task_class: TaskClass
    behaviour: Behaviour
    embedding: HomeomorphismResult
    plan: CompositionPlan
    alternatives_tried: int


class BehaviouralAdaptation:
    """The behavioural adaptation strategy (Fig. V.2)."""

    def __init__(
        self,
        repository: TaskClassRepository,
        resolver: CandidateResolver,
        selector: Selector,
        ontology: Optional[Ontology] = None,
        config: HomeomorphismConfig = HomeomorphismConfig(),
    ) -> None:
        self.repository = repository
        self.resolver = resolver
        self.selector = selector
        self.ontology = ontology if ontology is not None else repository.ontology
        self.config = config
        # One memoised grading shared by every repository scan: behaviours
        # of the same task class reuse the same vertex labels, so the
        # second and later embeddings hit the cache almost exclusively.
        self.match_cache: Optional[MatchCache] = (
            MatchCache(self.ontology) if self.ontology is not None else None
        )

    # ------------------------------------------------------------------
    def candidate_behaviours(
        self, task: Task, task_class_name: Optional[str] = None
    ) -> List[Tuple[TaskClass, Behaviour, HomeomorphismResult]]:
        """Alternative behaviours admitting the task, cheapest embedding
        first (fewest host vertices beyond the pattern's needs)."""
        pattern = task_to_graph(task)
        scope: List[TaskClass]
        if task_class_name is not None:
            scope = [self.repository.require(task_class_name)]
        else:
            scope = list(self.repository)

        hits: List[Tuple[TaskClass, Behaviour, HomeomorphismResult]] = []
        for task_class in scope:
            for behaviour in task_class:
                if behaviour.task.name == task.name:
                    continue  # the failing behaviour itself
                outcome = find_homeomorphism(
                    pattern, behaviour.graph, self.ontology, self.config,
                    match_cache=self.match_cache,
                )
                if outcome.found:
                    hits.append((task_class, behaviour, outcome))
        hits.sort(key=lambda hit: hit[1].graph.vertex_count())
        return hits

    def adapt(
        self,
        request: UserRequest,
        task_class_name: Optional[str] = None,
    ) -> BehaviouralAdaptationResult:
        """Re-fulfil ``request.task`` through an alternative behaviour.

        Raises :class:`BehaviouralAdaptationError` when no alternative both
        embeds the task and yields a feasible composition.
        """
        alternatives = self.candidate_behaviours(request.task, task_class_name)
        if not alternatives:
            raise BehaviouralAdaptationError(
                f"no alternative behaviour for task {request.task.name!r} "
                "in the repository"
            )

        tried = 0
        last_error: Optional[Exception] = None
        for task_class, behaviour, embedding in alternatives:
            tried += 1
            alternative_request = UserRequest(
                task=behaviour.task,
                constraints=request.constraints,
                weights=request.weights,
            )
            try:
                candidates = self.resolver(behaviour.task)
                plan = self.selector(alternative_request, candidates)
            except CompositionError as error:
                last_error = error
                continue
            if plan.feasible:
                return BehaviouralAdaptationResult(
                    task_class=task_class,
                    behaviour=behaviour,
                    embedding=embedding,
                    plan=plan,
                    alternatives_tried=tried,
                )
        raise BehaviouralAdaptationError(
            f"none of the {tried} alternative behaviours yields a feasible "
            f"composition (last selection error: {last_error})"
        )
