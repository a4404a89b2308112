"""The task class concept and its repository (§V.5).

A **task class** groups *equivalent behaviours*: alternative compositions of
abstract activities that fulfil the same user task — differing in activity
order, granularity (split/merged activities) or coordination patterns.  The
middleware's Task Class Repository stores these behaviours; behavioural
adaptation searches it for an alternative into which the (failing) user
behaviour maps homeomorphically.

Formally (§V.5.2) a task class ``TC = (G, ~)`` is a set of behavioural
graphs pairwise related by the extended homeomorphism relation; here we
store the graphs and let :mod:`repro.adaptation.homeomorphism` decide
relatedness on demand (the repository may also verify closure eagerly via
:meth:`TaskClass.verify_equivalence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import BehaviouralAdaptationError
from repro.adaptation.behaviour_graph import BehaviouralGraph, task_to_graph
from repro.adaptation.homeomorphism import (
    HomeomorphismConfig,
    HomeomorphismResult,
    find_homeomorphism,
)
from repro.composition.task import Task
from repro.semantics.ontology import Ontology


@dataclass
class Behaviour:
    """One alternative realisation of a task: the task tree + its graph."""

    name: str
    task: Task
    graph: BehaviouralGraph

    @classmethod
    def from_task(cls, task: Task, name: Optional[str] = None) -> "Behaviour":
        return cls(name=name or task.name, task=task, graph=task_to_graph(task))


class TaskClass:
    """A named set of equivalent behaviours for one user task."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._behaviours: Dict[str, Behaviour] = {}

    def __len__(self) -> int:
        return len(self._behaviours)

    def __iter__(self) -> Iterator[Behaviour]:
        return iter(self._behaviours.values())

    def add(self, behaviour: Union[Behaviour, Task]) -> Behaviour:
        if isinstance(behaviour, Task):
            behaviour = Behaviour.from_task(behaviour)
        if behaviour.name in self._behaviours:
            raise BehaviouralAdaptationError(
                f"task class {self.name!r} already has behaviour "
                f"{behaviour.name!r}"
            )
        self._behaviours[behaviour.name] = behaviour
        return behaviour

    def behaviour(self, name: str) -> Behaviour:
        try:
            return self._behaviours[name]
        except KeyError:
            raise BehaviouralAdaptationError(
                f"task class {self.name!r} has no behaviour {name!r}"
            ) from None

    def behaviours(self) -> List[Behaviour]:
        return list(self._behaviours.values())

    def alternatives_to(self, behaviour_name: str) -> List[Behaviour]:
        return [b for b in self._behaviours.values() if b.name != behaviour_name]

    def verify_equivalence(
        self,
        ontology: Optional[Ontology] = None,
        config: HomeomorphismConfig = HomeomorphismConfig(),
    ) -> Dict[Tuple[str, str], bool]:
        """Check pairwise homeomorphic embeddability between behaviours.

        Returns a map ``(pattern name, host name) -> found``.  A curated
        repository is expected to be fully related; the method exists so
        repository authors can audit their classes.
        """
        results: Dict[Tuple[str, str], bool] = {}
        names = list(self._behaviours)
        for a in names:
            for b in names:
                if a == b:
                    continue
                outcome = find_homeomorphism(
                    self._behaviours[a].graph,
                    self._behaviours[b].graph,
                    ontology,
                    config,
                )
                results[(a, b)] = outcome.found
        return results


class TaskClassRepository:
    """The middleware's store of task classes (Fig. I.2).

    Lookup is by class name or by *membership*: given a user task, find the
    classes containing a behaviour into which the task's graph embeds.
    """

    def __init__(self, ontology: Optional[Ontology] = None) -> None:
        self.ontology = ontology
        self._classes: Dict[str, TaskClass] = {}

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[TaskClass]:
        return iter(self._classes.values())

    def add(self, task_class: TaskClass) -> TaskClass:
        if task_class.name in self._classes:
            raise BehaviouralAdaptationError(
                f"task class {task_class.name!r} already registered"
            )
        self._classes[task_class.name] = task_class
        return task_class

    def new_class(self, name: str, description: str = "") -> TaskClass:
        return self.add(TaskClass(name, description))

    def get(self, name: str) -> Optional[TaskClass]:
        return self._classes.get(name)

    def require(self, name: str) -> TaskClass:
        task_class = self._classes.get(name)
        if task_class is None:
            raise BehaviouralAdaptationError(f"unknown task class {name!r}")
        return task_class

    def classes_for(
        self,
        task: Task,
        config: HomeomorphismConfig = HomeomorphismConfig(),
    ) -> List[Tuple[TaskClass, Behaviour, HomeomorphismResult]]:
        """Task classes holding a behaviour that can realise ``task``.

        For each class, the first behaviour into which the task's graph
        embeds homeomorphically is returned along with the mapping evidence.
        """
        pattern = task_to_graph(task)
        hits: List[Tuple[TaskClass, Behaviour, HomeomorphismResult]] = []
        for task_class in self._classes.values():
            for behaviour in task_class:
                outcome = find_homeomorphism(
                    pattern, behaviour.graph, self.ontology, config
                )
                if outcome.found:
                    hits.append((task_class, behaviour, outcome))
                    break
        return hits
