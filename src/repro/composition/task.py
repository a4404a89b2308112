"""The composition model: user tasks as pattern-structured activity trees.

A user task ``T`` (§IV.2.2) is a composition of *abstract activities*
``A_1..A_n`` coordinated by *composition patterns*:

* :class:`Sequence` — activities executed one after the other;
* :class:`Parallel` — AND-split/AND-join, all branches execute;
* :class:`Conditional` — XOR-split, exactly one branch executes, with an
  optional probability per branch (used by the mean-value aggregation
  approach);
* :class:`Loop` — a body iterated up to ``max_iterations`` times, with an
  optional ``expected_iterations`` for mean-value aggregation.

The tree is immutable; structural helpers (activity listing, node counting,
pattern census) are what the selection algorithms and the behavioural-graph
transformation consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence as Seq, Tuple

from repro.errors import InvalidTaskError


@dataclass(frozen=True)
class Activity:
    """An abstract activity: a named slot to be bound to a concrete service.

    ``capability`` anchors the required functionality in the task ontology;
    ``inputs``/``outputs`` carry optional data-flow concepts used by
    discovery and by the data constraints of behavioural adaptation.
    ``optional`` marks an activity the composition can *gracefully skip*
    when no provider can be reached (see
    :mod:`repro.resilience.degradation`) — a notification, say, versus the
    payment it announces.
    """

    name: str
    capability: str
    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    optional: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTaskError("activity name must be non-empty")
        if not self.capability:
            raise InvalidTaskError(f"activity {self.name!r} has no capability")

    def __str__(self) -> str:
        return self.name


class Node:
    """Base class of pattern-tree nodes."""

    def activities(self) -> List[Activity]:
        """All activities in document order (duplicates impossible: names
        are unique per task, enforced by :class:`Task`)."""
        raise NotImplementedError

    def children(self) -> Tuple["Node", ...]:
        raise NotImplementedError

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the pattern tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Leaf(Node):
    """A single activity occurrence in the pattern tree."""

    activity: Activity

    def activities(self) -> List[Activity]:
        return [self.activity]

    def children(self) -> Tuple[Node, ...]:
        return ()


@dataclass(frozen=True)
class Sequence(Node):
    """Sequential execution of children."""

    members: Tuple[Node, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidTaskError("sequence pattern needs at least one member")

    def activities(self) -> List[Activity]:
        return [a for m in self.members for a in m.activities()]

    def children(self) -> Tuple[Node, ...]:
        return self.members


@dataclass(frozen=True)
class Parallel(Node):
    """AND-split / AND-join: every branch executes concurrently."""

    branches: Tuple[Node, ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise InvalidTaskError("parallel pattern needs at least two branches")

    def activities(self) -> List[Activity]:
        return [a for b in self.branches for a in b.activities()]

    def children(self) -> Tuple[Node, ...]:
        return self.branches


@dataclass(frozen=True)
class Conditional(Node):
    """XOR-split: exactly one branch executes at run time.

    ``probabilities`` (optional) must align with ``branches`` and sum to 1;
    they feed the mean-value aggregation approach.  Without probabilities a
    uniform law is assumed.
    """

    branches: Tuple[Node, ...]
    probabilities: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise InvalidTaskError("conditional pattern needs at least two branches")
        if self.probabilities is not None:
            if len(self.probabilities) != len(self.branches):
                raise InvalidTaskError(
                    "conditional probabilities must align with branches"
                )
            if any(p < 0 for p in self.probabilities):
                raise InvalidTaskError("conditional probabilities must be >= 0")
            if abs(sum(self.probabilities) - 1.0) > 1e-9:
                raise InvalidTaskError("conditional probabilities must sum to 1")

    def branch_probabilities(self) -> Tuple[float, ...]:
        if self.probabilities is not None:
            return self.probabilities
        n = len(self.branches)
        return tuple(1.0 / n for _ in range(n))

    def activities(self) -> List[Activity]:
        return [a for b in self.branches for a in b.activities()]

    def children(self) -> Tuple[Node, ...]:
        return self.branches


@dataclass(frozen=True)
class Loop(Node):
    """Iterated execution of a body.

    ``max_iterations`` bounds pessimistic aggregation; ``expected_iterations``
    (defaulting to the midpoint of [1, max]) feeds mean-value aggregation.
    """

    body: Node
    max_iterations: int = 1
    expected_iterations: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise InvalidTaskError("loop max_iterations must be >= 1")
        if self.expected_iterations is not None and not (
            1.0 <= self.expected_iterations <= self.max_iterations
        ):
            raise InvalidTaskError(
                "loop expected_iterations must lie in [1, max_iterations]"
            )

    def mean_iterations(self) -> float:
        if self.expected_iterations is not None:
            return self.expected_iterations
        return (1.0 + self.max_iterations) / 2.0

    def activities(self) -> List[Activity]:
        return self.body.activities()

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)


def leaf(name: str, capability: Optional[str] = None, **kwargs) -> Leaf:
    """Convenience constructor: ``leaf("Register", "task:Registration")``.

    When ``capability`` is omitted, a concept URI is derived from the name
    (``task:<Name>``), which keeps example/test code terse.
    """
    return Leaf(Activity(name, capability or f"task:{name}", **kwargs))


def sequence(*members: Node) -> Sequence:
    """Convenience constructor for a Sequence pattern."""
    return Sequence(tuple(members))


def parallel(*branches: Node) -> Parallel:
    """Convenience constructor for a Parallel (AND) pattern."""
    return Parallel(tuple(branches))


def conditional(*branches: Node, probabilities: Optional[Seq[float]] = None) -> Conditional:
    """Convenience constructor for a Conditional (XOR) pattern."""
    return Conditional(
        tuple(branches),
        tuple(probabilities) if probabilities is not None else None,
    )


def loop(body: Node, max_iterations: int, expected_iterations: Optional[float] = None) -> Loop:
    """Convenience constructor for a Loop pattern."""
    return Loop(body, max_iterations, expected_iterations)


@dataclass(frozen=True)
class Task:
    """A user task: a named pattern tree with unique activity names."""

    name: str
    root: Node

    def __post_init__(self) -> None:
        names = [a.name for a in self.root.activities()]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise InvalidTaskError(
                f"task {self.name!r} has duplicate activity names: {sorted(duplicates)}"
            )
        if not names:
            raise InvalidTaskError(f"task {self.name!r} has no activities")

    @property
    def activities(self) -> List[Activity]:
        return self.root.activities()

    @property
    def activity_names(self) -> List[str]:
        return [a.name for a in self.activities]

    def activity(self, name: str) -> Activity:
        for a in self.activities:
            if a.name == name:
                return a
        raise InvalidTaskError(f"task {self.name!r} has no activity {name!r}")

    def size(self) -> int:
        """Number of abstract activities (the ``n`` of the experiments)."""
        return len(self.activities)

    def pattern_census(self) -> Dict[str, int]:
        """How many nodes of each pattern kind the tree contains."""
        census: Dict[str, int] = {}
        for node in self.root.walk():
            kind = type(node).__name__
            census[kind] = census.get(kind, 0) + 1
        return census

    def has_pattern(self, pattern_type: type) -> bool:
        return any(isinstance(node, pattern_type) for node in self.root.walk())
