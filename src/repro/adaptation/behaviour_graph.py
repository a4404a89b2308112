"""Labelled behavioural graphs and the task → graph transformation (§V.4).

Behavioural adaptation compares *behaviours* — alternative activity
structures fulfilling the same task — as directed labelled graphs:

* a **vertex** per abstract activity, labelled with its capability concept
  and carrying its data signature (inputs/outputs);
* an **edge** per direct control dependency;
* loop patterns are *simplified* (Fig. V.4): the body appears once and the
  enclosing vertices are annotated ``in_loop`` — homeomorphism determination
  works on the simplified acyclic structure, as in the paper.

The transformation from a pattern tree recursively computes each node's
entry/exit vertex sets and wires sequences end-to-start; parallel and
conditional branches become parallel paths (conditional edges are annotated
``xor`` so the comparison can distinguish them when needed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import BehaviouralAdaptationError
from repro.composition.task import (
    Activity,
    Conditional,
    Leaf,
    Loop,
    Node,
    Parallel,
    Sequence,
    Task,
)


@dataclass(frozen=True)
class Vertex:
    """One behavioural-graph vertex (an abstract activity occurrence).

    ``branch_path`` records the conditional branches enclosing the
    activity as ``(conditional id, branch index)`` pairs, outermost first.
    Two vertices whose paths name the same conditional with *different*
    branch indexes are mutually exclusive at run time — at most one of them
    executes — which the homeomorphism matcher exploits for the merge-style
    particular vertex mappings of §V.6.2.3.
    """

    vertex_id: str
    label: str                      # capability concept URI
    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    in_loop: bool = False
    activity_name: Optional[str] = None
    branch_path: Tuple[Tuple[int, int], ...] = ()

    def mutually_exclusive_with(self, other: "Vertex") -> bool:
        """True when the two activities can never both execute (they sit in
        different branches of the same conditional)."""
        mine = dict(self.branch_path)
        for conditional_id, branch in other.branch_path:
            if conditional_id in mine and mine[conditional_id] != branch:
                return True
        return False

    def __str__(self) -> str:
        return f"{self.vertex_id}:{self.label}"


@dataclass(frozen=True)
class Edge:
    """A control-dependency edge; ``xor`` marks conditional branching."""

    source: str
    target: str
    xor: bool = False


class BehaviouralGraph:
    """A directed labelled graph over activity vertices."""

    def __init__(self, name: str = "behaviour") -> None:
        self.name = name
        self._vertices: Dict[str, Vertex] = {}
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}

    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> Vertex:
        if vertex.vertex_id in self._vertices:
            raise BehaviouralAdaptationError(
                f"duplicate vertex id {vertex.vertex_id!r}"
            )
        self._vertices[vertex.vertex_id] = vertex
        self._succ.setdefault(vertex.vertex_id, set())
        self._pred.setdefault(vertex.vertex_id, set())
        return vertex

    def add_edge(self, source: str, target: str, xor: bool = False) -> Edge:
        for v in (source, target):
            if v not in self._vertices:
                raise BehaviouralAdaptationError(f"unknown vertex {v!r}")
        edge = Edge(source, target, xor)
        self._edges[(source, target)] = edge
        self._succ[source].add(target)
        self._pred[target].add(source)
        return edge

    # ------------------------------------------------------------------
    def vertex(self, vertex_id: str) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise BehaviouralAdaptationError(
                f"unknown vertex {vertex_id!r}"
            ) from None

    def vertices(self) -> List[Vertex]:
        return list(self._vertices.values())

    def vertex_ids(self) -> List[str]:
        return list(self._vertices)

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def successors(self, vertex_id: str) -> Set[str]:
        return set(self._succ.get(vertex_id, ()))

    def predecessors(self, vertex_id: str) -> Set[str]:
        return set(self._pred.get(vertex_id, ()))

    def out_degree(self, vertex_id: str) -> int:
        return len(self._succ.get(vertex_id, ()))

    def in_degree(self, vertex_id: str) -> int:
        return len(self._pred.get(vertex_id, ()))

    def sources(self) -> List[str]:
        return [v for v in self._vertices if not self._pred[v]]

    def sinks(self) -> List[str]:
        return [v for v in self._vertices if not self._succ[v]]

    def vertex_count(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return len(self._edges)

    def labels(self) -> Set[str]:
        return {v.label for v in self._vertices.values()}

    def has_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._edges

    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn topological sort; raises on cycles (graphs are simplified,
        so a cycle indicates a malformed hand-built graph)."""
        in_deg = {v: self.in_degree(v) for v in self._vertices}
        ready = sorted([v for v, d in in_deg.items() if d == 0])
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for succ in sorted(self._succ[current]):
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._vertices):
            raise BehaviouralAdaptationError(
                f"behavioural graph {self.name!r} contains a cycle"
            )
        return order

    def find_path(
        self,
        source: str,
        target: str,
        forbidden: Set[str],
    ) -> Optional[List[str]]:
        """A shortest directed path source→target avoiding ``forbidden``
        interior vertices (endpoints excepted).  Returns the vertex list
        including endpoints, or None."""
        if source == target:
            return [source]
        frontier = [source]
        parents: Dict[str, str] = {}
        seen = {source}
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for succ in sorted(self._succ[current]):
                    if succ in seen:
                        continue
                    if succ != target and succ in forbidden:
                        continue
                    parents[succ] = current
                    if succ == target:
                        path = [target]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    seen.add(succ)
                    next_frontier.append(succ)
            frontier = next_frontier
        return None

    def __repr__(self) -> str:
        return (
            f"BehaviouralGraph({self.name!r}, |V|={self.vertex_count()}, "
            f"|E|={self.edge_count()})"
        )


# ----------------------------------------------------------------------
# task -> behavioural graph transformation
# ----------------------------------------------------------------------
def task_to_graph(task: Task) -> BehaviouralGraph:
    """Transform a user task into its behavioural graph (Fig. V.3).

    This is the operation whose cost Fig. VI.13 measures (there, from
    abstract BPEL — :func:`repro.execution.bpel.parse_bpel` feeds the same
    transformation).
    """
    graph = BehaviouralGraph(task.name)
    counter = itertools.count(1)
    conditional_counter = itertools.count(1)

    def fresh_vertex(
        activity: Activity,
        in_loop: bool,
        branch_path: Tuple[Tuple[int, int], ...],
    ) -> Vertex:
        vertex = Vertex(
            vertex_id=f"v{next(counter)}",
            label=activity.capability,
            inputs=activity.inputs,
            outputs=activity.outputs,
            in_loop=in_loop,
            activity_name=activity.name,
            branch_path=branch_path,
        )
        graph.add_vertex(vertex)
        return vertex

    def build(
        node: Node,
        in_loop: bool,
        branch_path: Tuple[Tuple[int, int], ...],
    ) -> Tuple[List[str], List[str]]:
        """Returns (entry vertex ids, exit vertex ids)."""
        if isinstance(node, Leaf):
            v = fresh_vertex(node.activity, in_loop, branch_path)
            return [v.vertex_id], [v.vertex_id]
        if isinstance(node, Sequence):
            entries: List[str] = []
            exits: List[str] = []
            for member in node.members:
                m_entries, m_exits = build(member, in_loop, branch_path)
                if not entries:
                    entries = m_entries
                else:
                    for e in exits:
                        for s in m_entries:
                            graph.add_edge(e, s)
                exits = m_exits
            return entries, exits
        if isinstance(node, Parallel):
            entries, exits = [], []
            for branch in node.branches:
                b_entries, b_exits = build(branch, in_loop, branch_path)
                entries.extend(b_entries)
                exits.extend(b_exits)
            return entries, exits
        if isinstance(node, Conditional):
            conditional_id = next(conditional_counter)
            entries, exits = [], []
            for index, branch in enumerate(node.branches):
                b_entries, b_exits = build(
                    branch, in_loop,
                    branch_path + ((conditional_id, index),),
                )
                entries.extend(b_entries)
                exits.extend(b_exits)
            return entries, exits
        if isinstance(node, Loop):
            # Loop simplification (Fig. V.4): single body occurrence, marked.
            return build(node.body, True, branch_path)
        raise BehaviouralAdaptationError(
            f"unknown pattern node {type(node).__name__}"
        )

    build(task.root, False, ())

    # Annotate conditional entry edges as xor, in a second pass: when a
    # Conditional node's branches all hang off the same predecessors, their
    # first edges are alternatives, not parallel work.  We re-walk the tree
    # and mark edges entering conditional branches.
    def mark_xor(node: Node) -> None:
        if isinstance(node, Conditional):
            branch_entry_names = set()
            for branch in node.branches:
                first = branch.activities()[0]
                branch_entry_names.add(first.name)
            for edge in graph.edges():
                target = graph.vertex(edge.target)
                if target.activity_name in branch_entry_names:
                    graph._edges[(edge.source, edge.target)] = Edge(
                        edge.source, edge.target, xor=True
                    )
        for child in node.children():
            mark_xor(child)

    mark_xor(task.root)
    return graph
