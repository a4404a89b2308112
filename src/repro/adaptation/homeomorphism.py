"""Extended vertex-disjoint subgraph homeomorphism determination (§V.6).

Behavioural adaptation asks: *can the user's behavioural graph be found
inside an alternative behaviour from the task class?*  The paper reduces
this to subgraph homeomorphism with three extensions:

1. **Semantic vertex matching** (§6.2.1) — a pattern vertex may map to a
   host vertex whose capability label semantically satisfies it (EXACT or
   PLUGIN under the task ontology), not only to an identical label.
2. **Data constraints** (§6.2.2) — the mapped vertex must produce the
   outputs the pattern vertex promises and must not require inputs the
   pattern cannot provide.
3. **Particular vertex mappings** (§6.2.3) — one pattern vertex may map to
   a *chain* of host vertices (activity splitting: the alternative
   behaviour realises one coarse activity as several finer ones).

The determination itself is a most-constrained-first backtracking search:
pattern vertices are assigned images in increasing candidate-count order;
every pattern edge between mapped vertices must be realised by a directed
host path whose interior vertices are disjoint from every other image and
path interior (vertex-disjointness).  Preliminary verifications (§6.1)
reject hopeless pairs before the search starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.adaptation.behaviour_graph import BehaviouralGraph, Vertex
from repro.semantics.matching import MatchCache, MatchDegree, match_concepts
from repro.semantics.ontology import Ontology


@dataclass(frozen=True)
class HomeomorphismConfig:
    """Tuning of the determination procedure."""

    minimum_degree: MatchDegree = MatchDegree.PLUGIN
    allow_splits: bool = True
    max_split_length: int = 3
    check_data: bool = True
    max_backtrack_steps: int = 200_000


@dataclass
class PreliminaryReport:
    """Outcome of the §6.1 pre-checks."""

    vertex_count_ok: bool = True
    all_vertices_have_candidates: bool = True
    unmatchable_vertices: List[str] = field(default_factory=list)
    candidate_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.vertex_count_ok and self.all_vertices_have_candidates


@dataclass
class HomeomorphismResult:
    """The determination outcome.

    ``vertex_mapping`` maps each pattern vertex id to the *chain* of host
    vertex ids realising it (length 1 for plain mappings, >1 for splits).
    ``edge_paths`` maps each pattern edge to the host path (inclusive of
    endpoints) realising it.
    """

    found: bool
    vertex_mapping: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    edge_paths: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    preliminary: PreliminaryReport = field(default_factory=PreliminaryReport)
    backtrack_steps: int = 0
    elapsed_seconds: float = 0.0


class _Matcher:
    def __init__(
        self,
        pattern: BehaviouralGraph,
        host: BehaviouralGraph,
        ontology: Optional[Ontology],
        config: HomeomorphismConfig,
        match_cache: Optional["MatchCache"] = None,
    ) -> None:
        self.pattern = pattern
        self.host = host
        self.ontology = ontology
        self.config = config
        # Vertex labels repeat across candidate chains and backtracking
        # steps; memoising the grading pays even within a single search,
        # and a caller-supplied cache carries it across searches.
        self.match_cache: Optional[MatchCache] = None
        if ontology is not None:
            self.match_cache = (
                match_cache if match_cache is not None else MatchCache(ontology)
            )
        self.steps = 0

    # ------------------------------------------------------------------
    # semantic + data matching
    # ------------------------------------------------------------------
    def _label_degree(self, required: str, offered: str) -> MatchDegree:
        if self.ontology is None or not (
            self.ontology.is_class(required) and self.ontology.is_class(offered)
        ):
            return MatchDegree.EXACT if required == offered else MatchDegree.FAIL
        assert self.match_cache is not None
        return self.match_cache.match(required, offered)

    def _concept_covered(self, required: str, offered: FrozenSet[str]) -> bool:
        return any(
            self._label_degree(required, o) >= self.config.minimum_degree
            for o in offered
        )

    def _data_compatible(
        self, pattern_vertex: Vertex, chain: Sequence[Vertex]
    ) -> bool:
        """Data constraints (§6.2.2) between a pattern vertex and its image.

        * every output the pattern vertex promises must be produced by some
          vertex of the image chain;
        * every input a chain vertex requires must be provided by the
          pattern vertex (when the pattern declares inputs at all — an
          empty declaration means "unconstrained").
        """
        if not self.config.check_data:
            return True
        chain_outputs: FrozenSet[str] = frozenset().union(
            *(v.outputs for v in chain)
        ) if chain else frozenset()
        for required in pattern_vertex.outputs:
            if not self._concept_covered(required, chain_outputs):
                return False
        if pattern_vertex.inputs:
            for image in chain:
                for needed in image.inputs:
                    if not self._concept_covered(needed, pattern_vertex.inputs):
                        return False
        return True

    # ------------------------------------------------------------------
    # candidate image enumeration
    # ------------------------------------------------------------------
    def candidates(self, pattern_vertex: Vertex) -> List[Tuple[str, ...]]:
        """All admissible image chains for one pattern vertex.

        Plain single-vertex images first (cheapest), then split chains of
        increasing length whose every vertex's label is subsumed by the
        pattern label (§6.2.3: splitting a coarse activity into finer ones).
        """
        single: List[Tuple[str, ...]] = []
        for host_vertex in self.host.vertices():
            degree = self._label_degree(pattern_vertex.label, host_vertex.label)
            if degree < self.config.minimum_degree:
                continue
            if self._data_compatible(pattern_vertex, [host_vertex]):
                single.append((host_vertex.vertex_id,))

        if not self.config.allow_splits or self.config.max_split_length < 2:
            return single

        chains: List[Tuple[str, ...]] = []
        plugin_vertices = {
            v.vertex_id
            for v in self.host.vertices()
            if self._label_degree(pattern_vertex.label, v.label)
            >= self.config.minimum_degree
        }

        def extend(chain: List[str]) -> None:
            if len(chain) >= 2:
                vertices = [self.host.vertex(v) for v in chain]
                if self._data_compatible(pattern_vertex, vertices):
                    chains.append(tuple(chain))
            if len(chain) >= self.config.max_split_length:
                return
            for succ in sorted(self.host.successors(chain[-1])):
                if succ in plugin_vertices and succ not in chain:
                    extend(chain + [succ])

        for start in sorted(plugin_vertices):
            extend([start])
        return single + chains

    # ------------------------------------------------------------------
    # preliminary verifications (§6.1)
    # ------------------------------------------------------------------
    def preliminary(self) -> Tuple[PreliminaryReport, Dict[str, List[Tuple[str, ...]]]]:
        report = PreliminaryReport()
        if self.pattern.vertex_count() > self.host.vertex_count() * max(
            1, self.config.max_split_length
        ):
            report.vertex_count_ok = False
        candidate_map: Dict[str, List[Tuple[str, ...]]] = {}
        for vertex in self.pattern.vertices():
            options = self.candidates(vertex)
            candidate_map[vertex.vertex_id] = options
            report.candidate_counts[vertex.vertex_id] = len(options)
            if not options:
                report.all_vertices_have_candidates = False
                report.unmatchable_vertices.append(vertex.vertex_id)
        return report, candidate_map

    # ------------------------------------------------------------------
    # backtracking search
    # ------------------------------------------------------------------
    def _exclusive(self, pattern_a: str, pattern_b: str) -> bool:
        """Mutual exclusion between two pattern vertices (different branches
        of the same conditional — §V.6.2.3 merge mappings rest on this)."""
        return self.pattern.vertex(pattern_a).mutually_exclusive_with(
            self.pattern.vertex(pattern_b)
        )

    def search(
        self, candidate_map: Dict[str, List[Tuple[str, ...]]]
    ) -> Optional[Tuple[Dict[str, Tuple[str, ...]], Dict[Tuple[str, str], List[str]]]]:
        order = sorted(
            self.pattern.vertex_ids(), key=lambda v: len(candidate_map[v])
        )
        mapping: Dict[str, Tuple[str, ...]] = {}
        # host vertex id -> list of *owners* occupying it.  An owner is the
        # frozen set of pattern vertices whose execution the occupation
        # depends on: {v} for vertex v's image, {a, b} for the interior of
        # the path realising pattern edge (a, b).  Two owners may share a
        # host vertex iff they are *mutually exclusive* — some pair of their
        # pattern vertices sits in different branches of one conditional, so
        # at run time at most one occupation is live.  This realises the
        # merge-style particular vertex mappings of §V.6.2.3 while keeping
        # strict vertex-disjointness for everything that can co-execute.
        owners: Dict[str, List[FrozenSet[str]]] = {}
        paths: Dict[Tuple[str, str], List[str]] = {}

        def owners_exclusive(a: FrozenSet[str], b: FrozenSet[str]) -> bool:
            return any(
                self._exclusive(p, q) for p in a for q in b
            )

        def compatible(host_vertex: str, incoming: FrozenSet[str]) -> bool:
            return all(
                existing == incoming or owners_exclusive(existing, incoming)
                for existing in owners.get(host_vertex, ())
            )

        def occupy(host_vertices, owner: FrozenSet[str]) -> None:
            for hv in host_vertices:
                owners.setdefault(hv, []).append(owner)

        def release(host_vertices, owner: FrozenSet[str]) -> None:
            for hv in host_vertices:
                current = owners.get(hv)
                if current is None:
                    continue
                current.remove(owner)
                if not current:
                    del owners[hv]

        def try_connect(pattern_vertex: str) -> Optional[List[Tuple[Tuple[str, str], List[str]]]]:
            """Find host paths for every pattern edge between
            ``pattern_vertex`` and already-mapped neighbours.  Interiors are
            occupied incrementally so the exclusivity rule also governs
            sharing between this vertex's own edges."""
            new_paths: List[Tuple[Tuple[str, str], List[str]]] = []
            for p in (
                [(o, pattern_vertex) for o in self.pattern.predecessors(pattern_vertex) if o in mapping]
                + [(pattern_vertex, o) for o in self.pattern.successors(pattern_vertex) if o in mapping]
            ):
                source_pattern, target_pattern = p
                edge_owner = frozenset(p)
                blocked = {
                    hv for hv in owners if not compatible(hv, edge_owner)
                }
                source_host = mapping[source_pattern][-1]
                target_host = mapping[target_pattern][0]
                path = self.host.find_path(source_host, target_host, blocked)
                if path is None:
                    for key, done in new_paths:
                        release(done[1:-1], frozenset(key))
                    return None
                occupy(path[1:-1], edge_owner)
                new_paths.append((p, path))
            return new_paths

        def backtrack(index: int) -> bool:
            if index == len(order):
                return True
            self.steps += 1
            if self.steps > self.config.max_backtrack_steps:
                return False
            pattern_vertex = order[index]
            vertex_owner = frozenset({pattern_vertex})
            for chain in candidate_map[pattern_vertex]:
                if not all(compatible(hv, vertex_owner) for hv in chain):
                    continue
                mapping[pattern_vertex] = chain
                occupy(chain, vertex_owner)
                connections = try_connect(pattern_vertex)
                if connections is not None:
                    for key, path in connections:
                        paths[key] = path
                    if backtrack(index + 1):
                        return True
                    for key, path in connections:
                        release(path[1:-1], frozenset(key))
                        del paths[key]
                release(chain, vertex_owner)
                del mapping[pattern_vertex]
            return False

        if backtrack(0):
            return mapping, paths
        return None


def verify_embedding(
    pattern: BehaviouralGraph,
    host: BehaviouralGraph,
    result: HomeomorphismResult,
    ontology: Optional[Ontology] = None,
    config: HomeomorphismConfig = HomeomorphismConfig(),
) -> List[str]:
    """Independently check a claimed embedding; returns violation messages.

    Validates, without re-running the search:

    * every pattern vertex is mapped to a non-empty host chain whose
      consecutive vertices are host edges;
    * every chain vertex's label satisfies the pattern label at the
      configured degree;
    * every pattern edge has a path whose endpoints are the right chain
      tail/head and whose consecutive vertices are host edges;
    * occupation is exclusive: two occupations may share a host vertex only
      when their pattern owners are mutually exclusive (§V.6.2.3).

    An empty list means the embedding is sound.  Used by the test suite's
    soundness properties and available to users auditing repository
    behaviours.
    """
    problems: List[str] = []
    if not result.found:
        return ["result reports no embedding"]

    def degree(required: str, offered: str) -> MatchDegree:
        if ontology is None or not (
            ontology.is_class(required) and ontology.is_class(offered)
        ):
            return MatchDegree.EXACT if required == offered else MatchDegree.FAIL
        return match_concepts(ontology, required, offered)

    # --- vertex mappings ---------------------------------------------------
    for vertex in pattern.vertices():
        chain = result.vertex_mapping.get(vertex.vertex_id)
        if not chain:
            problems.append(f"pattern vertex {vertex.vertex_id} unmapped")
            continue
        for host_id in chain:
            host_vertex = host.vertex(host_id)
            if degree(vertex.label, host_vertex.label) < config.minimum_degree:
                problems.append(
                    f"label of {host_id} ({host_vertex.label}) does not "
                    f"satisfy {vertex.vertex_id} ({vertex.label})"
                )
        for a, b in zip(chain, chain[1:]):
            if not host.has_edge(a, b):
                problems.append(f"chain {chain} breaks at ({a}, {b})")

    # --- edge paths ----------------------------------------------------------
    for edge in pattern.edges():
        key = (edge.source, edge.target)
        path = result.edge_paths.get(key)
        if path is None:
            problems.append(f"pattern edge {key} has no host path")
            continue
        expected_start = result.vertex_mapping.get(edge.source, ("?",))[-1]
        expected_end = result.vertex_mapping.get(edge.target, ("?",))[0]
        if path[0] != expected_start or path[-1] != expected_end:
            problems.append(
                f"path for {key} connects ({path[0]}, {path[-1]}), expected "
                f"({expected_start}, {expected_end})"
            )
        for a, b in zip(path, path[1:]):
            if not host.has_edge(a, b):
                problems.append(f"path for {key} breaks at ({a}, {b})")

    # --- exclusive occupation ---------------------------------------------
    occupations: Dict[str, List[FrozenSet[str]]] = {}
    for pattern_id, chain in result.vertex_mapping.items():
        for host_id in chain:
            occupations.setdefault(host_id, []).append(
                frozenset({pattern_id})
            )
    for key, path in result.edge_paths.items():
        for host_id in path[1:-1]:
            occupations.setdefault(host_id, []).append(frozenset(key))

    def exclusive(a: FrozenSet[str], b: FrozenSet[str]) -> bool:
        return any(
            pattern.vertex(p).mutually_exclusive_with(pattern.vertex(q))
            for p in a
            for q in b
        )

    for host_id, owners in occupations.items():
        for i, owner_a in enumerate(owners):
            for owner_b in owners[i + 1:]:
                if owner_a == owner_b:
                    continue
                if not exclusive(owner_a, owner_b):
                    problems.append(
                        f"host vertex {host_id} shared by non-exclusive "
                        f"occupations {sorted(owner_a)} and {sorted(owner_b)}"
                    )
    return problems


def find_homeomorphism(
    pattern: BehaviouralGraph,
    host: BehaviouralGraph,
    ontology: Optional[Ontology] = None,
    config: HomeomorphismConfig = HomeomorphismConfig(),
    match_cache: Optional[MatchCache] = None,
) -> HomeomorphismResult:
    """Determine whether ``pattern`` is homeomorphic to a subgraph of
    ``host`` under the extended (semantic, data-constrained, split-capable,
    vertex-disjoint) definition of §V.6.

    ``match_cache`` lets callers that probe many hosts against one ontology
    (repository scans, behavioural adaptation) share memoised vertex-label
    gradings across searches."""
    started = time.perf_counter()
    matcher = _Matcher(pattern, host, ontology, config, match_cache)
    report, candidate_map = matcher.preliminary()
    if not report.passed:
        return HomeomorphismResult(
            found=False,
            preliminary=report,
            elapsed_seconds=time.perf_counter() - started,
        )
    outcome = matcher.search(candidate_map)
    elapsed = time.perf_counter() - started
    if outcome is None:
        return HomeomorphismResult(
            found=False,
            preliminary=report,
            backtrack_steps=matcher.steps,
            elapsed_seconds=elapsed,
        )
    mapping, paths = outcome
    return HomeomorphismResult(
        found=True,
        vertex_mapping=mapping,
        edge_paths=paths,
        preliminary=report,
        backtrack_steps=matcher.steps,
        elapsed_seconds=elapsed,
    )
