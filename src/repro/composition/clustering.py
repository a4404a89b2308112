"""K-means clustering of service candidates into QoS levels (§IV.3.2).

QASSA's local selection phase clusters each activity's candidate services in
normalised QoS space (:func:`kmeans`).  Clusters are then ranked by the
utility of their centroid (:func:`rank_levels`), yielding **QoS levels**
``QL_r`` (rank 0 = best).  Services inside a level that share (quantised)
QoS values form **QoS classes** ``QC_{r,e}``.

Only the ranking reads the user's weights: the clusters depend on the
normalised points and the set of dimensions, so QASSA clusters a candidate
pool once and re-ranks its clusters for every new weight profile.

The implementation is a plain Lloyd's algorithm over dicts of normalised
values — pure Python, deterministic under a seed, with k-means++
style seeding for robustness.  The computational complexity symbol the
paper calls Δ (Delta) corresponds to ``iterations × k × n × d``.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SelectionError

logger = logging.getLogger(__name__)


Point = Dict[str, float]


def _distance_squared(a: Point, b: Point, dims: Sequence[str]) -> float:
    total = 0.0
    for d in dims:
        delta = a.get(d, 0.0) - b.get(d, 0.0)
        total += delta * delta
    return total


def _centroid(points: Sequence[Point], dims: Sequence[str]) -> Point:
    n = len(points)
    return {d: sum(p.get(d, 0.0) for p in points) / n for d in dims}


@dataclass
class Cluster:
    """One k-means cluster: member indexes into the input list + centroid."""

    members: List[int]
    centroid: Point

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class KMeansResult:
    clusters: List[Cluster]
    iterations: int
    inertia: float

    @property
    def k(self) -> int:
        return len(self.clusters)


def kmeans(
    points: Sequence[Point],
    k: int,
    dims: Sequence[str],
    seed: int = 0,
    max_iterations: int = 50,
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding over dict-valued points.

    ``k`` is clamped to ``len(points)``; empty clusters are dropped from the
    result rather than re-seeded (the level ranking only needs non-empty
    clusters), with a warning when fewer than ``k`` clusters remain.
    """
    if not points:
        raise SelectionError("cannot cluster an empty candidate set")
    k = min(k, len(points))
    rng = random.Random(seed)

    # k-means++ seeding.  Points coinciding with an already-chosen centroid
    # (distance 0) are never re-picked: a duplicate seed can only produce an
    # empty cluster that gets silently dropped, shrinking the level ladder.
    centroids: List[Point] = [dict(points[rng.randrange(len(points))])]
    while len(centroids) < k:
        distances = [
            min(_distance_squared(p, c, dims) for c in centroids) for p in points
        ]
        total = sum(distances)
        if total <= 0:
            # Every point coincides with an existing centroid; further seeds
            # would all be duplicates.  Stop with fewer, distinct centroids.
            break
        threshold = rng.uniform(0, total)
        cumulative = 0.0
        picked: Optional[int] = None
        for i, d in enumerate(distances):
            if d <= 0.0:
                continue
            cumulative += d
            if cumulative >= threshold:
                picked = i
                break
        if picked is None:
            # Floating-point shortfall in the cumulative sum; the farthest
            # point is distinct from every centroid because total > 0.
            picked = max(range(len(points)), key=distances.__getitem__)
        centroids.append(dict(points[picked]))

    assignment = [-1] * len(points)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        changed = False
        buckets: List[List[int]] = [[] for _ in centroids]
        for i, p in enumerate(points):
            best_j = min(
                range(len(centroids)),
                key=lambda j: _distance_squared(p, centroids[j], dims),
            )
            buckets[best_j].append(i)
            if assignment[i] != best_j:
                assignment[i] = best_j
                changed = True
        new_centroids: List[Point] = []
        for j, bucket in enumerate(buckets):
            if bucket:
                new_centroids.append(_centroid([points[i] for i in bucket], dims))
            else:
                new_centroids.append(centroids[j])
        centroids = new_centroids
        if not changed:
            break

    clusters = []
    buckets = [[] for _ in centroids]
    for i, j in enumerate(assignment):
        buckets[j].append(i)
    inertia = 0.0
    for j, bucket in enumerate(buckets):
        if not bucket:
            continue
        clusters.append(Cluster(members=bucket, centroid=centroids[j]))
        inertia += sum(
            _distance_squared(points[i], centroids[j], dims) for i in bucket
        )
    if len(clusters) < k:
        logger.warning(
            "k-means produced %d QoS levels out of %d requested "
            "(duplicate candidate QoS collapses clusters)",
            len(clusters),
            k,
        )
    return KMeansResult(clusters=clusters, iterations=iterations, inertia=inertia)


@dataclass
class QoSLevel:
    """A ranked cluster of services for one activity (``QL_r``).

    ``rank`` 0 is the best level.  ``member_indexes`` index into the
    activity's candidate list; ``centroid_utility`` is the SAW utility of
    the centroid under the user's weights; ``representative`` is the index
    of the highest-utility member (used as the level's stand-in during the
    global phase).
    """

    rank: int
    member_indexes: List[int]
    centroid: Point
    centroid_utility: float
    representative: int

    def __len__(self) -> int:
        return len(self.member_indexes)


def rank_levels(
    clusters: Sequence[Cluster],
    utilities: Sequence[float],
    weights: Mapping[str, float],
) -> List[QoSLevel]:
    """Rank k-means clusters into QoS levels under the user's weights.

    ``utilities`` are the per-candidate SAW utilities, indexed like the
    clusters' members.  A cluster's centroid utility is the weighted sum of
    its centroid's dimensions -- the utility "a typical member" offers; the
    levels are sorted by it, best first, ties keeping the clusters' order.
    Each level lists its members best utility first and takes the best one
    as its representative.  The clusters are not modified: every level gets
    its own member list and centroid copy.
    """
    dims = sorted(weights)
    levels: List[QoSLevel] = []
    for cluster in clusters:
        centroid_utility = sum(
            weights[d] * cluster.centroid.get(d, 0.0) for d in dims
        )
        representative = max(cluster.members, key=lambda i: utilities[i])
        levels.append(
            QoSLevel(
                rank=-1,
                member_indexes=sorted(
                    cluster.members, key=lambda i: -utilities[i]
                ),
                centroid=dict(cluster.centroid),
                centroid_utility=centroid_utility,
                representative=representative,
            )
        )
    levels.sort(key=lambda lv: -lv.centroid_utility)
    for rank, level in enumerate(levels):
        level.rank = rank
    return levels


def build_qos_levels(
    points: Sequence[Point],
    utilities: Sequence[float],
    weights: Mapping[str, float],
    k: int,
    seed: int = 0,
) -> Tuple[List[QoSLevel], KMeansResult]:
    """Cluster normalised candidate QoS and rank clusters into QoS levels.

    ``points`` are normalised (1 = best) per-property scores; ``utilities``
    the per-candidate SAW utilities (same order).  :func:`kmeans` over the
    weighted dimensions followed by :func:`rank_levels`.
    """
    result = kmeans(points, k, sorted(weights), seed=seed)
    return rank_levels(result.clusters, utilities, weights), result


def quantise_classes(
    level: QoSLevel,
    points: Sequence[Point],
    decimals: int = 2,
) -> Dict[Tuple, List[int]]:
    """Group a level's members into QoS classes ``QC_{r,e}``.

    Members whose normalised QoS coincide after rounding belong to the same
    class — they are interchangeable for substitution purposes.
    """
    classes: Dict[Tuple, List[int]] = {}
    for i in level.member_indexes:
        key = tuple(
            (name, round(value, decimals))
            for name, value in sorted(points[i].items())
        )
        classes.setdefault(key, []).append(i)
    return classes
