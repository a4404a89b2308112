"""QASSA's global phase, pinned: what it returns may not drift.

The global phase (lattice walk, repair, refine) may get faster, but its
output is part of the byte-identical-plans contract.  This module runs
seeded instances from :mod:`repro.experiments.fuzzing` (all three
aggregation approaches, random pattern trees, constrained, infeasible
and best-effort cases) through the four entry paths that reach
:meth:`QASSA.global_phase`: ``select``, ``select(best_effort=True)``,
``select_ranked(k=3)`` and :class:`DistributedQASSA`.  It hashes
everything they return into one digest:

* each ranked service, as its position in its activity's candidate list
  (service ids come from a process-global counter, positions do not);
* ``repr`` of the utility, of the aggregated QoS and of its exact values;
* feasibility, ``combinations_explored`` and ``utility_evaluations``;
* the message of every :class:`SelectionError`.

``GOLDEN`` changes only when QASSA's output is meant to change.  It is
kept per Python minor version: from 3.12 on, ``sum()`` over floats uses
compensated summation, so aggregates can differ in their last bits.

The last test checks that the global phase aggregates each distinct
assignment once, however often the walk, repair and refine score it: it
counts the calls of the compiled fold
(:class:`~repro.composition.aggregation.CompiledAggregation`) the phase
scores through, each a tuple of the bound services' value rows.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from typing import Dict, Iterator, NamedTuple, Tuple

import pytest

from repro.errors import SelectionError
from repro.composition.aggregation import CompiledAggregation
from repro.composition.distributed import DistributedQASSA, NodeAssignment
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.selection import relevant_properties
from repro.composition.task import Leaf, Sequence
from repro.experiments.fuzzing import FuzzInstance, FuzzSpec, generate_instance
from repro.observability import Observability

#: Larger than the default envelope, so lattice walks repair and refine.
SPEC = FuzzSpec(max_activities=6, max_services=12)
SEEDS = tuple(range(72))
RANKED_K = 3

#: sha256 over every outcome of :data:`SEEDS`, per Python minor version.
GOLDEN: Dict[Tuple[int, int], str] = {
    (3, 11): "6f5f4f6fbe66445040d92bce19c89d32d845e2a6355d9c1e20369370829c2364",
    (3, 12): "f0572260819a3f1259ce104df133d1e6949d459e4fbc0004a4e602c196ebae7e",
    (3, 13): "f0572260819a3f1259ce104df133d1e6949d459e4fbc0004a4e602c196ebae7e",
}


class Sweep(NamedTuple):
    """The pinned sweep's digest and the cases it covered."""

    digest: str
    cases: Counter


def _plan_line(plan, positions) -> str:
    ranked = ";".join(
        f"{name}:" + ",".join(
            str(positions[name][id(service)]) for service in chosen.services
        )
        for name, chosen in plan.selections.items()
    )
    stats = plan.statistics
    return (
        f"{ranked}|{plan.utility!r}|{plan.aggregated_qos!r}|"
        f"{sorted(plan.aggregated_qos.items())!r}|{plan.feasible}|"
        f"{stats.combinations_explored}|{stats.utility_evaluations}"
    )


def _outcomes(instance: FuzzInstance) -> Iterator[Tuple[str, object]]:
    """``(entry path, plans or the SelectionError)`` for each way into the
    global phase."""
    config = QassaConfig(seed=instance.seed)
    qassa = QASSA(instance.properties, instance.approach, config=config)
    distributed = DistributedQASSA(
        instance.properties, instance.approach, config=config
    )
    request, candidates = instance.request, instance.candidates
    names = candidates.activity_names()
    nodes = [
        NodeAssignment(f"node-{i}", names[i::2])
        for i in range(min(2, len(names)))
    ]
    runs = {
        "select": lambda: [qassa.select(request, candidates)],
        "best_effort": lambda: [
            qassa.select(request, candidates, best_effort=True)
        ],
        "ranked": lambda: qassa.select_ranked(request, candidates, k=RANKED_K),
        "distributed": lambda: [
            distributed.select(request, candidates, nodes)[0]
        ],
    }
    for label, run in runs.items():
        try:
            yield label, run()
        except SelectionError as exc:
            yield label, exc


def run_sweep(seeds=SEEDS, spec: FuzzSpec = SPEC) -> Sweep:
    """Run every seed through the four entry paths; digest the outcomes."""
    digest = hashlib.sha256()
    cases: Counter = Counter()
    for seed in seeds:
        instance = generate_instance(seed, spec)
        positions = {
            name: {id(service): i for i, service in enumerate(pool)}
            for name, pool in instance.candidates.items()
        }
        cases[instance.approach.value] += 1
        if not isinstance(instance.task.root, (Leaf, Sequence)):
            cases["patterns"] += 1
        if instance.request.constraints:
            cases["constrained"] += 1
        for label, outcome in _outcomes(instance):
            if isinstance(outcome, SelectionError):
                cases[f"{label} raised"] += 1
                line = f"SelectionError: {outcome}"
            else:
                if not outcome[0].feasible:
                    cases[f"{label} infeasible"] += 1
                line = " || ".join(
                    _plan_line(plan, positions) for plan in outcome
                )
            digest.update(f"{seed} {label} {line}\n".encode())
    return Sweep(digest.hexdigest(), cases)


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    return run_sweep()


def test_the_pinned_sweep_covers_every_case(sweep):
    cases = sweep.cases
    assert cases["pessimistic"] and cases["optimistic"] and cases["mean"]
    for case in ("patterns", "constrained", "select raised",
                 "ranked raised", "distributed raised",
                 "best_effort infeasible"):
        assert cases[case] > 0, (case, cases)


def test_global_phase_output_matches_the_golden_digest(sweep):
    version = sys.version_info[:2]
    if not GOLDEN.get(version):
        pytest.skip(f"no golden digest recorded for Python {version}")
    assert sweep.digest == GOLDEN[version], (
        "QASSA's global phase changed its output on the pinned sweep; "
        "update GOLDEN only for an intended change of QASSA's output"
    )


def test_each_distinct_assignment_is_aggregated_once(monkeypatch):
    instance = generate_instance(2, SPEC)
    relevant = relevant_properties(instance.properties, instance.request)
    positions = {
        tuple(service.advertised_qos[n] for n in relevant): (name, i)
        for name, pool in instance.candidates.items()
        for i, service in enumerate(pool)
    }
    assert len(positions) == sum(instance.candidates.sizes().values())
    aggregated = []
    real = CompiledAggregation.__call__

    def counting(self, rows):
        aggregated.append(tuple(positions[row] for row in rows))
        return real(self, rows)

    monkeypatch.setattr(CompiledAggregation, "__call__", counting)
    obs = Observability()
    plan = QASSA(
        instance.properties, instance.approach,
        config=QassaConfig(seed=instance.seed), observability=obs,
    ).select(instance.request, instance.candidates)

    (global_span,) = obs.spans[0].find("qassa.global")
    assert len(aggregated) == len(set(aggregated))
    assert len(aggregated) == global_span.attributes["aggregations"]
    assert len(aggregated) < plan.statistics.utility_evaluations
