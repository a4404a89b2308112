"""The five comparison selectors, pinned: what they return may not drift.

:class:`ExhaustiveSelection`, :class:`GreedySelection`,
:class:`RandomSelection`, :class:`GeneticSelection` and the exact oracle
(:class:`ExactSelection`) are the references QASSA is measured against
(§VI.3.2).  Their code may be restructured, but their output is part of
the byte-identical-plans contract.  This module runs seeded instances from
:mod:`repro.experiments.fuzzing` through each of them in two arms, plain
(``best_effort=False``, no alternates) and best-effort with two ranked
alternates, and hashes everything they return into one digest:

* each ranked service, as its position in its activity's candidate list
  (service ids come from a process-global counter, positions do not);
* ``repr`` of the utility, of the aggregated QoS and of its exact values;
* feasibility, ``combinations_explored``, ``utility_evaluations`` and
  ``statistics.extra``;
* the message of every :class:`SelectionError`.

``elapsed_seconds`` is left out.  Exhaustive enumeration runs only where
the space holds at most :data:`EXHAUSTIVE_CAP` assignments; the
differential suite checks there that the oracle equals it.

``GOLDEN`` changes only when a selector's output is meant to change.  It
is kept per Python minor version: from 3.12 on, ``sum()`` over floats uses
compensated summation, so aggregates can differ in their last bits.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from typing import Dict, Iterator, NamedTuple, Tuple

import pytest

from repro.errors import SelectionError
from repro.composition.baselines import (
    ExhaustiveSelection,
    GeneticSelection,
    GreedySelection,
    RandomSelection,
)
from repro.composition.exact import ExactSelection
from repro.experiments.fuzzing import FuzzInstance, FuzzSpec, generate_instance

SPEC = FuzzSpec(max_activities=6, max_services=12)
SEEDS = tuple(range(40))
#: Largest assignment space the exhaustive enumeration runs on.
EXHAUSTIVE_CAP = 2_000
#: ``(best_effort, alternates)`` per arm.
ARMS = ((False, 0), (True, 2))

#: sha256 over every outcome of :data:`SEEDS`, per Python minor version.
GOLDEN: Dict[Tuple[int, int], str] = {
    (3, 11): "9360a41e6fe0f8e8677954ff1789d391935ba12712a35b722fcedcf61dcb5eb0",
    (3, 12): "9a564dbeffc16ab2369e3f44cdc609d165d049f0387112942adbe4b00db741c4",
    (3, 13): "9a564dbeffc16ab2369e3f44cdc609d165d049f0387112942adbe4b00db741c4",
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
        f"{stats.combinations_explored}|{stats.utility_evaluations}|"
        f"{sorted(stats.extra.items())!r}"
    )


def _selectors(instance: FuzzInstance) -> Iterator[Tuple[str, object]]:
    props, approach, seed = (
        instance.properties, instance.approach, instance.seed
    )
    yield "exact", ExactSelection(props, approach)
    yield "greedy", GreedySelection(props, approach)
    yield "random", RandomSelection(props, approach, attempts=30, seed=seed)
    yield "genetic", GeneticSelection(
        props, approach, population_size=16, generations=8, seed=seed
    )
    if instance.search_space <= EXHAUSTIVE_CAP:
        yield "exhaustive", ExhaustiveSelection(props, approach)


def _outcomes(instance: FuzzInstance) -> Iterator[Tuple[str, object]]:
    """``(selector and arm, plan or the SelectionError)`` per run."""
    for label, selector in _selectors(instance):
        for best_effort, alternates in ARMS:
            arm = f"{label} best_effort={best_effort} alternates={alternates}"
            try:
                yield arm, selector.select(
                    instance.request, instance.candidates,
                    best_effort=best_effort, alternates=alternates,
                )
            except SelectionError as exc:
                yield arm, exc


def run_sweep(seeds=SEEDS, spec: FuzzSpec = SPEC) -> Sweep:
    """Run every seed through every selector and arm; digest the
    outcomes."""
    digest = hashlib.sha256()
    cases: Counter = Counter()
    for seed in seeds:
        instance = generate_instance(seed, spec)
        positions = {
            name: {id(service): i for i, service in enumerate(pool)}
            for name, pool in instance.candidates.items()
        }
        for arm, outcome in _outcomes(instance):
            label = arm.split()[0]
            if isinstance(outcome, SelectionError):
                cases[f"{label} raised"] += 1
                line = f"SelectionError: {outcome}"
            else:
                if not outcome.feasible:
                    cases[f"{label} infeasible"] += 1
                elif any(sel.alternates for sel in outcome.selections.values()):
                    cases[f"{label} alternates"] += 1
                line = _plan_line(outcome, positions)
            digest.update(f"{seed} {arm} {line}\n".encode())
    return Sweep(digest.hexdigest(), cases)


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    return run_sweep()


def test_the_pinned_sweep_covers_every_case(sweep):
    for label in ("exact", "greedy", "random", "genetic", "exhaustive"):
        for case in ("raised", "infeasible", "alternates"):
            assert sweep.cases[f"{label} {case}"] > 0, (label, case, sweep.cases)


def test_selector_output_matches_the_golden_digest(sweep):
    version = sys.version_info[:2]
    if not GOLDEN.get(version):
        pytest.skip(f"no golden digest recorded for Python {version}")
    assert sweep.digest == GOLDEN[version], (
        "a comparison selector changed its output on the pinned sweep; "
        "update GOLDEN only for an intended change of a selector's output"
    )
