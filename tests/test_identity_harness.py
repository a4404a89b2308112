"""One identity harness: every selection and runtime path, pinned.

QASOM promises that a request composes to the same plan on every path.
Each seed of :data:`SPEC` is generated once and run through:

* QASSA's four entry paths (seeds 0-71): ``select``,
  ``select(best_effort=True)``, ``select_ranked(k=3)`` and
  :class:`DistributedQASSA`, on one QASSA whose :class:`SelectionCache`
  makes every path after ``select`` warm;
* the five comparison selectors of §VI.3.2 (seeds 0-39), plain and
  best-effort with two alternates, exhaustive enumeration only up to
  :data:`EXHAUSTIVE_CAP` assignments;
* a world built from the instance (seeds 0-39,
  :func:`tests.worlds.instance_world`), which takes the request, best
  effort, plan-only and then executing: serially, and on each runtime
  backend for the worlds :data:`RUNTIMES` gives it.  Execution changes a
  world, so each path runs on its own fresh one.

A selection family hashes one line per path and instance: each ranked
service as its position in its activity's pool (service ids come from a
process-global counter); ``repr`` of the utility, of the aggregated QoS
and of its values; feasibility, ``combinations_explored``,
``utility_evaluations`` and, for the selectors, ``statistics.extra``
(DistributedQASSA's holds wall-clock timings); every
:class:`SelectionError`'s message.  The worlds compare
:func:`plan_signature` and :func:`report_signature` across paths and
with QASSA's best-effort select.

A golden digest changes only when that output is meant to change.  It is
kept per Python minor version: from 3.12 on, ``sum()`` over floats uses
compensated summation, so aggregates can differ in their last bits.
``python -m tests.test_identity_harness`` prints both digests and every
outcome line, for a re-pin to show what it changed.

Each instance, path run and sweep is computed once per session.  This
module checks the warm select, the serial submits and the runtimes;
``tests/test_qassa_global_identity.py`` and
``tests/test_selector_identity.py`` check each family's coverage and
golden digest.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.errors import SelectionError
from repro.composition.baselines import (
    ExhaustiveSelection,
    GeneticSelection,
    GreedySelection,
    RandomSelection,
)
from repro.composition.distributed import DistributedQASSA, NodeAssignment
from repro.composition.exact import ExactSelection
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.selection_cache import SelectionCache
from repro.experiments.fuzzing import (
    FuzzInstance,
    FuzzSpec,
    generate_instance,
    plan_signature,
    report_signature,
)
from repro.runtime import MiddlewareRuntime, RuntimeConfig

from tests.worlds import instance_world

#: Larger than the default envelope, so lattice walks repair and refine.
SPEC = FuzzSpec(max_activities=6, max_services=12)
QASSA_SEEDS = range(72)
SELECTOR_SEEDS = WORLD_SEEDS = range(40)
#: Per runtime backend, its workers and the worlds it serves.  Each
#: process worker is a spawned interpreter (about 0.3 s), so the process
#: runtime runs one worker on one world, one whose execution substitutes
#: a service.
RUNTIMES = {"thread": (2, WORLD_SEEDS), "process": (1, (4,))}
#: Largest assignment space the exhaustive enumeration runs on.
EXHAUSTIVE_CAP = 2_000

#: sha256 over every QASSA outcome of the sweep, per Python minor version.
QASSA_GOLDEN: Dict[Tuple[int, int], str] = {
    (3, 11): "55d872c6c8ed8a58dbe2785882fe2d46d3aaddf09047157a9be4486b01bf1773",
    (3, 12): "1c51bdb0397572b5d0d9d44220d06c1cd165f2dc5c87564ccfa8aacc667f1926",
    (3, 13): "1c51bdb0397572b5d0d9d44220d06c1cd165f2dc5c87564ccfa8aacc667f1926",
}

#: sha256 over every selector outcome of the sweep, per Python minor
#: version.
SELECTOR_GOLDEN: Dict[Tuple[int, int], str] = {
    (3, 11): "9360a41e6fe0f8e8677954ff1789d391935ba12712a35b722fcedcf61dcb5eb0",
    (3, 12): "9a564dbeffc16ab2369e3f44cdc609d165d049f0387112942adbe4b00db741c4",
    (3, 13): "9a564dbeffc16ab2369e3f44cdc609d165d049f0387112942adbe4b00db741c4",
}


class Sweep(NamedTuple):
    """A family's digest, the cases it covered and its outcome lines."""

    digest: str
    cases: Counter
    lines: List[str]


def _attempt(run):
    """``run()``'s plans, or the :class:`SelectionError` it raised."""
    try:
        return run()
    except SelectionError as exc:
        return exc


def qassa_paths(instance: FuzzInstance) -> dict:
    """Each way into QASSA's global phase -> its plans or error."""
    qassa = QASSA(
        instance.properties, instance.approach,
        config=QassaConfig(seed=instance.seed), cache=SelectionCache(),
    )
    distributed = DistributedQASSA(instance.properties, instance.approach)
    distributed.qassa = qassa
    request, candidates = instance.request, instance.candidates
    names = candidates.activity_names()
    nodes = [
        NodeAssignment(f"node-{i}", names[i::2])
        for i in range(min(2, len(names)))
    ]
    return {
        "select": _attempt(lambda: [qassa.select(request, candidates)]),
        "best_effort": _attempt(lambda: [
            qassa.select(request, candidates, best_effort=True)
        ]),
        "ranked": _attempt(
            lambda: qassa.select_ranked(request, candidates, k=3)
        ),
        "distributed": _attempt(lambda: [
            distributed.select(request, candidates, nodes)[0]
        ]),
    }


def selector_paths(instance: FuzzInstance) -> dict:
    """Each comparison selector in each arm -> its plan or error."""
    props, approach, seed = (
        instance.properties, instance.approach, instance.seed
    )
    selectors = {
        "exact": ExactSelection(props, approach),
        "greedy": GreedySelection(props, approach),
        "random": RandomSelection(props, approach, attempts=30, seed=seed),
        "genetic": GeneticSelection(
            props, approach, population_size=16, generations=8, seed=seed
        ),
    }
    if instance.search_space <= EXHAUSTIVE_CAP:
        selectors["exhaustive"] = ExhaustiveSelection(props, approach)
    return {
        f"{label} best_effort={best_effort} alternates={alternates}":
            _attempt(lambda: [selector.select(
                instance.request, instance.candidates,
                best_effort=best_effort, alternates=alternates,
            )])
        for label, selector in selectors.items()
        for best_effort, alternates in ((False, 0), (True, 2))
    }


def _plan_line(plan, positions, extra: bool) -> str:
    ranked = ";".join(
        f"{name}:" + ",".join(
            str(positions[name][id(service)]) for service in chosen.services
        )
        for name, chosen in plan.selections.items()
    )
    stats = plan.statistics
    line = (
        f"{ranked}|{plan.utility!r}|{plan.aggregated_qos!r}|"
        f"{sorted(plan.aggregated_qos.items())!r}|{plan.feasible}|"
        f"{stats.combinations_explored}|{stats.utility_evaluations}"
    )
    return line + f"|{sorted(stats.extra.items())!r}" if extra else line


def digest(instances, outcomes, extra: bool) -> Sweep:
    """Hash ``outcomes`` (seed -> path -> plans or error) into one sweep;
    ``instances`` maps each seed to its instance."""
    sha, cases, lines = hashlib.sha256(), Counter(), []
    for seed, paths in outcomes.items():
        positions = {
            name: {id(service): i for i, service in enumerate(pool)}
            for name, pool in instances[seed].candidates.items()
        }
        for label, outcome in paths.items():
            path = label.split()[0]
            if isinstance(outcome, SelectionError):
                cases[f"{path} raised"] += 1
                text = f"SelectionError: {outcome}"
            else:
                if not outcome[0].feasible:
                    cases[f"{path} infeasible"] += 1
                elif any(sel.alternates
                         for sel in outcome[0].selections.values()):
                    cases[f"{path} alternates"] += 1
                text = " || ".join(
                    _plan_line(plan, positions, extra) for plan in outcome
                )
            lines.append(f"{seed} {label} {text}\n")
            sha.update(lines[-1].encode())
    return Sweep(sha.hexdigest(), cases, lines)


def world_outcomes(instance: FuzzInstance, backend=None) -> list:
    """Submit the request plan-only, then executing, to a fresh world:
    serially, or through a runtime on ``backend``.  Returns each
    submission's plan signature, and the executing one's report's."""
    middleware = instance_world(instance)
    runs = (dict(execute=False, best_effort=True),
            dict(execute=True, best_effort=True))
    if backend is None:
        handles = [middleware.submit(instance.request, **run) for run in runs]
    else:
        config = RuntimeConfig(backend=backend, workers=RUNTIMES[backend][0])
        with MiddlewareRuntime(middleware, config) as runtime:
            handles = [runtime.submit(instance.request, **run) for run in runs]
            runtime.drain(timeout=120.0)
    return [
        (plan_signature(handle.plan()),) + (
            (report_signature(handle.result().report),)
            if handle.spec.execute else ()
        )
        for handle in handles
    ]


@functools.lru_cache(maxsize=None)
def instances() -> Dict[int, FuzzInstance]:
    """Seed -> instance, for every seed the harness runs."""
    return {seed: generate_instance(seed, SPEC) for seed in QASSA_SEEDS}


@functools.lru_cache(maxsize=None)
def qassa_outcomes() -> dict:
    return {seed: qassa_paths(instances()[seed]) for seed in QASSA_SEEDS}


@functools.lru_cache(maxsize=None)
def qassa_sweep() -> Sweep:
    return digest(instances(), qassa_outcomes(), extra=False)


@functools.lru_cache(maxsize=None)
def selector_sweep() -> Sweep:
    return digest(
        instances(),
        {seed: selector_paths(instances()[seed]) for seed in SELECTOR_SEEDS},
        extra=True,
    )


@functools.lru_cache(maxsize=None)
def serial_outcomes() -> dict:
    return {seed: world_outcomes(instances()[seed]) for seed in WORLD_SEEDS}


def check_golden(sweep: Sweep, golden, family: str) -> None:
    """``sweep`` hashes to this interpreter's digest in ``golden``."""
    version = sys.version_info[:2]
    if not golden.get(version):
        pytest.skip(f"no golden digest recorded for Python {version}")
    assert sweep.digest == golden[version], (
        f"{family} changed their output on the pinned sweep; update the "
        f"golden digest only for an intended change of that output"
    )


def test_a_warm_select_returns_the_cold_plan():
    """Wherever ``select`` (cold) finds a feasible plan, the best-effort
    select after it (warm) returns the same one."""
    solved = [paths for paths in qassa_outcomes().values()
              if not isinstance(paths["select"], SelectionError)]
    assert len(solved) > len(QASSA_SEEDS) // 2
    for paths in solved:
        cold, warm = paths["select"][0], paths["best_effort"][0]
        assert plan_signature(warm) == plan_signature(cold)
        assert warm.statistics.cache_hits == len(warm.selections)


def test_serial_submits_match_the_direct_select():
    for seed in WORLD_SEEDS:
        (direct,) = qassa_outcomes()[seed]["best_effort"]
        planned, _ = serial_outcomes()[seed]
        assert planned == (plan_signature(direct),), seed


@pytest.mark.parametrize("backend", sorted(RUNTIMES))
def test_runtime_matches_serial(backend):
    for seed in RUNTIMES[backend][1]:
        assert world_outcomes(instances()[seed], backend) == (
            serial_outcomes()[seed]
        ), f"seed {seed}: the {backend} runtime diverged from serial"


if __name__ == "__main__":
    for name, sweep in (("qassa_paths", qassa_sweep()),
                        ("selector_paths", selector_sweep())):
        print(name, sweep.digest)
        sys.stdout.writelines(sweep.lines)
