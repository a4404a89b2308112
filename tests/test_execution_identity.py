"""Execution, pinned: binding, monitoring and substitution under churn.

QASOM binds each activity when it runs, on the monitor's run-time
estimates, and substitutes a service that fails or drifts (§I.5, §V.1).
This module drives two seeded shopping worlds (12 services per
activity, world seeds :data:`WORLD_SEEDS`) through :data:`REQUESTS`
serial executing submits each, cycling :data:`PROFILES` seeded weight
profiles.  Before every :data:`CHURN_EVERY`-th request a seeded-random
live service leaves the registry and the one that left before it
rejoins, so bindings fall back, substitutions fire and the monitor's
estimates steer the binder.

One line per request is hashed: the execution report's
:func:`report_signature`, the final plan's primaries by service name,
each adaptation's action, trigger kind and removed and replacement
services, and ``repr`` of the plan's utility.  The digest is kept per
Python minor version, as in ``tests/test_identity_harness.py``: from
3.12 on ``sum()`` over floats is compensated, so utilities can differ in
their last bits.  Change :data:`EXECUTION_GOLDEN` only for an intended
change of execution.  ``python -m tests.test_execution_identity``
prints the digest, the coverage counts and every line.
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.composition.request import UserRequest
from repro.env.scenarios import build_shopping_scenario
from repro.execution.binding import DynamicBinder
from repro.experiments.fuzzing import report_signature
from repro.middleware.qasom import QASOM

WORLD_SEEDS = (3, 9)
SERVICES_PER_ACTIVITY = 12
REQUESTS = 100
PROFILES = 6
CHURN_EVERY = 4

#: sha256 over every request line of the sweep, per Python minor version.
EXECUTION_GOLDEN: Dict[Tuple[int, int], str] = {
    (3, 11): "9ad081aa39ad6602430dd4fb70bf93e595c1c3c0b3b444988a246f86f1aedee0",
    (3, 12): "f103ea6f8a5bee5c11227aa7e80418c1e1f309323c1f859eb74d59c807f04583",
    (3, 13): "f103ea6f8a5bee5c11227aa7e80418c1e1f309323c1f859eb74d59c807f04583",
}


class Sweep(NamedTuple):
    """The sweep's digest, what it exercised and its request lines."""

    digest: str
    cases: Counter
    lines: List[str]


def _adaptation(outcome) -> str:
    substitution = outcome.substitution
    names = (
        f"{substitution.removed.name}->{substitution.replacement.name}"
        if substitution is not None else "-"
    )
    return f"{outcome.action.value}/{outcome.trigger.kind.value}/{names}"


def _line(index: int, handle) -> str:
    try:
        result = handle.result()
    except Exception as exc:  # noqa: BLE001 - a failure is an outcome
        return f"{index} failed {type(exc).__name__}"
    plan = result.plan
    primaries = tuple(
        (name, selection.primary.name)
        for name, selection in sorted(plan.selections.items())
    )
    adaptations = ",".join(_adaptation(o) for o in result.adaptations)
    return (
        f"{index} {report_signature(result.report)!r} {primaries!r} "
        f"[{adaptations}] {plan.utility!r}"
    )


def world_lines(seed: int, cases: Counter) -> List[str]:
    """Run one world's requests; returns their lines and counts into
    ``cases`` what they exercised."""
    scenario = build_shopping_scenario(
        services_per_activity=SERVICES_PER_ACTIVITY, seed=seed
    )
    middleware = QASOM.for_environment(
        scenario.environment, scenario.properties,
        ontology=scenario.ontology, repository=scenario.repository,
    )
    binder = middleware.binder
    utility_binds = binder._best_by_runtime_utility

    def counted(*args):
        cases["utility binds"] += 1
        return utility_binds(*args)

    binder._best_by_runtime_utility = counted
    rng = random.Random(seed * 7919 + 5)
    names = sorted(scenario.request.weights)
    requests = [
        UserRequest(
            task=scenario.task,
            constraints=scenario.request.constraints,
            weights={n: round(rng.uniform(0.1, 1.0), 6) for n in names},
        )
        for _ in range(PROFILES)
    ]
    registry = scenario.environment.registry
    parked = None
    lines = []
    for index in range(REQUESTS):
        if index % CHURN_EVERY == 0:
            live = sorted(registry.services(), key=lambda s: s.name)
            victim = rng.choice(live)
            registry.withdraw(victim.service_id)
            if parked is not None:
                registry.publish(parked)
            parked = victim
        handle = middleware.submit(requests[index % PROFILES],
                                   best_effort=True)
        lines.append(_line(index, handle) + "\n")
        if handle.exception() is None:
            for outcome in handle.result().adaptations:
                cases[outcome.action.value] += 1
    return lines


@functools.lru_cache(maxsize=None)
def sweep() -> Sweep:
    """Every world's lines, hashed once per session."""
    sha, cases, lines = hashlib.sha256(), Counter(), []
    for seed in WORLD_SEEDS:
        for line in world_lines(seed, cases):
            text = f"{seed} {line}"
            lines.append(text)
            sha.update(text.encode())
    return Sweep(sha.hexdigest(), cases, lines)


def test_the_sweep_binds_on_estimates_and_substitutes():
    cases = sweep().cases
    assert len(sweep().lines) == len(WORLD_SEEDS) * REQUESTS
    assert cases["utility binds"] >= 500, cases
    assert cases["substitution"] >= 100, cases


def test_execution_matches_the_golden_digest():
    version = sys.version_info[:2]
    if not EXECUTION_GOLDEN.get(version):
        pytest.skip(f"no golden digest recorded for Python {version}")
    assert sweep().digest == EXECUTION_GOLDEN[version], (
        "binding, monitoring or substitution changed execution on the "
        "pinned sweep; update the golden digest only for an intended "
        "change of execution"
    )


def test_a_binder_ignoring_estimates_changes_the_digest(monkeypatch):
    """The sweep is sensitive to the UTILITY policy's picks."""
    baseline = sweep().digest
    monkeypatch.setattr(
        DynamicBinder, "_best_by_runtime_utility",
        lambda self, plan, alive: alive[0],
    )
    sha = hashlib.sha256()
    for seed in WORLD_SEEDS:
        for line in world_lines(seed, Counter()):
            sha.update(f"{seed} {line}".encode())
    assert sha.hexdigest() != baseline


if __name__ == "__main__":
    print("execution", sweep().digest, dict(sweep().cases))
    sys.stdout.writelines(sweep().lines)
