"""The compiled aggregation fold against a slow reference, bit for bit.

:mod:`repro.composition.aggregation` compiles a pattern tree into one fold
over per-activity value rows.  This module keeps the plain recursive
reading of Table IV.1 — one property at a time, straight from the
formulas — and checks that :func:`aggregate_values` and
:func:`aggregate_composition` return the same floats (``repr``-equal) on
seeded random pattern trees, under every approach, for every aggregation
kind, and that a missing value raises the same message.  It also checks
the fold's memo: one generated fold per pattern tree, property tuple and
approach.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Mapping

import pytest

from repro.errors import AggregationError
from repro.qos import units as u
from repro.qos.properties import (
    AggregationKind,
    Direction,
    QoSProperty,
)
from repro.qos.values import QoSVector
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
    _compile,
    aggregate_composition,
    aggregate_values,
)
from repro.composition.task import (
    Conditional,
    Leaf,
    Loop,
    Node,
    Parallel,
    Sequence,
    Task,
    conditional,
    leaf,
    loop,
    parallel,
    sequence,
)
from repro.experiments.fuzzing import _random_tree
from repro.experiments.workloads import EXPERIMENT_PROPERTIES

#: A positive additive property (a reward accrued per loop pass), a
#: positive multiplicative one and a MAX one: EXPERIMENT_PROPERTIES has
#: none of them.
EXTRA_PROPERTIES = {
    "reward": QoSProperty(
        "reward", "sqos:Reward", Direction.POSITIVE,
        AggregationKind.ADDITIVE, u.SCORE, (0.0, 100.0),
    ),
    "gain": QoSProperty(
        "gain", "sqos:Gain", Direction.POSITIVE,
        AggregationKind.MULTIPLICATIVE, u.RATIO, (0.5, 4.0),
    ),
    "exposure": QoSProperty(
        "exposure", "sqos:Exposure", Direction.NEGATIVE,
        AggregationKind.MAX, u.SCORE, (0.0, 5.0),
    ),
}
PROPERTIES: Dict[str, QoSProperty] = {**EXPERIMENT_PROPERTIES, **EXTRA_PROPERTIES}
APPROACHES = tuple(AggregationApproach)
SEEDS = range(60)


def reference(
    prop: QoSProperty,
    node: Node,
    values: Mapping[str, float],
    approach: AggregationApproach,
) -> float:
    """Table IV.1 for one property, recursively, as the formulas read."""
    worst = max if prop.direction is Direction.NEGATIVE else min
    best = min if prop.direction is Direction.NEGATIVE else max
    if isinstance(node, Leaf):
        name = node.activity.name
        if name not in values:
            raise AggregationError(
                f"no value of {prop.name!r} for activity {name!r}"
            )
        return values[name]
    if isinstance(node, Loop):
        body = reference(prop, node.body, values, approach)
        if prop.aggregation is AggregationKind.ADDITIVE:
            def at(n):
                return n * body
        elif prop.aggregation is AggregationKind.MULTIPLICATIVE:
            def at(n):
                return body ** n
        else:
            return body
        if approach is AggregationApproach.MEAN:
            return at(node.mean_iterations())
        ends = [at(1.0), at(float(node.max_iterations))]
        return worst(ends) if approach is AggregationApproach.PESSIMISTIC \
            else best(ends)
    children = [
        reference(prop, child, values, approach) for child in node.children()
    ]
    if isinstance(node, Conditional):
        if approach is AggregationApproach.PESSIMISTIC:
            return worst(children)
        if approach is AggregationApproach.OPTIMISTIC:
            return best(children)
        return sum(
            p * v for p, v in zip(node.branch_probabilities(), children)
        )
    kind = prop.aggregation
    if isinstance(node, Parallel) and kind is AggregationKind.ADDITIVE:
        return max(children) if prop.unit.dimension == "time" \
            else sum(children)
    if kind is AggregationKind.ADDITIVE:
        return sum(children)
    if kind is AggregationKind.MULTIPLICATIVE:
        return math.prod(children)
    if kind is AggregationKind.MIN:
        return min(children)
    if kind is AggregationKind.MAX:
        return max(children)
    return sum(children) / len(children)


def random_task(seed: int) -> Task:
    """A fuzz pattern tree (binary composites) on odd seeds; on even ones
    a three-way sequence, parallel or conditional over fuzz subtrees, so
    folds over more than two values (whose order matters) are covered."""
    rng = random.Random(seed)
    leaves = [leaf(f"A{i}") for i in range(rng.randint(1, 7))]
    if seed % 2 or len(leaves) < 3:
        return Task(f"ref-{seed}", _random_tree(rng, leaves))
    first, second = sorted(rng.sample(range(1, len(leaves)), 2))
    groups = (leaves[:first], leaves[first:second], leaves[second:])
    pattern = rng.choice((sequence, parallel, conditional))
    return Task(
        f"ref-{seed}", pattern(*[_random_tree(rng, g) for g in groups])
    )


def random_values(seed: int, task: Task) -> Dict[str, Dict[str, float]]:
    """activity -> property -> a value drawn from the property's range."""
    rng = random.Random(seed * 31 + 7)
    return {
        activity: {
            name: rng.uniform(*prop.value_range)
            for name, prop in PROPERTIES.items()
        }
        for activity in task.activity_names
    }


def test_the_sweep_covers_every_kind_pattern_and_loop_direction():
    kinds = {prop.aggregation for prop in PROPERTIES.values()}
    assert kinds == set(AggregationKind)
    additive = [p for p in PROPERTIES.values()
                if p.aggregation is AggregationKind.ADDITIVE]
    assert {p.unit.dimension == "time" for p in additive} == {True, False}
    assert {p.direction for p in additive} == set(Direction)
    patterns, wide = set(), set()
    for seed in SEEDS:
        for node in random_task(seed).root.walk():
            patterns.add(type(node))
            if len(node.children()) > 2:
                wide.add(type(node))
    assert {Leaf, Loop, Parallel, Conditional} <= patterns
    assert {Sequence, Parallel, Conditional} <= wide


@pytest.mark.parametrize("approach", APPROACHES, ids=lambda a: a.value)
def test_aggregate_values_matches_the_reference(approach):
    for seed in SEEDS:
        task = random_task(seed)
        values = random_values(seed, task)
        for name, prop in PROPERTIES.items():
            per_activity = {a: v[name] for a, v in values.items()}
            expected = reference(prop, task.root, per_activity, approach)
            got = aggregate_values(prop, task.root, per_activity, approach)
            assert repr(got) == repr(expected), (seed, name, approach)


@pytest.mark.parametrize("approach", APPROACHES, ids=lambda a: a.value)
def test_aggregate_composition_matches_the_reference(approach):
    for seed in SEEDS:
        task = random_task(seed)
        values = random_values(seed, task)
        rng = random.Random(seed)
        names = rng.sample(sorted(PROPERTIES), rng.randint(1, len(PROPERTIES)))
        props = {name: PROPERTIES[name] for name in names}
        vectors = {a: QoSVector(v, PROPERTIES) for a, v in values.items()}
        result = aggregate_composition(task, vectors, props, approach)
        assert list(result) == names
        for name, prop in props.items():
            expected = reference(
                prop, task.root, {a: v[name] for a, v in values.items()},
                approach,
            )
            assert repr(result[name]) == repr(expected), (seed, name)


@pytest.mark.parametrize("name", ["response_time", "cost", "energy"])
def test_time_like_parallels_take_the_slowest_cost_like_ones_add(name):
    node = parallel(leaf("A"), leaf("B"))
    values = {"A": 10.5, "B": 20.25}
    prop = PROPERTIES[name]
    got = aggregate_values(prop, node, values)
    assert repr(got) == repr(reference(
        prop, node, values, AggregationApproach.PESSIMISTIC
    ))
    assert got == (20.25 if name == "response_time" else 30.75)


@pytest.mark.parametrize("approach", APPROACHES, ids=lambda a: a.value)
@pytest.mark.parametrize("name", ["response_time", "availability",
                                  "reward", "gain", "throughput"])
def test_loops_over_positive_and_negative_properties(name, approach):
    node = loop(leaf("A"), max_iterations=4, expected_iterations=2.5)
    prop = PROPERTIES[name]
    for value in (0.75, 1.25, 3.0):
        got = aggregate_values(prop, node, {"A": value}, approach)
        assert repr(got) == repr(reference(prop, node, {"A": value}, approach))


@pytest.mark.parametrize("seed", range(20))
def test_a_missing_value_raises_the_reference_message(seed):
    task = random_task(seed)
    values = random_values(seed, task)
    rng = random.Random(seed)
    victim = rng.choice(task.activity_names)
    gone = rng.choice(sorted(PROPERTIES))
    del values[victim][gone]
    props = {name: PROPERTIES[name] for name in sorted(PROPERTIES)}

    expected = None
    for name, prop in props.items():
        per_activity = {a: v[name] for a, v in values.items() if name in v}
        try:
            reference(prop, task.root, per_activity,
                      AggregationApproach.PESSIMISTIC)
        except AggregationError as exc:
            expected = str(exc)
            break
    assert expected == f"no value of {gone!r} for activity {victim!r}"

    with pytest.raises(AggregationError) as single:
        aggregate_values(
            PROPERTIES[gone], task.root,
            {a: v[gone] for a, v in values.items() if gone in v},
        )
    assert str(single.value) == expected
    vectors = {a: QoSVector(v, PROPERTIES) for a, v in values.items()}
    with pytest.raises(AggregationError) as composed:
        aggregate_composition(task, vectors, props)
    assert str(composed.value) == expected
    del vectors[victim]
    with pytest.raises(AggregationError) as absent:
        aggregate_composition(task, vectors, props)
    first = sorted(PROPERTIES)[0]
    assert str(absent.value) == (
        f"no value of {first!r} for activity {victim!r}"
    )


@pytest.mark.parametrize("root", [leaf("A"), sequence(leaf("A"))],
                         ids=["leaf", "sequence-of-one"])
def test_a_single_activity_aggregates_to_its_own_values(root):
    props = {"cost": PROPERTIES["cost"], "gain": PROPERTIES["gain"]}
    vector = QoSVector({"cost": 2.5, "gain": 1.5}, PROPERTIES)
    result = aggregate_composition(Task("one", root), {"A": vector}, props)
    assert repr(result) == repr(vector)
    assert sorted(result.items()) == sorted(vector.items())


def deep_task(depth: int = 150) -> Task:
    """A chain ``depth`` levels deep, alternating loops and sequences that
    add one activity each.  Few loops iterate twice, so no value
    overflows."""
    node: Node = leaf("A0")
    for level in range(1, depth):
        if level % 2:
            node = loop(node, max_iterations=2 if level % 25 == 1 else 1)
        else:
            node = sequence(node, leaf(f"A{level}"))
    return Task("deep", node)


def nested_expression(node: Node) -> str:
    """``node``'s fold as one nested call expression, the form that the
    generated fold's one statement per node avoids."""
    if isinstance(node, Leaf):
        return "r[0]"
    return "f((" + "".join(
        f"{nested_expression(child)}, " for child in node.children()
    ) + "))"


@pytest.mark.parametrize("approach", APPROACHES, ids=lambda a: a.value)
def test_a_tree_150_levels_deep_matches_the_reference(approach):
    task = deep_task()
    with pytest.raises(SyntaxError):
        compile(nested_expression(task.root), "<nested>", "eval")
    values = random_values(150, task)
    vectors = {a: QoSVector(v, PROPERTIES) for a, v in values.items()}
    result = aggregate_composition(task, vectors, PROPERTIES, approach)
    for name, prop in PROPERTIES.items():
        expected = reference(
            prop, task.root, {a: v[name] for a, v in values.items()},
            approach,
        )
        assert repr(result[name]) == repr(expected), name


def test_equal_trees_share_one_fold():
    props = {name: PROPERTIES[name] for name in ("cost", "gain", "reward")}
    fold = CompiledAggregation(random_task(8).root, props)._fold
    assert CompiledAggregation(random_task(8).root, props)._fold is fold
    optimistic = CompiledAggregation(
        random_task(8).root, props, AggregationApproach.OPTIMISTIC
    )
    assert optimistic._fold is not fold
    reordered = dict(reversed(props.items()))
    assert CompiledAggregation(random_task(8).root, reordered)._fold \
        is not fold


def test_repeated_aggregate_composition_generates_the_fold_once():
    # Activity names no other test uses, so the first call misses.
    task = Task("memo", sequence(
        leaf("Memo1"), parallel(leaf("Memo2"), loop(leaf("Memo3"), 3)),
    ))
    values = random_values(3, task)
    vectors = {a: QoSVector(v, PROPERTIES) for a, v in values.items()}
    before = _compile.cache_info()
    results = [
        aggregate_composition(task, vectors, PROPERTIES) for _ in range(5)
    ]
    after = _compile.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 4)
    assert len({repr(result) for result in results}) == 1


def test_trees_equal_up_to_int_or_float_counts_aggregate_alike():
    # 2 == 2.0, so these trees share one fold, whichever comes first.
    values = {"IntA": 2, "IntB": 3, "IntC": 5}
    for count, probabilities in ((2, (1, 0)), (2.0, (1.0, 0.0))):
        node = sequence(
            loop(leaf("IntA"), max_iterations=3, expected_iterations=count),
            conditional(leaf("IntB"), leaf("IntC"),
                        probabilities=probabilities),
        )
        result = aggregate_values(
            PROPERTIES["reward"], node, values, AggregationApproach.MEAN
        )
        assert repr(result) == "7.0", (count, probabilities)
