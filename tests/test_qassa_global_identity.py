"""QASSA's global phase, pinned: its output on every entry path may not drift.

The identity harness (:mod:`tests.test_identity_harness`) runs seeds 0-71
of its fuzz spec once through ``select``, ``select(best_effort=True)``,
``select_ranked(k=3)`` and :class:`DistributedQASSA`.  These tests check
that the sweep covers every case and that its outcome lines hash to
``QASSA_GOLDEN``.
"""

from __future__ import annotations

from collections import Counter

from repro.composition.task import Leaf, Sequence

from tests import test_identity_harness as harness


def test_the_pinned_sweep_covers_every_case():
    cases = Counter(harness.qassa_sweep().cases)
    for instance in harness.instances().values():
        cases[instance.approach.value] += 1
        cases["patterns"] += not isinstance(instance.task.root,
                                            (Leaf, Sequence))
        cases["constrained"] += bool(instance.request.constraints)
    for case in ("pessimistic", "optimistic", "mean", "patterns",
                 "constrained", "select raised", "ranked raised",
                 "distributed raised", "best_effort infeasible"):
        assert cases[case] > 0, (case, cases)


def test_global_phase_output_matches_the_golden_digest():
    harness.check_golden(harness.qassa_sweep(), harness.QASSA_GOLDEN,
                         "QASSA's entry paths")
