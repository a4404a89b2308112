"""The five comparison selectors, pinned: what they return may not drift.

:class:`ExhaustiveSelection`, :class:`GreedySelection`,
:class:`RandomSelection`, :class:`GeneticSelection` and the exact oracle
(:class:`ExactSelection`) are the references QASSA is measured against
(§VI.3.2).  The identity harness (:mod:`tests.test_identity_harness`)
runs seeds 0-39 of its fuzz spec once through each of them, plain and
best-effort with two alternates.  These tests check that the sweep covers
every case and that its outcome lines hash to ``SELECTOR_GOLDEN``.
"""

from __future__ import annotations

from tests import test_identity_harness as harness


def test_the_pinned_sweep_covers_every_case():
    cases = harness.selector_sweep().cases
    for label in ("exact", "greedy", "random", "genetic", "exhaustive"):
        for case in ("raised", "infeasible", "alternates"):
            assert cases[f"{label} {case}"] > 0, (label, case, cases)


def test_selector_output_matches_the_golden_digest():
    harness.check_golden(harness.selector_sweep(), harness.SELECTOR_GOLDEN,
                         "the comparison selectors")
