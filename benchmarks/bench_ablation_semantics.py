"""Ablation 8 — semantic vs syntactic functional matching in discovery.

The survey chapter argues (§II.3) that syntactic discovery "constrains the
number of discovered services as it disregards services that fit the user
requirements but use a different QoS/term syntax".  The shopping scenario
makes it concrete: the user's abstract ``task:Payment`` is served only by
``task:CardPayment`` / ``task:MobilePayment`` providers — a syntactic
directory finds nothing and composition fails outright; the semantic
directory fills the pool through PLUGIN subsumption.
"""

from __future__ import annotations

from repro.env.scenarios import build_shopping_scenario
from repro.errors import NoCandidateError
from repro.experiments.reporting import render_table
from repro.middleware.qasom import QASOM
from repro.semantics.matching import MatchDegree
from repro.services.discovery import DiscoveryQuery, QoSAwareDiscovery


def test_ablation_semantic_vs_syntactic_discovery(benchmark, emit):
    scenario = build_shopping_scenario(services_per_activity=12, seed=7)
    semantic = QoSAwareDiscovery(
        scenario.environment.registry, scenario.ontology
    )
    syntactic = QoSAwareDiscovery(scenario.environment.registry, None)

    rows = []
    semantic_total = 0
    syntactic_total = 0
    for activity in scenario.task.activities:
        query = DiscoveryQuery(activity.capability)
        with_onto = len(semantic.candidates(query))
        without = len(syntactic.candidates(query))
        semantic_total += with_onto
        syntactic_total += without
        rows.append([activity.name, activity.capability, with_onto, without])

    # Composition outcome under each regime.
    middleware_semantic = QASOM.for_environment(
        scenario.environment, scenario.properties, ontology=scenario.ontology
    )
    semantic_ok = middleware_semantic.submit(
        scenario.request, execute=False
    ).plan().feasible
    middleware_syntactic = QASOM.for_environment(
        scenario.environment, scenario.properties, ontology=None
    )
    try:
        middleware_syntactic.submit(scenario.request, execute=False).plan()
        syntactic_ok = True
    except NoCandidateError:
        syntactic_ok = False

    emit(
        "ablation_semantics",
        render_table(
            ["activity", "required capability", "semantic pool",
             "syntactic pool"],
            rows,
            title="Ablation — semantic vs syntactic discovery "
                  "(shopping scenario)",
        )
        + f"\ncomposition feasible: semantic={semantic_ok}, "
          f"syntactic={syntactic_ok}",
    )

    # Shape claims from §II.3: the semantic pool strictly contains the
    # syntactic one, and only the semantic regime can serve the abstract
    # Payment activity.
    assert semantic_total > syntactic_total
    pay_row = next(r for r in rows if r[0] == "Pay")
    assert pay_row[2] > 0 and pay_row[3] == 0
    assert semantic_ok and not syntactic_ok

    query = DiscoveryQuery("task:Payment", minimum_degree=MatchDegree.PLUGIN)
    benchmark(semantic.candidates, query)
