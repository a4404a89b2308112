"""Differential fuzzing of the selection path against the exact oracle.

Every selector — QASSA, the four baselines and the branch-and-bound
oracle itself — is thrown at seeded randomized instances from
:mod:`repro.experiments.fuzzing` and cross-checked:

* the oracle is byte-identical to ``ExhaustiveSelection`` on every
  tractable instance (optimum *and* best-effort fallback, including the
  first-in-enumeration-order tie-break) while expanding a fraction of the
  enumeration's nodes;
* heuristics never beat the oracle's utility, never return a feasible
  plan when the oracle proves infeasibility, and never mislabel their
  own plan's feasibility;
* QASSA's optimality gap over the sweep stays within the paper's
  near-optimal band.

The pinned seeds below lock in instances that exercise the trickiest
paths (infeasibility proofs, single-activity tasks, loop-heavy pattern
trees, each aggregation approach).  If a future change makes any of them
diverge, the failing seed reproduces the instance exactly.
"""

from __future__ import annotations

import pytest

from repro.composition.qassa import QASSA, QassaConfig
from repro.experiments.fuzzing import (
    FuzzSpec,
    _check_consistency,
    check_instance,
    fuzz_sweep,
    generate_instance,
)

# The CI sweep: fixed seeds, fully deterministic, a few hundred ms.
SMOKE_SEEDS = tuple(range(40))

#: Seeds pinned because they cover paths a uniform sweep can miss:
#: proven-infeasible instances (14, 20, 25, 33), single-activity tasks
#: (5, 7, 10), the largest tractable instance in the smoke band (54, the
#: node-efficiency witness), and one per aggregation approach (0, 2, 3).
PINNED_SEEDS = (0, 2, 3, 5, 7, 10, 14, 20, 25, 33, 54)

#: Degenerate envelope — tiny pools (1-2 services) with many constraints,
#: where dominance fixing can empty a pool and tie-breaks dominate.
DEGENERATE_SPEC = FuzzSpec(max_activities=3, max_services=2, max_constraints=5)
DEGENERATE_SEEDS = tuple(range(5000, 5020))


@pytest.fixture(scope="module")
def reports():
    return fuzz_sweep(SMOKE_SEEDS)


class TestDifferentialSweep:
    def test_no_divergences(self, reports):
        failures = [
            f"seed={r.seed}: {'; '.join(r.divergences)}"
            for r in reports
            if not r.ok
        ]
        assert not failures, "\n".join(failures)

    def test_sweep_covers_both_outcomes(self, reports):
        # The seed band must exercise feasible AND proven-infeasible
        # instances, or the feasibility-agreement check is vacuous.
        outcomes = {r.oracle_feasible for r in reports}
        assert outcomes == {True, False}

    def test_oracle_node_efficiency(self, reports):
        # On the largest feasible instance of the sweep the oracle must
        # expand at most 10% of the nodes full enumeration would visit.
        witness = max(
            (r for r in reports if r.oracle_feasible),
            key=lambda r: r.search_space,
        )
        assert witness.oracle_nodes <= 0.10 * witness.search_space, (
            f"seed={witness.seed}: {witness.oracle_nodes:.0f} nodes for a "
            f"{witness.search_space}-assignment space"
        )

    def test_qassa_gap_bound(self, reports):
        gaps = [r.qassa_gap for r in reports if r.qassa_gap is not None]
        assert len(gaps) >= 20
        assert min(gaps) >= 0.90
        assert sum(gaps) / len(gaps) >= 0.99


class TestPinnedRegressions:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_pinned_seed(self, seed):
        report = check_instance(generate_instance(seed))
        assert report.ok, f"seed={seed}: {'; '.join(report.divergences)}"

    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
    def test_degenerate_envelope(self, seed):
        report = check_instance(
            generate_instance(seed, DEGENERATE_SPEC), DEGENERATE_SPEC
        )
        assert report.ok, f"seed={seed}: {'; '.join(report.divergences)}"

    def test_generator_is_deterministic(self):
        a = generate_instance(54)
        b = generate_instance(54)
        assert a.request.constraints == b.request.constraints
        assert a.approach is b.approach
        assert [
            [s.name for s in a.candidates[name]]
            for name in a.candidates.activity_names()
        ] == [
            [s.name for s in b.candidates[name]]
            for name in b.candidates.activity_names()
        ]



class TestDivergenceMessages:
    def test_aggregated_qos_divergence_prints_exact_values(self):
        # Two vectors that differ in the 7th significant digit print alike
        # through QoSVector's repr (6 digits); the message must tell them
        # apart.
        instance = generate_instance(0)
        plan = QASSA(
            instance.properties, instance.approach,
            config=QassaConfig(seed=instance.seed),
        ).select(instance.request, instance.candidates, best_effort=True)
        name, value = next(
            (n, v) for n, v in sorted(plan.aggregated_qos.items()) if v
        )
        drifted = next(
            value * drift for drift in (1 + 3e-7, 1 - 3e-7)
            if f"{value * drift:g}" == f"{value:g}"
        )
        assert drifted != value
        plan.aggregated_qos = plan.aggregated_qos.replace(name, drifted)
        assert repr(plan.aggregated_qos) == repr(
            plan.aggregated_qos.replace(name, value)
        )

        divergences = []
        _check_consistency("qassa", plan, instance, divergences)
        (message,) = [d for d in divergences if "aggregated_qos" in d]
        assert repr(drifted) in message
        assert repr(value) in message
