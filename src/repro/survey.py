"""The state-of-the-art taxonomies and comparison tables (Chapter II).

Chapter II structures the QoS-aware SOM landscape along four taxonomies
(Figs. II.1-II.4) and summarises the surveyed platforms in Tables II.1
(service-oriented environments) and II.2 (pervasive environments).  They
are *data*, not experiments — encoded here so the repository reproduces the
paper's survey artefacts too, and so tests can place QASOM itself in the
design space the chapter defines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple


# ----------------------------------------------------------------------
# Fig. II.1 — taxonomy of QoS models
# ----------------------------------------------------------------------
class ModelScope(enum.Enum):
    """Generic vs specific QoS property coverage."""

    GENERIC = "generic"
    SPECIFIC = "specific"


class ModelReach(enum.Enum):
    """End-to-end vs service-centred modelling."""

    END_TO_END = "end-to-end"
    SERVICE_CENTRED = "service-centred"


class ModelSemantics(enum.Enum):
    """Syntactic vs semantic QoS vocabularies."""

    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


# ----------------------------------------------------------------------
# Fig. II.2 — taxonomy of QoS-aware service specifications
# ----------------------------------------------------------------------
class QsdStyle(enum.Enum):
    """Black-box vs white-box quality-based service description."""

    BLACK_BOX = "black-box"
    WHITE_BOX = "white-box"


# ----------------------------------------------------------------------
# Fig. II.3 — taxonomy of QoS-aware service composition
# ----------------------------------------------------------------------
class AssemblyApproach(enum.Enum):
    """How compositions are assembled functionally."""

    TEMPLATE = "template-based"
    GRAPH = "graph-based"
    AI_PLANNING = "ai-planning"


class ConstraintScope(enum.Enum):
    """Local (per activity) vs global (whole composition) QoS constraints."""

    LOCAL = "local"
    GLOBAL = "global"


class SelectionStrategy(enum.Enum):
    """Exact vs heuristic resolution of the selection problem."""

    EXACT = "exact"
    HEURISTIC = "heuristic"


# ----------------------------------------------------------------------
# Fig. II.4 — taxonomy of QoS-driven composition adaptation
# ----------------------------------------------------------------------
class AdaptationTiming(enum.Enum):
    """Reactive (after the violation) vs proactive (before it)."""

    REACTIVE = "reactive"
    PROACTIVE = "proactive"


class AdaptationSubject(enum.Enum):
    """What the adaptation changes."""

    SERVICE = "service"          # substitution
    BEHAVIOUR = "behaviour"      # re-structure the composition
    PARAMETER = "parameter"      # tune without re-binding


@dataclass(frozen=True)
class SurveyedPlatform:
    """One row of Table II.1 / II.2."""

    name: str
    pervasive: bool
    model_semantics: ModelSemantics
    model_reach: ModelReach
    qsd: QsdStyle
    assembly: AssemblyApproach
    constraint_scope: ConstraintScope
    selection: SelectionStrategy
    adaptation_timing: AdaptationTiming
    adaptation_subjects: Tuple[AdaptationSubject, ...] = ()

    def row(self) -> List[str]:
        """The platform as a printable table row."""
        return [
            self.name,
            self.model_semantics.value,
            self.model_reach.value,
            self.qsd.value,
            self.assembly.value,
            self.constraint_scope.value,
            self.selection.value,
            self.adaptation_timing.value,
            "+".join(s.value for s in self.adaptation_subjects) or "-",
        ]


#: Table II.1 — QoS-aware SOM for (classic) service-oriented environments.
TABLE_II1: Tuple[SurveyedPlatform, ...] = (
    SurveyedPlatform(
        "METEOR-S", False, ModelSemantics.SEMANTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.WHITE_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.EXACT, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "DySOA", False, ModelSemantics.SYNTACTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.BLACK_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE, AdaptationSubject.PARAMETER),
    ),
    SurveyedPlatform(
        "A-WSCE", False, ModelSemantics.SYNTACTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.BLACK_BOX,
        AssemblyApproach.AI_PLANNING, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.BEHAVIOUR,),
    ),
    SurveyedPlatform(
        "SCENE", False, ModelSemantics.SYNTACTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.BLACK_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.LOCAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "PAWS", False, ModelSemantics.SEMANTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.BLACK_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "VRESCo", False, ModelSemantics.SYNTACTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.WHITE_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
)

#: Table II.2 — QoS-aware SOM for pervasive environments.
TABLE_II2: Tuple[SurveyedPlatform, ...] = (
    SurveyedPlatform(
        "SpiderNet", True, ModelSemantics.SYNTACTIC,
        ModelReach.END_TO_END, QsdStyle.BLACK_BOX,
        AssemblyApproach.GRAPH, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "Amigo", True, ModelSemantics.SEMANTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.WHITE_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "Aura", True, ModelSemantics.SYNTACTIC,
        ModelReach.END_TO_END, QsdStyle.BLACK_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.EXACT, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE, AdaptationSubject.PARAMETER),
    ),
    SurveyedPlatform(
        "PICO", True, ModelSemantics.SEMANTIC,
        ModelReach.END_TO_END, QsdStyle.BLACK_BOX,
        AssemblyApproach.GRAPH, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
    SurveyedPlatform(
        "MUSIC", True, ModelSemantics.SYNTACTIC,
        ModelReach.END_TO_END, QsdStyle.BLACK_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE, AdaptationSubject.PARAMETER),
    ),
    SurveyedPlatform(
        "PERSE", True, ModelSemantics.SEMANTIC,
        ModelReach.SERVICE_CENTRED, QsdStyle.WHITE_BOX,
        AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
        SelectionStrategy.HEURISTIC, AdaptationTiming.REACTIVE,
        (AdaptationSubject.SERVICE,),
    ),
)

#: QASOM's own position in the design space — the thesis' contribution row.
QASOM_POSITION = SurveyedPlatform(
    "QASOM (this work)", True, ModelSemantics.SEMANTIC,
    ModelReach.END_TO_END, QsdStyle.WHITE_BOX,
    AssemblyApproach.TEMPLATE, ConstraintScope.GLOBAL,
    SelectionStrategy.HEURISTIC, AdaptationTiming.PROACTIVE,
    (AdaptationSubject.SERVICE, AdaptationSubject.BEHAVIOUR),
)

TABLE_HEADERS: Tuple[str, ...] = (
    "platform", "QoS model", "reach", "QSD", "assembly",
    "constraints", "selection", "adaptation", "adapts",
)


def render_survey_table(pervasive: bool) -> str:
    """Render Table II.1 (``pervasive=False``) or II.2 (``True``), with the
    QASOM row appended to the pervasive table as the thesis does."""
    from repro.experiments.reporting import render_table

    rows = [p.row() for p in (TABLE_II2 if pervasive else TABLE_II1)]
    title = (
        "Table II.2 — QoS-aware SOM for pervasive environments"
        if pervasive
        else "Table II.1 — QoS-aware SOM for service-oriented environments"
    )
    if pervasive:
        rows.append(QASOM_POSITION.row())
    return render_table(list(TABLE_HEADERS), rows, title=title)
