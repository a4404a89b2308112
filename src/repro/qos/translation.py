"""Translating user-vocabulary requirements into middleware constraints.

The User QoS ontology (§III.2.4) exists so users never have to speak
provider vocabulary: Bob asks for *Speed* and *Dependability*, not
``sqos:ResponseTime`` and availability×reliability.  This module is the
operational half of that story:

* a :class:`UserRequirement` is a bound on a *user concept*
  (``uqos:Speed <= 2 s``), optionally in a non-canonical unit;
* :func:`translate_requirements` resolves each concept through the QoS
  model's subsumption reasoning into one or more concrete
  :class:`~repro.composition.request.GlobalConstraint` — an umbrella term
  like ``uqos:Dependability`` fans out to availability *and* reliability;
* user-term preference weights translate the same way, splitting an
  umbrella's weight over its refinements;
* :func:`build_request` packages the result into a ready
  :class:`~repro.composition.request.UserRequest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QoSModelError
from repro.qos.model import QoSModel
from repro.qos.units import Unit, convert
from repro.semantics.matching import MatchDegree
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.task import Task


@dataclass(frozen=True)
class UserRequirement:
    """One bound expressed in the user's vocabulary.

    ``operator`` may be omitted: the natural direction of each resolved
    property is used (an upper bound for negative properties, a lower bound
    for positive ones), which is what "Speed at most 2 s" / "Dependability
    at least 0.9" mean without the user knowing property polarity.
    """

    concept: str                       # e.g. "uqos:Speed"
    bound: float
    unit: Optional[Unit] = None        # bound's unit, if not canonical
    operator: Optional[str] = None     # "<=", ">=" or None for natural


@dataclass(frozen=True)
class TranslationReport:
    """How one user requirement resolved (for explaining to the user)."""

    requirement: UserRequirement
    constraints: Tuple[GlobalConstraint, ...]
    degrees: Tuple[MatchDegree, ...]


def translate_requirements(
    model: QoSModel,
    requirements: Sequence[UserRequirement],
    minimum: MatchDegree = MatchDegree.PLUGIN,
) -> Tuple[Tuple[GlobalConstraint, ...], List[TranslationReport]]:
    """Resolve user-vocabulary requirements to concrete global constraints.

    Raises :class:`QoSModelError` when a concept resolves to nothing — a
    silent drop would let the middleware return compositions that ignore a
    requirement the user stated.
    """
    constraints: List[GlobalConstraint] = []
    reports: List[TranslationReport] = []
    for requirement in requirements:
        matches = model.resolve_term(requirement.concept, minimum=minimum)
        if not matches:
            raise QoSModelError(
                f"user requirement on {requirement.concept!r} resolves to "
                "no registered QoS property"
            )
        resolved: List[GlobalConstraint] = []
        degrees: List[MatchDegree] = []
        for prop, degree in matches:
            bound = requirement.bound
            if requirement.unit is not None:
                bound = convert(bound, requirement.unit, prop.unit)
            if requirement.operator is not None:
                constraint = GlobalConstraint(
                    prop.name, requirement.operator, bound
                )
            else:
                constraint = GlobalConstraint.natural(prop, bound)
            resolved.append(constraint)
            degrees.append(degree)
        constraints.extend(resolved)
        reports.append(
            TranslationReport(requirement, tuple(resolved), tuple(degrees))
        )
    return tuple(constraints), reports


def translate_weights(
    model: QoSModel,
    user_weights: Mapping[str, float],
    minimum: MatchDegree = MatchDegree.PLUGIN,
) -> Dict[str, float]:
    """Resolve user-concept preference weights onto property names.

    An umbrella concept's weight splits evenly over its resolved
    properties; weights landing on the same property accumulate.
    """
    weights: Dict[str, float] = {}
    for concept, weight in user_weights.items():
        if weight < 0:
            raise QoSModelError(
                f"negative preference weight for {concept!r}"
            )
        matches = model.resolve_term(concept, minimum=minimum)
        if not matches:
            raise QoSModelError(
                f"preference on {concept!r} resolves to no registered "
                "QoS property"
            )
        share = weight / len(matches)
        for prop, _ in matches:
            weights[prop.name] = weights.get(prop.name, 0.0) + share
    return weights


def build_request(
    model: QoSModel,
    task: Task,
    requirements: Sequence[UserRequirement] = (),
    user_weights: Optional[Mapping[str, float]] = None,
    minimum: MatchDegree = MatchDegree.PLUGIN,
) -> Tuple[UserRequest, List[TranslationReport]]:
    """A ready UserRequest from user-vocabulary requirements and weights."""
    constraints, reports = translate_requirements(model, requirements, minimum)
    weights = (
        translate_weights(model, user_weights, minimum)
        if user_weights
        else {}
    )
    return UserRequest(task, constraints=constraints, weights=weights), reports
