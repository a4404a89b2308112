"""Abstract-BPEL parsing and serialisation (§VI.2.3, Fig. VI.13).

The prototype specifies user tasks as *abstract BPEL*: structured activities
without partner bindings.  This module implements the dialect the paper's
examples use, mapped onto the pattern tree of
:mod:`repro.composition.task`:

.. code-block:: xml

    <process name="shopping">
      <sequence>
        <invoke name="Browse" capability="task:Browse"
                inputs="data:Query" outputs="data:Catalogue"/>
        <flow>                                  <!-- parallel -->
          <invoke name="PayCard" capability="task:Payment"/>
          <invoke name="Notify"  capability="task:Notification"/>
        </flow>
        <switch>                                <!-- conditional -->
          <case probability="0.7"> ... </case>
          <case probability="0.3"> ... </case>
        </switch>
        <while maxIterations="3" expectedIterations="2"> ... </while>
      </sequence>
    </process>

``parse_bpel`` turns a document into a :class:`Task` (which
:func:`repro.adaptation.behaviour_graph.task_to_graph` then transforms —
the Fig. VI.13 pipeline); ``to_bpel`` round-trips a task back to XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List, Optional

from repro.errors import BpelParseError
from repro.composition.task import (
    Activity,
    Conditional,
    Leaf,
    Loop,
    Node,
    Parallel,
    Sequence,
    Task,
)


def parse_bpel(document: str) -> Task:
    """Parse an abstract-BPEL document into a user task."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise BpelParseError(f"malformed XML: {error}") from None
    if root.tag != "process":
        raise BpelParseError(f"root element must be <process>, got <{root.tag}>")
    name = root.get("name")
    if not name:
        raise BpelParseError("<process> requires a name attribute")
    # Executable documents carry a <qos> annotation block; the abstract
    # parse ignores it (like the binding attributes on <invoke>).
    children = [child for child in root if child.tag != "qos"]
    if len(children) != 1:
        raise BpelParseError("<process> must contain exactly one activity")
    return Task(name, _parse_node(children[0]))


def _parse_node(element: ET.Element) -> Node:
    tag = element.tag
    if tag == "invoke":
        return Leaf(_parse_activity(element))
    if tag == "sequence":
        members = [_parse_node(child) for child in element]
        if not members:
            raise BpelParseError("<sequence> must contain at least one activity")
        if len(members) == 1:
            return members[0]
        return Sequence(tuple(members))
    if tag == "flow":
        branches = [_parse_node(child) for child in element]
        if len(branches) < 2:
            raise BpelParseError("<flow> needs at least two branches")
        return Parallel(tuple(branches))
    if tag == "switch":
        cases = list(element)
        if any(case.tag != "case" for case in cases):
            raise BpelParseError("<switch> children must be <case>")
        if len(cases) < 2:
            raise BpelParseError("<switch> needs at least two cases")
        branches: List[Node] = []
        probabilities: List[Optional[float]] = []
        for case in cases:
            inner = list(case)
            if len(inner) != 1:
                raise BpelParseError("<case> must contain exactly one activity")
            branches.append(_parse_node(inner[0]))
            raw = case.get("probability")
            probabilities.append(float(raw) if raw is not None else None)
        if all(p is None for p in probabilities):
            return Conditional(tuple(branches))
        if any(p is None for p in probabilities):
            raise BpelParseError(
                "either all <case> elements carry a probability or none does"
            )
        return Conditional(tuple(branches), tuple(probabilities))  # type: ignore[arg-type]
    if tag == "while":
        inner = list(element)
        if len(inner) != 1:
            raise BpelParseError("<while> must contain exactly one activity")
        raw_max = element.get("maxIterations")
        if raw_max is None:
            raise BpelParseError("<while> requires maxIterations")
        try:
            max_iterations = int(raw_max)
        except ValueError:
            raise BpelParseError(
                f"maxIterations must be an integer, got {raw_max!r}"
            ) from None
        raw_expected = element.get("expectedIterations")
        expected = float(raw_expected) if raw_expected is not None else None
        return Loop(_parse_node(inner[0]), max_iterations, expected)
    raise BpelParseError(f"unknown abstract-BPEL element <{tag}>")


def _parse_activity(element: ET.Element) -> Activity:
    name = element.get("name")
    if not name:
        raise BpelParseError("<invoke> requires a name attribute")
    capability = element.get("capability") or f"task:{name}"
    inputs = frozenset(filter(None, (element.get("inputs") or "").split()))
    outputs = frozenset(filter(None, (element.get("outputs") or "").split()))
    return Activity(name, capability, inputs=inputs, outputs=outputs)


# ----------------------------------------------------------------------
def to_bpel(task: Task) -> str:
    """Serialise a user task back to abstract BPEL."""
    process = ET.Element("process", {"name": task.name})
    process.append(_emit(task.root))
    ET.indent(process, space="  ")
    return ET.tostring(process, encoding="unicode")


def to_executable_bpel(plan) -> str:
    """Serialise a selected composition as *executable* BPEL (§VI.2.4).

    The abstract task's ``<invoke>`` elements gain concrete bindings: the
    selected service's id/name as the partner endpoint, the ranked
    alternates (for dynamic binding) as a space-separated attribute, and
    the plan-time aggregated QoS as a ``<qos>`` annotation on the process.
    The document stays parseable by :func:`parse_bpel` (extra attributes
    are ignored on the abstract path).
    """
    from repro.composition.selection import CompositionPlan

    if not isinstance(plan, CompositionPlan):
        raise BpelParseError("to_executable_bpel expects a CompositionPlan")
    process = ET.Element(
        "process",
        {"name": plan.task.name, "executable": "true"},
    )
    qos_element = ET.SubElement(process, "qos")
    for name, value in sorted(plan.aggregated_qos.items()):
        ET.SubElement(
            qos_element, "aggregated",
            {"property": name, "value": f"{value:g}",
             "approach": plan.approach.value},
        )
    body = _emit(plan.task.root)
    for invoke in ([body] if body.tag == "invoke" else body.iter("invoke")):
        activity_name = invoke.get("name")
        selection = plan.selections.get(activity_name)
        if selection is None:
            continue
        invoke.set("partnerService", selection.primary.service_id)
        invoke.set("partnerName", selection.primary.name)
        if selection.alternates:
            invoke.set(
                "alternates",
                " ".join(s.service_id for s in selection.alternates),
            )
    process.append(body)
    ET.indent(process, space="  ")
    return ET.tostring(process, encoding="unicode")


def _emit(node: Node) -> ET.Element:
    if isinstance(node, Leaf):
        attrs = {"name": node.activity.name, "capability": node.activity.capability}
        if node.activity.inputs:
            attrs["inputs"] = " ".join(sorted(node.activity.inputs))
        if node.activity.outputs:
            attrs["outputs"] = " ".join(sorted(node.activity.outputs))
        return ET.Element("invoke", attrs)
    if isinstance(node, Sequence):
        element = ET.Element("sequence")
        for member in node.members:
            element.append(_emit(member))
        return element
    if isinstance(node, Parallel):
        element = ET.Element("flow")
        for branch in node.branches:
            element.append(_emit(branch))
        return element
    if isinstance(node, Conditional):
        element = ET.Element("switch")
        probabilities = node.probabilities or tuple(
            None for _ in node.branches  # type: ignore[misc]
        )
        for branch, probability in zip(node.branches, probabilities):
            attrs = {}
            if probability is not None:
                attrs["probability"] = f"{probability:g}"
            case = ET.Element("case", attrs)
            case.append(_emit(branch))
            element.append(case)
        return element
    if isinstance(node, Loop):
        attrs = {"maxIterations": str(node.max_iterations)}
        if node.expected_iterations is not None:
            attrs["expectedIterations"] = f"{node.expected_iterations:g}"
        element = ET.Element("while", attrs)
        element.append(_emit(node.body))
        return element
    raise BpelParseError(f"cannot serialise node {type(node).__name__}")
