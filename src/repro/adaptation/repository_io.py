"""Serialising the Task Class Repository (Fig. I.2 machinery).

The paper's repository stores *abstract descriptions of the tasks offered by
the pervasive environment* and "assists users in expressing their desired
tasks".  For a repository to outlive one middleware process it needs a wire
format; we reuse the abstract-BPEL dialect for the behaviours and wrap the
classes in a small XML bundle:

.. code-block:: xml

    <taskClassRepository>
      <taskClass name="shopping" description="Buy items...">
        <behaviour>
          <process name="shopping"> ... </process>
        </behaviour>
        ...
      </taskClass>
    </taskClassRepository>

``dump_repository`` / ``load_repository`` round-trip a repository;
``save_repository`` / ``read_repository`` add file I/O.  Behavioural graphs
are rebuilt from the tasks on load, so the bundle stays purely declarative.
"""

from __future__ import annotations

import pathlib
import xml.etree.ElementTree as ET
from typing import Optional, Union

from repro.errors import BpelParseError
from repro.adaptation.task_class import TaskClass, TaskClassRepository
from repro.execution.bpel import parse_bpel, to_bpel
from repro.semantics.ontology import Ontology


def dump_repository(repository: TaskClassRepository) -> str:
    """Serialise a repository to its XML bundle."""
    root = ET.Element("taskClassRepository")
    for task_class in repository:
        class_element = ET.SubElement(
            root, "taskClass",
            {"name": task_class.name, "description": task_class.description},
        )
        for behaviour in task_class:
            behaviour_element = ET.SubElement(class_element, "behaviour")
            behaviour_element.append(
                ET.fromstring(to_bpel(behaviour.task))
            )
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode")


def load_repository(
    document: str,
    ontology: Optional[Ontology] = None,
) -> TaskClassRepository:
    """Rebuild a repository from its XML bundle."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise BpelParseError(f"malformed repository bundle: {error}") from None
    if root.tag != "taskClassRepository":
        raise BpelParseError(
            f"root element must be <taskClassRepository>, got <{root.tag}>"
        )
    repository = TaskClassRepository(ontology)
    for class_element in root:
        if class_element.tag != "taskClass":
            raise BpelParseError(
                f"unexpected element <{class_element.tag}> in bundle"
            )
        name = class_element.get("name")
        if not name:
            raise BpelParseError("<taskClass> requires a name attribute")
        task_class = repository.new_class(
            name, class_element.get("description", "")
        )
        for behaviour_element in class_element:
            if behaviour_element.tag != "behaviour":
                raise BpelParseError(
                    f"unexpected element <{behaviour_element.tag}> in "
                    f"task class {name!r}"
                )
            processes = list(behaviour_element)
            if len(processes) != 1:
                raise BpelParseError(
                    f"<behaviour> in {name!r} must hold exactly one <process>"
                )
            task = parse_bpel(
                ET.tostring(processes[0], encoding="unicode")
            )
            task_class.add(task)
    return repository


def save_repository(
    repository: TaskClassRepository,
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Write the bundle to disk; returns the resolved path."""
    target = pathlib.Path(path)
    target.write_text(dump_repository(repository))
    return target


def read_repository(
    path: Union[str, pathlib.Path],
    ontology: Optional[Ontology] = None,
) -> TaskClassRepository:
    """Load a bundle from disk."""
    return load_repository(pathlib.Path(path).read_text(), ontology)
