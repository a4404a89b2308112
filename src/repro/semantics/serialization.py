"""Text serialisation of ontologies (a Turtle-inspired line format).

The QoS and task ontologies are code-built, but a middleware deployment
needs to ship, diff and audit them as artefacts.  Since no RDF library is
available, this module defines a minimal line-oriented triple format —
deliberately a *subset* of Turtle's spirit, not the full grammar:

.. code-block:: text

    # comment
    <subject> <predicate> <object> .
    <subject> <predicate> "literal with spaces" .

URIs keep their prefix form (``qos:QoSProperty``); objects containing
whitespace are quoted literals (labels, comments).  Round-tripping an
ontology through :func:`dump_ontology` / :func:`load_ontology` preserves
every triple and therefore every inference.
"""

from __future__ import annotations

import pathlib
from typing import List, Union

from repro.errors import OntologyError
from repro.semantics.ontology import Ontology


def _format_term(term: str) -> str:
    if any(c.isspace() for c in term) or term.startswith('"'):
        escaped = term.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return term


def _parse_term(raw: str) -> str:
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise OntologyError(f"unterminated literal: {raw!r}")
        body = raw[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    return raw


def dump_ontology(ontology: Ontology) -> str:
    """Serialise every triple, sorted for stable diffs."""
    lines: List[str] = [f"# ontology: {ontology.name}"]
    triples = sorted(
        ontology.store.triples(),
        key=lambda t: (t.subject, t.predicate, t.object),
    )
    for triple in triples:
        lines.append(
            f"{_format_term(triple.subject)} "
            f"{_format_term(triple.predicate)} "
            f"{_format_term(triple.object)} ."
        )
    return "\n".join(lines) + "\n"


def _split_terms(line: str) -> List[str]:
    """Split a statement line into terms, honouring quoted literals."""
    terms: List[str] = []
    i = 0
    n = len(line)
    while i < n:
        while i < n and line[i].isspace():
            i += 1
        if i >= n:
            break
        if line[i] == '"':
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == '"':
                    break
                j += 1
            if j >= n:
                raise OntologyError(f"unterminated literal in line: {line!r}")
            terms.append(line[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            terms.append(line[i:j])
            i = j
    return terms


def load_ontology(document: str, name: str = "loaded") -> Ontology:
    """Rebuild an ontology from its serialisation.

    The first ``# ontology:`` comment, when present, names the result.
    """
    ontology = Ontology(name)
    for line_number, raw_line in enumerate(document.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            marker = "# ontology:"
            if line.startswith(marker):
                ontology.name = line[len(marker):].strip() or name
            continue
        if not line.endswith("."):
            raise OntologyError(
                f"line {line_number}: statement must end with '.': {line!r}"
            )
        terms = _split_terms(line[:-1].strip())
        if len(terms) != 3:
            raise OntologyError(
                f"line {line_number}: expected 3 terms, got {len(terms)}"
            )
        subject, predicate, object_ = (_parse_term(t) for t in terms)
        ontology.store.add(subject, predicate, object_)
    ontology.invalidate_caches()
    return ontology


def save_ontology(
    ontology: Ontology, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the serialisation to disk; returns the resolved path."""
    target = pathlib.Path(path)
    target.write_text(dump_ontology(ontology))
    return target


def read_ontology(
    path: Union[str, pathlib.Path], name: str = "loaded"
) -> Ontology:
    """Load a serialised ontology from disk."""
    return load_ontology(pathlib.Path(path).read_text(), name)
