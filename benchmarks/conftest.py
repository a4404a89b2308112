"""Shared helpers for the benchmark suite.

Every benchmark both (a) registers a pytest-benchmark timing for one
representative point and (b) regenerates the paper's full series, printing
it and writing it under ``benchmarks/results/`` so EXPERIMENTS.md can quote
the exact rows.  When the benchmark hands ``emit`` the sweep itself (the
``data=`` argument), a machine-readable ``.json`` lands next to the
``.txt`` — including the run-to-run timing spread
(median/min/max/mean/stdev) that the rendered table collapses to a median.
``emit`` writes nothing outside ``benchmarks/results/``, which git
ignores.
"""

from __future__ import annotations

import pathlib
from typing import Optional

import pytest

from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Print a rendered series and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str, data: Optional[Sweep] = None) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            (RESULTS_DIR / f"{name}.json").write_text(
                render_json(data) + "\n"
            )

    return _emit
