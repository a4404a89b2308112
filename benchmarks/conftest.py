"""Shared helpers for the benchmark suite.

Every benchmark both (a) registers a pytest-benchmark timing for one
representative point and (b) regenerates the paper's full series, printing
it and writing it under ``benchmarks/results/`` so EXPERIMENTS.md can quote
the exact rows.  When the benchmark hands ``emit`` the sweep itself (the
``data=`` argument), a machine-readable ``.json`` lands next to the
``.txt`` — including the run-to-run timing spread
(median/min/max/mean/stdev) that the rendered table collapses to a median.

Sweeps named in :data:`TRACKED_BENCHMARKS` additionally append to a
trajectory file at the repository root (``BENCH_optimality.json``): a
committed, append-only history of the headline series, so performance
regressions show up in review diffs instead of only in expiring CI
artifacts.  Each run appends one entry and the history is capped at
:data:`TRAJECTORY_LIMIT` most-recent runs.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from typing import Optional

import pytest

from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_json, sweep_to_dict

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Sweep name -> repo-root trajectory file.
TRACKED_BENCHMARKS = {
    "optimality": "BENCH_optimality.json",
}

#: Most-recent runs kept per trajectory file.
TRAJECTORY_LIMIT = 20


def _append_trajectory(sweep: Sweep) -> None:
    """Append one run to the sweep's repo-root trajectory, if tracked."""
    filename = TRACKED_BENCHMARKS.get(sweep.name)
    if filename is None:
        return
    path = REPO_ROOT / filename
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = []
    history.append({
        "recorded": datetime.date.today().isoformat(),
        "sweep": sweep_to_dict(sweep),
    })
    history = history[-TRAJECTORY_LIMIT:]
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


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
            _append_trajectory(data)

    return _emit
