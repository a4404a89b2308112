"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series the paper's figures plot; these
helpers keep that output consistent and diff-able (EXPERIMENTS.md records
them verbatim).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.harness import Sweep, Timing
from repro.observability.exporters import render_table


def render_series(sweep: Sweep, keys: Optional[Sequence[str]] = None) -> str:
    """Render a sweep as a table: x column + one column per series key."""
    if keys is None:
        seen: List[str] = []
        for point in sweep.points:
            for key in point.values:
                if key not in seen:
                    seen.append(key)
        keys = seen
    headers = [sweep.x_label] + list(keys)
    rows = [
        [point.x] + [point.values.get(key, "") for key in keys]
        for point in sweep.points
    ]
    return render_table(headers, rows, title=sweep.name)


def sweep_to_dict(sweep: Sweep) -> Dict[str, Any]:
    """A JSON-serialisable form of a sweep.

    Plain values serialise as numbers; :class:`Timing` values expand into
    their full run-to-run spread (median/min/max/mean/stdev/repetitions),
    so benchmark JSON captures measurement noise, not just the median.
    """
    return {
        "name": sweep.name,
        "x_label": sweep.x_label,
        "points": [
            {
                "x": point.x,
                "values": {
                    key: (
                        value.summary()
                        if isinstance(value, Timing)
                        else value
                    )
                    for key, value in point.values.items()
                },
            }
            for point in sweep.points
        ],
    }


def render_json(sweep: Sweep) -> str:
    """The sweep as pretty-printed JSON (what benchmarks persist)."""
    return json.dumps(sweep_to_dict(sweep), indent=2, sort_keys=True)

