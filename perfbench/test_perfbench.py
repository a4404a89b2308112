"""Checks of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import uuid

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(*args, env=None, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _processes_with(marker: str) -> list:
    """Pids of live processes whose environment holds ``marker``."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if marker.encode() in environ.split(b"\0"):
            found.append(int(entry.name))
    return found


def test_churn_process_leaves_no_process_running():
    # Every process the run starts inherits this marker: the spawned
    # compose workers, the resource tracker and the set-up probes.
    marker = f"PERFBENCH_RUN={uuid.uuid4().hex}"
    key, value = marker.split("=")
    done = _bench(
        "--workload", "churn-process", "--seed", "3", "--seconds", "1",
        "--trace", "0", env={**os.environ, key: value},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert _processes_with(marker) == []


def test_trace_reports_every_per_layer_metric():
    done = _bench(
        "--workload", "unique-serial", "--seed", "3", "--seconds", "1",
        "--trace", "1",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    # The serial workload's runtime pass goes through a thread runtime.
    assert metrics["runtime.worker_ms"]["value"] > 0
    assert metrics["composition.select_ms"]["value"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER_UNITS
    )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(
        "--workload", "unique-serial", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
