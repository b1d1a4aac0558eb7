"""Counts repeat exactly: two short traced passes at one seed agree.

Every workload runs a fixed number of requests (not a fixed time)
twice at the same seed, through the same traced path the benchmark
uses, and the count metrics must be identical: a count an
optimisation claim rests on has to repeat exactly.

Run from the repository root (about a minute)::

    python3 perfbench/check_counts.py
    python3 -m pytest -q perfbench/check_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as perfbench  # noqa: E402

COUNT_METRICS = (
    "engine.steps",
    "engine.substeps",
    "engine.relaxations",
    "engine.solves_per_req",
    "serve.planner.hit_ratio",
    "serve.planner.misses",
    "serve.backends.rows_per_req",
    "serve.http.response_bytes",
    "preprocess.shortcut_edges",
)


def traced_counts(workload: str, *, seed: int = 7, requests: int = 12) -> dict:
    result = perfbench.run(workload, seed, trace=True, requests=requests, setups=1)
    assert result.failed == 0, f"{workload}: {result.failed} wrong answers"
    return {key: result.metrics[key]["value"] for key in COUNT_METRICS}


def test_counts_repeat_exactly() -> None:
    for workload in perfbench.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        assert first == second, f"{workload}: {first} != {second}"


if __name__ == "__main__":
    test_counts_repeat_exactly()
    print("counts repeat exactly on", ", ".join(perfbench.WORKLOADS))
