"""The benchmark (perfbench/worker.py) drives ringflow through config keys,
CLI flags and output files, and compares output digests with recorded
references.  One warm-up and one measured operation of its hysteresis
workload must pass every check, so a change that breaks what the benchmark
relies on fails here and not only in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402


def test_hysteresis_workload_passes_every_check(tmp_path):
    result = worker.measure("hysteresis", 0, 0.0, False, tmp_path)
    assert len(result["ops"]) == 1
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == []
