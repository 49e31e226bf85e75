"""The benchmark (perfbench/worker.py) drives ringflow through config keys,
CLI flags and output files, and compares output digests with recorded
references.  One warm-up and one measured operation of each workload must
pass every check, so a change that breaks what the benchmark relies on, or
changes a digest it records, fails here and not only in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402


def test_hysteresis_workload_passes_every_check(tmp_path):
    result = worker.measure("hysteresis", 0, 0.0, False, tmp_path)
    assert len(result["ops"]) == 1
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == []


def test_train_desk_workload_passes_every_check(tmp_path):
    # on the platform refs.json records, the checks include the digests of
    # the reward traces and checkpoint.bin bytes
    result = worker.measure("train_desk", 0, 0.0, False, tmp_path)
    assert len(result["ops"]) == 1
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == []
