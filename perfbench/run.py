"""ringflow benchmark: run one workload in a fresh process and print its
metrics as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload hysteresis --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped and prints the per-layer metrics.  The line
before the result holds the provenance, the output digests and the names of
any failed checks.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned for the worker and the import probes before numpy loads in them.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOADS = ("hysteresis", "train_desk")
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 160


def find_root():
    """The checkout root: the directory holding this benchmark's directory."""
    return Path(__file__).resolve().parent.parent


def child_env(root):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(root, env):
    """Wall time of a fresh interpreter that imports ringflow and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ringflow"], cwd=root,
                   env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def run_worker(root, env, args, work):
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_line(worker, setup_s, trace):
    failed = worker["checks"]["failed"]
    if trace:
        metrics = worker["layers"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (worker["wall_s"], "s"),
            "cpu_s": (worker["cpu_s"], "s"),
            "steps_per_s": (worker["steps_per_s"], "1/s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
    return {
        "correct": not failed,
        "attempted": worker["checks"]["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = find_root()
    if not (root / "src" / "ringflow" / "__init__.py").is_file():
        print(f"error: no ringflow sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env(root)
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = base / f"work-{os.getpid()}"
    work.mkdir()
    try:
        probes = [import_seconds(root, env) for _ in range(IMPORT_PROBES)]
        worker = run_worker(root, env, args, work)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # set-up: interpreter start and import (median of fresh probes) plus
    # every build_scenario call of the workload
    setup_s = statistics.median(probes) + worker["setup_build_s"]
    details = {k: worker.get(k) for k in (
        "provenance", "digests", "reference_compared", "warmup_wall_s", "ops",
        "counters", "counter_mismatches", "spans")}
    details["import_probes_s"] = probes
    details["failed_checks"] = worker["checks"]["failed"]
    print(json.dumps(details))
    for name in worker["checks"]["failed"]:
        print(f"check failed: {name}", file=sys.stderr)
    for name in worker.get("counter_mismatches") or ():
        print(f"counter did not repeat: {name}", file=sys.stderr)
    print(json.dumps(result_line(worker, setup_s, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
