"""Record reference digests and exact counters for chosen workload seeds.

Usage (from the repository root):
    python3 perfbench/record_refs.py --seeds 0-9 [--workloads hysteresis ...]

Each (workload, seed) is run once traced; its output digests and exact
counters are stored in refs.json with the platform that produced them.  A
run whose invariant, repeat or coverage checks fail is not recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checks import REFS_PATH, load_refs
from run import WORKLOADS


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    args = p.parse_args(argv)
    refs = load_refs()
    run_py = Path(__file__).with_name("run.py")
    for workload in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(run_py), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            details = json.loads(proc.stdout.splitlines()[-2])
            failed = [n for n in details["failed_checks"]
                      if not n.startswith("reference.")]
            if failed:
                print(f"{workload} seed {seed}: checks failed: {failed}",
                      file=sys.stderr)
                return 1
            stamp = details["provenance"]["platform"]
            if refs["platform"] != stamp:
                refs = {"platform": stamp, "workloads": {}}
            refs["workloads"].setdefault(workload, {})[str(seed)] = {
                "digests": details["digests"],
                "counters": details["counters"],
            }
            REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                 + "\n")
            print(f"{workload} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
