"""Run one benchmark workload in this process and print its measurements as
one JSON line.  Started by ``run.py``; see README.md for the workloads.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
"""

from __future__ import annotations

import os
import sys

from run import THREAD_ENV, find_root

os.environ.update(THREAD_ENV)  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = find_root()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ringflow import (  # noqa: E402
    baselines,
    cli,
    config as cfg,
    dqn,
    metrics,
    net,
    scenario,
)

from checks import (  # noqa: E402
    Checks,
    check_ring,
    check_trace,
    compare_digests,
    digest,
    load_refs,
    platform_stamp,
)
from spans import TRACED, Tracer, exact_counters, layer_metrics  # noqa: E402

EVAL_STEPS = 3000
VSL_STEPS = 3000


class Hysteresis:
    """``ringflow hysteresis`` on a quarter-size ring: the default IDM and
    density range (to 68 veh/km) on 250 m, so loading to 17 vehicles; then
    unload to 2 and write both traces and the fundamental-diagram SVG."""

    # A quarter of the default 1000 m ring and 68-vehicle target: about 30k
    # ring steps, so that a run repeats the command several times.
    LENGTH_M = 250.0
    LOAD_TARGET = 17

    exercised = (
        "idm.idm_acceleration_vec", "ring.step", "ring.RingState.copy",
        "ring.load_vehicles", "metrics.measure", "metrics.TraceRecorder.record",
        "metrics.FdTrace.write", "svgplot.Chart.write",
        "scenario.unload_incrementally", "cli.main",
    )

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.config_path = work / "hysteresis.cfg"
        self.out = work / "hysteresis"
        self.config = None

    def setup(self):
        # the workload seed reaches the program only as the removal seed
        self.config_path.write_text(
            f"sim.length = {self.LENGTH_M}\n"
            f"scenario.load_target = {self.LOAD_TARGET}\n"
            f"scenario.removal_seed = {self.seed}\n")
        self.config = cfg.load_config(self.config_path)

    def check_setup(self, checks):
        pass

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["hysteresis", "--config", str(self.config_path),
                             "--out", str(self.out)])
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, checks, out, wall):
        """Check one operation's outputs; returns ``(digests, steps/s)``."""
        c = self.config
        v0 = c.idm.v0
        checks.check("exit_code", out["code"] == 0)
        files = {name: (self.out / name).read_bytes() for name in
                 ("loading_trace.csv", "unloading_trace.csv",
                  "fundamental_diagram.svg")}
        loading = metrics.FdTrace.read(self.out / "loading_trace.csv")
        unloading = metrics.FdTrace.read(self.out / "unloading_trace.csv")
        check_trace(checks, "loading", loading, v0)
        check_trace(checks, "unloading", unloading, v0)
        per_km = 1000.0 / c.length
        checks.check("loading.grows", bool(np.all(np.diff(loading.density) >= 0)))
        checks.check("loading.final_density",
                     np.isclose(loading.density[-1], c.load_target * per_km))
        checks.check("unloading.shrinks",
                     bool(np.all(np.diff(unloading.density) <= 0)))
        checks.check("unloading.final_density",
                     np.isclose(unloading.density[-1], 2 * per_km))
        peak = re.search(r"^loading peak flow ([0-9.]+) .*$", out["stdout"],
                         re.MULTILINE)
        checks.check("peak_flow.printed", peak is not None and abs(
            float(peak.group(1)) - loading.flow.max()) <= 0.051)
        svg = files["fundamental_diagram.svg"].decode()
        checks.check("svg.document", svg.startswith("<svg")
                     and svg.rstrip().endswith("</svg>"))
        digests = {name: digest(data) for name, data in files.items()}
        digests["peak_flow"] = digest(peak.group(0).encode() if peak else b"")
        steps = len(loading) + len(unloading)
        return digests, steps / wall


class Train:
    """The criterion-7 fixture shape at a reduced budget: per DDQN seed,
    ``build_scenario`` in set-up, then train, evaluate, the IDM plateau and
    a VSL run, writing the reward trace, checkpoint and traces."""

    exercised = tuple(name for name in TRACED if name not in (
        "cli.main", "scenario.unload_incrementally", "svgplot.Chart.write"))

    def __init__(self, seed, work, profile, ddqn_seeds, train_steps):
        self.work = work
        self.ddqn_seeds = ddqn_seeds
        base = cfg.apply_profile(cfg.preset("mpr33"), profile)
        self.configs = [
            replace(base, ddqn=replace(base.ddqn, seed=s,
                                       total_train_steps=train_steps))
            for s in ddqn_seeds
        ]
        self.built = []

    def setup(self):
        self.built = [scenario.build_scenario(c) for c in self.configs]

    def check_setup(self, checks):
        for s, c, b in zip(self.ddqn_seeds, self.configs, self.built):
            left = c.load_target - sum(c.removal_schedule)
            check_ring(checks, f"seed{s}.loaded_ring", b.loaded_ring,
                       c.load_target)
            check_ring(checks, f"seed{s}.post_removal_ring",
                       b.post_removal_ring, left, cav_count=c.cav_count)

    def op(self):
        runs = []
        for s, c, b in zip(self.ddqn_seeds, self.configs, self.built):
            env = dqn.RingEnv(b.env_spec, rng=np.random.default_rng(s))
            t0 = time.perf_counter()
            result = dqn.train(env, c.ddqn, spec=c.net_spec)
            train_s = time.perf_counter() - t0
            evaluation, _ = dqn.evaluate(result.network, b.env_spec, EVAL_STEPS)
            plateau = scenario.idm_plateau_speed(b.env_spec)
            vsl, _ = baselines.run_vsl(b.env_spec.snapshot, c.vsl, VSL_STEPS)
            out = self.work / f"seed{s}"
            out.mkdir(exist_ok=True)
            result.write_reward_trace(out / "reward_trace.csv")
            net.save_checkpoint(result.network, result.adam,
                                out / "checkpoint.bin")
            evaluation.write(out / "evaluation_trace.csv")
            vsl.write(out / "vsl_trace.csv")
            runs.append({"result": result, "train_s": train_s,
                         "evaluation": evaluation, "plateau": plateau,
                         "vsl": vsl, "out": out})
        return runs

    def check(self, checks, runs, wall):
        digests = {}
        for s, c, b, run in zip(self.ddqn_seeds, self.configs, self.built,
                                runs):
            v0 = c.idm.v0
            result = run["result"]
            left = b.post_removal_ring.n * 1000.0 / c.length
            checks.check(f"seed{s}.total_steps",
                         result.total_steps == c.ddqn.total_train_steps)
            checks.check(f"seed{s}.episode_steps",
                         sum(e.steps for e in result.episodes)
                         == result.total_steps)
            checks.check(f"seed{s}.rewards_finite",
                         bool(np.isfinite(result.episode_rewards()).all()))
            checks.check(f"seed{s}.weights_finite", all(
                np.isfinite(w).all() for w in result.network.weights))
            check_trace(checks, f"seed{s}.evaluation", run["evaluation"], v0,
                        max_len=EVAL_STEPS, density=left)
            check_trace(checks, f"seed{s}.vsl", run["vsl"], v0,
                        max_len=VSL_STEPS, density=left)
            checks.check(f"seed{s}.plateau_range", 0.0 < run["plateau"] <= v0)
            for name in ("reward_trace.csv", "checkpoint.bin",
                         "evaluation_trace.csv", "vsl_trace.csv"):
                digests[f"seed{s}.{name}"] = digest(
                    (run["out"] / name).read_bytes())
            digests[f"seed{s}.plateau"] = digest(run["plateau"])
        steps = sum(run["result"].total_steps for run in runs)
        return digests, steps / sum(run["train_s"] for run in runs)


WORKLOADS = {
    "hysteresis": lambda seed, work: Hysteresis(seed, work),
    # two DDQN seeds per workload seed, as the criterion-7 fixture trains
    # consecutive seeds on one scenario
    "train_desk": lambda seed, work: Train(
        seed, work, "desk", (2 * seed, 2 * seed + 1), train_steps=3000),
}


def provenance(workload, seed, trace):
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ringflow").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "platform": platform_stamp(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def measure(workload, seed, seconds, trace, work):
    wl = WORKLOADS[workload](seed, work)
    checks = Checks()
    refs = load_refs()
    ref = None
    if refs["platform"] == platform_stamp():
        ref = refs["workloads"].get(workload, {}).get(str(seed))
    tracer = Tracer() if trace else None

    if tracer:
        tracer.mark()
        tracer.install()
    t0 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t0
    wl.check_setup(checks)

    # Warm-up: one untraced operation inside the measured window, checked
    # but left out of the medians.  It fills caches and creates the output
    # files; in a traced run it is also the untraced time for the overhead.
    if tracer:
        tracer.uninstall()
    t_measure = time.perf_counter()
    out = wl.op()
    untraced_wall = time.perf_counter() - t_measure
    first_digests, _ = wl.check(checks, out, untraced_wall)
    compare_digests(checks, "reference.", first_digests,
                    ref and ref["digests"])
    if tracer:
        tracer.install()

    ops = []
    while True:
        if tracer:
            tracer.mark()
        c0 = time.process_time()
        w0 = time.perf_counter()
        out = wl.op()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        digests, rate = wl.check(checks, out, wall)
        compare_digests(checks, "repeat.", digests, first_digests)
        compare_digests(checks, "reference.", digests,
                        ref and ref["digests"])
        ops.append({"wall_s": wall, "cpu_s": cpu, "steps_per_s": rate})
        if time.perf_counter() - t_measure >= seconds:
            break

    result = {
        "setup_build_s": setup_s,
        "warmup_wall_s": untraced_wall,
        "ops": ops,
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "steps_per_s": statistics.median(op["steps_per_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "digests": first_digests,
        "reference_compared": ref is not None,
    }
    if tracer:
        tracer.uninstall()
        phases = list(range(1, len(tracer.phase_starts)))
        layers, exact = layer_metrics(tracer, phases)
        for name in wl.exercised:
            checks.check(f"coverage.{name}", exact[f"{name}.calls"] > 0)
        mismatches = []
        first = exact_counters(tracer.phase_calls(1),
                               tracer.phase_counters[1])
        for p in phases[1:]:
            again = exact_counters(tracer.phase_calls(p),
                                   tracer.phase_counters[p])
            mismatches += [f"repeat.{k}" for k in first if again[k] != first[k]]
        if ref is not None:
            mismatches += [f"reference.{k}" for k, v in ref["counters"].items()
                           if exact.get(k) != v]
        traced_wall = statistics.median(op["wall_s"] for op in ops)
        layers["tracing.overhead_frac"] = (
            traced_wall / untraced_wall - 1.0, "ratio")
        layers["tracing.counter_mismatches"] = (len(mismatches), "count")
        result.update(layers=layers, counters=exact,
                      counter_mismatches=mismatches,
                      spans=len(tracer.start))
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        tracer.write(ROOT / ".perfbench" / f"spans-{workload}.npz")
    result["checks"] = {"attempted": checks.attempted, "failed": checks.failed}
    result["provenance"] = provenance(workload, seed, trace)
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    a = p.parse_args(argv)
    result = measure(a.workload, a.seed, a.seconds, bool(a.trace), a.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
