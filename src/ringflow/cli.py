"""Command-line front end: hysteresis, train, evaluate, compare, mpr-calc.

``train --out DIR`` leaves a run directory (``run.json``, ``snapshot.json``,
``loading_trace.csv``, ``checkpoint.bin``) that ``evaluate --run DIR`` and
``compare --run DIR`` read back instead of rebuilding the scenario.
``--steps`` and ``--extra-steps`` must be >= 1, as every trace has a
sample.  ``evaluate`` and ``compare`` print ``rollout collided at step N
(follower F, leader L)`` for a rollout that a collision ended, ``compare``
after the branch's name.

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 infeasible
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import baselines, config as cfg, dqn, metrics, mpr, net as qnet, ring
from . import scenario as scen
from . import svgplot


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_config(args):
    """The profile's sizes (``train`` has a profile), then the preset's or
    the file's values over them."""
    config = cfg.apply_profile(cfg.ScenarioConfig(),
                               getattr(args, "profile", "full"))
    if args.config:
        return cfg.load_config(args.config, config)
    if args.preset:
        return cfg.config_from_kv(cfg.PRESETS[args.preset], config)
    return config


def _count_from(least):
    """An argparse type: an int of at least ``least``."""
    def count(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n
    return count


def _output_dir(path):
    if not path:
        raise argparse.ArgumentTypeError("must name a directory")
    return path


def _input_file(path):
    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    return path


def _read_run(run_dir):
    """A ``train`` output directory read back: ``(config, policy, env_spec,
    loading_trace)``, from its ``run.json``, ``checkpoint.bin``,
    ``snapshot.json`` and ``loading_trace.csv``.  ``ValueError`` if a file
    is missing or malformed, or does not fit the run's config."""
    try:
        with open(os.path.join(run_dir, "run.json")) as f:
            run = json.load(f)
        if not (isinstance(run, dict) and type(run.get("config")) is str
                and type(run.get("success_flow_threshold")) is float):
            raise ValueError("run.json needs a config text and a float "
                             "success_flow_threshold")
        config = cfg.config_from_kv(cfg.parse_kv(run["config"]))
        policy, _ = qnet.load_checkpoint(
            os.path.join(run_dir, "checkpoint.bin"),
            expect_spec=config.net_spec)
        with open(os.path.join(run_dir, "snapshot.json")) as f:
            snapshot = ring.snapshot_from_json(f.read())
        loading = metrics.FdTrace.read(
            os.path.join(run_dir, "loading_trace.csv"))
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read the training run {run_dir}: {e}") \
            from None
    if ((snapshot.length, snapshot.dt, snapshot.params)
            != (config.length, config.dt, config.idm)):
        raise ValueError("snapshot.json does not fit the run's config")
    env_spec = scen.env_spec(config, snapshot, run["success_flow_threshold"])
    return config, policy, env_spec, loading


def cmd_hysteresis(args):
    config = _load_config(args)
    r = ring.RingState(config.length, config.dt, config.idm)
    r, loading = ring.load_vehicles(r, config.load_target)
    unloading = scen.unload_incrementally(r,
                                          removal_seed=config.removal_seed)
    out = _out_dir(args)
    loading.write(os.path.join(out, "loading_trace.csv"))
    unloading.write(os.path.join(out, "unloading_trace.csv"))
    svgplot.fundamental_diagram_chart(
        [loading, unloading], "Loading vs unloading fundamental diagram"
    ).write(os.path.join(out, "fundamental_diagram.svg"))
    density, flow = metrics.peak_flow(loading)
    print(f"loading peak flow {flow:.1f} veh/h at {density:.1f} veh/km")
    print(f"wrote traces and plot under {out}")
    return 0


def cmd_train(args):
    config = _load_config(args)
    if args.seed is not None:
        config = cfg.config_from_kv({"ddqn.seed": str(args.seed)}, config)
    built = scen.build_scenario(config)
    out = _out_dir(args)
    ring.save_snapshot(built.post_removal_ring, os.path.join(out, "snapshot.json"))
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump({"config": cfg.config_to_kv(config),
                   "success_flow_threshold":
                       built.env_spec.success_flow_threshold}, f, indent=2)
    built.loading_trace.decimate(10).write(
        os.path.join(out, "loading_trace.csv"))
    env = dqn.RingEnv(built.env_spec)
    result = dqn.train(env, config.ddqn, spec=config.net_spec)
    result.write_reward_trace(os.path.join(out, "reward_trace.csv"))
    qnet.save_checkpoint(result.network, result.adam,
                         os.path.join(out, "checkpoint.bin"))
    if result.episodes:
        rewards = result.episode_rewards()
        chart = svgplot.Chart("Episode reward", "episode", "cumulative reward")
        chart.line(range(len(rewards)), rewards, label="reward")
        chart.write(os.path.join(out, "reward.svg"))
        print(f"trained {len(rewards)} episodes / {result.total_steps} steps; "
              f"final-10 mean reward {rewards[-10:].mean():.1f}")
    print(f"success flow threshold "
          f"{built.env_spec.success_flow_threshold:.1f} veh/h")
    print(f"wrote checkpoint and traces under {out}")
    return 0


def cmd_evaluate(args):
    config, policy, env_spec, loading = _read_run(args.run)
    out = _out_dir(args)
    traj = ring.TrajectoryRecorder()
    trace, report = dqn.evaluate(policy, env_spec, args.steps, traj.record)
    trace.write(os.path.join(out, "evaluation_trace.csv"))
    traj.write(os.path.join(out, "trajectory.csv"))
    svgplot.fundamental_diagram_chart(
        [loading, trace],
        "Controlled rollout vs loading branch",
    ).write(os.path.join(out, "fd_overlay.svg"))
    svgplot.mean_speed_chart(trace, config.dt,
                             "Mean speed under control").write(
        os.path.join(out, "speed_series.svg"))
    svgplot.trajectory_chart(traj.rows(), dt=config.dt).write(
        os.path.join(out, "trajectories.svg"))
    threshold = env_spec.success_flow_threshold
    exceeded = bool((trace.flow > threshold).any())
    print(f"max flow {trace.flow.max():.1f} veh/h "
          f"(threshold {threshold:.1f}, "
          f"exceeded: {exceeded})")
    _print_collision("", report)
    print(f"wrote evaluation outputs under {out}")
    return 0


def cmd_compare(args):
    if args.run:
        config, policy, env_spec, _ = _read_run(args.run)
    else:
        config, policy = _load_config(args), None
        env_spec = scen.build_scenario(config).env_spec
    out = _out_dir(args)
    snap = env_spec.snapshot
    # name -> (trace file, trace, CollisionReport | None), in row and chart
    # order; the all-human recoveries report none
    branches = {
        "idm": ("idm_recovery_trace.csv",
                baselines.run_idm_recovery(snap, args.steps), None),
        "vsl": ("vsl_trace.csv",
                *baselines.run_vsl(snap, config.vsl, args.steps)),
    }
    if policy is not None:
        sb = baselines.run_switch_back(policy, env_spec,
                                       extra_steps=args.extra_steps)
        branches["cav"] = ("switchback_cav_trace.csv", sb.cav_trace,
                           sb.cav_report)
        branches["reverted"] = ("switchback_reverted_trace.csv",
                                sb.reverted_trace, None)
    lines = ["scenario,branch,peak_flow_veh_h,final_flow_veh_h,"
             "peak_mean_speed_mps"]
    chart = svgplot.Chart("Flow comparison", "time (s)", "flow (veh/h)")
    for branch, (name, trace, _) in branches.items():
        trace.write(os.path.join(out, name))
        lines.append(_summary_row(branch, trace))
        chart.line(trace.steps * config.dt, trace.flow, label=branch)
    with open(os.path.join(out, "comparison.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    chart.write(os.path.join(out, "comparison.svg"))
    print("\n".join(lines))
    for branch, (_, _, report) in branches.items():
        _print_collision(f"{branch}: ", report)
    print(f"wrote comparison outputs under {out}")
    return 0


def _print_collision(prefix, report):
    if report is not None:
        print(f"{prefix}rollout collided at step {report.step} "
              f"(follower {report.follower_id}, leader {report.leader_id})")


def _summary_row(name, trace):
    return (f"default,{name},{trace.flow.max():.1f},{trace.flow[-1]:.1f},"
            f"{trace.mean_speed.max():.3f}")


def cmd_mpr_calc(args):
    scenario = mpr.HeadwayScenario(
        prev_headway=args.prev_headway,
        cur_headway=args.cur_headway,
        total_vehicles=args.total,
        cav_headway=args.cav_headway,
    )
    raw, count = mpr.required_cavs(scenario)
    achieved = mpr.verify_headway(scenario, count)
    print(f"raw = {raw:.6f}")
    print(f"count = {count}")
    print(f"achieved average headway with {count} CAVs = {achieved:.6f} s "
          f"(target {args.prev_headway:g} s)")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="ringflow",
        description="Ring-road traffic shaping experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def scenario(sp):
        """--config or --preset; returns their group."""
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--config", type=_input_file,
                            help="key = value config file")
        source.add_argument("--preset", choices=list(cfg.PRESETS))
        return source

    def outputs(sp, steps_default=None):
        sp.add_argument("--out", type=_output_dir, default="out",
                        help="output dir (default: out)")
        if steps_default is not None:
            sp.add_argument("--steps", type=_count_from(1),
                            default=steps_default)

    sp = sub.add_parser("hysteresis", help="loading/unloading FD branches")
    scenario(sp)
    outputs(sp)
    sp.set_defaults(func=cmd_hysteresis)

    sp = sub.add_parser("train", help="train the DDQN controller")
    scenario(sp)
    outputs(sp)
    sp.add_argument("--profile", choices=list(cfg.PROFILES), default="full")
    sp.add_argument("--seed", type=int, default=None,
                    help="DDQN seed (sets ddqn.seed)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="greedy rollout of a trained run")
    sp.add_argument("--run", required=True, help="output dir of train")
    outputs(sp, steps_default=2000)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("compare", help="IDM vs VSL vs CAV switch-back")
    scenario(sp).add_argument(
        "--run", help="output dir of train: its scenario, plus the CAV "
                      "branches")
    outputs(sp, steps_default=2000)
    sp.add_argument("--extra-steps", type=_count_from(1), default=200)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("mpr-calc", help="minimum CAV count from headways")
    sp.add_argument("--total", type=int, required=True)
    sp.add_argument("--prev-headway", type=float, required=True)
    sp.add_argument("--cur-headway", type=float, required=True)
    sp.add_argument("--cav-headway", type=float, required=True)
    sp.set_defaults(func=cmd_mpr_calc)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (mpr.InfeasibleError, mpr.DegenerateScenarioError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (cfg.ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
