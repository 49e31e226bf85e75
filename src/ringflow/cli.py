"""Command-line front end: hysteresis, train, evaluate, compare, mpr-calc.

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 infeasible
result.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import baselines, config as cfg, dqn, metrics, mpr, net as qnet, ring
from . import scenario as scen
from . import svgplot

ENV_OUT_ROOT = "RINGFLOW_OUT"


def _out_dir(args, config):
    root = args.out or os.environ.get(ENV_OUT_ROOT) or config.out_dir
    os.makedirs(root, exist_ok=True)
    return root


def _load_config(args):
    if args.config:
        config = cfg.load_config(args.config)
    elif args.preset:
        config = cfg.preset(args.preset)
    else:
        config = cfg.ScenarioConfig()
    config = cfg.apply_profile(config, args.profile)
    if args.seed is not None:
        config = replace(
            config, seed=args.seed, ddqn=replace(config.ddqn, seed=args.seed)
        )
    return config


def cmd_hysteresis(args):
    config = _load_config(args)
    out = _out_dir(args, config)
    r = ring.RingState(config.length, config.dt, config.idm, config.seed)
    r, loading = ring.load_vehicles(r, config.load_target)
    _, unloading = scen.unload_incrementally(
        r, removal_seed=config.removal_seed
    )
    loading.write(os.path.join(out, "loading_trace.csv"))
    unloading.write(os.path.join(out, "unloading_trace.csv"))
    svgplot.fundamental_diagram_chart(
        [loading, unloading], "Loading vs unloading fundamental diagram"
    ).write(os.path.join(out, "fundamental_diagram.svg"))
    peak = metrics.peak_flow(loading)
    print(f"loading peak flow {peak.flow:.1f} veh/h at {peak.density:.1f} veh/km")
    print(f"wrote traces and plot under {out}")
    return 0


def cmd_train(args):
    config = _load_config(args)
    out = _out_dir(args, config)
    built = scen.build_scenario(config)
    ring.save_snapshot(built.post_removal_ring, os.path.join(out, "snapshot.json"))
    built.loading_trace.write(os.path.join(out, "loading_trace.csv"),
                              decimation=10)
    env = dqn.RingEnv(built.env_spec,
                      rng=np.random.default_rng(config.ddqn.seed))
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
    print(f"success flow threshold {built.success_flow_threshold:.1f} veh/h")
    print(f"wrote checkpoint and traces under {out}")
    return 0


def cmd_evaluate(args):
    config = _load_config(args)
    out = _out_dir(args, config)
    if not args.checkpoint:
        print("evaluate requires --checkpoint", file=sys.stderr)
        return 1
    policy, _ = qnet.load_checkpoint(args.checkpoint,
                                     expect_spec=config.net_spec)
    built = scen.build_scenario(config)
    trace, traj = dqn.evaluate(policy, built.env_spec, args.steps,
                               record_trajectory=True)
    trace.write(os.path.join(out, "evaluation_trace.csv"))
    traj.write(os.path.join(out, "trajectory.csv"))
    svgplot.fundamental_diagram_chart(
        [built.loading_trace.decimate(10), trace],
        "Controlled rollout vs loading branch",
    ).write(os.path.join(out, "fd_overlay.svg"))
    svgplot.time_series_chart(trace, "mean_speed", config.dt,
                              "Mean speed under control").write(
        os.path.join(out, "speed_series.svg"))
    svgplot.trajectory_chart(traj.rows, dt=config.dt).write(
        os.path.join(out, "trajectories.svg"))
    if len(trace):
        exceeded = bool((trace.flow > built.success_flow_threshold).any())
        print(f"max flow {trace.flow.max():.1f} veh/h "
              f"(threshold {built.success_flow_threshold:.1f}, "
              f"exceeded: {exceeded})")
    print(f"wrote evaluation outputs under {out}")
    return 0


def cmd_compare(args):
    config = _load_config(args)
    out = _out_dir(args, config)
    built = scen.build_scenario(config)
    horizon = args.steps
    idm_trace = baselines.run_idm_recovery(built.env_spec.snapshot, horizon)
    idm_trace.write(os.path.join(out, "idm_recovery_trace.csv"))
    vsl_trace, _ = baselines.run_vsl(built.env_spec.snapshot, config.vsl,
                                     horizon)
    vsl_trace.write(os.path.join(out, "vsl_trace.csv"))
    lines = [
        "scenario,branch,peak_flow_veh_h,final_flow_veh_h,peak_mean_speed_mps",
        _summary_row("idm", idm_trace),
        _summary_row("vsl", vsl_trace),
    ]
    charts = [idm_trace, vsl_trace]
    if args.checkpoint:
        policy, _ = qnet.load_checkpoint(args.checkpoint,
                                         expect_spec=config.net_spec)
        sb = baselines.run_switch_back(policy, built.env_spec,
                                       extra_steps=args.extra_steps)
        sb.cav_trace.write(os.path.join(out, "switchback_cav_trace.csv"))
        sb.reverted_trace.write(
            os.path.join(out, "switchback_reverted_trace.csv"))
        lines.append(_summary_row("cav", sb.cav_trace))
        lines.append(_summary_row("reverted", sb.reverted_trace))
        charts += [sb.cav_trace, sb.reverted_trace]
    with open(os.path.join(out, "comparison.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    chart = svgplot.Chart("Flow comparison", "time (s)", "flow (veh/h)")
    for label, t in zip(("idm", "vsl", "cav", "reverted"), charts):
        chart.line(t.steps * config.dt, t.flow, label=label)
    chart.write(os.path.join(out, "comparison.svg"))
    print("\n".join(lines))
    print(f"wrote comparison outputs under {out}")
    return 0


def _summary_row(name, trace):
    if len(trace) == 0:
        return f"default,{name},0,0,0"
    return (f"default,{name},{trace.flow.max():.1f},{trace.flow[-1]:.1f},"
            f"{trace.mean_speed.max():.3f}")


def cmd_mpr_calc(args):
    scenario = mpr.HeadwayScenario(
        prev_headway=args.prev_headway,
        cur_headway=args.cur_headway,
        total_vehicles=args.total,
        cav_headway=args.cav_headway,
    )
    try:
        raw, count = mpr.required_cavs(scenario)
    except (mpr.InfeasibleError, mpr.DegenerateScenarioError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
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

    def common(sp, steps_default=None):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--config", help="key = value config file")
        source.add_argument("--preset", choices=["mpr33", "mpr15", "mpr66",
                                                 "two-step"])
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", help=f"output dir (or ${ENV_OUT_ROOT})")
        sp.add_argument("--profile", choices=["full", "desk"], default="full")
        if steps_default is not None:
            sp.add_argument("--steps", type=int, default=steps_default)

    sp = sub.add_parser("hysteresis", help="loading/unloading FD branches")
    common(sp)
    sp.set_defaults(func=cmd_hysteresis)

    sp = sub.add_parser("train", help="train the DDQN controller")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="greedy rollout of a checkpoint")
    common(sp, steps_default=2000)
    sp.add_argument("--checkpoint", help="checkpoint file")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("compare", help="IDM vs VSL vs CAV switch-back")
    common(sp, steps_default=2000)
    sp.add_argument("--checkpoint", help="checkpoint for the CAV branches")
    sp.add_argument("--extra-steps", type=int, default=200)
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
