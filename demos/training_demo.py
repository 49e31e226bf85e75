"""Train the Q-network on the shock scenario and inspect what it learned.

Runs the reduced "desk" training profile (64x64 net, 500 episodes capped at
150k steps) on the 33%-CAV preset, then prints the reward trend, the greedy
action as a function of the only state variable (mean speed), and a greedy
evaluation against the all-human recovery plateau.  Run:

    python3 demos/training_demo.py
"""

import numpy as np

from ringflow import (
    RingEnv,
    apply_profile,
    build_scenario,
    evaluate,
    idm_plateau_speed,
    preset,
    select_action,
    steady_speed,
    train,
)

PROBE_SPEEDS = np.linspace(0.0, 12.0, 13)  # m/s, for the greedy map
EVAL_STEPS = 3000


def greedy_map(net, v0):
    """The controller's action at each probe mean speed, as '-', '0' or '+':
    its observation is the mean speed over the desired speed ``v0``."""
    return "".join("-0+"[select_action(net, v / v0)] for v in PROBE_SPEEDS)


def rollout_line(trace, report, plateau):
    """The greedy rollout's line: its steady speed against the plateau, or,
    for a rollout that collided (``report`` is its collision report), the
    step of the crash, since the speeds before a crash are no steady
    state."""
    if report is not None:
        return (f"greedy rollout: collided at step {len(trace)} (not steady), "
                f"all-human plateau {plateau:.2f} m/s")
    return (f"greedy rollout: {len(trace)} steps, steady mean speed "
            f"{steady_speed(trace):.2f} m/s vs all-human plateau "
            f"{plateau:.2f} m/s")


def main():
    c = apply_profile(preset("mpr33"), "desk")
    built = build_scenario(c)
    env = RingEnv(built.env_spec)
    print(
        f"training: {c.ddqn.episodes} episode cap, "
        f"{c.ddqn.total_train_steps} step cap..."
    )
    result = train(env, c.ddqn, spec=c.net_spec)
    rewards = result.episode_rewards()
    k = max(1, len(rewards) // 10)
    print(
        f"{len(rewards)} episodes / {result.total_steps} steps; "
        f"mean reward first 10%: {rewards[:k].mean():.0f}, "
        f"last 10%: {rewards[-k:].mean():.0f}"
    )

    print("greedy action by mean speed 0..12 m/s: "
          f"{greedy_map(result.network, c.idm.v0)}")

    plateau = idm_plateau_speed(built.env_spec)
    trace, report = evaluate(result.network, built.env_spec, EVAL_STEPS)
    print(rollout_line(trace, report, plateau))
    print(
        "note: with a single scalar state and uniform replay, the value "
        "function settles into an optimistic fixed point and the greedy "
        "policy accelerates everywhere; see wave_dissipation_demo.py for a "
        "scripted controller that reaches the high-speed cruise this "
        "training is aiming for."
    )


if __name__ == "__main__":
    main()
