"""Dissipate a stop-and-go wave with a scripted platoon controller.

Starting from the post-departure shock (a deep stop-and-go wave, mean speed
~4.9 m/s), a two-phase script steers the 17-CAV platoon:

  1. flatten: brake for 300 steps — the platoon stops, internal speed
     differences collapse to zero, and the jam drains ahead of it;
  2. ramp: bang-bang speed tracking whose setpoint rises adiabatically
     (0.002 m/s per step) from 2.0 to 9.5 m/s.

The ring settles into a stable 9.5 m/s cruise — well above the ~7.5 m/s
plateau that all-human recovery reaches on the same snapshot — and then
switching the CAVs back to human car-following lets the wave re-form.  Run:

    python3 demos/wave_dissipation_demo.py
"""

import numpy as np

from ringflow import apply_profile, build_scenario, idm_plateau_speed, preset
from ringflow.ring import revert_to_human, rollout


def scripted_accel(t, ring, flatten_steps=300, base=2.0, rate=0.002,
                   ceiling=9.5):
    """``rollout`` control: the CAV command for step ``t``, no speed limit."""
    if t < flatten_steps:
        return -1.0, None
    setpoint = min(ceiling, base + rate * (t - flatten_steps))
    return (-1.0 if ring.mean_speed() >= setpoint else 1.0), None


def main():
    c = apply_profile(preset("mpr33"), "desk")
    built = build_scenario(c)
    ring = built.post_removal_ring.copy()
    print(
        f"shock snapshot: {ring.n} vehicles "
        f"({int(ring.cav_count)} CAVs in a platoon), mean speed "
        f"{ring.mean_speed():.2f} m/s"
    )
    plateau = idm_plateau_speed(built.env_spec)
    print(f"all-human recovery plateau on this snapshot: {plateau:.2f} m/s")

    horizon = 8000
    speeds = []
    ring, report = rollout(ring, horizon, scripted_accel,
                           lambda r: speeds.append(r.mean_speed()))
    if report is not None:
        print(f"collision at step {len(speeds) - 1} — unexpected")
        return
    tail = float(np.mean(speeds[-1600:]))
    print(
        f"scripted platoon control: no collision in {horizon} steps, "
        f"steady mean speed {tail:.2f} m/s "
        f"({tail / plateau - 1:+.0%} vs the all-human plateau)"
    )

    reverted, _ = rollout(revert_to_human(ring), 2000)
    print(
        f"after handing the CAVs back to human car-following: mean speed "
        f"{reverted.mean_speed():.2f} m/s (the wave re-forms)"
    )


if __name__ == "__main__":
    main()
