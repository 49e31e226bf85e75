"""Load a ring road to capacity, then drain it, and show the hysteresis loop.

The loading branch (density rising) and unloading branch (density falling)
trace different flow curves: once the stream has broken down, flow at a given
density never recovers to its loading value.  Run:

    python3 demos/hysteresis_demo.py [OUT_DIR]
"""

import os
import sys

from ringflow import (
    RingState,
    ScenarioConfig,
    hysteresis_gap,
    load_vehicles,
    peak_flow,
    unload_incrementally,
)
from ringflow import svgplot


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "."
    os.makedirs(out, exist_ok=True)
    c = ScenarioConfig()
    ring = RingState(c.length, c.dt, c.idm)
    print(f"loading {c.load_target} vehicles onto a {c.length:.0f} m loop...")
    ring, loading = load_vehicles(ring, c.load_target)
    density, flow = peak_flow(loading)
    print(f"loading peak: {flow:.0f} veh/h at {density:.1f} veh/km")

    print("draining the loop one vehicle at a time...")
    unloading = unload_incrementally(ring, removal_seed=c.removal_seed)

    for k in (15.0, 20.0, 25.0):
        try:
            gap = hysteresis_gap(loading, unloading, k)
        except ValueError:
            continue
        print(
            f"  at {k:.0f} veh/km the unloading branch is "
            f"{gap:.0f} veh/h below the loading branch"
        )

    chart = svgplot.fundamental_diagram_chart(
        [loading, unloading], "Loading vs unloading fundamental diagram"
    )
    path = f"{out}/hysteresis_demo.svg"
    chart.write(path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
