#!/usr/bin/env python3
"""Closed-loop step responses at three supply/volume conditions.

For each condition the trace is compared against the piecewise-linear model
(rise at the inflation-rate benchmark, then flat at the target): average rise
rate, nRMSE normalized by the commanded pressure, overshoot, and settling
time into the +-1 kPa band. The reservoir is held at the fill pressure to
isolate the inflation dynamics.
"""

import argparse
from pathlib import Path

from pneusim import analysis, gasmodel
from pneusim.cli import write_timeseries_csv
from pneusim.components import EVP_R_VMIN
from pneusim.sim import simulate, step_scenario

CONDITIONS = [
    # label, step kPa, V_cv L, P_r kPa
    ("69kPa_half_liter", 69.0, 0.5, 689.0),
    ("34kPa_one_liter", 34.0, 1.0, 689.0),
    ("21kPa_one_liter_low_supply", 21.0, 1.0, 345.0),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = f"{'condition':<28} {'model kPa/s':>11} {'avg kPa/s':>10} {'nRMSE %':>8} {'overshoot':>10} {'settle s':>9}"
    print(header)
    for label, target, v_cv, p_r in CONDITIONS:
        model_rate = gasmodel.inflation_rate(p_r, EVP_R_VMIN, v_cv)
        duration = max(3.0, 4.0 * target / model_rate + 3.0)
        scn = step_scenario(target, v_cv=v_cv, p_r0=p_r, duration=duration, hold_reservoir=True)
        ts = simulate(scn)
        m = analysis.step_metrics(ts, target, model_rate=model_rate)
        write_timeseries_csv(ts, out_dir / f"step_{label}.csv")
        print(
            f"{label:<28} {model_rate:>11.2f} {m.avg_rise_rate:>10.2f} "
            f"{100 * m.nrmse:>8.2f} {m.overshoot:>10.3f} {m.settling_time:>9.2f}"
        )
    print(f"\ntraces written to {out_dir}/")


if __name__ == "__main__":
    main()
