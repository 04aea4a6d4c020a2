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
from pneusim.cli import load_scenario, write_timeseries_csv
from pneusim.sim import simulate

PAPER = Path(__file__).resolve().parent.parent / "scenarios" / "paper"
# in the order of the report's rows
CONDITIONS = ["step_69kPa_half_liter", "step_34kPa_one_liter", "step_21kPa_one_liter_low_supply"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = f"{'condition':<28} {'model kPa/s':>11} {'avg kPa/s':>10} {'nRMSE %':>8} {'overshoot':>10} {'settle s':>9}"
    print(header)
    for stem in CONDITIONS:
        scn, _ = load_scenario(PAPER / f"{stem}.json")
        net, target = scn.network, scn.command.target_kpa
        model_rate = gasmodel.inflation_rate(
            net.reservoir.p_r0, net.inflation_valve.r_vmin, net.control_volume.v_cv, scn.gas
        )
        ts = simulate(scn)
        m = analysis.step_metrics(ts, target, model_rate=model_rate)
        write_timeseries_csv(ts, out_dir / f"{stem}.csv")
        label = stem.removeprefix("step_")
        print(
            f"{label:<28} {model_rate:>11.2f} {m.avg_rise_rate:>10.2f} "
            f"{100 * m.nrmse:>8.2f} {m.overshoot:>10.3f} {m.settling_time:>9.2f}"
        )
    print(f"\ntraces written to {out_dir}/")


if __name__ == "__main__":
    main()
