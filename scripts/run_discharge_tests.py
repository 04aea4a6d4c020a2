#!/usr/bin/env python3
"""Reservoir blowdown characterization across fill pressures, volumes, and resistances.

Simulates each condition, fits the decay time constant from the trace, and
compares the trace against the closed-form exponential (nRMSE normalized by
the fill pressure). Writes one CSV per condition.
"""

import argparse
from pathlib import Path

import numpy as np

from pneusim import analysis, gasmodel
from pneusim.cli import load_scenario, write_timeseries_csv
from pneusim.sim import simulate

PAPER = Path(__file__).resolve().parent.parent / "scenarios" / "paper"
# in the order of the report's rows
CONDITIONS = [
    "discharge_fast_small_bottle", "discharge_nominal_2l_bottle", "discharge_slow_high_resistance",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'condition':<24} {'tau model (s)':>13} {'tau fit (s)':>12} {'nRMSE':>9}")
    for stem in CONDITIONS:
        scn, _ = load_scenario(PAPER / f"{stem}.json")
        p_r0, v_r = scn.network.reservoir.p_r0, scn.network.reservoir.v_r
        tau = gasmodel.discharge_time_constant(scn.network.motive_valve.r_vmin, v_r, scn.gas)
        ts = simulate(scn)
        fit = analysis.fit_discharge_tau(ts.t, ts.p_r)
        reference = p_r0 * np.exp(-ts.t / tau)
        err = analysis.nrmse(ts.p_r, reference, p_r0)
        write_timeseries_csv(ts, out_dir / f"{stem}.csv")
        label = stem.removeprefix("discharge_")
        print(f"{label:<24} {tau:>13.2f} {fit.tau_s:>12.2f} {err:>9.2e}")
    print(f"\ntraces written to {out_dir}/")


if __name__ == "__main__":
    main()
