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
from pneusim.cli import write_timeseries_csv
from pneusim.components import EVP_R_VMIN
from pneusim.sim import discharge_scenario, simulate

CONDITIONS = [
    # label, P_r0 kPa, V_r L, R_v kPa*s/L
    ("fast_small_bottle", 345.0, 1.0, 600.0),
    ("nominal_2l_bottle", 689.0, 2.0, EVP_R_VMIN),
    ("slow_high_resistance", 689.0, 2.0, 5000.0),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'condition':<24} {'tau model (s)':>13} {'tau fit (s)':>12} {'nRMSE':>9}")
    for label, p_r0, v_r, r_v in CONDITIONS:
        tau = gasmodel.discharge_time_constant(r_v, v_r)
        scn = discharge_scenario(
            r_v=r_v, v_r=v_r, p_r0=p_r0, duration=3.0 * tau, dt=max(5e-4, tau / 5000.0)
        )
        ts = simulate(scn)
        fit = analysis.fit_discharge_tau(ts.t, ts.p_r)
        reference = p_r0 * np.exp(-ts.t / tau)
        err = analysis.nrmse(ts.p_r, reference, p_r0)
        write_timeseries_csv(ts, out_dir / f"discharge_{label}.csv")
        print(f"{label:<24} {tau:>13.2f} {fit.tau_s:>12.2f} {err:>9.2e}")
    print(f"\ntraces written to {out_dir}/")


if __name__ == "__main__":
    main()
