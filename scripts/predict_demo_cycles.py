#!/usr/bin/env python3
"""Size the demo actuator against the reference component catalog.

A 0.1 L bending actuator cycled to 20.7 kPa at 0.55 Hz: ranks every valve x
reservoir combination by mass, reporting the cycle budget, the minimum
reservoir pressure that still meets the speed demand, and the tracking
cutoff at full and depleted reservoir.
"""

import argparse
import sys
from pathlib import Path

from pneusim.cli import (
    EXIT_VALIDATION,
    _load_json,
    catalog_from_resolved,
    check_valve_ratings,
    resolve_catalog,
    resolve_requirements,
    requirements_from_resolved,
)
from pneusim.sizing import enumerate_catalog

HERE = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requirements", default=str(HERE / "demo_requirements.json"))
    parser.add_argument("--catalog", default=str(HERE / "reference_catalog.json"))
    args = parser.parse_args()

    try:  # the inputs are read as `pneusim size` reads them, and a bad one exits 2 as there
        req = requirements_from_resolved(resolve_requirements(_load_json(Path(args.requirements))))
        catalog = catalog_from_resolved(resolve_catalog(_load_json(Path(args.catalog))))
        check_valve_ratings(req, catalog)
        report = enumerate_catalog(req, catalog)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    print(
        f"{'valve':<10} {'reservoir':<10} {'mass g':>7} {'cycles':>8} "
        f"{'min P_r kPa':>12} {'fc full Hz':>11} {'fc floor Hz':>12}"
    )
    for e in report.feasible:
        print(
            f"{e.valve:<10} {e.reservoir:<10} {e.total_mass_g:>7.0f} {e.n_cycles:>8.1f} "
            f"{e.min_p_r:>12.1f} {e.cutoff_hz_full:>11.2f} {e.cutoff_hz_floor:>12.2f}"
        )
    for e in report.infeasible:
        print(f"{e.valve:<10} {e.reservoir:<10} infeasible: {', '.join(e.limiting)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
