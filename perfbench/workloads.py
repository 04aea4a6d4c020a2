"""Seeded inputs, command lines and output checks for the benchmark workloads.

Each workload turns a seed into strict ``schema_version: 1`` JSON files and a
``pneusim`` argument list; pneusim sees only those files. The base hardware is
written out here rather than read from ``scenarios/``, so editing a shipped
scenario cannot silently change what the benchmark measures.

The checks read only the files an invocation wrote. Oracles compare the
workload's headline prediction with its closed form in ``pneusim.gasmodel`` at
the tolerance of the matching acceptance criterion.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CSV_HEADER = "t_s,P_cmd_kPa,P_cv_kPa,P_r_kPa,u_evp,u_dvp,solenoid,Q_in_slps,Q_out_slps,Q_motive_slps,mode"
SWEEP_HEADER = "omega_Hz,gain,n_periods,error"
README_OMEGAS = (0.14, 0.2, 0.3, 0.45, 0.68, 0.95, 1.35, 1.91, 2.7, 3.82, 5.4, 6.75)

# Acceptance-gate tolerances: criterion 3 (step rise rate), criterion 4
# (sweep knee), criterion 10 (discharge tau).
RISE_RATE_TOL = 0.05
KNEE_TOL = 0.15
TAU_TOL = 0.005

STEP_NETWORK = {
    "reservoir": {"V_r_L": 2.0, "P_r0_kPa": 689.0},
    "control_volume": {"V_cv_L": 0.5, "P_cv0_kPa": 0.0},
    "inflation_valve": {"flow_max_slpm": 23.5, "P_inlet_max_kPa": 689.0},
    "motive_valve": {"flow_max_slpm": 67.0, "P_inlet_max_kPa": 689.0},
    "solenoid": {"R_open_kPa_s_per_L": 100.0},
    "venturi": {"P_vac_floor_kPa": -80.0, "Q_motive_rated_slpm": 67.0},
}
SWEEP_NETWORK = {
    "reservoir": {"V_r_L": 2.0, "P_r0_kPa": 689.0},
    "control_volume": {"V_cv_L": 0.5, "P_cv0_kPa": 0.0},
    "inflation_valve": {"R_vmin_kPa_s_per_L": 783.7999442193739, "P_inlet_max_kPa": 689.0},
    "motive_valve": {"flow_max_slpm": 67.0, "P_inlet_max_kPa": 689.0},
    "solenoid": {"R_open_kPa_s_per_L": 180.0},
    "venturi": {"P_vac_floor_kPa": -80.0, "Q_motive_rated_slpm": 67.0},
}
SWEEP_AMPLITUDE_KPA = 21.0
DISCHARGE_R_MOTIVE = 1759.1489361702127
DEMO_REQUIREMENTS = {
    "schema_version": 1,
    "V_cv_L": 0.1,
    "dP_cv_kPa": 20.7,
    "amplitude_kPa": 10.35,
    "frequency_Hz": 0.55,
    "min_cycles": 30,
}

STEP_DURATION_S = 30.0
STEP_DT_S = 5e-4
STEP_SAMPLE_HZ = 100.0
DISCHARGE_DURATION_S = 90.0
DISCHARGE_DT_S = 2e-3
DISCHARGE_SAMPLE_HZ = 500.0
CATALOG_VALVES = 300
CATALOG_RESERVOIRS = 30


@dataclass
class Workload:
    """Generated inputs of one workload and what a correct run must produce."""

    name: str
    argv: list[str]  # pneusim arguments, without --out
    inputs: dict[str, Path]
    outputs: tuple[str, ...]  # file names every invocation must write
    sim_seconds: float = 0.0  # simulated seconds per invocation
    designs: int = 0  # designs evaluated per invocation
    expect: dict = field(default_factory=dict)

    def cli_args(self, out_dir: Path) -> list[str]:
        return [*self.argv, "--out", str(out_dir)]


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _n_rows(duration: float, dt: float, sample_hz: float) -> int:
    """Rows ``simulate`` writes: ``n_steps // sample_stride + 1``."""
    n_steps = max(1, round(duration / dt))
    return n_steps // round(1.0 / (sample_hz * dt)) + 1


def _staircase(rng: random.Random, duration: float) -> list[list[float]]:
    """Inflate/deflate knots: a rise, a small drop (VENT), a large drop (ACTIVE_DEFLATE).

    The first knot jumps from the empty volume straight to the first level,
    which is the step the rise-rate oracle measures. ``inflation_rate`` holds
    for p_r >> p_cv and ignores reservoir run-down; both errors grow with the
    step, and at 69 kPa on an unheld reservoir they reach the 5 % gate, so the
    first level stays at or below 55 kPa (worst error 3.5 % over 40 seeds).
    """
    level = round(rng.uniform(35.0, 55.0), 3)
    knots = [[0.0, level]]
    t = round(rng.uniform(1.5, 2.0), 3)
    move = 0
    while t < duration - 0.5:
        if move == 0:
            level = min(120.0, level + rng.uniform(10.0, 40.0))
        elif move == 1:
            level = max(0.0, level - rng.uniform(3.0, 8.0))
        else:
            level = level * rng.uniform(0.1, 0.4)
        knots.append([t, round(level, 3)])
        t = round(t + rng.uniform(1.2, 2.0), 3)
        move = (move + 1) % 3
    return knots


def _step_cycle(rng: random.Random, d: Path) -> Workload:
    knots = _staircase(rng, STEP_DURATION_S)
    sensor_seed = rng.randrange(1, 2**31)
    scenario = {
        "schema_version": 1,
        "network": {
            **STEP_NETWORK,
            "cv_sensor": {"noise_std_kPa": round(rng.uniform(0.05, 0.2), 4), "seed": sensor_seed},
        },
        "command": {"kind": "piecewise", "knots": knots},
        "run": {
            "dt_s": STEP_DT_S,
            "duration_s": STEP_DURATION_S,
            "sample_rate_Hz": STEP_SAMPLE_HZ,
            "hold_reservoir": False,
            "seed": rng.randrange(0, 2**31),
        },
    }
    path = _write(d / "step_cycle.json", scenario)
    return Workload(
        name="step_cycle",
        argv=["simulate", str(path)],
        inputs={"scenario": path},
        outputs=("step_cycle_timeseries.csv", "step_cycle_manifest.json"),
        sim_seconds=STEP_DURATION_S,
        expect={
            "rows": _n_rows(STEP_DURATION_S, STEP_DT_S, STEP_SAMPLE_HZ),
            "first_level": knots[0][1],
        },
    )


def _freq_sweep(rng: random.Random, d: Path) -> Workload:
    scenario = {
        "schema_version": 1,
        "network": {
            **SWEEP_NETWORK,
            "cv_sensor": {
                "noise_std_kPa": round(rng.uniform(0.02, 0.1), 4),
                "seed": rng.randrange(1, 2**31),
            },
        },
        "command": {
            "kind": "sine",
            "amplitude_kPa": SWEEP_AMPLITUDE_KPA,
            "frequency_Hz": 1.0,
            "offset_kPa": SWEEP_AMPLITUDE_KPA,
        },
        "run": {"dt_s": 5e-4, "duration_s": 5.0, "sample_rate_Hz": 2000.0, "hold_reservoir": True},
    }
    path = _write(d / "freq_sweep.json", scenario)
    # frequency_sweep runs (1 + 4 periods) plus two samples at each frequency
    sim_seconds = sum(5.0 / w + 2.0 / 2000.0 for w in README_OMEGAS)
    return Workload(
        name="freq_sweep",
        argv=["sweep", str(path), "--omegas", ",".join(str(w) for w in README_OMEGAS)],
        inputs={"scenario": path},
        outputs=("freq_sweep_sweep.csv", "freq_sweep_sweep_fit.json", "freq_sweep_manifest.json"),
        sim_seconds=sim_seconds,
        expect={"points": len(README_OMEGAS)},
    )


def _discharge_blowdown(rng: random.Random, d: Path) -> Workload:
    v_r = 2.0 * (1.0 + rng.uniform(-0.03, 0.03))
    r_motive = DISCHARGE_R_MOTIVE * (1.0 + rng.uniform(-0.03, 0.03))
    scenario = {
        "schema_version": 1,
        "network": {
            "reservoir": {"V_r_L": v_r, "P_r0_kPa": 689.0},
            "control_volume": {"V_cv_L": 0.5, "P_cv0_kPa": 0.0},
            "inflation_valve": {"flow_max_slpm": 23.5, "P_inlet_max_kPa": 689.0},
            "motive_valve": {"R_vmin_kPa_s_per_L": r_motive, "P_inlet_max_kPa": 689.0},
        },
        "command": {"kind": "step", "target_kPa": 0.0},
        "run": {
            "dt_s": DISCHARGE_DT_S,
            "duration_s": DISCHARGE_DURATION_S,
            "sample_rate_Hz": DISCHARGE_SAMPLE_HZ,
            "mode": "open_loop",
            "open_loop_command": {"u_evp": 0.0, "u_dvp": 1.0, "solenoid_open": False},
        },
    }
    path = _write(d / "discharge_blowdown.json", scenario)
    return Workload(
        name="discharge_blowdown",
        argv=["discharge", str(path)],
        inputs={"scenario": path},
        outputs=(
            "discharge_blowdown_timeseries.csv",
            "discharge_blowdown_discharge_fit.json",
            "discharge_blowdown_manifest.json",
        ),
        sim_seconds=DISCHARGE_DURATION_S,
        expect={
            "rows": _n_rows(DISCHARGE_DURATION_S, DISCHARGE_DT_S, DISCHARGE_SAMPLE_HZ),
            "v_r": v_r,
            "r_motive": r_motive,
        },
    )


def _size_catalog(rng: random.Random, d: Path) -> Workload:
    # the two shipped valves and bottle keep the feasible set non-empty
    valves = [
        {"name": "EVP-2505", "flow_max_slpm": 23.5, "P_inlet_max_kPa": 689.0, "mass_g": 77.0},
        {"name": "DVP-670", "flow_max_slpm": 67.0, "P_inlet_max_kPa": 689.0, "mass_g": 139.0},
    ]
    # log-uniform sizes put about half of the designs on each side of the
    # speed and cycle-count limits, so both feasibility branches run
    while len(valves) < CATALOG_VALVES:
        flow = math.exp(rng.uniform(math.log(1.0), math.log(120.0)))
        valves.append(
            {
                "name": f"V{len(valves):03d}",
                "flow_max_slpm": round(flow, 3),
                "P_inlet_max_kPa": float(rng.choice((517, 620, 689, 827, 1000))),
                "mass_g": round(30.0 + 1.5 * flow * rng.uniform(0.7, 1.3), 2),
            }
        )
    reservoirs = [{"name": "PET-2L", "V_r_L": 2.0, "mass_g": 70.0, "P_max_kPa": 689.0}]
    while len(reservoirs) < CATALOG_RESERVOIRS:
        v_r = math.exp(rng.uniform(math.log(0.05), math.log(4.0)))
        reservoirs.append(
            {
                "name": f"R{len(reservoirs):02d}",
                "V_r_L": round(v_r, 4),
                "mass_g": round(20.0 + 35.0 * v_r * rng.uniform(0.8, 1.6), 2),
                "P_max_kPa": float(rng.choice((400, 550, 689, 827, 1000))),
            }
        )
    venturis = [
        {"name": f"VR-{i:02d}", "P_vac_floor_kPa": -rng.uniform(50.0, 90.0),
         "Q_motive_rated_slpm": rng.uniform(20.0, 120.0), "mass_g": rng.uniform(10.0, 60.0)}
        for i in range(8)
    ]
    req = _write(d / "size_catalog.json", DEMO_REQUIREMENTS)
    cat = _write(
        d / "catalog.json",
        {"schema_version": 1, "valves": valves, "reservoirs": reservoirs, "venturis": venturis},
    )
    designs = len(valves) * len(reservoirs)
    return Workload(
        name="size_catalog",
        argv=["size", str(req), str(cat)],
        inputs={"requirements": req, "catalog": cat},
        outputs=("size_catalog_design_report.json", "size_catalog_manifest.json"),
        designs=designs,
        expect={"designs": designs},
    )


BUILDERS = {
    "step_cycle": _step_cycle,
    "freq_sweep": _freq_sweep,
    "discharge_blowdown": _discharge_blowdown,
    "size_catalog": _size_catalog,
}


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), directory)


def digest(wl: Workload, out_dir: Path) -> str:
    """sha256 over every output file, in a fixed order."""
    h = hashlib.sha256()
    for name in wl.outputs:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def check_outputs(wl: Workload, out_dir: Path) -> list[str]:
    """Problems with one invocation's files; an empty list means correct."""
    missing = [n for n in wl.outputs if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing]
    problems = []
    if "rows" in wl.expect:
        text = (out_dir / wl.outputs[0]).read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        if header != CSV_HEADER:
            problems.append(f"CSV header {header!r}")
        rows = body.count("\n")
        if rows != wl.expect["rows"]:
            problems.append(f"CSV has {rows} rows, expected {wl.expect['rows']}")
    if wl.name == "freq_sweep":
        lines = (out_dir / wl.outputs[0]).read_text(encoding="utf-8").splitlines()
        if lines[0] != SWEEP_HEADER:
            problems.append(f"sweep header {lines[0]!r}")
        if len(lines) - 1 != wl.expect["points"]:
            problems.append(f"sweep has {len(lines) - 1} points, expected {wl.expect['points']}")
        errors = [line for line in lines[1:] if line.split(",", 3)[3]]
        problems += [f"sweep point error: {line}" for line in errors]
    if wl.name == "size_catalog":
        report = json.loads((out_dir / wl.outputs[0]).read_text(encoding="utf-8"))
        n = len(report["feasible"]) + len(report["infeasible"])
        if n != wl.expect["designs"]:
            problems.append(f"report has {n} designs, expected {wl.expect['designs']}")
        if not report["feasible"]:
            problems.append("no feasible design")
        masses = [e["total_mass_g"] for e in report["feasible"]]
        if masses != sorted(masses):
            problems.append("feasible designs not ranked by mass")
    return problems


def oracle(wl: Workload, out_dir: Path) -> tuple[float, float] | None:
    """(relative error, tolerance) of the headline prediction, or None without one."""
    from pneusim import analysis, cli, gasmodel as gm

    if wl.name == "step_cycle":
        valve = STEP_NETWORK["inflation_valve"]
        r_vmin = valve["P_inlet_max_kPa"] / (valve["flow_max_slpm"] / 60.0)
        model = gm.inflation_rate(STEP_NETWORK["reservoir"]["P_r0_kPa"], r_vmin, 0.5)
        ts = cli.read_timeseries_csv(out_dir / wl.outputs[0])
        rate = analysis.step_metrics(ts, wl.expect["first_level"], model).avg_rise_rate
        return abs(rate - model) / model, RISE_RATE_TOL
    if wl.name == "freq_sweep":
        fit = json.loads((out_dir / "freq_sweep_sweep_fit.json").read_text(encoding="utf-8"))
        rate = gm.inflation_rate(
            SWEEP_NETWORK["reservoir"]["P_r0_kPa"],
            SWEEP_NETWORK["inflation_valve"]["R_vmin_kPa_s_per_L"],
            SWEEP_NETWORK["control_volume"]["V_cv_L"],
        )
        model = gm.cutoff_frequency(rate, SWEEP_AMPLITUDE_KPA)
        return abs(fit["knee_Hz"] - model) / model, KNEE_TOL
    if wl.name == "discharge_blowdown":
        fit = json.loads(
            (out_dir / "discharge_blowdown_discharge_fit.json").read_text(encoding="utf-8")
        )
        model = gm.discharge_time_constant(wl.expect["r_motive"], wl.expect["v_r"])
        tau = fit["tau_s"] if fit["tau_s"] is not None else math.inf
        return abs(tau - model) / model, TAU_TOL
    return None
