"""The README's experiments: the two scripts, each over its three shipped paper conditions,
and the `pneusim sweep` and `pneusim size` commands shown beside them; the benchmark's
hooks into pneusim; and the pneusim names the README documents."""

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from builders import discharge_scenario, step_scenario
from pneusim import cli, gasmodel
from pneusim.components import EVP_R_VMIN
from test_pins import PINS

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SWEEP_OMEGAS = "0.14,0.2,0.3,0.45,0.68,0.95,1.35,1.91,2.7,3.82,5.4,6.75"  # the README's


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    paths = [p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def _step(target: float, v_cv: float, p_r0: float):
    """A paper step condition: four rise times at the inflation-rate benchmark, then 3 s."""
    rate = gasmodel.inflation_rate(p_r0, EVP_R_VMIN, v_cv)
    duration = max(3.0, 4.0 * target / rate + 3.0)
    return step_scenario(target, v_cv=v_cv, p_r0=p_r0, duration=duration, hold_reservoir=True)


def _discharge(p_r0: float, v_r: float, r_v: float):
    """A paper blowdown condition: three time constants, in steps of tau / 5000 but no
    shorter than 0.5 ms."""
    tau = gasmodel.discharge_time_constant(r_v, v_r)
    return discharge_scenario(r_v=r_v, v_r=v_r, p_r0=p_r0, duration=3.0 * tau,
                              dt=max(5e-4, tau / 5000.0))


# each file of scenarios/paper/ and the builder call that states its condition
PAPER_CONDITIONS = {
    "step_69kPa_half_liter": (_step, 69.0, 0.5, 689.0),
    "step_34kPa_one_liter": (_step, 34.0, 1.0, 689.0),
    "step_21kPa_one_liter_low_supply": (_step, 21.0, 1.0, 345.0),
    "discharge_fast_small_bottle": (_discharge, 345.0, 1.0, 600.0),
    "discharge_nominal_2l_bottle": (_discharge, 689.0, 2.0, EVP_R_VMIN),
    "discharge_slow_high_resistance": (_discharge, 689.0, 2.0, 5000.0),
}


@pytest.mark.parametrize("stem", PAPER_CONDITIONS)
def test_paper_scenario_is_its_condition(stem):
    build, *args = PAPER_CONDITIONS[stem]
    scn, _ = cli.load_scenario(SCENARIOS / "paper" / f"{stem}.json")
    assert scn == build(*args)


def _assert_csv_is_pinned(path: Path, stem: str) -> None:
    """The script's CSV for a paper condition has the bytes pinned for the CLI's run of it."""
    pinned = PINS[f"paper_{stem}"][1][f"{stem}_timeseries.csv"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned, stem


def test_run_discharge_tests(tmp_path):
    proc = run_script("run_discharge_tests.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:4]}
    assert set(rows) == {"fast_small_bottle", "nominal_2l_bottle", "slow_high_resistance"}
    for label, (_, tau_model, tau_fit, nrmse) in rows.items():
        assert abs(float(tau_fit) - float(tau_model)) <= 0.005 * float(tau_model), label
        assert float(nrmse) < 1e-6, label
        assert (tmp_path / f"discharge_{label}.csv").stat().st_size > 0
        _assert_csv_is_pinned(tmp_path / f"discharge_{label}.csv", f"discharge_{label}")


def test_run_step_tests(tmp_path):
    proc = run_script("run_step_tests.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:4]}
    assert set(rows) == {"69kPa_half_liter", "34kPa_one_liter", "21kPa_one_liter_low_supply"}
    for label, (_, model_rate, avg_rate, _, _, _) in rows.items():
        assert abs(float(avg_rate) - float(model_rate)) <= 0.05 * float(model_rate), label
        assert (tmp_path / f"step_{label}.csv").stat().st_size > 0
        _assert_csv_is_pinned(tmp_path / f"step_{label}.csv", f"step_{label}")


def test_sweep_at_the_readme_omegas(tmp_path, capsys):
    argv = ["sweep", str(SCENARIOS / "sweep_21kpa_half_liter.json"), "--omegas", SWEEP_OMEGAS]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "sweep_21kpa_half_liter_sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12 and all(len(row) == 4 and row[3] == "" for row in rows), lines
    fit = json.loads((tmp_path / "sweep_21kpa_half_liter_sweep_fit.json").read_text())
    assert fit["n_points"] == 12 and fit["n_failed"] == 0, fit
    assert math.isfinite(fit["knee_Hz"]) and math.isfinite(fit["first_3db_crossing_Hz"]), fit


def _size(tmp_path, req: Path, cat: Path = SCENARIOS / "reference_catalog.json") -> int:
    return cli.main(["size", str(req), str(cat), "--out", str(tmp_path / "out")])


def test_size_pairs_the_demo_valves_with_the_2l_bottle(tmp_path):
    assert _size(tmp_path, SCENARIOS / "demo_requirements.json") == 0
    report = json.loads((tmp_path / "out" / "demo_requirements_design_report.json").read_text())
    pairs = {e["valve"]: e["reservoir"] for e in report["feasible"]}
    assert pairs["EVP-2505"] == "PET-2L"
    assert pairs["DVP-670"] == "PET-2L"


def test_size_rejects_a_repeated_requirements_key(tmp_path, capsys):
    # the last value would win under json.loads alone
    req = tmp_path / "req.json"
    req.write_text('{"schema_version": 1, "V_cv_L": 0.1, "dP_cv_kPa": 20.7, "min_cycles": 30, '
                   '"Pdot_d_kPa_s": 40.0, "Pdot_d_kPa_s": 4000.0}')
    assert _size(tmp_path, req) == 2
    assert capsys.readouterr() == ("", f"error: {req}: duplicate key 'Pdot_d_kPa_s'\n")


def test_size_reports_an_underflowing_rating(tmp_path, capsys):
    # r_v * v_cv underflows to 0, which the inflation-rate closed form rejects; the error
    # names the file key
    req = json.loads((SCENARIOS / "demo_requirements.json").read_text())
    cat = json.loads((SCENARIOS / "reference_catalog.json").read_text())
    req["V_cv_L"] = 1e-200
    cat["valves"][0] = {"name": "TINY", "R_vmin_kPa_s_per_L": 1e-200, "mass_g": 77.0}
    (tmp_path / "req.json").write_text(json.dumps(req))
    (tmp_path / "cat.json").write_text(json.dumps(cat))
    assert _size(tmp_path, tmp_path / "req.json", tmp_path / "cat.json") == 2
    assert capsys.readouterr() == ("", (
        "error: catalog.valves[0].R_vmin_kPa_s_per_L: too small for requirements.V_cv_L "
        "(a flow rating gives P_inlet_max_kPa / (flow_max_slpm / 60))\n"
    ))


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps pneusim functions by name (sim.control_step,
    # sim.proportional_valve_flow, cli.asdict, ...); a renamed or deleted one
    # fails here rather than in a traced benchmark run
    code = "import tracer\ntracer.install(tracer.Tracer())\n"
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_runs_end_to_end(tmp_path):
    # a traced invocation calls each wrapped function with the arguments its caller passes,
    # so a changed signature fails here although install alone succeeds
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    runs = {
        "sim.simulate": ("simulate", "scenarios/step_69kpa_half_liter.json", "--duration", "0.5"),
        "sizing.enumerate_catalog": (
            "size", "scenarios/demo_requirements.json", "scenarios/reference_catalog.json",
        ),
    }
    for i, (span, args) in enumerate(runs.items()):
        prefix = tmp_path / f"trace{i}"
        argv = [str(ROOT / "perfbench" / "tracer.py"), str(prefix), str(i), "--",
                *args, "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(prefix.with_suffix(".json").read_text())
        assert summary["returncode"] == 0 and summary["spans"][span]["calls"] > 0, summary


def test_benchmark_setup_probe_prints_one_float():
    # perfbench/setup_probe.py times the resolution of a workload's inputs through cli's
    # resolvers by name; a renamed or failing one fails here rather than in the benchmark
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    for args in (("scenario", "scenarios/step_69kpa_half_liter.json"),
                 ("size", "scenarios/demo_requirements.json", "scenarios/reference_catalog.json")):
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert math.isfinite(float(proc.stdout)) and proc.stdout.count("\n") == 1, proc.stdout


def test_readme_names_resolve():
    # every backticked `module.name` of a pneusim module names an attribute of it, so a
    # deleted or renamed function cannot stay documented; `scenario.` is left out, as the
    # README writes input-file paths such as `scenario.run` the same way, and so are file
    # names such as `cli.py`
    modules = "analysis|cli|components|control|gasmodel|schema|sim|sizing"
    text = (ROOT / "README.md").read_text()
    names = set(re.findall(rf"`({modules})\.(?!py\b)([A-Za-z_]\w*)", text))
    assert names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"pneusim.{module}"), name)]
    assert missing == []
