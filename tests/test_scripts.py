"""Smoke tests of the example scripts: each runs against the shipped inputs."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    paths = [p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_predict_demo_cycles():
    proc = run_script("predict_demo_cycles.py")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:]}
    assert rows["EVP-2505"][1] == "PET-2L"
    assert rows["DVP-670"][1] == "PET-2L"


def test_predict_demo_cycles_rejects_a_repeated_key(tmp_path):
    # the last value would win under json.loads alone; `pneusim size` rejects the file
    req = tmp_path / "req.json"
    req.write_text('{"schema_version": 1, "V_cv_L": 0.1, "dP_cv_kPa": 20.7, "min_cycles": 30, '
                   '"Pdot_d_kPa_s": 40.0, "Pdot_d_kPa_s": 4000.0}')
    proc = run_script("predict_demo_cycles.py", "--requirements", str(req))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {req}: duplicate key 'Pdot_d_kPa_s'\n"


def test_predict_demo_cycles_reports_an_underflowing_rating(tmp_path):
    # r_v * v_cv underflows to 0, which the inflation-rate closed form rejects; the error
    # names the file key, as `pneusim size` does
    req = json.loads((ROOT / "scenarios" / "demo_requirements.json").read_text())
    cat = json.loads((ROOT / "scenarios" / "reference_catalog.json").read_text())
    req["V_cv_L"] = 1e-200
    cat["valves"][0] = {"name": "TINY", "R_vmin_kPa_s_per_L": 1e-200, "mass_g": 77.0}
    (tmp_path / "req.json").write_text(json.dumps(req))
    (tmp_path / "cat.json").write_text(json.dumps(cat))
    proc = run_script("predict_demo_cycles.py", "--requirements", str(tmp_path / "req.json"),
                      "--catalog", str(tmp_path / "cat.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: catalog.valves[0].R_vmin_kPa_s_per_L: too small for requirements.V_cv_L "
        "(a flow rating gives P_inlet_max_kPa / (flow_max_slpm / 60))\n"
    )


def test_run_discharge_tests(tmp_path):
    proc = run_script("run_discharge_tests.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:4]}
    assert set(rows) == {"fast_small_bottle", "nominal_2l_bottle", "slow_high_resistance"}
    for label, (_, tau_model, tau_fit, nrmse) in rows.items():
        assert abs(float(tau_fit) - float(tau_model)) <= 0.005 * float(tau_model), label
        assert float(nrmse) < 1e-6, label
        assert (tmp_path / f"discharge_{label}.csv").stat().st_size > 0


def test_run_frequency_sweep():
    proc = run_script("run_frequency_sweep.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    gains = [line.split() for line in lines[1:13]]
    assert len(gains) == 12 and all(len(row) == 3 for row in gains), proc.stdout
    assert "failed" not in proc.stdout
    knee, f3db = map(float, re.findall(r"[-+\w.]+(?= Hz)", lines[-1]))
    assert math.isfinite(knee) and math.isfinite(f3db), lines[-1]


def test_run_step_tests(tmp_path):
    proc = run_script("run_step_tests.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:4]}
    assert set(rows) == {"69kPa_half_liter", "34kPa_one_liter", "21kPa_one_liter_low_supply"}
    for label, (_, model_rate, avg_rate, _, _, _) in rows.items():
        assert abs(float(avg_rate) - float(model_rate)) <= 0.05 * float(model_rate), label
        assert (tmp_path / f"step_{label}.csv").stat().st_size > 0


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
