"""Golden pins of the CLI outputs, and properties of the input schema.

The sha256 values below are what the CLI writes for the shipped scenarios.
A change that moves any of them changes pneusim's numbers or file format and
must say why in CHANGES.md. Manifests embed the input path, so only their
resolved_sha256 is pinned.
"""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from builders import step_scenario
from pneusim import cli, scenario
from pneusim.control import Mode
from pneusim.gasmodel import replace
from pneusim.sim import Scenario, TimeSeries

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# case -> (CLI arguments without --out, {output file: sha256 or resolved_sha256})
PINS = {
    "simulate_step": (
        ["simulate", "step_69kpa_half_liter.json"],
        {
            "step_69kpa_half_liter_manifest.json": "f63fcaec613556a9d1d37b98cd131d33133814aa901e6bb8937fb83a78008d92",
            "step_69kpa_half_liter_timeseries.csv": "4f4e4e1108ee129aab6d8be252a1c91016924a5af630e4bdf8901c83b08efab4",
        },
    ),
    "simulate_step_flags": (
        ["simulate", "step_69kpa_half_liter.json", "--duration", "0.25", "--seed", "3"],
        {
            "step_69kpa_half_liter_manifest.json": "e89254cfd2245b593e25638109c4ce57749781d8753801432345b89cac6e6c08",
            "step_69kpa_half_liter_timeseries.csv": "d3224148de9b4b3f370d443efb11f72939d8caa1c00ac9c2886aebe25da49b5f",
        },
    ),
    "simulate_sine": (
        ["simulate", "sweep_21kpa_half_liter.json"],
        {
            "sweep_21kpa_half_liter_manifest.json": "039fd4eaa657cc0648168eebb4deb1833b486bcb0ade8797b46781a0d3a11caa",
            "sweep_21kpa_half_liter_timeseries.csv": "4dc586a5b874c89b0d946d6a5a73f6f394b92df9cd81ba9dd172f2c354ee80b4",
        },
    ),
    "sweep": (
        ["sweep", "sweep_21kpa_half_liter.json", "--omegas", "1.35,2.7,6.75"],
        {
            "sweep_21kpa_half_liter_manifest.json": "039fd4eaa657cc0648168eebb4deb1833b486bcb0ade8797b46781a0d3a11caa",
            "sweep_21kpa_half_liter_sweep.csv": "7888efdb5a537d70a56e0cfc909025be660245dd31a0900e6e8e498831b1967c",
            "sweep_21kpa_half_liter_sweep_fit.json": "6993c5f3c5c7efd57ee6dfeb877eaafc837e326c7264c3a38bda13c0bdfeb544",
        },
    ),
    "discharge": (
        ["discharge", "discharge_2l_bottle.json"],
        {
            "discharge_2l_bottle_discharge_fit.json": "e974e38d18a5c0905cf3a3d79cba9e72c9082af3054a5923debf0aee76f2972c",
            "discharge_2l_bottle_manifest.json": "f3327ee71c64681fc1463bfee9175b9a04fe3cc9c0bdb95c1cd17d7b47448698",
            "discharge_2l_bottle_timeseries.csv": "56d0e39f52b4ffbeb497d20faa5b29960fc5daef21cf12549385364886fa48f9",
        },
    ),
    "size": (
        ["size", "demo_requirements.json", "reference_catalog.json"],
        {
            "demo_requirements_design_report.json": "ec9427f6510a0d4fd33636d559589b90f1121f0c867010ba0d55aa47213fdc50",
            "demo_requirements_manifest.json": "900cb1a244ceaa9c2f0c9b7064b6e379f7cba9209b690112dacb5520b676f523",
        },
    ),
    # the paper's test conditions; scripts/run_step_tests.py and scripts/run_discharge_tests.py
    # write the same time-series bytes for them (tests/test_scripts.py)
    "paper_step_69kPa_half_liter": (
        ["simulate", "paper/step_69kPa_half_liter.json"],
        {
            "step_69kPa_half_liter_manifest.json": "3e8a77df8e563e340a3b834539f4ba5b0c45cfec068123fd362b9f1514ea6fd4",
            "step_69kPa_half_liter_timeseries.csv": "c1ac26efc5bda2af192f0d0557dc4ea0934d074e60c98dba982103da73173824",
        },
    ),
    "paper_step_34kPa_one_liter": (
        ["simulate", "paper/step_34kPa_one_liter.json"],
        {
            "step_34kPa_one_liter_manifest.json": "e76d060494277b866ee15a49a3c7297a26b5a594699d11068fc97d513f3f768b",
            "step_34kPa_one_liter_timeseries.csv": "4fcc22879a765944bba8b7b5102b32656a53f3805cb5083b40f7b71e07715e35",
        },
    ),
    "paper_step_21kPa_one_liter_low_supply": (
        ["simulate", "paper/step_21kPa_one_liter_low_supply.json"],
        {
            "step_21kPa_one_liter_low_supply_manifest.json": "d620755283b2126c211e05ebc04ed982aa4062d043ae580dc5fbb2397daa0ef9",
            "step_21kPa_one_liter_low_supply_timeseries.csv": "e45e4829a581974c3b6419075f0ffef14c218e7f8bb18a9f6dd4a56910cbb38a",
        },
    ),
    "paper_discharge_fast_small_bottle": (
        ["discharge", "paper/discharge_fast_small_bottle.json"],
        {
            "discharge_fast_small_bottle_discharge_fit.json": "87974fc90f1526fd351ec0e46ae7b1f57144511d9f9dc1c6f8b53c234a936e57",
            "discharge_fast_small_bottle_manifest.json": "507461725405891dbecc60320a86f1328bbac510ed11d1e21427b6f284ae853c",
            "discharge_fast_small_bottle_timeseries.csv": "f01eedd2110cb502208eae41fb5ee85b28752a40397a2673ecd2b9dfe96a9a00",
        },
    ),
    "paper_discharge_nominal_2l_bottle": (
        ["discharge", "paper/discharge_nominal_2l_bottle.json"],
        {
            "discharge_nominal_2l_bottle_discharge_fit.json": "67e6abd2c4aa8af381c3318a6a9af18d4df7b1dacd3bc8f4105d616b6a244e4d",
            "discharge_nominal_2l_bottle_manifest.json": "9b8978d6e784d52e8079a3e69d7176b604fc12613da7491ee90674f38f7c2f50",
            "discharge_nominal_2l_bottle_timeseries.csv": "042b1e5c96b11254e0b88a6947a9d398bab8e3d65f31fd95836d3eacd7c12fc5",
        },
    ),
    "paper_discharge_slow_high_resistance": (
        ["discharge", "paper/discharge_slow_high_resistance.json"],
        {
            "discharge_slow_high_resistance_discharge_fit.json": "e074b34a0dbfce230d4933955364f05daffb1dd0c70f5cd849c88dd95217faa8",
            "discharge_slow_high_resistance_manifest.json": "4a55c2ff4cd599dc11521f7f8523d4159f5e42d9c3da53ac1db0e9c7c4382dff",
            "discharge_slow_high_resistance_timeseries.csv": "0b1442bd95390e501b708464a351f0f589ad6a80b0a60a73efdc32592b416c23",
        },
    ),
}


def _digests(out_dir: Path) -> dict:
    got = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_manifest.json"):
            got[path.name] = json.loads(path.read_text())["resolved_sha256"]
        else:
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


@pytest.mark.parametrize("case", sorted(PINS))
def test_output_pins(case, tmp_path):
    argv, pins = PINS[case]
    args = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
    assert cli.main([*args, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == pins


def test_every_shipped_input_is_pinned():
    pinned = {a for argv, _ in PINS.values() for a in argv if a.endswith(".json")}
    shipped = {p.relative_to(SCENARIOS).as_posix() for p in SCENARIOS.glob("**/*.json")}
    assert shipped - pinned == set()


def test_noisy_closed_loop_pin(tmp_path):
    # No shipped scenario has sensor noise. 12 s at 1 kHz is 12 001 noisy CV
    # readings, so the noise is drawn across several of the closed loop's blocks.
    doc = json.loads((SCENARIOS / "step_69kpa_half_liter.json").read_text())
    doc["network"]["cv_sensor"] = {"noise_std_kPa": 0.5, "seed": 5}
    scn_file = tmp_path / "noisy_step.json"
    scn_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["simulate", str(scn_file), "--duration", "12", "--sample-rate", "200", "--seed", "11"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert _digests(out) == {
        "noisy_step_manifest.json": "67814f3293ea16291f63e9482fb03d9f7b9db57efc774240eebea1ea35adc956",
        "noisy_step_timeseries.csv": "80ac9d8cf1a6d16945e003ee150647693f79a6d2a3530391bb61cfc7fec5d819",
    }


def test_closed_loop_staircase_pin(tmp_path):
    # A noisy staircase with a row every step and a control tick every two:
    # rises (ON_OFF_INFLATE), drops inside the error band (PID duty pulses),
    # a small drop (VENT) and a large one (ACTIVE_DEFLATE). Every other row
    # falls between ticks, on a piece with kinks (solenoid open) or without.
    doc = json.loads((SCENARIOS / "step_69kpa_half_liter.json").read_text())
    doc["network"]["cv_sensor"] = {"noise_std_kPa": 0.2, "seed": 17}
    doc["controller"] = {"control_rate_Hz": 1000.0}
    doc["command"] = {"kind": "piecewise", "knots": [
        [0.0, 40.0], [1.5, 70.0], [2.5, 69.3], [3.0, 68.6], [3.5, 62.0], [5.0, 15.0], [6.5, 30.0],
        [7.2, 29.4],
    ]}
    doc["run"] = {"dt_s": 0.0005, "duration_s": 8.0, "sample_rate_Hz": 2000.0,
                  "hold_reservoir": False, "seed": 3}
    scn_file = tmp_path / "staircase.json"
    scn_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", str(scn_file), "--out", str(out)]) == 0
    assert _digests(out) == {
        "staircase_manifest.json": "e0bf8b573aed443f7580d66d96a1bf9436a157ac5ada40b61ab262a9e98da4a2",
        "staircase_timeseries.csv": "c001d29ea00ddc2c2fe2f364b1ebdd47401baf2047dde9fcc7de0380097dac07",
    }
    ts = cli.read_timeseries_csv(out / "staircase_timeseries.csv")
    assert {Mode.PID, Mode.ON_OFF_INFLATE, Mode.VENT, Mode.ACTIVE_DEFLATE} <= set(ts.mode.tolist())
    assert np.any((ts.mode == Mode.PID) & (ts.solenoid == 1.0))  # duty pulses
    between = slice(1, None, 2)  # rows between control ticks
    assert np.any(ts.solenoid[between] == 1.0)
    assert np.any((ts.solenoid[between] == 0.0) & (ts.u_motive[between] == 0.0))


# perfbench/workloads.py at seed 1, each workload run through the CLI. The
# manifests record the input paths, so the runs use fixed relative paths.
WORKLOAD_DIGESTS = {
    "discharge_blowdown": "4e0469de5d3136fe39689f3de6371e5e870fd4ed5bf473c4d713a6d1b0d9f8d1",
    "freq_sweep": "b5a1160d6376e74ee0c7e304333a1a9ce10b3dc5d9d804adc12e33c6a354f2e2",
    "size_catalog": "2c8d7c52182c8ede58901cb1417ec31e1df94dd8f25687f6f23b9ffdc48d23d6",
    "step_cycle": "32cf48b80291967bfd1d616e159901c17e2d3ce8f811e23781684c606923cd81",
}


def _benchmark_workloads():
    """perfbench/workloads.py, imported once; its dataclasses need it in sys.modules."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = SCENARIOS.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _workload_digest(name: str, seed: int) -> str:
    """Digest of workload ``name`` at ``seed``, run through the CLI in the working directory."""
    workloads = _benchmark_workloads()
    wl = workloads.build(name, seed, Path("in"))
    assert cli.main(wl.cli_args(Path("out"))) == 0
    return workloads.digest(wl, Path("out"))


# The benchmark's own checks of a workload's outputs, as it runs them: in an interpreter
# that has resolved no scenario, so each reader imports what it reads.
_BENCHMARK_CHECKS = """\
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
wl = workloads.build(sys.argv[2], 1, Path("in"))
problems = workloads.check_outputs(wl, Path("out"))
assert problems == [], problems
result = workloads.oracle(wl, Path("out"))
assert result is None if wl.name == "size_catalog" else result[0] <= result[1], result
"""


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _workload_digest(name, 1) == WORKLOAD_DIGESTS[name]
    paths = [p for p in (str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    workloads = SCENARIOS.parent / "perfbench" / "workloads.py"
    proc = subprocess.run([sys.executable, "-c", _BENCHMARK_CHECKS, str(workloads), name],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Each seed draws new inputs: size_catalog a new catalog and new requirements, the run
# workloads new hardware tolerances, sensor noise and seeds.
MORE_SEED_DIGESTS = {
    ("discharge_blowdown", 2): "dd7d862f2f9e701a3700d84589cfe7977d7742af5e61f62a9becc00185f29326",
    ("discharge_blowdown", 3): "a982ce1e6628ec6f51c7aa0b98a14f62ad02a1a583a42e313268cffea7f4fafc",
    ("discharge_blowdown", 7): "9edf84313f3e9581a4d7acdcd26c948507da7ce1c8265107ef2fa3e06460ea7a",
    ("freq_sweep", 2): "64ada829a2444b4bd17ec8d74ce18812f999089f6d17915b0ea85e52577f9de7",
    ("freq_sweep", 3): "a53f0561bf1092a9a49194b8d3f116b0ec33f241ad07c99ac4daa2246c5833b1",
    ("freq_sweep", 7): "8a760c241dcb01dd3c820b43ff530c112909fad9dd92103a2d00efa7ac997cb5",
    ("size_catalog", 2): "faafb33a36fab6f7ae4273d80047f9861cf5830df8acb200bc41fe251dc4f23f",
    ("size_catalog", 3): "8364ec460318b3f31ec1bff6ae152f04cc0ac81e05a78d7da609b27d4e9e8b2f",
    ("size_catalog", 7): "f7a1f8059045d601e1e7a19d1804e3367ca0124d90c08a37823853eba3ef9685",
    ("step_cycle", 2): "bdba3aa8c8f2e6708999dbc62f8ecdbd2cddb380b1b3abc519b5c600920716db",
    ("step_cycle", 3): "320725bb06f777ea3fe76c69ac3d19bcb2ce7a6f711d13b40135f0f072836767",
    ("step_cycle", 7): "2b94b75a06232f6878026205ed8d8874d1ba4309e6b16ca1abb5fb49c1d3ec62",
}


@pytest.mark.parametrize("name, seed", sorted(MORE_SEED_DIGESTS))
def test_workload_pins_at_more_seeds(name, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _workload_digest(name, seed) == MORE_SEED_DIGESTS[name, seed]


def test_cli_defaults_equal_python_defaults(tmp_path):
    raw = {"schema_version": 1, "command": {"kind": "step", "target_kPa": 69.0}}
    (tmp_path / "step.json").write_text(json.dumps(raw))
    scn, _ = cli.load_scenario(tmp_path / "step.json")
    ref = step_scenario(69.0)
    for name in Scenario.FIELDS:
        assert getattr(scn, name) == getattr(ref, name), name


# ------------------------------------------------------ any JSON, clean error

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 5e-324])
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)
PIECEWISE = {
    "schema_version": 1,
    "command": {"kind": "piecewise", "knots": [[0.0, 10.0], [0.5, 40.0], [1.0, 5.0]]},
    "run": {"mode": "closed_loop", "duration_s": 1.5},
}
DOCUMENTS = [
    (cli.resolve_scenario, json.loads((SCENARIOS / f"{name}.json").read_text()))
    for name in ("step_69kpa_half_liter", "sweep_21kpa_half_liter", "discharge_2l_bottle")
] + [
    (cli.resolve_scenario, PIECEWISE),
    (cli.resolve_requirements, json.loads((SCENARIOS / "demo_requirements.json").read_text())),
    (cli.resolve_catalog, json.loads((SCENARIOS / "reference_catalog.json").read_text())),
]
RESOLVERS = (cli.resolve_scenario, cli.resolve_requirements, cli.resolve_catalog)


def _paths(doc, prefix=()):
    """Every place in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _resolves_cleanly(resolve, doc) -> None:
    """Resolve doc: either a ConfigError or a strict-JSON, idempotent result."""
    try:
        resolved = resolve(doc)
    except cli.ConfigError:
        return
    text = json.dumps(resolved, allow_nan=False)
    assert resolve(json.loads(text)) == resolved


@settings(deadline=None)
@given(resolver=st.sampled_from(RESOLVERS), doc=JSON_VALUES)
def test_any_json_value_resolves_or_raises_config_error(resolver, doc):
    _resolves_cleanly(resolver, doc)


@settings(deadline=None, max_examples=300)
@given(case=st.sampled_from(DOCUMENTS), data=st.data())
def test_mutated_document_resolves_or_raises_config_error(case, data):
    resolve, doc = case
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    _resolves_cleanly(resolve, doc)


# ---------------------------------------------------- any run flag, clean error

FLAG_FLOATS = (
    st.floats()  # nan, +-inf, negatives and subnormals included
    | st.sampled_from([5e-324, -5e-324, 1e-300, 1e300, 10**400, -(10**400)])
    | st.integers()
)
FLAG_INTS = st.integers() | st.sampled_from([2**63, 10**400, -(10**400)])
RUN_FLAGS = st.fixed_dictionaries(
    {},
    optional={"--dt": FLAG_FLOATS, "--duration": FLAG_FLOATS, "--sample-rate": FLAG_FLOATS,
              "--seed": FLAG_INTS},
)
# the fields a run flag can reach: its own, and the checks that read dt_s
FIELD_ERROR = re.compile(
    r"error: scenario\.(run\.(dt_s|duration_s|sample_rate_Hz|seed)|controller\.control_rate_Hz): "
)


def _stub_run(scn: Scenario):
    """What cli.simulate returns in the run-flag property: a valid two-row trace."""
    replace(scn)  # the scenario it was given keeps its rules
    columns = {name: np.zeros(2) for name in TimeSeries.FIELDS}
    columns["t"] = np.array([0.0, scn.dt])
    columns["mode"] = np.zeros(2, dtype=np.uint8)
    return TimeSeries(**columns)


@settings(deadline=None, max_examples=300)
@given(flags=RUN_FLAGS)
@example(flags={"--dt": math.nan})
@example(flags={"--duration": -math.inf, "--sample-rate": 5e-324})
@example(flags={"--dt": 1e-300, "--duration": 1e300})  # duration_s / dt_s overflows
@example(flags={"--seed": 10**400, "--duration": 0.002})
def test_any_run_flag_runs_or_names_a_field(flags):
    # simulate is stubbed: no example integrates, nor allocates MAX_ROWS rows
    scn_file = SCENARIOS / "step_69kpa_half_liter.json"
    argv = ["simulate", str(scn_file), *(f"{flag}={value!r}" for flag, value in flags.items())]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "simulate", _stub_run), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out", out])
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 2 and FIELD_ERROR.match(err.getvalue()), err.getvalue()



# ------------------------------------------------ any field value, clean error

FIELD_NUMBERS = (
    st.floats()  # nan, +-inf, +-0, negatives and subnormals included
    | st.sampled_from([-0.0, 5e-324, -5e-324, -101.325, -101.33, -1e300, 1e300, 1.7e308])
    | st.integers()
    | st.sampled_from([2**63, 10**400, -(10**400)])
)
NUMERIC_CHECKS = {"num", "pos", "nonneg", "level", "gauge", "floor", "unit", "deadband", "int"}
BASES = {
    name: json.loads((SCENARIOS / f"{name}.json").read_text())
    for name in ("step_69kpa_half_liter", "sweep_21kpa_half_liter", "discharge_2l_bottle",
                 "demo_requirements", "reference_catalog")
}
# requirements that give the demanded rate, so the reference amplitude is half of dP_cv_kPa
BASES["rate_requirements"] = {"schema_version": 1, "V_cv_L": 0.1, "dP_cv_kPa": 20.7,
                              "Pdot_d_kPa_s": 35.8, "min_cycles": 30}
# the first part of every error path, by document; the others are scenarios
TOPS = {"demo_requirements": "requirements", "rate_requirements": "requirements",
        "reference_catalog": "catalog"}
# a valve is rated by exactly one of these keys; drawing one drops the other
VALVE_RATING = ("R_vmin_kPa_s_per_L", "flow_max_slpm")


def _field_cases() -> list:
    """(base document, path of keys to a section, JSON key) for every numeric row of every
    table, in each shipped document that has the section."""
    def rows(table, *extra):
        return [key for key, _kw, check, _d in table[1] if check in NUMERIC_CHECKS] + list(extra)

    scenario_rows = {("gas",): rows(scenario.GAS), ("controller",): rows(scenario.CONTROLLER),
                     ("run",): rows(scenario.RUN)}
    for name, table in scenario.NETWORK.items():
        extra = ("flow_max_slpm",) if table is scenario.VALVE else ()
        scenario_rows[("network", name)] = rows(table, *extra)
    cases = []
    for doc in ("step_69kpa_half_liter", "sweep_21kpa_half_liter", "discharge_2l_bottle"):
        kind = BASES[doc]["command"]["kind"]
        sections = {**scenario_rows, ("command",): rows(scenario.COMMANDS[kind])}
        if BASES[doc]["run"].get("mode") == "open_loop":
            sections[("run", "open_loop_command")] = rows(scenario.OPEN_LOOP)
        cases += [(doc, path, key) for path, keys in sections.items() for key in keys]
    cases += [(doc, (), key) for doc in ("demo_requirements", "rate_requirements")
              for key in rows(cli.REQUIREMENTS)]
    entry_rows = {"valves": rows(cli.VALVE_OPTION, "flow_max_slpm"),
                  "reservoirs": rows(cli.RESERVOIR_OPTION), "venturis": rows(cli.VENTURI_OPTION)}
    for name, keys in entry_rows.items():
        for i in range(len(BASES["reference_catalog"][name])):
            cases += [("reference_catalog", (name, i), key) for key in keys]
    return cases


FIELD_CASES = _field_cases()


def _reject_constant(name: str):
    """``parse_constant`` for json.loads: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-finite number {name} in JSON")


@settings(deadline=None, max_examples=400)
@given(case=st.sampled_from(FIELD_CASES), value=FIELD_NUMBERS)
@example(case=("step_69kpa_half_liter", ("network", "solenoid"), "R_open_kPa_s_per_L"), value=5e-324)
@example(case=("reference_catalog", ("valves", 0), "R_vmin_kPa_s_per_L"), value=5e-324)
@example(case=("sweep_21kpa_half_liter", ("network", "reservoir"), "P_r0_kPa"), value=-101.33)
@example(case=("step_69kpa_half_liter", ("network", "control_volume"), "P_cv0_kPa"), value=-1e300)
@example(case=("sweep_21kpa_half_liter", ("network", "venturi"), "Q_motive_rated_slpm"), value=5e-324)
@example(case=("reference_catalog", ("venturis", 0), "P_vac_floor_kPa"), value=0.0)
@example(case=("reference_catalog", ("venturis", 0), "Q_motive_rated_slpm"), value=5e-324)
@example(case=("discharge_2l_bottle", ("run", "open_loop_command"), "u_evp"), value=1.0)
@example(case=("step_69kpa_half_liter", ("run",), "dt_s"), value=1e-310)  # duration_s / dt_s is inf
@example(case=("rate_requirements", (), "dP_cv_kPa"), value=5e-324)  # half of it is 0
@example(case=("step_69kpa_half_liter", ("gas",), "M_kg_per_mol"), value=1e-310)  # alpha is inf
@example(case=("discharge_2l_bottle", ("network", "reservoir"), "V_r_L"), value=5e-324)
@example(case=("demo_requirements", (), "frequency_Hz"), value=1e308)  # the demanded rate is inf
@example(case=("demo_requirements", (), "V_cv_L"), value=5e-324)  # cutoff_hz_full is inf
def test_any_field_value_runs_or_names_the_field(case, value):
    # simulate is stubbed, so a scenario resolves and builds but never integrates;
    # size runs whole
    with mock.patch.object(cli, "simulate", _stub_run):
        _assert_runs_or_names_the_field(case, value)


def _assert_runs_or_names_the_field(case, value, *run_flags, discharge=False) -> None:
    """Run the document of ``case`` with its field set to value: exit 0 (4: no feasible
    design) and nothing on stderr, or exit 2 with an error that names the field. With
    ``discharge``, an open-loop scenario runs through ``discharge``, else ``simulate``."""
    doc, path, key = case
    mutated = copy.deepcopy(BASES[doc])
    section = mutated
    for part in path:
        section = section.setdefault(part, {}) if isinstance(part, str) else section[part]
    if key in VALVE_RATING:
        section.pop(VALVE_RATING[1 - VALVE_RATING.index(key)], None)
    section[key] = value
    top = TOPS.get(doc, "scenario")
    # the path an error gives the field: scenario.network.venturi.P_vac_floor_kPa,
    # requirements.V_cv_L, catalog.valves[0].mass_g
    field = "".join([top, *(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), f".{key}"])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        def write(name, payload):
            Path(tmp, f"{name}.json").write_text(json.dumps(payload))
            return str(Path(tmp, f"{name}.json"))

        if top == "scenario":
            open_loop = mutated["run"].get("mode") == "open_loop"
            command = "discharge" if discharge and open_loop else "simulate"
            argv = [command, write(doc, mutated), *run_flags]
        else:
            req = mutated if top == "requirements" else BASES["demo_requirements"]
            cat = mutated if top == "catalog" else BASES["reference_catalog"]
            argv = ["size", write("requirements", req), write("catalog", cat)]
        rc = cli.main([*argv, "--out", str(Path(tmp, "out"))])
        report = Path(tmp, "out", "requirements_design_report.json")
        if report.exists():  # strict JSON: a NaN or Infinity raises
            json.loads(report.read_text(), parse_constant=_reject_constant)
    message = err.getvalue()
    if rc == 0 or (rc == 4 and argv[0] == "size"):  # 4: no feasible design
        assert message in ("", "error: no feasible configuration\n")
    else:
        # a rule between two fields (dt_s and sample_rate_Hz, say) may put the other's path
        # first; the message still names the drawn field
        other = message.startswith(f"error: {top}.") and re.search(rf"\b{key}\b", message)
        assert rc == 2 and (message.startswith(f"error: {field}: ") or other), message


# the three run scenarios, each numeric field at the edges of the float range
RUN_FIELD_CASES = [case for case in FIELD_CASES if TOPS.get(case[0], "scenario") == "scenario"]


@pytest.mark.parametrize("value", [5e-324, 1e-310, 1e300, 1.7e308])
@pytest.mark.parametrize("case", RUN_FIELD_CASES, ids=lambda case: "-".join(map(str, case)))
def test_extreme_field_value_integrates_or_names_the_field(case, value):
    # the real simulate and discharge: a rate that overflows is a field-named exit 2,
    # never a divergence (exit 3) or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_runs_or_names_the_field(case, value, "--duration", "0.02", discharge=True)
