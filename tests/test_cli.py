import errno
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import step_scenario
from pneusim import cli, components, control, gasmodel, scenario, schema, sim, sizing
from pneusim.components import default_network
from pneusim.control import Mode
from pneusim.sim import SimulationDivergence, TimeSeries, simulate
from pneusim.sizing import DesignEntry, DesignReport

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
README = SCENARIOS.parent / "README.md"
# every shipped scenario file: the .json files under scenarios/ but the inputs of `size`
SHIPPED_SCENARIOS = sorted(
    p for p in SCENARIOS.glob("**/*.json")
    if p.name not in ("demo_requirements.json", "reference_catalog.json")
)
SRC = SCENARIOS.parent / "src"


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def minimal_scenario(**run_overrides) -> dict:
    run = {"dt_s": 0.0005, "duration_s": 0.5, "sample_rate_Hz": 1000.0}
    run.update(run_overrides)
    return {
        "schema_version": 1,
        "command": {"kind": "step", "target_kPa": 69.0},
        "run": run,
    }


class TestResolveScenario:
    def test_defaults_materialized(self):
        resolved = cli.resolve_scenario(minimal_scenario())
        assert resolved["network"]["reservoir"]["V_r_L"] == 2.0
        assert resolved["network"]["inflation_valve"]["R_vmin_kPa_s_per_L"] == pytest.approx(
            689.0 / (23.5 / 60.0)
        )
        assert resolved["controller"]["kp_per_kPa"] == 0.05
        assert resolved["gas"]["T_K"] == 293.15

    def test_resolution_idempotent(self):
        once = cli.resolve_scenario(minimal_scenario())
        twice = cli.resolve_scenario(json.loads(json.dumps(once)))
        assert once == twice

    def test_slpm_conversion(self):
        raw = minimal_scenario()
        raw["network"] = {"inflation_valve": {"flow_max_slpm": 30.0, "P_inlet_max_kPa": 600.0}}
        resolved = cli.resolve_scenario(raw)
        assert resolved["network"]["inflation_valve"]["R_vmin_kPa_s_per_L"] == pytest.approx(
            600.0 / 0.5
        )

    def test_unknown_key_rejected(self):
        raw = minimal_scenario()
        raw["network"] = {"reservoir": {"V_r_L": 2.0, "psi": 100.0}}
        with pytest.raises(cli.ConfigError, match="psi"):
            cli.resolve_scenario(raw)

    def test_negative_volume_names_field(self):
        raw = minimal_scenario()
        raw["network"] = {"control_volume": {"V_cv_L": -0.5}}
        with pytest.raises(cli.ConfigError, match=r"control_volume\.V_cv_L"):
            cli.resolve_scenario(raw)

    def test_schema_version_required(self):
        raw = minimal_scenario()
        del raw["schema_version"]
        with pytest.raises(cli.ConfigError, match="schema_version"):
            cli.resolve_scenario(raw)

    def test_command_required(self):
        raw = minimal_scenario()
        del raw["command"]
        with pytest.raises(cli.ConfigError, match=r"^scenario\.command: required$"):
            cli.resolve_scenario(raw)

    def test_both_resistance_forms_rejected(self):
        raw = minimal_scenario()
        raw["network"] = {
            "inflation_valve": {"R_vmin_kPa_s_per_L": 1000.0, "flow_max_slpm": 23.5}
        }
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.resolve_scenario(raw)

    def test_open_loop_command_required(self):
        raw = minimal_scenario(mode="open_loop")
        with pytest.raises(cli.ConfigError, match="open_loop_command"):
            cli.resolve_scenario(raw)

    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_resolve(self, path):
        scn, resolved, _ = cli.load_scenario(path)
        assert cli.resolve_scenario(json.loads(json.dumps(resolved))) == resolved

    def test_load_scenario_builds_each_record_once(self, monkeypatch):
        built = []
        for module in (gasmodel, components, control, sim):
            for cls in vars(module).values():  # the records each module declares
                if "KINDS" in getattr(cls, "__dict__", {}) and cls.__module__ == module.__name__:
                    def init(self, *args, original=cls.__init__, **kwargs):
                        built.append(self)
                        original(self, *args, **kwargs)

                    monkeypatch.setattr(cls, "__init__", init)
        scn, _, _ = cli.load_scenario(SCENARIOS / "discharge_2l_bottle.json")
        parts = [getattr(scn.network, name) for name in scn.network.FIELDS]
        records = [scn, scn.gas, scn.controller, scn.command, scn.open_loop_command, scn.network,
                   *parts]
        assert sorted(map(id, built)) == sorted(map(id, records))


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        ts = simulate(step_scenario(69.0, duration=0.2))
        path = tmp_path / "trace.csv"
        cli.write_timeseries_csv(ts, path)
        back = cli.read_timeseries_csv(path)
        assert np.allclose(back.p_cv, ts.p_cv, rtol=1e-8, atol=1e-9)
        assert np.array_equal(back.mode, ts.mode)
        header = path.read_text().splitlines()[0]
        assert header == cli.CSV_HEADER

    def test_lf_line_endings(self, tmp_path):
        ts = simulate(step_scenario(69.0, duration=0.1))
        path = tmp_path / "trace.csv"
        cli.write_timeseries_csv(ts, path)
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,2", "expected 11 fields, got 3"),
            ("0,0,0,689,0,0,0,0,0,0,BOGUS", "unknown mode 'BOGUS'"),
            ("0,0,x,689,0,0,0,0,0,0,IDLE", "could not convert string to float: 'x'"),
        ],
        ids=["short_row", "unknown_mode", "not_a_number"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "trace.csv"
        good = "0.001,0,0,689,0,0,0,0,0,0,IDLE"
        path.write_text(f"{cli.CSV_HEADER}\n{good}\n{row}\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError) as err:
            cli.read_timeseries_csv(path)
        assert str(err.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("text", ["", "t_s,P_cmd_kPa\n0,0\n"], ids=["empty", "other_header"])
    def test_unexpected_header(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.ConfigError) as err:
            cli.read_timeseries_csv(path)
        assert str(err.value) == f"{path}: unexpected CSV header"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        row = "0.001,0,0,689,0,0,0,0,0,0,IDLE"
        path.write_text(f"{cli.CSV_HEADER}\n\n{row}\n\n{row}\n", encoding="utf-8")
        assert cli.read_timeseries_csv(path).p_r.tolist() == [689.0, 689.0]


def _reference_csv(ts: TimeSeries, path: Path) -> None:
    """The writer before constant columns were formatted once: each row through the full template."""
    row_template = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%.9g,%.9g,%.9g,%s\n"
    mode_names = {mode: mode.name for mode in Mode}
    columns = [getattr(ts, name) for name in TimeSeries.FIELDS]
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(cli.CSV_HEADER + "\n")
        for start in range(0, len(ts), 512):
            block = [col[start : start + 512].tolist() for col in columns]
            block[-1] = [mode_names[code] for code in block[-1]]
            out.write("".join(row_template % row for row in zip(*block)))


def _assert_csv_equals_reference(ts: TimeSeries) -> None:
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d) / "got.csv", Path(d) / "want.csv"
        cli.write_timeseries_csv(ts, got)
        _reference_csv(ts, want)
        assert got.read_bytes() == want.read_bytes()


def _trace(n: int, **columns) -> TimeSeries:
    """n rows, 0 in every column not given; a given column is a value or a sequence."""
    out = {}
    for name in TimeSeries.FIELDS:
        value = columns.get(name, 0)
        col = np.empty(n, dtype=np.uint8 if name == "mode" else float)
        col[:] = value
        out[name] = col
    return TimeSeries(**out)


CSV_VALUES = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 689.0, 1e-9, 123456789.5]
)
COLUMN_VALUES = {"solenoid": st.sampled_from([0.0, -0.0, 1.0]), "mode": st.sampled_from(list(Mode))}


@st.composite
def csv_traces(draw) -> TimeSeries:
    """Columns constant, constant but for one row, a mix of +-0.0, or drawn from a few values."""
    n = draw(st.sampled_from([1, 2, 511, 512, 513, 1024, 1100]) | st.integers(1, 1100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in TimeSeries.FIELDS:
        values = COLUMN_VALUES.get(name, CSV_VALUES)
        kind = draw(st.sampled_from(["constant", "one_differs", "signed_zeros", "mixed"]))
        if kind == "signed_zeros" and name != "mode":
            col = rng.choice([0.0, -0.0], n)
        elif kind == "mixed":
            col = rng.choice(np.array(draw(st.lists(values, min_size=1, max_size=4)), dtype=float), n)
        else:
            col = np.full(n, draw(values), dtype=float)
            if kind == "one_differs":
                col[draw(st.integers(0, n - 1))] = draw(values)
        columns[name] = col
    return _trace(n, **columns)


class TestCsvConstantColumns:
    @settings(deadline=None, max_examples=150)
    @given(ts=csv_traces())
    def test_equals_per_row_writer(self, ts):
        _assert_csv_equals_reference(ts)

    @pytest.mark.parametrize(
        "n, columns",
        [
            (1100, {"p_cmd": 69.0, "p_r": 689.0, "mode": Mode.PID}),  # every block constant, short last block
            (1100, {"p_cv": [0.0] * 700 + [1e-9] + [0.0] * 399}),  # one row differs in the second block
            (1024, {"q_out": [0.0, -0.0] * 512, "q_in": [-0.0] * 1024}),  # mixed and all -0.0
            (600, {"t": math.inf, "q_motive": [-math.inf] * 599 + [math.inf], "solenoid": 1.0}),
            (513, {"mode": [Mode.IDLE] * 512 + [Mode.VENT], "u_inflate": 0.5}),  # a last block of one row
        ],
        ids=["all_constant", "one_differs", "signed_zeros", "infinities", "one_row_block"],
    )
    def test_cases(self, n, columns):
        _assert_csv_equals_reference(_trace(n, **columns))


class TestSimulateCommand:
    def test_writes_trace_and_manifest(self, tmp_path):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        rc = cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        csv_path = tmp_path / "out" / "step_timeseries.csv"
        manifest_path = tmp_path / "out" / "step_manifest.json"
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["inputs"]["scenario"]["sha256"]
        assert manifest["resolved"]["run"]["duration_s"] == 0.5

    def test_byte_identical_reruns(self, tmp_path):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "step_timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "step_timeseries.csv").read_bytes()
        assert a == b

    def test_step_scenario_csv_rise_slope(self, tmp_path):
        rc = cli.main(
            [
                "simulate",
                str(SCENARIOS / "step_69kpa_half_liter.json"),
                "--duration",
                "0.4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        ts = cli.read_timeseries_csv(tmp_path / "step_69kpa_half_liter_timeseries.csv")
        i = int(np.searchsorted(ts.t, 0.05))
        slope = (ts.p_cv[i] - ts.p_cv[0]) / (ts.t[i] - ts.t[0])
        assert slope == pytest.approx(79.37, rel=0.02)

    def test_flag_overrides_recorded(self, tmp_path):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        rc = cli.main(
            ["simulate", str(scn_file), "--duration", "0.25", "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "step_manifest.json").read_text())
        assert manifest["cli_overrides"] == {"duration_s": 0.25}
        assert manifest["resolved"]["run"]["duration_s"] == 0.25

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        bad = minimal_scenario()
        bad["network"] = {"control_volume": {"V_cv_L": -0.5}}
        scn_file = write_json(tmp_path / "bad.json", bad)
        rc = cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "V_cv_L" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_stiff_exhaust_into_the_venturi_runs(self, tmp_path):
        # a stiff exhaust into the Venturi's vacuum node, which rises as the motive
        # flow runs the reservoir down: the control volume meets the node within the
        # first row, and the exhaust shuts there and stays shut
        raw = minimal_scenario(
            mode="open_loop", duration_s=0.05,
            open_loop_command={"u_evp": 0.0, "u_dvp": 1.0, "solenoid_open": True},
        )
        raw["network"] = {
            "reservoir": {"P_r0_kPa": 600.0},
            "control_volume": {"V_cv_L": 0.1, "P_cv0_kPa": 100.0},
            "solenoid": {"R_open_kPa_s_per_L": 0.01},
        }
        scn_file = write_json(tmp_path / "stiff.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 0
        ts = cli.read_timeseries_csv(tmp_path / "out" / "stiff_timeseries.csv")
        assert len(ts) == 51 and ts.p_cv[0] == 100.0 and ts.q_out[0] > 0.0
        assert np.all(ts.q_out[1:] == 0.0)
        assert np.all(ts.p_cv[1:] == ts.p_cv[1]) and -80.0 < ts.p_cv[1] < 0.0
        assert np.all(np.diff(ts.p_r) < 0.0) and np.all(ts.q_motive > 0.0)

    def test_divergence_exit_3(self, tmp_path, capsys, monkeypatch):
        # simulate raises SimulationDivergence only for a non-finite state
        def diverge(scn):
            raise SimulationDivergence("non-finite state", 0.25)

        monkeypatch.setattr(cli, "simulate", diverge)
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: simulation diverged: non-finite state at t=0.25 s\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("gas", "M_kg_per_mol", 1e-310),
            ("network.reservoir", "V_r_L", 5e-324),
            ("network.control_volume", "V_cv_L", 5e-324),
            ("network.solenoid", "R_open_kPa_s_per_L", 1e-320),
        ],
    )
    def test_overflowing_rate_constant_exit_2(self, tmp_path, capsys, section, key, value):
        # alpha = rho*R_u*T/M, alpha / V_r_L, alpha / V_cv_L or the exhaust's
        # alpha / V_cv / R_open is infinite, and with it the first state or command
        raw = minimal_scenario()
        outer, _, inner = section.partition(".")
        raw[outer] = {inner: {key: value}} if inner else {key: value}
        scn_file = write_json(tmp_path / "scn.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario.{section}.{key}: too small: a rate constant alpha / V times a "
            "conductance 1 / R, times a pressure (a flow rating gives R_vmin_kPa_s_per_L = "
            "P_inlet_max_kPa / (flow_max_slpm / 60)) overflows\n"
        )

    @pytest.mark.parametrize(
        "part, field, value",
        [
            ("gas", "M", 1e-310),
            ("reservoir", "v_r", 5e-324),
            ("control_volume", "v_cv", 5e-324),
            ("solenoid", "r_open", 1e-320),
        ],
    )
    def test_overflowing_rate_constant_refused_by_the_record(self, part, field, value):
        # the rows of test_overflowing_rate_constant_exit_2 as records: Scenario's rule
        # states the bound that cli names by its file key
        net, gas = default_network(), gasmodel.DEFAULT_GAS
        if part == "gas":
            gas = gasmodel.replace(gas, **{field: value})
        else:
            net = gasmodel.replace(net, **{part: gasmodel.replace(getattr(net, part),
                                                                  **{field: value})})
        with pytest.raises(gasmodel.FieldError, match=r"^Scenario\.network: too extreme: "):
            sim.Scenario(network=net, command=sim.StepCommand(69.0), dt=0.0005, duration=0.5,
                         sample_rate=1000.0, gas=gas)

    @pytest.mark.parametrize("duration, message", [
        ("0.0035", "p_r reaches 2.4974e+142 kPa at t=0.0035 s"),  # the flows stay finite
        ("0.0044", "p_r reaches 2.44944e+198 kPa at t=0.0045 s"),  # q_motive overflows
    ], ids=["0.0035", "0.0044"])
    def test_overflowing_rates_exit_3(self, tmp_path, capsys, duration, message):
        # tests/test_sim.py::_extreme by file key: the rule passes at the initial pressures, but
        # p_r climbs with no inflow until the rates at the rows' largest pressure overflow
        raw = {
            "schema_version": 1,
            "gas": {"M_kg_per_mol": 2.4559921855792673e-61},
            "network": {
                "reservoir": {"V_r_L": 1.5128909440973272e140, "P_r0_kPa": 33498738233.95681},
                "control_volume": {"V_cv_L": 1.7051783456298512e148, "P_cv0_kPa": 0.0},
                "inflation_valve": {"R_vmin_kPa_s_per_L": 2.405906932282898e-105},
                "motive_valve": {"R_vmin_kPa_s_per_L": 6.460715825196841e-127},
                "solenoid": {"R_open_kPa_s_per_L": 87491428.8657276},
                "venturi": {"P_vac_floor_kPa": -94.45634279757378,
                            "Q_motive_rated_slpm": 8.726312793985767e-16},
                "cv_sensor": {"noise_std_kPa": 0.1},
            },
            "command": {"kind": "sine", "amplitude_kPa": 1.0511773840971705,
                        "frequency_Hz": 59.92429456399524, "offset_kPa": 1.5767660761457558},
        }
        scn_file = write_json(tmp_path / "extreme.json", raw)
        argv = ["simulate", str(scn_file), "--duration", duration, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: simulation diverged: rates overflow: {message}\n"
        assert not list((tmp_path / "out").glob("*"))

    def test_overflowing_last_step_time_exit_2(self, tmp_path, capsys):
        # steps at 0, 1e308 and 2e308 s: the last step's time overflows, and no numpy warning
        raw = minimal_scenario(dt_s=1e308, duration_s=1.7e308, sample_rate_Hz=1e-308,
                               hold_reservoir=True)
        raw["command"]["target_kPa"] = 0.0
        raw["controller"] = {"control_rate_Hz": 5e-309}
        raw["network"] = {"reservoir": {"P_r0_kPa": 0.0}}
        scn_file = write_json(tmp_path / "scn.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.run.duration_s: too large: the last step's time, "
            "round(duration_s / dt_s) * dt_s, overflows\n"
        )

    def test_overflowing_sine_level_exit_2(self, tmp_path, capsys):
        # offset_kPa + amplitude_kPa overflows: the open loop reads no sensor range to stop it
        raw = minimal_scenario(dt_s=1000.0, duration_s=1e8, sample_rate_Hz=0.001,
                               mode="open_loop")
        raw["run"]["open_loop_command"] = {"u_evp": 0.0, "u_dvp": 0.0, "solenoid_open": False}
        raw["command"] = {"kind": "sine", "amplitude_kPa": 1.7e308, "offset_kPa": 1.7e308,
                          "frequency_Hz": 1e-9}
        scn_file = write_json(tmp_path / "scn.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.command.offset_kPa: offset_kPa + amplitude_kPa must be finite\n"
        )

    def test_sine_phase_overflow_at_the_last_step_exit_2(self, tmp_path, capsys):
        # 2 pi frequency_Hz duration_s is finite, but not at the last step's time, 3 dt_s
        dt = 2.8e307 / 2.6
        raw = minimal_scenario(dt_s=dt, duration_s=2.8e307, sample_rate_Hz=1.0 / dt,
                               hold_reservoir=True)
        raw["command"] = {"kind": "sine", "amplitude_kPa": 1.0, "frequency_Hz": 1.0}
        raw["controller"] = {"control_rate_Hz": 0.5 / dt}
        scn_file = write_json(tmp_path / "scn.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.command.frequency_Hz: too large: 2 pi frequency_Hz times duration_s "
            "or amplitude_kPa overflows\n"
        )

    def test_tiny_exhaust_product_runs(self, tmp_path, capsys):
        # R_open * V_cv underflows to 0, but alpha / V_cv / R_open, the venting
        # coefficient the run derives, is finite
        raw = json.loads((SCENARIOS / "step_69kpa_half_liter.json").read_text())
        raw["gas"] = {"rho_kg_per_m3": 1e-300}
        raw["network"]["solenoid"]["R_open_kPa_s_per_L"] = 1e-150
        raw["network"]["control_volume"]["V_cv_L"] = 1e-175
        scn_file = write_json(tmp_path / "scn.json", raw)
        argv = ["simulate", str(scn_file), "--duration", "0.01", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "scn_timeseries.csv").stat().st_size > 0

    def test_tiny_held_reservoir_runs(self, tmp_path):
        # a held reservoir's volume is not in the rates
        raw = minimal_scenario(duration_s=0.01, hold_reservoir=True)
        raw["network"] = {"reservoir": {"V_r_L": 5e-324}}
        scn_file = write_json(tmp_path / "scn.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 0


class TestSweepCommand:
    def test_single_passband_point(self, tmp_path):
        rc = cli.main(
            [
                "sweep",
                str(SCENARIOS / "sweep_21kpa_half_liter.json"),
                "--omegas",
                "0.14",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "sweep_21kpa_half_liter_sweep.csv").read_text().splitlines()
        assert rows[0] == "omega_Hz,gain,n_periods,error"
        omega, gain, n_periods, err = rows[1].split(",")
        assert float(gain) == pytest.approx(1.0, abs=0.05)
        assert int(n_periods) >= 3
        fit = json.loads((tmp_path / "sweep_21kpa_half_liter_sweep_fit.json").read_text())
        assert fit["n_failed"] == 0

    @staticmethod
    def exit_2_before_simulating(monkeypatch, capsys, out: Path, scn_file: Path, *flags) -> str:
        """The stderr of a sweep that exits 2 before any point simulates or ``out`` is made."""
        from pneusim import analysis

        monkeypatch.setattr(analysis, "pressure_response", lambda scn: pytest.fail("simulated"))
        assert cli.main(["sweep", str(scn_file), *flags, "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_empty_omegas_exit_2(self, tmp_path, capsys, monkeypatch):
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out",
                                            SCENARIOS / "sweep_21kpa_half_liter.json",
                                            "--omegas", "")
        assert err == "error: --omegas: at least one frequency required\n"

    @pytest.mark.parametrize("omegas, message", [
        ("1.35,inf", "frequencies must be finite"),
        ("0.5,nan", "frequencies must be finite"),
        ("0.5,-1", "frequencies must be > 0"),
    ])
    def test_bad_omega_exit_2(self, tmp_path, capsys, monkeypatch, omegas, message):
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out",
                                            SCENARIOS / "sweep_21kpa_half_liter.json",
                                            "--omegas", omegas)
        assert err == f"error: --omegas: {message}\n"

    def test_non_sine_scenario_exit_2(self, tmp_path, capsys, monkeypatch):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out", scn_file,
                                            "--omegas", "0.5")
        assert err == "error: scenario.command.kind: sweep needs a sine command\n"

    def test_zero_amplitude_exit_2(self, tmp_path, capsys, monkeypatch):
        # a zero amplitude gives no gain to measure, so the sweep is rejected before any point
        raw = json.loads((SCENARIOS / "sweep_21kpa_half_liter.json").read_text())
        raw["command"]["amplitude_kPa"] = 0.0
        scn_file = write_json(tmp_path / "flat.json", raw)
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out", scn_file,
                                            "--omegas", "1.35,2.7")
        assert err == "error: scenario.command.amplitude_kPa: must be > 0\n"

    def test_open_loop_scenario_exit_2(self, tmp_path, capsys, monkeypatch):
        # the command drives nothing in open loop, so no gain could be measured
        raw = json.loads((SCENARIOS / "sweep_21kpa_half_liter.json").read_text())
        raw["run"]["mode"] = "open_loop"
        raw["run"]["open_loop_command"] = {"u_evp": 0.0, "u_dvp": 0.0, "solenoid_open": False}
        scn_file = write_json(tmp_path / "open.json", raw)
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out", scn_file,
                                            "--omegas", "0.5,1")
        assert err == "error: scenario.run.mode: sweep needs a closed_loop scenario\n"

    def test_duration_flag_exit_2_before_writing(self, tmp_path, capsys, monkeypatch):
        # each point's duration follows from its frequency, so --duration would be ignored
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out",
                                            SCENARIOS / "sweep_21kpa_half_liter.json",
                                            "--omegas", "1.35", "--duration", "0.75")
        assert err.startswith("error: --duration: ")

    def test_point_beyond_row_budget_names_no_file_key(self, tmp_path):
        # the sweep computes each point's duration, so its error names the record's keyword
        argv = ["sweep", str(SCENARIOS / "sweep_21kpa_half_liter.json"), "--omegas", "0.0001,1"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep_21kpa_half_liter_sweep.csv").read_text().splitlines()
        err = rows[1].split(",")[3]
        assert err == ("Scenario.duration: the run would hold more than 16777216 sample rows "
                       "(duration * sample_rate)")
        assert "scenario." not in err and rows[2].split(",")[3] == ""

    def test_overflowing_omega_names_the_field(self, tmp_path):
        # Scenario's rule bounds each point's phase and rate, before any sine is formed
        argv = ["sweep", str(SCENARIOS / "sweep_21kpa_half_liter.json"), "--omegas",
                "1e308,1e307,1.35"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep_21kpa_half_liter_sweep.csv").read_text().splitlines()
        err = ("Scenario.command.freq_hz: too large: 2 pi command.freq_hz times duration or "
               "command.amplitude_kpa overflows")
        assert [row.split(",")[3] for row in rows[1:]] == ["", err, err]  # rows by frequency

    def test_overflowing_sine_file_exit_2(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "sweep_21kpa_half_liter.json").read_text())
        raw["command"]["frequency_Hz"] = 1e307
        scn_file = write_json(tmp_path / "sine.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.command.frequency_Hz: too large: 2 pi frequency_Hz times duration_s "
            "or amplitude_kPa overflows\n"
        )

    def test_zero_repeats_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch):
        err = self.exit_2_before_simulating(monkeypatch, capsys, tmp_path / "out",
                                            SCENARIOS / "sweep_21kpa_half_liter.json",
                                            "--omegas", "1.35", "--repeats", "0")
        assert err == "error: --repeats: must be >= 1\n"

    # 1e-9 Hz: a point whose own run is past the step budget fails alone and counts no steps
    @pytest.mark.parametrize("omegas", ["1.35,2.7", "1e-9,1.35"])
    @pytest.mark.parametrize("past", [False, True])
    def test_repeats_past_the_step_budget_exit_2_before_simulating(
        self, tmp_path, capsys, monkeypatch, omegas, past
    ):
        # each point's rule bounds only its own steps; the sweep bounds all of them, repeated
        from pneusim import analysis

        class Simulated(Exception):
            pass

        def simulated(scn):
            raise Simulated

        monkeypatch.setattr(analysis, "pressure_response", simulated)
        path = SCENARIOS / "sweep_21kpa_half_liter.json"
        scn, _, _ = cli.load_scenario(path)
        per_point = {"1.35": 7409, "2.7": 3706}  # round(((1 + 4) / omega + 2 / 2000 Hz) / 0.5 ms)
        steps = analysis.sweep_steps(scn, map(float, omegas.split(",")))
        assert steps == sum(per_point.get(w, 0) for w in omegas.split(","))
        repeats = sim.MAX_STEPS // steps + past
        argv = ["sweep", str(path), "--omegas", omegas, "--repeats", str(repeats),
                "--out", str(tmp_path)]
        if not past:
            with pytest.raises(Simulated):
                cli.main(argv)
            return
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --repeats: the sweep would take more than {sim.MAX_STEPS} steps "
            f"({repeats} repeats of {steps})\n"
        )
        with pytest.raises(ValueError, match=r"^n_repeat: the sweep would take more than "):
            analysis.frequency_sweep(scn, map(float, omegas.split(",")), n_repeat=repeats)

    def test_repeats_average_the_gains_of_consecutive_seeds(self, tmp_path):
        # a noisy sensor at one short point: repeat r runs at the template's seed + r, and the
        # sweep returns and writes the mean of the repeats' gains
        from pneusim import analysis

        raw = json.loads((SCENARIOS / "sweep_21kpa_half_liter.json").read_text())
        raw["network"]["cv_sensor"] = {"noise_std_kPa": 0.5}
        raw["run"]["seed"] = 5
        scn_file = write_json(tmp_path / "noisy.json", raw)
        scn, _, _ = cli.load_scenario(scn_file)
        g0, g1 = (analysis.frequency_sweep(gasmodel.replace(scn, seed=seed), [6.75])[0].gain
                  for seed in (5, 6))
        want = float(np.mean([g0, g1]))
        assert g0 != g1 and analysis.frequency_sweep(scn, [6.75], n_repeat=2)[0].gain == want
        out = tmp_path / "out"
        argv = ["sweep", str(scn_file), "--omegas", "6.75", "--repeats", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = (out / "noisy_sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[:2] == ["6.75", "%.9g" % want]
        manifest = json.loads((out / "noisy_manifest.json").read_text())
        assert manifest["cli_overrides"]["repeats"] == 2


def _scenario_text(edit) -> str:
    """``minimal_scenario`` after ``edit``, as a file's text."""
    raw = minimal_scenario()
    edit(raw)
    return json.dumps(raw)


_IDLE = {"u_evp": 0.0, "u_dvp": 0.0, "solenoid_open": False}
_SWEEP_TEXT = (SCENARIOS / "sweep_21kpa_half_liter.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("text, argv, code, message", [
    ("{", ["simulate"], 2,
     "{path}: invalid JSON at line 1: Expecting property name enclosed in double quotes"),
    # a line ends at LF, CRLF or a lone CR, as read_text's universal newlines have it
    ('{\r\n\r\n"schema_version" 1}', ["simulate"], 2,
     "{path}: invalid JSON at line 3: Expecting ':' delimiter"),
    ('{\r\r"schema_version" 1}', ["simulate"], 2,
     "{path}: invalid JSON at line 3: Expecting ':' delimiter"),
    (_scenario_text(lambda raw: raw["command"].update(kind="ramp")), ["simulate"], 2,
     "scenario.command.kind: unknown kind 'ramp'"),
    (_scenario_text(lambda raw: raw["run"].update(mode="hybrid")), ["simulate"], 2,
     "scenario.run.mode: expected 'closed_loop' or 'open_loop'"),
    (_scenario_text(lambda raw: raw["run"].update(open_loop_command=_IDLE)), ["simulate"], 2,
     "scenario.run.open_loop_command: only valid with mode 'open_loop'"),
    (_scenario_text(lambda raw: raw.update(schema_version=2)), ["simulate"], 2,
     "scenario.schema_version: unsupported version 2"),
    (_SWEEP_TEXT, ["sweep", "--omegas", "1.35,x"], 2,
     "--omegas: expected comma-separated numbers"),
    (_SWEEP_TEXT, ["sweep", "--omegas", "1000"], 3, "every sweep point failed"),
], ids=["invalid_json", "crlf_line_ends", "cr_line_ends", "unknown_kind", "unknown_mode",
        "open_loop_command_in_closed_loop", "schema_version", "omegas_not_numbers",
        "every_point_failed"])
def test_error_exit_code_and_line(tmp_path, capsys, text, argv, code, message):
    path = tmp_path / "scn.json"
    path.write_text(text, encoding="utf-8")
    command, *flags = argv
    assert cli.main([command, str(path), *flags, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


class TestDischargeCommand:
    def test_fit_matches_closed_form(self, tmp_path):
        rc = cli.main(
            [
                "discharge",
                str(SCENARIOS / "discharge_2l_bottle.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        fit = json.loads((tmp_path / "discharge_2l_bottle_discharge_fit.json").read_text())
        assert fit["tau_s"] == pytest.approx(34.726, rel=1e-3)
        assert fit["nrmse"] < 0.01
        assert not fit["degenerate"]

    def test_doubling_reservoir_doubles_tau(self, tmp_path):
        raw = json.loads((SCENARIOS / "discharge_2l_bottle.json").read_text())
        raw["network"]["reservoir"]["V_r_L"] = 4.0
        raw["run"]["duration_s"] = 180.0
        scn_file = write_json(tmp_path / "discharge_4l.json", raw)
        assert cli.main(["discharge", str(scn_file), "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "discharge_4l_discharge_fit.json").read_text())
        assert fit["tau_s"] == pytest.approx(2 * 34.726, rel=1e-3)

    def test_empty_reservoir_flagged_degenerate(self, tmp_path):
        raw = json.loads((SCENARIOS / "discharge_2l_bottle.json").read_text())
        raw["network"]["reservoir"]["P_r0_kPa"] = 0.0
        raw["run"]["duration_s"] = 5.0
        scn_file = write_json(tmp_path / "flat.json", raw)
        assert cli.main(["discharge", str(scn_file), "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "flat_discharge_fit.json").read_text())
        assert fit["degenerate"]

    def test_constant_subnormal_reservoir_flagged_degenerate(self, tmp_path):
        # the reservoir cannot decay below the smallest subnormal, so every row is 5e-324
        raw = json.loads((SCENARIOS / "discharge_2l_bottle.json").read_text())
        raw["network"]["reservoir"]["P_r0_kPa"] = 5e-324
        scn_file = write_json(tmp_path / "subnormal.json", raw)
        argv = ["discharge", str(scn_file), "--duration", "0.02", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        fit = json.loads((tmp_path / "subnormal_discharge_fit.json").read_text())
        assert fit["degenerate"] and fit["tau_s"] is None

    def test_closed_loop_scenario_rejected(self, tmp_path):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        assert cli.main(["discharge", str(scn_file), "--out", str(tmp_path)]) == 2

    def test_shut_and_clamped_paths_write_plus_zero(self, tmp_path):
        # the shipped rig with the reservoir below atmosphere and a fuller
        # control volume: the inflation valve is shut against p_cv > p_r and
        # the motive path is clamped, so every flow is 0, never -0
        raw = json.loads((SCENARIOS / "discharge_2l_bottle.json").read_text())
        raw["network"]["reservoir"]["P_r0_kPa"] = -50.0
        raw["network"]["control_volume"]["P_cv0_kPa"] = 100.0
        raw["run"]["duration_s"] = 0.01
        scn_file = write_json(tmp_path / "below.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path)]) == 0
        times = ("0", "0.002", "0.004", "0.006", "0.008", "0.01")
        rows = "".join(f"{t},0,100,-50,0,1,0,0,0,0,IDLE\n" for t in times)
        want = f"{cli.CSV_HEADER}\n{rows}".encode()
        assert (tmp_path / "below_timeseries.csv").read_bytes() == want


# no catalog design lasts a million cycles
IMPOSSIBLE_REQUIREMENTS = {
    "schema_version": 1,
    "V_cv_L": 0.1,
    "dP_cv_kPa": 20.7,
    "Pdot_d_kPa_s": 35.8,
    "min_cycles": 1e6,
}


class TestSizeCommand:
    def test_demo_requirements(self, tmp_path):
        rc = cli.main(
            [
                "size",
                str(SCENARIOS / "demo_requirements.json"),
                str(SCENARIOS / "reference_catalog.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "demo_requirements_design_report.json").read_text())
        assert report["feasible"]
        top = report["feasible"][0]
        assert top["n_cycles"] == pytest.approx(302.85, abs=0.5)
        assert top["valve"] == "EVP-2505"

    def test_catalog_valve_deadband_rejected(self, tmp_path, capsys):
        # sizing rates a valve by its full conductance, so a deadband would change nothing
        cat = json.loads((SCENARIOS / "reference_catalog.json").read_text())
        cat["valves"][0]["deadband"] = 0.9
        cat_file = write_json(tmp_path / "catalog.json", cat)
        argv = ["size", str(SCENARIOS / "demo_requirements.json"), str(cat_file)]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: catalog.valves[0]: unknown key(s): deadband\n"

    def test_catalog_valve_without_resistance_rejected(self, tmp_path, capsys):
        cat = json.loads((SCENARIOS / "reference_catalog.json").read_text())
        del cat["valves"][1]["flow_max_slpm"]
        cat_file = write_json(tmp_path / "catalog.json", cat)
        argv = ["size", str(SCENARIOS / "demo_requirements.json"), str(cat_file)]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: catalog.valves[1]: R_vmin_kPa_s_per_L or flow_max_slpm required\n"
        )

    def test_impossible_requirements_exit_4(self, tmp_path):
        req_file = write_json(tmp_path / "req.json", IMPOSSIBLE_REQUIREMENTS)
        rc = cli.main(
            [
                "size",
                str(req_file),
                str(SCENARIOS / "reference_catalog.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 4
        report = json.loads((tmp_path / "req_design_report.json").read_text())
        assert not report["feasible"]
        assert report["infeasible"][0]["limiting"] == ["cycle count"]

    @pytest.mark.parametrize(
        "demand, message",
        [
            ({"amplitude_kPa": 10.35, "frequency_Hz": 1e308}, "requirements.frequency_Hz: too large"),
            ({"Pdot_d_kPa_s": 1e308}, "requirements.Pdot_d_kPa_s: too large"),
        ],
    )
    def test_overflowing_demand_exit_2(self, tmp_path, capsys, demand, message):
        req = {"schema_version": 1, "V_cv_L": 0.1, "dP_cv_kPa": 20.7, "min_cycles": 30, **demand}
        req_file = write_json(tmp_path / "req.json", req)
        cat = str(SCENARIOS / "reference_catalog.json")
        assert cli.main(["size", str(req_file), cat, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {message}: a number of the design report (a flow rating gives "
            "R_vmin_kPa_s_per_L = P_inlet_max_kPa / (flow_max_slpm / 60)) overflows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_single_entry_catalog_single_row(self, tmp_path):
        cat = {
            "schema_version": 1,
            "valves": [
                {"name": "EVP", "flow_max_slpm": 23.5, "P_inlet_max_kPa": 689.0, "mass_g": 77.0}
            ],
            "reservoirs": [{"name": "B", "V_r_L": 2.0, "mass_g": 70.0, "P_max_kPa": 689.0}],
        }
        cat_file = write_json(tmp_path / "cat.json", cat)
        rc = cli.main(
            [
                "size",
                str(SCENARIOS / "demo_requirements.json"),
                str(cat_file),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "demo_requirements_design_report.json").read_text())
        assert len(report["feasible"]) + len(report["infeasible"]) == 1

    def test_unknown_catalog_key_exit_2(self, tmp_path, capsys):
        cat = {
            "schema_version": 1,
            "valves": [
                {
                    "name": "EVP",
                    "flow_max_slpm": 23.5,
                    "P_inlet_max_kPa": 689.0,
                    "mass_g": 77.0,
                    "color": "blue",
                }
            ],
            "reservoirs": [{"name": "B", "V_r_L": 2.0, "mass_g": 70.0, "P_max_kPa": 689.0}],
        }
        cat_file = write_json(tmp_path / "cat.json", cat)
        rc = cli.main(
            ["size", str(SCENARIOS / "demo_requirements.json"), str(cat_file), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "color" in capsys.readouterr().err


class TestOutputErrors:
    """An output directory or file that cannot be made is an exit-2 error naming --out."""

    @pytest.mark.parametrize("where", ["directory", "file"])
    def test_run_command(self, tmp_path, capsys, where):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        (tmp_path / "blocker").write_text("")
        if where == "directory":  # --out below a regular file
            out = tmp_path / "blocker" / "x"
            failed = out
        else:  # the output's name is taken by a directory
            out = tmp_path / "out"
            failed = out / "step_timeseries.csv"
            failed.mkdir(parents=True)
        assert cli.main(["simulate", str(scn_file), "--out", str(out)]) == 2
        assert f"error: --out: {failed}: " in capsys.readouterr().err

    def test_size(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "x"
        argv = ["size", str(SCENARIOS / "demo_requirements.json"),
                str(SCENARIOS / "reference_catalog.json")]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"error: --out: {out}: " in capsys.readouterr().err


# ------------------------------------------------------------- process exit
#
# ``entry`` ends the process with ``os._exit`` once stdout and stderr are flushed. The
# cases by exit code: the argv without --out ({tmp} is tmp_path), then stdout and stderr
# ({out} is the --out directory).

SIZE_ARGV = ["size", SCENARIOS / "demo_requirements.json", SCENARIOS / "reference_catalog.json"]
SWEEP_SCENARIO = SCENARIOS / "sweep_21kpa_half_liter.json"
EXIT_CASES = {
    0: SIZE_ARGV,
    2: ["sweep", SWEEP_SCENARIO, "--omegas", "x"],
    3: ["sweep", SWEEP_SCENARIO, "--omegas", "1000"],
    4: ["size", "{tmp}/req.json", SCENARIOS / "reference_catalog.json"],
}
EXIT_STREAMS = {
    0: ("wrote {out}/demo_requirements_design_report.json\n", ""),
    2: ("", "error: --omegas: expected comma-separated numbers\n"),
    3: ("wrote {out}/sweep_21kpa_half_liter_sweep.csv\n", "error: every sweep point failed\n"),
    4: ("wrote {out}/req_design_report.json\n", "error: no feasible configuration\n"),
}


def _exit_argv(tmp_path: Path, code: int) -> list[str]:
    write_json(tmp_path / "req.json", IMPOSSIBLE_REQUIREMENTS)
    argv = [str(a).format(tmp=tmp_path) for a in EXIT_CASES[code]]
    return [*argv, "--out", str(tmp_path / "out")]


class _Exit(Exception):
    """Raised by the stand-in for ``os._exit``; its argument is the exit code."""


class _ClosedPipe(io.RawIOBase):
    """A stdout whose reader is gone: every write fails as a closed pipe's does."""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestEntry:
    """``entry`` in-process, with ``os._exit`` replaced by one that raises ``_Exit``."""

    @staticmethod
    def run(monkeypatch, argv, on_exit=lambda code: None) -> int:
        def fake_exit(code):
            on_exit(code)
            raise _Exit(code)

        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setattr(sys, "argv", ["pneusim", *argv])
        with pytest.raises(_Exit) as info:
            cli.entry()
        return info.value.args[0]

    @pytest.mark.parametrize("code", [0, 2, 4])
    def test_exit_code_reaches_os_exit(self, tmp_path, capsys, monkeypatch, code):
        assert self.run(monkeypatch, _exit_argv(tmp_path, code)) == code
        stdout, stderr = EXIT_STREAMS[code]
        assert capsys.readouterr() == (stdout.format(out=tmp_path / "out"), stderr)

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)])
    def test_argparse_exits_the_normal_way(self, capsys, monkeypatch, argv, code):
        with pytest.raises(SystemExit) as info:
            self.run(monkeypatch, argv)
        assert info.value.code == code

    def test_escaping_exception_exits_the_normal_way(self, monkeypatch):
        def fail(argv=None):
            raise RuntimeError("not a pneusim error")

        monkeypatch.setattr(cli, "main", fail)
        with pytest.raises(RuntimeError, match="not a pneusim error"):
            self.run(monkeypatch, [])

    def test_buffered_notice_flushed_before_exit(self, tmp_path, monkeypatch):
        written = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="utf-8"))
        at_exit = []
        code = self.run(monkeypatch, _exit_argv(tmp_path, 0),
                        on_exit=lambda code: at_exit.append(written.getvalue()))
        report = tmp_path / "out" / "demo_requirements_design_report.json"
        assert code == 0 and at_exit == [f"wrote {report}\n".encode()]

    @pytest.mark.parametrize("write_through", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout(self, tmp_path, capsys, monkeypatch, write_through):
        # unbuffered, the notice fails in main; buffered, in entry's flush: one error either way
        stdout = io.TextIOWrapper(_ClosedPipe(), encoding="utf-8", write_through=write_through)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert self.run(monkeypatch, _exit_argv(tmp_path, 0)) == 2
        assert capsys.readouterr().err == "error: stdout: Broken pipe\n"
        assert (tmp_path / "out" / "demo_requirements_manifest.json").is_file()


def _child_env() -> dict:
    """This process's environment, with this tree's ``src`` first on PYTHONPATH."""
    paths = [p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _run_cli(argv, unbuffered: bool, **kwargs) -> subprocess.CompletedProcess:
    """``python -m pneusim.cli argv`` from this tree, with PYTHONUNBUFFERED set or unset."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "pneusim.cli", *map(str, argv)], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_process_streams_and_exit_code(tmp_path, code, unbuffered):
    proc = _run_cli(_exit_argv(tmp_path, code), unbuffered, stdout=subprocess.PIPE)
    stdout, stderr = EXIT_STREAMS[code]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, stdout.format(out=tmp_path / "out"), stderr)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_process_closed_stdout(tmp_path, unbuffered):
    """A closed stdout is its own exit-2 error, not --out's; every output is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(_exit_argv(tmp_path, 0), unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: stdout: Broken pipe\n")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "demo_requirements_design_report.json", "demo_requirements_manifest.json"]


# ------------------------------------------------------------------- inputs
#
# Each command reads each input file once, and every digest it records is of the bytes
# it parsed. The argv of each command without --out, on shipped inputs, kept short.

INPUT_ARGVS = {
    "simulate": ["simulate", SCENARIOS / "step_69kpa_half_liter.json", "--duration", "0.05"],
    "sweep": ["sweep", SWEEP_SCENARIO, "--omegas", "6.75"],
    "discharge": ["discharge", SCENARIOS / "discharge_2l_bottle.json", "--duration", "0.05"],
    "size": SIZE_ARGV,
}
# the output that records the input digests beside the manifest
DIGEST_OUTPUT = {"sweep": "sweep_fit.json", "discharge": "discharge_fit.json",
                 "size": "design_report.json"}


def _counting_reads(monkeypatch) -> Counter:
    """Reads of each path through ``Path.read_bytes``, ``read_text`` and ``open``; a read
    inside another (``read_bytes`` opens the file) is part of it."""
    reads, depth = Counter(), [0]

    def counting(read):
        def counted(self, *args, **kwargs):
            reads[self] += depth[0] == 0
            depth[0] += 1
            try:
                return read(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    for name in ("read_bytes", "read_text", "open"):
        monkeypatch.setattr(Path, name, counting(getattr(Path, name)))
    return reads


@pytest.mark.parametrize("command", INPUT_ARGVS)
def test_each_input_read_once(tmp_path, monkeypatch, command):
    argv = [str(arg) for arg in INPUT_ARGVS[command]]
    inputs = [Path(arg) for arg in argv if arg.endswith(".json")]
    reads = _counting_reads(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert [reads[path] for path in inputs] == [1] * len(inputs)


@pytest.mark.parametrize("command", DIGEST_OUTPUT)
def test_piped_input_records_its_own_digest(tmp_path, command):
    argv, read_ends, digests = [], [], {}
    try:
        for arg in map(str, INPUT_ARGVS[command]):
            if arg.endswith(".json"):
                data = Path(arg).read_bytes()
                read_end, write_end = os.pipe()
                read_ends.append(read_end)
                os.write(write_end, data)
                os.close(write_end)
                arg = f"/dev/fd/{read_end}"
                digests[arg] = hashlib.sha256(data).hexdigest()
            argv.append(arg)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        for read_end in read_ends:
            os.close(read_end)
    stem = read_ends[0]
    inputs = json.loads((tmp_path / f"{stem}_manifest.json").read_text())["inputs"]
    assert {entry["path"]: entry["sha256"] for entry in inputs.values()} == digests
    recorded = json.loads((tmp_path / f"{stem}_{DIGEST_OUTPUT[command]}").read_text())
    recorded = recorded["input_sha256"]
    if isinstance(recorded, str):  # a fit's, of its one scenario
        recorded = {"scenario": recorded}
    assert recorded == {name: entry["sha256"] for name, entry in inputs.items()}


def test_read_json_returns_the_document_and_its_digest():
    # _load_json, the document alone, is what perfbench/setup_probe.py calls
    path = SCENARIOS / "reference_catalog.json"
    data = path.read_bytes()
    assert cli._read_json(path) == (json.loads(data), hashlib.sha256(data).hexdigest())
    assert cli._load_json(path) == json.loads(data)


@pytest.mark.parametrize("argv", [
    ["simulate", "{bad}"],
    ["size", "{bad}", SCENARIOS / "reference_catalog.json"],
    ["size", SCENARIOS / "demo_requirements.json", "{bad}"],
], ids=["scenario", "requirements", "catalog"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    argv = [str(arg).format(bad=bad) for arg in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )
    assert not (tmp_path / "out").exists()


def test_asdict_loaded_on_first_access():
    import dataclasses

    assert cli.asdict is dataclasses.asdict
    with pytest.raises(AttributeError, match="^module 'pneusim.cli' has no attribute 'bogus'$"):
        cli.bogus


def test_discharge_of_one_row_reports_the_fit_reason(tmp_path):
    argv = ["discharge", str(SCENARIOS / "discharge_2l_bottle.json"), "--sample-rate", "10",
            "--duration", "0.002", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    fit = json.loads((tmp_path / "discharge_2l_bottle_discharge_fit.json").read_text())
    assert (fit["degenerate"], fit["tau_s"], fit["reason"]) == (
        True, None, "discharge fit needs at least two samples")


# ------------------------------------------------------- design report writer

REPORT_FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.225e-308, 1.7976931348623157e308, 1e300]
)
REPORT_NAMES = st.text() | st.sampled_from(
    ["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "Ventil-\u00e9\u20ac", "\U0001f4a8", "\ud800"]
)


@st.composite
def _pooled_entries(draw) -> tuple[list, list]:
    """Feasible and infeasible entries whose floats and names come from a small
    pool per example, so that they repeat as they do in a real report. The
    pool holds each float's negation too: 0.0 and -0.0 print apart."""
    pool = draw(st.lists(REPORT_FLOATS, min_size=1, max_size=3))
    floats = st.sampled_from(pool + [-x for x in pool])
    names = st.sampled_from(draw(st.lists(REPORT_NAMES, min_size=1, max_size=3)))
    entries = st.builds(
        DesignEntry,
        valve=names,
        reservoir=names,
        p_r0=floats,
        pressure_derated=st.booleans(),
        pdot_demand=floats,
        min_p_r=floats,
        cutoff_hz_full=floats,
        cutoff_hz_floor=floats,
        n_cycles=floats,
        total_mass_g=floats,
        feasible=st.booleans(),
        limiting=st.lists(st.sampled_from(["reservoir pressure", "cycle count"]) | names,
                          max_size=2).map(tuple),
    )
    return draw(st.lists(entries, max_size=3)), draw(st.lists(entries, max_size=3))


DESIGN_ENTRIES = _pooled_entries()


def _assert_report_equals_json_dumps(feasible, infeasible, sha) -> None:
    payload = {
        "schema_version": 1,
        "input_sha256": sha,
        "feasible": [e._asdict() for e in feasible],
        "infeasible": [e._asdict() for e in infeasible],
    }
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert cli.design_report_json(DesignReport(tuple(feasible), tuple(infeasible)), sha) == expected


@settings(deadline=None, max_examples=300)
@given(
    entries=DESIGN_ENTRIES,
    sha=st.fixed_dictionaries({"catalog": REPORT_NAMES, "requirements": REPORT_NAMES}),
)
def test_design_report_json_equals_json_dumps(entries, sha):
    _assert_report_equals_json_dumps(*entries, sha)


def test_design_report_json_keeps_equal_numbers_apart():
    """Numbers that compare equal but print apart, and repeats, as json.dumps prints them."""
    nan, other_nan = math.nan, float("nan")
    both = ("reservoir pressure", "cycle count")
    a = DesignEntry(valve="V", reservoir="R", p_r0=-0.0, pressure_derated=False,
                    pdot_demand=nan, min_p_r=0.0, cutoff_hz_full=0.0, cutoff_hz_floor=-0.0,
                    n_cycles=math.inf, total_mass_g=5e-324, feasible=False, limiting=both)
    b = DesignEntry(valve="V", reservoir="R", p_r0=0.0, pressure_derated=True,
                    pdot_demand=other_nan, min_p_r=-0.0, cutoff_hz_full=-0.0, cutoff_hz_floor=0.0,
                    n_cycles=-math.inf, total_mass_g=-5e-324, feasible=False,
                    limiting=tuple(list(both)))
    c = DesignEntry(valve="W", reservoir="V", p_r0=nan, pressure_derated=False,
                    pdot_demand=nan, min_p_r=math.inf, cutoff_hz_full=5e-324,
                    cutoff_hz_floor=-math.inf, n_cycles=0.0, total_mass_g=-0.0, feasible=True,
                    limiting=())
    sha = {"catalog": "V", "requirements": "R"}
    _assert_report_equals_json_dumps([c, a, b], [b, a, c], sha)


def test_design_report_json_of_a_generated_catalog():
    """A real report of 300 designs: both blocks long, cycle counts clamped to zero, and
    floats that repeat across columns (a total mass equal to the demanded rate) and blocks."""
    rng = random.Random(4)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    valves = tuple(
        sizing.ValveOption(f"V{i:02d}", r_vmin=689.0 * 60.0 / log_uniform(1.0, 120.0),
                           mass_g=float(rng.randrange(30, 200, 10)),
                           p_inlet_max=rng.choice((517.0, 689.0, 1000.0)))
        for i in range(20)
    )
    reservoirs = tuple(
        sizing.ReservoirOption(f"R{i:02d}", v_r=log_uniform(0.05, 4.0),
                               mass_g=float(rng.randrange(20, 200, 10)),
                               p_max=rng.choice((400.0, 689.0, 827.0)))
        for i in range(15)
    )
    req = sizing.DesignRequirements(v_cv=0.1, dp_cv=20.7, pdot_d=150.0, min_cycles=30)
    report = sizing.enumerate_catalog(req, sizing.ComponentCatalog(valves, reservoirs))
    assert len(report.feasible) > 20 and len(report.infeasible) > 20
    assert any(e.n_cycles == 0.0 for e in report.infeasible)
    assert {e.total_mass_g for e in report.entries} >= {e.pdot_demand for e in report.entries}
    _assert_report_equals_json_dumps(report.feasible, report.infeasible,
                                     {"catalog": "c" * 64, "requirements": "r" * 64})


def _run_python(code: str, *argv) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports pneusim from this tree."""
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=_child_env(),
                          capture_output=True, text=True)


RUN_MODULES = ("pneusim.sim", "pneusim.control", "pneusim.components", "pneusim.analysis")


@pytest.mark.parametrize(
    "argv, output, unloaded",
    [
        # the closed forms alone: no simulator, no numpy
        (SIZE_ARGV, "demo_requirements_design_report.json",
         ("numpy", "scipy", "dataclasses", *RUN_MODULES)),
        # a noiseless sensor builds no generator, so numpy.random stays unloaded
        (["simulate", SCENARIOS / "step_69kpa_half_liter.json", "--duration", "0.01"],
         "step_69kpa_half_liter_timeseries.csv",
         ("scipy", "dataclasses", "pneusim.analysis", "numpy.random")),
        # the fits are numpy's: scipy is installed, but no command needs it
        (["sweep", SCENARIOS / "sweep_21kpa_half_liter.json", "--omegas", "5.0"],
         "sweep_21kpa_half_liter_sweep_fit.json", ("scipy", "dataclasses", "numpy.random")),
        (["discharge", SCENARIOS / "discharge_2l_bottle.json", "--duration", "1"],
         "discharge_2l_bottle_discharge_fit.json", ("scipy", "dataclasses")),
    ],
    ids=["size", "simulate", "sweep", "discharge"],
)
def test_size_does_not_import_numpy(tmp_path, argv, output, unloaded):
    code = (
        "import sys\n"
        "from pneusim import cli\n"
        "rc = cli.main(sys.argv[2:])\n"
        "loaded = [name for name in sys.argv[1].split(',') if name in sys.modules]\n"
        "assert not loaded, f'{sys.argv[2]} imported {loaded}'\n"
        "sys.exit(rc)\n"
    )
    proc = _run_python(code, ",".join(unloaded), *argv, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).is_file()


def test_scenario_load_does_not_import_numpy():
    # perfbench/setup_probe.py times cli.load_scenario as setup_s; sim imports numpy only
    # inside the functions that use it, so building its records leaves numpy unloaded
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from pneusim import cli\n"
        "for path in sys.argv[1:]:\n"
        "    cli.load_scenario(Path(path))\n"
        "    assert 'numpy' not in sys.modules, f'loading {path} imported numpy'\n"
    )
    proc = _run_python(code, *SHIPPED_SCENARIOS)
    assert proc.returncode == 0, proc.stderr


def test_noisy_sensor_imports_numpy_random(tmp_path):
    # the noise is drawn from numpy's generator, which only a noisy sensor builds
    doc = json.loads((SCENARIOS / "step_69kpa_half_liter.json").read_text())
    doc["network"]["cv_sensor"] = {"noise_std_kPa": 0.1, "seed": 5}
    scn_file = tmp_path / "noisy_step.json"
    scn_file.write_text(json.dumps(doc))
    code = (
        "import sys\n"
        "from pneusim import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "assert 'numpy.random' in sys.modules, 'a noisy run did not load numpy.random'\n"
        "sys.exit(rc)\n"
    )
    proc = _run_python(code, "simulate", scn_file, "--duration", "0.01", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_discharge_fits_from_two_columns(tmp_path, monkeypatch):
    # the trace's other 9 columns are freed before the fit: at its entry the command holds
    # t and p_r, and less than one more column's worth besides
    from pneusim import analysis

    fit = analysis.fit_discharge_tau
    held = []

    def traced(*args):
        held.append((tracemalloc.get_traced_memory()[0], len(args[0])))
        return fit(*args)

    monkeypatch.setattr(analysis, "fit_discharge_tau", traced)
    tracemalloc.start()
    try:
        rc = cli.main(["discharge", str(SCENARIOS / "discharge_2l_bottle.json"),
                       "--out", str(tmp_path)])
    finally:
        tracemalloc.stop()
    assert rc == 0
    ((current, n_rows),) = held
    assert n_rows == 45_001 and current <= 3 * n_rows * 8


def test_size_error_propagates_as_itself(tmp_path):
    # main's handler of a simulation divergence lets any other error through as itself, and
    # size, which raises none, never loads the simulator
    code = (
        "import sys\n"
        "from pneusim import cli\n"
        "def fail(req, catalog):\n"
        "    raise RuntimeError('enumerate_catalog failed')\n"
        "cli.enumerate_catalog = fail\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except RuntimeError as exc:\n"
        "    assert type(exc) is RuntimeError, repr(exc)\n"
        "    assert str(exc) == 'enumerate_catalog failed' and exc.__context__ is None\n"
        "else:\n"
        "    sys.exit('no error')\n"
        "assert 'pneusim.sim' not in sys.modules\n"
    )
    proc = _run_python(code, *SIZE_ARGV, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr


def _subnormal_discharge(section: str, key: str) -> dict:
    doc = json.loads((SCENARIOS / "discharge_2l_bottle.json").read_text())
    target = doc["run"] if section == "open_loop_command" else doc["network"]
    target[section][key] = 5e-324
    return doc


@pytest.mark.parametrize(
    "command, doc, duration",
    [
        ("discharge", _subnormal_discharge("reservoir", "P_r0_kPa"), "0.02"),
        ("discharge", _subnormal_discharge("open_loop_command", "u_dvp"), "0.02"),
        (
            "simulate",  # a step to 0 from 150 kPa: active deflation
            {
                "schema_version": 1,
                "network": {"reservoir": {"P_r0_kPa": 5e-324}, "control_volume": {"P_cv0_kPa": 150.0}},
                "command": {"kind": "step", "target_kPa": 0.0},
            },
            "0.05",
        ),
    ],
    ids=["reservoir_pressure", "motive_command", "active_deflation"],
)
def test_underflowing_motive_flow_finishes(tmp_path, command, doc, duration):
    # the motive flow (f_mot * p_r) / r_mot underflows to 0 while p_r > 0; a state classified
    # by that flow broke its region's motive kink, and every span was rejected without end
    scn_file = write_json(tmp_path / "scn.json", doc)
    argv = [command, str(scn_file), "--duration", duration, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "pneusim.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


class TestFieldNamedErrors:
    def test_integer_beyond_float_range(self):
        raw = minimal_scenario()
        raw["command"]["target_kPa"] = int("9" * 400)
        with pytest.raises(cli.ConfigError, match=r"scenario\.command\.target_kPa: must be finite"):
            cli.resolve_scenario(raw)

    def test_nan_knot_exit_2(self, tmp_path, capsys):
        scn_file = tmp_path / "nan.json"
        scn_file.write_text(
            '{"schema_version": 1, "command": {"kind": "piecewise", "knots": [[0, 10], [0.1, NaN]]},'
            ' "run": {"duration_s": 0.2}}'
        )
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert r"scenario.command.knots[1]: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knots, where",
        [([[0.5, 10.0]], "knots[0]"), ([[0.0, 10.0], [0.2, 20.0], [0.2, 5.0]], "knots[2]")],
    )
    def test_knot_order_names_knot(self, tmp_path, capsys, knots, where):
        raw = minimal_scenario()
        raw["command"] = {"kind": "piecewise", "knots": knots}
        scn_file = write_json(tmp_path / "knots.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert f"scenario.command.{where}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--duration", "inf", "scenario.run.duration_s: must be finite"),
            ("--duration", "-1", "scenario.run.duration_s: must be > 0"),
            ("--duration", "1e-12", "scenario.run.duration_s: must be >= dt_s"),
            ("--dt", "nan", "scenario.run.dt_s: must be finite"),
            ("--sample-rate", "0", "scenario.run.sample_rate_Hz: must be > 0"),
            ("--seed", "-1", "scenario.run.seed: must be >= 0"),
        ],
    )
    def test_run_flags_checked_like_file_keys(self, tmp_path, capsys, flag, value, message):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        rc = cli.main(["simulate", str(scn_file), flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run, controller, message",
        [
            ({"sample_rate_Hz": 3000.0}, {}, "run.sample_rate_Hz: cannot exceed 1/dt_s"),
            ({"sample_rate_Hz": 1500.0}, {}, "run.sample_rate_Hz: 1/(sample_rate_Hz*dt_s) must"),
            # sample_rate_Hz * dt_s underflows to 0
            ({"sample_rate_Hz": 1e-200, "dt_s": 1e-200}, {}, "run.sample_rate_Hz: 1/(sample_rate"),
            ({"dt_s": 0.002, "sample_rate_Hz": 500.0}, {}, "run.dt_s: must be <= 1/(2*control"),
            ({}, {"control_rate_Hz": 800.0}, "controller.control_rate_Hz: 1/(control_rate_Hz*dt"),
        ],
    )
    def test_run_consistency_names_field(self, tmp_path, capsys, run, controller, message):
        raw = minimal_scenario(**run)
        raw["controller"] = controller
        scn_file = write_json(tmp_path / "run.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert f"error: scenario.{message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dt", "1e-9", "--duration", "1e6"],
            # duration_s / dt_s overflows to inf
            ["--dt", "1e-300", "--duration", "1e300", "--sample-rate", "1e300"],
        ],
    )
    def test_run_beyond_row_budget_exit_2(self, tmp_path, capsys, flags):
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        argv = ["simulate", str(scn_file), *flags]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "scenario.run.duration_s: the run would hold more than" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_beyond_step_budget_exit_2(self, tmp_path, capsys):
        # 101 sample rows, but 1e11 steps
        scn_file = write_json(tmp_path / "step.json", minimal_scenario())
        argv = ["simulate", str(scn_file), "--dt", "1e-9", "--duration", "100", "--sample-rate", "1"]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: scenario.run.duration_s: the run would take more than 2147483648 steps" in err
        assert not (tmp_path / "out").exists()

    def test_duration_below_dt_in_file(self):
        with pytest.raises(cli.ConfigError, match=r"duration_s: must be >= dt_s"):
            cli.resolve_scenario(minimal_scenario(duration_s=1e-4))

    @pytest.mark.parametrize(
        "network, message",
        [
            ({"reservoir_sensor": {}}, "scenario.network: unknown key(s): reservoir_sensor"),
            (
                {"venturi": {"R_motive_kPa_s_per_L": 617.0}},
                "scenario.network.venturi: unknown key(s): R_motive_kPa_s_per_L",
            ),
        ],
        ids=["reservoir_sensor", "R_motive"],
    )
    def test_unread_key_exit_2(self, tmp_path, capsys, network, message):
        raw = minimal_scenario()
        raw["network"] = network
        scn_file = write_json(tmp_path / "scn.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "size"])
    def test_duplicate_key_exit_2(self, tmp_path, capsys, command):
        # strict JSON: a repeated key is an error, not a silent last value (V_r_L 0.5 here)
        dup = tmp_path / "dup.json"
        if command == "simulate":
            text = json.dumps(minimal_scenario(duration_s=0.01))
            reservoir = '"network": {"reservoir": {"V_r_L": 2.0, "V_r_L": 0.5}}, '
            dup.write_text(text.replace('"run"', reservoir + '"run"'))
            argv, key = ["simulate", str(dup)], "V_r_L"
        else:
            text = (SCENARIOS / "reference_catalog.json").read_text()
            dup.write_text(text.replace('"valves"', '"schema_version": 1, "valves"', 1))
            argv, key = ["size", str(SCENARIOS / "demo_requirements.json"), str(dup)], "schema_version"
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {dup}: duplicate key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, flow", [("inflation_valve", 23.5), ("motive_valve", 67.0)])
    def test_valve_without_rating_is_the_default_valve(self, name, flow):
        raw = minimal_scenario()
        raw["network"] = {name: {"flow_max_slpm": flow}}
        resolved = cli.resolve_scenario(raw)["network"][name]
        assert resolved["R_vmin_kPa_s_per_L"] == getattr(default_network(), name).r_vmin
        assert resolved["P_inlet_max_kPa"] == 689.0

    def test_flow_rating_too_small_for_a_resistance(self):
        raw = minimal_scenario()
        raw["network"] = {"motive_valve": {"flow_max_slpm": 5e-324}}
        with pytest.raises(cli.ConfigError, match=r"motive_valve\.flow_max_slpm"):
            cli.resolve_scenario(raw)


class TestCommandWithinSensorRange:
    @pytest.mark.parametrize(
        "command, where",
        [
            ({"kind": "step", "target_kPa": 300.0}, "target_kPa"),
            ({"kind": "sine", "amplitude_kPa": 60.0, "frequency_Hz": 1.0, "offset_kPa": 150.0},
             "offset_kPa + amplitude_kPa"),
            ({"kind": "piecewise", "knots": [[0.0, 50.0], [0.1, 250.0], [0.2, 20.0]]}, "knots[1]"),
        ],
    )
    def test_closed_loop_command_above_range_exit_2(self, tmp_path, capsys, command, where):
        raw = minimal_scenario()
        raw["command"] = command
        scn_file = write_json(tmp_path / "high.json", raw)
        assert cli.main(["simulate", str(scn_file), "--out", str(tmp_path / "out")]) == 2
        peak = {"step": 300, "sine": 210, "piecewise": 250}[command["kind"]]
        assert capsys.readouterr().err == (
            f"error: scenario.command.{where.split(' + ')[0]}: {where} = {peak} kPa is above the "
            "CV sensor range (scenario.network.cv_sensor.range_max_kPa = 207)\n"
        )

    def test_range_follows_the_sensor(self):
        raw = minimal_scenario()
        raw["command"]["target_kPa"] = 300.0
        raw["network"] = {"cv_sensor": {"range_max_kPa": 400.0}}
        assert cli.resolve_scenario(raw)["command"]["target_kPa"] == 300.0

    def test_open_loop_exempt(self):
        raw = minimal_scenario(
            mode="open_loop", open_loop_command={"u_evp": 1.0, "u_dvp": 0.0, "solenoid_open": False}
        )
        raw["command"]["target_kPa"] = 300.0
        assert cli.resolve_scenario(raw)["run"]["mode"] == "open_loop"


class TestFieldTables:
    TABLES = [scenario.GAS, *scenario.NETWORK.values(), scenario.CONTROLLER,
              *scenario.COMMANDS.values(), scenario.RUN, scenario.OPEN_LOOP, cli.REQUIREMENTS,
              cli.VALVE_OPTION, cli.RESERVOIR_OPTION, cli.VENTURI_OPTION]

    @pytest.mark.parametrize("table", TABLES, ids=lambda table: table[0].__name__)
    def test_keyword_rows_are_the_record_keys_in_field_order(self, table):
        make, rows = table
        assert [(kw, key) for key, kw, _c, _d in rows if kw] == list(make.KEYS.items())
        assert list(make.KEYS) == [name for name in make.FIELDS if name in make.KEYS]
        assert all(kw in make.FIELDS for _key, kw, _c, _d in rows if kw)

    def test_every_record_that_declares_keys_is_read_by_a_table(self):
        declaring = {
            cls
            for module in (gasmodel, components, control, sim, sizing)
            for cls in vars(module).values()
            if isinstance(cls, type) and getattr(cls, "KEYS", None)
        }
        assert declaring == {make for make, _rows in self.TABLES}


class TestReadmeSchema:
    # a row's check: its own, or the kind its record declares for the keyword
    CHECK_TEXT = {
        "num": "number",
        "pos": "> 0",
        "nonneg": ">= 0",
        "level": ">= 0, finite",
        "gauge": ">= -101.325",
        "floor": "in (-101.325, 0)",
        "unit": ">= 0, <= 1",
        "deadband": ">= 0, < 1",
        "int": "integer >= 0",
        "nonempty": "non-empty list",
        "bool": "true/false",
        "str": "string",
    }

    @staticmethod
    def readme_tables() -> dict:
        """README table rows by section label: {label: {key: (default, check)}}."""
        tables, rows = {}, None
        for line in README.read_text(encoding="utf-8").splitlines():
            labels = re.findall(r"\*\*`([^`]+)`\*\*", line)
            if labels:
                rows = {}
                tables.update({label: rows for label in labels})
            row = re.match(r"\| `(\w+)` \| [^|]* \| ([^|]*) \| ([^|]*) \|$", line)
            if row and rows is not None:
                rows[row[1]] = (row[2], row[3])
        return tables

    def test_tables_match_field_table(self):
        sections = {
            "gas": scenario.GAS,
            **{f"network.{name}": table for name, table in scenario.NETWORK.items()},
            "controller": scenario.CONTROLLER,
            **scenario.COMMANDS,
            "run": scenario.RUN,
            "run.open_loop_command": scenario.OPEN_LOOP,
            "requirements": cli.REQUIREMENTS,
            "catalog.valves[i]": cli.VALVE_OPTION,
            "catalog.reservoirs[i]": cli.RESERVOIR_OPTION,
            "catalog.venturis[i]": cli.VENTURI_OPTION,
        }
        tables = self.readme_tables()
        assert {label for label in tables if label.startswith("network.")} == {
            label for label in sections if label.startswith("network.")
        }
        rule_keys = {"flow_max_slpm", "open_loop_command"}  # read by resolve_*, not a row
        for label, (_make, rows) in sections.items():
            extra = set(tables[label]) - {key for key, *_ in rows} - rule_keys
            assert not extra, (label, extra)
            for key, _kw, check, default in rows:
                text_default, text_check = tables[label][key]
                assert text_check.startswith(self.CHECK_TEXT[check]), (label, key)
                if key.endswith("_slpm"):  # bounded once divided by 60
                    assert text_check.startswith(f"{self.CHECK_TEXT[check]} in std L/s"), key
                if default is None:
                    assert text_default.startswith("rule"), (label, key)
                elif default is schema.REQUIRED:
                    assert text_default == "required", (label, key)
                elif isinstance(default, bool):
                    assert text_default == str(default).lower(), (label, key)
                elif isinstance(default, str):
                    assert text_default == f"`{default}`", (label, key)
                else:
                    assert text_default == f"{default:g}", (label, key)
