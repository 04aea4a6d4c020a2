"""The config records check their own fields when built from Python.

The table below is written by hand from the documented bounds, not from the
records' declarations, so a bound dropped from a declaration fails here.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pneusim import components as cp
from pneusim import control, gasmodel as gm, sim, sizing

NET = cp.default_network()

# record -> keyword arguments of a valid instance
VALID = {
    gm.GasConstants: {},
    cp.Reservoir: {},
    cp.ControlVolume: {},
    cp.ProportionalValveSpec: {},
    cp.BinaryValveSpec: {},
    cp.VenturiSpec: {},
    cp.SensorSpec: {},
    control.ActuatorCommand: {},
    control.ControllerConfig: {},
    sim.StepCommand: {"target_kpa": 69.0},
    sim.SineCommand: {"amplitude_kpa": 21.0, "freq_hz": 1.35, "offset_kpa": 21.0},
    sim.PiecewiseCommand: {"knots": ((0.0, 10.0), (0.5, 40.0))},
    sim.Scenario: {"network": NET, "command": sim.StepCommand(69.0)},
    sizing.DesignRequirements: {"v_cv": 0.1, "dp_cv": 20.7, "pdot_d": 35.8},
    sizing.ValveOption: {"name": "v", "r_vmin": 1759.0, "mass_g": 77.0, "p_inlet_max": 689.0},
    sizing.ReservoirOption: {"name": "r", "v_r": 2.0, "mass_g": 60.0, "p_max": 689.0},
    sizing.VenturiOption: {"name": "x", "p_vac_floor": -80.0, "q_motive_rated": 1.1, "mass_g": 20.0},
    sizing.ComponentCatalog: {
        "valves": (sizing.ValveOption("v", 1759.0, 77.0, 689.0),),
        "reservoirs": (sizing.ReservoirOption("r", 2.0, 60.0, 689.0),),
    },
}

# (record, keyword named in the error, keyword arguments that break it)
OUT_OF_RANGE = [
    (gm.GasConstants, "rho", {"rho": 0.0}),
    (gm.GasConstants, "R_u", {"R_u": -8.314}),
    (gm.GasConstants, "T", {"T": math.nan}),
    (gm.GasConstants, "M", {"M": 0.0}),
    (cp.Reservoir, "v_r", {"v_r": 0.0}),
    (cp.Reservoir, "p_r0", {"p_r0": -101.33}),
    (cp.ControlVolume, "v_cv", {"v_cv": -0.5}),
    (cp.ControlVolume, "p_cv", {"p_cv": -200.0}),
    (cp.ProportionalValveSpec, "r_vmin", {"r_vmin": 0.0}),
    (cp.ProportionalValveSpec, "u0", {"u0": -0.1}),
    (cp.ProportionalValveSpec, "u0", {"u0": 1.0}),
    (cp.BinaryValveSpec, "r_open", {"r_open": 0.0}),
    (cp.VenturiSpec, "p_vac_floor", {"p_vac_floor": 0.0}),
    (cp.VenturiSpec, "p_vac_floor", {"p_vac_floor": -101.325}),
    (cp.VenturiSpec, "q_motive_rated", {"q_motive_rated": 0.0}),
    (cp.SensorSpec, "range_max", {"range_max": 0.0}),
    (cp.SensorSpec, "noise_std", {"noise_std": -1.0}),
    (cp.SensorSpec, "seed", {"seed": -1}),
    (control.ActuatorCommand, "u_inflate", {"u_inflate": -0.1}),
    (control.ActuatorCommand, "u_inflate", {"u_inflate": 1.5}),
    (control.ActuatorCommand, "u_motive", {"u_motive": math.nan}),
    (control.ActuatorCommand, "u_motive", {"u_motive": 1.0 + 2**-52}),
    # motive air with the solenoid shut while inflating is wasted
    (control.ActuatorCommand, "u_inflate", {"u_inflate": 0.5, "u_motive": 0.5}),
    (control.ControllerConfig, "kp", {"kp": -0.05}),
    (control.ControllerConfig, "ki", {"ki": -0.5}),
    (control.ControllerConfig, "kd", {"kd": -1e-3}),
    (control.ControllerConfig, "error_cutoff", {"error_cutoff": 0.0}),
    (control.ControllerConfig, "control_rate", {"control_rate": 0.0}),
    (control.ControllerConfig, "settle_horizon", {"settle_horizon": -0.2}),
    (control.ControllerConfig, "integrator_limit", {"integrator_limit": -2.0}),
    (control.ControllerConfig, "active_deflation_rate_threshold",
     {"active_deflation_rate_threshold": -1.0}),
    (sim.StepCommand, "target_kpa", {"target_kpa": -1.0}),
    (sim.StepCommand, "start_s", {"start_s": -0.1}),
    (sim.SineCommand, "amplitude_kpa", {"amplitude_kpa": -1.0, "offset_kpa": 0.0}),
    (sim.SineCommand, "freq_hz", {"freq_hz": 0.0}),
    (sim.SineCommand, "offset_kpa", {"offset_kpa": 20.0}),
    (sim.PiecewiseCommand, "knots", {"knots": ()}),
    (sim.PiecewiseCommand, "knots", {"knots": ((0.5, 10.0),)}),
    (sim.PiecewiseCommand, "knots", {"knots": ((0.0, 10.0), (0.0, 20.0))}),
    (sim.PiecewiseCommand, "knots", {"knots": ((0.0, 10.0), (0.5, -1.0))}),
    (sim.Scenario, "dt", {"dt": 0.0}),
    (sim.Scenario, "duration", {"duration": -3.0}),
    (sim.Scenario, "sample_rate", {"sample_rate": 0.0}),
    (sim.Scenario, "seed", {"seed": -1}),
    # the run's rules: dt divides the sample and control periods, the run fits its budgets
    (sim.Scenario, "duration", {"duration": 1e-4}),
    (sim.Scenario, "sample_rate", {"sample_rate": 4000.0}),
    (sim.Scenario, "sample_rate", {"sample_rate": 1700.0}),
    (sim.Scenario, "controller.control_rate",
     {"controller": control.ControllerConfig(control_rate=700.0)}),
    (sim.Scenario, "duration", {"duration": 1e5}),  # 2e8 sample rows
    # open loop and two sample rows, so only the step count is beyond its limit
    (sim.Scenario, "duration", {"duration": 2.0**31 + 1.0, "dt": 1.0, "sample_rate": 2.0**-31,
                                "open_loop_command": control.IDLE_COMMAND}),
    (sim.Scenario, "dt", {"dt": 2e-3, "sample_rate": 500.0}),  # above 1/(2*control_rate)
    (sizing.DesignRequirements, "v_cv", {"v_cv": 0.0}),
    (sizing.DesignRequirements, "dp_cv", {"dp_cv": -20.7}),
    (sizing.DesignRequirements, "pdot_d", {"pdot_d": 0.0}),
    (sizing.DesignRequirements, "amplitude", {"amplitude": 0.0}),
    (sizing.DesignRequirements, "freq_hz", {"freq_hz": -0.55}),
    (sizing.DesignRequirements, "min_cycles", {"min_cycles": -1.0}),
    # neither a rate nor a full amplitude/frequency pair
    (sizing.DesignRequirements, "pdot_d", {"pdot_d": None, "amplitude": 10.0}),
    # half the swing, the reference amplitude, underflows to 0
    (sizing.DesignRequirements, "dp_cv", {"dp_cv": 5e-324}),
    (sizing.ValveOption, "r_vmin", {"r_vmin": 0.0}),
    (sizing.ValveOption, "mass_g", {"mass_g": -77.0}),
    (sizing.ValveOption, "p_inlet_max", {"p_inlet_max": 0.0}),
    (sizing.ReservoirOption, "v_r", {"v_r": 0.0}),
    (sizing.ReservoirOption, "mass_g", {"mass_g": 0.0}),
    (sizing.ReservoirOption, "p_max", {"p_max": -1.0}),
    (sizing.VenturiOption, "p_vac_floor", {"p_vac_floor": 5.0}),
    (sizing.VenturiOption, "q_motive_rated", {"q_motive_rated": 0.0}),
    (sizing.VenturiOption, "mass_g", {"mass_g": 0.0}),
    (sizing.ComponentCatalog, "valves", {"valves": ()}),
    (sizing.ComponentCatalog, "reservoirs", {"reservoirs": ()}),
]


@pytest.mark.parametrize("record", VALID, ids=lambda record: record.__name__)
def test_valid_instance_builds(record):
    record(**VALID[record])


def _case_id(record, keyword, kwargs) -> str:
    """The record, the keyword named and the bad values, so a case keeps its id when rows go."""
    return f"{record.__name__}-{keyword}-" + ",".join(f"{k}={v!r}" for k, v in kwargs.items())


@pytest.mark.parametrize(
    "record, keyword, kwargs", OUT_OF_RANGE, ids=[_case_id(*case) for case in OUT_OF_RANGE]
)
def test_out_of_range_field_names_its_keyword(record, keyword, kwargs):
    with pytest.raises(ValueError) as err:
        record(**{**VALID[record], **kwargs})
    assert re.search(rf"\b{keyword}\b", str(err.value)), str(err.value)


def test_table_covers_every_declared_bound():
    covered = {(record, keyword) for record, keyword, _ in OUT_OF_RANGE}
    declared = {(record, keyword) for record in VALID for keyword in record.KINDS}
    assert declared <= covered, declared - covered


def test_case_ids_are_unique():
    ids = [_case_id(*case) for case in OUT_OF_RANGE]
    assert len(set(ids)) == len(ids)


SCN = sim.Scenario(**VALID[sim.Scenario])


def test_replace_runs_the_checks():
    with pytest.raises(gm.FieldError, match=r"^Scenario\.dt: must be > 0$"):
        gm.replace(SCN, dt=0.0)
    assert gm.replace(SCN, dt=2.5e-4) == sim.Scenario(**VALID[sim.Scenario], dt=2.5e-4)
    assert gm.replace(SCN) == SCN


@pytest.mark.parametrize("record", VALID, ids=lambda record: record.__name__)
def test_fields_are_frozen(record):
    rec = record(**VALID[record])
    for name in record.FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0


def test_equal_records_compare_and_hash_equal():
    a, b = cp.Reservoir(2.0, 689.0), cp.Reservoir(p_r0=689.0)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != cp.Reservoir(2.0, 600.0)
    assert SCN == sim.Scenario(NET, sim.StepCommand(69.0)) and hash(SCN) == hash(gm.replace(SCN))
    # same field values, different types
    assert cp.ControlVolume(2.0, 10.0) != cp.Reservoir(2.0, 10.0)
    assert cp.BinaryValveSpec(100.0) != cp.ProportionalValveSpec(100.0)
    assert repr(a) == "Reservoir(v_r=2.0, p_r0=689.0)"


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing required keyword 'target_kpa'"):
        sim.StepCommand()
    with pytest.raises(TypeError, match="'start'"):
        sim.StepCommand(69.0, start=1.0)
    with pytest.raises(TypeError, match="at most once"):
        sim.StepCommand(69.0, target_kpa=70.0)
    with pytest.raises(TypeError, match="at most once"):
        sim.StepCommand(69.0, 0.0, 1.0)
    with pytest.raises(TypeError, match="'dt_s'"):
        gm.replace(SCN, dt_s=1e-3)


def test_no_pneusim_class_is_a_dataclass():
    # records are built by gasmodel.record alone; dataclasses' code generation costs import time
    code = (
        "import sys, pneusim.cli, pneusim.analysis\n"
        "print([f'{m}.{c.__name__}' for m, mod in list(sys.modules.items()) if m.startswith('pneusim')"
        " for c in vars(mod).values() if isinstance(c, type) and hasattr(c, '__dataclass_fields__')])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
