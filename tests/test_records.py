"""The config records check their own fields when built from Python.

The table below is written by hand from the documented bounds, not from the
records' declarations, so a bound dropped from a declaration fails here.
"""

import math
import re

import pytest

from pneusim import components as cp
from pneusim import control, gasmodel as gm, sim, sizing

NET = cp.default_network()
CONTROLLER = sim.controller_for_network(NET)

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
    control.ControllerConfig: {"passive_vent_coeff": 2.0},
    sim.StepCommand: {"target_kpa": 69.0},
    sim.SineCommand: {"amplitude_kpa": 21.0, "freq_hz": 1.35, "offset_kpa": 21.0},
    sim.PiecewiseCommand: {"knots": ((0.0, 10.0), (0.5, 40.0))},
    sim.Scenario: {"network": NET, "controller": CONTROLLER, "command": sim.StepCommand(69.0)},
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
    (control.ControllerConfig, "passive_vent_coeff", {"passive_vent_coeff": -1.0}),
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


@pytest.mark.parametrize(
    "record, keyword, kwargs", OUT_OF_RANGE, ids=lambda x: x.__name__ if isinstance(x, type) else None
)
def test_out_of_range_field_names_its_keyword(record, keyword, kwargs):
    with pytest.raises(ValueError) as err:
        record(**{**VALID[record], **kwargs})
    assert re.search(rf"\b{keyword}\b", str(err.value)), str(err.value)


def test_table_covers_every_declared_bound():
    covered = {(record, keyword) for record, keyword, _ in OUT_OF_RANGE}
    declared = {(record, keyword) for record in VALID for keyword in record.KINDS}
    assert declared <= covered, declared - covered
