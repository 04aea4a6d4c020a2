"""Scenario builders of the tests: the default hardware class at a few chosen values.

The shipped scenario files are the statement of the paper's test conditions;
``tests/test_scripts.py`` checks that each file resolves to the builder call
its condition names.
"""

from pneusim.components import ControlVolume, Reservoir, default_network
from pneusim.control import ActuatorCommand, ControllerConfig
from pneusim.gasmodel import replace
from pneusim.sim import Scenario, StepCommand


def step_scenario(
    target_kpa: float,
    v_cv: float = ControlVolume.v_cv,
    p_r0: float = Reservoir.p_r0,
    v_r: float = Reservoir.v_r,
    duration: float = Scenario.duration,
    hold_reservoir: bool = False,
    **controller_overrides,
) -> Scenario:
    """Closed-loop step scenario on the default hardware class."""
    net = default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv)
    return Scenario(
        network=net,
        command=StepCommand(target_kpa=target_kpa),
        controller=ControllerConfig(**controller_overrides),
        duration=duration,
        hold_reservoir=hold_reservoir,
    )


def discharge_scenario(
    r_v: float,
    v_r: float = Reservoir.v_r,
    p_r0: float = Reservoir.p_r0,
    duration: float = 90.0,
    dt: float = 2e-3,
) -> Scenario:
    """Open-loop reservoir blowdown through the motive path at resistance r_v."""
    net = default_network(v_r=v_r, p_r0=p_r0)
    net = replace(net, motive_valve=replace(net.motive_valve, r_vmin=r_v))
    # sample near 500 Hz but on an exact multiple of the integration step
    stride = max(1, round(1.0 / (500.0 * dt)))
    return Scenario(
        network=net,
        command=StepCommand(target_kpa=0.0),
        dt=dt,
        duration=duration,
        sample_rate=1.0 / (stride * dt),
        open_loop_command=ActuatorCommand(0.0, 1.0, False),
    )
