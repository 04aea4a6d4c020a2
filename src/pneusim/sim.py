"""Deterministic fixed-step simulation of the reservoir/valve/volume network.

State is the pair of gauge pressures (reservoir, control volume). Flows follow
the exact pressure differences across each path; a classical 4th-order
fixed-step integrator advances the state, and the controller runs on its own
slower clock with zero-order-held commands in between. Identical scenarios
(including seeds) reproduce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .components import (
    PneumaticNetwork,
    default_network,
    deflation_flow,
    proportional_valve_flow,
    sensor_read,  # noqa: F401 -- perfbench/tracer.py patches it here by name
    sensor_reader,
    valve_fraction,
    venturi_vacuum_pressure,
)
from .control import (
    ActuatorCommand,
    ControllerConfig,
    IDLE_COMMAND,
    Mode,
    control_kernel,
    control_step,  # noqa: F401 -- perfbench/tracer.py patches it here by name
)
from .gasmodel import DEFAULT_GAS, GasConstants, PERFECT_VACUUM_KPA, alpha


# Sample rows one run may hold: 11 columns, 81 bytes a row, about 1.3 GiB at most.
MAX_ROWS = 2**24
# Integration steps one run may take: over an hour and a half of compute at a few us a step.
MAX_STEPS = 2**31


class SimulationDivergence(RuntimeError):
    """Non-finite state or a pressure below perfect vacuum during integration."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g} s")
        self.t = t


@dataclass(frozen=True)
class StepCommand:
    """Command 0 before start_s, then target_kpa (gauge)."""

    target_kpa: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.target_kpa < 0.0:
            raise ValueError("StepCommand.target_kpa must be non-negative")
        if self.start_s < 0.0:
            raise ValueError("StepCommand.start_s must be non-negative")

    def value(self, t: float) -> float:
        return self.target_kpa if t >= self.start_s else 0.0

    def rate(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SineCommand:
    """offset + amplitude*sin(2*pi*f*t); offset >= amplitude keeps it non-negative."""

    amplitude_kpa: float
    freq_hz: float
    offset_kpa: float

    def __post_init__(self) -> None:
        if self.amplitude_kpa < 0.0:
            raise ValueError("SineCommand.amplitude_kpa must be non-negative")
        if not self.freq_hz > 0.0:
            raise ValueError("SineCommand.freq_hz must be strictly positive")
        if self.offset_kpa < self.amplitude_kpa:
            raise ValueError("SineCommand.offset_kpa must be >= amplitude (commands stay >= 0)")

    def value(self, t: float) -> float:
        return self.offset_kpa + self.amplitude_kpa * math.sin(2.0 * math.pi * self.freq_hz * t)

    def rate(self, t: float) -> float:
        w = 2.0 * math.pi * self.freq_hz
        return self.amplitude_kpa * w * math.cos(w * t)


@dataclass(frozen=True)
class PiecewiseCommand:
    """Hold-interpolated (time, value) knots; first knot at t=0."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("PiecewiseCommand needs at least one knot")
        if self.knots[0][0] != 0.0:
            raise ValueError("PiecewiseCommand first knot must be at t=0")
        times = [k[0] for k in self.knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PiecewiseCommand knot times must be strictly increasing")
        if any(v < 0.0 for _, v in self.knots):
            raise ValueError("PiecewiseCommand values must be non-negative")

    def value(self, t: float) -> float:
        out = self.knots[0][1]
        for knot_t, knot_v in self.knots:
            if knot_t <= t:
                out = knot_v
            else:
                break
        return out

    def rate(self, t: float) -> float:
        return 0.0


CommandSignal = StepCommand | SineCommand | PiecewiseCommand


def controller_for_network(
    network: PneumaticNetwork, gc: GasConstants = DEFAULT_GAS, **overrides
) -> ControllerConfig:
    """ControllerConfig whose venting-capability estimate matches the network."""
    coeff = alpha(gc) / (network.solenoid.r_open * network.control_volume.v_cv)
    return ControllerConfig(passive_vent_coeff=coeff, **overrides)


@dataclass(frozen=True)
class Scenario:
    """Everything that determines one run; identical scenarios give identical output."""

    network: PneumaticNetwork
    controller: ControllerConfig
    command: CommandSignal
    dt: float = 5e-4
    duration: float = 3.0
    sample_rate: float = 2000.0
    seed: int = 0
    hold_reservoir: bool = False  # fixed-pressure source rig
    open_loop_command: ActuatorCommand | None = None  # set -> controller disabled
    gas: GasConstants = DEFAULT_GAS

    @property
    def closed_loop(self) -> bool:
        return self.open_loop_command is None

    def control_stride(self) -> int:
        return _exact_stride(
            self.controller.control_rate, self.dt, "scenario.controller.control_rate_Hz"
        )

    def sample_stride(self) -> int:
        return _exact_stride(self.sample_rate, self.dt, "scenario.run.sample_rate_Hz")

    def n_steps(self) -> int:
        return max(1, round(self.duration / self.dt))

    def n_rows(self) -> int:
        return self.n_steps() // self.sample_stride() + 1

    def validate(self) -> None:
        """Raise ValueError naming the scenario JSON field at fault."""
        if not self.dt > 0.0:
            raise ValueError("scenario.run.dt_s: must be > 0")
        if not self.duration > 0.0:
            raise ValueError("scenario.run.duration_s: must be > 0")
        if not self.sample_rate > 0.0:
            raise ValueError("scenario.run.sample_rate_Hz: must be > 0")
        if self.sample_rate > 1.0 / self.dt * (1 + 1e-9):
            raise ValueError("scenario.run.sample_rate_Hz: cannot exceed 1/dt_s")
        if self.seed < 0:
            raise ValueError("scenario.run.seed: must be >= 0")
        self.sample_stride()
        if not math.isfinite(self.duration / self.dt) or self.n_rows() > MAX_ROWS:
            raise ValueError(
                f"scenario.run.duration_s: the run would hold more than {MAX_ROWS} sample rows "
                "(duration_s * sample_rate_Hz)"
            )
        if self.n_steps() > MAX_STEPS:
            raise ValueError(
                f"scenario.run.duration_s: the run would take more than {MAX_STEPS} steps "
                "(duration_s / dt_s)"
            )
        if self.closed_loop:
            if self.dt > 0.5 / self.controller.control_rate * (1 + 1e-9):
                raise ValueError(
                    "scenario.run.dt_s: must be <= 1/(2*control_rate_Hz) in closed loop"
                )
            self.control_stride()


def _exact_stride(rate: float, dt: float, where: str) -> int:
    """Steps per period of ``rate``; ``where`` names the rate's field in errors."""
    period = rate * dt
    ratio = 1.0 / period if period > 0.0 else math.inf  # the product may underflow
    stride = round(ratio) if ratio < math.inf else 0
    if stride < 1 or abs(ratio - stride) > 1e-6:
        key = where.rsplit(".", 1)[1]
        raise ValueError(f"{where}: 1/({key}*dt_s) must be a positive integer, got {ratio}")
    return stride


@dataclass
class TimeSeries:
    """Uniformly sampled run output (gauge kPa, std L/s)."""

    t: np.ndarray
    p_cmd: np.ndarray
    p_cv: np.ndarray
    p_r: np.ndarray
    u_inflate: np.ndarray
    u_motive: np.ndarray
    solenoid: np.ndarray
    q_in: np.ndarray
    q_out: np.ndarray
    q_motive: np.ndarray
    mode: np.ndarray  # Mode codes

    _COLUMNS = (
        "t", "p_cmd", "p_cv", "p_r", "u_inflate", "u_motive",
        "solenoid", "q_in", "q_out", "q_motive", "mode",
    )

    def __len__(self) -> int:
        return len(self.t)

    def validate(self) -> None:
        n = len(self.t)
        for name in self._COLUMNS:
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(f"TimeSeries column {name} has length {len(col)} != {n}")
            if name != "mode" and not np.all(np.isfinite(col)):
                raise ValueError(f"TimeSeries column {name} contains non-finite values")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("TimeSeries.t must be strictly increasing")


def network_flows(
    p_r: float, p_cv: float, cmd: ActuatorCommand, net: PneumaticNetwork
) -> tuple[float, float, float]:
    """Instantaneous (q_in, q_out, q_motive) in std L/s for one command.

    The motive path exhausts to atmosphere and does not reverse; the vacuum
    node it drives sits at atmosphere when the motive flow is zero.
    """
    q_in = proportional_valve_flow(cmd.u_inflate, p_r - p_cv, net.inflation_valve)
    q_motive = max(0.0, proportional_valve_flow(cmd.u_motive, p_r, net.motive_valve))
    p_node = venturi_vacuum_pressure(q_motive, net.venturi)
    q_out = deflation_flow(p_cv, p_node, cmd.solenoid_open, net.solenoid)
    return q_in, q_out, q_motive


def derivatives(
    p_r: float,
    p_cv: float,
    cmd: ActuatorCommand,
    net: PneumaticNetwork,
    gc: GasConstants = DEFAULT_GAS,
    hold_reservoir: bool = False,
) -> dict:
    """Pressure rates and flows for the coupled two-volume network.

    The reference that ``flow_kernel`` reproduces bit for bit.
    """
    a = alpha(gc)
    q_in, q_out, q_motive = network_flows(p_r, p_cv, cmd, net)
    dp_r = 0.0 if hold_reservoir else -(q_in + q_motive) * (a / net.reservoir.v_r)
    dp_cv = (q_in - q_out) * (a / net.control_volume.v_cv)
    return {"dp_r": dp_r, "dp_cv": dp_cv, "q_in": q_in, "q_out": q_out, "q_motive": q_motive}


def flow_kernel(net: PneumaticNetwork, gas: GasConstants = DEFAULT_GAS, hold: bool = False):
    """``derivatives`` fused into one scalar function of a network, built once per run.

    Returns ``rates(p_r, p_cv, f_in, f_mot, sol) -> (dp_r, dp_cv, q_in, q_out,
    q_motive)``. ``f_in`` and ``f_mot`` are the valves' ``valve_fraction`` under
    the held command (0.0 when closed) and ``sol`` is whether the solenoid is
    open, so the command's range check runs once per control tick, not once
    per call. Each law keeps the floating-point order of its ``components``
    helper, and ``max``/``min`` are spelled as the comparisons they make, so
    the results equal ``derivatives`` bit for bit.
    """
    a = alpha(gas)
    inv_vr = a / net.reservoir.v_r
    inv_vcv = a / net.control_volume.v_cv
    r_in = net.inflation_valve.r_vmin
    r_mot = net.motive_valve.r_vmin
    r_open = net.solenoid.r_open
    floor = net.venturi.p_vac_floor
    q_rated = net.venturi.q_motive_rated

    def rates(p_r: float, p_cv: float, f_in: float, f_mot: float, sol: bool) -> tuple:
        q_in = (f_in * (p_r - p_cv)) / r_in if f_in else 0.0
        q_motive = (f_mot * p_r) / r_mot if f_mot else 0.0
        if not q_motive > 0.0:
            q_motive = 0.0
        if sol:
            x = q_motive / q_rated
            q_out = (p_cv - floor * (x if x < 1.0 else 1.0)) / r_open
            if not q_out > 0.0:
                q_out = 0.0
        else:
            q_out = 0.0
        dp_r = 0.0 if hold else -(q_in + q_motive) * inv_vr
        return dp_r, (q_in - q_out) * inv_vcv, q_in, q_out, q_motive

    return rates


def simulate(scn: Scenario) -> TimeSeries:
    """Integrate a scenario and return its uniformly sampled trace."""
    scn.validate()
    net = scn.network
    evp, dvp = net.inflation_valve, net.motive_valve
    rates = flow_kernel(net, scn.gas, scn.hold_reservoir)

    def rk4(p_r: float, p_cv: float, h: float, f_in: float, f_mot: float, sol: bool) -> tuple:
        """New (p_r, p_cv) after one step, and the flows of its first stage."""
        k1r, k1c, q_in, q_out, q_motive = rates(p_r, p_cv, f_in, f_mot, sol)
        half = 0.5 * h
        k2r, k2c, _, _, _ = rates(p_r + half * k1r, p_cv + half * k1c, f_in, f_mot, sol)
        k3r, k3c, _, _, _ = rates(p_r + half * k2r, p_cv + half * k2c, f_in, f_mot, sol)
        k4r, k4c, _, _, _ = rates(p_r + h * k3r, p_cv + h * k3c, f_in, f_mot, sol)
        sixth = h / 6.0
        return (
            p_r + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            p_cv + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
            q_in,
            q_out,
            q_motive,
        )

    n = scn.n_steps()
    ss = scn.sample_stride()
    closed = scn.closed_loop
    cs = scn.control_stride() if closed else 0

    n_rows = scn.n_rows()
    columns = {name: np.empty(n_rows) for name in TimeSeries._COLUMNS}
    columns["mode"] = np.empty(n_rows, dtype=np.uint8)
    (t_col, p_cmd_col, p_cv_col, p_r_col, u_in_col, u_mot_col, sol_col,
     q_in_col, q_out_col, q_mot_col, mode_col) = (
        memoryview(columns[name]) for name in TimeSeries._COLUMNS
    )

    read_cv = sensor_reader(net.cv_sensor, np.random.default_rng([scn.seed, net.cv_sensor.seed]))
    control = control_kernel(scn.controller)
    cmd = scn.open_loop_command if scn.open_loop_command is not None else IDLE_COMMAND
    u_in, u_mot, sol, mode = cmd.u_inflate, cmd.u_motive, cmd.solenoid_open, Mode.IDLE
    f_in, f_mot = valve_fraction(u_in, evp), valve_fraction(u_mot, dvp)
    p_r = net.reservoir.p_r0
    p_cv = net.control_volume.p_cv
    cmd_value = scn.command.value
    cmd_rate = scn.command.rate
    dt = scn.dt
    tick = -1  # step of the last control tick, whose p_cmd a sample row may reuse
    p_cmd = 0.0
    row = 0

    for k in range(n + 1):
        t = k * dt
        if closed and k % cs == 0:
            meas = read_cv(p_cv)
            p_cmd = cmd_value(t)
            u_in, u_mot, sol, mode = control(p_cmd, meas, cmd_rate(t))
            f_in, f_mot = valve_fraction(u_in, evp), valve_fraction(u_mot, dvp)
            tick = k
        if k < n:
            new_r, new_cv, q_in, q_out, q_motive = rk4(p_r, p_cv, dt, f_in, f_mot, sol)
        else:
            _, _, q_in, q_out, q_motive = rates(p_r, p_cv, f_in, f_mot, sol)
        if k % ss == 0:
            t_col[row] = t
            p_cmd_col[row] = p_cmd if tick == k else cmd_value(t)
            p_cv_col[row] = p_cv
            p_r_col[row] = p_r
            u_in_col[row] = u_in
            u_mot_col[row] = u_mot
            sol_col[row] = 1.0 if sol else 0.0
            q_in_col[row] = q_in
            q_out_col[row] = q_out
            q_mot_col[row] = q_motive
            mode_col[row] = mode
            row += 1
        if k == n:
            break
        if not (math.isfinite(new_r) and math.isfinite(new_cv)):
            raise SimulationDivergence("non-finite state", t)
        if min(new_r, new_cv) < PERFECT_VACUUM_KPA:
            # reject the step and retry at dt/10 before declaring divergence
            sub_r, sub_cv = p_r, p_cv
            for _ in range(10):
                sub_r, sub_cv, _, _, _ = rk4(sub_r, sub_cv, dt / 10.0, f_in, f_mot, sol)
            if not (math.isfinite(sub_r) and math.isfinite(sub_cv)):
                raise SimulationDivergence("non-finite state", t)
            if min(sub_r, sub_cv) < PERFECT_VACUUM_KPA:
                raise SimulationDivergence("gauge pressure below perfect vacuum", t)
            new_r, new_cv = sub_r, sub_cv
        p_r, p_cv = new_r, new_cv

    ts = TimeSeries(**columns)
    ts.validate()
    return ts


def mass_balance(ts: TimeSeries, scn: Scenario) -> float:
    """Relative standard-volume imbalance of a trace produced by ``simulate``.

    Reservoir loss must equal control-volume gain plus everything vented
    (exhaust and motive air). Flow integrals are rebuilt per sample interval
    from the sampled states under the interval's held command, so command
    switches at sample nodes do not smear across intervals; the residual then
    measures pure integration error. With the reservoir held, the loss is the
    standard volume drawn from the fixed-pressure source.
    """
    net = scn.network
    a = alpha(scn.gas)
    n = len(ts)
    if n < 2:
        raise ValueError("mass_balance needs at least two samples")

    # right-end flows: the next sampled state under this interval's command
    rates = flow_kernel(net, scn.gas, scn.hold_reservoir)
    evp, dvp = net.inflation_valve, net.motive_valve
    right = np.array(
        [
            rates(p_r, p_cv, valve_fraction(u_in, evp), valve_fraction(u_mot, dvp), bool(sol))[2:]
            for p_r, p_cv, u_in, u_mot, sol in zip(
                ts.p_r[1:].tolist(),
                ts.p_cv[1:].tolist(),
                ts.u_inflate[:-1].tolist(),
                ts.u_motive[:-1].tolist(),
                ts.solenoid[:-1].tolist(),
            )
        ]
    )
    right_q_in, right_q_out, right_q_mot = right.T

    h = np.diff(ts.t)
    int_in = float(np.sum(h * (ts.q_in[:-1] + right_q_in)) / 2.0)
    int_out = float(np.sum(h * (ts.q_out[:-1] + right_q_out)) / 2.0)
    int_mot = float(np.sum(h * (ts.q_motive[:-1] + right_q_mot)) / 2.0)

    gain = net.control_volume.v_cv * (ts.p_cv[-1] - ts.p_cv[0]) / a
    if scn.hold_reservoir:
        loss = int_in + int_mot
    else:
        loss = net.reservoir.v_r * (ts.p_r[0] - ts.p_r[-1]) / a
    vented = int_out + int_mot
    return abs(loss - gain - vented) / max(loss, 1e-12)


def step_scenario(
    target_kpa: float,
    v_cv: float = 0.5,
    p_r0: float = 689.0,
    v_r: float = 2.0,
    duration: float = 3.0,
    hold_reservoir: bool = False,
    **controller_overrides,
) -> Scenario:
    """Closed-loop step scenario on the default hardware class."""
    net = default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv)
    return Scenario(
        network=net,
        controller=controller_for_network(net, **controller_overrides),
        command=StepCommand(target_kpa=target_kpa),
        duration=duration,
        hold_reservoir=hold_reservoir,
    )


def discharge_scenario(
    r_v: float,
    v_r: float = 2.0,
    p_r0: float = 689.0,
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
        controller=controller_for_network(net),
        command=StepCommand(target_kpa=0.0),
        dt=dt,
        duration=duration,
        sample_rate=1.0 / (stride * dt),
        open_loop_command=ActuatorCommand(0.0, 1.0, False),
    )
