"""Deterministic simulation of the reservoir/valve/volume network.

State is the pair of gauge pressures (reservoir, control volume). Flows follow
the exact pressure differences across each path, so while a command is held
the network is affine in the state between its kinks, and each span between
events (a control tick, a sample row, the end of the run) is advanced by the
exact solution of that affine system. Every flow law is a clamp, so the
vector field is continuous across each kink: a span whose exact solution
would leave its region is followed to the first crossing, found by bisection
on the same map, and goes on in the next region. The controller runs on its
own slower clock with zero-order-held commands in between. Identical
scenarios (including seeds) reproduce bit-identical output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

# perfbench/tracer.py patches control_step and the names marked noqa here by name; the
# flow helpers are not called in this module: propagator states their laws, and the tests
# check its pieces against them
from .components import (
    PneumaticNetwork,
    deflation_flow,  # noqa: F401
    proportional_valve_flow,  # noqa: F401
    sensor_read,  # noqa: F401
    valve_fraction,
    venturi_vacuum_pressure,  # noqa: F401
)
from .control import (
    ActuatorCommand,
    ControllerConfig,
    ControllerState,
    Mode,
    control_step,
    passive_vent_coeff,
)
from .gasmodel import DEFAULT_GAS, GasConstants, PERFECT_VACUUM_KPA, alpha
from .gasmodel import FieldError, SimulationDivergence, check, record

# numpy is imported inside the functions that use it, so a scenario load, which builds
# this module's records, stays numpy-free (see also cli.cmd_sweep on import order)
if TYPE_CHECKING:
    import numpy as np


# Sample rows one run may hold: 11 columns, 81 bytes a row, about 1.3 GiB at most.
MAX_ROWS = 2**24
# Integration steps one run may take: over an hour and a half of compute at a few us a step.
MAX_STEPS = 2**31


@record(target_kpa=("level", "target_kPa"), start_s=("nonneg", "start_s"))
class StepCommand:
    """Command 0 before start_s, then target_kpa (gauge)."""

    target_kpa: float
    start_s: float = 0.0

    def value(self, t: float) -> float:
        return self.target_kpa if t >= self.start_s else 0.0

    def peak(self) -> tuple[tuple[str, ...], float]:
        """The fields whose sum is the command's highest level, and that level."""
        return ("target_kpa",), self.target_kpa

    def values(self, t: np.ndarray) -> np.ndarray:
        """``value`` at each time of an array."""
        import numpy as np

        return np.where(t >= self.start_s, self.target_kpa, 0.0)

    def rate(self, t: float) -> float:
        return 0.0

    def rates(self, t: np.ndarray) -> np.ndarray:
        """``rate`` at each time of an array."""
        import numpy as np

        return np.zeros(len(t))


@record(amplitude_kpa=("nonneg", "amplitude_kPa"), freq_hz=("pos", "frequency_Hz"),
        offset_kpa=(None, "offset_kPa"))
class SineCommand:
    """offset + amplitude*sin(2*pi*f*t); offset >= amplitude keeps it non-negative."""

    amplitude_kpa: float
    freq_hz: float
    offset_kpa: float

    def rule(self) -> None:
        if self.offset_kpa < self.amplitude_kpa:
            raise FieldError(self, "offset_kpa", "must be >= {amplitude_kpa}")
        if not self.offset_kpa + self.amplitude_kpa < math.inf:  # its largest value
            raise FieldError(self, "offset_kpa", "{offset_kpa} + {amplitude_kpa} must be finite")

    def peak(self) -> tuple[tuple[str, ...], float]:
        """The fields whose sum is the command's highest level, and that level."""
        return ("offset_kpa", "amplitude_kpa"), self.offset_kpa + self.amplitude_kpa

    def overflows(self, *times: float) -> bool:
        """Whether 2 pi f t up to the latest of ``times``, or the rate 2 pi f A, overflows."""
        return not 2.0 * math.pi * self.freq_hz * max(1.0, *times, self.amplitude_kpa) < math.inf

    def value(self, t: float) -> float:
        return self.offset_kpa + self.amplitude_kpa * math.sin(2.0 * math.pi * self.freq_hz * t)

    def values(self, t: np.ndarray) -> np.ndarray:
        """``value`` at each time of an array, as the closed loop reads the command.

        Equal to ``value`` to the bit wherever numpy's sine equals ``math.sin``,
        as it does with numpy 2.4 on x86-64; the tests check every time the
        shipped sweep reads.
        """
        import numpy as np

        return self.offset_kpa + self.amplitude_kpa * np.sin(2.0 * math.pi * self.freq_hz * t)

    def rate(self, t: float) -> float:
        w = 2.0 * math.pi * self.freq_hz
        return self.amplitude_kpa * w * math.cos(w * t)

    def rates(self, t: np.ndarray) -> np.ndarray:
        """``rate`` at each time of an array, equal to it wherever ``np.cos`` equals ``math.cos``."""
        import numpy as np

        w = 2.0 * math.pi * self.freq_hz
        return self.amplitude_kpa * w * np.cos(w * t)


@record(knots=("nonempty", "knots"))
class PiecewiseCommand:
    """Hold-interpolated (time, value) knots; first knot at t=0."""

    knots: tuple[tuple[float, float], ...]

    def rule(self) -> None:
        knots = tuple((t, value) for t, value in self.knots)  # pairs of any sequence type
        for i, (t, value) in enumerate(knots):
            check(self, f"knots[{i}]", "level", value)
            if i == 0 and t != 0.0:
                raise FieldError(self, "knots[0]", "first knot must be at t=0")
            if i and not t > knots[i - 1][0]:
                raise FieldError(self, f"knots[{i}]", "knot times must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_times", tuple(t for t, _ in knots))

    def peak(self) -> tuple[tuple[str, ...], float]:
        """The fields whose sum is the highest level (its first highest knot), and that level."""
        values = [value for _, value in self.knots]
        i = values.index(max(values))
        return (f"knots[{i}]",), values[i]

    def value(self, t: float) -> float:
        """The value of the last knot at or before t; the first knot's before t=0 (and at NaN)."""
        if not t >= 0.0:
            return self.knots[0][1]
        return self.knots[bisect_right(self._times, t) - 1][1]

    def values(self, t: np.ndarray) -> np.ndarray:
        """``value`` at each time of an array: each later knot overwrites from its time on."""
        import numpy as np

        out = np.full(len(t), self.knots[0][1], dtype=float)
        for time, value in self.knots[1:]:
            out[t >= time] = value
        return out

    def rate(self, t: float) -> float:
        return 0.0

    def rates(self, t: np.ndarray) -> np.ndarray:
        """``rate`` at each time of an array."""
        import numpy as np

        return np.zeros(len(t))


# A run reads a command by array (values, rates); the scalar value and rate are the reference
# the tests hold the arrays to, and perfbench/tracer.py patches them
CommandSignal = StepCommand | SineCommand | PiecewiseCommand


@record(dt=("pos", "dt_s"), duration=("pos", "duration_s"), sample_rate=("pos", "sample_rate_Hz"),
        seed=("int", "seed"), hold_reservoir=(None, "hold_reservoir"))
class Scenario:
    """Everything that determines one run; identical scenarios give identical output."""

    network: PneumaticNetwork
    command: CommandSignal
    controller: ControllerConfig = ControllerConfig()
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
        return _exact_stride(self, "controller.control_rate", self.controller.control_rate)

    def sample_stride(self) -> int:
        return _exact_stride(self, "sample_rate", self.sample_rate)

    def n_steps(self) -> int:
        return round(self.duration / self.dt)  # >= 1: the rule keeps duration >= dt

    def n_rows(self) -> int:
        return self.n_steps() // self.sample_stride() + 1

    def rule(self) -> None:
        """dt divides the sample and control periods, the run fits its row and step budgets,
        its times, its sine's phase and rate and its network's rates stay finite, and a closed
        loop's command stays within the range of the sensor it reads."""
        if self.duration < self.dt:
            raise FieldError(self, "duration", "must be >= {dt}")
        if self.sample_rate > 1.0 / self.dt * (1 + 1e-9):
            raise FieldError(self, "sample_rate", "cannot exceed 1/{dt}")
        self.sample_stride()
        finite = math.isfinite(self.duration / self.dt)  # else n_steps() cannot round it
        if (self.n_rows() if finite else self.duration * self.sample_rate) > MAX_ROWS:
            raise FieldError(self, "duration", f"the run would hold more than {MAX_ROWS} sample "
                             "rows ({duration} * {sample_rate})")
        if not finite or self.n_steps() > MAX_STEPS:
            raise FieldError(self, "duration", f"the run would take more than {MAX_STEPS} steps "
                             "({duration} / {dt})")
        end = self.n_steps() * self.dt  # the last step's time, up to dt/2 past duration
        if end == math.inf:
            raise FieldError(self, "duration", "too large: the last step's time, "
                             "round({duration} / {dt}) * {dt}, overflows")
        if isinstance(self.command, SineCommand) and self.command.overflows(self.duration, end):
            raise FieldError(self, "command.freq_hz", "too large: 2 pi {command.freq_hz} times "
                             "{duration} or {command.amplitude_kpa} overflows")
        p0 = self.network.reservoir.p_r0, self.network.control_volume.p_cv
        if rates_overflow(self.network, self.gas, self.hold_reservoir, *p0):
            raise FieldError(self, "network", "too extreme: a rate constant ({gas} alpha / V "
                             "times a conductance 1 / R), squared, times a pressure overflows")
        if self.closed_loop:
            if self.dt > 0.5 / self.controller.control_rate * (1 + 1e-9):
                raise FieldError(
                    self, "dt", "must be <= 1/(2*{controller.control_rate}) in closed loop"
                )
            self.control_stride()
            fields, peak = self.command.peak()
            range_max = self.network.cv_sensor.range_max
            if peak > range_max:  # the sensor saturates below it: no leaving on/off inflation
                where = " + ".join(f"{{command.{field}}}" for field in fields)
                raise FieldError(self, f"command.{fields[0]}", f"{where} = {peak:g} kPa is "
                                 "above the CV sensor range ({network.cv_sensor.range_max} = "
                                 f"{range_max:g})")


def _exact_stride(scn: Scenario, field: str, rate: float) -> int:
    """Steps per period of ``rate``, the scenario's ``field``; FieldError unless an integer."""
    period = rate * scn.dt
    ratio = 1.0 / period if period > 0.0 else math.inf  # the product may underflow
    stride = round(ratio) if ratio < math.inf else 0
    if stride < 1 or abs(ratio - stride) > 1e-6:
        text = "1/({%s}*{dt}) must be a positive integer, got %s" % (field, ratio)
        raise FieldError(scn, field, text)
    return stride


@record()
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

    def __len__(self) -> int:
        return len(self.t)


# Exact propagation. While a command is held the network is affine in (p_r,
# p_cv) inside each region of its three kinks (the motive clamp, the Venturi
# saturation and the exhaust clamp): dp/dt = A p + b. A span h then has the
# exact solution p + h*phi1(A h)*(A p + b), phi1(z) = (e^z - 1)/z, which needs
# no inverse of A (singular for a held reservoir or shut valves). By
# Cayley-Hamilton every f(Z) of a 2x2 Z = A t is alpha*I + beta*Z, and only
# the two scalars need computing (Moler & Van Loan 2003, "Nineteen dubious
# ways to compute the exponential of a matrix"; Van Loan 1978, "Computing
# integrals involving the matrix exponential", for the integral phi1).

_INV_FACT = tuple(1.0 / math.factorial(k) for k in range(17))
# The Taylor remainder of alpha is below 2**-53 from degree k on while the
# spectral radius of Z is at most _THETA[k]; beta, whose series starts one
# power lower, takes one degree more
_THETA = tuple((math.factorial(k + 1) * 2.0**-53) ** (1.0 / (k + 1)) for k in range(15))
_TAYLOR_MAX = 0.5  # a larger spectral radius goes to the eigenvalue forms
# A kink functional may read this much (relative to its terms) below zero and
# still count as inside: where the exact solution settles on a kink, say a
# vent reaching atmosphere, rounding puts it on either side, and the flows
# are continuous across every kink.
_ROUNDING = 2.0**-50
SEGMENT_ROWS = 2**14  # open-loop rows computed at a time, which bounds the temporaries
COMMAND_BLOCK = 512  # ticks whose command and noise, and rows whose command, are read at a time


def _spectrum(a11: float, a12: float, a21: float, a22: float) -> tuple:
    """(s, delta, det, rho): eigenvalues s +- sqrt(delta), det(A), and rho >= their modulus."""
    s = 0.5 * (a11 + a22)
    d = 0.5 * (a11 - a22)
    delta = d * d + a12 * a21
    return s, delta, a11 * a22 - a12 * a21, abs(s) + math.sqrt(abs(delta))


def _degree(rho_t: float) -> int:
    """The Taylor degree exact to rounding at spectral radius rho_t <= _TAYLOR_MAX."""
    return bisect_left(_THETA, rho_t) + 1


def _taylor(tz, dz, degree: int) -> tuple:
    """Horner's rule for the Taylor polynomials of e^Z and phi1(Z), where Z^2 = tz*Z - dz*I."""
    ea, eb = _INV_FACT[degree], 0.0
    fa, fb = _INV_FACT[degree + 1], 0.0
    for k in range(degree - 1, -1, -1):
        ea, eb = _INV_FACT[k] - eb * dz, ea + eb * tz
        fa, fb = _INV_FACT[k + 1] - fb * dz, fa + fb * tz
    return ea, eb, fa, fb


def _eigen(s: float, delta: float, det: float, t, xp) -> tuple:
    """``exp_phi1`` from the eigenvalues, for an eigenvalue of A t of modulus above 1/3.

    With a the eigenvalue of larger modulus and b the other, beta is the
    divided difference f[a, b] and alpha = f(b) - beta*b. e[a, b] =
    e^b*phi1(a - b), and phi1[a, b] = (e[a, b] - phi1(b))/a divides only by
    the larger eigenvalue. ``xp`` is ``math`` for a float ``t``, numpy for an
    array.
    """
    if delta >= 0.0:
        mu = math.sqrt(delta)
        lam = s - mu if s <= 0.0 else s + mu
        lam_b = det / lam  # the other eigenvalue, from the product
        a, b = lam * t, lam_b * t
        gap = math.copysign(2.0 * mu, lam) * t  # a - b
        phi_gap = xp.expm1(gap) / gap if mu else 1.0
        # a subnormal lam_b*t may round to 0, and phi1 of it is 1 to rounding
        phi_b = xp.expm1(b) / b if abs(lam_b) >= 2.0**-1022 else 1.0
        exp_b = xp.exp(b)
        eb = exp_b * phi_gap
        fb = (eb - phi_b) / a
        return exp_b - eb * b, eb, phi_b - fb * b, fb
    # complex pair x +- iy: phi1 of x - iy, with e^z - 1 written without cancellation
    x, y = s * t, math.sqrt(-delta) * t
    m2 = x * x + y * y
    exp_x, cos_y, sin_y = xp.exp(x), xp.cos(y), xp.sin(y)
    eb = exp_x * sin_y / y
    u = xp.expm1(x) * cos_y - 2.0 * xp.sin(0.5 * y) ** 2
    v = exp_x * sin_y
    re = (u * x + v * y) / m2
    fb = ((eb - re) * x - (u * y - v * x) / m2 * y) / m2
    return exp_x * cos_y - eb * x, eb, re - fb * x, fb


def exp_phi1(a11: float, a12: float, a21: float, a22: float, t: float) -> tuple:
    """Closed forms of e^(A t) and of its integral over [0, t], for a real 2x2 A.

    Returns (ea, eb, fa, fb) with e^(A t) = ea*I + eb*A*t and
    int_0^t e^(A u) du = t*phi1(A t) = t*(fa*I + fb*A*t). Real, repeated and
    complex eigenvalues and a singular A take the same two branches: a
    Taylor polynomial while every eigenvalue of A t is within 1/2 of zero,
    else the eigenvalue forms of ``_eigen``.
    """
    s, delta, det, rho = _spectrum(a11, a12, a21, a22)
    if rho * t <= _TAYLOR_MAX:
        return _taylor((a11 + a22) * t, det * t * t, _degree(rho * t))
    return _eigen(s, delta, det, t, math)


def _exp_phi1_grid(a11: float, a12: float, a21: float, a22: float, t: np.ndarray) -> list:
    """``exp_phi1`` at each time of an increasing array, as four arrays."""
    import numpy as np

    s, delta, det, rho = _spectrum(a11, a12, a21, a22)
    split = int(np.searchsorted(t, _TAYLOR_MAX / rho, side="right")) if rho else len(t)
    parts = []
    if split:
        head = t[:split]
        coeffs = _taylor((a11 + a22) * head, det * head * head, _degree(rho * head[-1]))
        parts.append([np.broadcast_to(c, head.shape) for c in coeffs])
    if split < len(t):
        parts.append(_eigen(s, delta, det, t[split:], np))
    return [np.concatenate(cs) for cs in zip(*parts)]


class Piece(NamedTuple):
    """The affine laws of the network in one region, under one held command.

    q_in = c_in*(p_r - p_cv), q_motive = c_mot*p_r, the Venturi node sits at
    n_r*p_r + n_0, and q_out = (p_cv - node)/r_open while ``exhaust`` is set,
    else 0. Then dp/dt = A p + (0, b2), A = ((a11, a12), (a21, a22)). Each
    kink (k_r, k_cv, k_0) bounds the region: k_r*p_r + k_cv*p_cv + k_0 >= 0.
    """

    c_in: float
    c_mot: float
    n_r: float
    n_0: float
    exhaust: bool
    a11: float
    a12: float
    a21: float
    a22: float
    b2: float
    kinks: tuple


def _held_gain(a11: float, a12: float, a21: float, a22: float, b2: float, h: float):
    """Where A is singular with b in its range, A r = trace*r, so the state moves along
    r = A p + b by this gain, (e^(trace*h) - 1)/trace, over h, and every kink functional
    is monotone over the span; else None."""
    if a11 * a22 == a12 * a21 and a11 * b2 == 0.0 and a12 * b2 == 0.0:
        trace = a11 + a22
        return math.expm1(trace * h) / trace if trace * h else h
    return None


def _slack(kink: tuple, p_r: float, p_cv: float, e_r, e_cv):
    """How far below zero rounding may put a kink functional over a span from p to e."""
    k_r, k_cv, k_0 = kink
    return _ROUNDING * (
        abs(k_r) * (abs(p_r) + abs(e_r)) + abs(k_cv) * (abs(p_cv) + abs(e_cv)) + abs(k_0)
    )


Propagator = namedtuple("Propagator", "region inflation flows span cross segment")  # see propagator


def rates_overflow(net: PneumaticNetwork, gas: GasConstants, hold: bool, *pressures) -> bool:
    """Whether ``propagator``'s rates may overflow up to the largest of ``pressures`` (or the
    vacuum's): they are flows times alpha / V, and it forms A (A p + b), so each coefficient
    (a conductance 1 / R, the Venturi node's slope through the solenoid, alpha / V times
    them), squared, times that pressure must stay finite; so must each flow, affine in them."""
    a, r_mot, venturi = alpha(gas), net.motive_valve.r_vmin, net.venturi
    slope = -venturi.p_vac_floor / r_mot / venturi.q_motive_rated
    g = 1.0 / net.inflation_valve.r_vmin + 1.0 / r_mot + (1.0 + slope) / net.solenoid.r_open
    inv_v = max(a / net.control_volume.v_cv, 0.0 if hold else a / net.reservoir.v_r)
    coeff = max(1.0, slope, g, 2.0 * g * inv_v)
    bound = 4.0 * coeff * coeff  # times each pressure, not their max(), which may drop a NaN
    return not all(bound * p < math.inf for p in (-PERFECT_VACUUM_KPA, *pressures))


def propagator(
    net: PneumaticNetwork, gas: GasConstants = DEFAULT_GAS, hold: bool = False
) -> Propagator:
    """The network's laws, one affine piece per region, and their exact solution.

    Built once per run. ``f_in`` and ``f_mot`` are the valves' ``valve_fraction``
    under the held command (0.0 when shut); ``sol`` is whether the solenoid is open.
    ``region(p_r, p_cv, f_in, f_mot, sol)`` is the ``Piece`` that holds the state,
    by the comparisons the ``components`` flow helpers make. Its code is 2*motive
    + exhaust: motive is 0 without motive flow, 2 with the Venturi saturated and a
    solenoid to feel it, else 1; exhaust is 1 while the exhaust flows. The held
    command's pieces are kept by code, so rows and spans read the same piece.
    ``inflation(f_in)`` is ``(c_in, a11, a12, a21, a22)`` of inflation alone (no
    motive flow, solenoid shut): the coefficients of its one piece, code 0, which
    has no kink and b = 0.
    ``flows(pc, p_r, p_cv)`` is ``(q_in, q_out, q_motive)`` at states (floats or
    arrays) in the region of ``pc``, +0.0 on a shut or clamped path.

    ``span(pc, p_r, p_cv, h)`` is the state after h from a state in the region of
    ``pc``, or None. ``segment(pc, p_r, p_cv, t)`` is the exact solution at the
    times t (t[0] == 0) of the leading rows in it: arrays (p_r, p_cv), at least
    one row, then their ``flows``. Both take a state only while it is in the
    region (to within ``_ROUNDING``) and no kink functional's slope has turned
    from falling to rising since the state before; after ``oscillates``, that is
    the one shape that can hide a minimum. The map of the last piece and h is
    kept until one of them changes. ``cross(p_r, p_cv, f_in, f_mot, sol, h, t)``
    is the state after h across kinks under the held command: from the piece
    ``region`` gives the state, it maps to the first length ``span`` rejects,
    found by bisection, just past a kink, then goes on from the region there.
    ``t`` is the time at the start, for the ``SimulationDivergence`` of a
    non-finite state.
    """
    import numpy as np

    a = alpha(gas)
    inv_vr = 0.0 if hold else a / net.reservoir.v_r
    inv_vcv = a / net.control_volume.v_cv
    r_in = net.inflation_valve.r_vmin
    r_mot = net.motive_valve.r_vmin
    r_open = net.solenoid.r_open
    floor = net.venturi.p_vac_floor
    q_rated = net.venturi.q_motive_rated
    pieces = [None] * 6  # by region code, for the command (held_in, held_mot, held_sol)
    held_in = held_mot = held_sol = None
    last = last_h = a11 = a12 = a21 = a22 = b2 = kinks = coeffs = gain = None

    def inflation(f_in: float) -> tuple:
        c_in = f_in / r_in
        return c_in, -c_in * inv_vr, c_in * inv_vr, c_in * inv_vcv, -c_in * inv_vcv

    def piece(code: int, f_in: float, f_mot: float, sol: bool) -> Piece:
        c_in, *alone = inflation(f_in)
        if not (f_mot or sol):  # inflation alone: no kink
            return Piece(c_in, 0.0, 0.0, 0.0, False, *alone, 0.0, ())
        motive, exhaust = divmod(code, 2)
        c_mot = f_mot / r_mot if motive else 0.0
        n_r = floor * c_mot / q_rated if motive == 1 and sol else 0.0
        n_0 = floor if motive == 2 else 0.0
        kinks = []
        if f_mot:
            kinks.append((1.0, 0.0, 0.0) if motive else (-1.0, 0.0, 0.0))  # the motive clamp
            if motive and sol:  # the Venturi saturation
                kinks.append((-c_mot, 0.0, q_rated) if motive == 1 else (c_mot, 0.0, -q_rated))
        if sol:  # the exhaust clamp: p_cv against the node
            kinks.append((-n_r, 1.0, -n_0) if exhaust else (n_r, -1.0, n_0))
        # q_out = o_r*p_r + o_cv*p_cv + o_0
        o_r, o_cv, o_0 = (-n_r / r_open, 1.0 / r_open, -n_0 / r_open) if exhaust else (0.0,) * 3
        return Piece(
            c_in, c_mot, n_r, n_0, bool(exhaust),
            -(c_in + c_mot) * inv_vr, c_in * inv_vr,
            (c_in - o_r) * inv_vcv, -(c_in + o_cv) * inv_vcv, -o_0 * inv_vcv,
            tuple(kinks),
        )

    def region(p_r: float, p_cv: float, f_in: float, f_mot: float, sol: bool) -> Piece:
        nonlocal held_in, held_mot, held_sol, pieces
        if f_in != held_in or f_mot != held_mot or sol != held_sol:
            held_in, held_mot, held_sol = f_in, f_mot, sol
            pieces = [None] * 6
        code = 0
        if f_mot or sol:
            # motive flow by the motive clamp's own kink, p_r > 0: the flow
            # (f_mot * p_r) / r_mot may underflow to 0 where the kink holds
            if not (f_mot and p_r > 0.0):
                code = 1 if sol and p_cv > 0.0 else 0
            elif not sol:
                code = 2
            else:
                x = (f_mot * p_r) / r_mot / q_rated
                if x < 1.0:
                    code = 3 if p_cv - floor * x > 0.0 else 2
                else:
                    code = 5 if p_cv - floor > 0.0 else 4
        pc = pieces[code]
        if pc is None:
            pc = pieces[code] = piece(code, f_in, f_mot, sol)
        return pc

    def flows(pc: Piece, p_r, p_cv) -> tuple:
        q_in = pc.c_in * (p_r - p_cv) if pc.c_in else 0.0
        q_motive = pc.c_mot * p_r if pc.c_mot else 0.0
        q_out = (p_cv - (pc.n_r * p_r + pc.n_0)) / r_open if pc.exhaust else 0.0
        return q_in, q_out, q_motive

    def oscillates(p: Piece, h: float) -> bool:
        """A complex pair turning by pi or more over h: g' may change sign twice."""
        _, delta, _, _ = _spectrum(p.a11, p.a12, p.a21, p.a22)
        return delta < 0.0 and math.sqrt(-delta) * h >= math.pi

    def span(pc: Piece, p_r: float, p_cv: float, h: float):
        nonlocal last, last_h, a11, a12, a21, a22, b2, kinks, coeffs, gain
        if last is not pc or last_h != h:
            last, last_h = pc, h
            a11, a12, a21, a22, b2, kinks = pc.a11, pc.a12, pc.a21, pc.a22, pc.b2, pc.kinks
            gain = _held_gain(a11, a12, a21, a22, b2, h)
            if gain is None:
                coeffs = None if kinks and oscillates(pc, h) else exp_phi1(a11, a12, a21, a22, h)
        r_r = a11 * p_r + a12 * p_cv
        r_cv = a21 * p_r + a22 * p_cv + b2
        if gain is not None:
            e_r = p_r + gain * r_r
            e_cv = p_cv + gain * r_cv
        elif coeffs is None:
            return None
        else:
            ea, eb, fa, fb = coeffs
            ar_r = a11 * r_r + a12 * r_cv
            ar_cv = a21 * r_r + a22 * r_cv
            e_r = p_r + h * (fa * r_r + fb * h * ar_r)
            e_cv = p_cv + h * (fa * r_cv + fb * h * ar_cv)
        if not (PERFECT_VACUUM_KPA <= e_r < math.inf and PERFECT_VACUUM_KPA <= e_cv < math.inf):
            return None
        for kink in kinks:
            k_r, k_cv, k_0 = kink
            g = k_r * e_r + k_cv * e_cv + k_0
            if g < 0.0 and g < -_slack(kink, p_r, p_cv, e_r, e_cv):
                return None
            u = k_r * r_r + k_cv * r_cv
            if gain is None and u < 0.0:
                # g' falling at the start and rising beyond its rounding at the end
                u, v = ea * u, eb * h * (k_r * ar_r + k_cv * ar_cv)
                if u + v > _ROUNDING * (abs(u) + abs(v)):
                    return None
        return e_r, e_cv

    def cross(p_r: float, p_cv: float, f_in: float, f_mot: float, sol: bool, h: float,
              t: float) -> tuple:
        while True:
            pc = region(p_r, p_cv, f_in, f_mot, sol)
            lo, hi = 0.0, h
            for _ in range(60):  # to a 2**-60 part of the span
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if span(pc, p_r, p_cv, mid) else (lo, mid)
            # the piece's own map to hi, past its region by at most 2**-60 of
            # the span; without kinks, span rejects only a non-finite end here
            end = span(pc._replace(kinks=()), p_r, p_cv, hi)
            if end is None:
                raise SimulationDivergence("non-finite state", t)
            if hi == h:
                return end
            p_r, p_cv = end
            t, h = t + hi, h - hi

    def segment(p: Piece, p_r: float, p_cv: float, t: np.ndarray):
        ea, eb, fa, fb = _exp_phi1_grid(p.a11, p.a12, p.a21, p.a22, t)
        r_r = p.a11 * p_r + p.a12 * p_cv
        r_cv = p.a21 * p_r + p.a22 * p_cv + p.b2
        ar_r = p.a11 * r_r + p.a12 * r_cv
        ar_cv = p.a21 * r_r + p.a22 * r_cv
        with np.errstate(invalid="ignore", over="ignore"):
            rows_r = p_r + t * (fa * r_r + fb * t * ar_r)
            rows_cv = p_cv + t * (fa * r_cv + fb * t * ar_cv)
            ok = (rows_r >= PERFECT_VACUUM_KPA) & (rows_r < math.inf)
            ok &= (rows_cv >= PERFECT_VACUUM_KPA) & (rows_cv < math.inf)
            if p.kinks and len(t) > 1 and oscillates(p, t[1]):
                ok[1:] = False
            for kink in p.kinks:
                k_r, k_cv, k_0 = kink
                g = k_r * rows_r + k_cv * rows_cv + k_0
                ok &= g >= -_slack(kink, p_r, p_cv, rows_r, rows_cv)
                # g' at each row; a sign change from - to + between rows is a minimum inside
                u, v = ea * (k_r * r_r + k_cv * r_cv), eb * t * (k_r * ar_r + k_cv * ar_cv)
                slope, noise = u + v, _ROUNDING * (np.abs(u) + np.abs(v))
                ok[1:] &= ~((slope[:-1] < 0.0) & (slope[1:] > noise[1:]))
        ok[0] = True  # the start state itself
        n = len(t) if ok.all() else int(np.argmin(ok))
        rows_r, rows_cv = rows_r[:n], rows_cv[:n]
        return rows_r, rows_cv, *flows(p, rows_r, rows_cv)

    return Propagator(region, inflation, flows, span, cross, segment)


def simulate(scn: Scenario) -> TimeSeries:
    """Integrate a scenario and return its uniformly sampled trace.

    Each span between events (a control tick, a sample row, the end) is one
    exact map, or, where the span crosses a kink, one map per region up to
    each located crossing. In open loop the command is held for the whole
    run, so the rows are computed a segment at a time from one map each.
    Raises ``SimulationDivergence`` if the state becomes non-finite or the rows'
    rates overflow.
    """
    return TimeSeries(**_run(scn, TimeSeries.FIELDS))


def pressure_response(scn: Scenario) -> np.ndarray:
    """``simulate(scn).p_cv`` to the bit; where ``simulate`` raises, the same error.
    A closed-loop run stores only p_cv and p_r; an open-loop run's segments fill every
    column at once, so it stores them all."""
    return _run(scn, ("p_cv", "p_r") if scn.closed_loop else TimeSeries.FIELDS)["p_cv"]


def _run(scn: Scenario, names) -> dict:
    """The ``TimeSeries`` columns ``names`` of a run, filled by its loop and checked by
    ``_check_rates``; ``t`` and ``p_cmd``, if named, then ``COMMAND_BLOCK`` rows at a time."""
    import numpy as np

    n_rows = scn.n_rows()
    columns = {name: np.empty(n_rows, np.uint8 if name == "mode" else float) for name in names}
    prop = propagator(scn.network, scn.gas, scn.hold_reservoir)
    (_closed_loop if scn.closed_loop else _open_loop)(scn, columns, prop)
    _check_rates(scn, columns)
    if "t" in columns:
        ss = scn.sample_stride()
        for start in range(0, n_rows, COMMAND_BLOCK):
            end = min(start + COMMAND_BLOCK, n_rows)
            t = columns["t"][start:end] = _event_times(start, end, ss, scn.dt)
            columns["p_cmd"][start:end] = scn.command.values(t)
    return columns


def _check_rates(scn: Scenario, columns: dict) -> None:
    """``SimulationDivergence`` where ``rates_overflow`` holds at the largest p_r or p_cv of the
    rows, at the row of that pressure. Rows are at least ``PERFECT_VACUUM_KPA`` (``span`` and
    ``segment`` accept no other), so where it passes every flow is finite; the records' rules
    and the valve range checks keep the rest of each row finite, and its time increasing.
    It bounds overflow only: rounding may still put a row a little above the initial pressures."""
    peaks = {name: float(columns[name].max()) for name in ("p_r", "p_cv")}  # no n-row temporary
    if rates_overflow(scn.network, scn.gas, scn.hold_reservoir, *peaks.values()):
        name = max(peaks, key=peaks.get)
        row = int(columns[name].argmax())
        raise SimulationDivergence(f"rates overflow: {name} reaches {peaks[name]:.6g} kPa",
                                   row * scn.sample_stride() * scn.dt)


def _open_loop(scn: Scenario, columns: dict, prop: Propagator) -> None:
    """Fill an open-loop run's columns but t and p_cmd: segments of rows, one region each."""
    net, cmd, dt = scn.network, scn.open_loop_command, scn.dt
    ss, n_rows = scn.sample_stride(), scn.n_rows()
    f_in = valve_fraction(cmd.u_inflate, net.inflation_valve)
    f_mot = valve_fraction(cmd.u_motive, net.motive_valve)
    sol = cmd.solenoid_open
    region, cross, segment = prop.region, prop.cross, prop.segment
    columns["u_inflate"][:] = cmd.u_inflate
    columns["u_motive"][:] = cmd.u_motive
    columns["solenoid"][:] = 1.0 if sol else 0.0
    columns["mode"][:] = Mode.IDLE
    trace = [columns[name] for name in ("p_r", "p_cv", "q_in", "q_out", "q_motive")]
    p_r, p_cv = net.reservoir.p_r0, net.control_volume.p_cv
    row = 0
    while True:
        m = min(n_rows - row, SEGMENT_ROWS)
        rows = segment(region(p_r, p_cv, f_in, f_mot, sol), p_r, p_cv, _event_times(0, m, ss, dt))
        got = len(rows[0])
        for col, values in zip(trace, rows):
            col[row:row + got] = values
        row += got - 1  # the last row inside, where the next segment starts
        p_r, p_cv = float(rows[0][-1]), float(rows[1][-1])
        if row == n_rows - 1:
            break
        if got < m:  # the next row is in another region: hand over one span
            p_r, p_cv = cross(p_r, p_cv, f_in, f_mot, sol, ss * dt, row * ss * dt)
            row += 1


def _closed_loop(scn: Scenario, columns: dict, prop: Propagator) -> None:
    """Fill the columns of a closed-loop run, one control period at a time.

    Each period starts at a tick: the sensor reading (the tick's noise draw, clamped
    to the sensor's range), the control law and the valve fractions run inline, in
    the statements of ``components.sensor_read`` and ``control.control_step``,
    which the tests run as the reference. Then each event up to the next tick (a
    sample row, the end) writes its row, and each span between events maps the
    state; the tick's command picks the map. Inflation alone (no motive flow,
    solenoid shut) has one kinkless piece, whose A is singular with b = 0: its
    spans take ``span``'s held singular map and bounds test inline, from the
    coefficients of ``inflation``, and a gain formed only when they or the span's
    length change; no ``region``, no piece. A span that test rejects goes to
    ``cross``. Every other command calls ``region`` at each event and ``span`` or
    ``cross`` for each span. A row's flows are ``flows`` of the piece that holds
    the state. The law commands the motive valve only 0.0 or 1.0, which
    ``valve_fraction`` maps to themselves at any deadband below 1, so it writes
    that fraction directly; the inflation fraction, so range-checked, and the
    inline coefficients are recomputed only when the inflation command changes.

    ``columns`` holds every ``TimeSeries`` column, or only p_cv and p_r; ``t`` and ``p_cmd``
    are left to ``_run``. The command is read by array, never per tick: the ticks' values and
    rates, with their noise draws, ``COMMAND_BLOCK`` ticks at a time. Each time is the product
    ``(k * stride) * dt`` the loop would form, so both match the scalar ``value`` and ``rate``
    to the bit wherever numpy's sine and cosine match ``math``'s.
    """
    net, dt, cfg = scn.network, scn.dt, scn.controller
    n, ss, cs = scn.n_steps(), scn.sample_stride(), scn.control_stride()
    evp = net.inflation_valve
    p_cv_col, p_r_col = memoryview(columns["p_cv"]), memoryview(columns["p_r"])
    full = "mode" in columns  # else p_cv and p_r alone
    if full:
        (u_in_col, u_mot_col, sol_col, q_in_col, q_out_col, q_mot_col,
         mode_col) = (memoryview(columns[name]) for name in TimeSeries.FIELDS[4:])
    vacuum, inf = PERFECT_VACUUM_KPA, math.inf
    lo, hi = vacuum, net.cv_sensor.range_max
    vent_coeff = passive_vent_coeff(net.solenoid.r_open, net.control_volume.v_cv, scn.gas)
    cutoff, tick_dt = cfg.error_cutoff, 1.0 / cfg.control_rate
    kp, ki, kd, limit = cfg.kp, cfg.ki, cfg.kd, cfg.integrator_limit
    neg_limit, horizon = -limit, cfg.settle_horizon
    threshold = cfg.active_deflation_rate_threshold
    pid, inflate, vent, deflate = Mode.PID, Mode.ON_OFF_INFLATE, Mode.VENT, Mode.ACTIVE_DEFLATE
    state = ControllerState()
    integ, prev, mode, acc = state.integrator, state.prev_error, state.mode, state.duty_acc
    region, inflation, flows = prop.region, prop.inflation, prop.flows
    span, cross = prop.span, prop.cross
    p_r, p_cv = net.reservoir.p_r0, net.control_volume.p_cv
    u_in = None  # no command yet: the first tick computes the inflation fraction
    alone_h = None  # the span length of the inline map's gain
    k = row = next_row = 0
    for p_cmd, rate, noise in _tick_commands(scn):
        p_meas = p_cv if noise is None else p_cv + noise  # + 0.0 would turn -0.0 into +0.0
        if p_meas < lo:
            p_meas = lo
        if p_meas > hi:
            p_meas = hi
        if p_cmd * 0.0 + p_meas * 0.0 + rate * 0.0 != 0.0:  # an input is infinite or NaN
            control_step(p_cmd, p_meas, rate, cfg, vent_coeff,  # raises the law's ValueError
                         ControllerState(integ, prev, mode, acc))
        e = p_cmd - p_meas
        if e > cutoff:
            new_in, f_mot, sol = 1.0, 0.0, False
            prev, mode, acc = e, inflate, 0.0
        elif e < -cutoff:
            required = abs(rate) + abs(e) / horizon  # control.required_deflation_rate
            capability = vent_coeff * (p_meas if p_meas > 0.0 else 0.0)
            active = required > (threshold if threshold > capability else capability)
            new_in, f_mot, sol = 0.0, 1.0 if active else 0.0, True
            prev, mode, acc = e, deflate if active else vent, 0.0
        else:
            if mode is not pid:
                integ, prev, acc = 0.0, e, 0.0
            integ += e * tick_dt
            if integ < neg_limit:
                integ = neg_limit
            if integ > limit:
                integ = limit
            u = kp * e + ki * integ + kd * (e - prev) / tick_dt
            prev, mode, f_mot = e, pid, 0.0
            if u >= 0.0:
                acc = 0.0
                new_in, sol = 1.0 if u > 1.0 else u, False
            else:
                acc += 1.0 if -u > 1.0 else -u
                sol = acc >= 1.0
                if sol:
                    acc -= 1.0
                new_in = 0.0
        if new_in != u_in:  # the inflation fraction and the inline map's coefficients
            f_in = valve_fraction(new_in, evp)
            _, a11, a12, a21, a22 = inflation(f_in)
            alone_h = None
        u_in = new_in  # the column keeps each tick's own command
        pc = region(p_r, p_cv, f_in, f_mot, sol) if f_mot or sol else None  # None: inline
        end = k + cs
        last = end > n  # the last period, which takes the event at n
        if last:
            end = n
        while True:
            if k == next_row:
                p_cv_col[row] = p_cv
                p_r_col[row] = p_r
                if full:
                    q_in, q_out, q_motive = flows(pc or region(p_r, p_cv, f_in, f_mot, sol),
                                                  p_r, p_cv)
                    u_in_col[row] = u_in
                    u_mot_col[row] = f_mot
                    sol_col[row] = 1.0 if sol else 0.0
                    q_in_col[row] = q_in
                    q_out_col[row] = q_out
                    q_mot_col[row] = q_motive
                    mode_col[row] = mode
                row += 1
                next_row += ss
            if k == end:
                break
            nxt = next_row if next_row < end else end
            h = (nxt - k) * dt
            if pc is not None:
                p_r, p_cv = (span(pc, p_r, p_cv, h)
                             or cross(p_r, p_cv, f_in, f_mot, sol, h, k * dt))
            else:  # span's held singular map and bounds, b = 0
                if h != alone_h:
                    alone_h, gain = h, _held_gain(a11, a12, a21, a22, 0.0, h)
                e_r = p_r + gain * (a11 * p_r + a12 * p_cv)
                # span's + b2, with b2 = 0.0: it turns a -0.0 sum into +0.0
                e_cv = p_cv + gain * (a21 * p_r + a22 * p_cv + 0.0)
                if vacuum <= e_r < inf and vacuum <= e_cv < inf:
                    p_r, p_cv = e_r, e_cv
                else:
                    p_r, p_cv = cross(p_r, p_cv, f_in, f_mot, sol, h, k * dt)
            k = nxt
            if k == end and not last:
                break  # the next tick's event
            if pc is not None:
                pc = region(p_r, p_cv, f_in, f_mot, sol)


def _tick_commands(scn: Scenario):
    """(value, rate, noise) at each control tick of a closed-loop run, a block at a time: the
    command's value and rate, and the CV sensor's noise draw, or None from a noiseless sensor,
    which draws nothing, so its run builds no generator, nor imports numpy.random. numpy draws
    the same normal values a block or one at a time, so each equals ``sensor_read``'s draw."""
    import numpy as np

    command, sensor, cs = scn.command, scn.network.cv_sensor, scn.control_stride()
    n_ticks, std = scn.n_steps() // cs + 1, sensor.noise_std
    rng = np.random.default_rng([scn.seed, sensor.seed]) if std > 0.0 else None
    for start in range(0, n_ticks, COMMAND_BLOCK):
        tt = _event_times(start, min(start + COMMAND_BLOCK, n_ticks), cs, scn.dt)
        noise = repeat(None) if rng is None else rng.normal(0.0, std, size=len(tt)).tolist()
        yield from zip(command.values(tt).tolist(), command.rates(tt).tolist(), noise)


def _event_times(start: int, end: int, stride: int, dt: float) -> np.ndarray:
    """(i * stride) * dt for i in [start, end): the loop's k * dt at every stride-th step.

    Counted in floats, exact below 2**53, so a run touches no integer multiply
    loop of numpy, which would raise its peak RSS.
    """
    import numpy as np

    return np.arange(start, end, dtype=float) * stride * dt


def mass_balance(ts: TimeSeries, scn: Scenario) -> float:
    """Relative standard-volume imbalance of a trace produced by ``simulate``.

    Reservoir loss must equal control-volume gain plus everything vented
    (exhaust and motive air), with flows integrated by the trapezoid rule per
    sample interval under its held command. The residual is that rule's error
    on the trace's sampled flows: it grows as the square of the interval, and
    jumps once rows are sparser than control ticks. With the reservoir held,
    the loss is the standard volume drawn from the fixed-pressure source.
    """
    import numpy as np

    net = scn.network
    a = alpha(scn.gas)
    n = len(ts)
    if n < 2:
        raise ValueError("mass_balance needs at least two samples")

    # right-end flows: the next sampled state under this interval's command
    prop = propagator(net, scn.gas, scn.hold_reservoir)
    region, flows = prop.region, prop.flows
    evp, dvp = net.inflation_valve, net.motive_valve
    states = (ts.p_r[1:], ts.p_cv[1:], ts.u_inflate[:-1], ts.u_motive[:-1], ts.solenoid[:-1])
    right = np.array([
        flows(region(p_r, p_cv, valve_fraction(u_in, evp), valve_fraction(u_mot, dvp), bool(sol)),
              p_r, p_cv)
        for p_r, p_cv, u_in, u_mot, sol in zip(*(col.tolist() for col in states))
    ])
    h = np.diff(ts.t)
    int_in, int_out, int_mot = (
        float(np.sum(h * (q[:-1] + q_right)) / 2.0)
        for q, q_right in zip((ts.q_in, ts.q_out, ts.q_motive), right.T)
    )

    gain = net.control_volume.v_cv * (ts.p_cv[-1] - ts.p_cv[0]) / a
    if scn.hold_reservoir:
        loss = int_in + int_mot
    else:
        loss = net.reservoir.v_r * (ts.p_r[0] - ts.p_r[-1]) / a
    vented = int_out + int_mot
    return abs(loss - gain - vented) / max(loss, 1e-12)

