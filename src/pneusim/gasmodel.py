"""Closed-form gas equations for a reservoir-fed pneumatic supply and regulator.

All pressures are gauge kPa, volumes are liters, time is seconds, and flow is
standard liters per second (std L/s). With these units the lumped coefficient

    alpha = rho * R_u * T / M    (kPa)

converts standard volumetric flow into a pressure rate: dP/dt = alpha * Q / V.
At mutually consistent standard conditions alpha equals atmospheric pressure
(ideal-gas identity rho = P*M/(R_u*T)), so alpha is ~101.3 kPa by default.

The functions here are pure; the simulator in :mod:`pneusim.sim` integrates the
exact pressure-difference-driven flows and uses these closed forms as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Gauge pressure of a perfect vacuum; no gauge pressure may fall below this.
PERFECT_VACUUM_KPA = -101.325


@dataclass(frozen=True)
class GasConstants:
    """Air properties at standard conditions (20 C convention by default).

    rho: density (kg/m^3), R_u: universal gas constant (J/(mol*K)),
    T: temperature (K), M: molar mass (kg/mol).
    """

    rho: float = 1.2041
    R_u: float = 8.314
    T: float = 293.15
    M: float = 0.028965

    def __post_init__(self) -> None:
        for name in ("rho", "R_u", "T", "M"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"GasConstants.{name} must be strictly positive")


DEFAULT_GAS = GasConstants()


def alpha(gc: GasConstants) -> float:
    """Lumped flow-to-pressure-rate coefficient rho*R_u*T/M in kPa."""
    return gc.rho * gc.R_u * gc.T / gc.M / 1000.0


def pressure_rate_from_flow(q: float, v_cv: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Pressure rate (kPa/s) of a rigid volume v_cv (L) fed with flow q (std L/s)."""
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    return alpha(gc) * q / v_cv


def flow_from_ohm(dp: float, r_v: float) -> float:
    """Standard flow (std L/s) through resistance r_v under pressure difference dp.

    Antisymmetric in dp: reversing the pressure difference reverses the flow.
    """
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    return dp / r_v


def discharge_time_constant(r_v: float, v_r: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Reservoir discharge time constant tau = r_v * v_r / alpha (s)."""
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    if not v_r > 0.0:
        raise ValueError("v_r must be strictly positive")
    return r_v * v_r / alpha(gc)


def discharge_pressure(
    t: float, p_r0: float, r_v: float, v_r: float, gc: GasConstants = DEFAULT_GAS
) -> float:
    """Gauge pressure (kPa) of a reservoir discharging to atmosphere at time t.

    Exponential decay p_r0 * exp(-t / tau) with tau = r_v*v_r/alpha; monotone
    non-increasing in t for p_r0 >= 0.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return p_r0 * math.exp(-t / discharge_time_constant(r_v, v_r, gc))


def inflation_rate(p_r: float, r_v: float, v_cv: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Benchmark inflation speed alpha*p_r/(r_v*v_cv) in kPa/s.

    Valid for a reservoir pressure much larger than the control-volume
    pressure; the simulator integrates the exact difference-driven flow.
    """
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    return alpha(gc) * p_r / (r_v * v_cv)


def max_command_rate(amplitude: float, freq_hz: float) -> float:
    """Maximum time-derivative (kPa/s) of a sine command A*sin(2*pi*f*t)+c."""
    if amplitude < 0.0:
        raise ValueError("amplitude must be non-negative")
    if freq_hz < 0.0:
        raise ValueError("freq_hz must be non-negative")
    return 2.0 * amplitude * math.pi * freq_hz


def cutoff_frequency(pdot_max: float, amplitude: float) -> float:
    """Tracking cutoff frequency (Hz) for a system slew-limited at pdot_max."""
    if not amplitude > 0.0:
        raise ValueError("amplitude must be strictly positive")
    if pdot_max < 0.0:
        raise ValueError("pdot_max must be non-negative")
    return pdot_max / (2.0 * math.pi * amplitude)


def frequency_gain(freq_hz: float, cutoff_hz: float) -> float:
    """Piecewise tracking gain: 1 in the pass band, cutoff/freq above it."""
    if not freq_hz > 0.0:
        raise ValueError("freq_hz must be strictly positive")
    if cutoff_hz < 0.0:
        raise ValueError("cutoff_hz must be non-negative")
    if freq_hz <= cutoff_hz:
        return 1.0
    return cutoff_hz / freq_hz


def min_reservoir_pressure(
    pdot_d: float, r_v: float, v_cv: float, gc: GasConstants = DEFAULT_GAS
) -> float:
    """Smallest reservoir gauge pressure (kPa) sustaining inflation speed pdot_d.

    Inverse of :func:`inflation_rate`; feeding the result back reproduces
    pdot_d to machine precision.
    """
    if pdot_d < 0.0:
        raise ValueError("pdot_d must be non-negative")
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    return pdot_d * r_v * v_cv / alpha(gc)


def n_cycles(
    p_r0: float,
    v_cv: float,
    r_vmin: float,
    pdot_d: float,
    v_r: float,
    dp_cv: float,
    gc: GasConstants = DEFAULT_GAS,
) -> float:
    """Inflate/deflate cycle budget of a reservoir, clamped below at zero.

    0.5*(p_r0/v_cv - r_vmin*pdot_d/alpha)*v_r/dp_cv cycles; the 0.5 factor
    conservatively charges deflation the same standard volume as inflation
    (vacuum-generator motive air). Returns a real number; floor it for
    reporting.
    """
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not v_r > 0.0:
        raise ValueError("v_r must be strictly positive")
    if not dp_cv > 0.0:
        raise ValueError("dp_cv must be strictly positive")
    if not r_vmin > 0.0:
        raise ValueError("r_vmin must be strictly positive")
    if pdot_d < 0.0:
        raise ValueError("pdot_d must be non-negative")
    raw = 0.5 * (p_r0 / v_cv - r_vmin * pdot_d / alpha(gc)) * v_r / dp_cv
    return max(0.0, raw)
