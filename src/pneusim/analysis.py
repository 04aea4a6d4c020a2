"""Verification analyses: step-response metrics, discharge fits, frequency response.

The frequency-response gain is extracted with a single-bin discrete Fourier
correlation at the command frequency over an integer number of periods (the
window mean is removed first, so a DC offset cannot leak into the bin). The
roll-off cutoff is estimated two ways: a least-squares knee fit of the
two-segment gain model over log-gain, and the first crossing of 1/sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np

from .gasmodel import FieldError, check, record, replace
from .sim import MAX_STEPS, Scenario, SineCommand, TimeSeries, pressure_response

BAND_KPA = 1.0  # the fine-regulation band around a step target
SWEEP_PERIODS = 4  # periods a sweep point runs after its startup period


@record()
class StepMetrics:
    """Rise/settle summary of a step trace.

    avg_rise_rate is the commanded step divided by the time to first enter
    the +-BAND_KPA band around the target (the fine-regulation handoff).
    """

    avg_rise_rate: float  # kPa/s, nan when the band is never reached
    nrmse: float  # vs the piecewise-linear rate model, normalized by target
    overshoot: float  # kPa above target (can be negative if never reached)
    settling_time: float  # s from command start to staying inside the band, nan if unsettled
    reached_target: bool
    settled: bool


@record()
class FrequencyPoint:
    omega: float  # Hz
    gain: float  # nan when errored
    n_periods: int
    error: str | None = None


@record()
class DischargeFit:
    tau_s: float  # inf when degenerate (no decay)
    p_r0_fit: float
    nrmse: float
    degenerate: bool


def nrmse(measured, reference, normalizer: float) -> float:
    """Root-mean-square pointwise difference divided by a reference pressure."""
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if measured.shape != reference.shape or measured.size < 2:
        raise ValueError("traces must have equal length >= 2")
    if not normalizer > 0.0:
        raise ValueError("normalizer must be strictly positive")
    diff, scale = measured - reference, 1.0
    # the mean square overflows once a difference passes about 2**500; scaled, it cannot
    if float(np.max(np.abs(diff))) > 2.0**480:
        scale = float(np.max(np.abs(diff)))
        diff = diff / scale
    return float(scale * np.sqrt(np.mean(diff**2))) / normalizer


def _first_crossing_time(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """Linear-interpolated time of the first upward crossing of ``level``."""
    above = y >= level
    if not above.any():
        return math.nan
    i = int(np.argmax(above))
    if i == 0:
        return float(t[0])
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def step_metrics(ts: TimeSeries, target: float, model_rate: float) -> StepMetrics:
    """Metrics of a closed-loop step trace against the linear-rate model."""
    if not target > 0.0:
        raise ValueError("target must be strictly positive")
    if not model_rate > 0.0:
        raise ValueError("model_rate must be strictly positive")
    active = ts.p_cmd >= target
    if not active.any():
        raise ValueError("trace never commands the target")
    i0 = int(np.argmax(active))
    t0 = float(ts.t[i0])
    p0 = float(ts.p_cv[i0])

    t_band = _first_crossing_time(ts.t[i0:], ts.p_cv[i0:], target - BAND_KPA)
    reached = not math.isnan(t_band)
    avg_rate = (target - p0) / (t_band - t0) if reached and t_band > t0 else math.nan

    ref = np.where(
        ts.t < t0, p0, np.minimum(p0 + model_rate * (ts.t - t0), target)
    )
    err = nrmse(ts.p_cv, ref, target)

    overshoot = float(np.max(ts.p_cv)) - target

    outside = np.abs(ts.p_cv[i0:] - target) > BAND_KPA
    if not outside.any():
        settled, settling = True, 0.0
    elif outside[-1]:
        settled, settling = False, math.nan
    else:
        last_bad = int(np.where(outside)[0][-1])
        settled = True
        settling = float(ts.t[i0 + last_bad + 1]) - t0
    return StepMetrics(avg_rate, err, overshoot, settling, reached, settled)


def _windowed_gain(
    response: np.ndarray, omega: float, amplitude: float, sample_rate: float
) -> tuple[float, int]:
    """Tracking gain, the Fourier magnitude at the command frequency over amplitude, and the
    whole periods it spans after the first; ``frequency_sweep`` checks omega and amplitude."""
    if not sample_rate > 10.0 * omega:
        raise ValueError("sample_rate must exceed 10x the command frequency")
    response = np.asarray(response, dtype=float)
    samples_per_period = sample_rate / omega
    discard = round(samples_per_period)  # startup transient: one full period
    periods = int((len(response) - discard) / samples_per_period)
    if periods < 3:
        raise ValueError("trace must cover >= 3 whole periods after the first")
    n = round(periods * samples_per_period)
    x = response[discard : discard + n]
    x = x - np.mean(x)
    # x * exp(-2j pi omega k / sample_rate), formed in one complex buffer: the same operations
    # on the same operands (a complex product commutes exactly), so the same bits
    z = np.arange(n, dtype=complex)
    z *= -2j * math.pi * omega
    z /= sample_rate
    np.exp(z, out=z)
    z *= x
    corr = np.sum(z)
    return 2.0 * abs(corr) / (n * amplitude), periods


def _sweep_point(scn_template: Scenario, omega: float, rep: int = 0) -> Scenario:
    """Run ``rep`` of a sweep point: a sine at ``omega`` from 0 to twice the template's
    amplitude, for a startup period, SWEEP_PERIODS periods and two rows."""
    amplitude = scn_template.command.amplitude_kpa
    return replace(
        scn_template,
        command=SineCommand(amplitude, omega, amplitude),
        duration=(1 + SWEEP_PERIODS) / omega + 2.0 / scn_template.sample_rate,
        seed=scn_template.seed + rep,
    )


def sweep_steps(scn_template: Scenario, omegas) -> int:
    """Steps one repeat of a sweep takes: those of each point whose scenario is valid (an
    invalid one fails alone and runs nothing)."""
    steps = 0
    for omega in omegas:
        try:
            steps += _sweep_point(scn_template, omega).n_steps()
        except ValueError:
            pass
    return steps


def frequency_sweep(scn_template: Scenario, omegas, n_repeat: int = 1) -> list[FrequencyPoint]:
    """Simulate one sine response per frequency and extract the gain at each.

    The command offset is set to the amplitude so the command minimum is 0.
    Per-point failures are recorded in the point's error field; the sweep
    continues. With n_repeat > 1 the gains of repeated runs (distinct seeds)
    are averaged, for use with noisy sensors. The repeats of all points together
    may take at most ``MAX_STEPS`` steps, as one run may. A broken precondition
    raises ``FieldError`` before any point runs, its ``field`` the one at fault.
    """
    if not isinstance(scn_template.command, SineCommand):
        raise FieldError(scn_template, "command", "sweep needs a sine command")
    if not scn_template.closed_loop:
        raise FieldError(scn_template, "open_loop_command", "sweep needs a closed_loop scenario")
    amplitude = scn_template.command.amplitude_kpa
    check(scn_template, "command.amplitude_kpa", "pos", amplitude)
    omegas = list(omegas)
    if not omegas:
        raise FieldError(None, "omegas", "at least one frequency required")
    if not all(map(math.isfinite, omegas)):
        raise FieldError(None, "omegas", "frequencies must be finite")
    if not all(w > 0.0 for w in omegas):
        raise FieldError(None, "omegas", "frequencies must be > 0")
    if n_repeat < 1:
        raise FieldError(None, "n_repeat", "must be >= 1")
    steps = sweep_steps(scn_template, omegas)
    if steps * n_repeat > MAX_STEPS:
        raise FieldError(None, "n_repeat", f"the sweep would take more than {MAX_STEPS} steps "
                                           f"({n_repeat} repeats of {steps})")

    points: list[FrequencyPoint] = []
    for omega in omegas:
        try:
            gains = []
            periods = 0
            for rep in range(n_repeat):
                scn = _sweep_point(scn_template, omega, rep)
                # no name holds the response, so it is freed before the next point simulates
                gain, periods = _windowed_gain(
                    pressure_response(scn), omega, amplitude, scn.sample_rate
                )
                gains.append(gain)
            points.append(FrequencyPoint(omega, float(np.mean(gains)), periods))
        except (ValueError, RuntimeError) as exc:
            points.append(FrequencyPoint(omega, math.nan, 0, error=str(exc)))
    return points


def fit_rolloff_knee(omegas, gains) -> float:
    """Least-squares knee of the two-segment gain model over log-gain.

    The model is 1 below the knee and knee/omega above it; the knee is the
    single free parameter. Exact piecewise solution: for every split of the
    sorted frequencies the optimal knee is the geometric mean of gain*omega
    over the roll-off side, clamped into the split's interval.
    """
    omegas = np.asarray(list(omegas), dtype=float)
    gains = np.asarray(list(gains), dtype=float)
    keep = np.isfinite(gains) & (gains > 0.0) & np.isfinite(omegas) & (omegas > 0.0)
    omegas, gains = omegas[keep], gains[keep]
    if omegas.size < 2:
        raise ValueError("knee fit needs at least two finite positive gains")
    order = np.argsort(omegas)
    lw = np.log(omegas[order])
    lg = np.log(gains[order])
    n = lw.size

    best_sse, best_lk = math.inf, lw[-1]
    # split j: points [j:] are on the roll-off segment, [0:j] on the flat one
    for j in range(n + 1):
        lo = lw[j - 1] if j > 0 else lw[0] - 40.0
        hi = lw[j] if j < n else lw[-1] + 40.0
        if j == n:
            lk = hi  # all points flat: knee above the data
        else:
            lk = float(np.mean(lg[j:] + lw[j:]))
            lk = min(max(lk, lo), hi)
        sse = float(np.sum(lg[:j] ** 2) + np.sum((lg[j:] - (lk - lw[j:])) ** 2))
        if sse < best_sse - 1e-15:
            best_sse, best_lk = sse, lk
    return float(math.exp(best_lk))


def first_crossing_3db(omegas, gains) -> float:
    """First frequency where the gain falls to 1/sqrt(2), log-log interpolated."""
    level = 1.0 / math.sqrt(2.0)
    pairs = sorted(
        (w, g)
        for w, g in zip(omegas, gains)
        if math.isfinite(g) and g > 0.0 and math.isfinite(w) and w > 0.0
    )
    if not pairs:
        return math.nan
    prev_w, prev_g = None, None
    for w, g in pairs:
        if g <= level:
            if prev_w is None or prev_g <= level:
                return float(w)
            frac = (math.log(level) - math.log(prev_g)) / (math.log(g) - math.log(prev_g))
            return float(math.exp(math.log(prev_w) + frac * (math.log(w) - math.log(prev_w))))
        prev_w, prev_g = w, g
    return math.nan


def fit_discharge_tau(t, p_r) -> DischargeFit:
    """Log-linear least-squares fit of the reservoir discharge time constant to the reservoir
    pressures ``p_r`` at times ``t``."""
    t = np.asarray(t, dtype=float)
    p = np.asarray(p_r, dtype=float)
    if t.shape != p.shape:
        raise ValueError("discharge fit needs one time per reservoir pressure")
    if np.any(p <= 0.0):
        raise ValueError("discharge fit needs strictly positive reservoir pressures")
    if len(p) < 2:
        raise ValueError("discharge fit needs at least two samples")
    slope, intercept = np.polyfit(t, np.log(p), 1)
    p0 = float(math.exp(intercept))
    # every row equal is no decay, whatever slope the fit's rounding gives at a tiny p
    if slope >= -1e-12 or (p == p[0]).all():
        fitted = np.full_like(p, p0)
        return DischargeFit(math.inf, p0, nrmse(p, fitted, p0), degenerate=True)
    tau = -1.0 / float(slope)
    fitted = p0 * np.exp(-t / tau)
    return DischargeFit(tau, p0, nrmse(p, fitted, p0), degenerate=False)
