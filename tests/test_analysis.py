import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import step_scenario
from pneusim import analysis as an
from pneusim import gasmodel as gm
from pneusim.components import default_network
from pneusim.control import IDLE_COMMAND
from pneusim.sim import (
    MAX_STEPS,
    Scenario,
    SineCommand,
    StepCommand,
    TimeSeries,
    pressure_response,
)

R_CATALOG = 689.0 / (23.5 / 60.0)


def make_trace(t, p_cv, p_cmd=None):
    n = len(t)
    zeros = np.zeros(n)
    return TimeSeries(
        t=np.asarray(t, float),
        p_cmd=np.asarray(p_cmd if p_cmd is not None else zeros, float),
        p_cv=np.asarray(p_cv, float),
        p_r=np.full(n, 689.0),
        u_inflate=zeros.copy(),
        u_motive=zeros.copy(),
        solenoid=zeros.copy(),
        q_in=zeros.copy(),
        q_out=zeros.copy(),
        q_motive=zeros.copy(),
        mode=np.zeros(n, dtype=np.uint8),
    )


class TestNrmse:
    def test_identical_traces(self):
        x = np.linspace(0, 10, 50)
        assert an.nrmse(x, x, 50.0) == 0.0

    def test_constant_offset(self):
        assert an.nrmse(np.full(10, 5.0), np.zeros(10), 50.0) == pytest.approx(0.10)

    def test_alternating_residual(self):
        ref = np.linspace(0, 60, 40)
        meas = ref + np.where(np.arange(40) % 2 == 0, 3.0, -3.0)
        assert an.nrmse(meas, ref, 100.0) == pytest.approx(0.03)

    def test_rejects_mismatch_and_bad_normalizer(self):
        with pytest.raises(ValueError):
            an.nrmse(np.zeros(3), np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            an.nrmse(np.zeros(3), np.zeros(3), 0.0)


class TestStepMetrics:
    def make_ramp_trace(self, rate, target, duration=3.0, fs=1000.0):
        t = np.arange(0, duration, 1.0 / fs)
        p = np.minimum(rate * t, target)
        return make_trace(t, p, p_cmd=np.full_like(t, target))

    def test_model_trace_has_zero_nrmse(self):
        ts = self.make_ramp_trace(79.37, 69.0)
        m = an.step_metrics(ts, 69.0, model_rate=79.37)
        assert m.nrmse == pytest.approx(0.0, abs=1e-12)
        assert m.overshoot == pytest.approx(0.0, abs=1e-9)
        assert m.settled

    def test_rise_rate_of_exact_ramp(self):
        # commanded step over time-to-band of an exact ramp: rate*target/(target-band)
        ts = self.make_ramp_trace(80.0, 69.0)
        m = an.step_metrics(ts, 69.0, model_rate=80.0)
        assert m.avg_rise_rate == pytest.approx(80.0 * 69.0 / 68.0, rel=1e-6)

    def test_flags_trace_that_never_reaches(self):
        t = np.arange(0, 2, 1e-3)
        ts = make_trace(t, np.minimum(10.0 * t, 30.0), p_cmd=np.full_like(t, 69.0))
        m = an.step_metrics(ts, 69.0, model_rate=79.37)
        assert not m.reached_target
        assert math.isnan(m.avg_rise_rate)
        assert not m.settled

    def test_overshoot_and_settling(self):
        t = np.arange(0, 4, 1e-3)
        p = np.minimum(70.0 * t, 69.0).astype(float)
        p[(t > 1.0) & (t <= 1.5)] = 72.0  # 3 kPa overshoot blip
        ts = make_trace(t, p, p_cmd=np.full_like(t, 69.0))
        m = an.step_metrics(ts, 69.0, model_rate=70.0)
        assert m.overshoot == pytest.approx(3.0)
        assert m.settled
        assert m.settling_time == pytest.approx(1.501, abs=2e-3)


class TestSingleBinGain:
    def test_pure_tone_with_offset(self):
        fs, f, a, c = 1000.0, 2.0, 21.0, 21.0
        t = np.arange(0, 6.0, 1 / fs)
        x = c + a * np.sin(2 * math.pi * f * t)
        assert an._windowed_gain(x, f, a, fs)[0] == pytest.approx(1.0, abs=1e-6)

    def test_linear_in_amplitude(self):
        fs, f, a = 1000.0, 2.0, 21.0
        t = np.arange(0, 6.0, 1 / fs)
        x = 0.5 * a * np.sin(2 * math.pi * f * t)
        assert an._windowed_gain(x, f, a, fs)[0] == pytest.approx(0.5, abs=1e-6)

    def test_orthogonal_tone_rejected(self):
        fs, f = 1200.0, 2.0
        t = np.arange(0, 6.0, 1 / fs)
        # every whole-period window of the 2 Hz bin also holds whole 4 Hz periods
        x = 13.0 * np.sin(2 * math.pi * 4.0 * t)
        assert an._windowed_gain(x, f, 21.0, fs)[0] == pytest.approx(0.0, abs=1e-9)

    @given(dc=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=25)
    def test_dc_invariance(self, dc):
        fs, f, a = 800.0, 2.0, 10.0
        t = np.arange(0, 5.0, 1 / fs)
        x = a * np.sin(2 * math.pi * f * t)
        g0 = an._windowed_gain(x, f, a, fs)[0]
        g1 = an._windowed_gain(x + dc, f, a, fs)[0]
        assert g1 == pytest.approx(g0, abs=1e-9)

    def test_phase_invariance(self):
        fs, f, a = 1000.0, 2.0, 21.0
        t = np.arange(0, 6.0, 1 / fs)
        for phi in (0.3, 1.2, -0.8):
            x = a * np.sin(2 * math.pi * f * t + phi)
            assert an._windowed_gain(x, f, a, fs)[0] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_short_trace(self):
        fs, f = 1000.0, 2.0
        t = np.arange(0, 1.2, 1 / fs)  # barely over 2 periods
        x = np.sin(2 * math.pi * f * t)
        with pytest.raises(ValueError):
            an._windowed_gain(x, f, 1.0, fs)[0]

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError):
            an._windowed_gain(np.zeros(1000), 10.0, 1.0, 50.0)[0]


class TestKneeFit:
    def test_exact_two_segment_data(self):
        omegas = np.geomspace(0.135, 6.75, 12)
        gains = [gm.frequency_gain(w, 1.35) for w in omegas]
        assert an.fit_rolloff_knee(omegas, gains) == pytest.approx(1.35, rel=1e-6)

    def test_elevated_rolloff_shifts_knee(self):
        omegas = np.geomspace(0.1, 10.0, 15)
        gains = [min(1.0, 1.2 * 1.0 / w) for w in omegas]
        assert an.fit_rolloff_knee(omegas, gains) == pytest.approx(1.2, rel=0.05)

    def test_all_flat_reports_knee_at_or_above_data(self):
        omegas = [0.1, 0.2, 0.4]
        knee = an.fit_rolloff_knee(omegas, [1.0, 1.0, 1.0])
        assert knee >= 0.4

    def test_ignores_failed_points(self):
        omegas = [0.5, 1.0, 2.0, 4.0]
        gains = [1.0, math.nan, 0.5, 0.25]
        assert an.fit_rolloff_knee(omegas, gains) == pytest.approx(1.0, rel=0.1)

    def test_3db_crossing_interpolates(self):
        omegas = np.geomspace(0.135, 6.75, 24)
        gains = [gm.frequency_gain(w, 1.35) for w in omegas]
        # ideal two-segment model crosses 1/sqrt(2) at sqrt(2)*knee
        assert an.first_crossing_3db(omegas, gains) == pytest.approx(1.35 * math.sqrt(2), rel=0.02)

    def test_3db_never_crossed(self):
        assert math.isnan(an.first_crossing_3db([0.1, 0.2], [1.0, 0.99]))


class TestDischargeFit:
    def test_recovers_time_constant_from_closed_form(self):
        tau = gm.discharge_time_constant(R_CATALOG, 2.0)
        t = np.arange(0, 90, 0.02)
        p = 689.0 * np.exp(-t / tau)
        fit = an.fit_discharge_tau(t, p)
        assert fit.tau_s == pytest.approx(tau, rel=5e-3)
        assert fit.p_r0_fit == pytest.approx(689.0, rel=1e-6)
        assert fit.nrmse < 1e-9

    def test_subsampling_invariance(self):
        t = np.arange(0, 60, 0.01)
        p = 500.0 * np.exp(-t / 20.0)
        full = an.fit_discharge_tau(t, p)
        half = an.fit_discharge_tau(t[::2], p[::2])
        assert half.tau_s == pytest.approx(full.tau_s, rel=1e-9)

    def test_constant_trace_flagged_degenerate(self):
        t = np.arange(0, 10, 0.01)
        fit = an.fit_discharge_tau(t, np.full_like(t, 300.0))
        assert fit.degenerate
        assert math.isinf(fit.tau_s)

    def test_constant_subnormal_trace_flagged_degenerate(self):
        # log p is about -744 here, where polyfit's rounding reads a slope below -1e-12
        t = np.arange(11) * 0.002
        fit = an.fit_discharge_tau(t, np.full_like(t, 5e-324))
        assert fit.degenerate
        assert math.isinf(fit.tau_s)

    def test_rejects_non_positive_pressures(self):
        t = np.arange(0, 10, 0.01)
        with pytest.raises(ValueError):
            an.fit_discharge_tau(t, np.zeros_like(t))

    def test_rejects_unequal_lengths(self):
        t = np.arange(0, 10, 0.01)
        with pytest.raises(ValueError, match="one time per reservoir pressure"):
            an.fit_discharge_tau(t[1:], np.full_like(t, 300.0))

    @given(tau=st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=20, deadline=None)
    def test_recovery_across_time_constants(self, tau):
        t = np.linspace(0, min(3 * tau, 120.0), 2000)
        p = 689.0 * np.exp(-t / tau)
        fit = an.fit_discharge_tau(t, p)
        assert fit.tau_s == pytest.approx(tau, rel=5e-3)


class TestFrequencySweep:
    def make_template(self):
        net = default_network(v_cv=0.5, p_r0=689.0)
        return Scenario(
            network=net,
            command=SineCommand(amplitude_kpa=21.0, freq_hz=1.0, offset_kpa=21.0),
            hold_reservoir=True,
        )

    def test_pass_band_gain_near_unity(self):
        points = an.frequency_sweep(self.make_template(), [0.05])
        assert points[0].error is None
        assert points[0].n_periods >= 3
        assert points[0].gain == pytest.approx(1.0, abs=0.05)

    @staticmethod
    def rejected(scn, omegas, n_repeat: int = 1) -> gm.FieldError:
        """The FieldError of a sweep whose preconditions fail; no point may simulate."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(an, "pressure_response", lambda scn: pytest.fail("simulated"))
            with pytest.raises(gm.FieldError) as err:
                an.frequency_sweep(scn, omegas, n_repeat)
        return err.value

    def test_rejects_non_sine_template(self):
        err = self.rejected(step_scenario(69.0), [1.0])
        assert (err.field, str(err)) == ("command", "Scenario.command: sweep needs a sine command")

    def test_rejects_open_loop_template(self):
        # an open-loop run ignores the sine command, so its gains would mean nothing
        template = Scenario(
            network=default_network(), command=SineCommand(21.0, 1.0, 21.0), hold_reservoir=True,
            open_loop_command=IDLE_COMMAND,
        )
        err = self.rejected(template, [0.5, 1.0])
        assert (err.field, str(err)) == (
            "open_loop_command", "Scenario.open_loop_command: sweep needs a closed_loop scenario"
        )

    def test_rejects_zero_amplitude(self):
        # a zero amplitude leaves no gain to measure at any point
        template = gm.replace(self.make_template(), command=SineCommand(0.0, 1.0, 21.0))
        err = self.rejected(template, [0.5, 1.0])
        assert (err.field, str(err)) == (
            "command.amplitude_kpa", "Scenario.command.amplitude_kpa: must be > 0"
        )

    def test_rejects_empty_or_bad_omegas(self):
        for omegas, text in [
            ([], "at least one frequency required"),
            ([0.5, math.inf], "frequencies must be finite"),
            ([0.5, math.nan], "frequencies must be finite"),
            ([0.5, -1.0], "frequencies must be > 0"),
            ([0.5, 0.0], "frequencies must be > 0"),
        ]:
            err = self.rejected(self.make_template(), omegas)
            assert (err.field, str(err)) == ("omegas", f"omegas: {text}"), omegas

    def test_rejects_repeats_below_one_or_past_the_step_budget(self):
        err = self.rejected(self.make_template(), [1.0], 0)
        assert (err.field, str(err)) == ("n_repeat", "n_repeat: must be >= 1")
        steps = an.sweep_steps(self.make_template(), [1.0])
        err = self.rejected(self.make_template(), [1.0], MAX_STEPS)
        assert (err.field, str(err)) == (
            "n_repeat", f"n_repeat: the sweep would take more than {MAX_STEPS} steps "
            f"({MAX_STEPS} repeats of {steps})",
        )

    def test_one_trace_alive_at_a_time(self, monkeypatch):
        # a point's response is freed before the next point simulates
        traces = []

        def tracked(scn):
            assert [ref() for ref in traces] == [None] * len(traces)
            response = pressure_response(scn)
            traces.append(weakref.ref(response))
            return response

        monkeypatch.setattr(an, "pressure_response", tracked)
        points = an.frequency_sweep(self.make_template(), [2.0, 3.0, 4.0])
        assert [p.error for p in points] == [None] * 3 and len(traces) == 3

    def point_scenario(self, monkeypatch, omega: float) -> Scenario:
        """The scenario the sweep of the template runs at ``omega``, captured unsimulated."""
        points = []

        def capture(scn):
            points.append(scn)
            raise ValueError("not simulated")

        monkeypatch.setattr(an, "pressure_response", capture)
        an.frequency_sweep(self.make_template(), [omega])
        (scn,) = points
        return scn

    def test_point_stores_two_columns(self, monkeypatch):
        # a sweep point keeps p_cv and p_r, not the 11 columns of a TimeSeries
        scn = self.point_scenario(monkeypatch, 0.14)
        n_rows = scn.n_rows()
        assert n_rows > 70_000
        tracemalloc.start()
        try:
            response = pressure_response(scn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(response) == n_rows and peak < 3 * n_rows * 8

    def test_gain_holds_one_complex_buffer(self, monkeypatch):
        # the correlation is formed in place: the window's x (n floats) and one complex buffer
        # (2n) at most, well below the n-long index and three complex temporaries
        scn = self.point_scenario(monkeypatch, 0.14)
        t = np.arange(scn.n_rows()) / scn.sample_rate
        response = 21.0 + 21.0 * np.sin(2.0 * math.pi * 0.14 * t)
        tracemalloc.start()
        try:
            gain, periods = an._windowed_gain(response, 0.14, 21.0, scn.sample_rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = round(periods * scn.sample_rate / 0.14)
        assert n > 50_000 and gain == pytest.approx(1.0, abs=1e-3)
        assert peak < 4 * n * 8

    def test_per_point_failure_recorded_not_raised(self):
        # 300 Hz violates the sampling-rate precondition; other point succeeds
        points = an.frequency_sweep(self.make_template(), [0.05, 300.0])
        assert points[0].error is None
        assert points[1].error is not None
        assert math.isnan(points[1].gain)
