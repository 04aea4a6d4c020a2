import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pneusim import components as cp
from pneusim import gasmodel as gm
from pneusim import sim


class TestSpecsValidation:
    def test_reservoir_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            cp.Reservoir(v_r=0.0, p_r0=689.0)

    def test_pressures_cannot_be_below_vacuum(self):
        with pytest.raises(ValueError):
            cp.ControlVolume(v_cv=0.5, p_cv=-200.0)
        with pytest.raises(ValueError):
            cp.Reservoir(v_r=1.0, p_r0=-150.0)

    def test_valve_deadband_range(self):
        with pytest.raises(ValueError):
            cp.ProportionalValveSpec(u0=1.0)
        with pytest.raises(ValueError):
            cp.ProportionalValveSpec(u0=-0.1)

    def test_venturi_floor_range(self):
        with pytest.raises(ValueError):
            cp.VenturiSpec(p_vac_floor=0.0)
        with pytest.raises(ValueError):
            cp.VenturiSpec(p_vac_floor=-150.0)

    def test_sensor_noise_must_be_finite(self):
        # an infinite draw would saturate every reading; a file already refuses it
        with pytest.raises(gm.FieldError, match=r"^SensorSpec\.noise_std: must be finite$") as err:
            cp.SensorSpec(noise_std=math.inf)
        assert err.value.field == "noise_std"


class TestProportionalValveFlow:
    def test_closed_valve(self):
        spec = cp.ProportionalValveSpec()
        assert cp.proportional_valve_flow(0.0, 689.0, spec) == 0.0

    def test_full_command_matches_rated_flow(self):
        spec = cp.ProportionalValveSpec(r_vmin=1759.2, u0=0.0)
        assert cp.proportional_valve_flow(1.0, 689.0, spec) == pytest.approx(
            23.5 / 60.0, rel=5e-4
        )

    def test_half_command_halves_flow_without_deadband(self):
        spec = cp.ProportionalValveSpec(r_vmin=1759.2, u0=0.0)
        full = cp.proportional_valve_flow(1.0, 689.0, spec)
        assert cp.proportional_valve_flow(0.5, 689.0, spec) == pytest.approx(full / 2, rel=1e-12)

    def test_no_flow_below_deadband(self):
        spec = cp.ProportionalValveSpec(r_vmin=100.0, u0=0.2)
        assert cp.proportional_valve_flow(0.2, 689.0, spec) == 0.0
        assert cp.proportional_valve_flow(0.19, 689.0, spec) == 0.0
        assert cp.proportional_valve_flow(0.21, 689.0, spec) > 0.0

    def test_full_command_equals_ohm_flow_exactly(self):
        spec = cp.ProportionalValveSpec(r_vmin=1759.2, u0=0.0)
        for dp in (689.0, -10.0, 0.3, 123.456):
            assert cp.proportional_valve_flow(1.0, dp, spec) == gm.flow_from_ohm(dp, 1759.2)

    def test_rejects_out_of_range_command(self):
        spec = cp.ProportionalValveSpec()
        with pytest.raises(ValueError):
            cp.proportional_valve_flow(1.1, 10.0, spec)
        with pytest.raises(ValueError):
            cp.proportional_valve_flow(-0.01, 10.0, spec)

    @given(u0=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(u0=1 - 2**-53)
    def test_shut_and_full_commands_are_their_own_fractions(self, u0):
        # the closed loop writes the motive valve's 0.0 or 1.0 command as its fraction
        spec = cp.ProportionalValveSpec(u0=u0)
        assert cp.valve_fraction(1.0, spec) == 1.0
        assert cp.valve_fraction(0.0, spec) == 0.0

    @given(
        u1=st.floats(min_value=0.0, max_value=1.0),
        u2=st.floats(min_value=0.0, max_value=1.0),
        dp=st.floats(min_value=0.0, max_value=1000.0),
        u0=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_monotone_in_command_linear_in_dp(self, u1, u2, dp, u0):
        spec = cp.ProportionalValveSpec(r_vmin=500.0, u0=u0)
        lo, hi = sorted((u1, u2))
        assert cp.proportional_valve_flow(lo, dp, spec) <= cp.proportional_valve_flow(hi, dp, spec)
        assert cp.proportional_valve_flow(u1, 2 * dp, spec) == pytest.approx(
            2 * cp.proportional_valve_flow(u1, dp, spec), rel=1e-12, abs=1e-15
        )


class TestVenturi:
    def test_no_motive_flow_means_atmosphere(self):
        assert cp.venturi_vacuum_pressure(0.0, cp.VenturiSpec()) == 0.0

    def test_rated_flow_reaches_floor(self):
        spec = cp.VenturiSpec(p_vac_floor=-80.0, q_motive_rated=1.0)
        assert cp.venturi_vacuum_pressure(1.0, spec) == -80.0

    def test_linear_ramp(self):
        spec = cp.VenturiSpec(p_vac_floor=-80.0, q_motive_rated=1.0)
        assert cp.venturi_vacuum_pressure(0.5, spec) == -40.0

    def test_clamped_beyond_rated(self):
        spec = cp.VenturiSpec(p_vac_floor=-80.0, q_motive_rated=1.0)
        assert cp.venturi_vacuum_pressure(5.0, spec) == -80.0

    @given(q=st.floats(min_value=0.0, max_value=10.0))
    def test_bounded_and_monotone(self, q):
        spec = cp.VenturiSpec(p_vac_floor=-80.0, q_motive_rated=1.1167)
        p = cp.venturi_vacuum_pressure(q, spec)
        assert -80.0 <= p <= 0.0
        assert cp.venturi_vacuum_pressure(q + 0.1, spec) <= p

    def test_rejects_negative_motive_flow(self):
        with pytest.raises(ValueError):
            cp.venturi_vacuum_pressure(-0.1, cp.VenturiSpec())


class TestDeflationFlow:
    def test_closed_solenoid(self):
        assert cp.deflation_flow(20.0, 0.0, False, cp.BinaryValveSpec()) == 0.0

    def test_open_to_atmosphere(self):
        spec = cp.BinaryValveSpec(r_open=100.0)
        assert cp.deflation_flow(20.0, 0.0, True, spec) == 0.2

    def test_no_reverse_flow(self):
        spec = cp.BinaryValveSpec(r_open=100.0)
        assert cp.deflation_flow(-5.0, 0.0, True, spec) == 0.0

    @given(
        p_cv=st.floats(min_value=-101.0, max_value=207.0),
        p_node=st.floats(min_value=-80.0, max_value=0.0),
        r=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_never_negative(self, p_cv, p_node, r):
        assert cp.deflation_flow(p_cv, p_node, True, cp.BinaryValveSpec(r_open=r)) >= 0.0


class TestSensorRead:
    def test_noise_free_identity(self):
        spec = cp.SensorSpec(range_max=207.0, noise_std=0.0)
        assert cp.sensor_read(50.0, spec, np.random.default_rng(0)) == 50.0

    def test_saturation(self):
        spec = cp.SensorSpec(range_max=207.0, noise_std=0.0)
        assert cp.sensor_read(300.0, spec, np.random.default_rng(0)) == 207.0

    def test_vacuum_clamp(self):
        spec = cp.SensorSpec(range_max=207.0, noise_std=5.0)
        rng = np.random.default_rng(3)
        assert cp.sensor_read(-101.3, spec, rng) >= -101.325

    def test_deterministic_for_fixed_seed(self):
        spec = cp.SensorSpec(range_max=207.0, noise_std=1.0, seed=42)
        a = [cp.sensor_read(50.0, spec, np.random.default_rng(spec.seed)) for _ in range(3)]
        rng1 = np.random.default_rng(spec.seed)
        rng2 = np.random.default_rng(spec.seed)
        seq1 = [cp.sensor_read(50.0, spec, rng1) for _ in range(5)]
        seq2 = [cp.sensor_read(50.0, spec, rng2) for _ in range(5)]
        assert seq1 == seq2
        assert a[0] == a[1] == a[2]

    def test_chunked_reader_equals_one_draw_per_read(self):
        # the closed loop draws its noise a block of COMMAND_BLOCK ticks at a time, and the
        # rest in its last block; numpy gives the same values as that many scalar draws, so
        # each reading equals sensor_read's one draw
        rng, sizes = np.random.default_rng(11), (sim.COMMAND_BLOCK, sim.COMMAND_BLOCK, 99)
        chunks = [x for size in sizes for x in rng.normal(0.0, 0.7, size=size).tolist()]
        rng = np.random.default_rng(11)
        draws = [float(rng.normal(0.0, 0.7)) for _ in chunks]
        assert [x.hex() for x in chunks] == [x.hex() for x in draws]
        spec, rng = cp.SensorSpec(range_max=207.0, noise_std=0.7), np.random.default_rng(11)
        p_true = [(-101.0, 0.0, 50.0, 206.8)[i % 4] for i in range(len(chunks))]
        expected = [min(max(p + x, -101.325), 207.0).hex() for p, x in zip(p_true, chunks)]
        assert [cp.sensor_read(p, spec, rng).hex() for p in p_true] == expected

    def test_noise_free_reader_draws_nothing(self):
        rng, spec = np.random.default_rng(0), cp.SensorSpec(range_max=207.0)
        readings = [cp.sensor_read(p, spec, rng) for p in (-0.0, 300.0, -200.0)]
        assert [x.hex() for x in readings] == [(-0.0).hex(), (207.0).hex(), (-101.325).hex()]
        assert rng.random() == np.random.default_rng(0).random()
        assert cp.sensor_read(50.0, spec, None) == 50.0


ALL_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -101.325, 207.0]
)


@settings(max_examples=300)
@given(
    value=ALL_FLOATS,
    range_max=st.floats(min_value=0.0, exclude_min=True) | st.sampled_from([5e-324, math.inf]),
    noise_std=st.sampled_from([0.0, 0.7]),
)
@example(value=-0.0, range_max=207.0, noise_std=0.0)
@example(value=math.nan, range_max=207.0, noise_std=0.7)
@example(value=-101.325, range_max=math.inf, noise_std=0.0)
def test_reader_clamp_equals_min_max(value, range_max, noise_std):
    # sensor_read's clamp, written as comparisons, against the builtins it replaces
    spec = cp.SensorSpec(range_max=range_max, noise_std=noise_std)
    noisy = value + np.random.default_rng(5).normal(0.0, noise_std) if noise_std else value
    expected = min(max(noisy, gm.PERFECT_VACUUM_KPA), range_max)
    assert cp.sensor_read(value, spec, np.random.default_rng(5)).hex() == expected.hex()
