import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from pneusim import gasmodel as gm
from pneusim.sizing import (
    ComponentCatalog,
    DesignRequirements,
    ReservoirOption,
    ValveOption,
    VenturiOption,
    enumerate_catalog,
    evaluate_design,
)

R_CATALOG = 689.0 / (23.5 / 60.0)

EVP = ValveOption(name="EVP", r_vmin=R_CATALOG, mass_g=77.0, p_inlet_max=690.0)
BOTTLE = ReservoirOption(name="PET-2L", v_r=2.0, mass_g=70.0, p_max=689.0)

DEMO = DesignRequirements(v_cv=0.1, dp_cv=20.7, amplitude=20.7 / 2.0, freq_hz=0.55, min_cycles=30)


class TestRequirements:
    def test_rate_derived_from_amplitude_and_frequency(self):
        assert DEMO.demanded_rate() == pytest.approx(35.767, abs=5e-3)

    def test_explicit_rate_wins(self):
        req = DesignRequirements(v_cv=0.1, dp_cv=20.7, pdot_d=50.0, amplitude=10.0, freq_hz=0.5)
        assert req.demanded_rate() == 50.0

    def test_needs_rate_or_pair(self):
        with pytest.raises(ValueError):
            DesignRequirements(v_cv=0.1, dp_cv=20.7)
        with pytest.raises(ValueError):
            DesignRequirements(v_cv=0.1, dp_cv=20.7, amplitude=10.0)

    def test_reference_amplitude_defaults_to_half_swing(self):
        req = DesignRequirements(v_cv=0.1, dp_cv=20.7, pdot_d=35.8)
        assert req.reference_amplitude() == pytest.approx(10.35)


class TestEvaluateDesign:
    def test_demo_build(self):
        entry = evaluate_design(DEMO, EVP, BOTTLE)
        assert entry.feasible
        assert entry.p_r0 == 689.0
        assert not entry.pressure_derated
        assert entry.n_cycles == pytest.approx(302.85, abs=0.2)
        assert entry.min_p_r == pytest.approx(62.10, abs=0.08)
        assert entry.total_mass_g == pytest.approx(147.0)
        # at the depletion floor the cutoff equals the demanded frequency
        assert entry.cutoff_hz_floor == pytest.approx(0.55, rel=1e-9)
        assert entry.cutoff_hz_full == pytest.approx(6.10, abs=0.01)

    def test_cycle_budget_single_code_path(self):
        entry = evaluate_design(DEMO, EVP, BOTTLE)
        direct = gm.n_cycles(689.0, 0.1, R_CATALOG, DEMO.demanded_rate(), 2.0, 20.7)
        assert entry.n_cycles == direct

    def test_zero_demand_limit(self):
        req = DesignRequirements(v_cv=0.1, dp_cv=20.7, pdot_d=1e-12)
        entry = evaluate_design(req, EVP, BOTTLE)
        assert entry.n_cycles == pytest.approx(0.5 * 689.0 * 2.0 / (0.1 * 20.7), rel=1e-6)
        assert entry.min_p_r == pytest.approx(0.0, abs=1e-9)

    def test_undersized_reservoir_pressure_flagged(self):
        weak = ReservoirOption(name="weak", v_r=2.0, mass_g=70.0, p_max=40.0)
        entry = evaluate_design(DEMO, EVP, weak)
        assert not entry.feasible
        assert "reservoir pressure" in entry.limiting

    def test_rating_mismatch_derates_operating_pressure(self):
        hot = ReservoirOption(name="hot", v_r=2.0, mass_g=120.0, p_max=900.0)
        entry = evaluate_design(DEMO, EVP, hot)
        assert entry.pressure_derated
        assert entry.p_r0 == 690.0

    def test_cycle_shortfall_flagged(self):
        req = DesignRequirements(
            v_cv=0.1, dp_cv=20.7, amplitude=10.35, freq_hz=0.55, min_cycles=1e6
        )
        entry = evaluate_design(req, EVP, BOTTLE)
        assert not entry.feasible
        assert "cycle count" in entry.limiting

    @given(
        scale=st.floats(min_value=0.1, max_value=0.95),
    )
    @settings(max_examples=30)
    def test_relaxing_requirements_preserves_feasibility(self, scale):
        base = DesignRequirements(
            v_cv=0.1, dp_cv=20.7, pdot_d=35.8, min_cycles=100.0
        )
        entry = evaluate_design(base, EVP, BOTTLE)
        if entry.feasible:
            relaxed = DesignRequirements(
                v_cv=0.1,
                dp_cv=20.7,
                pdot_d=35.8 * scale,
                min_cycles=100.0 * scale,
            )
            assert evaluate_design(relaxed, EVP, BOTTLE).feasible


class TestEnumerateCatalog:
    def test_single_combination(self):
        report = enumerate_catalog(DEMO, ComponentCatalog(valves=(EVP,), reservoirs=(BOTTLE,)))
        assert len(report.feasible) == 1
        assert report.feasible[0].n_cycles == pytest.approx(302.85, abs=0.2)
        assert not report.infeasible

    def test_lighter_build_ranks_first(self):
        heavy = ValveOption(name="heavy", r_vmin=R_CATALOG, mass_g=300.0, p_inlet_max=690.0)
        cat = ComponentCatalog(valves=(heavy, EVP), reservoirs=(BOTTLE,))
        report = enumerate_catalog(DEMO, cat)
        assert [e.valve for e in report.feasible] == ["EVP", "heavy"]

    def test_mass_tie_broken_by_cycles(self):
        small = ReservoirOption(name="small", v_r=1.0, mass_g=70.0, p_max=689.0)
        cat = ComponentCatalog(valves=(EVP,), reservoirs=(small, BOTTLE))
        report = enumerate_catalog(DEMO, cat)
        assert [e.reservoir for e in report.feasible] == ["PET-2L", "small"]

    def test_impossible_requirements_empty_feasible_set(self):
        req = DesignRequirements(v_cv=0.1, dp_cv=20.7, pdot_d=35.8, min_cycles=1e6)
        report = enumerate_catalog(req, ComponentCatalog(valves=(EVP,), reservoirs=(BOTTLE,)))
        assert not report.feasible
        assert len(report.infeasible) == 1

    def test_deterministic_order(self):
        cat = ComponentCatalog(
            valves=(
                EVP,
                ValveOption(name="DVP", r_vmin=617.0, mass_g=139.0, p_inlet_max=690.0),
            ),
            reservoirs=(
                BOTTLE,
                ReservoirOption(name="PET-1L", v_r=1.0, mass_g=40.0, p_max=689.0),
            ),
            venturis=(
                VenturiOption(name="VR", p_vac_floor=-80.0, q_motive_rated=67 / 60, mass_g=20.0),
            ),
        )
        r1 = enumerate_catalog(DEMO, cat)
        r2 = enumerate_catalog(DEMO, cat)
        assert r1 == r2

    @pytest.mark.parametrize(
        "req",
        [
            DesignRequirements(v_cv=0.1, dp_cv=20.7, amplitude=60.0, freq_hz=2.0, min_cycles=100.0),
            DesignRequirements(v_cv=0.3, dp_cv=50.0, pdot_d=120.0, min_cycles=10.0),
        ],
    )
    def test_equals_evaluate_design_of_every_pair(self, req):
        rng = random.Random(40 * 6)
        ratings = (345.0, 517.0, 689.0, 1034.0)  # valve and reservoir ratings cross: some derate
        valves = tuple(
            ValveOption(name=f"V{i}", r_vmin=rng.uniform(200.0, 4000.0),
                        mass_g=rng.uniform(20.0, 200.0), p_inlet_max=rng.choice(ratings))
            for i in range(40)
        )
        reservoirs = tuple(
            ReservoirOption(name=f"R{j}", v_r=rng.uniform(0.1, 5.0),
                            mass_g=rng.uniform(20.0, 400.0), p_max=rng.choice(ratings))
            for j in range(6)
        )
        report = enumerate_catalog(req, ComponentCatalog(valves=valves, reservoirs=reservoirs))
        assert report.feasible and report.infeasible
        got = {(e.valve, e.reservoir): e for e in report.entries}
        expected = [evaluate_design(req, v, r) for v in valves for r in reservoirs]
        assert len(got) == len(expected) == 240
        hexed = lambda e: [float.hex(x) if isinstance(x, float) else x for x in astuple(e)]
        for ref in expected:
            entry = got[ref.valve, ref.reservoir]
            assert entry == ref
            assert hexed(entry) == hexed(ref)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            ComponentCatalog(valves=(), reservoirs=(BOTTLE,))
