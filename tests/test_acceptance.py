"""Acceptance gate: one test per shipped performance criterion.

Each test prints a PASS/FAIL line (visible under pytest -s) and asserts the
criterion at its stated tolerance. Reference values for the shipped
configurations: inflation-limited step rate 79.37 kPa/s (catalog valve into
0.5 L at 689 kPa), discharge time constant 34.7 s (2 L bottle), sweep cutoff
1.35 Hz, demo cycle budget ~303.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from builders import discharge_scenario, step_scenario
from pneusim import analysis as an
from pneusim import cli
from pneusim import gasmodel as gm
from pneusim.gasmodel import replace
from pneusim.components import default_network
from pneusim.control import (
    ControllerConfig, ControllerState, Mode, control_step, passive_vent_coeff,
)
from pneusim.sim import SineCommand, mass_balance, simulate
from pneusim.sizing import (
    DesignRequirements,
    ReservoirOption,
    ValveOption,
    evaluate_design,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
R_CATALOG = 689.0 / (23.5 / 60.0)
SWEEP_OMEGAS = [0.14, 0.20, 0.30, 0.45, 0.68, 0.95, 1.35, 1.91, 2.70, 3.82, 5.40, 6.75]
REFERENCE_CUTOFF_HZ = 1.35


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def step_run():
    scn, _, _ = cli.load_scenario(SCENARIOS / "step_69kpa_half_liter.json")
    start = time.monotonic()
    ts = simulate(scn)
    return scn, ts, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_run():
    scn, _, _ = cli.load_scenario(SCENARIOS / "sweep_21kpa_half_liter.json")
    start = time.monotonic()
    points = an.frequency_sweep(scn, SWEEP_OMEGAS)
    return scn, points, time.monotonic() - start


def test_criterion_1_alpha_sanity():
    a = gm.alpha(gm.DEFAULT_GAS)
    ok = 99.3 <= a <= 103.3
    report("1 alpha sanity", ok, f"alpha={a:.4f} kPa, bounds [99.3, 103.3]")


def test_criterion_2_discharge_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    a = gm.alpha(gm.DEFAULT_GAS)
    for tau, dt in ((5.0, 1e-3), (34.7, 2e-3), (200.0, 5e-3)):
        v_r = 2.0
        r_v = tau * a / v_r
        scn = discharge_scenario(r_v=r_v, v_r=v_r, p_r0=689.0, duration=2.5 * tau, dt=dt)
        ts = simulate(scn)
        ref = 689.0 * np.exp(-ts.t / tau)
        worst = max(worst, an.nrmse(ts.p_r, ref, 689.0))
    elapsed = time.monotonic() - start
    ok = worst < 0.01 and elapsed < 5.0
    report(
        "2 discharge oracle equivalence",
        ok,
        f"worst nRMSE={worst:.2e} (<1%), runtime {elapsed:.2f}s (<5s)",
    )


def test_criterion_3_step_response(step_run):
    scn, ts, elapsed = step_run
    model_rate = gm.inflation_rate(689.0, scn.network.inflation_valve.r_vmin, 0.5, scn.gas)
    metrics = an.step_metrics(ts, 69.0, model_rate=model_rate)
    rate_err = abs(metrics.avg_rise_rate - model_rate) / model_rate
    ok = rate_err <= 0.05 and metrics.nrmse < 0.03 and elapsed < 2.0
    report(
        "3 step response",
        ok,
        f"avg rise {metrics.avg_rise_rate:.2f} vs model {model_rate:.2f} kPa/s "
        f"({100 * rate_err:.2f}% <= 5%), nRMSE={100 * metrics.nrmse:.2f}% (<3%), "
        f"runtime {elapsed:.2f}s (<2s)",
    )


def test_criterion_4_cutoff_frequencies(sweep_run):
    # closed-form evaluation with the back-derived maximum rates
    pairs = ((178.1, 21.0, 1.35), (68.4, 34.0, 0.32))
    unit_ok = all(
        float(f"{gm.cutoff_frequency(rate, amp):.3g}") == expected
        for rate, amp, expected in pairs
    )
    _, points, elapsed = sweep_run
    assert all(p.error is None for p in points), [p.error for p in points]
    knee = an.fit_rolloff_knee([p.omega for p in points], [p.gain for p in points])
    knee_err = abs(knee - REFERENCE_CUTOFF_HZ) / REFERENCE_CUTOFF_HZ
    passband = [p.gain for p in points if p.omega <= 0.5 * REFERENCE_CUTOFF_HZ]
    pass_ok = all(abs(g - 1.0) <= 0.05 for g in passband)
    ok = unit_ok and knee_err <= 0.15 and pass_ok and elapsed < 60.0
    report(
        "4 cutoff frequencies",
        ok,
        f"unit cutoffs 3sf ok={unit_ok}, fitted knee={knee:.3f} Hz vs 1.35 "
        f"({100 * knee_err:.1f}% <= 15%), pass-band gains "
        f"{min(passband):.3f}-{max(passband):.3f} in 1+-0.05, "
        f"sweep of {len(points)} points in {elapsed:.1f}s (<60s)",
    )


def test_sweep_rolloff_monotone(sweep_run):
    # saturation-dominated regime: gains strictly decrease beyond the knee
    _, points, _ = sweep_run
    rolloff = [p.gain for p in points if p.omega >= 0.95]
    assert all(b < a for a, b in zip(rolloff, rolloff[1:]))


def test_criterion_5_rolloff_shape(sweep_run):
    _, points, _ = sweep_run
    by_omega = {p.omega: p.gain for p in points}
    g2 = by_omega[2.70]
    g4 = by_omega[5.40]
    ok = abs(g2 - 0.5) / 0.5 <= 0.15 and abs(g4 - 0.25) / 0.25 <= 0.15
    report(
        "5 roll-off shape",
        ok,
        f"gain(2wc)={g2:.3f} vs 0.5 ({100 * abs(g2 - 0.5) / 0.5:.1f}%), "
        f"gain(4wc)={g4:.3f} vs 0.25 ({100 * abs(g4 - 0.25) / 0.25:.1f}%), both <= 15%",
    )


def test_criterion_6_cycle_count_prediction():
    req = DesignRequirements(v_cv=0.1, dp_cv=20.7, amplitude=20.7 / 2, freq_hz=0.55, min_cycles=30)
    valve = ValveOption(name="EVP", r_vmin=R_CATALOG, mass_g=77.0, p_inlet_max=690.0)
    bottle = ReservoirOption(name="PET-2L", v_r=2.0, mass_g=70.0, p_max=689.0)
    entry = evaluate_design(req, valve, bottle)
    ok = entry.feasible and 295.0 <= entry.n_cycles <= 315.0
    report(
        "6 cycle-count prediction",
        ok,
        f"n_cycles={entry.n_cycles:.1f} in [295, 315], feasible={entry.feasible}",
    )


def test_criterion_7_mass_conservation(step_run, sweep_run):
    step_scn, step_ts, _ = step_run
    imb_step = mass_balance(step_ts, step_scn)

    sweep_scn, _, _ = sweep_run
    point_scn = replace(
        sweep_scn,
        command=SineCommand(21.0, 2.70, 21.0),
        duration=5.0 / 2.70,
    )
    imb_sweep = mass_balance(simulate(point_scn), point_scn)

    fine = replace(step_scn, dt=step_scn.dt / 2, sample_rate=step_scn.sample_rate * 2)
    imb_fine = mass_balance(simulate(fine), fine)

    ok = imb_step < 1e-4 and imb_sweep < 1e-4 and 0.0 < imb_fine < imb_step
    report(
        "7 mass conservation",
        ok,
        f"step imbalance={imb_step:.2e}, sweep-point={imb_sweep:.2e} (both <1e-4), "
        f"dt/2 -> {imb_fine:.2e} (strictly reduced)",
    )


def test_criterion_8_controller_contract():
    # on/off engaged iff |e| > 1 kPa; boundary belongs to PID
    net = default_network()
    cfg = ControllerConfig()
    vent = passive_vent_coeff(net.solenoid.r_open, net.control_volume.v_cv)
    modes = {}
    for e in (1.0, -1.0, 1.0 + 1e-9, -(1.0 + 1e-9), 50.0, -50.0, 0.0):
        _, state = control_step(40.0 + e, 40.0, 0.0, cfg, vent, ControllerState())
        modes[e] = state.mode
    branch_ok = (
        modes[1.0] is Mode.PID
        and modes[-1.0] is Mode.PID
        and modes[0.0] is Mode.PID
        and modes[1.0 + 1e-9] is Mode.ON_OFF_INFLATE
        and modes[-(1.0 + 1e-9)] in (Mode.VENT, Mode.ACTIVE_DEFLATE)
        and modes[50.0] is Mode.ON_OFF_INFLATE
    )

    # active deflation engaged only beyond the passive venting capability
    cap = vent * 50.0
    gentle_cfg = replace(cfg, settle_horizon=1.0)
    _, gentle = control_step(48.0, 50.0, 0.0, gentle_cfg, vent, ControllerState())
    _, urgent = control_step(0.0, 50.0, -300.0, cfg, vent, ControllerState())
    vent_ok = gentle.mode is Mode.VENT and urgent.mode is Mode.ACTIVE_DEFLATE
    assert 2.0 / 1.0 < cap  # gentle case demand (2 kPa over 1 s) is below capability

    # steps within capability settle to +-0.5 kPa
    settle_ok = True
    settle_detail = []
    cases = [
        (30.0, 0.5, 689.0, 6.0),
        (69.0, 0.5, 689.0, 6.0),
        (20.7, 0.1, 689.0, 6.0),
        (100.0, 1.0, 345.0, 25.0),
    ]
    for target, v_cv, p_r0, duration in cases:
        scn = step_scenario(target, v_cv=v_cv, p_r0=p_r0, duration=duration, hold_reservoir=True)
        ts = simulate(scn)
        tail = ts.p_cv[ts.t >= 0.8 * duration]
        dev = float(np.max(np.abs(tail - target)))
        settle_detail.append(f"{target:g}kPa/{v_cv:g}L -> +-{dev:.3f}")
        settle_ok = settle_ok and dev <= 0.5

    ok = branch_ok and vent_ok and settle_ok
    report(
        "8 controller contract",
        ok,
        f"band boundary ok={branch_ok}, deflation policy ok={vent_ok}, "
        f"settling: {', '.join(settle_detail)} (all <=0.5 kPa)",
    )


def test_criterion_9_determinism(tmp_path):
    scn_path = SCENARIOS / "step_69kpa_half_liter.json"
    rc1 = cli.main(["simulate", str(scn_path), "--duration", "1.0", "--out", str(tmp_path / "a")])
    rc2 = cli.main(["simulate", str(scn_path), "--duration", "1.0", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "step_69kpa_half_liter_timeseries.csv").read_bytes()
    b = (tmp_path / "b" / "step_69kpa_half_liter_timeseries.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and a == b
    report("9 determinism", ok, f"{len(a)} bytes, reruns byte-identical={a == b}")


def test_criterion_10_discharge_fit():
    a = gm.alpha(gm.DEFAULT_GAS)
    worst = 0.0
    for tau, dt in ((1.0, 5e-4), (10.0, 1e-3), (100.0, 5e-3), (1000.0, 1e-2)):
        v_r = 2.0
        r_v = tau * a / v_r
        duration = min(3.0 * tau, 120.0)
        scn = discharge_scenario(r_v=r_v, v_r=v_r, p_r0=689.0, duration=duration, dt=dt)
        ts = simulate(scn)
        fit = an.fit_discharge_tau(ts.t, ts.p_r)
        worst = max(worst, abs(fit.tau_s - tau) / tau)
    ok = worst < 0.005
    report("10 discharge fit", ok, f"worst tau error={100 * worst:.4f}% (<0.5%)")
