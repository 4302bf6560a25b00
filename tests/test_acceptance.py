"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (to the real stdout, so it survives pytest capture).
"""

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from czsim.benchmarking import (
    NoiseSpec,
    cz_xeb_pipeline,
    depolarized_purity_oracle,
    speckle_purity_experiment,
)
from czsim.calibration import (
    GateContext,
    ScanGrid,
    calibrated_length_sweep,
    compensation_curve,
    dressed_qubit_transitions,
    leakage_scan,
    phase_scan,
    repeated_gate_scan,
)
from czsim.cli import main
from czsim.distortion import DistortionModel, apply_distortion, predistort
from czsim.metrics import VirtualZAngles, cz_target, fit_virtual_z, wrap_angle
from czsim.propagator import propagate
from czsim.pulses import PulseShapeSpec, sample_pulse
from helpers import refine_schedule, with_levels


@pytest.fixture()
def criterion(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    @contextmanager
    def _criterion(num, name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"\nACCEPTANCE {num:02d} {name}: PASS", flush=True)

    return _criterion


def test_criterion_01_waveform_study(tmp_path, criterion):
    with criterion(1, "waveform study fidelity ordering"):
        t0 = time.time()
        fidelities = {}
        for family in ("slepian", "cosine", "square"):
            rc = main(["optimize", "--shape", family, "--max-iterations", "40",
                       "--output-dir", str(tmp_path)])
            assert rc == 0
            payload = json.loads((tmp_path / f"optimized_{family}.json").read_text())
            fidelities[family] = payload["report"]["fidelity"]
        assert fidelities["slepian"] >= 0.999
        assert fidelities["cosine"] >= 0.999
        assert fidelities["square"] < fidelities["slepian"]
        assert fidelities["square"] < fidelities["cosine"]
        assert time.time() - t0 < 300.0


def test_criterion_02_leakage_thresholds(gate_context, run_config, criterion):
    with criterion(2, "length-sweep leakage thresholds"):
        t0 = time.time()
        lengths = np.arange(20.0, 80.1, 5.0)
        for family in ("slepian", "cosine"):
            pulse = replace(run_config.pulse, family=family)
            records = calibrated_length_sweep(gate_context, pulse, lengths,
                                              seed_peak=-0.0217, seed_detune=-0.0138)
            for rec in records:
                if rec["length"] >= 45.0:
                    assert rec["leakage"] < 1e-4, (family, rec)
        square = calibrated_length_sweep(
            gate_context, replace(run_config.pulse, family="square"), lengths)
        leaks = [rec["leakage"] for rec in square]
        maxima = sum(
            1 for i in range(1, len(leaks) - 1)
            if leaks[i] >= leaks[i - 1] and leaks[i] >= leaks[i + 1]
            and leaks[i] >= 5e-4
        )
        assert maxima >= 2, leaks
        assert time.time() - t0 < 180.0


def test_criterion_03_compensation(device, terms, criterion):
    with criterion(3, "compensation flattening"):
        t0 = time.time()
        wc_idle = device.coupler.frequency
        wcs = np.linspace(wc_idle - 0.7, wc_idle, 21)
        curve = compensation_curve(device, wcs, terms=terms)
        ref1, ref2 = dressed_qubit_transitions(terms, wc_idle)
        raw_shift = np.array([dressed_qubit_transitions(terms, wc)[0] - ref1
                              for wc in wcs])
        fixed = np.array([dressed_qubit_transitions(terms, wc, d1, d2)
                          for wc, d1, d2 in curve])
        # Uncompensated dressed-Q1 shift is negative toward resonance.
        assert raw_shift[0] < -1e-3
        assert np.all(raw_shift[:-1] < 1e-9)
        span = np.ptp(raw_shift)
        residual_span = max(np.ptp(fixed[:, 0] - ref1), np.ptp(fixed[:, 1] - ref2))
        assert residual_span < 0.01 * span
        assert time.time() - t0 < 60.0


def test_criterion_04_calibration_point(gate_context, calibrated_gate, criterion):
    with criterion(4, "calibration scans and error amplification"):
        t0 = time.time()
        pulse, detune, _ = calibrated_gate
        grid = ScanGrid(
            coupling_axis=tuple(pulse.peak_value + np.linspace(-0.002, 0.002, 5)),
            detune_axis=tuple(detune + np.linspace(-0.004, 0.004, 5)),
        )
        leak = leakage_scan(gate_context, grid, pulse)
        phase = phase_scan(gate_context, grid, pulse)
        on_target = (leak.values < 1e-3) & (np.abs(np.abs(phase.values) - 180.0) < 0.5)
        assert np.any(on_target)

        # Inject a miscalibration via a Q2 detune offset and check that the
        # repeated-gate phase deviation grows linearly at the per-gate rate.
        n_list = [1, 3, 5, 7, 9, 11, 13]
        miscal = detune + 2.0e-3
        _, dev = repeated_gate_scan(gate_context, pulse, n_list,
                                    axis_values=[miscal], axis="detune")
        deviations = dev.values[0]
        per_gate = deviations[0]
        assert abs(per_gate) > 0.5  # injected error is visible
        slope = np.polyfit(n_list, deviations, 1)[0]
        assert slope == pytest.approx(per_gate, rel=0.05)
        assert time.time() - t0 < 300.0


def test_criterion_05_virtual_z_recovery(criterion):
    with criterion(5, "virtual-Z recovery"):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dp, dm = rng.uniform(-np.pi, np.pi, size=2)
            angles, fidelity = fit_virtual_z(cz_target(VirtualZAngles(dp, dm)))
            assert fidelity >= 1.0 - 1e-6
            err_p = wrap_angle(angles.delta_plus - dp)
            err_m = wrap_angle(angles.delta_minus - dm)
            same = abs(err_p) < 1e-4 and abs(err_m) < 1e-4
            shifted = (abs(wrap_angle(err_p - np.pi)) < 1e-4
                       and abs(wrap_angle(err_m - np.pi)) < 1e-4)
            assert same or shifted, (dp, dm, angles)
        assert time.time() - t0 < 10.0


def test_criterion_06_propagator_properties(gate_context, calibrated_gate, run_config, criterion):
    with criterion(6, "propagator convergence"):
        pulse, detune, report3 = calibrated_gate
        schedule = gate_context.build_schedule(pulse, detune)
        result = propagate(gate_context.terms, schedule)
        assert result.unitarity_defect < 1e-9
        refined = propagate(gate_context.terms, refine_schedule(schedule, 2))
        assert np.max(np.abs(result.propagator - refined.propagator)) < 1e-6
        ctx4 = GateContext(with_levels(run_config.device, 4), dt=run_config.dt)
        report4 = ctx4.report(pulse, detune)
        assert abs(report4.fidelity - report3.fidelity) < 5e-4


def test_criterion_07_xeb_recovery(criterion):
    with criterion(7, "XEB depolarizing recovery"):
        t0 = time.time()
        p = 0.0035
        run = cz_xeb_pipeline(noise=NoiseSpec(depolarizing_per_cycle=p), seed=11)
        assert run.cycle_fidelity == pytest.approx(1.0 - p, abs=0.002)
        clean = cz_xeb_pipeline(seed=11)
        tol = max(3.0 * clean.fidelity_fit["alpha_stderr"], 1e-6)
        assert abs(clean.cycle_fidelity - 1.0) < tol
        assert time.time() - t0 < 120.0


def test_criterion_08_spb_recovery(criterion):
    with criterion(8, "SPB purity recovery"):
        for p in (0.0, 0.0031, 0.02):
            purity, _ = speckle_purity_experiment(
                2, depth=20, n_circuits=100_000, depolarizing_per_cycle=p, seed=17)
            assert purity == pytest.approx(depolarized_purity_oracle(20, p),
                                           abs=0.005), p
        # Coherent-only error: purity stays ~1 while fidelity decays.
        gate = np.diag([1.0, 1.0, 1.0, np.exp(1j * (np.pi - 0.3))]).astype(complex)
        run = cz_xeb_pipeline(cz_gate=gate, depths=(2, 4, 6, 9, 13, 18),
                              n_circuits=300, seed=23)
        assert run.cycle_fidelity < 0.999
        assert run.cycle_purity_fidelity > 0.99
        assert run.cycle_purity_fidelity > run.cycle_fidelity


def test_criterion_09_predistortion_round_trip(criterion):
    with criterion(9, "predistortion round trip"):
        for family in ("square", "slepian", "cosine"):
            wf = sample_pulse(PulseShapeSpec(family, 45.0, -0.02), dt=0.05)
            for tau in (5.0, 50.0, 500.0):
                model = DistortionModel(settling_terms=((-0.1, tau),), gain=0.98)
                back = apply_distortion(model, predistort(model, wf)).samples
                scale = np.max(np.abs(wf.samples))
                assert np.max(np.abs(back - wf.samples)) / scale < 1e-6, (family, tau)


def test_criterion_10_determinism(tmp_path, criterion):
    with criterion(10, "CLI determinism"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": 12}))
        digests = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / run_dir
            rc = main(["gate", "--config", str(cfg), "--output-dir", str(out),
                       "--peak", "-0.0217399", "--detune", "-0.0138206"])
            assert rc == 0
            rc = main(["compensate", "--config", str(cfg), "--output-dir", str(out),
                       "--span", "0.3", "--points", "7"])
            assert rc == 0
            digest = {}
            for path in sorted(out.iterdir()):
                digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            digests.append(digest)
        assert digests[0] == digests[1]
