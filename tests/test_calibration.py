from dataclasses import replace

import numpy as np
import pytest

from czsim.calibration import (
    CalibrationError,
    GateContext,
    ScanGrid,
    ScanResult,
    compensation_curve,
    dressed_qubit_transitions,
    leakage_scan,
    phase_scan,
    repeated_gate_scan,
)
from czsim.device import build_hamiltonian
from czsim.distortion import DistortionModel
from czsim.metrics import gate_report, project_computational
from czsim.propagator import propagate
from czsim.pulses import PulseShapeSpec


def test_scan_grid_validation():
    ScanGrid(coupling_axis=(-0.03, -0.02, -0.01))
    with pytest.raises(CalibrationError):
        ScanGrid(coupling_axis=(-0.03, -0.01, -0.02))
    with pytest.raises(CalibrationError):
        ScanResult(grid=ScanGrid(), values=np.zeros((2, 2)), kind="bogus")


def test_scan_result_csv(tmp_path):
    grid = ScanGrid(coupling_axis=(-0.03, -0.02), detune_axis=(-0.02, -0.01, 0.0))
    values = np.arange(6.0).reshape(2, 3)
    result = ScanResult(grid=grid, values=values, kind="leakage")
    path = tmp_path / "scan.csv"
    result.to_csv(path, np.asarray(grid.coupling_axis), np.asarray(grid.detune_axis),
                  header_lines=["test"])
    table = np.loadtxt(path, delimiter=",")
    assert table.shape == (3, 4)
    assert np.allclose(table[1:, 1:], values)
    assert np.allclose(table[0, 1:], grid.detune_axis)


def test_dressed_transitions_at_idle(terms, device):
    t1, t2 = dressed_qubit_transitions(terms, device.coupler.frequency)
    assert t1 == pytest.approx(5.0706, abs=0.005)
    assert t2 == pytest.approx(4.8834, abs=0.005)


def test_compensation_curve_signs_and_residuals(device, terms):
    wcs = np.linspace(device.coupler.frequency - 0.5, device.coupler.frequency, 6)
    curve = compensation_curve(device, wcs, terms=terms)
    ref1, ref2 = dressed_qubit_transitions(terms, device.coupler.frequency)
    for wc, dq1, dq2 in curve:
        # Compensation holds the dressed transitions at their idle values.
        t1, t2 = dressed_qubit_transitions(terms, wc, dq1, dq2)
        assert abs(t1 - ref1) < 1e-12
        assert abs(t2 - ref2) < 1e-12
    # Lowering the coupler toward the qubits repels the dressed qubit
    # levels downward, so the bare-frequency compensation is positive.
    assert curve[0][1] > 1e-4
    assert curve[0][2] > 1e-4
    # Offsets shrink monotonically to ~0 at the idle point.
    assert abs(curve[-1][1]) < 1e-8
    assert abs(curve[-1][2]) < 1e-8


@pytest.mark.parametrize("levels", [3, 4])
def test_compensation_curve_exact_from_floor_to_far_coupler(device, levels):
    spec = device.with_levels(levels)
    terms = build_hamiltonian(spec)
    g = spec.couplings
    ref = dressed_qubit_transitions(terms, spec.coupler.frequency)
    floor = max(spec.q1.frequency, spec.q2.frequency) + 0.1
    # Where the coupler-mediated and direct Q1 couplings cancel (J1 = 0).
    j1_zero = ref[0] + g.g_1c * g.g_2c / g.g_12
    wcs = np.append(np.linspace(floor, 60.0, 25), j1_zero)
    for wc, dq1, dq2 in compensation_curve(spec, wcs, terms=terms):
        held = dressed_qubit_transitions(terms, wc, dq1, dq2)
        assert np.max(np.abs(np.subtract(held, ref))) <= 1e-12, wc


def test_schedule_offsets_hold_dressed_transitions(gate_context):
    pulse = PulseShapeSpec("slepian", 30.0, 0.0, -0.02)
    s1 = gate_context.build_schedule(pulse)
    s2 = gate_context.build_schedule(pulse)
    assert np.array_equal(s1.qubit_offsets["Q1"].samples, s2.qubit_offsets["Q1"].samples)
    assert set(s1.qubit_offsets) == {"Q1", "Q2"}
    wc = s1.coupler_trajectory.samples
    dq1 = s1.qubit_offsets["Q1"].samples
    dq2 = s1.qubit_offsets["Q2"].samples
    terms = gate_context.terms
    ref = dressed_qubit_transitions(terms, gate_context.spec.coupler.frequency)
    for k in range(0, len(wc), 20):
        held = dressed_qubit_transitions(terms, wc[k], dq1[k], dq2[k])
        assert np.max(np.abs(np.subtract(held, ref))) <= 1e-9, k
    # Compensation tracks the pulse: offsets are ~0 at the idle endpoints
    # and positive at the peak, where the coupler dips toward the qubits.
    assert abs(dq1[0]) <= 1e-12
    assert abs(dq1[-1]) <= 1e-12
    assert dq1[len(dq1) // 2] > 1e-4


PINNED_PEAK = -0.0217399
PINNED_DETUNE = -0.0138206


def test_gate_does_not_depend_on_context_history(run_config):
    """One (pulse, detune) gives one schedule and one report, whatever the
    context built before."""
    pulse = replace(run_config.pulse, peak_value=PINNED_PEAK)
    fresh = GateContext(run_config.device, dt=run_config.dt)
    used = GateContext(run_config.device, dt=run_config.dt)
    for peak in (-0.0257399, -0.0240):
        used.build_schedule(replace(pulse, peak_value=peak), PINNED_DETUNE)
    a = fresh.build_schedule(pulse, PINNED_DETUNE)
    b = used.build_schedule(pulse, PINNED_DETUNE)
    assert np.array_equal(a.coupler_trajectory.samples, b.coupler_trajectory.samples)
    for mode in ("Q1", "Q2"):
        assert np.array_equal(a.qubit_offsets[mode].samples, b.qubit_offsets[mode].samples)
    ra = fresh.report(pulse, PINNED_DETUNE)
    rb = used.report(pulse, PINNED_DETUNE)
    assert np.array_equal(ra.projected_map, rb.projected_map)
    assert ra.to_dict() == rb.to_dict()


@pytest.mark.parametrize("family", ["slepian", "cosine", "square"])
def test_gate_run_propagates_only_computational_blocks(gate_context, run_config, family):
    pulse = replace(run_config.pulse, family=family, peak_value=PINNED_PEAK)
    restricted = gate_context.run(pulse, PINNED_DETUNE)
    full = propagate(gate_context.terms, gate_context.build_schedule(pulse, PINNED_DETUNE),
                     basis=gate_context.basis)
    u = restricted.propagator
    kept = np.concatenate(gate_context.blocks)
    dropped = np.setdiff1d(np.arange(gate_context.terms.dimension), kept)
    assert not u[dropped].any() and not u[:, dropped].any()
    sub = np.ix_(kept, kept)
    assert np.max(np.abs(u[sub] - full.propagator[sub])) <= 1e-12
    a, b = gate_report(restricted), gate_report(full)
    assert np.max(np.abs(a.projected_map - b.projected_map)) <= 1e-10
    for field in ("fidelity", "leakage_from_11", "conditional_phase", "subspace_trace_loss"):
        assert abs(getattr(a, field) - getattr(b, field)) <= 1e-10, field


def test_gate_run_diagonalizes_no_block_above_six_states(gate_context, run_config, monkeypatch):
    # At 3 levels the N <= 2 sectors have 1, 3 and 6 states; the 7-state
    # N = 3 sector must not be diagonalized for a gate.
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    gate_context.run(replace(run_config.pulse, peak_value=PINNED_PEAK), PINNED_DETUNE)
    assert sizes and max(sizes) <= 6


def test_schedule_below_compensation_table_rejected(gate_context):
    # A square pulse at g_eff = -0.030 holds the coupler near 5.142 GHz,
    # below the compensation floor 0.1 GHz above the upper qubit.
    pulse = PulseShapeSpec("square", 45.0, 0.0, -0.030)
    with pytest.raises(CalibrationError, match="below the compensation floor"):
        gate_context.build_schedule(pulse)
    with pytest.raises(CalibrationError):
        gate_context.report(pulse)


def test_build_schedule_q2_detune_offset(gate_context):
    pulse = PulseShapeSpec("slepian", 30.0, 0.0, -0.02)
    base = gate_context.build_schedule(pulse)
    detuned = gate_context.build_schedule(pulse, q2_detune=-0.014)
    dq2 = detuned.qubit_offsets["Q2"].samples - base.qubit_offsets["Q2"].samples
    assert np.allclose(dq2, -0.014, atol=1e-12)
    assert np.allclose(detuned.qubit_offsets["Q1"].samples,
                       base.qubit_offsets["Q1"].samples, atol=1e-12)


def test_build_schedule_applies_predistortion(run_config):
    model = DistortionModel(settling_terms=((-0.05, 40.0),))
    plain = GateContext(run_config.device, dt=run_config.dt)
    lined = GateContext(run_config.device, dt=run_config.dt, distortion=model)
    pulse = PulseShapeSpec("slepian", 30.0, 0.0, -0.02)
    wf_plain = plain.build_schedule(pulse).coupler_trajectory.samples
    wf_lined = lined.build_schedule(pulse).coupler_trajectory.samples
    assert np.max(np.abs(wf_plain - wf_lined)) > 1e-5
    from czsim.distortion import apply_distortion
    from czsim.pulses import SampledWaveform

    recovered = apply_distortion(model, SampledWaveform(
        run_config.dt, wf_lined, "coupler_frequency")).samples
    assert np.max(np.abs(recovered - wf_plain)) < 1e-9


def test_calibrated_gate_quality(calibrated_gate):
    pulse, detune, report = calibrated_gate
    assert report.fidelity > 0.99999
    assert report.leakage_from_11 < 1e-4
    assert -0.03 < pulse.peak_value < -0.01
    assert -0.03 < detune < -0.005


def test_leakage_and_phase_scans_bracket_operating_point(gate_context, calibrated_gate):
    pulse, detune, report = calibrated_gate
    grid = ScanGrid(
        coupling_axis=tuple(pulse.peak_value + np.linspace(-0.002, 0.002, 3)),
        detune_axis=tuple(detune + np.linspace(-0.004, 0.004, 3)),
    )
    leak = leakage_scan(gate_context, grid, pulse)
    phase = phase_scan(gate_context, grid, pulse)
    assert leak.values.shape == (3, 3)
    assert np.all(leak.values >= 0.0)
    # Center of the grid is the calibrated point.
    assert leak.values[1, 1] == pytest.approx(report.leakage_from_11, abs=1e-8)
    assert abs(abs(phase.values[1, 1]) - 180.0) < 0.1
    assert np.min(leak.values) <= leak.values[1, 1] + 1e-12


def test_repeated_gate_scan_shapes_and_growth(gate_context, calibrated_gate):
    pulse, detune, _ = calibrated_gate
    axis = pulse.peak_value + np.linspace(-0.001, 0.001, 3)
    leak, dev = repeated_gate_scan(gate_context, pulse, n_list=[1, 3, 5],
                                   axis_values=axis, axis="coupling",
                                   q2_detune=detune)
    assert leak.values.shape == (3, 3)
    assert dev.values.shape == (3, 3)
    assert dev.kind == "phase_deviation_deg"
    # At the calibrated point the deviation stays tiny as gates repeat.
    assert np.all(np.abs(dev.values[1]) < 1.0)
    # Off-point phase deviation is amplified with gate count.
    assert abs(dev.values[0, 2]) > abs(dev.values[0, 0])
    with pytest.raises(CalibrationError):
        repeated_gate_scan(gate_context, pulse, [1], axis, axis="bogus")


@pytest.mark.parametrize("n_list", [[5, 1], [1, 3, 3], [0, 1], []])
def test_repeated_gate_scan_rejects_unordered_counts(gate_context, run_config, n_list):
    # Columns are labelled in the caller's order, so a count list the scan
    # would have to reorder, or one holding N < 1, is refused.
    with pytest.raises(CalibrationError, match="strictly increasing"):
        repeated_gate_scan(gate_context, run_config.pulse, n_list, [-0.0217], q2_detune=-0.0138)
