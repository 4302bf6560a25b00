from dataclasses import replace

import numpy as np
import pytest

from czsim import calibration, propagator
from czsim.calibration import (
    CalibrationError,
    GateContext,
    ScanGrid,
    ScanResult,
    calibrate_cz,
    calibrated_length_sweep,
    compensation_curve,
    dressed_qubit_transitions,
    leakage_scan,
    phase_scan,
    repeated_gate_scan,
)
from czsim.device import build_hamiltonian, zero_coupling_point
from czsim.distortion import DistortionModel, apply_distortion
from czsim.metrics import gate_report, project_computational, wrap_angle
from czsim.propagator import ControlSchedule, propagate
from czsim.pulses import PulseShapeSpec, SampledWaveform
from helpers import eigh_propagate, with_levels


def test_scan_grid_validation():
    ScanGrid(coupling_axis=(-0.03, -0.02, -0.01))
    with pytest.raises(CalibrationError):
        ScanGrid(coupling_axis=(-0.03, -0.01, -0.02))
    with pytest.raises(CalibrationError):
        ScanResult(values=np.zeros((2, 2)), kind="bogus")


def test_scan_result_csv(tmp_path):
    couplings, detunes = np.array([-0.03, -0.02]), np.array([-0.02, -0.01, 0.0])
    values = np.arange(6.0).reshape(2, 3)
    result = ScanResult(values=values, kind="leakage")
    path = tmp_path / "scan.csv"
    result.to_csv(path, couplings, detunes, header_lines=["test"])
    table = np.loadtxt(path, delimiter=",")
    assert table.shape == (3, 4)
    assert np.allclose(table[1:, 1:], values)
    assert np.allclose(table[0, 1:], detunes)
    assert np.allclose(table[1:, 0], couplings)


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
    spec = with_levels(device, levels)
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
    pulse = PulseShapeSpec("slepian", 30.0, -0.02)
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
    # N = 3 sector must be neither exponentiated step by step nor
    # diagonalized for its idle frame for a gate.
    substep_sizes, frame_sizes = [], []
    substep_unitaries = propagator._substep_unitaries
    eigh = np.linalg.eigh

    def recording_substeps(h, tau):
        substep_sizes.append(h.shape[-1])
        return substep_unitaries(h, tau)

    def recording_eigh(a, *args, **kwargs):
        frame_sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(propagator, "_substep_unitaries", recording_substeps)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    gate_context.run(replace(run_config.pulse, peak_value=PINNED_PEAK), PINNED_DETUNE)
    assert sorted(substep_sizes) == [1, 3, 6]
    assert frame_sizes and max(frame_sizes) <= 6


def _substep_counts(monkeypatch, terms, schedule, blocks):
    """Propagate, recording how many substep matrices reach the exponential
    per block, and check the result against the eigh reference kernel."""
    counts = []
    substep_unitaries = propagator._substep_unitaries

    def recording_substeps(h, tau):
        counts.append(len(h))
        return substep_unitaries(h, tau)

    monkeypatch.setattr(propagator, "_substep_unitaries", recording_substeps)
    new = propagate(terms, schedule, blocks=blocks)
    old = eigh_propagate(terms, schedule, blocks)
    assert np.max(np.abs(new.propagator - old.propagator)) <= 1e-11
    assert len(counts) == len(blocks)
    return counts


@pytest.mark.parametrize("family, most", [("slepian", 900), ("square", 5)])
def test_symmetric_gate_evolves_half_its_substeps(gate_context, family, most, monkeypatch):
    # A 45 ns gate at dt 0.05 has 900 steps (902 for the padded square),
    # 1,800 substeps; the half path exponentiates at most the first 900,
    # and the square's plateau is one run.
    pulse = PulseShapeSpec(family, 45.0, PINNED_PEAK)
    schedule = gate_context.build_schedule(pulse, PINNED_DETUNE)
    counts = _substep_counts(monkeypatch, gate_context.terms, schedule, gate_context.blocks)
    assert max(counts) <= most


def test_asymmetric_schedules_take_the_full_path(run_config, gate_context, monkeypatch):
    pulse = PulseShapeSpec("slepian", 45.0, PINNED_PEAK)
    schedule = gate_context.build_schedule(pulse, PINNED_DETUNE)
    dq2 = schedule.qubit_offsets["Q2"].samples.copy()
    dq2[300] += 1e-12
    nudged = ControlSchedule(schedule.coupler_trajectory, {
        "Q1": schedule.qubit_offsets["Q1"],
        "Q2": replace(schedule.qubit_offsets["Q2"], samples=dq2)})
    lined = GateContext(run_config.device, dt=run_config.dt,
                        distortion=DistortionModel(settling_terms=((-0.01, 40.0),)))
    predistorted = lined.build_schedule(pulse, PINNED_DETUNE)
    for asymmetric in (nudged, predistorted):
        counts = _substep_counts(monkeypatch, gate_context.terms, asymmetric,
                                 gate_context.blocks)
        assert min(counts) > 900


def test_staircase_runs_match_eigh_reference(gate_context, monkeypatch):
    # Plateaus of 1, 2, 7 and 300 steps: runs of 2, 4, 14 and 600 equal
    # substeps between single ramp steps, in no mirror order.
    idle = gate_context.idle
    levels = idle - np.array([0.05, 0.4, 0.1, 0.25])
    lengths = np.array([1, 2, 7, 300])
    wc = np.concatenate(([idle], np.repeat(levels, lengths + 1), [idle]))
    wf = SampledWaveform(gate_context.dt, wc, "coupler_frequency")
    offsets = {"Q2": SampledWaveform(gate_context.dt, np.full(len(wc), -0.01),
                                     "coupler_frequency")}
    schedule = ControlSchedule(wf, offsets)
    terms = gate_context.terms
    counts = _substep_counts(monkeypatch, terms, schedule, terms.blocks)
    # The two ramp substeps of each of the five ramp steps, and one per plateau.
    assert max(counts) == 2 * 5 + 4


@pytest.mark.parametrize("family", ["slepian", "cosine", "square"])
@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_propagate_matches_eigh_reference(run_config, family, dt):
    """The batched Taylor exponential against the eigendecomposition
    kernel it replaced, on the gate blocks and on the full space; at dt 0.2
    the substep norm bound is ~1.4, so the scaled branch runs."""
    ctx = GateContext(run_config.device, dt=dt)
    for length, peak in ((30.0, -0.0255), (45.0, PINNED_PEAK), (60.0, -0.0175)):
        pulse = replace(run_config.pulse, family=family, length=length, peak_value=peak)
        schedule = ctx.build_schedule(pulse, PINNED_DETUNE)
        for blocks in (ctx.blocks, ctx.terms.blocks):
            new = propagate(ctx.terms, schedule, basis=ctx.basis, blocks=blocks)
            old = eigh_propagate(ctx.terms, schedule, blocks)
            assert np.max(np.abs(new.propagator - old.propagator)) <= 1e-11
            assert new.unitarity_defect <= old.unitarity_defect
            a, b = gate_report(new), gate_report(old)
            assert abs(a.fidelity - b.fidelity) <= 1e-11
            assert abs(a.leakage_from_11 - b.leakage_from_11) <= 1e-11
            assert np.degrees(abs(wrap_angle(a.conditional_phase - b.conditional_phase))) <= 1e-9


def test_schedule_below_compensation_table_rejected(gate_context):
    # A square pulse at g_eff = -0.030 holds the coupler near 5.142 GHz,
    # below the compensation floor 0.1 GHz above the upper qubit.
    pulse = PulseShapeSpec("square", 45.0, -0.030)
    with pytest.raises(CalibrationError, match="below the compensation floor"):
        gate_context.build_schedule(pulse)
    with pytest.raises(CalibrationError):
        gate_context.report(pulse)


def test_build_schedule_q2_detune_offset(gate_context):
    pulse = PulseShapeSpec("slepian", 30.0, -0.02)
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
    pulse = PulseShapeSpec("slepian", 30.0, -0.02)
    wf_plain = plain.build_schedule(pulse).coupler_trajectory.samples
    wf_lined = lined.build_schedule(pulse).coupler_trajectory.samples
    assert np.max(np.abs(wf_plain - wf_lined)) > 1e-5
    # The filter assumes a line settled at 0, so it acts on the excursion
    # from idle and the schedule starts exactly at idle.
    idle = zero_coupling_point(run_config.device)
    assert wf_lined[0] == idle
    recovered = apply_distortion(model, SampledWaveform(
        run_config.dt, wf_lined - idle, "coupler_frequency")).samples
    assert np.max(np.abs(idle + recovered - wf_plain)) < 1e-9


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


def _recorded_reports(monkeypatch, ctx):
    """Record the (peak, detune) of every report the context computes."""
    points = []
    report = ctx.report

    def recording_report(pulse, q2_detune=0.0):
        points.append((pulse.peak_value, q2_detune))
        return report(pulse, q2_detune)

    monkeypatch.setattr(ctx, "report", recording_report)
    return points


@pytest.mark.parametrize("seeds, nm_iterations", [((-0.0217, -0.0138), 200), ((None, None), 6)])
def test_calibrate_cz_evaluates_each_point_once(gate_context, run_config, monkeypatch,
                                                seeds, nm_iterations):
    # The grid's best point is the simplex's first vertex and the simplex's
    # best vertex is the final report: each is evaluated once.
    points = _recorded_reports(monkeypatch, gate_context)
    pulse, detune, report = calibrate_cz(gate_context, run_config.pulse, *seeds,
                                         nm_iterations=nm_iterations)
    assert len(points) == len(set(points))
    if seeds[0] is None:
        assert len(points) > 110
    monkeypatch.undo()
    again = gate_context.report(pulse, detune)
    assert np.array_equal(again.projected_map, report.projected_map)
    assert again.fidelity == report.fidelity


@pytest.mark.parametrize("lengths", [(40.0, 45.0, 50.0), (50.0,)])
def test_length_sweep_calibrates_the_seed_length_once(gate_context, run_config, monkeypatch,
                                                      lengths):
    # The seed length gets one full calibrate_cz from the seeds; every other
    # length continues from its inner neighbour with the 18-update cap.
    pulse = replace(run_config.pulse, family="cosine")
    seed = calibrate_cz(gate_context, replace(pulse, length=45.0), -0.0217, -0.0138)
    calls = []

    def recording_calibrate(ctx, p, seed_peak=None, seed_detune=None, nm_iterations=200):
        calls.append((p.length, nm_iterations))
        return calibrate_cz(ctx, p, seed_peak, seed_detune, nm_iterations)

    monkeypatch.setattr(calibration, "calibrate_cz", recording_calibrate)
    records = calibrated_length_sweep(gate_context, pulse, lengths, seed_peak=-0.0217,
                                      seed_detune=-0.0138, seed_length=45.0)
    assert calls[0] == (45.0, 200)
    assert sorted(calls[1:]) == [(v, 18) for v in lengths if v != 45.0]
    assert [rec["length"] for rec in records] == list(lengths)
    if 45.0 in lengths:
        rec = records[lengths.index(45.0)]
        cal, det, rep = seed
        assert (rec["peak_value"], rec["q2_detune"]) == (cal.peak_value, det)
        assert (rec["fidelity"], rec["leakage"]) == (rep.fidelity, rep.leakage_from_11)
