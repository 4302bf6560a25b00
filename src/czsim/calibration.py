"""Calibration experiments run in simulation.

Covers frequency-shift compensation of the qubits against coupler motion,
the two-dimensional leakage / conditional-phase scans used to locate the
CZ operating point, and repeated-gate amplification scans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .device import (
    DeviceModelError,
    DeviceSpec,
    HamiltonianTerms,
    build_hamiltonian,
    dressed_basis,
    zero_coupling_point,
)
from .distortion import DistortionModel, predistort
from .metrics import (
    GateReport,
    computational_blocks,
    computational_vectors,
    conditional_phase,
    gate_report,
    leakage_from_11,
    nelder_mead_minimize,
    project_computational,
    wrap_angle,
)
from .propagator import ControlSchedule, PropagationResult, propagate
from .pulses import DEFAULT_DT, CouplingInverter, PulseShapeSpec, SampledWaveform, sample_pulse

SCAN_KINDS = ("leakage", "phase_deg", "phase_deviation_deg")


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class ScanGrid:
    """Axes for calibration scans; unused axes may be length-1."""

    coupling_axis: tuple[float, ...] = ()
    detune_axis: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("coupling_axis", "detune_axis"):
            axis = np.asarray(getattr(self, name))
            if len(axis) == 0:
                continue
            if len(axis) > 1 and not (np.all(np.diff(axis) > 0) or np.all(np.diff(axis) < 0)):
                raise CalibrationError(f"{name} must be strictly monotone")


@dataclass(frozen=True)
class ScanResult:
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in SCAN_KINDS:
            raise CalibrationError(f"unknown scan kind {self.kind!r}")

    def to_csv(self, path, row_axis: np.ndarray, col_axis: np.ndarray,
               header_lines: list[str] | None = None) -> None:
        """CSV with the first row/column carrying the axis values."""
        values = np.atleast_2d(self.values)
        table = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
        table[0, 0] = np.nan
        table[0, 1:] = col_axis
        table[1:, 0] = row_axis
        table[1:, 1:] = values
        header = "\n".join((header_lines or []) + [f"kind={self.kind}"])
        np.savetxt(path, table, delimiter=",", header=header, comments="# ", fmt="%.12g")


class GateContext:
    """Shared per-device state for building and propagating gate schedules.

    Holds the Hamiltonian terms, the idle dressed basis, the g_eff
    inverter and, with compensate on, the idle dressed qubit transitions
    that the exact compensation holds, all built once here, so a schedule
    depends only on (pulse, Q2 detune).  A schedule that dips below the
    compensation floor, 0.1 GHz above the upper qubit, raises CalibrationError.

    Every pulse is a g_eff excursion from 0, so the device's coupler must
    idle at its zero-coupling point, to within the inverter's tolerance;
    any other device raises DeviceModelError.

    `run` propagates only `blocks`, the invariant blocks that hold the
    computational states (the N <= 2 sectors at any truncation of the
    exchange-coupled model), since no gate metric reads the others.  Its
    propagator is zero outside them, and its unitarity defect is measured
    over their subspace.
    """

    def __init__(self, spec: DeviceSpec, dt: float = DEFAULT_DT, compensate: bool = True,
                 distortion: DistortionModel | None = None):
        idle = zero_coupling_point(spec)
        self._inverter = CouplingInverter(spec)
        if abs(spec.coupler.frequency - idle) > self._inverter.tol:
            raise DeviceModelError(
                f"coupler at {spec.coupler.frequency} GHz, not at its zero-coupling "
                f"point {idle} GHz, where every pulse starts and ends"
            )
        self.spec = spec
        self.idle = idle
        self.dt = dt
        self.terms = build_hamiltonian(spec)
        self.basis = dressed_basis(self.terms)
        self.blocks = computational_blocks(self.terms)
        self.distortion = distortion
        self.compensate = compensate
        if compensate:
            self._targets = dressed_qubit_transitions(self.terms, spec.coupler.frequency)

    def build_schedule(self, pulse: PulseShapeSpec, q2_detune: float = 0.0) -> ControlSchedule:
        """Coupler-frequency schedule for a pulse given in g_eff units.

        Applies the frequency-shift compensation to both qubits sample by
        sample, then adds the constant Q2 detune on top.  The optional line
        distortion model predistorts the coupler's excursion from idle, so
        the schedule (the line's input) starts exactly at idle.
        """
        wf = self._inverter(sample_pulse(pulse, self.dt))
        if self.distortion is not None and not self.distortion.is_identity():
            excursion = predistort(self.distortion, replace(wf, samples=wf.samples - self.idle))
            wf = replace(excursion, samples=self.idle + excursion.samples)

        dq1 = dq2 = np.zeros(len(wf.samples))
        if self.compensate:
            floor = max(self.spec.q1.frequency, self.spec.q2.frequency) + 0.1
            if np.min(wf.samples) < floor:
                raise CalibrationError(f"coupler frequency {np.min(wf.samples):.6f} GHz is "
                                       f"below the compensation floor {floor:.6f} GHz")
            dq1, dq2 = _compensation_offsets(self.spec, self._targets, wf.samples)
        offsets = {
            "Q1": SampledWaveform(wf.dt, dq1, "coupler_frequency"),
            "Q2": SampledWaveform(wf.dt, dq2 + q2_detune, "coupler_frequency"),
        }
        return ControlSchedule(coupler_trajectory=wf, qubit_offsets=offsets)

    def run(self, pulse: PulseShapeSpec, q2_detune: float = 0.0) -> PropagationResult:
        return propagate(self.terms, self.build_schedule(pulse, q2_detune), basis=self.basis,
                         blocks=self.blocks)

    def report(self, pulse: PulseShapeSpec, q2_detune: float = 0.0) -> GateReport:
        return gate_report(self.run(pulse, q2_detune))


def dressed_qubit_transitions(terms: HamiltonianTerms, coupler_frequency: float,
                              q1_offset: float = 0.0, q2_offset: float = 0.0) -> tuple[float, float]:
    """Dressed 0->1 transition frequencies of Q1 and Q2 (GHz)."""
    offsets = {
        "C": coupler_frequency - terms.spec.coupler.frequency,
        "Q1": q1_offset,
        "Q2": q2_offset,
    }
    needed = ((0, 0, 0), (1, 0, 0), (0, 0, 1))
    basis = dressed_basis(terms, offsets, require=needed)
    t1 = basis.energy((1, 0, 0)) - basis.energy((0, 0, 0))
    t2 = basis.energy((0, 0, 1)) - basis.energy((0, 0, 0))
    return t1, t2


def _compensation_offsets(spec: DeviceSpec, targets: tuple[float, float],
                          coupler_frequencies) -> tuple[np.ndarray, np.ndarray]:
    """Exact bare offsets (dw_1, dw_2) at each coupler frequency w_c that put
    the dressed qubit transitions at targets = (l1, l2), in GHz.

    Eliminating the coupler from the 3x3 single-excitation block leaves one
    quadratic in x = w1 + dw_1 - l1 + g_1c^2 / (l1 - w_c); its smaller root,
    taken in the stable form, keeps the l1 eigenvector Q1-like.
    """
    wc = np.asarray(coupler_frequencies, dtype=float)
    l1, l2 = targets
    g = spec.couplings
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = 1.0 / (l1 - wc)
        e2 = 1.0 / (l2 - wc)
        j1_sq = (g.g_12 + g.g_1c * g.g_2c * e1) ** 2
        j2_sq = (g.g_12 + g.g_1c * g.g_2c * e2) ** 2
        dx = l1 - l2 + g.g_1c ** 2 * (e2 - e1)
        dy = l1 - l2 + g.g_2c ** 2 * (e2 - e1)
        b = dx * dy + j1_sq - j2_sq
        x = -2.0 * dx * j1_sq / (b + np.copysign(np.sqrt(b * b - 4.0 * dy * dx * j1_sq), b))
        y = j2_sq / (x + dx) - dy
        dw1 = l1 + x - g.g_1c ** 2 * e1 - spec.q1.frequency
        dw2 = l1 + y - g.g_2c ** 2 * e1 - spec.q2.frequency
    if not np.all(np.isfinite(dw1 + dw2)):
        raise CalibrationError(f"no compensation at w_c = {wc[~np.isfinite(dw1 + dw2)]} GHz")
    return dw1, dw2


def compensation_curve(spec: DeviceSpec, coupler_frequencies,
                       terms: HamiltonianTerms | None = None) -> list[tuple[float, float, float]]:
    """Bare-frequency offsets holding the dressed qubit transitions fixed.

    For each coupler frequency w_c, the exact (dw_1, dw_2) that hold both
    dressed 0->1 transitions at their idle values.  Returns (w_c, dw_1, dw_2).
    """
    if terms is None:
        terms = build_hamiltonian(spec)
    targets = dressed_qubit_transitions(terms, spec.coupler.frequency)
    wcs = np.atleast_1d(np.asarray(coupler_frequencies, dtype=float))
    dw1, dw2 = _compensation_offsets(spec, targets, wcs)
    return [(float(wc), float(a), float(b)) for wc, a, b in zip(wcs, dw1, dw2)]


def calibrate_cz(ctx: GateContext, pulse: PulseShapeSpec,
                 seed_peak: float | None = None, seed_detune: float | None = None,
                 nm_iterations: int = 200) -> tuple[PulseShapeSpec, float, GateReport]:
    """Locate the CZ operating point (peak coupling, Q2 detune) for a pulse.

    A coarse grid seeds scipy's Nelder-Mead on 1 - fidelity over the two
    knobs (start steps 0.002 and 0.004 GHz), which stops when its values
    spread by at most 1e-10 or after nm_iterations updates.  The call
    keeps the report of the best point it has seen, keyed on the exact
    (peak, detune), so neither the grid's best point (the simplex's first
    vertex) nor the simplex's best vertex (the returned report) is
    propagated again.  Returns the calibrated pulse, the Q2 detune, and
    the report.
    """
    best = {}

    def evaluate(peak, detune) -> GateReport | None:
        """The report at (peak, detune), or None where the gate cannot be built."""
        key = (float(peak), float(detune))
        if key in best:
            return best[key]
        try:
            rep = ctx.report(replace(pulse, peak_value=key[0]), key[1])
        except (ValueError, DeviceModelError):
            return None
        if not best or rep.fidelity > next(iter(best.values())).fidelity:
            best.clear()
            best[key] = rep
        return rep

    if seed_peak is None or seed_detune is None:
        for peak in np.linspace(-0.030, -0.010, 11):
            for det in np.linspace(-0.050, -0.005, 10):
                evaluate(peak, det)
        if not best:
            raise CalibrationError("coarse search found no usable operating point")
        seed_peak, seed_detune = next(iter(best))

    def objective(x):
        rep = evaluate(x[0], x[1])
        return 1.0 if rep is None else 1.0 - rep.fidelity

    point, _, _ = nelder_mead_minimize(objective, [seed_peak, seed_detune], [0.002, 0.004],
                                       value_tol=1e-10, max_iterations=nm_iterations)
    report = evaluate(point[0], point[1])
    if report is None:
        raise CalibrationError(f"no usable operating point near ({seed_peak}, {seed_detune})")
    return replace(pulse, peak_value=float(point[0])), float(point[1]), report


def calibrated_length_sweep(ctx: GateContext, pulse: PulseShapeSpec, lengths,
                            seed_peak: float | None = None,
                            seed_detune: float | None = None,
                            seed_length: float = 45.0,
                            nm_iterations: int = 18) -> list[dict]:
    """Best-calibrated gate figures versus pulse length for one family.

    Each length is recalibrated over (peak coupling, Q2 detune).  Smooth
    families (slepian, cosine) calibrate seed_length once with the full
    `calibrate_cz`, from (seed_peak, seed_detune) or, without them, the
    coarse grid; its record is kept when seed_length is in `lengths`.  From
    there each branch (longer, then shorter lengths) continues outward one
    neighbour at a time, seeded by the last calibration, with at most
    nm_iterations simplex updates per length.  The square family's
    landscape is fringed, so every length reruns the coarse search and the
    seeds are ignored.  Returns one record per length, in ascending length
    order.
    """
    lengths = sorted(float(v) for v in lengths)
    if not lengths:
        raise CalibrationError("empty length axis")
    records = {}

    def record(length, calibrated, detune, report):
        records[length] = {
            "length": length,
            "peak_value": calibrated.peak_value,
            "q2_detune": detune,
            "fidelity": report.fidelity,
            "leakage": report.leakage_from_11,
            "conditional_phase_deg": float(np.degrees(report.conditional_phase)),
        }

    if pulse.family == "square":
        for length in lengths:
            p = replace(pulse, length=length)
            cal, det, rep = calibrate_cz(ctx, p, nm_iterations=45)
            record(length, cal, det, rep)
        return [records[v] for v in lengths]

    seed_length = float(seed_length)
    seed, seed_det, rep = calibrate_cz(ctx, replace(pulse, length=seed_length),
                                       seed_peak=seed_peak, seed_detune=seed_detune)
    if seed_length in lengths:
        record(seed_length, seed, seed_det, rep)
    upward = [v for v in lengths if v > seed_length]
    downward = [v for v in lengths if v < seed_length][::-1]
    for branch in (upward, downward):
        cal, det = seed, seed_det
        for length in branch:
            cal, det, rep = calibrate_cz(ctx, replace(pulse, length=length),
                                         seed_peak=cal.peak_value, seed_detune=det,
                                         nm_iterations=nm_iterations)
            record(length, cal, det, rep)
    return [records[v] for v in lengths]


def _grid_scan(ctx: GateContext, grid: ScanGrid, pulse: PulseShapeSpec, measure,
               kind: str) -> ScanResult:
    """measure(M) of the projected map at every (peak coupling, Q2 detune) point."""
    values = np.zeros((len(grid.coupling_axis), len(grid.detune_axis)))
    for i, peak in enumerate(grid.coupling_axis):
        for j, det in enumerate(grid.detune_axis):
            try:
                m = project_computational(ctx.run(replace(pulse, peak_value=peak), det))
                values[i, j] = measure(m)
            except (ValueError, DeviceModelError) as exc:
                raise CalibrationError(f"scan failed at (g={peak}, detune={det}): {exc}") from exc
    return ScanResult(values=values, kind=kind)


def leakage_scan(ctx: GateContext, grid: ScanGrid, pulse: PulseShapeSpec) -> ScanResult:
    """Leakage from dressed |101> over (peak coupling, Q2 detune)."""
    return _grid_scan(ctx, grid, pulse, leakage_from_11, "leakage")


def phase_scan(ctx: GateContext, grid: ScanGrid, pulse: PulseShapeSpec) -> ScanResult:
    """Conditional phase (degrees) over (peak coupling, Q2 detune)."""
    return _grid_scan(ctx, grid, pulse, lambda m: np.degrees(conditional_phase(m)), "phase_deg")


def repeated_gate_scan(ctx: GateContext, pulse: PulseShapeSpec, n_list,
                       axis_values, axis: str = "coupling",
                       q2_detune: float = 0.0) -> tuple[ScanResult, ScanResult]:
    """Leakage and phase deviation of U^N over gate counts and one knob.

    The phase deviation is phi(U^N) - N * 180deg, wrapped to (-180, 180]
    and reported in degrees.  Returns (leakage result, deviation result),
    each shaped (len(axis_values), len(n_list)).
    """
    if axis not in ("coupling", "detune"):
        raise CalibrationError(f"unknown scan axis {axis!r}")
    n_list = [int(n) for n in n_list]
    if not n_list or n_list[0] < 1 or np.any(np.diff(n_list) <= 0):
        raise CalibrationError(f"gate counts must be strictly increasing and >= 1: {n_list}")
    leak = np.zeros((len(axis_values), len(n_list)))
    deviation = np.zeros_like(leak)
    v = computational_vectors(ctx.basis)
    for i, value in enumerate(axis_values):
        if axis == "coupling":
            result = ctx.run(replace(pulse, peak_value=value), q2_detune)
        else:
            result = ctx.run(pulse, value)
        u = result.propagator
        u_n = np.eye(u.shape[0], dtype=complex)
        applied = 0
        for j, n in enumerate(n_list):
            u_n = u_n @ np.linalg.matrix_power(u, n - applied)
            applied = n
            m = v.conj().T @ u_n @ v
            leak[i, j] = leakage_from_11(m)
            deviation[i, j] = np.degrees(wrap_angle(conditional_phase(m) - n * np.pi))
    return (
        ScanResult(values=leak, kind="leakage"),
        ScanResult(values=deviation, kind="phase_deviation_deg"),
    )
