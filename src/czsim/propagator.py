"""Time-dependent Schrodinger propagation for a control schedule.

Controls are treated as piecewise linear between samples and each dt step
is integrated with a fourth-order commutator-free Magnus rule.  Because
the Hamiltonian is affine in the control offsets, the two exponentials of
that rule are ordinary Hamiltonian exponentials with the controls
evaluated at 1/6 and 5/6 of the step, so each substep is exponentiated
exactly through its eigendecomposition and the propagator is unitary to
round-off.  Results are reported in the frame co-rotating with the idle
(static) Hamiltonian, whose phases are removed analytically after the
integration; an idle schedule therefore maps to the identity exactly.

The Hamiltonian leaves a set of subspaces invariant for any control values
(`HamiltonianTerms.blocks`; for the exchange-coupled model these are the
sectors of fixed total excitation number), so each step is exponentiated
block by block over those subspaces and the blocks' time-ordered products
are written back into the full propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import TWO_PI, DressedBasis, HamiltonianTerms, dressed_basis
from .pulses import SampledWaveform

UNITARITY_TOLERANCE = 1e-9

# Cap on the per-step phase advance contributed by the control offsets;
# beyond this the midpoint sampling of the controls is unsafe.
MAX_STEP_PHASE = np.pi


class PropagationError(ValueError):
    pass


@dataclass(frozen=True)
class ControlSchedule:
    """Coupler trajectory plus optional qubit compensation offsets.

    coupler_trajectory must be parameterized as coupler_frequency.
    qubit_offsets maps "Q1"/"Q2" to waveforms of bare-frequency offsets in
    GHz, on the same grid as the coupler trajectory.
    """

    coupler_trajectory: SampledWaveform
    qubit_offsets: dict[str, SampledWaveform] | None = None

    def __post_init__(self):
        if self.coupler_trajectory.parameterization != "coupler_frequency":
            raise PropagationError("coupler trajectory must be parameterized as coupler_frequency")
        n = len(self.coupler_trajectory.samples)
        for label, wf in (self.qubit_offsets or {}).items():
            if label not in ("Q1", "Q2"):
                raise PropagationError(f"unknown qubit offset label {label!r}")
            if len(wf.samples) != n or wf.dt != self.coupler_trajectory.dt:
                raise PropagationError(f"offset waveform for {label} not on the coupler grid")

    @property
    def dt(self) -> float:
        return self.coupler_trajectory.dt


@dataclass(frozen=True)
class PropagationResult:
    """Full-space propagator in the idle rotating frame."""

    propagator: np.ndarray
    basis: DressedBasis
    unitarity_defect: float
    terms: HamiltonianTerms


def constant_offset(value: float, like: SampledWaveform) -> SampledWaveform:
    """A constant offset waveform on the same grid as `like`."""
    return SampledWaveform(
        dt=like.dt,
        samples=np.full(len(like.samples), value),
        parameterization=like.parameterization,
    )


def idle_schedule(terms: HamiltonianTerms, length: float, dt: float) -> ControlSchedule:
    """Schedule that parks the coupler at its idle frequency."""
    n = max(int(round(length / dt)), 1) + 1
    wf = SampledWaveform(dt=dt, samples=np.full(n, terms.spec.coupler.frequency),
                         parameterization="coupler_frequency")
    return ControlSchedule(coupler_trajectory=wf)


def _magnus_nodes(samples: np.ndarray) -> np.ndarray:
    """Effective control values for the two exponentials of each step.

    For an affine Hamiltonian with piecewise-linear controls, the
    fourth-order commutator-free Magnus step collapses to two dt/2
    exponentials whose Gauss-node combinations evaluate the control at
    1/6 and 5/6 of the segment.  Returns the interleaved values,
    shape (2 * n_steps,).
    """
    delta = np.diff(samples)
    out = np.empty(2 * len(delta))
    out[0::2] = samples[:-1] + delta / 6.0
    out[1::2] = samples[:-1] + 5.0 * delta / 6.0
    return out


def _step_offsets(terms: HamiltonianTerms, schedule: ControlSchedule) -> dict[str, np.ndarray]:
    """Per-mode frequency offsets (GHz) at the Magnus nodes of every step."""
    wc = schedule.coupler_trajectory.samples
    offsets = {"C": _magnus_nodes(wc) - terms.spec.coupler.frequency}
    for label, wf in (schedule.qubit_offsets or {}).items():
        offsets[label] = _magnus_nodes(wf.samples)
    return offsets


def refine_schedule(schedule: ControlSchedule, factor: int = 2) -> ControlSchedule:
    """Subdivide the schedule's piecewise-linear controls onto a finer grid."""
    if factor < 1:
        raise PropagationError("refinement factor must be >= 1")

    def _refine(wf: SampledWaveform) -> SampledWaveform:
        n = len(wf.samples)
        fine = np.interp(np.arange((n - 1) * factor + 1) / factor,
                         np.arange(n), wf.samples)
        return SampledWaveform(dt=wf.dt / factor, samples=fine,
                               parameterization=wf.parameterization)

    offsets = schedule.qubit_offsets
    return ControlSchedule(
        coupler_trajectory=_refine(schedule.coupler_trajectory),
        qubit_offsets=None if offsets is None else
        {label: _refine(wf) for label, wf in offsets.items()},
    )


def _check_step_size(terms: HamiltonianTerms, offsets: dict[str, np.ndarray], dt: float) -> None:
    worst = 0.0
    for label, dw in offsets.items():
        levels = {m.label: m.levels for m in terms.spec.modes}[label]
        worst += np.max(np.abs(dw)) * (levels - 1) if len(dw) else 0.0
    phase = TWO_PI * worst * dt
    if phase >= MAX_STEP_PHASE:
        recommended = 0.5 * MAX_STEP_PHASE / (TWO_PI * worst)
        raise PropagationError(
            f"per-step control phase {phase:.2f} rad exceeds {MAX_STEP_PHASE:.2f}; "
            f"use dt <= {recommended:.4f} ns"
        )


def _evolve_block(terms: HamiltonianTerms, schedule: ControlSchedule, states: np.ndarray) -> np.ndarray:
    """Apply the schedule's idle-frame propagator to the columns of `states`."""
    dt = schedule.dt
    offsets = _step_offsets(terms, schedule)
    n_steps = len(schedule.coupler_trajectory.samples) - 1
    if n_steps <= 0:
        return states.astype(complex)
    half_dt = 0.5 * dt
    total_t = dt * n_steps
    _check_step_size(terms, offsets, half_dt)

    # Symmetric pulses revisit the same control point many times, so
    # diagonalize each distinct substep Hamiltonian only once.
    labels = sorted(offsets)
    points, index = np.unique(np.column_stack([offsets[label] for label in labels]),
                              axis=0, return_inverse=True)
    out = np.zeros(states.shape, dtype=complex)
    for idx in terms.blocks:
        sub = np.ix_(idx, idx)
        h0 = terms.static_part[sub]
        h = np.broadcast_to(h0, (len(points),) + h0.shape).copy()
        for col, label in enumerate(labels):
            h += TWO_PI * points[:, col, None, None] * terms.control_parts[label][sub]
        evals, evecs = np.linalg.eigh(h)
        # Form the substep unitaries and contract them with a pairwise
        # (time-ordered) reduction, all in batched matmuls.
        u = np.matmul(evecs * np.exp(-1j * evals * half_dt)[:, None, :],
                      evecs.conj().transpose(0, 2, 1))[index]
        while len(u) > 1:
            if len(u) % 2:
                u = np.concatenate([np.matmul(u[1:-1:2], u[0:-1:2]), u[-1:]])
            else:
                u = np.matmul(u[1::2], u[0::2])
        # Remove the idle evolution analytically: U_rot = exp(+i H_idle T) U_lab.
        # H_idle is the static Hamiltonian (here its block), so an idle
        # schedule maps to the identity exactly and the frame phase is
        # diagonal in the dressed basis.
        evals0, evecs0 = np.linalg.eigh(h0)
        frame = (evecs0 * np.exp(1j * evals0 * total_t)) @ evecs0.conj().T
        out[idx] = frame @ (u[0] @ states[idx])
    return out


def propagate(terms: HamiltonianTerms, schedule: ControlSchedule,
              basis: DressedBasis | None = None) -> PropagationResult:
    """Full-space propagator for the schedule, in the idle rotating frame."""
    u = _evolve_block(terms, schedule, np.eye(terms.dimension))
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(terms.dimension))))
    if defect >= UNITARITY_TOLERANCE:
        raise PropagationError(f"unitarity defect {defect:.2e} exceeds {UNITARITY_TOLERANCE}")
    if basis is None:
        basis = dressed_basis(terms)
    return PropagationResult(propagator=u, basis=basis, unitarity_defect=defect, terms=terms)


def propagate_state(terms: HamiltonianTerms, schedule: ControlSchedule,
                    initial: np.ndarray) -> np.ndarray:
    """Evolve a single state vector through the schedule."""
    psi = _evolve_block(terms, schedule, np.asarray(initial, dtype=complex).reshape(-1, 1))[:, 0]
    drift = abs(np.linalg.norm(psi) - np.linalg.norm(initial))
    if drift >= UNITARITY_TOLERANCE:
        raise PropagationError(f"norm drift {drift:.2e} exceeds {UNITARITY_TOLERANCE}")
    return psi
