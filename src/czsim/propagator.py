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
are written back into the full-space propagator.  `propagate` evolves every
block by default; given a subset of the blocks it evolves only those,
leaving the other rows and columns zero.  Gate runs
(`czsim.calibration.GateContext.run`) pass the blocks that hold the
computational states, since no gate metric reads the rest.
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
    """Propagator in the idle rotating frame, on the full space.

    Rows and columns outside the propagated blocks are exactly zero, and
    unitarity_defect is max |U^dag U - 1| over the propagated subspace
    (the whole space when every block was propagated).
    """

    propagator: np.ndarray
    basis: DressedBasis
    unitarity_defect: float
    terms: HamiltonianTerms


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


def _evolve_blocks(terms: HamiltonianTerms, schedule: ControlSchedule,
                   blocks: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """The schedule's idle-frame propagator on each of the given blocks."""
    dt = schedule.dt
    offsets = _step_offsets(terms, schedule)
    n_steps = len(schedule.coupler_trajectory.samples) - 1
    if n_steps <= 0:
        return [np.eye(len(idx), dtype=complex) for idx in blocks]
    half_dt = 0.5 * dt
    total_t = dt * n_steps
    _check_step_size(terms, offsets, half_dt)

    # Symmetric pulses revisit the same control point many times, so
    # diagonalize each distinct substep Hamiltonian only once.
    labels = sorted(offsets)
    points, index = np.unique(np.column_stack([offsets[label] for label in labels]),
                              axis=0, return_inverse=True)
    out = []
    for idx in blocks:
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
        out.append(frame @ u[0])
    return out


def propagate(terms: HamiltonianTerms, schedule: ControlSchedule,
              basis: DressedBasis | None = None,
              blocks: tuple[np.ndarray, ...] | None = None) -> PropagationResult:
    """Propagator for the schedule in the idle rotating frame.

    `blocks` picks which of `terms.blocks` to evolve (default: all of
    them); the rows and columns of the others are left zero, and the
    unitarity check covers the evolved blocks only.
    """
    if blocks is None:
        blocks = terms.blocks
    u = np.zeros((terms.dimension, terms.dimension), dtype=complex)
    defect = 0.0
    for idx, block in zip(blocks, _evolve_blocks(terms, schedule, blocks)):
        u[np.ix_(idx, idx)] = block
        defect = max(defect, float(np.max(np.abs(block.conj().T @ block - np.eye(len(idx))))))
    if defect >= UNITARITY_TOLERANCE:
        raise PropagationError(f"unitarity defect {defect:.2e} exceeds {UNITARITY_TOLERANCE}")
    if basis is None:
        basis = dressed_basis(terms)
    return PropagationResult(propagator=u, basis=basis, unitarity_defect=defect, terms=terms)
