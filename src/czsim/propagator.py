"""Time-dependent Schrodinger propagation for a control schedule.

Controls are treated as piecewise linear between samples and each dt step
is integrated with a fourth-order commutator-free Magnus rule.  Because
the Hamiltonian is affine in the control offsets, the two exponentials of
that rule are ordinary Hamiltonian exponentials with the controls
evaluated at 1/6 and 5/6 of the step.  Each substep exponential
exp(-i H dt/2) is a truncated Taylor series with scaling and squaring,
evaluated for all distinct substeps at once in real batched matmuls
(`_substep_unitaries`); its truncation error is below round-off, so the
propagator is unitary to round-off.  Results are reported in the frame
co-rotating with the idle (static) Hamiltonian, whose phases are removed
analytically after the integration; an idle schedule therefore maps to
the identity exactly.

The product of the substep unitaries is contracted by their structure.
When every control (the coupler trajectory and each qubit offset) equals
its own reverse exactly (`np.array_equal`, no tolerance), the substeps run
in palindromic order; each substep unitary of a real symmetric H is complex
symmetric, so with V the product over the first half the lab-frame
propagator is V^T V, and only the first half is exponentiated and reduced.
`czsim.pulses.sample_pulse` mirrors its samples to the bit, so every
built-in gate takes this path; any other schedule (a predistorted one, a
user waveform) takes the full product.  Each run of equal consecutive
substeps, of any length above 1, is raised to its length by binary
powering, batched over the runs, before the time-ordered reduction.

The Hamiltonian leaves a set of subspaces invariant for any control values
(`HamiltonianTerms.blocks`; for the exchange-coupled model these are the
sectors of fixed total excitation number), so each step is exponentiated
block by block over those subspaces and the blocks' time-ordered products
are written back into the full-space propagator.  Each block's terms are
sliced once per `HamiltonianTerms` (`block_parts`), and its substep
Hamiltonians are one product of the node offsets with its control terms.
`propagate` evolves every
block by default; given a subset of the blocks it evolves only those,
leaving the other rows and columns zero.  Gate runs
(`czsim.calibration.GateContext.run`) pass the blocks that hold the
computational states, since no gate metric reads the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .device import TWO_PI, DressedBasis, HamiltonianTerms, dressed_basis
from .pulses import SampledWaveform

UNITARITY_TOLERANCE = 1e-9

# Cap on the phase the control offsets advance over one dt/2 substep, the
# span of one exponential of the Magnus rule.
MAX_STEP_PHASE = np.pi

# Unit round-off of float64: the Taylor degree of the substep exponential
# is the smallest whose truncation bound theta^(m+1)/(m+1)! falls below it.
_ROUND_OFF = 2.0 ** -53
# Above this norm bound the exponent is scaled by 2^-s and squared back.
_MAX_TAYLOR_NORM = 1.0


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


def _check_step_size(terms: HamiltonianTerms, offsets: dict[str, np.ndarray],
                     substep: float) -> None:
    """Refuse a schedule whose controls are not finite, or advance
    MAX_STEP_PHASE or more over one substep.

    The recommended dt puts the substep phase (over dt/2) at half the cap.
    """
    worst = 0.0
    for label, dw in offsets.items():
        levels = {m.label: m.levels for m in terms.spec.modes}[label]
        worst += np.max(np.abs(dw)) * (levels - 1) if len(dw) else 0.0
    if not np.isfinite(worst):
        raise PropagationError("control offsets must be finite")
    phase = TWO_PI * worst * substep
    if phase >= MAX_STEP_PHASE:
        recommended = MAX_STEP_PHASE / (TWO_PI * worst)
        raise PropagationError(
            f"per-substep control phase {phase:.2f} rad exceeds {MAX_STEP_PHASE:.2f}; "
            f"use dt <= {recommended:.4f} ns"
        )


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D table in lexicographic order, and the
    position of each row among them: np.unique(table, axis=0,
    return_inverse=True), sorted by np.lexsort on the columns instead of
    on a structured view of the rows."""
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    first = np.empty(len(table), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    index = np.empty(len(table), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


def _shift_diagonal(stack: np.ndarray, shift) -> None:
    """Add `shift` (a scalar, or one value per matrix as shape (k, 1)) to
    the diagonal of a C-contiguous stack of square matrices, in place."""
    n = stack.shape[-1]
    stack.reshape(len(stack), n * n)[:, ::n + 1] += shift


def _polynomial(b: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """sum_j coeffs[j] b^j over a stack of matrices b, by Horner's rule
    (len(coeffs) >= 2)."""
    p = coeffs[-1] * b
    for c in coeffs[-2:0:-1]:
        _shift_diagonal(p, c)
        p = p @ b
    _shift_diagonal(p, coeffs[0])
    return p


def _substep_unitaries(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) for a stack of real symmetric matrices h, shape (k, n, n).

    With mu = tr h / n and A = (h - mu) tau, exp(-i h tau) is
    e^{-i mu tau} (cos A - i sin A).  cos A and sin A are Taylor series in
    A^2, evaluated by Horner's rule in real batched matmuls, truncated at
    the smallest degree m (at least 3) whose bound theta^(m+1)/(m+1)! is
    below round-off, theta = max row-sum |A| over the stack.  When theta
    exceeds _MAX_TAYLOR_NORM (1), A is scaled by 2^-s to theta <= 1 and
    the result squared back s times by (C, S) -> (C^2 - S^2, 2 C S).  This
    is the truncated Taylor method with scaling and squaring of Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2010).
    """
    k, n, _ = h.shape
    if k == 0:
        return np.zeros(h.shape, dtype=complex)
    mu = np.trace(h, axis1=1, axis2=2) / n
    a = h.copy()
    _shift_diagonal(a, -mu[:, None])
    a *= tau
    theta = float((np.abs(a).reshape(k * n, n) @ np.ones(n)).max())
    squarings = 0
    if theta > _MAX_TAYLOR_NORM:
        squarings = int(np.ceil(np.log2(theta / _MAX_TAYLOR_NORM)))
        a *= 2.0 ** -squarings
        theta *= 2.0 ** -squarings
    degree, bound = 3, theta ** 4 / factorial(4)
    while bound > _ROUND_OFF:
        degree += 1
        bound *= theta / (degree + 1)
    b = a @ a
    cos = _polynomial(b, [(-1) ** j / factorial(2 * j) for j in range(degree // 2 + 1)])
    sin = a @ _polynomial(b, [(-1) ** j / factorial(2 * j + 1)
                              for j in range((degree + 1) // 2)])
    for _ in range(squarings):
        cos, sin = cos @ cos - sin @ sin, 2.0 * (cos @ sin)
    u = np.empty(cos.shape, dtype=complex)
    u.real = cos
    np.negative(sin, out=u.imag)
    u *= np.exp(-1j * tau * mu)[:, None, None]
    return u


def _run_powers(u: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """u[j] raised to the power lengths[j] >= 1, for a stack of matrices,
    by binary powering batched over the stack: one squaring per bit of the
    longest length, and none when every length is 1."""
    out = u.copy()
    rest = lengths - 1
    base = u
    while True:
        odd = (rest & 1).astype(bool)
        out[odd] = np.matmul(base[odd], out[odd])
        rest >>= 1
        if not rest.any():
            return out
        base = np.matmul(base, base)


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

    # A schedule whose every control is its own mirror image runs its
    # substeps in palindromic order, and each substep unitary is complex
    # symmetric, so the second half of the product is the transpose of the
    # first: only the first n_steps substeps are evolved.
    controls = [schedule.coupler_trajectory.samples]
    controls += [wf.samples for wf in (schedule.qubit_offsets or {}).values()]
    palindrome = all(np.array_equal(c, c[::-1]) for c in controls)
    if palindrome:
        offsets = {label: nodes[:n_steps] for label, nodes in offsets.items()}

    # Exponentiate each distinct substep Hamiltonian only once, and each
    # run of equal consecutive substeps as one power of its unitary.  The
    # columns follow `block_parts`' sorted control labels; a mode without
    # an offset gets zeros.
    idle = np.zeros(len(offsets["C"]))
    nodes = np.column_stack([offsets.get(label, idle) for label in sorted(terms.control_parts)])
    points, index = _distinct_rows(nodes)
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    lengths = np.diff(np.append(starts, len(index)))
    long = lengths > 1
    out = []
    for idx in blocks:
        h0, controls = terms.block_parts(idx)
        h = ((TWO_PI * points) @ controls).reshape((len(points),) + h0.shape)
        h += h0
        u = _substep_unitaries(h, half_dt)[index[starts]]
        if long.any():
            u[long] = _run_powers(u[long], lengths[long])
        # Contract the runs with a pairwise (time-ordered) reduction, all in
        # batched matmuls.
        while len(u) > 1:
            if len(u) % 2:
                u = np.concatenate([np.matmul(u[1:-1:2], u[0:-1:2]), u[-1:]])
            else:
                u = np.matmul(u[1::2], u[0::2])
        u_lab = u[0].T @ u[0] if palindrome else u[0]
        # Remove the idle evolution analytically: U_rot = exp(+i H_idle T) U_lab.
        # H_idle is the static Hamiltonian (here its block), so an idle
        # schedule maps to the identity exactly and the frame phase is
        # diagonal in the dressed basis.
        evals0, evecs0 = np.linalg.eigh(h0)
        frame = (evecs0 * np.exp(1j * evals0 * total_t)) @ evecs0.conj().T
        out.append(frame @ u_lab)
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
