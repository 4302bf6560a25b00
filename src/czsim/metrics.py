"""Gate metrics: computational-subspace projection, virtual-Z fitting,
fidelity, leakage and conditional phase.

The CZ target family carries two free single-qubit phase angles,

    diag(1, e^{i(D+ + D-)}, e^{i(D+ - D-)}, e^{i(2 D+ - pi)}),

which cost nothing in hardware (virtual Z), so the reported fidelity is
maximized over them.  For a fixed sum of the two angles the best difference
has a closed form, so the fit is a one-dimensional search (`fit_virtual_z`).
Every figure of a gate is read from its projected 4x4 map M.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .device import DressedBasis, HamiltonianTerms
from .propagator import PropagationResult

COMPUTATIONAL_LABELS = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))


class GateMetricsError(ValueError):
    pass


def wrap_angle(theta):
    """Wrap to (-pi, pi]."""
    w = np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class VirtualZAngles:
    delta_plus: float
    delta_minus: float

    def __post_init__(self):
        object.__setattr__(self, "delta_plus", wrap_angle(self.delta_plus))
        object.__setattr__(self, "delta_minus", wrap_angle(self.delta_minus))


@dataclass(frozen=True)
class GateReport:
    """Everything measured about one projected two-qubit gate."""

    projected_map: np.ndarray
    fitted_angles: VirtualZAngles
    fidelity: float
    leakage_from_11: float
    conditional_phase: float
    subspace_trace_loss: float

    def to_dict(self) -> dict:
        return {
            "projected_map_real": np.real(self.projected_map).tolist(),
            "projected_map_imag": np.imag(self.projected_map).tolist(),
            "fitted_angles_rad": {
                "delta_plus": self.fitted_angles.delta_plus,
                "delta_minus": self.fitted_angles.delta_minus,
            },
            "fitted_angles_deg": {
                "delta_plus": np.degrees(self.fitted_angles.delta_plus),
                "delta_minus": np.degrees(self.fitted_angles.delta_minus),
            },
            "fidelity": self.fidelity,
            "leakage_from_11": self.leakage_from_11,
            "conditional_phase_rad": self.conditional_phase,
            "conditional_phase_deg": np.degrees(self.conditional_phase),
            "subspace_trace_loss": self.subspace_trace_loss,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def cz_target(angles: VirtualZAngles) -> np.ndarray:
    """CZ unitary with free single-qubit Z angles, ordering |00>,|01>,|10>,|11>."""
    dp, dm = angles.delta_plus, angles.delta_minus
    return np.diag(
        [1.0, np.exp(1j * (dp + dm)), np.exp(1j * (dp - dm)), np.exp(1j * (2.0 * dp - np.pi))]
    )


def computational_blocks(terms: HamiltonianTerms) -> tuple[np.ndarray, ...]:
    """The invariant blocks (`terms.blocks`) that hold the computational states.

    Each dressed computational state is an eigenvector of the idle
    Hamiltonian, so up to round-off it lies in the block that holds its
    bare label.  Every
    gate metric reads only these blocks: the N <= 2 excitation sectors of
    the exchange-coupled model, or the merged blocks of a model whose
    terms mix sectors.
    """
    held = {terms.bare_index(label) for label in COMPUTATIONAL_LABELS}
    return tuple(idx for idx in terms.blocks if not held.isdisjoint(idx.tolist()))


def computational_vectors(basis: DressedBasis) -> np.ndarray:
    """Columns: the dressed |000>, |001>, |100>, |101> states of `basis`."""
    for label in COMPUTATIONAL_LABELS:
        if label not in basis.labels:
            raise GateMetricsError(f"missing dressed label {label}")
    return np.column_stack([basis.vector(label) for label in COMPUTATIONAL_LABELS])


def project_computational(result: PropagationResult) -> np.ndarray:
    """Dressed computational block of U: M[i,j] = <dressed_i| U |dressed_j>.

    Rows/columns ordered |000>, |001>, |100>, |101> (coupler in its ground
    state throughout).
    """
    v = computational_vectors(result.basis)
    return v.conj().T @ result.propagator @ v


def average_gate_fidelity(m: np.ndarray, target: np.ndarray) -> float:
    """Average gate fidelity of a (possibly leaky) 4x4 map against a unitary target."""
    m = np.asarray(m)
    return float(
        (np.real(np.trace(m.conj().T @ m)) + np.abs(np.trace(target.conj().T @ m)) ** 2) / 20.0
    )


def subspace_trace_loss(m: np.ndarray) -> float:
    return float(1.0 - np.real(np.trace(np.asarray(m).conj().T @ m)) / 4.0)


def nelder_mead_minimize(objective, x0, steps, value_tol=1e-12, max_iterations=1000):
    """Minimize `objective` with scipy's Nelder-Mead from the simplex x0, x0 + steps[i] e_i.

    Stops when the simplex's values spread by at most value_tol, or after
    max_iterations updates, returning the best vertex with converged=False.
    A value that is not finite raises ValueError.  Returns (point, value,
    converged).
    """
    x0 = np.asarray(x0, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if steps.shape != x0.shape or x0.ndim != 1:
        raise ValueError(f"need one step per coordinate: x0 {x0.shape}, steps {steps.shape}")

    def finite(x):
        value = float(objective(x))
        if not np.isfinite(value):
            raise ValueError(f"objective is not finite: {value} at {x}")
        return value

    # scipy counts scoring the start simplex as its first iteration.
    result = minimize(finite, x0, method="Nelder-Mead", options={
        "initial_simplex": np.vstack([x0, x0 + np.diag(steps)]),
        "xatol": np.inf, "fatol": value_tol, "maxiter": max_iterations + 1})
    return result.x, float(result.fun), result.status == 0


def fit_virtual_z(m: np.ndarray) -> tuple[VirtualZAngles, float]:
    """Virtual-Z angles maximizing the fidelity of M against the CZ family.

    With a = D+ + D- and b = D+ - D-, Tr(T^dag M) = c0(a) + c1(a) e^{-ib},
    where c0 = m00 + m11 e^{-ia} and c1 = m22 - m33 e^{-ia}.  The best b is
    arg c1 - arg c0, which leaves |c0| + |c1| to maximize over a alone: a
    grid finds every local maximum within reach of the best, and a bounded
    scalar search polishes each of them.
    """
    m = np.asarray(m)

    def overlap(a):
        e = np.exp(-1j * a)
        return np.abs(m[0, 0] + m[1, 1] * e) + np.abs(m[2, 2] - m[3, 3] * e)

    grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    step = grid[1] - grid[0]
    values = overlap(grid)
    # For a map of norm <= 1 each term of the overlap curves down by at most
    # 1/2 per rad^2, so a basin's best grid point is within step^2/8 ~ 1e-5
    # of its maximum: every basin within 1e-3 of the best is polished.
    peaks = ((values > np.roll(values, 1)) & (values >= np.roll(values, -1))
             & (values >= values.max() - 1e-3))
    candidates = [grid[np.argmax(values)]] + [
        minimize_scalar(lambda a: -overlap(a), bounds=(a0 - step, a0 + step),
                        method="bounded", options={"xatol": 1e-12}).x
        for a0 in grid[peaks]]
    best = max(candidates, key=overlap)
    e = np.exp(-1j * best)
    a = wrap_angle(best)
    b = wrap_angle(np.angle(m[2, 2] - m[3, 3] * e) - np.angle(m[0, 0] + m[1, 1] * e))
    angles = VirtualZAngles(0.5 * (a + b), 0.5 * (a - b))
    return angles, average_gate_fidelity(m, cz_target(angles))


def leakage_from_11(m: np.ndarray) -> float:
    """Leakage of dressed |101> out of the computational subspace: 1 - sum |M[:, 3]|^2."""
    return max(1.0 - float(np.sum(np.abs(np.asarray(m)[:, 3]) ** 2)), 0.0)


def conditional_phase(m: np.ndarray) -> float:
    """phi = arg M00 - arg M01 - arg M10 + arg M11, wrapped to (-pi, pi].

    Requires the gate to be roughly diagonal (|M_ii| > 0.1).
    """
    m = np.asarray(m)
    diag = np.abs(np.diag(m))
    if np.any(diag <= 0.1):
        raise GateMetricsError(f"gate is not phase-like: |diag| = {diag}")
    phi = np.angle(m[0, 0]) - np.angle(m[1, 1]) - np.angle(m[2, 2]) + np.angle(m[3, 3])
    return wrap_angle(phi)


def gate_report(result: PropagationResult) -> GateReport:
    """Project, fit virtual-Z phases, and collect all gate metrics."""
    m = project_computational(result)
    angles, fidelity = fit_virtual_z(m)
    return GateReport(
        projected_map=m,
        fitted_angles=angles,
        fidelity=fidelity,
        leakage_from_11=leakage_from_11(m),
        conditional_phase=conditional_phase(m),
        subspace_trace_loss=subspace_trace_loss(m),
    )
