"""Reference computations that the benchmark checks czsim's outputs against.

None of them calls into czsim:

- the 27-dimensional Hamiltonian (3 levels per mode) is rebuilt from the
  device numbers with Kronecker products;
- the propagator is the time-ordered product of `scipy.linalg.expm` over
  the schedule's fourth-order Magnus substeps (controls at 1/6 and 5/6 of
  each step, each held for half a step), followed by the idle-frame
  correction exp(+i H_idle T);
- the virtual-Z angles are fitted by a one-dimensional search: for a fixed
  angle a = D+ + D- the best b = D+ - D- has a closed form;
- random circuits are simulated from their gate labels with a plain
  statevector, and the depolarized probabilities and the speckle purity
  come from closed forms.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

TWO_PI = 2.0 * np.pi

# Bare labels (n_Q1, n_C, n_Q2) of |00>, |01>, |10>, |11>.
COMPUTATIONAL = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))

# Rotation axes (degrees from X in the equatorial plane) of the pi/2 gates
# named in czsim's circuit labels.
GATE_AXES_DEG = {"X/2": 0.0, "Y/2": 90.0, "W/2": 45.0, "V/2": 135.0}


def wrap(theta: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - theta, TWO_PI))


class DenseModel:
    """Three Duffing modes (Q1, C, Q2) with exchange couplings, dense.

    modes holds (frequency GHz, anharmonicity GHz, levels) per mode in the
    order Q1, C, Q2; couplings holds g_1c, g_2c, g_12 in GHz.  Matrices are
    in rad/ns.
    """

    def __init__(self, modes, couplings: dict):
        dims = [int(levels) for _, _, levels in modes]
        eyes = [np.eye(d) for d in dims]

        def embed(op, k):
            ops = list(eyes)
            ops[k] = op
            return np.kron(np.kron(ops[0], ops[1]), ops[2])

        lowering = [np.diag(np.sqrt(np.arange(1.0, d)), 1) for d in dims]
        self.number = [embed(a.T @ a, k) for k, a in enumerate(lowering)]
        self.dim = int(np.prod(dims))
        h0 = np.zeros((self.dim, self.dim))
        for (freq, anharm, _), n in zip(modes, self.number):
            h0 += TWO_PI * (freq * n + 0.5 * anharm * n @ (n - np.eye(self.dim)))
        for i, j, g in ((0, 1, couplings["g_1c"]), (1, 2, couplings["g_2c"]),
                        (0, 2, couplings["g_12"])):
            bi, bj = embed(lowering[i], i), embed(lowering[j], j)
            h0 += TWO_PI * g * (bi.T @ bj + bj.T @ bi)
        self.h0 = h0
        self.labels = [(a, b, c) for a in range(dims[0]) for b in range(dims[1])
                       for c in range(dims[2])]
        self.excitation = np.array([sum(label) for label in self.labels])
        evals, evecs = np.linalg.eigh(h0)
        overlap = np.abs(evecs) ** 2
        self.dressed = {label: evecs[:, int(np.argmax(overlap[k]))]
                        for k, label in enumerate(self.labels)}

    @classmethod
    def from_device(cls, spec) -> "DenseModel":
        """Build from the numbers of a czsim DeviceSpec (read, not called)."""
        modes = [(m.frequency, m.anharmonicity, m.levels) for m in spec.modes]
        c = spec.couplings
        return cls(modes, {"g_1c": c.g_1c, "g_2c": c.g_2c, "g_12": c.g_12})

    def propagate(self, dt: float, coupler_offset, q1_offset, q2_offset) -> np.ndarray:
        """Idle-frame propagator of piecewise-linear control offsets (GHz)."""
        controls = [np.asarray(c, dtype=float) for c in (q1_offset, coupler_offset, q2_offset)]
        n_steps = len(controls[0]) - 1
        u = np.eye(self.dim, dtype=complex)
        for k in range(n_steps):
            for frac in (1.0 / 6.0, 5.0 / 6.0):
                h = self.h0.copy()
                for n, c in zip(self.number, controls):
                    h += TWO_PI * (c[k] + frac * (c[k + 1] - c[k])) * n
                u = expm(-0.5j * dt * h) @ u
        return expm(1j * n_steps * dt * self.h0) @ u

    def propagate_schedule(self, schedule, coupler_idle: float) -> np.ndarray:
        """Propagator of a czsim ControlSchedule's sampled controls."""
        wc = np.asarray(schedule.coupler_trajectory.samples, dtype=float)
        offsets = schedule.qubit_offsets or {}
        zero = np.zeros(len(wc))
        q1 = offsets["Q1"].samples if "Q1" in offsets else zero
        q2 = offsets["Q2"].samples if "Q2" in offsets else zero
        return self.propagate(schedule.dt, wc - coupler_idle, q1, q2)

    def gate_metrics(self, u: np.ndarray) -> dict:
        """Fidelity (maximized over virtual Z), leakage from |11>, conditional phase."""
        v = np.column_stack([self.dressed[label] for label in COMPUTATIONAL])
        m = v.conj().T @ u @ v
        leakage = max(1.0 - float(np.sum(np.abs(m[:, 3]) ** 2)), 0.0)
        phase = wrap(np.angle(m[0, 0]) - np.angle(m[1, 1]) - np.angle(m[2, 2])
                     + np.angle(m[3, 3]))
        return {"fidelity": best_cz_fidelity(m), "leakage": leakage,
                "conditional_phase_deg": float(np.degrees(phase))}


def best_cz_fidelity(m: np.ndarray) -> float:
    """Average gate fidelity of a 4x4 map against the best virtual-Z CZ.

    With a = D+ + D- and b = D+ - D-, Tr(T^dag M) = c0(a) + c1(a) e^{-ib}
    where c0 = m00 + m11 e^{-ia} and c1 = m22 - m33 e^{-ia}, so the best b
    gives |c0| + |c1|, which is maximized over a by a grid and a bounded
    polish.
    """

    def overlap(a):
        e = np.exp(-1j * a)
        return np.abs(m[0, 0] + m[1, 1] * e) + np.abs(m[2, 2] - m[3, 3] * e)

    grid = np.linspace(0.0, TWO_PI, 721)
    a0 = grid[int(np.argmax(overlap(grid)))]
    step = grid[1] - grid[0]
    polish = minimize_scalar(lambda a: -overlap(a), bounds=(a0 - step, a0 + step),
                             method="bounded", options={"xatol": 1e-12})
    best = max(float(overlap(a0)), float(-polish.fun))
    return float((np.real(np.trace(m.conj().T @ m)) + best ** 2) / 20.0)


def half_pi_gate(axis_deg: float) -> np.ndarray:
    a = np.radians(axis_deg)
    pauli = np.cos(a) * np.array([[0, 1], [1, 0]]) + np.sin(a) * np.array([[0, -1j], [1j, 0]])
    return expm(-0.25j * np.pi * pauli)


def circuit_probs(layers, include_cz: bool = True) -> np.ndarray:
    """Ideal outcome probabilities of one 2-qubit circuit from its gate names.

    layers is a sequence of (gate on qubit 0, gate on qubit 1); qubit 0 is
    the most significant bit; the CZ follows each layer.
    """
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    for g0, g1 in layers:
        psi = np.kron(half_pi_gate(GATE_AXES_DEG[g0]), half_pi_gate(GATE_AXES_DEG[g1])) @ psi
        if include_cz:
            psi = cz @ psi
    return np.abs(psi) ** 2


def depolarized_readout_probs(ideal, p_cycle: float, depth: int, f00, f11) -> np.ndarray:
    """Outcome probabilities after a global depolarizing channel per cycle and
    per-qubit readout confusion (f00, f11 per qubit, qubit 0 first)."""
    lam = (1.0 - p_cycle) ** depth
    q = lam * np.asarray(ideal) + (1.0 - lam) / len(ideal)
    confusion = np.array([[1.0]])
    for a, b in zip(f00, f11):
        confusion = np.kron(confusion, np.array([[a, 1.0 - b], [1.0 - a, b]]))
    return confusion @ q


def depolarized_purity(p_cycle: float, depth: int) -> float:
    """Speckle purity of a global depolarizing channel after depth cycles."""
    return (1.0 - p_cycle) ** (2 * depth)


def purity_stderr_bound(p_cycle: float, depth: int, n_circuits: int, dim: int = 4) -> float:
    """Upper bound on the standard error of the speckle-purity estimate.

    Ideal probabilities of a Porter-Thomas ensemble are Beta(1, D-1)
    distributed; the depolarized ones are lam (p - 1/D) + 1/D.  The purity
    is D^2 (D+1)/(D-1) times the sample variance, whose standard error is
    at most sqrt((mu4 - sigma^4) / N) when the D outcomes of a circuit are
    counted as fully correlated (they are in fact anti-correlated).
    """
    raw = [1.0]
    for k in range(4):
        raw.append(raw[-1] * (1.0 + k) / (dim + k))
    mean = raw[1]
    var = raw[2] - mean ** 2
    mu4 = raw[4] - 4 * mean * raw[3] + 6 * mean ** 2 * raw[2] - 3 * mean ** 4
    scale = dim ** 2 * (dim + 1) / (dim - 1)
    lam2 = depolarized_purity(p_cycle, depth)
    return float(scale * lam2 * np.sqrt((mu4 - var ** 2) / n_circuits))
