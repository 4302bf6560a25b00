"""Random-circuit benchmarking: linear XEB and speckle purity (SPB).

Circuits alternate layers of random pi/2 rotations (axes X, Y and the two
diagonals W, V in the equatorial plane, never repeating on the same qubit)
with an optional CZ per cycle.  Every circuit's labels come from
batch_random_labels and every layer's unitary from one table, so XEB and
SPB run the same ensemble through the same ideal path.  Noise is injected
at the labeled-gate level: a global depolarizing channel once per cycle
plus per-qubit readout confusion applied to the outcome probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

GATE_NAMES = ("X/2", "Y/2", "W/2", "V/2")
_GATE_AXES_DEG = {"X/2": 0.0, "Y/2": 90.0, "W/2": 45.0, "V/2": 135.0}


class BenchmarkingError(ValueError):
    pass


def _half_pi_gate(axis_deg: float) -> np.ndarray:
    a = np.radians(axis_deg)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    n = np.cos(a) * sx + np.sin(a) * sy
    return np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * n


GATE_MATRICES = {name: _half_pi_gate(axis) for name, axis in _GATE_AXES_DEG.items()}
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

_GATES = np.stack([GATE_MATRICES[name] for name in GATE_NAMES])
# Every pi/2 layer's unitary by label index: the 4 gates for one qubit,
# and kron(G[a], G[b]) at index 4a + b for two.
_LAYER_TABLE = {
    1: _GATES,
    2: np.stack([np.kron(a, b) for a in _GATES for b in _GATES]),
}
_LABEL_OF = {name: i for i, name in enumerate(GATE_NAMES)}
_LABEL_WEIGHTS = {n: len(GATE_NAMES) ** np.arange(n - 1, -1, -1) for n in _LAYER_TABLE}


def _layer_table(n_qubits: int, two_qubit: np.ndarray | None = None) -> np.ndarray:
    """_LAYER_TABLE[n_qubits], each entry followed by two_qubit when given.

    The two-qubit gate follows every pi/2 layer of a two-qubit circuit, so
    it is ignored for one qubit.  The result has shape (4**n_qubits, D, D).
    """
    table = _LAYER_TABLE[n_qubits]
    if two_qubit is not None and n_qubits == 2:
        table = two_qubit @ table
    return table


def _layer_index(labels: np.ndarray) -> np.ndarray:
    """Table index of each layer: labels (..., n_qubits) -> (...)."""
    return labels @ _LABEL_WEIGHTS[labels.shape[-1]]


def _channel_table(unitaries: np.ndarray, p: float) -> np.ndarray:
    """Each layer map U as a superoperator on row-major vec(rho), then depolarized.

    S = D_p (U (x) U*) with D_p = (1 - p) I + (p / D) |I><I|, so that
    S vec(rho) = vec((1 - p) U rho U^+ + p Tr(U rho U^+) I / D).  Exact for
    a leaky, non-unitary U too: the trace row <I| S carries its loss.
    """
    n, dim, _ = unitaries.shape
    table = unitaries[:, :, None, :, None] * unitaries.conj()[:, None, :, None, :]
    table = table.reshape(n, dim * dim, dim * dim)
    trace_row = table[:, ::dim + 1].sum(axis=1)
    table *= 1.0 - p
    table[:, ::dim + 1] += (p / dim) * trace_row[:, None]
    return table


@dataclass(frozen=True)
class NoiseSpec:
    """Global depolarizing probability per cycle plus readout confusion.

    readout_confusion maps qubit index to a column-stochastic 2x2 matrix
    C[measured, prepared]; identity when absent.
    """

    depolarizing_per_cycle: float = 0.0
    readout_confusion: dict[int, np.ndarray] = field(default_factory=dict)
    # confusion_map's result by qubit count, built on first use.
    _confusion_maps: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        p = self.depolarizing_per_cycle
        if not 0.0 <= p <= 1.0:
            raise BenchmarkingError(f"depolarizing probability {p} outside [0, 1]")
        for q, c in self.readout_confusion.items():
            c = np.asarray(c, dtype=float)
            if c.shape != (2, 2) or np.any((c < 0) | (c > 1)) \
                    or not np.allclose(c.sum(axis=0), 1.0, atol=1e-12):
                raise BenchmarkingError(f"confusion matrix for qubit {q} is not column-stochastic")
            object.__setattr__(self, "readout_confusion",
                               {**self.readout_confusion, q: c})

    @classmethod
    def from_fidelities(cls, depolarizing_per_cycle: float,
                        f00: dict[int, float], f11: dict[int, float]) -> "NoiseSpec":
        if f00.keys() != f11.keys():
            raise BenchmarkingError(f"readout f00 covers qubits {sorted(f00)} "
                                    f"but f11 covers {sorted(f11)}")
        confusion = {
            q: np.array([[f00[q], 1.0 - f11[q]], [1.0 - f00[q], f11[q]]])
            for q in f00
        }
        return cls(depolarizing_per_cycle=depolarizing_per_cycle, readout_confusion=confusion)

    def confusion_map(self, n_qubits: int) -> np.ndarray | None:
        """The read-only D x D confusion matrix of qubits 0 .. n_qubits - 1."""
        if not self.readout_confusion:
            return None
        if n_qubits not in self._confusion_maps:
            full = np.ones((1, 1))
            for q in range(n_qubits):
                full = np.kron(full, self.readout_confusion.get(q, np.eye(2)))
            full.setflags(write=False)
            self._confusion_maps[n_qubits] = full
        return self._confusion_maps[n_qubits]


@dataclass(frozen=True)
class RandomCircuit:
    """Seed-reproducible random circuit: one pi/2 layer per cycle plus
    an optional CZ when two qubits are benchmarked."""

    n_qubits: int
    depth: int
    single_qubit_layers: tuple[tuple[str, ...], ...]
    include_cz: bool
    seed: int


def generate_circuit(n_qubits: int, depth: int, seed: int, include_cz: bool = True) -> RandomCircuit:
    """One circuit drawn by the batch rule: batch_random_labels(1, depth, n_qubits, seed)."""
    if n_qubits not in (1, 2):
        raise BenchmarkingError("only 1- and 2-qubit circuits are supported")
    labels = batch_random_labels(1, depth, n_qubits, seed)[:, 0].tolist()
    return RandomCircuit(n_qubits=n_qubits, depth=depth,
                         single_qubit_layers=tuple(tuple(GATE_NAMES[i] for i in layer)
                                                   for layer in labels),
                         include_cz=include_cz and n_qubits == 2, seed=seed)


def simulate_circuit(circuit: RandomCircuit, noise: NoiseSpec | None = None,
                     cz_gate: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact ideal probabilities and noisy outcome probabilities.

    The ideal path is batch_ideal_probs on this one circuit.  The noisy
    path evolves vec(rho) through one superoperator per cycle, gathered by
    label from _channel_table: the pi/2 layer, the (possibly device-backed,
    possibly leaky) CZ map and a global depolarizing channel.  The readout
    confusion acts on the final probabilities.
    """
    labels = np.array([[_LABEL_OF[g] for g in layer] for layer in circuit.single_qubit_layers])
    ideal = batch_ideal_probs(labels[:, None], include_cz=circuit.include_cz)[0]

    noise = noise or NoiseSpec()
    dim = 2 ** circuit.n_qubits
    two_qubit = (CZ if cz_gate is None else cz_gate) if circuit.include_cz else None
    channels = _channel_table(_layer_table(circuit.n_qubits, two_qubit),
                              noise.depolarizing_per_cycle)
    rho = np.zeros(dim * dim, dtype=complex)
    rho[0] = 1.0
    for channel in channels[_layer_index(labels)]:
        rho = channel @ rho
    # Round-off leaves some diagonal entries at about -1e-17; shot sampling refuses them.
    noisy = np.clip(rho[::dim + 1].real, 0.0, None)
    total = noisy.sum()
    if total > 0:
        noisy = noisy / total  # renormalize away leakage loss of a leaky CZ map
    confusion = noise.confusion_map(circuit.n_qubits)
    if confusion is not None:
        noisy = confusion @ noisy
    return ideal, noisy


def linear_xeb_fidelity(ideal_probs: np.ndarray, measured, dimension: int) -> float:
    """Self-normalized linear XEB fidelity estimate.

    measured may be a probability vector or an array of sampled bitstring
    indices.  F = (D <p_ideal>_measured - 1) / (D sum p^2 - 1), so exact
    noiseless probabilities give exactly 1.
    """
    p = np.asarray(ideal_probs, dtype=float)
    measured = np.asarray(measured)
    if measured.ndim == 1 and measured.dtype.kind in "iu":
        mean_p = p[measured].mean()
    else:
        q = measured.astype(float)
        mean_p = float(q @ p)
    denominator = dimension * float(p @ p) - 1.0
    if abs(denominator) < 1e-6:
        raise BenchmarkingError("degenerate XEB normalization: ideal distribution too uniform")
    return (dimension * mean_p - 1.0) / denominator


def fit_decay(depths, per_depth_fidelities, dimension: int = 4) -> dict:
    """Fit F(d) = A alpha^d and convert alpha to Pauli / average errors.

    Returns alpha with its standard error, pauli_error
    (1-alpha)(D^2-1)/D^2 and average_error (1-alpha)(D-1)/D.  If
    fidelities turn non-positive past some depth, the fit uses the
    positive prefix and sets truncated=True.
    """
    depths = np.asarray(depths, dtype=float)
    f = np.asarray(per_depth_fidelities, dtype=float)
    if len(depths) < 3:
        raise BenchmarkingError("need at least 3 depths for a decay fit")
    truncated = False
    nonpos = np.nonzero(f <= 0)[0]
    if len(nonpos):
        cut = nonpos[0]
        if cut < 3:
            raise BenchmarkingError("fewer than 3 positive fidelities; cannot fit decay")
        depths, f = depths[:cut], f[:cut]
        truncated = True

    def model(d, a, alpha):
        return a * alpha ** d

    # log-linear seed
    slope, intercept = np.polyfit(depths, np.log(f), 1)
    p0 = [float(np.exp(intercept)), float(np.exp(slope))]
    params, cov = curve_fit(model, depths, f, p0=p0, maxfev=10_000)
    alpha = float(params[1])
    alpha_err = float(np.sqrt(cov[1, 1])) if np.all(np.isfinite(cov)) else float("nan")
    d2 = dimension * dimension
    return {
        "amplitude": float(params[0]),
        "alpha": alpha,
        "alpha_stderr": alpha_err,
        "pauli_error": (1.0 - alpha) * (d2 - 1) / d2,
        "average_error": (1.0 - alpha) * (dimension - 1) / dimension,
        "truncated": truncated,
    }


def speckle_purity(measured_probs: np.ndarray, dimension: int) -> tuple[float, float]:
    """Purity estimate from the spread of measured probabilities.

    purity = Var(probs over circuits and bitstrings) * D^2 (D+1) / (D-1),
    the inverse of the Porter-Thomas variance, so fully mixed -> 0 and an
    ideal random-circuit ensemble -> 1.  Returns (purity, sqrt-purity).
    """
    probs = np.asarray(measured_probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] < 10:
        raise BenchmarkingError("need measured probabilities for at least 10 circuits")
    variance = probs.var(ddof=1)
    purity = float(variance * dimension ** 2 * (dimension + 1) / (dimension - 1))
    return purity, float(np.sqrt(max(purity, 0.0)))


@dataclass(frozen=True)
class XebRun:
    """Aggregated XEB/SPB result over a depth ladder."""

    n_qubits: int
    depths: tuple[int, ...]
    n_circuits: int
    seed: int
    per_depth_fidelity: tuple[float, ...]
    per_depth_purity: tuple[float, ...]
    fidelity_fit: dict
    purity_fit: dict

    @property
    def cycle_fidelity(self) -> float:
        return self.fidelity_fit["alpha"]

    @property
    def cycle_purity_fidelity(self) -> float:
        return float(np.sqrt(max(self.purity_fit["alpha"], 0.0)))

    @property
    def control_error(self) -> float:
        return self.cycle_purity_fidelity - self.cycle_fidelity

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "depths": list(self.depths),
            "n_circuits": self.n_circuits,
            "seed": self.seed,
            "per_depth_fidelity": list(self.per_depth_fidelity),
            "per_depth_purity": list(self.per_depth_purity),
            "fidelity_fit": self.fidelity_fit,
            "purity_fit": self.purity_fit,
            "cycle_fidelity": self.cycle_fidelity,
            "cycle_purity_fidelity": self.cycle_purity_fidelity,
            "control_error": self.control_error,
        }


DEFAULT_DEPTHS = (1, 3, 5, 8, 12, 17, 23, 30)
DEFAULT_CIRCUITS = 50


def circuit_seeds(master_seed: int, n: int) -> list[int]:
    """Deterministic per-circuit seeds split from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def cz_xeb_pipeline(cz_gate: np.ndarray | None = None, noise: NoiseSpec | None = None,
                    depths=DEFAULT_DEPTHS, n_circuits: int = DEFAULT_CIRCUITS,
                    seed: int = 0, n_qubits: int = 2, shots: int | None = None) -> XebRun:
    """End-to-end XEB + SPB run.

    cz_gate may be a device-backed projected CZ map (virtual-Z corrected)
    or None for the labeled perfect CZ.  shots=None scores exact noisy
    probabilities; otherwise bitstrings are sampled.
    """
    dim = 2 ** n_qubits
    noise = noise or NoiseSpec()
    depths = tuple(int(d) for d in depths)
    seeds = circuit_seeds(seed, len(depths) * n_circuits)
    shot_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC2]).generate_state(1)[0])

    per_depth_f = []
    per_depth_purity = []
    kept_depths = []
    for di, depth in enumerate(depths):
        estimates = []
        all_ideal = []
        all_noisy = []
        for ci in range(n_circuits):
            circ = generate_circuit(n_qubits, depth, seeds[di * n_circuits + ci],
                                    include_cz=n_qubits == 2)
            ideal, noisy = simulate_circuit(circ, noise, cz_gate)
            if shots is None:
                freqs = noisy
            else:
                outcomes = shot_rng.choice(dim, size=shots, p=noisy)
                freqs = np.bincount(outcomes, minlength=dim) / shots
            all_ideal.append(ideal)
            all_noisy.append(freqs)
            try:
                measured = noisy if shots is None else outcomes
                estimates.append(linear_xeb_fidelity(ideal, measured, dim))
            except BenchmarkingError:
                continue  # depth-1 circuits of pure pi/2 layers are exactly uniform
        if not estimates:
            continue
        kept_depths.append(depth)
        per_depth_f.append(float(np.mean(estimates)))
        # Shallow ensembles are not yet Porter-Thomas, so normalize by the
        # speckle purity of the same circuits' ideal outputs.
        purity, _ = speckle_purity(np.asarray(all_noisy), dim)
        ideal_purity, _ = speckle_purity(np.asarray(all_ideal), dim)
        per_depth_purity.append(purity / ideal_purity)

    fidelity_fit = fit_decay(kept_depths, per_depth_f, dim)
    purity_fit = fit_decay(kept_depths, per_depth_purity, dim)
    return XebRun(
        n_qubits=n_qubits,
        depths=tuple(kept_depths),
        n_circuits=n_circuits,
        seed=seed,
        per_depth_fidelity=tuple(per_depth_f),
        per_depth_purity=tuple(per_depth_purity),
        fidelity_fit=fidelity_fit,
        purity_fit=purity_fit,
    )


def batch_random_labels(n_circuits: int, depth: int, n_qubits: int, seed: int) -> np.ndarray:
    """Gate-label indices of shape (depth, n_circuits, n_qubits).

    The one label rule of every circuit: the first layer is uniform, and
    each later label is the previous one plus a uniform nonzero step mod
    4, so no gate repeats on a qubit.  Deterministic in (seed, shape).
    """
    if depth < 1:
        raise BenchmarkingError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    labels = np.empty((depth, n_circuits, n_qubits), dtype=np.int64)
    labels[0] = rng.integers(len(GATE_NAMES), size=(n_circuits, n_qubits))
    # Every step in one draw, then each layer as the running sum mod 4.
    labels[1:] = rng.integers(1, len(GATE_NAMES), size=(depth - 1, n_circuits, n_qubits))
    np.cumsum(labels, axis=0, out=labels)
    labels &= 3  # mod 4
    return labels


def batch_ideal_probs(labels: np.ndarray, include_cz: bool = True) -> np.ndarray:
    """Exact output probabilities for a batch of circuits, shape (n, D)."""
    _, n_circuits, n_qubits = labels.shape
    table = _layer_table(n_qubits, CZ if include_cz else None)
    psi = np.zeros((n_circuits, 2 ** n_qubits), dtype=complex)
    psi[:, 0] = 1.0
    # One layer at a time: gathering every layer's unitaries at once would
    # hold depth x n_circuits matrices.
    for layer in labels:
        psi = np.einsum("nij,nj->ni", table[_layer_index(layer)], psi)
    return np.abs(psi) ** 2


def speckle_purity_experiment(n_qubits: int, depth: int, n_circuits: int,
                              depolarizing_per_cycle: float = 0.0,
                              seed: int = 0) -> tuple[float, float]:
    """Large-ensemble SPB experiment with a global depolarizing channel.

    The channel commutes with the unitary circuit, so the noisy outcome
    probabilities are the exact affine map q = lam^depth (p - 1/D) + 1/D
    of the ideal ones (lam = 1 - p_cycle); this matches the density-matrix
    evolution exactly and allows very large circuit counts.
    Returns (purity, sqrt-purity).
    """
    dim = 2 ** n_qubits
    labels = batch_random_labels(n_circuits, depth, n_qubits, seed)
    probs = batch_ideal_probs(labels, include_cz=n_qubits == 2)
    lam = (1.0 - depolarizing_per_cycle) ** depth
    noisy = lam * (probs - 1.0 / dim) + 1.0 / dim
    return speckle_purity(noisy, dim)


def depolarized_purity_oracle(depth: int, depolarizing_per_cycle: float,
                              dimension: int = 4) -> float:
    """What the SPB estimator should converge to, from Tr(rho^2).

    After d cycles rho = lam rho_ideal + (1 - lam) I/D with
    lam = (1 - p)^d, so Tr(rho^2) = lam^2 (1 - 1/D) + 1/D and the
    speckle-variance estimate converges to
    lam^2 = (Tr(rho^2) - 1/D) D / (D - 1).
    """
    lam = (1.0 - depolarizing_per_cycle) ** depth
    tr_rho2 = lam * lam * (1.0 - 1.0 / dimension) + 1.0 / dimension
    return (tr_rho2 - 1.0 / dimension) * dimension / (dimension - 1.0)


def virtual_z_corrected_cz(projected_map: np.ndarray, angles) -> np.ndarray:
    """Undo the fitted virtual-Z angles so the map is closest to canonical CZ."""
    dp, dm = angles.delta_plus, angles.delta_minus
    correction = np.diag([
        1.0,
        np.exp(-1j * (dp + dm)),
        np.exp(-1j * (dp - dm)),
        np.exp(-1j * 2.0 * dp),
    ])
    return correction @ np.asarray(projected_map, dtype=complex)
