"""Three-mode device model: two transmons coupled through a tunable coupler.

The system is modeled as three Duffing oscillators with transverse
(exchange) couplings,

    H = sum_i (w_i n_i + eta_i/2 n_i (n_i - 1))
        + sum_{i<j} g_ij (b_i^dag b_j + b_j^dag b_i),

with hbar = 1.  Configuration values are plain GHz (w_i/2pi etc.); the
assembled matrices are in angular units (rad/ns), converted by 2pi at
this boundary and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import connected_components

TWO_PI = 2.0 * np.pi

# Hard cap on the Hilbert-space dimension (levels product).
MAX_DIMENSION = 1000

# Guard band around qubit frequencies where the perturbative sign estimate
# for the effective coupling breaks down (GHz).
RESONANCE_GUARD = 0.010

MODE_LABELS = ("Q1", "C", "Q2")


class DeviceModelError(ValueError):
    """Invalid device configuration or an operation outside its domain."""


@dataclass(frozen=True)
class ModeSpec:
    """One oscillator mode: a qubit or the coupler.

    frequency is the 0->1 transition in GHz, anharmonicity the (typically
    negative) eta/2pi in GHz, levels the Fock truncation.
    """

    label: str
    frequency: float
    anharmonicity: float
    levels: int = 3

    def __post_init__(self):
        if self.label not in MODE_LABELS:
            raise DeviceModelError(f"unknown mode label {self.label!r}")
        if self.levels < 3:
            raise DeviceModelError("levels must be >= 3 so |2> leakage is representable")
        if not self.frequency > 0:
            raise DeviceModelError("mode frequency must be positive")
        if not np.isfinite(self.anharmonicity):
            raise DeviceModelError("anharmonicity must be finite")


@dataclass(frozen=True)
class CouplingGraph:
    """Transverse coupling strengths g_ij/2pi in GHz."""

    g_1c: float
    g_2c: float
    g_12: float

    def __post_init__(self):
        for name in ("g_1c", "g_2c", "g_12"):
            if not np.isfinite(getattr(self, name)):
                raise DeviceModelError(f"{name} must be finite")


@dataclass(frozen=True)
class DeviceSpec:
    """Full three-mode device: modes ordered (Q1, C, Q2) plus couplings."""

    modes: tuple[ModeSpec, ModeSpec, ModeSpec]
    couplings: CouplingGraph

    def __post_init__(self):
        labels = tuple(m.label for m in self.modes)
        if labels != MODE_LABELS:
            raise DeviceModelError(f"modes must be ordered {MODE_LABELS}, got {labels}")

    @property
    def q1(self) -> ModeSpec:
        return self.modes[0]

    @property
    def coupler(self) -> ModeSpec:
        return self.modes[1]

    @property
    def q2(self) -> ModeSpec:
        return self.modes[2]

    def dims(self) -> tuple[int, int, int]:
        return tuple(m.levels for m in self.modes)

    def with_frequencies(self, q1=None, coupler=None, q2=None) -> "DeviceSpec":
        """Copy of this spec with some mode frequencies replaced (GHz)."""
        new = []
        for mode, f in zip(self.modes, (q1, coupler, q2)):
            if f is None:
                new.append(mode)
            else:
                new.append(ModeSpec(mode.label, f, mode.anharmonicity, mode.levels))
        return DeviceSpec(tuple(new), self.couplings)

    def with_levels(self, levels: int) -> "DeviceSpec":
        new = tuple(ModeSpec(m.label, m.frequency, m.anharmonicity, levels) for m in self.modes)
        return DeviceSpec(new, self.couplings)


@dataclass(frozen=True)
class HamiltonianTerms:
    """Assembled Hamiltonian, split into static and control parts.

    H(t) = static_part + sum_m dw_m(t) * control_parts[m], with dw_m the
    frequency offset of mode m in rad/ns.  static_part is in rad/ns;
    control_parts are the (dimensionless) mode number operators.
    """

    spec: DeviceSpec
    dimension: int
    static_part: np.ndarray
    control_parts: dict[str, np.ndarray]

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Index sets of the subspaces that H(t) leaves invariant for any controls.

        They are the connected components of the joint nonzero pattern of
        static_part and control_parts, so they hold for whatever terms are
        present.  For the exchange-coupled model they are the sectors of
        fixed total excitation number n1 + nc + n2.
        """
        pattern = self.static_part != 0
        for part in self.control_parts.values():
            pattern = pattern | (part != 0)
        n_blocks, labels = connected_components(pattern, directed=False)
        return tuple(np.flatnonzero(labels == b) for b in range(n_blocks))

    def assemble(self, offsets_ghz: dict[str, float] | None = None) -> np.ndarray:
        """H for the given per-mode frequency offsets (GHz), in rad/ns."""
        h = self.static_part.copy()
        if offsets_ghz:
            for label, dw in offsets_ghz.items():
                if label not in self.control_parts:
                    raise DeviceModelError(f"unknown mode label {label!r}")
                h += TWO_PI * dw * self.control_parts[label]
        return h

    def bare_labels(self) -> list[tuple[int, int, int]]:
        d1, dc, d2 = self.spec.dims()
        return [(n1, nc, n2) for n1 in range(d1) for nc in range(dc) for n2 in range(d2)]

    def bare_index(self, label: tuple[int, int, int]) -> int:
        d1, dc, d2 = self.spec.dims()
        n1, nc, n2 = label
        if not (0 <= n1 < d1 and 0 <= nc < dc and 0 <= n2 < d2):
            raise DeviceModelError(f"bare label {label} outside truncation {self.spec.dims()}")
        return (n1 * dc + nc) * d2 + n2


@dataclass(frozen=True)
class DressedBasis:
    """Eigenbasis labeled by maximum-overlap bare product states.

    labels maps bare product labels |n1, nc, n2> to eigenvector indices;
    energies are in GHz; vectors holds the eigenvector columns.
    """

    labels: dict[tuple[int, int, int], int]
    energies: dict[tuple[int, int, int], float]
    vectors: np.ndarray

    def vector(self, label: tuple[int, int, int]) -> np.ndarray:
        return self.vectors[:, self.labels[label]]

    def energy(self, label: tuple[int, int, int]) -> float:
        return self.energies[label]


def _destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n)), 1)


def build_hamiltonian(spec: DeviceSpec) -> HamiltonianTerms:
    """Assemble the static three-mode Hamiltonian and per-mode control parts."""
    dims = spec.dims()
    dim = int(np.prod(dims))
    if dim > MAX_DIMENSION:
        raise DeviceModelError(f"Hilbert dimension {dim} exceeds cap {MAX_DIMENSION}")

    eyes = [np.eye(d) for d in dims]

    def embed(op: np.ndarray, which: int) -> np.ndarray:
        ops = list(eyes)
        ops[which] = op
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    lowering = [_destroy(d) for d in dims]
    number = [a.T @ a for a in lowering]

    h = np.zeros((dim, dim))
    control = {}
    for i, mode in enumerate(spec.modes):
        n_op = embed(number[i], i)
        h += TWO_PI * mode.frequency * n_op
        h += TWO_PI * mode.anharmonicity / 2.0 * embed(number[i] @ (number[i] - np.eye(dims[i])), i)
        control[mode.label] = n_op

    g = spec.couplings
    pairs = [(0, 1, g.g_1c), (1, 2, g.g_2c), (0, 2, g.g_12)]
    for i, j, gij in pairs:
        bi = embed(lowering[i], i)
        bj = embed(lowering[j], j)
        h += TWO_PI * gij * (bi.T @ bj + bj.T @ bi)

    return HamiltonianTerms(spec=spec, dimension=dim, static_part=h, control_parts=control)


def dressed_basis(terms: HamiltonianTerms, offsets_ghz: dict[str, float] | None = None,
                  require=None) -> DressedBasis:
    """Diagonalize H(offsets) and label eigenstates by maximum bare overlap.

    Ties are broken toward the lowest eigenvalue index.  An assignment with
    max overlap <= 0.5 is ambiguous: it raises for labels in `require`
    (default: every bare label) and is silently skipped otherwise.
    """
    h = terms.assemble(offsets_ghz)
    evals, evecs = np.linalg.eigh(h)

    required = set(terms.bare_labels() if require is None else require)
    labels = {}
    energies = {}
    overlaps = np.abs(evecs) ** 2  # overlaps[bare, eig]
    for label in terms.bare_labels():
        row = overlaps[terms.bare_index(label)]
        k = int(np.argmax(row))  # argmax returns the first (lowest) index on ties
        if row[k] <= 0.5:
            if label in required:
                raise DeviceModelError(
                    f"ambiguous dressed-state assignment for bare label {label}: "
                    f"max overlap {row[k]:.3f} <= 0.5"
                )
            continue
        labels[label] = k
        energies[label] = evals[k] / TWO_PI
    return DressedBasis(labels=labels, energies=energies, vectors=evecs)


def _resonant_single_excitation_block(spec: DeviceSpec, coupler_frequency) -> np.ndarray:
    """Single-excitation block(s) with Q1/Q2 tuned to their mean frequency.

    Returns shape (..., 3, 3) for array-valued coupler_frequency; basis
    order (|100>, |010>, |001>).  Linear in frequencies, so plain GHz.
    """
    wc = np.asarray(coupler_frequency, dtype=float)
    wq = 0.5 * (spec.q1.frequency + spec.q2.frequency)
    g = spec.couplings
    block = np.zeros(wc.shape + (3, 3))
    block[..., 0, 0] = wq
    block[..., 1, 1] = wc
    block[..., 2, 2] = wq
    block[..., 0, 1] = block[..., 1, 0] = g.g_1c
    block[..., 1, 2] = block[..., 2, 1] = g.g_2c
    block[..., 0, 2] = block[..., 2, 0] = g.g_12
    return block


def effective_coupling_batch(spec: DeviceSpec, coupler_frequencies: np.ndarray) -> np.ndarray:
    """Effective Q1-Q2 exchange coupling g_eff at each coupler frequency (GHz).

    Magnitude: half the splitting of the two qubit-like eigenvalues of the
    single-excitation block with the qubits tuned into resonance.  Sign:
    perturbative estimate g_12 + g_1c g_2c (1/D1 + 1/D2)/2, D_i = w_i - w_c.
    """
    wc = np.asarray(coupler_frequencies, dtype=float)
    for w in (spec.q1.frequency, spec.q2.frequency):
        if np.any(np.abs(wc - w) < RESONANCE_GUARD):
            raise DeviceModelError(
                f"coupler frequency within {RESONANCE_GUARD} GHz of a qubit at {w} GHz"
            )
    block = _resonant_single_excitation_block(spec, wc)
    evals, evecs = np.linalg.eigh(block)
    # Qubit character of each eigenvector: weight on |100> and |001>.
    character = np.abs(evecs[..., 0, :]) ** 2 + np.abs(evecs[..., 2, :]) ** 2
    order = np.argsort(-character, axis=-1)[..., :2]
    qubit_like = np.take_along_axis(evals, order, axis=-1)
    magnitude = 0.5 * np.abs(qubit_like[..., 0] - qubit_like[..., 1])

    # Sign from the in-phase/anti-phase structure of the qubit-like pair
    # (E_inphase - E_antiphase)/2, which is smooth through the zero crossing
    # and matches the perturbative estimate g_12 + g_1c g_2c (1/D1 + 1/D2)/2
    # wherever the resonance guard holds.
    phase_product = evecs[..., 0, :] * evecs[..., 2, :]
    pa = np.take_along_axis(phase_product, order[..., :1], axis=-1)[..., 0]
    pb = np.take_along_axis(phase_product, order[..., 1:], axis=-1)[..., 0]
    ea = qubit_like[..., 0]
    eb = qubit_like[..., 1]
    signed = np.where(pa >= pb, ea - eb, eb - ea) * 0.5

    # Near-degenerate fallback: if the pair shares an in/anti-phase sign the
    # structure is ambiguous; use the perturbative sign with the magnitude.
    g = spec.couplings
    d1 = spec.q1.frequency - wc
    d2 = spec.q2.frequency - wc
    perturbative = g.g_12 + 0.5 * g.g_1c * g.g_2c * (1.0 / d1 + 1.0 / d2)
    ambiguous = np.sign(pa) == np.sign(pb)
    return np.where(ambiguous, np.where(perturbative >= 0, magnitude, -magnitude), signed)


def coupler_frequency_at_coupling(spec: DeviceSpec, g_eff) -> np.ndarray:
    """Exact inverse of effective_coupling_batch on the branch above the qubits (GHz).

    With g_1c = g_2c = g the anti-phase state (|100> - |001>)/sqrt(2) of the
    resonant single-excitation block decouples at w_q - g_12, so the
    in-phase qubit-like level is w_q - g_12 + 2 g_eff, and the in-phase
    2x2 block gives

        w_c = w_q - g_12 + 2 g_eff - g^2 / (g_eff - g_12),

    rising monotonically to infinity as g_eff approaches g_12 from below.
    Devices with g_1c != g_2c have no such decoupled state and are refused.
    """
    g = spec.couplings
    if g.g_1c != g.g_2c:
        raise DeviceModelError(
            f"the g_eff inverse needs equal qubit-coupler couplings, "
            f"got g_1c = {g.g_1c} and g_2c = {g.g_2c} GHz"
        )
    g_eff = np.asarray(g_eff, dtype=float)
    wq = 0.5 * (spec.q1.frequency + spec.q2.frequency)
    return wq - g.g_12 + 2.0 * g_eff - g.g_1c ** 2 / (g_eff - g.g_12)


def zero_coupling_point(spec: DeviceSpec) -> float:
    """Coupler frequency above the qubits where g_eff crosses zero (GHz).

    The inverse at g_eff = 0, w_q - g_12 + g^2/g_12; raises if g_eff does
    not change sign on [upper qubit + 0.2, 20] GHz.
    """
    lo = max(spec.q1.frequency, spec.q2.frequency) + 0.2
    hi = 20.0
    # g_12 = 0 puts the zero at infinity, where the formula divides by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        root = float(coupler_frequency_at_coupling(spec, 0.0))
    if not lo <= root <= hi:
        f_lo, f_hi = effective_coupling_batch(spec, np.array([lo, hi]))
        raise DeviceModelError(
            f"effective coupling does not change sign on [{lo}, {hi}] GHz "
            f"(g_eff = {f_lo:.3e} .. {f_hi:.3e})"
        )
    return root
