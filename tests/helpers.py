"""Reference computations and transformations that only the tests use."""

from dataclasses import replace

import numpy as np

from czsim.benchmarking import CZ, GATE_MATRICES, NoiseSpec
from czsim.device import TWO_PI, DeviceSpec, HamiltonianTerms, dressed_basis
from czsim.propagator import ControlSchedule, PropagationResult, _step_offsets
from czsim.pulses import SampledWaveform


def refine_schedule(schedule: ControlSchedule, factor: int = 2) -> ControlSchedule:
    """Subdivide the schedule's piecewise-linear controls onto a grid `factor` times finer."""

    def refine(wf: SampledWaveform) -> SampledWaveform:
        n = len(wf.samples)
        fine = np.interp(np.arange((n - 1) * factor + 1) / factor, np.arange(n), wf.samples)
        return replace(wf, dt=wf.dt / factor, samples=fine)

    offsets = schedule.qubit_offsets
    return ControlSchedule(
        coupler_trajectory=refine(schedule.coupler_trajectory),
        qubit_offsets=None if offsets is None else
        {label: refine(wf) for label, wf in offsets.items()},
    )


def with_levels(spec: DeviceSpec, levels: int) -> DeviceSpec:
    """The device with every mode truncated at `levels` levels."""
    return replace(spec, modes=tuple(replace(m, levels=levels) for m in spec.modes))


def eigen_effective_coupling(spec: DeviceSpec, coupler_frequencies) -> np.ndarray:
    """g_eff from the eigenvalues of the resonant single-excitation block.

    An independent reference for the closed form: with the qubits at their
    mean w_q, eigvalsh of the 3x3 block in (|100>, |010>, |001>), less the
    level nearest the anti-phase w_q - g_12, leaves the in-phase qubit-like
    level as the lower one; g_eff is half its gap to the anti-phase level.
    """
    wc = np.asarray(coupler_frequencies, dtype=float)
    wq = 0.5 * (spec.q1.frequency + spec.q2.frequency)
    g = spec.couplings
    block = np.zeros(wc.shape + (3, 3))
    block[..., 0, 0] = block[..., 2, 2] = wq
    block[..., 1, 1] = wc
    block[..., 0, 1] = block[..., 1, 0] = g.g_1c
    block[..., 1, 2] = block[..., 2, 1] = g.g_2c
    block[..., 0, 2] = block[..., 2, 0] = g.g_12
    levels = np.linalg.eigvalsh(block)
    anti_phase = wq - g.g_12
    nearest = np.argmin(np.abs(levels - anti_phase), axis=-1)
    others = np.where(np.arange(3) == nearest[..., None], np.inf, levels)
    return 0.5 * (others.min(axis=-1) - anti_phase)


def looped_random_labels(n_circuits: int, depth: int, n_qubits: int, seed: int) -> np.ndarray:
    """The label rule drawn one layer at a time: a uniform first layer,
    then each layer the previous one plus a step drawn from [1, 4), mod 4."""
    rng = np.random.default_rng(seed)
    labels = np.empty((depth, n_circuits, n_qubits), dtype=np.int64)
    labels[0] = rng.integers(4, size=(n_circuits, n_qubits))
    for d in range(1, depth):
        step = rng.integers(1, 4, size=(n_circuits, n_qubits))
        labels[d] = (labels[d - 1] + step) % 4
    return labels


def looped_circuit_probs(circuit, noise=None, cz_gate=None) -> tuple[np.ndarray, np.ndarray]:
    """Ideal and noisy outcome probabilities of a RandomCircuit, layer by layer.

    The ideal state is a statevector through explicit Kronecker products
    and the labeled CZ.  The noisy state is a density matrix: each cycle
    applies the layer and the (possibly leaky) two-qubit map, then the
    global depolarizing channel rho -> (1 - p) rho + p Tr(rho) I / D; the
    diagonal is renormalized and the readout confusion applied last.
    """
    noise = noise or NoiseSpec()
    p = noise.depolarizing_per_cycle
    dim = 2 ** circuit.n_qubits
    gate = CZ if cz_gate is None else np.asarray(cz_gate)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    rho = np.outer(psi, psi)
    for layer in circuit.single_qubit_layers:
        u = GATE_MATRICES[layer[0]]
        for name in layer[1:]:
            u = np.kron(u, GATE_MATRICES[name])
        v = u
        if circuit.include_cz:
            u, v = CZ @ u, gate @ u
        psi = u @ psi
        rho = v @ rho @ v.conj().T
        if p > 0.0:
            rho = (1.0 - p) * rho + p * np.trace(rho).real * np.eye(dim) / dim
    noisy = np.clip(np.real(np.diag(rho)), 0.0, None)
    noisy = noisy / noisy.sum()
    confusion = noise.confusion_map(circuit.n_qubits)
    if confusion is not None:
        noisy = confusion @ noisy
    return np.abs(psi) ** 2, noisy


def eigh_substep_unitaries(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) for a stack of real symmetric h, rebuilt from each
    matrix's eigendecomposition: evecs diag(e^{-i evals tau}) evecs^T."""
    evals, evecs = np.linalg.eigh(h)
    return np.matmul(evecs * np.exp(-1j * evals * tau)[:, None, :],
                     evecs.conj().transpose(0, 2, 1))


def eigh_propagate(terms: HamiltonianTerms, schedule: ControlSchedule,
                   blocks: tuple[np.ndarray, ...] | None = None) -> PropagationResult:
    """`propagate` as it was before the batched Taylor exponential.

    The same Magnus nodes, block split, pairwise time-ordered reduction and
    idle frame, but the distinct substeps come from np.unique over the
    node rows and each substep unitary from `eigh_substep_unitaries`.  No
    step-size or unitarity guard is applied.
    """
    blocks = terms.blocks if blocks is None else blocks
    dt = schedule.dt
    offsets = _step_offsets(terms, schedule)
    n_steps = len(schedule.coupler_trajectory.samples) - 1
    labels = sorted(offsets)
    points, index = np.unique(np.column_stack([offsets[label] for label in labels]),
                              axis=0, return_inverse=True)
    u_full = np.zeros((terms.dimension, terms.dimension), dtype=complex)
    defect = 0.0
    for idx in blocks:
        sub = np.ix_(idx, idx)
        h0 = terms.static_part[sub]
        h = np.broadcast_to(h0, (len(points),) + h0.shape).copy()
        for col, label in enumerate(labels):
            h += TWO_PI * points[:, col, None, None] * terms.control_parts[label][sub]
        u = eigh_substep_unitaries(h, 0.5 * dt)[index]
        while len(u) > 1:
            if len(u) % 2:
                u = np.concatenate([np.matmul(u[1:-1:2], u[0:-1:2]), u[-1:]])
            else:
                u = np.matmul(u[1::2], u[0::2])
        evals0, evecs0 = np.linalg.eigh(h0)
        frame = (evecs0 * np.exp(1j * evals0 * dt * n_steps)) @ evecs0.conj().T
        u_full[sub] = frame @ u[0]
        defect = max(defect, float(np.max(np.abs(u_full[sub].conj().T @ u_full[sub]
                                                 - np.eye(len(idx))))))
    return PropagationResult(propagator=u_full, basis=dressed_basis(terms),
                             unitarity_defect=defect, terms=terms)
