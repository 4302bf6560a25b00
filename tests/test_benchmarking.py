import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czsim import benchmarking
from czsim.benchmarking import (
    CZ,
    GATE_MATRICES,
    GATE_NAMES,
    BenchmarkingError,
    NoiseSpec,
    batch_ideal_probs,
    batch_random_labels,
    circuit_seeds,
    cz_xeb_pipeline,
    depolarized_purity_oracle,
    fit_decay,
    generate_circuit,
    linear_xeb_fidelity,
    simulate_circuit,
    speckle_purity,
    speckle_purity_experiment,
    virtual_z_corrected_cz,
)
from czsim.metrics import VirtualZAngles, cz_target
from helpers import looped_circuit_probs, looped_random_labels


def test_gate_matrices_unitary():
    for name in GATE_NAMES:
        u = GATE_MATRICES[name]
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    assert np.allclose(CZ, np.diag([1, 1, 1, -1]))


def test_generate_circuit_no_repeat_and_determinism():
    circ = generate_circuit(2, 50, seed=42)
    for q in range(2):
        seq = [layer[q] for layer in circ.single_qubit_layers]
        assert all(a != b for a, b in zip(seq, seq[1:]))
    again = generate_circuit(2, 50, seed=42)
    assert circ == again
    other = generate_circuit(2, 50, seed=43)
    assert circ.single_qubit_layers != other.single_qubit_layers
    with pytest.raises(BenchmarkingError):
        generate_circuit(3, 5, seed=0)
    with pytest.raises(BenchmarkingError):
        generate_circuit(2, 0, seed=0)


def test_noise_spec_validation():
    with pytest.raises(BenchmarkingError):
        NoiseSpec(depolarizing_per_cycle=1.5)
    with pytest.raises(BenchmarkingError):
        NoiseSpec(readout_confusion={0: np.array([[0.9, 0.2], [0.2, 0.8]])})
    spec = NoiseSpec.from_fidelities(0.01, f00={0: 0.99, 1: 0.98},
                                     f11={0: 0.97, 1: 0.96})
    full = spec.confusion_map(2)
    assert full.shape == (4, 4)
    assert np.allclose(full.sum(axis=0), 1.0)
    assert np.array_equal(full, np.kron(spec.readout_confusion[0], spec.readout_confusion[1]))
    # Built once per qubit count, and shared read-only.
    assert spec.confusion_map(2) is full and not full.flags.writeable
    assert np.array_equal(spec.confusion_map(1), spec.readout_confusion[0])
    assert NoiseSpec(0.01).confusion_map(2) is None


def test_simulate_noiseless_matches_ideal():
    circ = generate_circuit(2, 12, seed=5)
    ideal, noisy = simulate_circuit(circ)
    assert ideal == pytest.approx(noisy, abs=1e-12)
    assert ideal.sum() == pytest.approx(1.0, abs=1e-12)


def test_simulate_depolarizing_is_affine():
    circ = generate_circuit(2, 9, seed=11)
    p = 0.02
    ideal, noisy = simulate_circuit(circ, NoiseSpec(depolarizing_per_cycle=p))
    lam = (1.0 - p) ** circ.depth
    expected = lam * (ideal - 0.25) + 0.25
    assert np.max(np.abs(noisy - expected)) < 1e-12


def test_simulate_readout_confusion_applied():
    circ = generate_circuit(1, 7, seed=2)
    conf = np.array([[0.95, 0.1], [0.05, 0.9]])
    ideal, noisy = simulate_circuit(circ, NoiseSpec(readout_confusion={0: conf}))
    assert np.allclose(noisy, conf @ ideal, atol=1e-12)


def test_linear_xeb_edge_cases():
    p = np.array([0.7, 0.1, 0.1, 0.1])
    assert linear_xeb_fidelity(p, p, 4) == pytest.approx(1.0)
    uniform = np.full(4, 0.25)
    assert linear_xeb_fidelity(p, uniform, 4) == pytest.approx(0.0)
    with pytest.raises(BenchmarkingError):
        linear_xeb_fidelity(uniform, uniform, 4)
    # Sampled bitstring indices are accepted.
    rng = np.random.default_rng(0)
    samples = rng.choice(4, size=200_000, p=p)
    f = linear_xeb_fidelity(p, samples, 4)
    assert f == pytest.approx(1.0, abs=0.02)


@given(alpha=st.floats(0.85, 0.999), amp=st.floats(0.8, 1.0))
@settings(max_examples=20, deadline=None)
def test_fit_decay_recovers_parameters(alpha, amp):
    depths = np.array([1, 3, 5, 8, 12, 17, 23, 30])
    fit = fit_decay(depths, amp * alpha ** depths, dimension=4)
    assert fit["alpha"] == pytest.approx(alpha, abs=1e-6)
    assert fit["amplitude"] == pytest.approx(amp, abs=1e-6)
    assert fit["pauli_error"] == pytest.approx((1 - alpha) * 15 / 16, abs=1e-6)
    assert not fit["truncated"]


def test_fit_decay_truncates_nonpositive_tail():
    depths = [1, 2, 3, 4, 5]
    f = [0.9, 0.8, 0.7, -0.01, 0.0]
    fit = fit_decay(depths, f, dimension=4)
    assert fit["truncated"]
    with pytest.raises(BenchmarkingError):
        fit_decay([1, 2], [0.9, 0.8], dimension=4)
    with pytest.raises(BenchmarkingError):
        fit_decay([1, 2, 3, 4], [0.9, -0.1, 0.5, 0.4], dimension=4)


def test_speckle_purity_limits():
    rng = np.random.default_rng(8)
    # Porter-Thomas samples (exponential) have purity ~1.
    probs = rng.exponential(scale=0.25, size=(5000, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    purity, sqrt_purity = speckle_purity(probs, 4)
    assert purity == pytest.approx(1.0, abs=0.05)
    assert sqrt_purity == pytest.approx(np.sqrt(purity), abs=1e-12)
    # Fully mixed output has no speckle.
    flat = np.full((100, 4), 0.25)
    assert speckle_purity(flat, 4)[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BenchmarkingError):
        speckle_purity(np.full((5, 4), 0.25), 4)


def test_circuit_seeds_deterministic():
    assert circuit_seeds(123, 5) == circuit_seeds(123, 5)
    assert circuit_seeds(123, 5) != circuit_seeds(124, 5)


def test_xeb_pipeline_noiseless_unity():
    run = cz_xeb_pipeline(depths=(2, 4, 6, 9), n_circuits=20, seed=1)
    assert run.fidelity_fit["alpha"] == pytest.approx(1.0, abs=1e-6)
    assert all(abs(f - 1.0) < 1e-9 for f in run.per_depth_fidelity)


def test_xeb_pipeline_recovers_depolarizing():
    p = 0.01
    run = cz_xeb_pipeline(noise=NoiseSpec(depolarizing_per_cycle=p),
                          depths=(2, 4, 6, 9, 13, 18), n_circuits=30, seed=3)
    # alpha estimates the cycle depolarizing parameter 1 - p.
    assert run.cycle_fidelity == pytest.approx(1.0 - p, abs=2e-3)
    # The purity decay tracks lambda^2.
    assert run.purity_fit["alpha"] == pytest.approx((1.0 - p) ** 2, abs=5e-3)
    d = run.to_dict()
    assert d["n_qubits"] == 2 and len(d["per_depth_fidelity"]) == len(run.depths)


def test_xeb_pipeline_purity_unbiased_at_shallow_depths():
    # The default ladder starts at depths whose outputs are not yet
    # Porter-Thomas distributed; the purity there must not read above the
    # circuits' own ideal speckle.
    ideal = cz_xeb_pipeline(seed=0)
    assert ideal.cycle_purity_fidelity == pytest.approx(1.0, abs=1e-9)
    noisy = cz_xeb_pipeline(noise=NoiseSpec(depolarizing_per_cycle=0.0035), seed=0)
    assert noisy.control_error >= -1e-3


def test_xeb_pipeline_drops_degenerate_depth_one():
    run = cz_xeb_pipeline(depths=(1, 3, 5, 8), n_circuits=10, seed=0, n_qubits=1)
    assert 1 not in run.depths


def test_xeb_pipeline_with_shots_deterministic():
    # Several seeds: round-off leaves density-matrix diagonals near -1e-17,
    # which rng.choice refuses, so sampling must not depend on the seed.
    for seed in range(10):
        a = cz_xeb_pipeline(depths=(2, 4, 6), n_circuits=10, seed=seed, shots=500)
        b = cz_xeb_pipeline(depths=(2, 4, 6), n_circuits=10, seed=seed, shots=500)
        assert a.depths == (2, 4, 6)
        assert a.per_depth_fidelity == b.per_depth_fidelity


def test_batch_labels_match_rules():
    labels = batch_random_labels(200, 30, 2, seed=4)
    assert labels.shape == (30, 200, 2)
    assert np.all(labels[1:] != labels[:-1])
    probs = batch_ideal_probs(labels[:, :50, :])
    assert probs.shape == (50, 4)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("n_circuits, depth, n_qubits", [
    (1, 1, 2), (1, 30, 2), (1, 7, 1), (50, 12, 2), (1000, 20, 2), (1200, 9, 1)])
def test_batch_labels_match_layer_by_layer_draw(n_circuits, depth, n_qubits):
    for seed in (0, 1, 7, 123, 2 ** 31 - 1):
        labels = batch_random_labels(n_circuits, depth, n_qubits, seed)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, looped_random_labels(n_circuits, depth, n_qubits, seed))


@st.composite
def _xeb_cases(draw):
    n_qubits = draw(st.sampled_from([1, 2]))
    circuit = generate_circuit(n_qubits, draw(st.integers(1, 30)), draw(st.integers(0, 2 ** 32 - 1)))
    confusion = {}
    if draw(st.booleans()):
        f = st.floats(0.9, 1.0)
        confusion = NoiseSpec.from_fidelities(0.0, {q: draw(f) for q in range(2)},
                                              {q: draw(f) for q in range(2)}).readout_confusion
    noise = NoiseSpec(draw(st.floats(0.0, 0.05)), readout_confusion=confusion)
    gate = None
    if draw(st.booleans()):
        # A leaky map: a random unitary shrunk by singular values below 1.
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        gate = q @ np.diag(rng.uniform(0.95, 1.0, 4))
    return circuit, noise, gate


@given(_xeb_cases())
@settings(max_examples=200, deadline=None)
def test_simulate_matches_density_matrix_loop(case):
    circuit, noise, gate = case
    ideal, noisy = simulate_circuit(circuit, noise, gate)
    ideal_ref, noisy_ref = looped_circuit_probs(circuit, noise, gate)
    assert np.max(np.abs(ideal - ideal_ref)) <= 1e-13
    assert np.max(np.abs(noisy - noisy_ref)) <= 1e-13


def test_simulate_builds_one_channel_table_per_noise_and_gate(monkeypatch):
    built = []
    channel_table = benchmarking._channel_table

    def recording_table(unitaries, p):
        built.append(p)
        return channel_table(unitaries, p)

    monkeypatch.setattr(benchmarking, "_channel_table", recording_table)
    noise = NoiseSpec(0.01)
    leaky = 0.99 * CZ
    circuits = [generate_circuit(2, 6, seed) for seed in range(5)]
    first = [simulate_circuit(c, noise) for c in circuits]
    assert len(built) == 1
    # An equal CZ map in a new array is the same key; another map is not.
    again = [simulate_circuit(c, noise, CZ.copy()) for c in circuits]
    assert len(built) == 1
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(first, again))
    for c in circuits:
        simulate_circuit(c, noise, leaky)
    assert len(built) == 2
    simulate_circuit(generate_circuit(1, 6, 0), noise, leaky)
    assert len(built) == 3
    simulate_circuit(circuits[0], NoiseSpec(0.01))
    assert len(built) == 4
    with pytest.raises(ValueError):
        noise.channel_table(2)[0, 0, 0] = 0.0


def test_batch_ideal_matches_simulate():
    # One label rule: generate_circuit draws exactly batch_random_labels'
    # single-circuit labels.  Both ideal paths must match a statevector
    # built here from the gate matrices with explicit Kronecker products.
    for n_qubits in (1, 2):
        for seed in range(5):
            labels = batch_random_labels(1, 8, n_qubits, seed)
            circ = generate_circuit(n_qubits, 8, seed)
            assert circ.single_qubit_layers == tuple(
                tuple(GATE_NAMES[i] for i in layer) for layer in labels[:, 0])
            psi = np.zeros(2 ** n_qubits, dtype=complex)
            psi[0] = 1.0
            for layer in circ.single_qubit_layers:
                u = GATE_MATRICES[layer[0]]
                if n_qubits == 2:
                    u = CZ @ np.kron(u, GATE_MATRICES[layer[1]])
                psi = u @ psi
            ideal, _ = simulate_circuit(circ)
            assert np.allclose(ideal, np.abs(psi) ** 2, atol=1e-12)
            batch = batch_ideal_probs(labels, include_cz=circ.include_cz)
            assert np.allclose(batch[0], ideal, atol=1e-12)


def test_batch_ideal_without_cz_matches_statevectors():
    labels = batch_random_labels(20, 11, 2, seed=9)
    batch = batch_ideal_probs(labels, include_cz=False)
    for c in range(labels.shape[1]):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        for a, b in labels[:, c]:
            psi = np.kron(GATE_MATRICES[GATE_NAMES[a]], GATE_MATRICES[GATE_NAMES[b]]) @ psi
        assert np.allclose(batch[c], np.abs(psi) ** 2, rtol=0, atol=1e-13)
    circ = generate_circuit(2, 11, seed=9, include_cz=False)
    ideal, noisy = simulate_circuit(circ)
    assert np.allclose(ideal, looped_circuit_probs(circ)[0], rtol=0, atol=1e-13)
    assert np.allclose(noisy, ideal, rtol=0, atol=1e-13)


def test_speckle_purity_experiment_tracks_oracle():
    for p in (0.0, 0.01):
        purity, _ = speckle_purity_experiment(2, depth=15, n_circuits=20_000,
                                              depolarizing_per_cycle=p, seed=5)
        assert purity == pytest.approx(depolarized_purity_oracle(15, p), abs=0.02)


def test_depolarized_purity_oracle_limits():
    assert depolarized_purity_oracle(10, 0.0) == pytest.approx(1.0)
    assert depolarized_purity_oracle(200, 0.05) == pytest.approx(0.0, abs=1e-4)


def test_virtual_z_corrected_cz():
    angles = VirtualZAngles(0.3, -0.2)
    m = cz_target(angles)
    corrected = virtual_z_corrected_cz(m, angles)
    assert np.allclose(corrected, CZ, atol=1e-12)


def test_xeb_with_device_gate_close_to_ideal():
    # A slightly imperfect CZ map used as the noisy gate produces alpha
    # just below 1 while the labeled-ideal path stays exact.
    gate = np.diag([1.0, 1.0, 1.0, np.exp(1j * (np.pi - 0.3))]).astype(complex)
    run = cz_xeb_pipeline(cz_gate=gate, depths=(2, 4, 6, 9, 13, 18),
                          n_circuits=40, seed=12)
    assert 0.9 < run.fidelity_fit["alpha"] < 0.999
    # Coherent error leaves the per-circuit states pure, so purity decays
    # far more slowly than fidelity.
    assert run.purity_fit["alpha"] > run.fidelity_fit["alpha"]
