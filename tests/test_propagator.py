import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from czsim.device import build_hamiltonian
from czsim.metrics import computational_blocks
from czsim.propagator import (
    ControlSchedule,
    PropagationError,
    _distinct_rows,
    _substep_unitaries,
    propagate,
)
from czsim.pulses import CouplingInverter, PulseShapeSpec, SampledWaveform, sample_pulse
from helpers import eigh_propagate, eigh_substep_unitaries, refine_schedule, with_levels


def _idle_schedule(terms, length, dt):
    """Schedule that parks the coupler at its idle frequency."""
    n = max(int(round(length / dt)), 1) + 1
    wf = SampledWaveform(dt=dt, samples=np.full(n, terms.spec.coupler.frequency),
                         parameterization="coupler_frequency")
    return ControlSchedule(coupler_trajectory=wf)


def _constant_offset(value, like):
    """A constant offset waveform on the same grid as `like`."""
    return SampledWaveform(dt=like.dt, samples=np.full(len(like.samples), value),
                           parameterization=like.parameterization)


def _gate_schedule(device, dt=0.05, length=45.0, peak=-0.02):
    spec = PulseShapeSpec("slepian", length, peak)
    wf = CouplingInverter(device)(sample_pulse(spec, dt))
    return ControlSchedule(coupler_trajectory=wf)


def test_schedule_validation(device):
    wf = SampledWaveform(0.05, np.zeros(11), "effective_coupling")
    with pytest.raises(PropagationError):
        ControlSchedule(coupler_trajectory=wf)
    good = SampledWaveform(0.05, np.full(11, device.coupler.frequency), "coupler_frequency")
    off = SampledWaveform(0.05, np.zeros(7), "coupler_frequency")
    with pytest.raises(PropagationError):
        ControlSchedule(coupler_trajectory=good, qubit_offsets={"Q1": off})
    with pytest.raises(PropagationError):
        ControlSchedule(coupler_trajectory=good,
                        qubit_offsets={"C": SampledWaveform(0.05, np.zeros(11), "coupler_frequency")})


def test_idle_schedule_is_identity(terms):
    schedule = _idle_schedule(terms, length=30.0, dt=0.05)
    result = propagate(terms, schedule)
    assert np.max(np.abs(result.propagator - np.eye(terms.dimension))) < 1e-10


def test_unitarity(device, terms):
    result = propagate(terms, _gate_schedule(device))
    assert result.unitarity_defect < 1e-9
    u = result.propagator
    assert np.max(np.abs(u.conj().T @ u - np.eye(terms.dimension))) < 1e-9


def test_constant_displaced_schedule_matches_direct_exponential(device, terms):
    # A coupler parked away from idle for the whole schedule must give
    # exp(+i H0 T) exp(-i H T), computed here directly.
    wc = device.coupler.frequency - 0.3
    n = 201
    total_t = 0.05 * (n - 1)
    const = ControlSchedule(SampledWaveform(0.05, np.full(n, wc), "coupler_frequency"))
    u = propagate(terms, const).propagator
    h = terms.assemble({"C": wc - device.coupler.frequency})
    evals, evecs = np.linalg.eigh(h)
    u_lab = evecs @ (np.exp(-1j * evals * total_t)[:, None] * evecs.conj().T)
    evals0, evecs0 = np.linalg.eigh(terms.static_part)
    frame = evecs0 @ (np.exp(1j * evals0 * total_t)[:, None] * evecs0.conj().T)
    assert np.max(np.abs(u - frame @ u_lab)) < 1e-9


def test_dt_halving_converged(device, terms):
    schedule = _gate_schedule(device, dt=0.05)
    u1 = propagate(terms, schedule).propagator
    u2 = propagate(terms, refine_schedule(schedule, 2)).propagator
    assert np.max(np.abs(u1 - u2)) < 1e-6


def test_step_size_guard(terms):
    n = 11
    wc = terms.spec.coupler.frequency
    wild = SampledWaveform(2.0, np.where(np.arange(n) % 2 == 0, wc, wc - 3.0),
                           "coupler_frequency")
    with pytest.raises(PropagationError):
        propagate(terms, ControlSchedule(coupler_trajectory=wild))


def test_step_size_guard_recommends_a_dt_that_propagates(terms):
    # A coupler held 0.3 GHz below idle advances 2 pi * 0.3 * (levels - 1)
    # rad/ns.  The recommended dt puts the dt/2 substep phase at half the
    # cap, so that dt propagates and 2.5 times it is refused again.
    wc = terms.spec.coupler.frequency - 0.3

    def held(dt, length=20.0):
        n = int(round(length / dt)) + 1
        return ControlSchedule(SampledWaveform(dt, np.full(n, wc), "coupler_frequency"))

    with pytest.raises(PropagationError, match="use dt <=") as refusal:
        propagate(terms, held(2.0))
    recommended = float(re.search(r"use dt <= ([0-9.]+) ns", str(refusal.value)).group(1))
    assert recommended == pytest.approx(1.0 / (2.0 * 0.3 * 2), rel=1e-3)
    assert propagate(terms, held(recommended)).unitarity_defect < 1e-9
    with pytest.raises(PropagationError):
        propagate(terms, held(2.5 * recommended))


@pytest.mark.parametrize("label", ["C", "Q2"])
def test_nan_controls_refused(terms, label):
    # A NaN control makes its substep unitaries NaN, and a NaN unitarity
    # defect passes the guard, so propagate refuses it up front.
    schedule = _idle_schedule(terms, length=1.0, dt=0.05)
    samples = schedule.coupler_trajectory.samples.copy()
    offsets = {"Q2": _constant_offset(0.0, schedule.coupler_trajectory)}
    if label == "C":
        samples[5] = np.nan
    else:
        offsets["Q2"].samples[5] = np.nan
    schedule = ControlSchedule(replace(schedule.coupler_trajectory, samples=samples), offsets)
    with pytest.raises(PropagationError, match="finite"):
        propagate(terms, schedule)


@given(
    n=st.integers(1, 8),
    count=st.integers(0, 12),
    theta=st.floats(0.0, 8.0),
    shift=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_substep_exponential_matches_eigh(n, count, theta, shift, seed):
    # Random real symmetric stacks with max row-sum |(h - tr h / n) tau| =
    # theta, so theta > 1 runs the scaled-and-squared branch, and a trace
    # phase tau * tr h / n = shift.
    tau = 0.025
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, n, n))
    a = x + x.transpose(0, 2, 1)
    a -= np.trace(a, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    norm = np.max(np.abs(a).sum(axis=2), initial=0.0)
    if norm > 0.0:
        a *= theta / norm
    h = (a + shift * np.eye(n)) / tau
    u = _substep_unitaries(h, tau)
    assert u.shape == h.shape
    assert np.max(np.abs(u - eigh_substep_unitaries(h, tau)), initial=0.0) <= 1e-13
    defect = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(n))
    assert np.max(defect, initial=0.0) <= 1e-13


def _random_controls(kind, n, rng):
    """n samples of one control: mirrored ("palindrome"), held on random
    plateaus ("plateaus") or drawn independently ("generic"), in [-1, 1]."""
    if kind == "palindrome":
        first = rng.uniform(-1.0, 1.0, size=(n + 1) // 2)
        return np.concatenate((first, first[:n - len(first)][::-1]))
    if kind == "plateaus":
        edges = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        return np.repeat(rng.uniform(-1.0, 1.0, size=len(edges) + 1),
                         np.diff(np.concatenate(([0], edges, [n]))))
    return rng.uniform(-1.0, 1.0, size=n)


@given(
    kind=st.sampled_from(["palindrome", "plateaus", "generic"]),
    n=st.integers(2, 60),
    dt=st.sampled_from([0.05, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_propagate_properties_on_random_schedules(terms, kind, n, dt, seed):
    # Coupler within 0.5 GHz and qubits within 0.02 GHz of idle keep every
    # substep phase below 0.7 rad at dt 0.2, inside the step-size guard.
    rng = np.random.default_rng(seed)
    wc = terms.spec.coupler.frequency + 0.5 * _random_controls(kind, n, rng)
    offsets = {label: SampledWaveform(dt, 0.02 * _random_controls(kind, n, rng),
                                      "coupler_frequency") for label in ("Q1", "Q2")}
    schedule = ControlSchedule(SampledWaveform(dt, wc, "coupler_frequency"), offsets)
    result = propagate(terms, schedule)
    u = result.propagator
    n_exc = _excitation_numbers(terms)
    assert np.all(u[n_exc[:, None] != n_exc[None, :]] == 0.0)
    for idx in terms.blocks:
        block = u[np.ix_(idx, idx)]
        assert np.max(np.abs(block.conj().T @ block - np.eye(len(idx)))) <= 1e-12
    assert np.max(np.abs(u - eigh_propagate(terms, schedule).propagator)) <= 1e-11


@pytest.mark.parametrize("columns", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_distinct_rows_match_numpy_unique(columns, seed):
    # Rows drawn from a small pool repeat; some entries are -0.0, which
    # equals 0.0 as the pool's zero entries do.
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(12, columns))
    pool[rng.random(pool.shape) < 0.3] = 0.0
    table = pool[rng.integers(len(pool), size=400)]
    table[rng.random(table.shape) < 0.05] = -0.0
    table[0] = -0.0
    table[-1] = 0.0
    points, index = _distinct_rows(table)
    expected_points, expected_index = np.unique(table, axis=0, return_inverse=True)
    assert np.array_equal(points, expected_points)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(points[index], table)


def test_qubit_offsets_shift_phase(device, terms):
    # A constant qubit offset should imprint a linear phase on that qubit's
    # excited dressed state: U|100> ~ e^{-i 2 pi dw T}|100> for small dw.
    schedule = _idle_schedule(terms, length=20.0, dt=0.05)
    dw = 0.01
    offsets = {"Q1": _constant_offset(dw, schedule.coupler_trajectory),
               "Q2": _constant_offset(0.0, schedule.coupler_trajectory)}
    shifted = ControlSchedule(schedule.coupler_trajectory, offsets)
    result = propagate(terms, shifted)
    basis = result.basis
    v = basis.vector((1, 0, 0))
    amp = np.vdot(v, result.propagator @ v)
    assert abs(amp) == pytest.approx(1.0, abs=1e-3)
    expected = -2.0 * np.pi * dw * 20.0
    assert np.angle(amp) == pytest.approx(np.angle(np.exp(1j * expected)), abs=0.02)


def _short_schedule(device, dt=0.05):
    """Short gate with non-constant coupler and qubit controls."""
    wf = _gate_schedule(device, dt=dt, length=5.0).coupler_trajectory
    t = np.arange(len(wf.samples)) * dt
    offsets = {"Q1": SampledWaveform(dt, 0.01 * t / t[-1], "coupler_frequency"),
               "Q2": SampledWaveform(dt, -0.008 * np.sin(np.pi * t / t[-1]), "coupler_frequency")}
    return ControlSchedule(coupler_trajectory=wf, qubit_offsets=offsets)


def _dense_reference(terms, schedule):
    """Time-ordered product of full-space expm over the Magnus substeps, idle frame."""
    dt = schedule.dt
    controls = {"C": schedule.coupler_trajectory.samples - terms.spec.coupler.frequency}
    controls.update({label: wf.samples for label, wf in schedule.qubit_offsets.items()})
    n_steps = len(controls["C"]) - 1
    u = np.eye(terms.dimension, dtype=complex)
    for k in range(n_steps):
        for node in (1.0 / 6.0, 5.0 / 6.0):
            h = terms.assemble({label: w[k] + node * (w[k + 1] - w[k])
                                for label, w in controls.items()})
            u = expm(-0.5j * dt * h) @ u
    return expm(1j * dt * n_steps * terms.static_part) @ u


def _excitation_numbers(terms):
    return np.array([sum(label) for label in terms.bare_labels()])


@pytest.mark.parametrize("levels", [3, 4])
def test_blocks_are_excitation_sectors(device, levels):
    terms = build_hamiltonian(with_levels(device, levels))
    n_exc = _excitation_numbers(terms)
    assert len(terms.blocks) == 3 * (levels - 1) + 1
    assert sorted(int(n_exc[idx[0]]) for idx in terms.blocks) == list(range(len(terms.blocks)))
    for idx in terms.blocks:
        assert np.all(n_exc[idx] == n_exc[idx[0]])
        assert len(idx) == np.count_nonzero(n_exc == n_exc[idx[0]])


def test_propagator_block_diagonal_and_matches_dense(device, terms):
    schedule = _short_schedule(device)
    u = propagate(terms, schedule).propagator
    n_exc = _excitation_numbers(terms)
    assert np.all(u[n_exc[:, None] != n_exc[None, :]] == 0.0)
    assert np.max(np.abs(u - _dense_reference(terms, schedule))) < 1e-10


def _counter_rotating_model(device, terms):
    """terms plus a counter-rotating Q1-C coupling, which changes excitation
    number by two, so only its parity is conserved."""
    d1, dc, d2 = device.dims()
    a1 = np.kron(np.kron(np.diag(np.sqrt(np.arange(1, d1)), 1), np.eye(dc)), np.eye(d2))
    ac = np.kron(np.kron(np.eye(d1), np.diag(np.sqrt(np.arange(1, dc)), 1)), np.eye(d2))
    counter = 2.0 * np.pi * device.couplings.g_1c * (a1.T @ ac.T + ac @ a1)
    return replace(terms, static_part=terms.static_part + counter)


def test_sector_mixing_terms_merge_blocks(device, terms):
    # Only the parity of the excitation number is conserved, so the sectors
    # merge into larger blocks.
    mixed = _counter_rotating_model(device, terms)
    parity = _excitation_numbers(mixed) % 2
    assert len(mixed.blocks) == 2
    for idx in mixed.blocks:
        assert np.all(parity[idx] == parity[idx[0]])
    schedule = _short_schedule(device)
    u = propagate(mixed, schedule).propagator
    assert np.max(np.abs(u - _dense_reference(mixed, schedule))) < 1e-10


@pytest.mark.parametrize("levels", [3, 4])
def test_computational_blocks_are_the_low_sectors(device, levels):
    terms = build_hamiltonian(with_levels(device, levels))
    n_exc = _excitation_numbers(terms)
    selected = computational_blocks(terms)
    assert sorted(int(n_exc[idx[0]]) for idx in selected) == [0, 1, 2]
    assert sum(len(idx) for idx in selected) == 10


def test_restricted_propagator_matches_dense_on_its_blocks(device, terms):
    schedule = _short_schedule(device)
    selected = computational_blocks(terms)
    result = propagate(terms, schedule, blocks=selected)
    u = result.propagator
    kept = np.concatenate(selected)
    dropped = np.setdiff1d(np.arange(terms.dimension), kept)
    assert not u[dropped].any() and not u[:, dropped].any()
    sub = np.ix_(kept, kept)
    assert np.max(np.abs(u[sub] - _dense_reference(terms, schedule)[sub])) < 1e-10
    # The defect is taken over the propagated subspace; over the full space
    # the zero columns would read 1.
    assert result.unitarity_defect < 1e-9
    assert np.max(np.abs(u.conj().T @ u - np.eye(terms.dimension))) == 1.0


def test_sector_mixing_model_propagates_its_parity_blocks(device, terms):
    # |000>, |101> are even and |001>, |100> odd, so both parity blocks
    # hold computational states and a gate run must propagate both.
    mixed = _counter_rotating_model(device, terms)
    selected = computational_blocks(mixed)
    assert sorted(map(tuple, selected)) == sorted(map(tuple, mixed.blocks))
    schedule = _short_schedule(device)
    u = propagate(mixed, schedule, blocks=selected).propagator
    assert np.max(np.abs(u - _dense_reference(mixed, schedule))) < 1e-10
