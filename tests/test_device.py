import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from czsim.device import (
    CouplingGraph,
    DeviceModelError,
    DeviceSpec,
    ModeSpec,
    build_hamiltonian,
    dressed_basis,
    effective_coupling_batch,
    zero_coupling_point,
)
from czsim.pulses import CouplingInverter
from helpers import eigen_effective_coupling, with_levels


@st.composite
def equal_coupling_devices(draw):
    """Devices with g_1c = g_2c and a zero-coupling point above the qubits."""
    w1 = draw(st.floats(4.0, 6.0))
    w2 = w1 + draw(st.floats(-0.4, 0.4))
    g = draw(st.floats(0.03, 0.15))
    g_12 = draw(st.floats(0.002, 0.02))
    # g_eff depends on neither the coupler's frequency nor any anharmonicity.
    modes = (ModeSpec("Q1", w1, -0.2), ModeSpec("C", 7.0, -0.1), ModeSpec("Q2", w2, -0.2))
    spec = DeviceSpec(modes, CouplingGraph(g_1c=g, g_2c=g, g_12=g_12))
    try:
        zero_coupling_point(spec)
    except DeviceModelError:
        assume(False)
    return spec


def _branch_grid(spec):
    """Coupler frequencies from just above the upper qubit to 60 GHz."""
    upper = max(spec.q1.frequency, spec.q2.frequency)
    return np.concatenate([upper + np.geomspace(0.011, 1.0, 200),
                           np.linspace(upper + 1.0, 60.0, 2000)])


def test_default_device_layout(device):
    assert device.q1.label == "Q1"
    assert device.coupler.label == "C"
    assert device.q2.label == "Q2"
    assert device.dims() == (3, 3, 3)
    assert device.q1.frequency == pytest.approx(5.077)
    assert device.q2.frequency == pytest.approx(4.889)
    assert device.q1.anharmonicity == pytest.approx(-0.235)


def test_mode_validation():
    with pytest.raises(DeviceModelError):
        ModeSpec("Q3", 5.0, -0.2)
    with pytest.raises(DeviceModelError):
        ModeSpec("Q1", 5.0, -0.2, levels=2)
    with pytest.raises(DeviceModelError):
        ModeSpec("Q1", -5.0, -0.2)
    with pytest.raises(DeviceModelError):
        CouplingGraph(g_1c=np.inf, g_2c=0.09, g_12=0.006)


def test_mode_ordering_enforced(device):
    modes = (device.coupler, device.q1, device.q2)
    with pytest.raises(DeviceModelError):
        DeviceSpec(modes, device.couplings)


def test_dimension_cap(device):
    with pytest.raises(DeviceModelError):
        build_hamiltonian(with_levels(device, 11))


def test_hamiltonian_shape_and_hermiticity(terms):
    assert terms.dimension == 27
    assert terms.static_part.shape == (27, 27)
    assert np.allclose(terms.static_part, terms.static_part.T.conj())
    assert set(terms.control_parts) == {"Q1", "C", "Q2"}


@given(
    dq1=st.floats(-0.3, 0.3),
    dc=st.floats(-0.5, 0.5),
    dq2=st.floats(-0.3, 0.3),
)
@settings(max_examples=25, deadline=None)
def test_assembled_hamiltonian_hermitian(terms, dq1, dc, dq2):
    h = terms.assemble({"Q1": dq1, "C": dc, "Q2": dq2})
    assert np.allclose(h, h.T.conj())


def test_assemble_unknown_label(terms):
    with pytest.raises(DeviceModelError):
        terms.assemble({"Q9": 0.1})


def test_block_parts_slice_each_block_once(terms):
    for idx in terms.blocks:
        static, controls = terms.block_parts(idx)
        sub = np.ix_(idx, idx)
        assert np.array_equal(static, terms.static_part[sub])
        assert np.array_equal(controls, np.stack([terms.control_parts[label][sub].ravel()
                                                  for label in ("C", "Q1", "Q2")]))
        again = terms.block_parts(idx.copy())
        assert again[0] is static and again[1] is controls


def test_bare_index_roundtrip(terms):
    labels = terms.bare_labels()
    assert len(labels) == 27
    for i, label in enumerate(labels):
        assert terms.bare_index(label) == i
    with pytest.raises(DeviceModelError):
        terms.bare_index((3, 0, 0))


def test_dressed_basis_labels_and_energies(terms, basis):
    # All 27 labels assign at the idle point and the ground state is at zero.
    assert len(basis.labels) == 27
    assert basis.energy((0, 0, 0)) == pytest.approx(0.0, abs=1e-9)
    # Dressed single-excitation energies sit near the bare frequencies.
    assert basis.energy((1, 0, 0)) == pytest.approx(5.0706, abs=0.005)
    assert basis.energy((0, 0, 1)) == pytest.approx(4.8834, abs=0.005)
    # Dressed vectors are dominated by their bare label.
    v = basis.vector((1, 0, 1))
    assert abs(v[terms.bare_index((1, 0, 1))]) ** 2 > 0.9


def test_effective_coupling_zero_at_idle(device):
    # The default device parks the coupler at the zero-coupling point.
    assert abs(effective_coupling_batch(device, [device.coupler.frequency])[0]) < 1e-6


def test_effective_coupling_signs(device):
    below, above, far = effective_coupling_batch(device, [6.0, 7.0, 100.0])
    assert below < 0
    assert above > 0
    # Far above the qubits the direct coupling remains (perturbative tail
    # is the residual), so compare at a numerically asymptotic frequency.
    assert far == pytest.approx(device.couplings.g_12, abs=1e-4)


def test_effective_coupling_monotone_on_branch(device):
    wc = np.linspace(5.4, 12.0, 200)
    g = effective_coupling_batch(device, wc)
    assert np.all(np.diff(g) > 0)


def test_effective_coupling_resonance_guard(device):
    # The model covers only the branch above the qubits.
    for wc in (device.q1.frequency + 0.005, 5.0, 4.0):
        with pytest.raises(DeviceModelError, match="above the upper qubit"):
            effective_coupling_batch(device, [7.0, wc])


def test_effective_coupling_matches_eigen_reference(device):
    wc = _branch_grid(device)
    assert np.max(np.abs(effective_coupling_batch(device, wc)
                         - eigen_effective_coupling(device, wc))) <= 1e-13


@given(spec=equal_coupling_devices())
@settings(max_examples=40, deadline=None)
def test_effective_coupling_closed_form_on_drawn_devices(spec):
    wc = _branch_grid(spec)
    assert np.max(np.abs(effective_coupling_batch(spec, wc)
                         - eigen_effective_coupling(spec, wc))) <= 1e-13
    assert abs(effective_coupling_batch(spec, [zero_coupling_point(spec)])[0]) <= 1e-13
    # forward(inverse(t)) = t across the attainable range.
    upper = max(spec.q1.frequency, spec.q2.frequency)
    targets = np.linspace(*effective_coupling_batch(spec, [upper + 0.05, 60.0]), 2001)
    wc = CouplingInverter(spec).invert_values(targets)
    assert np.max(np.abs(effective_coupling_batch(spec, wc) - targets)) <= 1e-12


def test_zero_coupling_point(device):
    zcp = zero_coupling_point(device)
    assert zcp == pytest.approx(6.327, abs=5e-3)
    assert abs(effective_coupling_batch(device, [zcp])[0]) < 1e-12
    # Without a direct coupling g_eff stays negative above the qubits.
    g = device.couplings
    no_direct = DeviceSpec(device.modes, CouplingGraph(g_1c=g.g_1c, g_2c=g.g_2c, g_12=0.0))
    with pytest.raises(DeviceModelError, match=r"does not change sign on \[5\.277, 20\.0\] GHz"):
        zero_coupling_point(no_direct)


def test_dressed_basis_require_subset(terms):
    # Deep coupler excursions make some coupler-excited labels ambiguous;
    # restricting `require` to the needed labels must not raise.
    offsets = {"C": -1.6}
    needed = ((0, 0, 0), (1, 0, 0), (0, 0, 1))
    basis = dressed_basis(terms, offsets, require=needed)
    for label in needed:
        assert label in basis.labels
