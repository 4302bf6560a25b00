import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from czsim.metrics import (
    GateMetricsError,
    VirtualZAngles,
    average_gate_fidelity,
    conditional_phase,
    cz_target,
    fit_virtual_z,
    leakage_from_11,
    nelder_mead_minimize,
    project_computational,
    subspace_trace_loss,
    wrap_angle,
)


def test_cz_target_canonical():
    u = cz_target(VirtualZAngles(0.0, 0.0))
    assert np.allclose(u, np.diag([1, 1, 1, -1]))
    u = cz_target(VirtualZAngles(0.1, -0.2))
    assert np.allclose(np.abs(np.diag(u)), 1.0)
    assert np.angle(u[3, 3]) == pytest.approx(wrap_angle(0.2 - np.pi))


@given(theta=st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_wrap_angle_range_and_identity(theta):
    w = wrap_angle(theta)
    assert -np.pi < w <= np.pi
    assert np.exp(1j * w) == pytest.approx(np.exp(1j * theta), abs=1e-9)


def test_wrap_angle_branch_edge():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


def test_average_gate_fidelity_exact_and_orthogonal():
    target = cz_target(VirtualZAngles(0.0, 0.0))
    assert average_gate_fidelity(target, target) == pytest.approx(1.0)
    # A uniformly depolarized map m = 0 gives the floor 1/(d+1) ... here
    # the formula gives trace terms only, so m = 0 -> 0.
    assert average_gate_fidelity(np.zeros((4, 4)), target) == pytest.approx(0.0)


def test_fidelity_invariant_under_global_phase():
    rng = np.random.default_rng(3)
    target = cz_target(VirtualZAngles(0.3, -0.1))
    m = target + 0.01 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    f1 = average_gate_fidelity(m, target)
    f2 = average_gate_fidelity(np.exp(1j * 0.7) * m, target)
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_subspace_trace_loss():
    assert subspace_trace_loss(np.eye(4)) == pytest.approx(0.0)
    assert subspace_trace_loss(np.sqrt(0.5) * np.eye(4)) == pytest.approx(0.5)


def _counted(f):
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g, calls


def _rosen(x):
    return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def test_nelder_mead_quadratic():
    f, calls = _counted(lambda x: (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2)
    point, value, converged = nelder_mead_minimize(f, [0.0, 0.0], [0.25, 0.25])
    assert converged
    assert point[0] == pytest.approx(1.0, abs=1e-4)
    assert point[1] == pytest.approx(-0.5, abs=1e-4)
    assert value < 1e-8
    # The call counts here pin the search's path, which sets how many gates
    # every calibration evaluates.
    assert len(calls) == 89


def test_nelder_mead_rosenbrock():
    f, calls = _counted(_rosen)
    point, value, converged = nelder_mead_minimize(f, [-1.2, 1.0], [0.25, 0.25],
                                                   value_tol=1e-14)
    assert converged
    assert len(calls) == 201
    assert np.allclose(point, [0.9999999271516, 0.9999998511898], rtol=0, atol=1e-12)
    # The start simplex is x0 and x0 + steps[i] e_i.
    assert np.array_equal(np.array(calls[:3]), [[-1.2, 1.0], [-0.95, 1.0], [-1.2, 1.25]])


def test_nelder_mead_iteration_cap():
    f, calls = _counted(_rosen)
    point, value, converged = nelder_mead_minimize(f, [-1.2, 1.0], [0.25, 0.25],
                                                   value_tol=1e-14, max_iterations=30)
    assert not converged
    assert len(calls) == 58
    assert value == _rosen(point) == min(_rosen(x) for x in calls)


def test_nelder_mead_bad_simplex():
    with pytest.raises(ValueError, match="one step per coordinate"):
        nelder_mead_minimize(lambda x: x[0] ** 2, np.zeros(2), [0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            nelder_mead_minimize(lambda x: np.inf, np.zeros(1), [0.25])
        with pytest.raises(ValueError, match="not finite: nan"):
            nelder_mead_minimize(lambda x: np.nan if x[0] > 0.1 else x[0] ** 2,
                                 np.zeros(1), [0.25])


@given(
    dp=st.floats(-3.0, 3.0),
    dm=st.floats(-3.0, 3.0),
)
@settings(max_examples=20, deadline=None)
def test_fit_virtual_z_recovers_exact_member(dp, dm):
    m = cz_target(VirtualZAngles(dp, dm))
    angles, fidelity = fit_virtual_z(m)
    assert fidelity == pytest.approx(1.0, abs=1e-9)
    # (dp, dm) and (dp + pi, dm + pi) parameterize the same target.
    err_p = wrap_angle(angles.delta_plus - dp)
    err_m = wrap_angle(angles.delta_minus - dm)
    same = abs(err_p) < 1e-4 and abs(err_m) < 1e-4
    shifted = (abs(wrap_angle(err_p - np.pi)) < 1e-4
               and abs(wrap_angle(err_m - np.pi)) < 1e-4)
    assert same or shifted


def _brute_force_cz_fidelity(m):
    """Best fidelity of M against the CZ family by a dense (D+, D-) grid
    and a local polish from each of the grid's five best local maxima."""
    m = np.asarray(m)

    def overlap(dp, dm):
        return np.abs(m[0, 0] + m[1, 1] * np.exp(-1j * (dp + dm))
                      + m[2, 2] * np.exp(-1j * (dp - dm)) - m[3, 3] * np.exp(-2j * dp))

    axis = np.linspace(-np.pi, np.pi, 181, endpoint=False)
    grid = overlap(axis[:, None], axis[None, :])
    neighbours = [np.roll(grid, shift, axis=ax) for ax in (0, 1) for shift in (1, -1)]
    peaks = np.flatnonzero(np.all([grid >= n for n in neighbours], axis=0))
    best = float(grid.max())
    for k in peaks[np.argsort(grid.ravel()[peaks])[::-1][:5]]:
        i, j = np.unravel_index(k, grid.shape)
        polish = minimize(lambda x: -overlap(x[0], x[1]), [axis[i], axis[j]],
                          method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000})
        best = max(best, -polish.fun)
    return (np.real(np.trace(m.conj().T @ m)) + best ** 2) / 20.0


def _fit_test_maps():
    rng = np.random.default_rng(11)
    maps = []
    for _ in range(100):   # random unitaries
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        maps.append(q * (np.diag(r) / np.abs(np.diag(r))))
    for _ in range(100):   # leaky diagonal maps
        maps.append(np.diag(rng.uniform(0.3, 1.0, 4) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))))
    for _ in range(100):   # CZ-family members with a perturbation
        target = cz_target(VirtualZAngles(*rng.uniform(-np.pi, np.pi, 2)))
        scale = rng.choice([0.01, 0.1, 0.5])
        maps.append(target + scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
    return maps


def _check_fit_is_global(m):
    angles, fidelity = fit_virtual_z(m)
    assert fidelity == pytest.approx(average_gate_fidelity(m, cz_target(angles)), abs=1e-15)
    assert fidelity >= _brute_force_cz_fidelity(m) - 1e-12


def test_fit_virtual_z_is_global_on_random_maps():
    for m in _fit_test_maps():
        _check_fit_is_global(m)


def test_fit_virtual_z_is_global_on_square_coarse_grid(gate_context, run_config):
    # The coarse grid that seeds the calibration of the 50 ns square gate.
    pulse = replace(run_config.pulse, family="square", length=50.0)
    usable = 0
    for peak in np.linspace(-0.030, -0.010, 11):
        for detune in np.linspace(-0.050, -0.005, 10):
            try:
                m = project_computational(gate_context.run(replace(pulse, peak_value=peak), detune))
            except ValueError:
                continue
            usable += 1
            _check_fit_is_global(m)
    assert usable >= 80


def test_leakage_from_map_matches_state_overlaps(gate_context, run_config):
    result = gate_context.run(replace(run_config.pulse, peak_value=-0.0217399), -0.0138206)
    basis = result.basis
    final = result.propagator @ basis.vector((1, 0, 1))
    direct = 1.0 - sum(abs(basis.vector(label).conj() @ final) ** 2
                       for label in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)))
    leakage = leakage_from_11(project_computational(result))
    assert leakage == pytest.approx(direct, abs=1e-15)
    assert 1e-7 < leakage < 1e-4


def test_conditional_phase_of_target_family():
    for dp, dm in [(0.0, 0.0), (1.2, -0.4), (-2.0, 0.9)]:
        m = cz_target(VirtualZAngles(dp, dm))
        # The single-qubit phases cancel in the phase combination.
        assert conditional_phase(m) == pytest.approx(np.pi, abs=1e-12)


def test_conditional_phase_rejects_non_diagonal():
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 1.0
    with pytest.raises(GateMetricsError):
        conditional_phase(m)


def test_projection_requires_labels(terms, basis):
    # project_computational needs all four computational dressed labels.
    from czsim.propagator import PropagationResult

    result = PropagationResult(propagator=np.eye(terms.dimension), basis=basis,
                               unitarity_defect=0.0, terms=terms)
    m = project_computational(result)
    assert m.shape == (4, 4)
    assert np.allclose(m, np.eye(4), atol=1e-12)


def test_gate_report_on_calibrated_gate(calibrated_gate):
    _, _, report = calibrated_gate
    assert report.fidelity > 0.9999
    assert report.leakage_from_11 < 1e-4
    assert abs(abs(np.degrees(report.conditional_phase)) - 180.0) < 0.1
    d = report.to_dict()
    assert set(d) >= {"fidelity", "leakage_from_11", "conditional_phase_deg",
                      "fitted_angles_rad", "projected_map_real"}
    # JSON round trip is loadable
    import json

    assert json.loads(report.to_json())["fidelity"] == pytest.approx(report.fidelity)
