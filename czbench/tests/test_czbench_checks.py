"""The benchmark's checks accept czsim's outputs and reject corrupted ones.

Run from the repository root:  python -m pytest czbench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from czsim import benchmarking  # noqa: E402
from czsim.calibration import GateContext  # noqa: E402
from czsim.config import load_config  # noqa: E402
from czsim.metrics import gate_report  # noqa: E402
from czsim.propagator import PropagationResult, propagate  # noqa: E402


@pytest.fixture(scope="module")
def gate():
    """A 20 ns slepian gate near the pinned operating point: czsim's
    propagation result and the dense reference's propagator."""
    cfg = load_config()
    ctx = GateContext(cfg.device, dt=cfg.dt)
    pulse = replace(cfg.pulse, length=20.0, peak_value=-0.0217399)
    schedule = ctx.build_schedule(pulse, -0.0138206)
    result = propagate(ctx.terms, schedule, basis=ctx.basis)
    model = reference.DenseModel.from_device(cfg.device)
    u_ref = model.propagate_schedule(schedule, cfg.device.coupler.frequency)
    return result, model, u_ref


def _report_dict(result):
    rep = gate_report(result)
    return {"fidelity": rep.fidelity, "leakage": rep.leakage_from_11,
            "conditional_phase_deg": float(np.degrees(rep.conditional_phase))}


def test_clean_gate_matches_reference(gate):
    result, model, u_ref = gate
    assert checks.propagator_problems("gate", result.propagator, u_ref, model.excitation) == []
    assert checks.reference_problems("gate", _report_dict(result), model.gate_metrics(u_ref)) == []


def test_phase_error_on_101_is_rejected(gate):
    result, model, u_ref = gate
    k = model.labels.index((1, 0, 1))
    bad = result.propagator.copy()
    bad[k, :] *= np.exp(1e-3j)
    corrupted = PropagationResult(propagator=bad, basis=result.basis,
                                  unitarity_defect=result.unitarity_defect, terms=result.terms)
    assert checks.propagator_problems("gate", bad, u_ref, model.excitation)
    problems = checks.reference_problems("gate", _report_dict(corrupted),
                                         model.gate_metrics(u_ref))
    assert any("conditional phase" in p for p in problems)


def test_element_between_sectors_is_rejected(gate):
    result, model, u_ref = gate
    bad = result.propagator.copy()
    i = model.labels.index((0, 0, 1))
    j = model.labels.index((1, 0, 1))
    bad[i, j] = 1e-15
    problems = checks.propagator_problems("gate", bad, u_ref, model.excitation)
    assert any("between excitation sectors" in p for p in problems)


def test_scan_phase_off_by_one_degree_is_rejected():
    leakage = np.array([[2e-3, 5e-6], [4e-4, 3e-2]])
    phase = np.array([[170.0, -179.7], [178.0, 175.0]])
    assert checks.on_target_problems(leakage, phase) == []
    shifted = phase.copy()
    shifted[0, 1] += 1.0
    assert checks.on_target_problems(leakage, shifted)
    ref = {"leakage": 5e-6, "conditional_phase_deg": -179.7}
    assert checks.reference_problems("point", {"conditional_phase_deg": -179.7}, ref) == []
    assert checks.reference_problems("point", {"conditional_phase_deg": -178.7}, ref)


def test_calibrated_gate_rules():
    assert checks.phase_problems("g", -179.6) == []
    assert checks.phase_problems("g", 179.4)
    good = {"length": 45.0, "fidelity": 0.9995, "leakage": 5e-5}
    assert checks.smooth_gate_problems("g", good) == []
    assert checks.smooth_gate_problems("g", {**good, "leakage": 2e-4})
    assert checks.smooth_gate_problems("g", {**good, "fidelity": 0.998})
    assert checks.smooth_gate_problems("g", {**good, "length": 40.0, "leakage": 2e-4}) == []


def test_amplification_must_be_linear():
    n = [1, 3, 5, 7, 9, 11, 13]
    assert checks.amplification_problems(n, [2.0 * k for k in n]) == []
    assert checks.amplification_problems(n, [2.0 * k + 0.05 * k * k for k in n])
    assert checks.amplification_problems(n, [0.1 * k for k in n])


def test_spb_probabilities_scaled_by_095_are_rejected():
    p, depth, n = 0.0035, 20, 50_000
    labels = benchmarking.batch_random_labels(n, depth, 2, seed=3)
    lam = (1.0 - p) ** depth
    noisy = lam * (benchmarking.batch_ideal_probs(labels) - 0.25) + 0.25
    expected = reference.depolarized_purity(p, depth)
    purity, _ = benchmarking.speckle_purity(noisy, 4)
    assert checks.spb_problems(purity, expected, p, depth, n) == []
    scaled, _ = benchmarking.speckle_purity(0.95 * noisy, 4)
    assert checks.spb_problems(scaled, expected, p, depth, n)


def test_xeb_outside_tolerance_is_rejected():
    assert checks.xeb_problems(0.9955, 0.0035) == []
    assert checks.xeb_problems(0.9935, 0.0035)


def test_batch_ideal_probs_against_statevector():
    names = benchmarking.GATE_NAMES
    labels = benchmarking.batch_random_labels(16, 6, 2, seed=5)
    probs = benchmarking.batch_ideal_probs(labels)
    ref = np.array([reference.circuit_probs([(names[a], names[b]) for a, b in labels[:, c]])
                    for c in range(16)])
    assert checks.probs_problems("batch", probs, ref) == []
    wrong = labels.copy()
    wrong[2, 0, 1] = (wrong[2, 0, 1] + 2) % len(names)
    ref_wrong = np.array([reference.circuit_probs([(names[a], names[b]) for a, b in wrong[:, c]])
                          for c in range(16)])
    assert checks.probs_problems("batch", probs, ref_wrong)


def test_simulate_circuit_noisy_path_against_closed_form():
    noise = benchmarking.NoiseSpec.from_fidelities(0.0035, {0: 0.993, 1: 0.996},
                                                   {0: 0.966, 1: 0.974})
    circuit = benchmarking.generate_circuit(2, 8, seed=9)
    ideal, noisy = benchmarking.simulate_circuit(circuit, noise)
    ideal_ref = reference.circuit_probs(circuit.single_qubit_layers)
    assert checks.probs_problems("ideal", ideal, ideal_ref) == []
    noisy_ref = reference.depolarized_readout_probs(ideal_ref, 0.0035, 8, [0.993, 0.996],
                                                    [0.966, 0.974])
    assert checks.probs_problems("noisy", noisy, noisy_ref) == []
    swapped = reference.depolarized_readout_probs(ideal_ref, 0.0035, 8, [0.996, 0.993],
                                                  [0.974, 0.966])
    assert checks.probs_problems("noisy", noisy, swapped)


def test_count_check():
    assert checks.count_problems("calls", 112.0, 112) == []
    assert checks.count_problems("calls", 113.0, 112)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
