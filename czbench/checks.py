"""Correctness checks on czsim's outputs.

Each check compares an output with a fixed rule or with a value from
`reference`, and returns a list of problems (empty when the output passes),
so a run can report every problem at once and the tests in `tests/` can
show that each check rejects a corrupted result.
"""

from __future__ import annotations

import numpy as np

from reference import purity_stderr_bound

# Agreement between czsim and the dense expm reference.  Both integrate the
# same Magnus rule exactly, so they differ by round-off accumulated over
# ~2,000 substeps (observed: <1e-11 in the propagator and <1e-12 in the
# figures).
PROPAGATOR_TOL = 1e-9
FIDELITY_TOL = 1e-9
LEAKAGE_TOL = 1e-9
PHASE_TOL_DEG = 1e-6
UNITARITY_TOL = 1e-9

# Quality rules for a calibrated CZ.
PHASE_WINDOW_DEG = 0.5
SMOOTH_MIN_FIDELITY = 0.999
SMOOTH_MAX_LEAKAGE = 1e-4
SMOOTH_RULE_MIN_LENGTH_NS = 45.0

# Scan rules.
ON_TARGET_LEAKAGE = 1e-3
AMPLIFICATION_REL_TOL = 0.05
AMPLIFICATION_MIN_DEG = 0.5

XEB_TOL = 0.002
SPB_SIGMAS = 4.0
PROBS_TOL = 1e-12


def phase_problems(name: str, phase_deg: float) -> list[str]:
    """A CZ's conditional phase must lie within the window around +-180 deg."""
    off = abs(abs(phase_deg) - 180.0)
    if not off <= PHASE_WINDOW_DEG:
        return [f"{name}: conditional phase {phase_deg:.4f} deg is {off:.3f} deg from 180"]
    return []


def smooth_gate_problems(name: str, record: dict) -> list[str]:
    """Fidelity and leakage rules for smooth pulses at lengths >= 45 ns."""
    if record["length"] < SMOOTH_RULE_MIN_LENGTH_NS:
        return []
    problems = []
    if not record["fidelity"] >= SMOOTH_MIN_FIDELITY:
        problems.append(f"{name}: fidelity {record['fidelity']:.6f} < {SMOOTH_MIN_FIDELITY}")
    if not record["leakage"] < SMOOTH_MAX_LEAKAGE:
        problems.append(f"{name}: leakage {record['leakage']:.3e} >= {SMOOTH_MAX_LEAKAGE}")
    return problems


def reference_problems(name: str, reported: dict, reference: dict) -> list[str]:
    """The gate figures present in `reported` must match the dense reference's."""
    problems = []
    for key, tol in (("fidelity", FIDELITY_TOL), ("leakage", LEAKAGE_TOL)):
        if key in reported and not abs(reported[key] - reference[key]) <= tol:
            problems.append(f"{name}: {key} {reported[key]!r} vs reference {reference[key]!r}")
    if "conditional_phase_deg" in reported:
        d_phase = reported["conditional_phase_deg"] - reference["conditional_phase_deg"]
        d_phase = (d_phase + 180.0) % 360.0 - 180.0
        if not abs(d_phase) <= PHASE_TOL_DEG:
            problems.append(f"{name}: conditional phase off the reference by {d_phase:.3e} deg")
    return problems


def propagator_problems(name: str, u: np.ndarray, u_ref: np.ndarray,
                        excitation: np.ndarray) -> list[str]:
    """Unitary, exactly zero between excitation sectors, equal to the reference."""
    problems = []
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
    if not defect < UNITARITY_TOL:
        problems.append(f"{name}: unitarity defect {defect:.2e}")
    across = excitation[:, None] != excitation[None, :]
    if np.any(u[across] != 0):
        problems.append(f"{name}: {int(np.count_nonzero(u[across]))} nonzero elements "
                        f"between excitation sectors")
    diff = float(np.max(np.abs(u - u_ref)))
    if not diff <= PROPAGATOR_TOL:
        problems.append(f"{name}: propagator differs from the reference by {diff:.2e}")
    return problems


def on_target_problems(leakage: np.ndarray, phase_deg: np.ndarray) -> list[str]:
    """Some scan point must have low leakage and a conditional phase near 180 deg."""
    hit = (leakage < ON_TARGET_LEAKAGE) & (np.abs(np.abs(phase_deg) - 180.0) < PHASE_WINDOW_DEG)
    if not np.any(hit):
        return [f"scan: no grid point with leakage < {ON_TARGET_LEAKAGE} and phase within "
                f"{PHASE_WINDOW_DEG} deg of 180"]
    return []


def amplification_problems(n_list, deviations_deg) -> list[str]:
    """Repeated-gate phase deviation must grow linearly at the per-gate rate."""
    deviations_deg = np.asarray(deviations_deg, dtype=float)
    per_gate = deviations_deg[0] / n_list[0]
    slope = np.polyfit(n_list, deviations_deg, 1)[0]
    problems = []
    if not abs(per_gate) > AMPLIFICATION_MIN_DEG:
        problems.append(f"amplification: per-gate deviation {per_gate:.3f} deg not visible")
    if not abs(slope - per_gate) <= AMPLIFICATION_REL_TOL * abs(per_gate):
        problems.append(f"amplification: slope {slope:.4f} deg/gate vs per-gate {per_gate:.4f}")
    return problems


def xeb_problems(cycle_fidelity: float, p_cycle: float) -> list[str]:
    if not abs(cycle_fidelity - (1.0 - p_cycle)) <= XEB_TOL:
        return [f"xeb: cycle fidelity {cycle_fidelity:.5f} not within {XEB_TOL} of "
                f"{1.0 - p_cycle:.5f}"]
    return []


def spb_problems(purity: float, expected: float, p_cycle: float, depth: int,
                 n_circuits: int) -> list[str]:
    """SPB purity within SPB_SIGMAS standard-error bounds of the closed form."""
    tol = SPB_SIGMAS * purity_stderr_bound(p_cycle, depth, n_circuits)
    if not abs(purity - expected) <= tol:
        return [f"spb: purity {purity:.5f} not within {tol:.5f} of {expected:.5f}"]
    return []


def probs_problems(name: str, probs: np.ndarray, reference: np.ndarray) -> list[str]:
    diff = float(np.max(np.abs(np.asarray(probs) - np.asarray(reference))))
    if not diff <= PROBS_TOL:
        return [f"{name}: probabilities differ from the statevector reference by {diff:.2e}"]
    return []


def count_problems(name: str, got: float, expected: float) -> list[str]:
    if got != expected:
        return [f"{name}: counted {got}, expected {expected}"]
    return []
