"""Schedule and device transformations that only the tests use."""

from dataclasses import replace

import numpy as np

from czsim.device import DeviceSpec
from czsim.propagator import ControlSchedule
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
