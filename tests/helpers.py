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
