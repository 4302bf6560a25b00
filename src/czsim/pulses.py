"""Coupler control waveforms: square, fast-adiabatic (slepian) and cosine.

Waveforms are sampled on a uniform grid and carry a parameterization tag:
either the coupler frequency itself or the effective Q1-Q2 coupling, which
is the coordinate the gate is actually calibrated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, coupler_frequency_at_coupling, effective_coupling_batch

FAMILIES = ("square", "slepian", "cosine")
PARAMETERIZATIONS = ("coupler_frequency", "effective_coupling")

DEFAULT_DT = 0.05  # ns


class PulseError(ValueError):
    pass


@dataclass(frozen=True)
class PulseShapeSpec:
    """Parametric description of one control pulse.

    idle_value and peak_value are in GHz, in the units of the chosen
    parameterization.  slepian_coefficients are the Fourier weights of the
    fast-adiabatic ramp rate (slepian family only).
    """

    family: str
    length: float
    idle_value: float
    peak_value: float
    parameterization: str = "effective_coupling"
    slepian_coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PulseError(f"unknown pulse family {self.family!r}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise PulseError(f"unknown parameterization {self.parameterization!r}")
        if not self.length > 0:
            raise PulseError("pulse length must be positive")
        if self.family == "slepian" and abs(sum(self.slepian_coefficients)) < 1e-12:
            raise PulseError("slepian coefficients must not sum to zero")


@dataclass(frozen=True)
class SampledWaveform:
    """Uniformly sampled control trajectory.

    samples[k] is the value at t = k*dt; the grid spans [0, duration].
    """

    dt: float
    samples: np.ndarray
    parameterization: str

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.parameterization not in PARAMETERIZATIONS:
            raise PulseError(f"unknown parameterization {self.parameterization!r}")
        if self.dt <= 0:
            raise PulseError("dt must be positive")

    @property
    def duration(self) -> float:
        return (len(self.samples) - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt


def _slepian_ramp(u: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Fast-adiabatic ramp r(u) on [0, 1] with r(0)=0, r(1)=1, r'(0)=r'(1)=0.

    The ramp rate is sum_k lam_k (1 - cos(2 pi k u)); integrating and
    normalizing gives r(u) = sum_k lam_k (u - sin(2 pi k u)/(2 pi k)) / sum_k lam_k.
    """
    total = sum(coeffs)
    r = np.zeros_like(u)
    for k, lam in enumerate(coeffs, start=1):
        r += lam * (u - np.sin(2.0 * np.pi * k * u) / (2.0 * np.pi * k))
    return r / total


def sample_pulse(spec: PulseShapeSpec, dt: float = DEFAULT_DT) -> SampledWaveform:
    """Sample a pulse on a uniform grid of spacing dt.

    Slepian and cosine pulses start and end exactly at idle_value; square
    pulses are padded with one idle sample on each side so every schedule
    starts and ends at idle.
    """
    if dt > spec.length / 20.0:
        raise PulseError(f"dt = {dt} ns too coarse for a {spec.length} ns pulse (need <= length/20)")
    n_steps = max(int(round(spec.length / dt)), 1)
    t = np.arange(n_steps + 1) * dt
    T = n_steps * dt
    span = spec.peak_value - spec.idle_value

    if spec.family == "square":
        samples = np.concatenate(
            ([spec.idle_value], np.full(n_steps + 1, spec.peak_value), [spec.idle_value])
        )
    elif spec.family == "cosine":
        samples = spec.idle_value + span * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / T))
    else:  # slepian
        u = np.where(t <= T / 2.0, 2.0 * t / T, 2.0 * (T - t) / T)
        samples = spec.idle_value + span * _slepian_ramp(u, spec.slepian_coefficients)
    return SampledWaveform(dt=dt, samples=samples, parameterization=spec.parameterization)


class CouplingInverter:
    """Inverse of g_eff(w_c) on the monotone branch above the qubits.

    Each value is mapped exactly by coupler_frequency_at_coupling.  The
    attainable range is [g_eff(upper qubit + 0.05 GHz), g_eff(60 GHz)]; a
    value outside it, or one whose residual |g_eff(w_c) - target| exceeds
    tol (GHz), raises PulseError.
    """

    tol = 1e-9

    def __init__(self, device: DeviceSpec):
        lo = max(device.q1.frequency, device.q2.frequency) + 0.05
        self.device = device
        self._range = effective_coupling_batch(device, np.array([lo, 60.0]))

    def invert_values(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        g_min, g_max = self._range
        outside = (targets < g_min) | (targets > g_max)
        if np.any(outside):
            raise PulseError(
                f"g_eff = {targets[outside][0]:.6f} GHz outside the attainable range "
                f"[{g_min:.6f}, {g_max:.6f}] GHz"
            )
        w = coupler_frequency_at_coupling(self.device, targets)
        residual = np.abs(effective_coupling_batch(self.device, w) - targets)
        if np.any(residual > self.tol):
            raise PulseError(f"inversion residual {residual.max():.2e} GHz exceeds {self.tol} GHz")
        return w

    def __call__(self, waveform: SampledWaveform) -> SampledWaveform:
        if waveform.parameterization != "effective_coupling":
            raise PulseError("waveform must be parameterized as effective_coupling")
        targets, inverse = np.unique(waveform.samples, return_inverse=True)
        solved = self.invert_values(targets)
        return SampledWaveform(dt=waveform.dt, samples=solved[inverse],
                               parameterization="coupler_frequency")


def waveform_to_csv(waveform: SampledWaveform, path, header_lines: list[str] | None = None) -> None:
    """Write a waveform as CSV with columns t_ns, value_ghz."""
    lines = list(header_lines or [])
    lines.append(f"parameterization={waveform.parameterization}")
    lines.append(f"dt_ns={waveform.dt!r}")
    header = "\n".join(lines) + "\nt_ns,value_ghz"
    data = np.column_stack([waveform.times, waveform.samples])
    np.savetxt(path, data, delimiter=",", header=header, comments="# ", fmt="%.12g")


def waveform_from_csv(path) -> SampledWaveform:
    """Read a waveform written by waveform_to_csv."""
    parameterization = None
    with open(path) as f:
        for line in f:
            if line.startswith("# parameterization="):
                parameterization = line.split("=", 1)[1].strip()
    if parameterization is None:
        raise PulseError(f"{path}: missing parameterization header")
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=0)
    t = data[:, 0]
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    return SampledWaveform(dt=dt, samples=data[:, 1], parameterization=parameterization)
