"""Coupler control waveforms: square, fast-adiabatic (slepian) and cosine.

Every pulse is an excursion in the effective Q1-Q2 coupling g_eff from 0,
where the coupler idles at its zero-coupling point, to a peak value.
Waveforms are sampled on a uniform grid and carry a parameterization tag:
effective_coupling for a sampled pulse, coupler_frequency once inverted.
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

    The pulse runs in effective coupling g_eff from 0, the idle of a
    coupler at its zero-coupling point, to peak_value (GHz) and back.
    length is in ns.  slepian_coefficients are the Fourier weights of the
    fast-adiabatic ramp rate (slepian family only).  Only their ratios
    shape the ramp, so a slepian spec stores them normalized to sum 1.
    """

    family: str
    length: float
    peak_value: float
    slepian_coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PulseError(f"unknown pulse family {self.family!r}")
        if not self.length > 0:
            raise PulseError("pulse length must be positive")
        if self.family == "slepian":
            total = sum(self.slepian_coefficients)
            if abs(total) < 1e-12:
                raise PulseError("slepian coefficients must not sum to zero")
            # A tuple normalized up to round-off is kept, so replace() leaves it be.
            if abs(total - 1.0) > 1e-12:
                object.__setattr__(self, "slepian_coefficients",
                                   tuple(c / total for c in self.slepian_coefficients))


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

    The ramp rate is sum_k lam_k (1 - cos(2 pi k u)); integrating gives
    r(u) = sum_k lam_k (u - sin(2 pi k u)/(2 pi k)), which ends at 1 for
    the normalized weights (sum_k lam_k = 1) that PulseShapeSpec stores.
    """
    r = np.zeros_like(u)
    for k, lam in enumerate(coeffs, start=1):
        r += lam * (u - np.sin(2.0 * np.pi * k * u) / (2.0 * np.pi * k))
    return r


def sample_pulse(spec: PulseShapeSpec, dt: float = DEFAULT_DT) -> SampledWaveform:
    """Sample a pulse's g_eff on a uniform grid of spacing dt.

    Slepian and cosine pulses start and end exactly at 0; square pulses
    are padded with one idle sample on each side so every schedule starts
    and ends at idle.
    """
    if dt > spec.length / 20.0:
        raise PulseError(f"dt = {dt} ns too coarse for a {spec.length} ns pulse (need <= length/20)")
    n_steps = max(int(round(spec.length / dt)), 1)
    t = np.arange(n_steps + 1) * dt
    T = n_steps * dt
    peak = spec.peak_value

    if spec.family == "square":
        samples = np.concatenate(([0.0], np.full(n_steps + 1, peak), [0.0]))
    elif spec.family == "cosine":
        samples = peak * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / T))
    else:  # slepian
        u = np.where(t <= T / 2.0, 2.0 * t / T, 2.0 * (T - t) / T)
        samples = peak * _slepian_ramp(u, spec.slepian_coefficients)
    return SampledWaveform(dt=dt, samples=samples, parameterization="effective_coupling")


class CouplingInverter:
    """Inverse of g_eff(w_c) on the monotone branch above the qubits.

    Every sample is mapped by coupler_frequency_at_coupling.  The
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
        return SampledWaveform(dt=waveform.dt, samples=self.invert_values(waveform.samples),
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
    """Read a waveform written by waveform_to_csv.

    Raises PulseError unless the file has a parameterization header and at
    least two rows of (t_ns, value_ghz) on a uniform time grid from t = 0.
    """
    parameterization = None
    with open(path) as f:
        for line in f:
            if line.startswith("# parameterization="):
                parameterization = line.split("=", 1)[1].strip()
    if parameterization is None:
        raise PulseError(f"{path}: missing parameterization header")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[0] < 2 or data.shape[1] != 2:
        raise PulseError(f"{path}: need at least two rows of t_ns,value_ghz, got shape {data.shape}")
    t = data[:, 0]
    if t[0] != 0.0:
        raise PulseError(f"{path}: times must start at 0, got {t[0]} ns")
    dt = float(t[1])
    # The times are written to 12 significant digits, far inside this tolerance.
    if not np.allclose(np.diff(t), dt, rtol=1e-6, atol=0.0):
        raise PulseError(f"{path}: times are not on a uniform grid of spacing {dt} ns")
    return SampledWaveform(dt=dt, samples=data[:, 1], parameterization=parameterization)
