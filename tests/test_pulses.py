from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czsim.calibration import GateContext
from czsim.device import (
    CouplingGraph,
    DeviceModelError,
    DeviceSpec,
    effective_coupling_batch,
    zero_coupling_point,
)
from czsim.pulses import (
    CouplingInverter,
    PulseError,
    PulseShapeSpec,
    SampledWaveform,
    sample_pulse,
    waveform_from_csv,
    waveform_to_csv,
)


def _spec(family="slepian", length=40.0, peak=-0.02, **kwargs):
    return PulseShapeSpec(family=family, length=length, peak_value=peak, **kwargs)


def test_spec_validation():
    with pytest.raises(PulseError):
        _spec(family="triangle")
    with pytest.raises(PulseError):
        _spec(length=0.0)
    with pytest.raises(PulseError):
        _spec(slepian_coefficients=(1.0, -1.0))


def test_sample_grid_and_endpoints():
    for family in ("slepian", "cosine"):
        wf = sample_pulse(_spec(family=family, length=40.0), dt=0.05)
        assert wf.parameterization == "effective_coupling"
        assert len(wf.samples) == 801
        assert wf.duration == pytest.approx(40.0)
        assert wf.samples[0] == pytest.approx(0.0, abs=1e-15)
        assert wf.samples[-1] == pytest.approx(0.0, abs=1e-15)
        # peak at the center
        assert wf.samples[400] == pytest.approx(-0.02, abs=1e-12)


def test_square_padding():
    wf = sample_pulse(_spec(family="square", length=10.0), dt=0.5)
    assert wf.samples[0] == 0.0
    assert wf.samples[-1] == 0.0
    assert np.all(wf.samples[1:-1] == -0.02)


def test_dt_too_coarse():
    with pytest.raises(PulseError):
        sample_pulse(_spec(length=10.0), dt=1.0)


def test_slepian_coefficient_scale_does_nothing():
    one, two = _spec(slepian_coefficients=(1.0,)), _spec(slepian_coefficients=(2.0,))
    assert one == two and one.slepian_coefficients == (1.0,)
    assert np.array_equal(sample_pulse(one).samples, sample_pulse(two).samples)
    # Ratios still shape the ramp; they are stored normalized to sum 1.
    mixed = _spec(slepian_coefficients=(1.0, 0.5))
    assert mixed.slepian_coefficients == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    assert mixed != one
    assert replace(mixed, peak_value=-0.03).slepian_coefficients == mixed.slepian_coefficients
    wf = sample_pulse(mixed, dt=0.05)
    assert wf.samples[400] == pytest.approx(-0.02, abs=1e-15)
    assert not np.allclose(wf.samples, sample_pulse(one, dt=0.05).samples, atol=1e-6)


def test_slepian_ramp_monotone():
    wf = sample_pulse(_spec(family="slepian", length=40.0), dt=0.05)
    up = wf.samples[:401]
    assert np.all(np.diff(up) <= 1e-15)  # descending toward a negative peak
    # symmetric pulse
    assert np.allclose(wf.samples, wf.samples[::-1], atol=1e-12)


@given(
    family=st.sampled_from(["square", "slepian", "cosine"]),
    length=st.floats(10.0, 80.0),
    peak=st.floats(-0.05, -0.001),
)
@settings(max_examples=40, deadline=None)
def test_samples_within_envelope(family, length, peak):
    wf = sample_pulse(_spec(family=family, length=length, peak=peak), dt=0.25)
    assert np.all(wf.samples <= 1e-12)
    assert np.all(wf.samples >= peak - 1e-12)


def test_coupling_to_frequency_residual(device):
    wf = sample_pulse(_spec(length=40.0, peak=-0.02), dt=0.1)
    freq = CouplingInverter(device)(wf)
    assert freq.parameterization == "coupler_frequency"
    back = effective_coupling_batch(device, freq.samples)
    assert np.max(np.abs(back - wf.samples)) < 1e-9
    # idle coupling maps back to the zero-coupling idle frequency
    assert freq.samples[0] == pytest.approx(device.coupler.frequency, abs=1e-6)


def test_coupling_inverse_exact_across_attainable_range(device):
    inverter = CouplingInverter(device)
    lo, hi = effective_coupling_batch(
        device, [max(device.q1.frequency, device.q2.frequency) + 0.05, 60.0])
    targets = np.sort(np.concatenate([np.linspace(lo, hi, 4001), [0.0, 1e-12, -1e-12]]))
    wc = inverter.invert_values(targets)
    assert np.max(np.abs(effective_coupling_batch(device, wc) - targets)) <= 1e-12
    assert np.all(np.diff(wc) > 0)


def test_coupling_inverse_idles_at_zero_coupling_point(device):
    # The config parks the coupler at zero_coupling_point, the same formula
    # at g_eff = 0, so idle samples invert to it bit for bit.
    idle = CouplingInverter(device).invert_values([0.0])[0]
    assert idle == device.coupler.frequency == zero_coupling_point(device)


def test_coupling_inverse_refuses_unequal_couplings(device):
    g = device.couplings
    unequal = DeviceSpec(device.modes, CouplingGraph(g_1c=0.09, g_2c=0.08, g_12=g.g_12))
    with pytest.raises(DeviceModelError, match="g_1c = 0.09 and g_2c = 0.08"):
        zero_coupling_point(unequal)
    with pytest.raises(DeviceModelError, match="g_1c = 0.09 and g_2c = 0.08"):
        effective_coupling_batch(unequal, [7.0])
    with pytest.raises(DeviceModelError, match="g_1c = 0.09 and g_2c = 0.08"):
        CouplingInverter(unequal).invert_values([0.0])
    # Every pulse is a g_eff excursion, so no gate runs on such a device.
    with pytest.raises(DeviceModelError, match="g_1c = 0.09 and g_2c = 0.08"):
        GateContext(unequal)


def test_gate_context_refuses_coupler_off_zero_coupling(device):
    # At 7.0 GHz, g_eff = 0 inverts to 6.327 GHz, so a zero pulse would
    # be a 0.673 GHz excursion with a spurious conditional phase.
    away = replace(device, modes=(device.q1, replace(device.coupler, frequency=7.0), device.q2))
    with pytest.raises(DeviceModelError, match="not at its zero-coupling point"):
        GateContext(away)
    nudged = device.coupler.frequency + 1e-8
    near = replace(device, modes=(device.q1, replace(device.coupler, frequency=nudged), device.q2))
    with pytest.raises(DeviceModelError, match="not at its zero-coupling point"):
        GateContext(near)


def test_coupling_to_frequency_out_of_range(device):
    wf = SampledWaveform(0.05, np.array([0.0, -5.0, 0.0]), "effective_coupling")
    with pytest.raises(PulseError):
        CouplingInverter(device)(wf)


def test_coupling_to_frequency_wrong_parameterization(device):
    wf = SampledWaveform(0.05, np.zeros(5), "coupler_frequency")
    with pytest.raises(PulseError):
        CouplingInverter(device)(wf)


def test_csv_round_trip(tmp_path):
    wf = sample_pulse(_spec(length=20.0), dt=0.25)
    path = tmp_path / "wf.csv"
    waveform_to_csv(wf, path)
    back = waveform_from_csv(path)
    assert back.parameterization == wf.parameterization
    assert back.dt == pytest.approx(wf.dt, abs=1e-12)
    assert np.allclose(back.samples, wf.samples, atol=1e-12)
