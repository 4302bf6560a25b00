import numpy as np
import pytest

from czsim.calibration import GateContext, calibrate_cz
from czsim.config import load_config
from czsim.device import build_hamiltonian, dressed_basis


@pytest.fixture(scope="session")
def run_config():
    return load_config()


@pytest.fixture(scope="session")
def device(run_config):
    """The reference device of the built-in configuration."""
    return run_config.device


@pytest.fixture(scope="session")
def terms(device):
    return build_hamiltonian(device)


@pytest.fixture(scope="session")
def basis(terms):
    return dressed_basis(terms)


@pytest.fixture(scope="session")
def gate_context(run_config):
    return GateContext(run_config.device, dt=run_config.dt)


@pytest.fixture(scope="session")
def calibrated_gate(gate_context, run_config):
    """(pulse, q2_detune, report) for the default 45 ns slepian gate."""
    return calibrate_cz(gate_context, run_config.pulse,
                        seed_peak=-0.022, seed_detune=-0.014)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
