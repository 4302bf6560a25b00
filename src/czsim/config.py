"""Run configuration: JSON schema, validation, and construction of the
domain objects the commands operate on."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from . import __version__
from .benchmarking import DEFAULT_CIRCUITS, DEFAULT_DEPTHS, NoiseSpec
from .device import MODE_LABELS, CouplingGraph, DeviceSpec, ModeSpec, zero_coupling_point
from .distortion import DistortionModel
from .pulses import DEFAULT_DT, PulseShapeSpec

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _mode_schema(label: str) -> dict:
    """Schema of one mode.  The coupler takes no frequency: it idles at the
    zero-coupling point, which the qubits and couplings fix."""
    frequency = {} if label == "C" else {"frequency": {"type": "number"}}
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["label", *frequency, "anharmonicity"],
        "properties": {
            "label": {"const": label},
            **frequency,
            "anharmonicity": {"type": "number"},
            "levels": {"type": "integer", "minimum": 3},
        },
    }


CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "device"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "device": {
            "type": "object",
            "additionalProperties": False,
            "required": ["modes", "couplings"],
            "properties": {
                "modes": {"type": "array", "items": [_mode_schema(m) for m in MODE_LABELS],
                          "additionalItems": False, "minItems": 3},
                "couplings": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["g_1c", "g_2c", "g_12"],
                    "properties": {
                        "g_1c": {"type": "number"},
                        "g_2c": {"type": "number"},
                        "g_12": {"type": "number"},
                    },
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt_ns": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "pulse": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["square", "slepian", "cosine"]},
                "length_ns": {"type": "number", "exclusiveMinimum": 0},
                "peak_value": {"type": "number"},
                "slepian_coefficients": {"type": "array", "items": {"type": "number"}},
            },
        },
        "gate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "q2_detune": {"type": ["number", "null"]},
                "compensate": {"type": "boolean"},
            },
        },
        "distortion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gain": {"type": "number"},
                "settling_terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["amplitude", "time_constant_ns"],
                        "properties": {
                            "amplitude": {"type": "number"},
                            "time_constant_ns": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "depolarizing_per_cycle": {"type": "number", "minimum": 0, "maximum": 1},
                "readout": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "f00": {"type": "array", "items": {"type": "number"}},
                        "f11": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "benchmarking": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "depths": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "n_circuits": {"type": "integer", "minimum": 1},
                "shots": {"type": ["integer", "null"], "minimum": 1},
            },
        },
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
}

# One validator, checked once; jsonschema.validate redoes both on every call.
jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)
_VALIDATOR = jsonschema.Draft7Validator(CONFIG_SCHEMA)

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "device": {
        "modes": [
            {"label": "Q1", "frequency": 5.077, "anharmonicity": -0.235, "levels": 3},
            {"label": "C", "anharmonicity": -0.100, "levels": 3},
            {"label": "Q2", "frequency": 4.889, "anharmonicity": -0.235, "levels": 3},
        ],
        "couplings": {"g_1c": 0.090, "g_2c": 0.090, "g_12": 0.006},
    },
    "solver": {"dt_ns": DEFAULT_DT},
    "pulse": {
        "family": "slepian",
        "length_ns": 45.0,
        "peak_value": -0.022,
        "slepian_coefficients": [1.0],
    },
    "gate": {"q2_detune": -0.014, "compensate": True},
    "noise": {
        "depolarizing_per_cycle": 0.0,
        "readout": {"f00": [0.993, 0.996], "f11": [0.966, 0.974]},
    },
    "benchmarking": {"depths": list(DEFAULT_DEPTHS), "n_circuits": DEFAULT_CIRCUITS, "shots": None},
    "seed": 0,
    "output_dir": "czsim_out",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the constructed domain objects."""

    raw: dict
    device: DeviceSpec
    dt: float
    pulse: PulseShapeSpec
    q2_detune: float | None
    compensate: bool
    distortion: DistortionModel | None
    noise: NoiseSpec
    depths: tuple[int, ...]
    n_circuits: int
    shots: int | None
    seed: int
    output_dir: Path

    @property
    def config_hash(self) -> str:
        # output_dir is excluded so runs that only differ in where they
        # write are recognizably the same configuration.
        hashed = {k: v for k, v in self.raw.items() if k != "output_dir"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def meta(self) -> dict:
        return {"czsim_version": __version__, "config_hash": self.config_hash, "seed": self.seed}

    def header_lines(self) -> list[str]:
        return [f"{k}={v}" for k, v in self.meta().items()]


def _merge(base: dict, override: dict) -> dict:
    """override merged into a deep copy of base; shares no container with either."""
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load, validate, and materialize a run configuration.

    path=None uses the built-in defaults; a config file is merged on top
    of them, and overrides (CLI flags) on top of that.  Unknown keys
    anywhere are schema errors.
    """
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file not found: {p}")
        with open(p) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    raw = _merge(DEFAULT_CONFIG, raw)
    if overrides:
        raw = _merge(raw, overrides)
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message} (at {'/'.join(map(str, error.path))})")
    # The domain objects refuse values the schema lets through (a negative frequency, ...).
    try:
        return _materialize(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _materialize(raw: dict) -> RunConfig:
    """Build the domain objects from a config already merged with DEFAULT_CONFIG."""
    dev = raw["device"]
    couplings = CouplingGraph(**dev["couplings"])

    def device_with_coupler_at(frequency: float) -> DeviceSpec:
        # Only the coupler has no frequency key.  A user's modes list
        # replaces the default one wholesale, so levels keeps a fallback here.
        return DeviceSpec(tuple(
            ModeSpec(m["label"], m.get("frequency", frequency), m["anharmonicity"],
                     m.get("levels", 3))
            for m in dev["modes"]
        ), couplings)

    # The coupler idles at the zero-coupling point.  That point depends only
    # on the qubits and couplings, so the coupler of the spec it is read
    # from may sit anywhere.
    device = device_with_coupler_at(zero_coupling_point(device_with_coupler_at(1.0)))

    pulse_cfg = raw["pulse"]
    pulse = PulseShapeSpec(
        family=pulse_cfg["family"],
        length=pulse_cfg["length_ns"],
        peak_value=pulse_cfg["peak_value"],
        slepian_coefficients=tuple(pulse_cfg["slepian_coefficients"]),
    )
    gate = raw["gate"]

    distortion = None
    if "distortion" in raw:
        d = raw["distortion"]
        distortion = DistortionModel(
            settling_terms=tuple(
                (t["amplitude"], t["time_constant_ns"]) for t in d.get("settling_terms", [])
            ),
            gain=d.get("gain", 1.0),
        )

    n = raw["noise"]
    noise = NoiseSpec.from_fidelities(n["depolarizing_per_cycle"],
                                      dict(enumerate(n["readout"]["f00"])),
                                      dict(enumerate(n["readout"]["f11"])))

    bench = raw["benchmarking"]
    return RunConfig(
        raw=raw,
        device=device,
        dt=raw["solver"]["dt_ns"],
        pulse=pulse,
        q2_detune=gate["q2_detune"],
        compensate=gate["compensate"],
        distortion=distortion,
        noise=noise,
        depths=tuple(bench["depths"]),
        n_circuits=bench["n_circuits"],
        shots=bench["shots"],
        seed=raw["seed"],
        output_dir=Path(raw["output_dir"]),
    )
