import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import czsim.calibration
import czsim.cli
from czsim.cli import _parse_lengths, build_parser, default_workers, main
from czsim.config import (
    CONFIG_VERSION,
    ConfigError,
    DEFAULT_CONFIG,
    RunConfig,
    load_config,
)


def _write_cfg(tmp_path, overrides=None, name="cfg.json"):
    raw = {"version": CONFIG_VERSION}
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_default_config_loads():
    cfg = load_config()
    assert cfg.dt == pytest.approx(0.05)
    assert cfg.pulse.family == "slepian"
    assert cfg.device.q1.frequency == pytest.approx(5.077)
    assert cfg.seed == DEFAULT_CONFIG["seed"]
    assert len(cfg.config_hash) == 16


def test_config_hash_stable_and_sensitive(tmp_path):
    a = load_config(_write_cfg(tmp_path))
    b = load_config(_write_cfg(tmp_path, name="other.json"))
    assert a.config_hash == b.config_hash
    c = load_config(_write_cfg(tmp_path, {"seed": 99}, name="seeded.json"))
    assert c.config_hash != a.config_hash


def test_loaded_config_shares_nothing_with_defaults():
    cfg = load_config()
    digest = cfg.config_hash
    cfg.raw["pulse"]["length_ns"] = 99.0
    cfg.raw["device"]["modes"][0]["frequency"] = 1.0
    fresh = load_config()
    assert fresh.pulse.length == 45.0
    assert fresh.raw["device"]["modes"][0]["frequency"] != 1.0
    assert fresh.raw["device"]["modes"] is not DEFAULT_CONFIG["device"]["modes"]
    assert fresh.config_hash == digest


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, {"bogus_section": {}}))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, {"pulse": {"familly": "slepian"}}))


def test_config_rejects_bad_json_and_version(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, {"version": CONFIG_VERSION + 1}))


def test_config_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/cfg.json")


def test_config_overrides(tmp_path):
    cfg = load_config(_write_cfg(tmp_path), overrides={"seed": 7})
    assert cfg.seed == 7


def test_config_sections_materialize(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {
        "distortion": {"gain": 0.99,
                       "settling_terms": [{"amplitude": -0.05,
                                           "time_constant_ns": 40.0}]},
        "noise": {"depolarizing_per_cycle": 0.004},
        "benchmarking": {"depths": [2, 4, 6], "n_circuits": 12},
    }))
    assert cfg.distortion is not None
    assert cfg.distortion.gain == pytest.approx(0.99)
    assert cfg.noise.depolarizing_per_cycle == pytest.approx(0.004)
    assert cfg.depths == (2, 4, 6)
    assert cfg.n_circuits == 12


def test_meta_and_header(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    meta = cfg.meta()
    assert set(meta) == {"czsim_version", "config_hash", "seed"}
    assert any("config_hash" in line for line in cfg.header_lines())


def test_parse_lengths():
    assert np.allclose(_parse_lengths("20:40:10"), [20, 30, 40])
    with pytest.raises(Exception):
        _parse_lengths("20:40")
    with pytest.raises(Exception):
        _parse_lengths("40:20:5")


def test_cli_missing_config_exit_2(tmp_path, capsys):
    rc = main(["gate", "--config", "/nonexistent.json",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_not_found"


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, {"bogus": 1})
    rc = main(["gate", "--config", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid_config"


@pytest.mark.parametrize("section", [
    {"device": {"flux_models": {"Q1": {"max_frequency": 5.299, "anharmonicity": -0.235}}}},
    {"device": {"metadata": {"T1_us": {"Q1": 20.56}}}},
    {"solver": {"unitarity_tolerance": 1e-9}},
])
def test_cli_removed_config_keys_exit_2(tmp_path, capsys, section):
    path = _write_cfg(tmp_path, section)
    rc = main(["gate", "--config", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid_config"


@pytest.mark.parametrize("section", [
    {"device": {"coupler_at_zero_coupling": False}},
    {"device": {"modes": [
        {"label": "Q1", "frequency": 5.077, "anharmonicity": -0.235},
        {"label": "C", "frequency": 7.0, "anharmonicity": -0.100},
        {"label": "Q2", "frequency": 4.889, "anharmonicity": -0.235},
    ]}},
    {"pulse": {"idle_value": 0.0}},
    {"pulse": {"parameterization": "effective_coupling"}},
], ids=["coupler_at_zero_coupling", "coupler_frequency", "idle_value", "parameterization"])
def test_cli_idle_moving_config_keys_exit_2(tmp_path, capsys, section):
    # The coupler always idles at zero coupling and every pulse runs in g_eff
    # from 0, so the keys that could move either are refused, even at the
    # values they used to default to.
    path = _write_cfg(tmp_path, section)
    rc = main(["gate", "--config", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid_config"


def _leaf_paths(tree, path=()):
    """Paths to the leaves of a config tree; a list of objects is indexed."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(tree, list) and tree and isinstance(tree[0], dict):
        for i, value in enumerate(tree):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


# One other valid value for every leaf of DEFAULT_CONFIG but the version and
# the mode labels, whose only valid values are the defaults.
_OTHER_VALUES = {
    ("device", "modes", 0, "frequency"): 5.1,
    ("device", "modes", 0, "anharmonicity"): -0.2,
    ("device", "modes", 0, "levels"): 4,
    ("device", "modes", 1, "anharmonicity"): -0.12,
    ("device", "modes", 1, "levels"): 4,
    ("device", "modes", 2, "frequency"): 4.9,
    ("device", "modes", 2, "anharmonicity"): -0.2,
    ("device", "modes", 2, "levels"): 4,
    ("device", "couplings", "g_1c"): 0.08,
    ("device", "couplings", "g_2c"): 0.08,
    ("device", "couplings", "g_12"): 0.007,
    ("solver", "dt_ns"): 0.025,
    ("pulse", "family"): "cosine",
    ("pulse", "length_ns"): 50.0,
    ("pulse", "peak_value"): -0.02,
    ("pulse", "slepian_coefficients"): [1.0, 0.5],
    ("gate", "q2_detune"): None,
    ("gate", "compensate"): False,
    ("noise", "depolarizing_per_cycle"): 0.01,
    ("noise", "readout", "f00"): [0.99, 0.996],
    ("noise", "readout", "f11"): [0.96, 0.974],
    ("benchmarking", "depths"): [2, 4],
    ("benchmarking", "n_circuits"): 7,
    ("benchmarking", "shots"): 100,
    ("seed",): 1,
    ("output_dir",): "elsewhere",
}
_FIXED_LEAVES = [("version",)] + [("device", "modes", i, "label") for i in range(3)]


@pytest.mark.parametrize("leaf", [p for p in _leaf_paths(DEFAULT_CONFIG) if p not in _FIXED_LEAVES],
                         ids=lambda p: ".".join(map(str, p)))
def test_every_config_key_reaches_a_domain_object(leaf):
    assert leaf in _OTHER_VALUES, f"no other valid value listed for {leaf}"
    raw = copy.deepcopy(DEFAULT_CONFIG)
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = _OTHER_VALUES[leaf]
    if leaf[-1] in ("g_1c", "g_2c"):
        # The g_eff inverse needs g_1c = g_2c, so the two move together.
        node.update(g_1c=_OTHER_VALUES[leaf], g_2c=_OTHER_VALUES[leaf])
    default, changed = load_config(), load_config(overrides=raw)
    # repr, because NoiseSpec holds arrays, which == does not reduce to a bool.
    moved = [f.name for f in dataclasses.fields(RunConfig) if f.name != "raw"
             and repr(getattr(changed, f.name)) != repr(getattr(default, f.name))]
    assert moved, f"{'.'.join(map(str, leaf))} reaches no field of RunConfig"


@pytest.mark.parametrize("section", [
    {"device": {"couplings": {"g_12": 0.0}}},
    {"device": {"modes": [
        {"label": "Q1", "frequency": -5.0, "anharmonicity": -0.235},
        {"label": "C", "anharmonicity": -0.100},
        {"label": "Q2", "frequency": 4.889, "anharmonicity": -0.235},
    ]}},
    {"distortion": {"settling_terms": [{"amplitude": -1.0, "time_constant_ns": 10.0}]}},
    {"noise": {"readout": {"f00": [0.993, 0.996], "f11": [0.966]}}},
    {"noise": {"readout": {"f00": [1.5, 0.996], "f11": [0.966, 0.974]}}},
], ids=["no_zero_coupling_point", "negative_frequency", "singular_distortion",
        "readout_f11_shorter_than_f00", "readout_f00_above_one"])
def test_cli_config_refused_by_domain_objects_exit_2(tmp_path, capsys, section):
    # Each passes the schema but is refused when the device, mode,
    # distortion or noise model is built.
    path = _write_cfg(tmp_path, section)
    rc = main(["compensate", "--config", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid_config"


def test_cli_builds_one_gate_context_per_process(tmp_path, monkeypatch):
    built = []
    inverter = czsim.calibration.CouplingInverter

    def counted(*args, **kwargs):
        built.append(1)
        return inverter(*args, **kwargs)

    monkeypatch.setattr(czsim.calibration, "CouplingInverter", counted)
    # A dt no other test uses, so the first run here builds the context.
    path = _write_cfg(tmp_path, {"solver": {"dt_ns": 0.0625}})
    for run in ("a", "b"):
        rc = main(["gate", "--config", str(path), "--peak", "-0.0217399",
                   "--detune", "-0.0138206", "--output-dir", str(tmp_path / run)])
        assert rc == 0
    assert len(built) == 1
    assert (tmp_path / "a" / "gate_report.json").read_text() \
        == (tmp_path / "b" / "gate_report.json").read_text()


def test_default_workers_counts_usable_cpus(monkeypatch):
    monkeypatch.delenv("CZSIM_THREADS", raising=False)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("CZSIM_THREADS", "3")
    assert default_workers() == 3


def test_cli_malformed_threads_fails_only_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CZSIM_THREADS", "abc")
    path = _write_cfg(tmp_path)
    rc = main(["compensate", "--config", str(path), "--output-dir", str(tmp_path / "c"),
               "--points", "3"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "s"),
               "--figure", "fig2b", "--lengths", "45:45:5"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "usage"
    assert "CZSIM_THREADS" in err["error"]["message"]


def test_cli_spb_depth_zero_exit_1(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    rc = main(["spb", "--config", str(path), "--output-dir", str(tmp_path),
               "--depth", "0", "--circuits", "100"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "BenchmarkingError"


def test_cli_optimize_keeps_slepian_coefficients(tmp_path):
    path = _write_cfg(tmp_path)
    rc = main(["optimize", "--config", str(path), "--output-dir", str(tmp_path),
               "--shape", "slepian", "--max-iterations", "10", "--seed", "3"])
    assert rc == 0
    payload = json.loads((tmp_path / "optimized_slepian.json").read_text())
    assert payload["pulse"]["slepian_coefficients"] \
        == DEFAULT_CONFIG["pulse"]["slepian_coefficients"]


def test_cli_sweep_requires_figure(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    rc = main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "usage"


def _write_waveform(tmp_path):
    from czsim.pulses import PulseShapeSpec, sample_pulse, waveform_to_csv

    wf = sample_pulse(PulseShapeSpec("slepian", 40.0, -0.02), dt=0.05)
    path = tmp_path / "wf.csv"
    waveform_to_csv(wf, path)
    return path


def test_cli_predistort_without_model_exit_1(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    wf = _write_waveform(tmp_path)
    rc = main(["predistort", "--config", str(path), "--output-dir", str(tmp_path),
               "--waveform", str(wf)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_cli_gate_direct_point(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["gate", "--config", str(path), "--output-dir", str(out),
               "--peak", "-0.0217399", "--detune", "-0.0138206"])
    assert rc == 0
    report = json.loads((out / "gate_report.json").read_text())
    assert report["meta"]["config_hash"]
    assert report["report"]["fidelity"] > 0.9999
    waveform = out / "fig2a_waveform.csv"
    assert waveform.exists()
    table = np.loadtxt(waveform, delimiter=",", skiprows=0, comments="#")
    assert table.shape[1] >= 2


def test_cli_predistort_round_trip(tmp_path):
    path = _write_cfg(tmp_path, {
        "distortion": {"settling_terms": [{"amplitude": -0.08,
                                           "time_constant_ns": 60.0}]},
    })
    wf_path = _write_waveform(tmp_path)
    out = tmp_path / "out"
    rc = main(["predistort", "--config", str(path), "--output-dir", str(out),
               "--waveform", str(wf_path)])
    assert rc == 0
    from czsim.distortion import DistortionModel, apply_distortion
    from czsim.pulses import waveform_from_csv

    ideal = waveform_from_csv(wf_path)
    corrected = waveform_from_csv(out / "predistorted.csv")
    model = DistortionModel(settling_terms=((-0.08, 60.0),))
    back = apply_distortion(model, corrected).samples
    assert np.max(np.abs(back - ideal.samples)) < 1e-6

    rc = main(["predistort", "--config", str(path), "--output-dir", str(out),
               "--waveform", str(tmp_path / "missing.csv")])
    assert rc == 2


@pytest.mark.parametrize("rows, message", [
    ([(0.0, 6.327)], "at least two rows"),
    ([(0.0, 6.327), (0.05, 6.3), (0.5, 6.3), (0.55, 6.327)], "not on a uniform grid"),
    ([(5.0, 6.327), (5.05, 6.3), (5.1, 6.3), (5.15, 6.327)], "times must start at 0"),
], ids=["one_row", "nonuniform_times", "shifted_origin"])
def test_cli_predistort_refuses_malformed_waveform_exit_1(tmp_path, capsys, rows, message):
    path = _write_cfg(tmp_path, {
        "distortion": {"settling_terms": [{"amplitude": -0.08,
                                           "time_constant_ns": 60.0}]},
    })
    wf_path = tmp_path / "bad.csv"
    wf_path.write_text("# parameterization=coupler_frequency\n# t_ns,value_ghz\n"
                       + "".join(f"{t},{v}\n" for t, v in rows))
    out = tmp_path / "out"
    rc = main(["predistort", "--config", str(path), "--output-dir", str(out),
               "--waveform", str(wf_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "PulseError"
    assert message in err["error"]["message"]
    assert not (out / "predistorted.csv").exists()


def test_cli_compensate_outputs(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["compensate", "--config", str(path), "--output-dir", str(out),
               "--span", "0.4", "--points", "9"])
    assert rc == 0
    csv = out / "fig3_compensation.csv"
    assert csv.exists()
    table = np.loadtxt(csv, delimiter=",", comments="#", skiprows=1)
    assert table.shape == (9, 7)
    # Residuals after compensation are tiny compared to the raw shifts.
    assert np.max(np.abs(table[:, 5:7])) < 1e-5


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_compensate_rejects_point_count_below_one(tmp_path, capsys, points):
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["compensate", "--config", str(path), "--output-dir", str(out),
               "--points", points])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "usage"
    assert not (out / "fig3_compensation.csv").exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_sweep_rejects_grid_points_below_one(tmp_path, capsys, monkeypatch, points):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before validating --grid-points")

    monkeypatch.setattr(czsim.cli, "_calibrated", no_calibration)
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(path), "--output-dir", str(out),
               "--figure", "fig4a", "--grid-points", points])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "usage"
    assert not (out / "fig4a_leakage.csv").exists()


def test_cli_xeb_one_qubit_ignores_use_gate(tmp_path, monkeypatch):
    def no_gate(cfg):
        raise AssertionError("calibrated a CZ for one-qubit circuits")

    monkeypatch.setattr(czsim.cli, "_simulated_cz", no_gate)
    path = _write_cfg(tmp_path, {"benchmarking": {"depths": [2, 4, 6], "n_circuits": 20}})
    outs = []
    for name, flags in (("plain", []), ("gate", ["--use-gate"])):
        out = tmp_path / name
        rc = main(["xeb", "--config", str(path), "--output-dir", str(out),
                   "--qubits", "1"] + flags)
        assert rc == 0
        outs.append((out / "fig5_xeb_1q.json").read_text())
    assert outs[0] == outs[1]


def test_cli_determinism_same_seed(tmp_path):
    path = _write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["gate", "--config", str(path), "--output-dir", str(out),
                   "--peak", "-0.0217", "--detune", "-0.0138", "--seed", "5"])
        assert rc == 0
        outs.append((out / "gate_report.json").read_text())
    assert outs[0] == outs[1]


def test_cli_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "czsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gate", "sweep", "optimize", "xeb", "spb", "predistort",
                "compensate"):
        assert sub in proc.stdout


def test_parser_common_flags():
    parser = build_parser()
    args = parser.parse_args(["xeb", "--qubits", "1", "--seed", "3"])
    assert args.qubits == 1
    assert args.seed == 3
