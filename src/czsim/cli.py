"""Command-line front end.

czsim <gate|sweep|optimize|xeb|spb|predistort|compensate> --config <file>

Each command loads and validates the JSON config, runs the corresponding
pipeline, and writes JSON/CSV artifacts named after the figure they
reproduce.  Every output carries a header block with the toolkit version,
config hash, and seed, and repeated runs with identical (config, seed)
produce identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarking import (
    cz_xeb_pipeline,
    depolarized_purity_oracle,
    speckle_purity_experiment,
    virtual_z_corrected_cz,
)
from .calibration import (
    GateContext,
    ScanGrid,
    calibrate_cz,
    calibrated_length_sweep,
    compensation_curve,
    dressed_qubit_transitions,
    leakage_scan,
    phase_scan,
    repeated_gate_scan,
)
from .config import ConfigError, RunConfig, load_config
from .device import DeviceModelError, build_hamiltonian
from .distortion import apply_distortion, predistort
from .metrics import nelder_mead_minimize
from .pulses import waveform_from_csv, waveform_to_csv

SWEEP_FIGURES = ("fig2b", "fig4a", "fig4b", "fig4c", "fig4d")

USAGE_EXIT = 2
ERROR_EXIT = 1


class UsageError(ValueError):
    def __init__(self, message: str, kind: str = "usage"):
        super().__init__(message)
        self.kind = kind


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def default_workers() -> int:
    """CZSIM_THREADS if set, else the number of CPUs this process may run on."""
    env = os.environ.get("CZSIM_THREADS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise UsageError(f"CZSIM_THREADS must be an integer, not {env!r}") from None
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


def parallel_map(fn, items, workers: int):
    """Map fn over items with a process pool; merge is index-ordered so
    results are deterministic regardless of worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    doc = {"meta": cfg.meta()}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")


_gate_context = functools.cache(GateContext)


def _context(cfg: RunConfig) -> GateContext:
    """The process's one GateContext per (device, dt, compensate, distortion)."""
    return _gate_context(cfg.device, cfg.dt, cfg.compensate, cfg.distortion)


def _calibrated(cfg: RunConfig, ctx: GateContext, pulse):
    """Calibrated (pulse, q2_detune, report); seeds from the config when present.

    The square family's fidelity landscape is fringed and its optimum sits
    in a different basin than the smooth families', so config seeds are
    ignored for it and the coarse search always runs.
    """
    seed_peak = pulse.peak_value if pulse.peak_value != 0.0 else None
    seed_detune = cfg.q2_detune
    if seed_detune is None or pulse.family == "square":
        seed_peak = seed_detune = None  # coarse search for both knobs
    return calibrate_cz(ctx, pulse, seed_peak=seed_peak, seed_detune=seed_detune)


def _pulse_dict(pulse) -> dict:
    return {
        "family": pulse.family,
        "length_ns": pulse.length,
        "peak_value": pulse.peak_value,
        "slepian_coefficients": list(pulse.slepian_coefficients),
    }


# ---------------------------------------------------------------- gate

def cmd_gate(cfg: RunConfig, args) -> int:
    pulse = cfg.pulse
    if args.shape:
        pulse = replace(pulse, family=args.shape)
    if args.length_ns:
        pulse = replace(pulse, length=args.length_ns)
    if args.peak is not None:
        pulse = replace(pulse, peak_value=args.peak)

    ctx = _context(cfg)
    if args.peak is not None and args.detune is not None:
        detune = args.detune
        report = ctx.report(pulse, detune)
    else:
        pulse, detune, report = _calibrated(cfg, ctx, pulse)

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "gate_report.json", cfg, {
        "pulse": _pulse_dict(pulse),
        "q2_detune_ghz": detune,
        "report": report.to_dict(),
    })
    schedule = ctx.build_schedule(pulse, detune)
    waveform_to_csv(schedule.coupler_trajectory, out / "fig2a_waveform.csv",
                    header_lines=cfg.header_lines())
    print(f"gate: family={pulse.family} length={pulse.length} ns "
          f"fidelity={report.fidelity:.6f} leakage={report.leakage_from_11:.2e}")
    return 0


# ---------------------------------------------------------------- sweep

def _fig2b_family(task):
    cfg, family, lengths, calibration_length = task
    ctx = _context(cfg)
    pulse = replace(cfg.pulse, family=family)
    records = calibrated_length_sweep(ctx, pulse, lengths,
                                      seed_length=calibration_length)
    return [rec["leakage"] for rec in records]


def _parse_lengths(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad --lengths {text!r}; expected min:max:step") from exc
    if step <= 0 or hi < lo:
        raise UsageError(f"bad --lengths {text!r}; need min <= max and step > 0")
    return np.arange(lo, hi + 0.5 * step, step)


def _sweep_fig2b(cfg: RunConfig, args, out: Path) -> None:
    workers = default_workers() if args.workers is None else args.workers
    lengths = _parse_lengths(args.lengths or "20:80:5")
    families = ("square", "slepian", "cosine")
    tasks = [(cfg, family, list(map(float, lengths)), args.calibration_length)
             for family in families]
    curves = parallel_map(_fig2b_family, tasks, workers)
    columns = dict(zip(families, curves))
    table = np.column_stack([lengths] + [columns[f] for f in families])
    header = "\n".join(cfg.header_lines() + ["columns=length_ns," + ",".join(families)])
    np.savetxt(out / "fig2b_leakage.csv", table, delimiter=",",
               header=header, comments="# ", fmt="%.12g")


def _sweep_fig4(cfg: RunConfig, args, out: Path, figure: str, cal) -> None:
    ctx, pulse, detune = cal
    peak = pulse.peak_value

    if figure in ("fig4a", "fig4b"):
        n = args.grid_points
        couplings = tuple(peak + np.linspace(-0.004, 0.004, n))
        detunes = tuple(detune + np.linspace(-0.010, 0.010, n))
        grid = ScanGrid(coupling_axis=couplings, detune_axis=detunes)
        if figure == "fig4a":
            result = leakage_scan(ctx, grid, pulse)
            name = "fig4a_leakage.csv"
        else:
            result = phase_scan(ctx, grid, pulse)
            name = "fig4b_phase.csv"
        result.to_csv(out / name, np.asarray(couplings), np.asarray(detunes),
                      header_lines=cfg.header_lines())
    else:
        n_list = tuple(range(1, args.max_gates + 1, 2))
        axis = peak + np.linspace(-0.002, 0.002, args.grid_points)
        leak, deviation = repeated_gate_scan(ctx, pulse, n_list, axis,
                                             axis="coupling", q2_detune=detune)
        result = leak if figure == "fig4c" else deviation
        name = "fig4c_repeat_leakage.csv" if figure == "fig4c" else "fig4d_repeat_phase.csv"
        result.to_csv(out / name, axis, np.asarray(n_list, dtype=float),
                      header_lines=cfg.header_lines())


def cmd_sweep(cfg: RunConfig, args) -> int:
    if not args.figure:
        raise UsageError("sweep requires --figure " + "|".join(SWEEP_FIGURES))
    if args.grid_points < 1 and set(args.figure) - {"fig2b"}:
        raise UsageError(f"--grid-points must be at least 1, not {args.grid_points}")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    cal = None
    for figure in args.figure:
        if figure == "fig2b":
            _sweep_fig2b(cfg, args, out)
        else:
            if cal is None:
                ctx = _context(cfg)
                pulse, detune, _ = _calibrated(cfg, ctx, cfg.pulse)
                cal = (ctx, pulse, detune)
            _sweep_fig4(cfg, args, out, figure, cal)
        print(f"sweep: wrote {figure} data to {out}")
    return 0


# ---------------------------------------------------------------- optimize

def cmd_optimize(cfg: RunConfig, args) -> int:
    family = args.shape or cfg.pulse.family
    length_bounds = (args.min_length, args.max_length)
    if length_bounds[0] >= length_bounds[1]:
        raise UsageError("need --min-length < --max-length")
    ctx = _context(cfg)

    start = replace(cfg.pulse, family=family, length=args.start_length)
    start, detune, _ = _calibrated(cfg, ctx, start)

    def make_pulse(x):
        return replace(start, peak_value=float(x[0]), length=float(x[1]))

    def objective(x):
        if not (length_bounds[0] <= x[1] <= length_bounds[1]):
            return 1.0
        try:
            return 1.0 - ctx.report(make_pulse(x), float(x[2])).fidelity
        except (ValueError, DeviceModelError):
            return 1.0

    point, value, converged = nelder_mead_minimize(
        objective, [start.peak_value, start.length, detune], [0.001, 4.0, 0.002],
        value_tol=1e-12, max_iterations=args.max_iterations)
    if value >= 1.0:
        raise UsageError("bounds exclude any viable pulse", kind="no_viable_pulse")

    best = make_pulse(point)
    report = ctx.report(best, float(point[2]))
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"optimized_{family}.json", cfg, {
        "pulse": _pulse_dict(best),
        "q2_detune_ghz": float(point[2]),
        "converged": bool(converged),
        "report": report.to_dict(),
    })
    schedule = ctx.build_schedule(best, float(point[2]))
    waveform_to_csv(schedule.coupler_trajectory, out / f"fig2a_{family}_waveform.csv",
                    header_lines=cfg.header_lines())
    if not converged:
        print("optimize: warning: iteration cap reached; best-found reported")
    print(f"optimize: family={family} length={best.length:.2f} ns "
          f"fidelity={report.fidelity:.6f}")
    return 0


# ---------------------------------------------------------------- xeb / spb

def _simulated_cz(cfg: RunConfig) -> np.ndarray:
    ctx = _context(cfg)
    _, _, report = _calibrated(cfg, ctx, cfg.pulse)
    return virtual_z_corrected_cz(report.projected_map, report.fitted_angles)


def cmd_xeb(cfg: RunConfig, args) -> int:
    # One-qubit circuits hold no CZ, so only --qubits 2 uses the device gate.
    cz_gate = _simulated_cz(cfg) if args.use_gate and args.qubits == 2 else None
    run = cz_xeb_pipeline(cz_gate=cz_gate, noise=cfg.noise, depths=cfg.depths,
                          n_circuits=cfg.n_circuits, seed=cfg.seed,
                          n_qubits=args.qubits, shots=cfg.shots)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    suffix = "1q" if args.qubits == 1 else "2q"
    _write_json(out / f"fig5_xeb_{suffix}.json", cfg, {"xeb": run.to_dict()})
    table = np.column_stack([
        np.asarray(run.depths, dtype=float),
        np.asarray(run.per_depth_fidelity),
        np.asarray(run.per_depth_purity),
    ])
    header = "\n".join(cfg.header_lines() + ["columns=depth,mean_xeb_fidelity,mean_purity"])
    np.savetxt(out / f"fig5_xeb_{suffix}_curves.csv", table, delimiter=",",
               header=header, comments="# ", fmt="%.12g")
    print(f"xeb: cycle fidelity {run.cycle_fidelity:.5f}, "
          f"purity fidelity {run.cycle_purity_fidelity:.5f}")
    return 0


def cmd_spb(cfg: RunConfig, args) -> int:
    p = cfg.noise.depolarizing_per_cycle
    purity, purity_fidelity = speckle_purity_experiment(
        n_qubits=args.qubits, depth=args.depth, n_circuits=args.circuits,
        depolarizing_per_cycle=p, seed=cfg.seed)
    oracle = depolarized_purity_oracle(args.depth, p, dimension=2 ** args.qubits)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "fig5c_spb.json", cfg, {
        "spb": {
            "n_qubits": args.qubits,
            "depth": args.depth,
            "n_circuits": args.circuits,
            "depolarizing_per_cycle": p,
            "purity": purity,
            "purity_fidelity": purity_fidelity,
            "oracle_purity": oracle,
        }
    })
    print(f"spb: purity {purity:.5f} (oracle {oracle:.5f})")
    return 0


# ---------------------------------------------------------------- predistort / compensate

def cmd_predistort(cfg: RunConfig, args) -> int:
    if cfg.distortion is None:
        raise ValueError("no distortion model in config")
    if not Path(args.waveform).exists():
        raise UsageError(f"waveform file not found: {args.waveform}",
                         kind="waveform_not_found")
    ideal = waveform_from_csv(args.waveform)
    corrected = predistort(cfg.distortion, ideal)
    round_trip = apply_distortion(cfg.distortion, corrected)
    scale = max(float(np.max(np.abs(ideal.samples))), 1e-30)
    err = float(np.max(np.abs(round_trip.samples - ideal.samples))) / scale
    out = Path(args.output) if args.output else cfg.output_dir / "predistorted.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    waveform_to_csv(corrected, out, header_lines=cfg.header_lines())
    print(f"predistort: wrote {out}; round-trip max relative error {err:.3e}")
    if err >= 1e-6:
        raise ValueError(f"round-trip error {err:.3e} exceeds 1e-6")
    return 0


def cmd_compensate(cfg: RunConfig, args) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, not {args.points}")
    terms = build_hamiltonian(cfg.device)
    wc_idle = cfg.device.coupler.frequency
    wcs = np.linspace(wc_idle - args.span, wc_idle, args.points)
    curve = compensation_curve(cfg.device, wcs, terms=terms)
    ref1, ref2 = dressed_qubit_transitions(terms, wc_idle)
    rows = []
    for wc, dq1, dq2 in curve:
        t1_raw, t2_raw = dressed_qubit_transitions(terms, wc)
        t1_fix, t2_fix = dressed_qubit_transitions(terms, wc, dq1, dq2)
        rows.append([wc, t1_raw - ref1, t2_raw - ref2, dq1, dq2,
                     t1_fix - ref1, t2_fix - ref2])
    header = "\n".join(cfg.header_lines() + [
        "columns=wc_ghz,q1_shift_ghz,q2_shift_ghz,q1_offset_ghz,q2_offset_ghz,"
        "q1_residual_ghz,q2_residual_ghz"
    ])
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "fig3_compensation.csv", np.asarray(rows), delimiter=",",
               header=header, comments="# ", fmt="%.12g")
    print(f"compensate: wrote fig3_compensation.csv ({args.points} points)")
    return 0


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="czsim",
                                     description="CZ gate simulation and calibration toolkit")
    parser.add_argument("--version", action="version", version=f"czsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--output-dir", help="override config output_dir")
        p.add_argument("--seed", type=int, help="override config seed")
        p.set_defaults(fn=fn)
        return p

    p = add("gate", cmd_gate, help="simulate (and calibrate) a single CZ gate")
    p.add_argument("--shape", choices=("square", "slepian", "cosine"))
    p.add_argument("--length-ns", type=float)
    p.add_argument("--peak", type=float, help="peak effective coupling (GHz); skips calibration "
                                              "when --detune is also given")
    p.add_argument("--detune", type=float, help="Q2 detune (GHz)")

    p = add("sweep", cmd_sweep, help="figure-analog sweeps and scans")
    p.add_argument("--figure", action="append", choices=SWEEP_FIGURES)
    p.add_argument("--lengths", help="length sweep as min:max:step in ns (fig2b)")
    p.add_argument("--calibration-length", type=float, default=45.0)
    p.add_argument("--grid-points", type=int, default=17)
    p.add_argument("--max-gates", type=int, default=15)
    p.add_argument("--workers", type=int, help="fig2b processes (default: CZSIM_THREADS or CPUs)")

    p = add("optimize", cmd_optimize, help="optimize pulse parameters for fidelity")
    p.add_argument("--shape", choices=("square", "slepian", "cosine"))
    p.add_argument("--start-length", type=float, default=45.0)
    p.add_argument("--min-length", type=float, default=20.0)
    p.add_argument("--max-length", type=float, default=80.0)
    p.add_argument("--max-iterations", type=int, default=150)

    p = add("xeb", cmd_xeb, help="cross-entropy benchmarking")
    p.add_argument("--qubits", type=int, choices=(1, 2), default=2)
    p.add_argument("--use-gate", action="store_true",
                   help="benchmark the simulated calibrated gate instead of ideal CZ")

    p = add("spb", cmd_spb, help="speckle purity benchmarking")
    p.add_argument("--qubits", type=int, choices=(1, 2), default=2)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--circuits", type=int, default=20000)

    p = add("predistort", cmd_predistort, help="predistort a waveform CSV")
    p.add_argument("--waveform", required=True)
    p.add_argument("--output")

    p = add("compensate", cmd_compensate, help="qubit-frequency compensation curve")
    p.add_argument("--span", type=float, default=0.7, help="coupler sweep span below idle (GHz)")
    p.add_argument("--points", type=int, default=41)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    overrides = {}
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_config(args.config, overrides=overrides or None)
    except FileNotFoundError as exc:
        _emit_error("config_not_found", str(exc))
        return USAGE_EXIT
    except ConfigError as exc:
        _emit_error("invalid_config", str(exc))
        return USAGE_EXIT

    try:
        return args.fn(cfg, args)
    except UsageError as exc:
        _emit_error(exc.kind, str(exc))
        return USAGE_EXIT
    except (ValueError, RuntimeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
