"""czsim benchmark: run one workload under a seed and print its metrics.

    python3 czbench/run.py --workload calibrate|scan|xeb_spb --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; czsim is imported from its `src/`.  The
run times one cold set-up from the process's start, then repeats whole
rounds of the workload's czsim commands until S seconds have passed, then
checks the last round's outputs (see README.md).  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
which are the end-to-end metrics with --trace 0 and the per-layer metrics
(from a traced run) with --trace 1.  Outputs of czsim go to
`.czbench/out/`, a record of the run with the host's facts to
`.czbench/runs/`, and the spans of a traced run to `.czbench/traces/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("calibrate", "scan", "xeb_spb")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stage1_per_s": "1/s",
    "stage2_per_s": "1/s",
}

# Per-layer metrics printed by a traced run: calls and self time of these
# traced functions, plus the counters below.
TRACED = (
    "config.load_config", "device.dressed_basis", "device.effective_coupling_batch",
    "device.build_hamiltonian", "calibration.compensation_curve",
    "calibration.dressed_qubit_transitions", "pulses.CouplingInverter",
    "pulses.invert_values", "pulses.sample_pulse", "calibration.GateContext",
    "calibration.build_schedule", "propagator.propagate", "metrics.gate_report",
    "metrics.project_computational", "metrics.leakage_from_11", "metrics.fit_virtual_z",
    "metrics.nelder_mead_minimize", "calibration.calibrate_cz",
    "calibration.calibrated_length_sweep", "calibration.leakage_scan",
    "calibration.phase_scan", "calibration.repeated_gate_scan",
    "benchmarking.cz_xeb_pipeline", "benchmarking.generate_circuit",
    "benchmarking.simulate_circuit", "benchmarking.linear_xeb_fidelity",
    "benchmarking.fit_decay", "benchmarking.speckle_purity_experiment",
    "benchmarking.batch_random_labels", "benchmarking.batch_ideal_probs",
    "benchmarking.speckle_purity", "cli.main",
)
COUNTED = {
    "propagator.eigh.matrices": "count",
    "propagator.eigh.flops": "flop",
    "propagator.distinct_substeps": "count",
    "metrics.virtual_z_simplex_evals": "count",
    "calibration.gate_evaluations": "count",
    "calibration.coarse_grid_evals": "count",
    "calibration.simplex_evals": "count",
    "calibration.rejected_points": "count",
    "calibration.propagations_per_scan_point": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTED)
    return units


# The machine probe's time at the reference speed the stage rates are given at.
PROBE_REFERENCE_S = 0.2


class MachineProbe:
    """A fixed mix of work that calls no czsim code, timed between stages.

    A shared machine's speed can drift by ~1.7x for minutes at a time (see
    README.md).  The probe slows with it, so each stage time is divided by
    the mean of the probe times just before and after it, and the stage
    rates are given at the speed where the probe takes PROBE_REFERENCE_S.
    The mix follows the workloads: batched small `eigh`, a Python loop of
    4x4 products, a vectorized `einsum` and pure interpreter work.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((400, 6, 6))
        self.symmetric = a + a.transpose(0, 2, 1)
        self.small = rng.standard_normal((50, 4, 4)) + 0j
        self.batch = rng.standard_normal((20000, 4, 4))
        self.vectors = rng.standard_normal((20000, 4))
        self()    # the first call is slower

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(16):
            np.linalg.eigh(self.symmetric)
        x = self.small[0]
        for k in range(12_000):
            x = self.small[k % 50] @ x
            x = x / np.abs(x).max()
        for _ in range(12):
            np.einsum("nij,nj->ni", self.batch, self.vectors)
        total = 0
        for k in range(800_000):
            total += k * k
        return time.perf_counter() - start


class Timeline:
    """Probe marks between pieces of work, and the time of the work between them.

    A stage's time is the sum of its segments between consecutive marks, with
    the probes left out; its scaled time divides each segment by the mean of
    the two probe times at its ends.  Marks inside a long stage let the
    scaling follow drift within it.
    """

    def __init__(self, probe: MachineProbe):
        self.probe = probe
        self.marks = []       # (probe start, probe end)

    def mark(self) -> None:
        start = time.perf_counter()
        self.probe()
        self.marks.append((start, time.perf_counter()))

    def since(self, first: int) -> tuple[float, float]:
        """Raw and scaled time from mark `first` to the last mark."""
        raw = scaled = 0.0
        for (a0, a1), (b0, b1) in zip(self.marks[first:], self.marks[first + 1:]):
            raw += b0 - a1
            scaled += (b0 - a1) / (0.5 * ((a1 - a0) + (b1 - b0)))
        return raw, scaled


def process_age_s() -> float:
    """Seconds since this process started (the kernel's start time, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "blas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "isolation": "none: no CPU isolation, no frequency pinning",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "czsim" / "__init__.py").is_file():
        print(f"czbench: no czsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import czsim
    if Path(czsim.__file__).resolve().parent != (src / "czsim").resolve():
        print(f"czbench: czsim imported from {czsim.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    state = ROOT / ".czbench"
    out = state / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    workload = workloads.WORKLOADS[args.workload](out, args.seed)
    workload.setup()
    setup_s = process_age_s()

    if tracer:
        tracer.phase = "round"
    timeline = Timeline(MachineProbe())
    if not tracer:
        workload.mark = timeline.mark     # marks inside long stages
    stages = []           # per round: ((raw, scaled) of stage 1, of stage 2)
    fingerprints = set()
    start = time.perf_counter()
    timeline.mark()
    while True:
        times = []
        for stage in (workload.stage1, workload.stage2):
            first = len(timeline.marks) - 1
            stage()
            timeline.mark()
            times.append(timeline.since(first))
        stages.append(tuple(times))
        fingerprints.add(workload.fingerprint())
        if time.perf_counter() - start >= args.seconds:
            break
    window_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.enabled = False

    problems, failed_per_round = workload.check()
    if len(fingerprints) != 1:
        problems.append(f"rounds produced {len(fingerprints)} different sets of outputs")
    rounds = len(stages)
    # Median scaled stage times, in seconds at the probe's reference speed.
    scaled_s = [statistics.median(s[k][1] for s in stages) * PROBE_REFERENCE_S for k in (0, 1)]

    if tracer:
        layers = tracer.per_layer(rounds)
        points = workload.scan_points
        layers["calibration.propagations_per_scan_point"] = (
            layers["calibration.scan_propagations"] / points if points else 0.0)
        problems += workload.count_problems(layers)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "stage1_per_s": workload.stage_ops[0] / scaled_s[0],
            "stage2_per_s": workload.stage_ops[1] / scaled_s[1],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {
        "correct": not problems,
        "attempted": rounds * sum(workload.stage_ops),
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(), "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb, "rounds": rounds, "window_s": window_s,
        "stage_raw_and_scaled_s": stages,
        "probe_s": [b - a for a, b in timeline.marks], "stage_ops": workload.stage_ops,
        "raw_per_s": [workload.stage_ops[k] / statistics.median(s[k][0] for s in stages)
                      for k in (0, 1)],
        "problems": problems,
        "result": result,
    }
    (state / "runs").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (state / "runs" / f"{name}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (state / "traces").mkdir(exist_ok=True)
        tracer.write(state / "traces" / f"{name}.jsonl.gz")
    for problem in problems:
        print(f"czbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
