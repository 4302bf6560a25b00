"""The benchmark's workloads.

Each workload has a set-up (shared by all: load the config, build a
GateContext and its first schedule, which builds the g_eff inverter and the
compensation table), a round of czsim commands in two stages that the
runner times, and checks of the last round's outputs.  Every round repeats
the same commands on the same inputs; `fingerprint` lets the runner confirm
that every round produced the same outputs.

czsim functions are always looked up through their module at call time, so
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from czsim import benchmarking, calibration, cli, config

import checks
import reference

# Operating point of the 45 ns slepian CZ that the CLI determinism
# criterion pins; the scan workload scans around it without calibrating.
PINNED_PEAK = -0.0217399
PINNED_DETUNE = -0.0138206


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    stage_ops = (0, 0)    # operations per round in stage 1 and stage 2
    scan_points = 0       # distinct (peak, detune) points the scans ask for per round

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.seed = seed
        self.cfg = None
        self.ctx = None

    def config_path(self) -> Path | None:
        return None

    def setup(self) -> None:
        path = self.config_path()
        self.cfg = config.load_config(path, overrides={"seed": self.seed,
                                                       "output_dir": str(self.out)})
        self.ctx = calibration.GateContext(self.cfg.device, dt=self.cfg.dt,
                                           compensate=self.cfg.compensate,
                                           distortion=self.cfg.distortion)
        self.ctx.build_schedule(self.cfg.pulse, self.cfg.q2_detune or 0.0)

    def _cli(self, *argv: str) -> None:
        rc = cli.main(list(argv) + ["--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"czsim {' '.join(argv)} exited with {rc}")

    def mark(self) -> None:
        """Called between pieces of a long stage; the runner replaces it."""

    def count_problems(self, per_layer: dict) -> list[str]:
        """Traced counts that differ from the totals implied by the inputs."""
        return []


class Calibrate(Workload):
    """Three `czsim gate` calibrations, then a fig2b length sweep."""

    name = "calibrate"
    families = ("slepian", "cosine", "square")
    ladder = "45:50:5"
    lengths = (45.0, 50.0)
    stage_ops = (3, 3 * 2)
    mark_every = 40       # gate evaluations (~2 s) between machine probes

    def setup(self) -> None:
        super().setup()
        self._sweeps = []
        self._contexts = []
        sweep = cli.calibrated_length_sweep
        make_context = cli._context
        report = calibration.GateContext.report
        evaluations = itertools.count(1)

        def captured_sweep(ctx, pulse, lengths, *args, **kwargs):
            records = sweep(ctx, pulse, lengths, *args, **kwargs)
            self._sweeps.append((pulse.family, records))
            return records

        def marked_report(ctx, *args, **kwargs):
            try:
                return report(ctx, *args, **kwargs)
            finally:
                if next(evaluations) % self.mark_every == 0:
                    self.mark()

        def captured_context(cfg):
            ctx = make_context(cfg)
            self._contexts.append(ctx)
            return ctx

        # fig2b writes only the leakage column, so keep the records it was
        # built from.  Keep each command's GateContext too: its compensation
        # table depends on the schedules it built before, so the reference
        # must take the schedule from the same context.  Run the machine
        # probe every `mark_every` gate evaluations, so that its scaling
        # follows drift inside the long calibrations.
        cli.calibrated_length_sweep = captured_sweep
        cli._context = captured_context
        calibration.GateContext.report = marked_report

    def stage1(self) -> None:
        self._contexts = []
        for family in self.families:
            self._cli("gate", "--shape", family, "--output-dir", str(self.out / f"gate-{family}"))

    def stage2(self) -> None:
        self._sweeps = []
        self._cli("sweep", "--figure", "fig2b", "--workers", "1", "--lengths", self.ladder,
                  "--output-dir", str(self.out / "fig2b"))

    def fingerprint(self) -> str:
        files = [self.out / f"gate-{f}" / "gate_report.json" for f in self.families]
        return _digest(files + [self.out / "fig2b" / "fig2b_leakage.csv"]) + repr(self._sweeps)

    def records(self) -> list[dict]:
        """Gate records first (one per family), then the fig2b records."""
        out = []
        for family in self.families:
            doc = json.loads((self.out / f"gate-{family}" / "gate_report.json").read_text())
            rep = doc["report"]
            out.append({"source": f"gate {family}", "family": family,
                        "length": doc["pulse"]["length_ns"],
                        "peak_value": doc["pulse"]["peak_value"],
                        "q2_detune": doc["q2_detune_ghz"], "fidelity": rep["fidelity"],
                        "leakage": rep["leakage_from_11"],
                        "conditional_phase_deg": rep["conditional_phase_deg"]})
        for family, records in self._sweeps:
            for rec in records:
                out.append({"source": f"fig2b {family} {rec['length']:g} ns",
                            "family": family, **rec})
        return out

    def check(self) -> tuple[list[str], int]:
        problems = []
        records = self.records()
        if len(records) != sum(self.stage_ops):
            problems.append(f"calibrate: {len(records)} records, expected {sum(self.stage_ops)}")
        failed = 0
        for rec in records:
            if checks.phase_problems(rec["source"], rec["conditional_phase_deg"]):
                failed += 1
            if rec["family"] != "square":
                problems += checks.smooth_gate_problems(rec["source"], rec)

        # The CSV holds the sweep's leakage values.
        table = np.atleast_2d(_read_csv(self.out / "fig2b" / "fig2b_leakage.csv"))
        columns = {"square": 1, "slepian": 2, "cosine": 3}
        if not np.allclose(table[:, 0], self.lengths, rtol=0, atol=1e-9):
            problems.append(f"fig2b: length column {table[:, 0]}")
        for family, recs in self._sweeps:
            leak = np.array([r["leakage"] for r in recs])
            if not np.allclose(table[:, columns[family]], leak, rtol=1e-10, atol=0):
                problems.append(f"fig2b: {family} CSV column differs from the sweep's records")

        # Dense reference: each family's gate record and one fig2b record per
        # family chosen by the seed, each with the context that computed it.
        rng = np.random.default_rng(self.seed)
        gates = len(self.families)
        chosen = list(zip(records[:gates], self._contexts[:gates]))
        per_family = len(self.lengths)
        for k, ctx in enumerate(self._contexts[gates:]):
            chosen.append((records[gates + k * per_family + int(rng.integers(per_family))], ctx))
        model = reference.DenseModel.from_device(self.cfg.device)
        for rec, ctx in chosen:
            pulse = replace(self.cfg.pulse, family=rec["family"], length=rec["length"],
                            peak_value=rec["peak_value"])
            schedule = ctx.build_schedule(pulse, rec["q2_detune"])
            u = model.propagate_schedule(schedule, self.cfg.device.coupler.frequency)
            problems += checks.reference_problems(rec["source"], rec, model.gate_metrics(u))
        return problems, failed


class Scan(Workload):
    """The fig4a-fig4d scans of `czsim sweep`, at the pinned operating point."""

    name = "scan"
    grid_points = 5
    max_gates = 15
    stage_ops = (grid_points ** 2, grid_points)
    scan_points = grid_points ** 2 + grid_points

    def setup(self) -> None:
        super().setup()
        self.out.mkdir(parents=True, exist_ok=True)
        self.args = cli.build_parser().parse_args(
            ["sweep", "--figure", "fig4a", "--grid-points", str(self.grid_points),
             "--max-gates", str(self.max_gates), "--workers", "1"])
        self.pulse = replace(self.cfg.pulse, peak_value=PINNED_PEAK)

    def stage1(self) -> None:
        # As `czsim sweep --figure fig4a ... --figure fig4d` after its
        # calibration: one GateContext, then each figure's scan.
        self._cal = (cli._context(self.cfg), self.pulse, PINNED_DETUNE)
        cli._sweep_fig4(self.cfg, self.args, self.out, "fig4a", self._cal)
        self.mark()
        cli._sweep_fig4(self.cfg, self.args, self.out, "fig4b", self._cal)

    def stage2(self) -> None:
        cli._sweep_fig4(self.cfg, self.args, self.out, "fig4c", self._cal)
        cli._sweep_fig4(self.cfg, self.args, self.out, "fig4d", self._cal)

    def _files(self):
        return [self.out / name for name in ("fig4a_leakage.csv", "fig4b_phase.csv",
                                             "fig4c_repeat_leakage.csv", "fig4d_repeat_phase.csv")]

    def fingerprint(self) -> str:
        return _digest(self._files())

    def check(self) -> tuple[list[str], int]:
        problems = []
        n = self.grid_points
        leak_t, phase_t, rleak_t, rdev_t = (_read_csv(p) for p in self._files())
        couplings = PINNED_PEAK + np.linspace(-0.004, 0.004, n)
        detunes = PINNED_DETUNE + np.linspace(-0.010, 0.010, n)
        axis = PINNED_PEAK + np.linspace(-0.002, 0.002, n)
        n_list = np.arange(1, self.max_gates + 1, 2)
        for label, table, rows, cols in (("fig4a", leak_t, couplings, detunes),
                                         ("fig4b", phase_t, couplings, detunes),
                                         ("fig4c", rleak_t, axis, n_list),
                                         ("fig4d", rdev_t, axis, n_list)):
            if table.shape != (len(rows) + 1, len(cols) + 1) \
                    or not np.allclose(table[1:, 0], rows, rtol=0, atol=1e-12) \
                    or not np.allclose(table[0, 1:], cols, rtol=0, atol=1e-12):
                problems.append(f"{label}: axes differ from the requested grid")
                return problems, 0
        leak, phase = leak_t[1:, 1:], phase_t[1:, 1:]
        problems += checks.on_target_problems(leak, phase)

        # Sampled points against the dense reference: the centre (the pinned
        # point, also the centre of the fig4c/fig4d axis) and one grid point
        # chosen by the seed.  Schedules come from the round's context, whose
        # compensation table was built for the first (lowest) scan point.
        ctx = self._cal[0]
        model = reference.DenseModel.from_device(self.cfg.device)
        centre = n // 2
        k = int(np.random.default_rng(self.seed).integers(n * n - 1))
        k += k >= centre * n + centre
        for i, j in ((centre, centre), divmod(k, n)):
            pulse = replace(self.pulse, peak_value=couplings[i])
            schedule = ctx.build_schedule(pulse, detunes[j])
            u = calibration.propagate(ctx.terms, schedule, basis=ctx.basis).propagator
            u_ref = model.propagate_schedule(schedule, self.cfg.device.coupler.frequency)
            name = f"scan point ({couplings[i]:.6f}, {detunes[j]:.6f})"
            problems += checks.propagator_problems(name, u, u_ref, model.excitation)
            ref = model.gate_metrics(u_ref)
            reported = {"leakage": leak[i, j], "conditional_phase_deg": phase[i, j]}
            problems += checks.reference_problems(name, reported, ref)
            if (i, j) == (centre, centre):
                one_gate = {"leakage": rleak_t[1 + centre, 1],
                            "conditional_phase_deg": rdev_t[1 + centre, 1] + 180.0}
                problems += checks.reference_problems("fig4c/fig4d N=1", one_gate, ref)

        # Error amplification: a 2 MHz Q2 detune error on the pinned gate.
        gates = [1, 3, 5, 7, 9, 11, 13]
        _, dev = calibration.repeated_gate_scan(self.ctx, self.pulse, gates,
                                                axis_values=[PINNED_DETUNE + 2e-3],
                                                axis="detune")
        problems += checks.amplification_problems(gates, dev.values[0])
        return problems, 0

    def count_problems(self, per_layer: dict) -> list[str]:
        expected = 2 * self.grid_points ** 2 + 2 * self.grid_points
        return checks.count_problems("propagator.propagate.calls",
                                     per_layer["propagator.propagate.calls"], expected)


class XebSpb(Workload):
    """`czsim xeb` and `czsim spb` at the paper's error per cycle."""

    name = "xeb_spb"
    p_cycle = 0.0035
    xeb_circuits = 200
    depths = (1, 3, 5, 8, 12, 17, 23, 30)   # czsim's default ladder
    spb_depth = 20
    spb_circuits = 100_000
    stage_ops = (len(depths) * xeb_circuits, spb_circuits)

    def config_path(self) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / "xeb_spb_config.json"
        path.write_text(json.dumps({
            "version": 1,
            "noise": {"depolarizing_per_cycle": self.p_cycle},
            "benchmarking": {"n_circuits": self.xeb_circuits, "depths": list(self.depths)},
        }))
        return path

    def stage1(self) -> None:
        self._cli("xeb", "--config", str(self.out / "xeb_spb_config.json"),
                  "--output-dir", str(self.out))

    def stage2(self) -> None:
        self._cli("spb", "--config", str(self.out / "xeb_spb_config.json"),
                  "--depth", str(self.spb_depth), "--circuits", str(self.spb_circuits),
                  "--output-dir", str(self.out))

    def fingerprint(self) -> str:
        return _digest([self.out / "fig5_xeb_2q.json", self.out / "fig5c_spb.json"])

    def check(self) -> tuple[list[str], int]:
        problems = []
        xeb = json.loads((self.out / "fig5_xeb_2q.json").read_text())["xeb"]
        spb = json.loads((self.out / "fig5c_spb.json").read_text())["spb"]
        problems += checks.xeb_problems(xeb["cycle_fidelity"], self.p_cycle)
        problems += checks.spb_problems(
            spb["purity"], reference.depolarized_purity(self.p_cycle, self.spb_depth),
            self.p_cycle, self.spb_depth, self.spb_circuits)

        # The batched SPB path against a statevector from the gate labels.
        names = benchmarking.GATE_NAMES
        labels = benchmarking.batch_random_labels(64, self.spb_depth, 2, self.seed)
        if labels.min() < 0 or labels.max() >= len(names) or np.any(labels[1:] == labels[:-1]):
            problems.append("batch_random_labels: label out of range or repeated on a qubit")
        probs = benchmarking.batch_ideal_probs(labels)
        ref = np.array([reference.circuit_probs([(names[a], names[b]) for a, b in labels[:, c]])
                        for c in range(labels.shape[1])])
        problems += checks.probs_problems("batch_ideal_probs", probs, ref)

        # The per-circuit XEB path, ideal and noisy, on a few circuits.
        readout = self.cfg.raw["noise"]["readout"]
        rng = np.random.default_rng(self.seed)
        for depth in self.depths[1::2]:
            circuit = benchmarking.generate_circuit(2, depth, int(rng.integers(2 ** 31)))
            ideal, noisy = benchmarking.simulate_circuit(circuit, self.cfg.noise)
            ideal_ref = reference.circuit_probs(circuit.single_qubit_layers)
            problems += checks.probs_problems(f"simulate_circuit depth {depth} ideal",
                                              ideal, ideal_ref)
            noisy_ref = reference.depolarized_readout_probs(
                ideal_ref, self.p_cycle, depth, readout["f00"], readout["f11"])
            problems += checks.probs_problems(f"simulate_circuit depth {depth} noisy",
                                              noisy, noisy_ref)
        return problems, 0

    def count_problems(self, per_layer: dict) -> list[str]:
        return checks.count_problems("benchmarking.simulate_circuit.calls",
                                     per_layer["benchmarking.simulate_circuit.calls"],
                                     len(self.depths) * self.xeb_circuits)


WORKLOADS = {w.name: w for w in (Calibrate, Scan, XebSpb)}
