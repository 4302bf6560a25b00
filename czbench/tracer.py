"""Span tracing of czsim's public functions, installed from outside the package.

`Tracer.install` wraps every public function, and every public method and
non-dataclass constructor of a public class, defined in the listed czsim
modules.  Each wrapper replaces the original under every name a czsim
module looks it up by (`czsim.calibration.propagate` as well as
`czsim.propagator.propagate`), so calls between modules are traced too.
Nothing inside czsim changes.

A span is recorded per call while tracing is on: name, start, end, parent
span and self time (its duration minus the durations of its child spans).
Spans stay in memory and are written out by `write` when the run ends.

A few counts are taken at the same boundaries (see `COUNTERS`):
`numpy.linalg.eigh` matrices and their n^3 sums inside `propagate`, distinct
Magnus-node control points of each propagated schedule, simplex objective
evaluations, and the gate evaluations of each `calibrate_cz`.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("config", "cli", "device", "pulses", "distortion", "propagator",
           "metrics", "calibration", "benchmarking")

SCANS = ("calibration.leakage_scan", "calibration.phase_scan", "calibration.repeated_gate_scan")

COUNTERS = (
    "propagator.eigh.matrices",
    "propagator.eigh.flops",
    "propagator.distinct_substeps",
    "metrics.virtual_z_simplex_evals",
    "calibration.gate_evaluations",
    "calibration.coarse_grid_evals",
    "calibration.simplex_evals",
    "calibration.rejected_points",
    "calibration.scan_propagations",
)


def distinct_substeps(schedule) -> int:
    """Distinct control points at the Magnus nodes (1/6, 5/6) of a schedule's steps."""
    columns = [np.asarray(schedule.coupler_trajectory.samples, dtype=float)]
    columns += [np.asarray(wf.samples, dtype=float)
                for _, wf in sorted((schedule.qubit_offsets or {}).items())]
    nodes = []
    for c in columns:
        both = np.empty(2 * (len(c) - 1))
        both[0::2] = c[:-1] + (c[1:] - c[:-1]) / 6.0
        both[1::2] = c[:-1] + 5.0 * (c[1:] - c[:-1]) / 6.0
        nodes.append(both)
    return len(np.unique(np.column_stack(nodes), axis=0))


class Tracer:
    def __init__(self):
        self.enabled = False
        self.phase = "setup"          # label stored with each span
        self.spans = []               # (name, phase, start, end, self_s, parent, raised)
        self.counts = defaultdict(lambda: defaultdict(int))   # phase -> counter -> value
        self._stack = []              # open spans: [index, name, start, child_time]
        self._active = defaultdict(int)
        self._calibrations = []       # per open calibrate_cz: "coarse" | "simplex" | "final"
        self.names = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the public callables of czsim's modules in place, and
        `numpy.linalg.eigh` to count the matrices it gets inside `propagate`."""
        modules = [importlib.import_module(f"czsim.{m}") for m in MODULES]
        originals = {}                # id(original) -> (original, wrapper)
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    originals[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)
        # Rebind every module-level name that refers to a wrapped function.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
        self._count_eigh()

    def _wrap_class(self, short: str, cls) -> None:
        methods = {k: v for k, v in vars(cls).items()
                   if inspect.isfunction(v) and (not k.startswith("_") or k == "__call__")}
        if not dataclasses.is_dataclass(cls) and "__init__" in vars(cls):
            methods["__init__"] = vars(cls)["__init__"]
        for attr, fn in methods.items():
            name = {"__init__": f"{short}.{cls.__name__}",
                    "__call__": f"{short}.{cls.__name__}.__call__"}.get(attr, f"{short}.{attr}")
            if name in self.names:
                name = f"{short}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, fn))

    def _count_eigh(self) -> None:
        """Count the matrices (and n^3) passed to numpy.linalg.eigh inside propagate."""
        original = np.linalg.eigh
        tracer = self

        @functools.wraps(original)
        def eigh(a, *args, **kwargs):
            if tracer.enabled and tracer._active["propagator.propagate"]:
                a_arr = np.asarray(a)
                n = a_arr.shape[-1]
                matrices = int(np.prod(a_arr.shape[:-2], dtype=np.int64))
                counts = tracer.counts[tracer.phase]
                counts["propagator.eigh.matrices"] += matrices
                counts["propagator.eigh.flops"] += matrices * n ** 3
            return original(a, *args, **kwargs)

        np.linalg.eigh = eigh

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn):
        self.names.append(name)
        tracer = self
        hook = {
            "propagator.propagate": tracer._before_propagate,
            "metrics.nelder_mead_minimize": tracer._before_simplex,
            "calibration.report": tracer._before_report,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            if name == "calibration.calibrate_cz":
                tracer._calibrations.append("coarse")
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            raised = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                duration = end - frame[2]
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                tracer.spans[index] = (name, tracer.phase, frame[2], end,
                                       duration - frame[3], parent, raised)
                tracer._after(name, raised)

        return wrapper

    def _parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def _before_propagate(self, args, kwargs):
        schedule = kwargs["schedule"] if "schedule" in kwargs else args[1]
        self.counts[self.phase]["propagator.distinct_substeps"] += distinct_substeps(schedule)
        if any(self._active[s] for s in SCANS):
            self.counts[self.phase]["calibration.scan_propagations"] += 1
        return args, kwargs

    def _before_simplex(self, args, kwargs):
        parent = self._parent_name()
        counter = {"metrics.fit_virtual_z": "metrics.virtual_z_simplex_evals",
                   "calibration.calibrate_cz": "calibration.simplex_evals"}.get(parent)
        if parent == "calibration.calibrate_cz":
            self._calibrations[-1] = "simplex"
        if counter is None:
            return args, kwargs
        counts = self.counts[self.phase]

        def counting(objective):
            def counted(x):
                counts[counter] += 1
                return objective(x)
            return counted

        if "objective" in kwargs:
            return args, {**kwargs, "objective": counting(kwargs["objective"])}
        return (counting(args[0]),) + tuple(args[1:]), kwargs

    def _before_report(self, args, kwargs):
        if self._calibrations:
            counts = self.counts[self.phase]
            counts["calibration.gate_evaluations"] += 1
            if self._calibrations[-1] == "coarse":
                counts["calibration.coarse_grid_evals"] += 1
        return args, kwargs

    def _after(self, name: str, raised: bool) -> None:
        if name == "calibration.calibrate_cz":
            self._calibrations.pop()
        elif name == "metrics.nelder_mead_minimize" and self._calibrations \
                and self._parent_name() == "calibration.calibrate_cz":
            self._calibrations[-1] = "final"
        elif name == "calibration.report" and raised and self._calibrations:
            self.counts[self.phase]["calibration.rejected_points"] += 1

    # ------------------------------------------------------------ results

    def per_layer(self, rounds: int) -> dict:
        """calls and self_s per traced name, and every counter, for the set-up
        plus one round (round totals divided by the number of rounds)."""
        calls = defaultdict(int)      # (name, phase) -> calls
        self_s = defaultdict(float)   # (name, phase) -> summed self time
        for name, phase, _, _, own, _, _ in self.spans:
            calls[name, phase] += 1
            self_s[name, phase] += own

        def one_round(table, key):
            return table[key, "setup"] + table[key, "round"] / rounds

        out = {}
        for name in self.names:
            out[f"{name}.calls"] = one_round(calls, name)
            out[f"{name}.self_s"] = one_round(self_s, name)
        counts = {(counter, phase): c[counter]
                  for phase, c in self.counts.items() for counter in COUNTERS}
        for counter in COUNTERS:
            out[counter] = one_round(defaultdict(int, counts), counter)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, phase, start, end, self,
        parent, raised; the last line holds the counters."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")
            f.write(json.dumps({"counts": {p: dict(c) for p, c in self.counts.items()}}))
            f.write("\n")
