"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer replaces each layer function at the name its callers look up
(a module global, or a method on its class) with a wrapper that records a
span: name, start, end and the index of the enclosing span. Spans stay in
memory and are written out once, at the end of the run. A span's self time
is its duration minus the time covered by its direct children; spans of one
thread nest, so the children never overlap.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

from critheat import cli, config, evolve, experiments, families, functionals
from critheat import ground_state, spectral

#: the root span of one timed call of a workload
OP = "op"
#: the root span of the workload's set-up
SETUP = "setup"

LAYERS = (
    "evolve", "functionals", "ground_state", "families", "radial",
    "spectral", "bessel", "experiments", "config", "cli",
)

#: (name, unit) of every per-layer metric, in the order they are reported
PER_LAYER = [
    ("evolve.substep.calls", "count"),
    ("evolve.substep.self_s", "s"),
    ("evolve.substep.us_per_call", "us"),
    ("evolve.step.calls", "count"),
    ("evolve.step.self_s", "s"),
    ("evolve.step.substeps_per_call", "substeps/step"),
    ("evolve.run_flow.self_s", "s"),
    ("evolve.form_energy.calls", "count"),
    ("evolve.form_energy.self_s", "s"),
    ("evolve.dt_min", "model_t"),
    ("evolve.dt_max", "model_t"),
    ("functionals.energy_report.calls", "count"),
    ("functionals.energy_report.self_s", "s"),
    ("functionals.kq_weight.calls", "count"),
    ("functionals.kq_weight.self_s", "s"),
    ("ground_state.reference.self_s", "s"),
    ("ground_state.aubin_talenti.calls_per_row", "calls/row"),
    ("ground_state.aubin_talenti.self_s", "s"),
    ("families.build_initial.calls_per_row", "calls/row"),
    ("families.save_checkpoint.calls", "count"),
    ("families.save_checkpoint.self_s", "s"),
    ("families.save_checkpoint.bytes", "B"),
    ("radial.make_grid.calls_per_row", "calls/row"),
    ("radial.make_grid.self_s", "s"),
    ("spectral.hankel_spectrum.calls", "count"),
    ("spectral.hankel_spectrum.self_s", "s"),
    ("spectral.hankel_spectrum.kernel_bytes", "B"),
    ("spectral.low_freq_mass.calls", "count"),
    ("spectral.low_freq_mass.self_s", "s"),
    ("spectral.decay_character.calls", "count"),
    ("spectral.decay_character.self_s", "s"),
    ("bessel.bessel_j.calls", "count"),
    ("bessel.bessel_j.self_s", "s"),
    ("bessel.bessel_j.evals", "count"),
    ("experiments.dichotomy_sweep.self_s", "s"),
    ("experiments.dichotomy_sweep.cpu_util", "ratio"),
    ("experiments.run_config.calls", "count"),
    ("experiments.splitting_diagnostic.calls", "count"),
    ("experiments.splitting_diagnostic.self_s", "s"),
    ("config.parse_config.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("unattributed.self_share", "ratio"),
    ("trace.op_wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _kernel_bytes(counters, args, kwargs, out):
    u = _arg(args, kwargs, 0, "u")
    s_nodes = _arg(args, kwargs, 1, "s_nodes")
    counters["spectral.hankel_spectrum.kernel_bytes"] += np.size(s_nodes) * u.grid.n * 8


def _bessel_evals(counters, args, kwargs, out):
    counters["bessel.bessel_j.evals"] += np.size(_arg(args, kwargs, 1, "x"))


def _checkpoint_bytes(counters, args, kwargs, out):
    counters["families.save_checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _dt_range(counters, args, kwargs, out):
    dts = [s.dt for s in out.snapshots]
    if dts:
        lo = counters.get("evolve.dt_min")
        counters["evolve.dt_min"] = min(dts) if lo is None else min(lo, min(dts))
        counters["evolve.dt_max"] = max(counters.get("evolve.dt_max", 0.0), max(dts))


def targets():
    """(owner, attribute, span name, hook): each layer function at the name
    its callers look up. A hook sees the call's arguments and result."""
    return [
        (evolve.HeatProblem, "substep", "evolve.substep", None),
        (evolve.HeatProblem, "form_energy", "evolve.form_energy", None),
        (evolve, "step", "evolve.step", None),
        (evolve, "run_flow", "evolve.run_flow", _dt_range),
        (evolve, "energy_report", "functionals.energy_report", None),
        (functionals, "energy_report", "functionals.energy_report", None),
        (functionals, "kq_weight", "functionals.kq_weight", None),
        (ground_state, "reference", "ground_state.reference", None),
        (ground_state, "aubin_talenti", "ground_state.aubin_talenti", None),
        (families, "build_initial", "families.build_initial", None),
        (families, "save_checkpoint", "families.save_checkpoint", _checkpoint_bytes),
        (config, "make_grid", "radial.make_grid", None),
        (spectral, "hankel_spectrum", "spectral.hankel_spectrum", _kernel_bytes),
        (spectral, "low_freq_mass", "spectral.low_freq_mass", None),
        (spectral, "decay_character", "spectral.decay_character", None),
        (spectral, "bessel_j", "bessel.bessel_j", _bessel_evals),
        (experiments, "dichotomy_sweep", "experiments.dichotomy_sweep", None),
        (experiments, "run_config", "experiments.run_config", None),
        (experiments, "splitting_diagnostic", "experiments.splitting_diagnostic", None),
        (cli, "parse_config", "config.parse_config", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """In-memory span recorder; `install` wraps the layer functions and
    `uninstall` puts the originals back."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for owner, attr, name, hook in targets():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def open(self, name: str) -> None:
        """Start a root span (one op, or the set-up)."""
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, -1])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def aggregate(self):
        """Per span name: calls, total and self time, split by root span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        roots = [0] * len(spans)
        for i, (_name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                roots[i] = roots[parent]
            else:
                roots[i] = i
        by_root = {OP: defaultdict(lambda: [0, 0.0, 0.0]), "all": defaultdict(lambda: [0, 0.0, 0.0])}
        for i, (name, start, end, _parent) in enumerate(spans):
            dur = end - start
            for key in (("all", OP) if spans[roots[i]][0] == OP else ("all",)):
                acc = by_root[key][name]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - covered[i]
        return by_root

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


class Span:
    """Times one root span, and records it when a tracer is given."""

    def __init__(self, name: str, tracer: Tracer | None = None):
        self.name = name
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.open(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.close()
        return False


def layer_metrics(tracer: Tracer, ops: int, untraced_p50: float, traced_p50: float,
                  cpu_util: float) -> dict:
    """Every PER_LAYER metric from the traced ops (set-up spans excluded,
    except for ground_state.reference, whose cache is filled in set-up)."""
    agg = tracer.aggregate()
    op = agg[OP]  # a name with no spans reads [0, 0.0, 0.0]

    def calls(name):
        return op[name][0]

    def self_s(name):
        return op[name][2]

    def ratio(a, b):
        return a / b if b else 0.0

    op_wall = op[OP][1]
    values = {
        "evolve.substep.us_per_call": 1e6 * ratio(op["evolve.substep"][1], calls("evolve.substep")),
        "evolve.step.substeps_per_call": ratio(calls("evolve.substep"), calls("evolve.step")),
        "evolve.dt_min": tracer.counters.get("evolve.dt_min", 0.0),
        "evolve.dt_max": tracer.counters.get("evolve.dt_max", 0.0),
        "ground_state.reference.self_s": agg["all"]["ground_state.reference"][2],
        "experiments.dichotomy_sweep.cpu_util": cpu_util,
        "unattributed.self_share": ratio(self_s(OP), op_wall),
        "trace.op_wall_s": op_wall,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.overhead_frac": ratio(traced_p50 - untraced_p50, untraced_p50),
    }
    for layer in LAYERS:
        share = sum(acc[2] for name, acc in op.items() if name.startswith(layer + "."))
        values[f"{layer}.self_share"] = ratio(share, op_wall)
    metrics = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        else:
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                value = calls(span)
            elif stat == "self_s":
                value = self_s(span)
            elif stat == "calls_per_row":
                value = ratio(calls(span), ops)
            else:
                value = tracer.counters.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
