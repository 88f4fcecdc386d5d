"""Workload recipes for the critheat benchmark: inputs, calls and checks.

Every workload is a closed loop driven from one process: the next call is
issued only after the previous one has returned. The benchmark seed draws
the inputs; the package only ever receives the generated configurations.

The recipes are rebuilt here from the paper's three experiments (the
dichotomy sweep, one verdict run, the splitting/decay-character spectra)
rather than imported from the test suite, so the benchmark does not move
when the tests are refactored.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from critheat import cli, evolve, experiments, ground_state, spectral
from critheat.config import RunConfig
from critheat.radial import grid_for_span

#: acceptance-matrix grids: inner spacing and relative grading of grid_for_span
GRID_H0, GRID_EPS = 0.01, 0.004
#: bubble data below threshold: (R, t_max) per dimension, as in the acceptance matrix
DISS_SETUP = {4: (5000.0, 3e6), 5: (600.0, 1e6), 6: (250.0, 1e5)}
#: bubble data above threshold: R per dimension, integrated to t = 50
BLOWUP_R = {4: 300.0, 5: 600.0, 6: 250.0}
BLOWUP_T_MAX = 50.0
A_BELOW = (0.5, 0.95)
A_ABOVE = (1.1, 1.5)

#: the criterion-11 run: d=5, n=1375, tolerance 1e-5, t_max 1e6
RUN_TREE = {
    "dimension": 5,
    "grid": {"R": 600.0, "n": 1375, "stretch": 1.004},
    "integrator": {"tol": 1e-5, "t_max": 1e6},
    "seed": 3,
}
#: run configs per benchmark run; each op uses the next one in turn
RUN_CONFIGS = 4

#: frequency nodes of the decayfit verb (120 nodes)
DECAYFIT_NODES = np.concatenate([np.geomspace(1e-4, 0.1, 40), np.geomspace(0.11, 20.0, 80)])
GAUSS_AMP = (0.03, 0.07)
POWER_ALPHA = 4.0
#: the splitting gate of the test suite
MARGIN_FLOOR = -1e-9
#: Lambda u0 of a gaussian has decay character 1; 0.99974 is measured at
#: amplitudes 0.03, 0.05 and 0.07
R_STAR_EXPECTED = 1.0
R_STAR_TOL = 2e-3


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi], one from each of k equal strata, in shuffled order.

    Every seed then spans the interval evenly, so the work of a run does not
    hinge on one lucky draw."""
    edges = np.linspace(lo, hi, k + 1)
    draws = [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    return [draws[i] for i in rng.permutation(k)]


def bubble_config(d: int, a: float) -> RunConfig:
    """Bubble data a*W on the acceptance matrix's grid for its branch."""
    if a < 1.0:
        r_max, t_max = DISS_SETUP[d]
    else:
        r_max, t_max = BLOWUP_R[d], BLOWUP_T_MAX
    grid = grid_for_span(d, r_max, GRID_H0, GRID_EPS)
    return RunConfig(
        dimension=d, r_max=r_max, n_nodes=grid.n, stretch=grid.stretch,
        family="aW", family_params=(("a", a),), t_max=t_max,
    )


def gaussian_config(amp: float) -> RunConfig:
    """The d=4 gaussian of the splitting tests: n=1047, t_max 40, checkpoint_every 2."""
    grid = grid_for_span(4, 160.0, GRID_H0, GRID_EPS)
    return RunConfig(
        dimension=4, r_max=160.0, n_nodes=grid.n, stretch=grid.stretch,
        family="gaussian", family_params=(("amp", amp), ("width", 1.0)),
        t_max=40.0, tol=1e-6, dt_init=1e-6, checkpoint_every=2, snapshot_first=0.05,
    )


def clear_caches() -> None:
    """Drop the package's per-process caches so each set-up pays them again."""
    for fn in (ground_state.reference, ground_state.default_grid):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


@dataclass
class CallResult:
    """One timed call: the ops it completed, how many failed, their digests."""

    seconds: float
    ops: int
    failed: int
    digests: list[str] = field(default_factory=list)


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Sweep:
    """`experiments.dichotomy_sweep` over bubble rows in d = 4, 5, 6.

    The paper's dichotomy experiment and the heaviest real caller; stepping
    does nearly all the work, and only this workload runs the sweep pool.
    d = 5 has the non-integer power 4/3, d = 4 and 6 integer powers.
    One op is one row; one call is one sweep over the row set.
    """

    name = "sweep"
    workers = 2  # sweep pool size
    trace_workers = 1  # under trace every layer call stays in this process
    traced_calls = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.dims = (6,) if tiny else (4, 5, 6)
        self.expect_below = evolve.DISSIPATIVE
        self.expect_above = evolve.BLOWUP
        self.rng = None
        self.configs = None

    def _draw(self) -> list[RunConfig]:
        configs = []
        for d in self.dims:
            configs.append(bubble_config(d, float(self.rng.uniform(*A_BELOW))))
            configs.append(bubble_config(d, float(self.rng.uniform(*A_ABOVE))))
        return configs

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.configs = self._draw()
        for d in self.dims:
            ground_state.reference(d)

    def call(self, workers: int, timer) -> CallResult:
        configs = self.configs
        with timer:
            try:
                rows = experiments.dichotomy_sweep(configs, workers)
            except Exception:
                _report_exception("dichotomy_sweep")
                rows = None
        seconds = timer.seconds
        self.configs = self._draw()
        if rows is None or len(rows) != len(configs):
            return CallResult(seconds, len(configs), len(configs))
        failed = 0
        digests = []
        for cfg, row in zip(configs, rows):
            expected = self.expect_below if cfg.params["a"] < 1.0 else self.expect_above
            # expected is Dissipative or Blowup, so an Undecided row fails too
            failed += not (row.verdict.kind == expected and row.consistent_with_theorem)
            h1 = np.array([s.report.h1_sq for s in row.trajectory.snapshots], dtype=float)
            digests.append(sha256(h1.tobytes()))
        return CallResult(seconds, len(configs), failed, digests)


class Run:
    """`critheat run` on the criterion-11 configuration, in process.

    The latency a user waits for one verdict. Serial, so it must not move when
    only the sweep pool changes; the only workload that parses a config file
    and writes series.csv, checkpoints and a manifest. One op is one run.
    """

    name = "run"
    workers = 1
    trace_workers = 1
    traced_calls = RUN_CONFIGS

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir / "run"
        self.expect_verdict = evolve.DISSIPATIVE
        self.paths = []
        self.series = {}
        self.count = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.paths = []
        self.count = 0
        for i, a in enumerate(stratified(rng, *A_BELOW, RUN_CONFIGS)):
            tree = dict(RUN_TREE, family={"name": "aW", "a": a})
            path = self.workdir / f"config_{i}.json"
            path.write_text(json.dumps(tree))
            self.paths.append(path)
        ground_state.reference(RUN_TREE["dimension"])

    def call(self, workers: int, timer) -> CallResult:
        which = self.count % len(self.paths)
        out = self.workdir / f"op_{self.count:05d}"
        self.count += 1
        argv = ["run", "--config", str(self.paths[which]), "--out", str(out)]
        with timer:
            try:
                code = cli.main(argv)
            except Exception:
                _report_exception("critheat run")
                code = None
        seconds = timer.seconds
        ok = code == 0
        digests = []
        try:
            series = (out / "series.csv").read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
        except (OSError, ValueError):
            ok = False
        else:
            ok = ok and manifest.get("verdict", {}).get("kind") == self.expect_verdict
            # byte-identical series for repeats of one (config, seed)
            ok = ok and self.series.setdefault(which, series) == series
            digests.append(sha256(series))
        shutil.rmtree(out, ignore_errors=True)
        return CallResult(seconds, 1, int(not ok), digests)


class Spectra:
    """The analysis chain of the `splitting` and `decayfit` verbs.

    On one fixed trajectory (integrated in set-up): the splitting diagnostic
    with the log-cubed and the power weight, the Hankel transform of u0 on
    the decayfit nodes, and the decay character of its Lambda spectrum.
    `spectral` and `bessel` do nearly all the timed work and `evolve` none,
    the opposite split to `sweep`. One op is one chain.
    """

    name = "spectra"
    workers = 1
    trace_workers = 1
    traced_calls = 4

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.r_star_expected = R_STAR_EXPECTED
        self.traj = None
        self.u0 = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        cfg = gaussian_config(float(rng.uniform(*GAUSS_AMP)))
        self.traj = experiments.run_config(cfg)
        self.u0 = self.traj.snapshots[0].field

    def call(self, workers: int, timer) -> CallResult:
        with timer:
            try:
                reports = [
                    experiments.splitting_diagnostic(self.traj, g_choice="log_cubed"),
                    experiments.splitting_diagnostic(
                        self.traj, g_choice="power", alpha=POWER_ALPHA
                    ),
                ]
                spec0 = spectral.hankel_spectrum(self.u0, DECAYFIT_NODES)
                est = spectral.decay_character(spectral.lambda_spectrum(spec0))
            except Exception:
                _report_exception("spectra chain")
                est = None
        seconds = timer.seconds
        if est is None:
            return CallResult(seconds, 1, 1)
        ok = all(r.c_tilde is not None and min(r.margins) >= MARGIN_FLOOR for r in reports)
        ok = ok and est.flag is None
        ok = ok and abs(est.r_star - self.r_star_expected) <= R_STAR_TOL
        digest = sha256(
            *(np.array(r.margins, dtype=float).tobytes() for r in reports),
            np.asarray(spec0.values, dtype=float).tobytes(),
            repr(est.r_star).encode(),
        )
        return CallResult(seconds, 1, int(not ok), [digest])


WORKLOADS = {cls.name: cls for cls in (Sweep, Run, Spectra)}
