"""Experiment drivers: dichotomy sweeps, decay-rate fits, splitting diagnostic.

Sweep rows read each datum's placement against the ground-state threshold
off its run (`Trajectory.membership`), record which dichotomy hypotheses
actually hold, and flag any verdict that contradicts them; the flag is a
recorded scientific failure, never hidden.
Decay fits turn trajectories into log-log slopes compared against the
predicted exponent min{d/2 + q*, 1} (power law up to d = 10, an inverse-log
envelope beyond), with q* estimated from the initial spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolve, families, spectral
from .config import RunConfig


class WindowTooShortError(RuntimeError):
    """Fewer than one decade of usable time for a decay fit."""


@dataclass(frozen=True)
class SweepRow:
    """One sweep row: its configuration and its run, which holds the row's
    placement against W (`membership`) and its verdict."""

    config: RunConfig
    trajectory: evolve.Trajectory

    @property
    def verdict(self) -> evolve.Verdict:
        return self.trajectory.verdict

    @property
    def consistent_with_theorem(self) -> bool:
        return (self.trajectory.membership.branch, self.verdict.kind) not in CONTRADICTIONS


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    window: tuple[float, float]
    r2: float
    predicted: float
    q_star: float
    law: str  # "power" for d <= 10, "log" beyond
    envelope_constant: float | None = None


@dataclass(frozen=True)
class SplittingReport:
    c_tilde: float | None
    times: tuple
    margins: tuple


def run_config(cfg: RunConfig) -> evolve.Trajectory:
    """Build the grid and initial field of a configuration and integrate it."""
    return evolve.run_flow(families.build_initial(cfg.family, cfg.params, cfg.make_grid(),
                                                  cfg.seed), cfg)


#: (hypothesis branch, verdict) pairs that contradict the dichotomy
CONTRADICTIONS = {("I", evolve.BLOWUP), ("II", evolve.DISSIPATIVE)}


def _sweep_row(cfg: RunConfig) -> SweepRow:
    return SweepRow(cfg, run_config(cfg))


def dichotomy_sweep(configs: list[RunConfig], workers: int) -> list[SweepRow]:
    """One run per configuration; rows come back in input order, each with
    its trajectory. Several rows and workers: a pool of min(workers, rows)
    processes; otherwise the rows run here, one after another."""
    if workers <= 1 or len(configs) <= 1:
        return [_sweep_row(cfg) for cfg in configs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        return list(pool.map(_sweep_row, configs))


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r2


def fit_window(traj: evolve.Trajectory, t_lo: float, t_hi: float | None = None):
    """Snapshot samples inside [t_lo, t_hi], guarded by sqrt(t) <= R/8. A t_lo
    that is not positive is refused: the t = 0 sample would void the decade test."""
    if not t_lo > 0.0:
        raise ValueError(f"fit window needs t_lo > 0, got {t_lo!r}")
    guard = (traj.grid.rmax / 8.0) ** 2
    hi = guard if t_hi is None else min(t_hi, guard)
    pts = [
        (s.t, s.report.h1_sq)
        for s in traj.snapshots
        if t_lo <= s.t <= hi and s.report.h1_sq > 0.0
    ]
    if len(pts) < 12 or pts[-1][0] < 10.0 * pts[0][0]:
        raise WindowTooShortError(
            f"need a decade with >= 12 samples in [{t_lo:g}, {hi:g}], got {len(pts)}"
        )
    t = np.array([p[0] for p in pts])
    h1 = np.array([p[1] for p in pts])
    return t, h1


#: frequencies at which `decayfit` transforms u0 when its family has no closed-form spectrum
DECAYFIT_NODES = np.concatenate([np.geomspace(1e-4, 0.1, 40), np.geomspace(0.11, 20.0, 80)])


def decay_fit(
    traj: evolve.Trajectory,
    spec0: spectral.SpectrumFn,
    t_lo: float = RunConfig.fit_t_lo,
    t_hi: float | None = None,
) -> DecayFit:
    """Fitted decay exponent of the critical norm against the predicted rate.

    d <= 10: slope of log ||u||^2_{H1} vs log(1+t), predicted
    min{d/2 + q*, 1} with q* the decay character of Lambda u0. d > 10: the
    power-law fit is refused; the slope in -2 log log(e+t) is reported with
    the tightest envelope constant C such that ||u||^2 <= C [ln(e+t)]^{-2}.
    """
    if traj.verdict is None or traj.verdict.kind != evolve.DISSIPATIVE:
        raise ValueError("decay fits require a Dissipative trajectory")
    est = spectral.decay_character(spectral.lambda_spectrum(spec0))
    q_star = est.r_star
    d = traj.grid.d
    predicted = min(d / 2.0 + q_star, 1.0)
    t, h1 = fit_window(traj, t_lo, t_hi)
    if d <= 10:
        law, x, envelope = "power", np.log1p(t), None
    else:
        law, x = "log", -2.0 * np.log(np.log(math.e + t))
        envelope = float(np.max(h1 * np.log(math.e + t) ** 2))
    slope, _c, r2 = _loglog_fit(x, np.log(h1))
    return DecayFit(
        exponent=slope, window=(float(t[0]), float(t[-1])), r2=r2,
        predicted=predicted, q_star=q_star, law=law, envelope_constant=envelope,
    )


def _g_functions(g_choice: str, alpha: float | None):
    if g_choice == "log_cubed":
        g = lambda t: math.log(math.e + t) ** 3
        gp = lambda t: 3.0 * math.log(math.e + t) ** 2 / (math.e + t)
        return g, gp
    if g_choice == "power":
        if alpha is None:
            raise ValueError("power weight needs alpha > max(d/2 + q*, 1)")
        g = lambda t: (1.0 + t) ** alpha
        gp = lambda t: alpha * (1.0 + t) ** (alpha - 1.0)
        return g, gp
    raise ValueError(f"unknown weight {g_choice!r}; use 'log_cubed' or 'power'")


#: the range in which the splitting constant is fitted, and the highest
#: frequency the splitting transforms reach, however large a ball
C_RANGE = (1e-3, 50.0)
S_CAP = 60.0


def splitting_diagnostic(traj: evolve.Trajectory, g_choice: str = "log_cubed",
                         alpha: float | None = None) -> SplittingReport:
    """Discrete check of d/dt(g ||u||^2_{H1}) <= g' * (low-frequency mass).

    The splitting-ball radius is r(t) = sqrt(g'(t) / (C g(t))) for a constant
    C that the continuum argument does not pin down; C is fitted by bisection
    in `C_RANGE` to the largest value keeping every margin nonnegative, and
    only the sign structure at the fitted constant is asserted by callers.
    """
    g, gp = _g_functions(g_choice, alpha)
    snaps = [s for s in traj.snapshots if s.field is not None and s.t > 0.0]
    if len(snaps) < 3:
        raise evolve.MissingCheckpointError("splitting needs >= 3 field checkpoints")
    c_lo, c_hi = C_RANGE
    # one node set wide enough for the largest ball any checkpoint needs
    r_needed = max(math.sqrt(gp(s.t) / (c_lo * g(s.t))) for s in snaps)
    s_hi = min(max(2.0 * r_needed, 1.0), S_CAP)
    s_nodes = np.concatenate([np.geomspace(1e-4, 0.1, 30), np.geomspace(0.11, s_hi, 60)])
    specs = spectral.hankel_spectra([s.field for s in snaps], s_nodes)
    lams = [spectral.lambda_spectrum(f) for f in specs]

    times = [0.5 * (a.t + b.t) for a, b in zip(snaps, snaps[1:])]
    lhs = np.array([(g(b.t) * b.report.h1_sq - g(a.t) * a.report.h1_sq) / (b.t - a.t)
                    for a, b in zip(snaps, snaps[1:])])
    g_mid = np.array([g(tm) for tm in times])
    gp_mid = np.array([gp(tm) for tm in times])
    # both tables of every pair, pair i's at i and at i + len(times)
    tables = lams[:-1] + lams[1:]

    def margins(c_tilde: float) -> np.ndarray:
        """Every pair's margin at c_tilde, their masses in one batch."""
        # the ball's share of the critical norm, omega_{d-1} int_0^radius
        # s^2 |vhat|^2 s^{d-1} ds, is the low-frequency mass of Lambda v
        radius = np.minimum(np.sqrt(gp_mid / (c_tilde * g_mid)), lams[0].s_max)
        masses = spectral.table_masses(tables, np.concatenate([radius, radius]))
        rhs = gp_mid * (0.5 * (masses[:len(times)] + masses[len(times):]))
        return (rhs - lhs) / (np.abs(lhs) + np.abs(rhs) + 1e-300)

    kept = margins(c_lo)
    if kept.min() < -1e-9:
        return SplittingReport(c_tilde=None, times=tuple(times), margins=tuple(kept))
    lo, hi = c_lo, c_hi
    m = margins(hi)
    if np.all(m >= 0.0):
        lo, kept = hi, m
    else:
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            m = margins(mid)
            if np.all(m >= 0.0):
                lo, kept = mid, m
            else:
                hi = mid
    return SplittingReport(c_tilde=lo, times=tuple(times), margins=tuple(kept))
