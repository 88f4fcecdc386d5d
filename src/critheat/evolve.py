"""Adaptive IMEX time integration with online dissipation/blowup verdicts.

The flow u_t = Delta u + |u|^{2*-2} u is advanced by IMEX Euler substeps:
backward-Euler diffusion in the Laplacian's symmetric form
(V + dt K) u_new = V (u + dt N(u)), solved by LAPACK's pttrf/pttrs, with the
nonlinearity explicit. The two routines come from scipy's compiled `_flapack`
extension, loaded by `_extensions.scipy_extension` without importing any scipy
package, or by importing `scipy.linalg` when that extension cannot be loaded.
A step of size dt is the Aitken-Neville extrapolation of that substep
(linearly implicit Euler extrapolation, Deuflhard 1983; Hairer and Wanner II,
IV.9): row j of the table takes SEQUENCE[j] substeps of dt / SEQUENCE[j], each
row sharing one factorization, and the accepted value is the fifth-order
corner T_{5,5} of the table. The difference T_{5,5} - T_{5,4} is the local
error estimate, and the step-size controller uses the exponent 1/5 that
matches it, with Gustafsson's predictive correction after accepted steps (ACM
TOMS 20, 1994; Hairer and Wanner II, IV.8). N(u) is evaluated once per step:
every row starts from the same u. Dirichlet at r = R, symmetry at r = 0.

A run records snapshots (time, scalar diagnostics, optional field checkpoint),
events (Nehari sign changes, gradient-norm threshold crossings), the
placement of its first snapshot against the ground-state threshold, and exactly
one terminal verdict: Dissipative, Blowup, or Undecided with a reason code. A
Blowup verdict's `t_bracket` is (t, t + 1e3 dt) at detection: it does not
account for the time-discretization error accumulated before detection, so it
need not contain the blowup time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals, ground_state
from ._extensions import scipy_extension
from .functionals import EnergyReport, energy_report
from .radial import CorruptionError, RadialField, RadialGrid, power_integral

#: LAPACK's pttrf/pttrs from scipy's f2py extension of LAPACK wrappers, without
#: importing `scipy.linalg`, which costs more than the rest of a cold run
_flapack = scipy_extension("linalg._flapack")
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

DISSIPATIVE = "Dissipative"
BLOWUP = "Blowup"
UNDECIDED = "Undecided"

#: sign of the nonlinearity |u|^{2*-2} u for each mode
NONLINEARITY_SIGN = {"focusing": 1.0, "defocusing": -1.0, "off": 0.0}

#: a checkpoint is at time t within this fraction of max(|t|, 1)
CHECKPOINT_RTOL = 1e-9
#: the contract checks' slacks: the energy may rise by ENERGY_SLACK_REL of
#: its scale, ||u||_{H1}^2 by LYAPUNOV_SLACK_REL of its initial value
ENERGY_SLACK_REL = 1e-6
LYAPUNOV_SLACK_REL = 1e-10

_BRACKET_SAFETY = 1e3
#: a step collapse is Blowup when the critical norm has grown past this factor
BLOWUP_FACTOR = 10.0


@dataclass(frozen=True, kw_only=True)
class FlowSettings:
    """Every parameter of one flow, with its default: the only place either is
    defined. `config.RunConfig` extends it; `run_flow` reads it."""

    t_max: float = 1e4
    tol: float = 1e-5
    dt_init: float = 1e-5
    nonlinearity: str = "focusing"
    snapshot_first: float = 1e-3
    snapshot_factor: float = 1.3
    checkpoint_every: int = 4
    forced_times: tuple = ()
    #: step-collapse floor and amplitude cap for the blowup detector; blowup
    #: is self-similar with unbounded amplitude, so step collapse plus an
    #: amplitude cap is a robust proxy for the maximal time
    dt_min: float = 1e-12
    amp_cap: float = 1e8
    #: dissipation fires when the critical norm has dropped by this factor
    eps_dissip_rel: float = 1e-6


class StepCollapseError(RuntimeError):
    """dt fell below the floor; feeds blowup detection rather than crashing."""

    def __init__(self, t: float, dt: float):
        super().__init__(f"step collapsed to dt={dt:g} at t={t:g}")
        self.t = t
        self.dt = dt


class MissingCheckpointError(LookupError):
    """No stored field checkpoint at the requested time."""


class EnergyMonotonicityError(RuntimeError):
    """The discrete energy increased beyond tolerance between two times."""


@dataclass
class SolverState:
    """Mutable integration state confined to a single run."""

    t: float
    u: RadialField
    dt: float
    accumulated_dissipation: float = 0.0
    #: (dt, error estimate) of the last accepted step, for the predictive
    #: step-size controller; None before the first step
    last_step: tuple[float, float] | None = None


@dataclass(frozen=True)
class Verdict:
    kind: str
    t_end: float
    detail: dict


@dataclass(frozen=True)
class Snapshot:
    t: float
    report: EnergyReport
    kq: float | None
    dt: float
    dissipation: float
    form_energy: float
    field: RadialField | None = None


@dataclass
class Trajectory:
    grid: RadialGrid
    snapshots: list[Snapshot] = field(default_factory=list)
    events: list[tuple[float, str]] = field(default_factory=list)
    verdict: Verdict | None = None
    membership: functionals.SetMembership | None = None

    @property
    def initial_h1_sq(self) -> float:
        return self.snapshots[0].report.h1_sq

    def checkpoint_at(self, t: float) -> Snapshot:
        scale = max(abs(t), 1.0)
        for snap in self.snapshots:
            if abs(snap.t - t) <= CHECKPOINT_RTOL * scale and snap.field is not None:
                return snap
        raise MissingCheckpointError(f"no field checkpoint at t={t!r}")


class HeatProblem:
    """Precomputed operators for one grid: stiffness, volumes, nonlinearity.

    Diffusion uses the finite-volume Laplacian in symmetric form -V^{-1} K;
    its Dirichlet form defines the solver's internal energy, which the
    semi-discrete flow dissipates exactly, so the energy-identity residual
    measures time discretization only. `substep` solves by LAPACK's
    pttrf/pttrs (the module's `dpttrf`/`dpttrs`, from scipy's `_flapack`
    extension) and keeps the factors of the last dt, which the substeps of one
    row of `step`'s extrapolation table share.
    """

    def __init__(self, grid: RadialGrid, nonlinearity: str = FlowSettings.nonlinearity):
        if nonlinearity not in NONLINEARITY_SIGN:
            raise ValueError(f"unknown nonlinearity mode {nonlinearity!r}")
        self.grid = grid
        self.sign = NONLINEARITY_SIGN[nonlinearity]
        self.power = 4.0 / (grid.d - 2.0)
        self.two_star = functionals.crit_exponent(grid.d)
        self.k_diag, self.k_off = grid.stiffness_bands
        self.volumes = grid.cell_volumes
        self._factored = (None, None, None)

    def nonlinear_term(self, u: np.ndarray) -> np.ndarray:
        """N(u) = sign |u|^{2*-2} u in one new array, bit-identical to
        `sign * np.abs(u) ** power * u`."""
        if self.sign == 0.0:
            return np.zeros_like(u)
        out = np.abs(u)
        np.power(out, self.power, out=out)
        out *= u
        if self.sign != 1.0:
            out *= self.sign
        return out

    def substep(self, u: np.ndarray, dt: float, n_u: np.ndarray | None = None) -> np.ndarray:
        """One IMEX step: (V + dt K) u_new = V (u + dt N(u)), u_new(R) = 0, by
        pttrs in place in the output; pttrf refactors V + dt K only when dt
        differs from the last call's, so the n substeps of dt/n that make one
        row of `step`'s table cost one factorization. `n_u`, when given, is
        N(u[:-1]) already evaluated; it is read, not modified."""
        m = self.grid.n - 1
        dt_factored, d, e = self._factored
        if dt_factored != dt:
            d, e, info = dpttrf(self.volumes[:m] + dt * self.k_diag, dt * self.k_off, 1, 1)
            if info != 0:
                raise np.linalg.LinAlgError(f"pttrf failed with info={info}")
            self._factored = (dt, d, e)
        out = np.empty_like(u)
        if n_u is None:
            n_u = self.nonlinear_term(u[:m])
        rhs = np.multiply(n_u, dt, out=out[:m])
        rhs += u[:m]
        rhs *= self.volumes[:m]
        x, info = dpttrs(d, e, rhs, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"pttrs failed with info={info}")
        if x is not rhs:  # pttrs solved a copy: rhs was not contiguous float64
            out[:m] = x
        out[m] = 0.0
        return out

    def l2_sq(self, v: np.ndarray) -> float:
        return float(self.volumes @ (v * v))

    def form_energy(self, u: np.ndarray, grad_sq: float) -> float:
        """Energy in the solver frame: the Laplacian's Dirichlet form `grad_sq`
        (u's report's `h1_sq`) plus the matching pointwise potential; exactly
        dissipated by the flow. The potential overflowing raises CorruptionError."""
        pot = power_integral(self.volumes, u, self.two_star)
        return 0.5 * grad_sq - self.sign * pot / self.two_star


def _scaled_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


#: substep counts of the extrapolation table's rows: row j advances dt by
#: SEQUENCE[j] IMEX Euler substeps of dt / SEQUENCE[j]
SEQUENCE = (1, 2, 3, 4, 5)


def _neville_row(prev: list, row_value, j: int) -> list:
    """Row j of the Aitken-Neville table from row j - 1 and row j's value:
    T_{j,k+1} = T_{j,k} + (T_{j,k} - T_{j-1,k}) / (n_j / n_{j-k} - 1)."""
    row = [row_value]
    for k in range(1, j + 1):
        last = row[-1]
        row.append(last + (last - prev[k - 1]) / (SEQUENCE[j] / SEQUENCE[j - k] - 1.0))
    return row


def _step_factor(tol: float, err: float, dt: float = 0.0,
                 last_step: tuple[float, float] | None = None) -> float:
    """The factor that scales dt after an attempt of size dt with error err.

    The standard factor is f = 0.9 (tol/err)^(1/k), k = len(SEQUENCE). Given
    the (dt, err) of the previous accepted step, Gustafsson's predictive
    controller (ACM TOMS 20, 1994; Hairer and Wanner II, IV.8) takes
    min(f, f (dt/dt_prev) (err_prev/err)^(1/k)), which damps the
    accept/reject oscillation of f alone when err grows from step to step.
    Either is clamped to [0.2, 5]; err = 0 gives 5.
    """
    if err == 0.0:
        return 5.0
    exponent = 1.0 / len(SEQUENCE)
    factor = 0.9 * (tol / err) ** exponent
    if last_step is not None and last_step[1] > 0.0:
        dt_prev, err_prev = last_step
        factor = min(factor, factor * (dt / dt_prev) * (err_prev / err) ** exponent)
    return min(5.0, max(0.2, factor))


def step(
    state: SolverState,
    tol: float,
    problem: HeatProblem,
    dt_min: float = FlowSettings.dt_min,
    dt_cap: float | None = None,
) -> SolverState:
    """Advance one accepted step, adapting dt to keep the local error <= tol.

    An attempt builds the Aitken-Neville table of the IMEX Euler substep over
    SEQUENCE: it accepts the corner T_{5,5}, estimates its error by
    T_{5,5} - T_{5,4}, and scales dt by `_step_factor`, exponent 1/5: the
    standard factor after a rejection, the predictive one after an accepted
    step. N(u) is evaluated once per call and shared by the first substep
    of every row and every retried attempt. The dissipation tally, each
    row's sum of ||dv||^2 / (dt/n_j), is extrapolated through the same
    table. Non-finite candidates shrink dt fourfold. Raises
    StepCollapseError when dt falls below dt_min.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    u = state.u.values
    # every row's first substep starts from u, and so does every retry
    n_u = problem.nonlinear_term(u[:-1])
    clipped = dt_cap is not None and dt_cap < state.dt
    dt = min(state.dt, dt_cap) if clipped else state.dt
    while True:
        if dt < dt_min:
            raise StepCollapseError(state.t, dt)
        table, tally = [], []
        # an attempt that overflows is refused by the finiteness test below
        with np.errstate(over="ignore", invalid="ignore"):
            for j, n in enumerate(SEQUENCE):
                h = dt / n
                v, diss = u, 0.0
                for i in range(n):
                    v_next = problem.substep(v, h, n_u if i == 0 else None)
                    diss += problem.l2_sq(v_next - v) / h
                    v = v_next
                table = _neville_row(table, v, j)
                tally = _neville_row(tally, diss, j)
        # every row enters the corner with a nonzero weight, so a non-finite
        # row makes the corner non-finite
        if np.isfinite(table[-1]).all():
            err = _scaled_error(table[-1], table[-2])
            if err <= tol:
                break
            dt *= _step_factor(tol, err)
        else:
            dt *= 0.25
        clipped = False
    next_dt = dt * _step_factor(tol, err, dt, state.last_step)
    if clipped:
        # landing clip, not accuracy: keep the cruising step size
        next_dt = max(next_dt, state.dt)
    return SolverState(
        t=state.t + dt,
        u=RadialField(state.u.grid, table[-1]),
        dt=next_dt,
        accumulated_dissipation=state.accumulated_dissipation + tally[-1],
        last_step=(dt, err),
    )


def _nehari_persisted_negative(before: list[Snapshot]) -> bool:
    """J < 0 on every snapshot taken before blowup detection, of which there is
    at least one.

    A snapshot taken at detection time samples an under-resolved spike whose
    discrete functionals are no longer meaningful; it is the blowup event
    itself, not a pre-blowup state, and callers leave it out of `before`.
    """
    return bool(before) and all(s.report.nehari < 0.0 for s in before)


#: the most snapshot times a run may have; a denser ladder cannot finish
MAX_SNAPSHOTS = 10_000


def snapshot_ladder(settings: FlowSettings) -> list[float]:
    """The times a run snapshots at, ascending: the rungs first * factor^k
    below t_max by repeated product, t_max, and the forced times in
    (0, t_max]. Their only definition: `config` checks a configuration with
    it, and `run_flow` steps through it.

    Raises ValueError naming the configuration key when the rungs stop
    growing, when there are more than MAX_SNAPSHOTS distinct times, or when
    dt_init or a time's gap from the one before it (or from 0) is below
    dt_min, where the first step or the step landing on that time collapses.
    """
    first, factor, t_max = settings.snapshot_first, settings.snapshot_factor, settings.t_max
    times = {t for t in settings.forced_times if 0.0 < t <= t_max}
    times.add(t_max)
    t = first
    for _ in range(MAX_SNAPSHOTS):
        if t >= t_max:
            break
        times.add(t)
        grown = t * factor
        if not grown > t:
            raise ValueError(f"snapshots.first: {first!r} gives rungs that stop growing at "
                             f"{t!r} under snapshots.factor = {factor!r}")
        t = grown
    if t < t_max or len(times) > MAX_SNAPSHOTS:
        raise ValueError(f"snapshots.factor: {factor!r} gives more than {MAX_SNAPSHOTS} "
                         "snapshot times up to integrator.t_max")
    if settings.dt_init < settings.dt_min:
        raise ValueError(f"integrator.dt_init: {settings.dt_init!r} is below integrator.dt_min "
                         f"= {settings.dt_min!r}, where the first step collapses")
    ladder = sorted(times)
    for before, t in zip([0.0, *ladder], ladder):
        if t - before < settings.dt_min:
            raise ValueError(f"integrator.dt_min: {settings.dt_min!r} exceeds the gap from "
                             f"{before!r} to the snapshot time {t!r}, so the step landing "
                             "on it would collapse")
    return ladder


def run_flow(u0: RadialField, settings: FlowSettings, *,
             threshold_guard: bool = True) -> Trajectory:
    """Integrate from u0 until a verdict fires or t reaches settings.t_max,
    snapshotting at the times of `snapshot_ladder`, which is built first: a
    ladder it refuses raises ValueError before any work.

    It builds the threshold itself, from u0's grid, and nothing else does:
    E(W) and ||grad W||^2 in closed form (`ground_state.reference`), and the
    AtThreshold band of `functionals.threshold_band`, widened to twice the
    bias of E(W) on that grid. The first snapshot is placed against it once, by
    `functionals.classify_set`, and kept as `Trajectory.membership`. With the
    guard on, AtThreshold data is ill-conditioned for the dichotomy and is
    reported Undecided without stepping. A u0 that is not finite, or whose
    diagnostics or solver-frame energy overflow, raises CorruptionError; any
    later snapshot whose diagnostics overflow, on the ladder or at a step
    collapse, ends the run Undecided("corruption"). Past the amplitude cap the
    detector has fired before the snapshot: a run whose snapshot there
    overflows ends Blowup, without that snapshot.
    """
    ladder = snapshot_ladder(settings)
    grid = u0.grid
    ref = ground_state.reference(grid.d)
    e_w, grad_sq_w = ref.e_w, ref.grad_sq_w
    band = functionals.threshold_band(e_w, functionals.energy(ground_state.aubin_talenti(grid)))
    traj = Trajectory(grid=grid)
    problem = HeatProblem(grid, settings.nonlinearity)

    def take_snapshot(state: SolverState, with_field: bool) -> Snapshot:
        rep = energy_report(state.u)
        kq = functionals.kq_weight(state.t, state.u) if state.t > 0.0 else None
        snap = Snapshot(
            t=state.t,
            report=rep,
            kq=kq,
            dt=state.dt,
            dissipation=state.accumulated_dissipation,
            form_energy=problem.form_energy(state.u.values, rep.h1_sq),
            field=state.u.copy() if with_field else None,
        )
        if traj.snapshots:
            prev = traj.snapshots[-1].report
            if prev.nehari * rep.nehari < 0.0:
                traj.events.append((state.t, "nehari_sign_change"))
            if (prev.h1_sq - grad_sq_w) * (rep.h1_sq - grad_sq_w) < 0.0:
                traj.events.append((state.t, "h1_crosses_ground_state"))
        traj.snapshots.append(snap)
        return snap

    def finish(kind: str, t_end: float, detail: dict) -> Trajectory:
        traj.verdict = Verdict(kind, t_end, detail)
        return traj

    def blowup(dt: float, before: list[Snapshot], **detail) -> Trajectory:
        """Blowup at the current state; `before` are the snapshots taken before
        detection."""
        return finish(BLOWUP, state.t, {
            "t_bracket": (state.t, state.t + dt * _BRACKET_SAFETY),
            "nehari_negative_persisted": _nehari_persisted_negative(before),
            **detail,
        })

    state = SolverState(t=0.0, u=u0.copy(), dt=settings.dt_init)
    first = take_snapshot(state, with_field=True)
    traj.membership = functionals.classify_set(first.report, e_w, grad_sq_w, band)
    if threshold_guard and traj.membership.verdict == functionals.AT_THRESHOLD:
        return finish(UNDECIDED, 0.0, {"reason": "at_threshold",
                                       "margin": traj.membership.margin})

    init_h1 = traj.initial_h1_sq
    eps_dissip = settings.eps_dissip_rel * init_h1 + 1e-300
    forced = set(settings.forced_times)
    snap_index = 0

    try:
        for t_next in ladder:
            while state.t < t_next:
                try:
                    state = step(state, settings.tol, problem, dt_min=settings.dt_min,
                                 dt_cap=t_next - state.t)
                except StepCollapseError as exc:
                    snap = take_snapshot(state, with_field=True)
                    if (float(np.max(np.abs(state.u.values))) > settings.amp_cap
                            or snap.report.h1_sq > BLOWUP_FACTOR**2 * init_h1):
                        return blowup(exc.dt, traj.snapshots[:-1])
                    return finish(UNDECIDED, state.t, {"reason": "step_collapse"})
                if abs(state.t - t_next) <= 1e-12 * max(t_next, 1.0):
                    state.t = t_next
                amplitude = float(np.max(np.abs(state.u.values)))
                if amplitude > settings.amp_cap:
                    before = traj.snapshots[:]
                    try:
                        take_snapshot(state, with_field=True)
                    except CorruptionError:  # the detector fired; the spike is past doubles
                        pass
                    return blowup(state.dt, before, amplitude=amplitude)
            snap_index += 1
            take_snapshot(
                state,
                with_field=(snap_index % settings.checkpoint_every == 0) or state.t in forced,
            )
            h1_sq = traj.snapshots[-1].report.h1_sq
            if h1_sq < eps_dissip:
                return finish(DISSIPATIVE, state.t, {"final_h1_sq": h1_sq})
    except CorruptionError:
        return finish(UNDECIDED, state.t, {"reason": "corruption"})
    return finish(UNDECIDED, state.t, {"reason": "t_max_reached"})


def energy_identity_residual(traj: Trajectory, t0: float, t1: float) -> float:
    """|E(u(t1)) + D(t0, t1) - E(u(t0))| from the integrator's dissipation tally.

    D accumulates ||u_t||_{L2}^2 between the two checkpoints. Energies are
    taken in the solver frame, where the semi-discrete flow dissipates them
    exactly, so the residual measures the time discretization alone. Also
    enforces the one-sided energy inequality E(t1) <= E(t0) + slack.
    """
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got {t0} >= {t1}")
    s0 = traj.checkpoint_at(t0)
    s1 = traj.checkpoint_at(t1)
    e0 = s0.form_energy
    e1 = s1.form_energy
    slack = ENERGY_SLACK_REL * max(abs(e0), abs(traj.snapshots[0].form_energy))
    if e1 > e0 + slack:
        raise EnergyMonotonicityError(f"E increased from {e0!r} at t={t0} to {e1!r} at t={t1}")
    return abs(e1 + (s1.dissipation - s0.dissipation) - e0)


def energy_nonincreasing(traj: Trajectory) -> bool:
    """Energy inequality across every adjacent snapshot pair.

    The snapshot taken at blowup detection (or at step collapse) samples an
    under-resolved spike whose quadrature functionals are not meaningful; it
    is excluded, as in the Nehari persistence check.
    """
    snapshots = traj.snapshots
    if traj.verdict is not None and (
        traj.verdict.kind == BLOWUP
        or traj.verdict.detail.get("reason") == "step_collapse"
    ):
        snapshots = snapshots[:-1]
    energies = [s.report.energy for s in snapshots]
    if len(energies) < 2:
        return True
    slack = ENERGY_SLACK_REL * max(abs(energies[0]), 1e-300)
    return all(b <= a + slack for a, b in zip(energies, energies[1:]))


def lyapunov_tail_index(traj: Trajectory) -> int | None:
    """First snapshot index from which ||u||_{H1}^2 is nonincreasing.

    The comparison allows `LYAPUNOV_SLACK_REL` of the initial value per pair.
    Returns None when no such index exists.
    """
    h1 = [s.report.h1_sq for s in traj.snapshots]
    slack = LYAPUNOV_SLACK_REL * h1[0]
    k = len(h1) - 1
    while k > 0 and h1[k] <= h1[k - 1] + slack:
        k -= 1
    return k if k < len(h1) - 1 or len(h1) == 1 else None
