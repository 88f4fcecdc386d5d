import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from critheat import evolve, experiments, families, spectral
from critheat import functionals as fn
from critheat import ground_state as gs
from critheat.config import RunConfig
from critheat.evolve import FlowSettings
from critheat.radial import RadialField, grid_for_span


def base_config(d, R, n_for=None, family="aW", params=(), **kw):
    grid = grid_for_span(d, R, kw.pop("h0", 0.01), kw.pop("eps", 0.004))
    defaults = dict(
        dimension=d, r_max=R, n_nodes=grid.n, stretch=grid.stretch,
        family=family, family_params=tuple(sorted(params)),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


SWEEP_CONFIGS = [
    base_config(5, 600.0, params={"a": 0.9}.items(), t_max=1e6),
    base_config(5, 600.0, params={"a": 1.2}.items(), t_max=50.0),
    base_config(6, 250.0, params={"a": 0.5}.items(), t_max=1e5),
    base_config(6, 250.0, params={"a": 1.5}.items(), t_max=50.0),
]


@pytest.fixture(scope="module")
def sweep_rows():
    return experiments.dichotomy_sweep(SWEEP_CONFIGS, workers=2)


class TestSweep:
    def test_rows_follow_the_dichotomy(self, sweep_rows):
        kinds = [r.verdict.kind for r in sweep_rows]
        assert kinds == ["Dissipative", "Blowup", "Dissipative", "Blowup"]
        assert all(r.consistent_with_theorem for r in sweep_rows)
        assert [r.trajectory.membership.branch for r in sweep_rows] == ["I", "II", "I", "II"]

    def test_row_metadata(self, sweep_rows):
        row = sweep_rows[0]
        m = row.trajectory.membership
        assert row.config.family == "aW" and row.config.dimension == 5
        assert m.e_ratio < 1.0 and m.grad_ratio < 1.0
        assert row.trajectory.snapshots[0].report.l2_sq is not None

    def test_rows_read_the_runs_classification(self, sweep_rows):
        for row in sweep_rows:
            traj = row.trajectory
            m, rep = traj.membership, traj.snapshots[0].report
            ref = gs.reference(row.config.dimension)
            assert m.e_ratio == rep.energy / ref.e_w
            assert m.grad_ratio == math.sqrt(rep.h1_sq / ref.grad_sq_w)

    def test_pooled_rows_match_serial_rows(self, sweep_rows):
        serial = experiments.dichotomy_sweep(SWEEP_CONFIGS, workers=1)
        assert [r.config.params for r in serial] == [r.config.params for r in sweep_rows]
        for one, pooled in zip(serial, sweep_rows):
            assert one.verdict == pooled.verdict
            h1 = [np.array([s.report.h1_sq for s in r.trajectory.snapshots]).tobytes()
                  for r in (one, pooled)]
            assert h1[0] == h1[1]

    @pytest.mark.parametrize("workers, rows, pool", [(500, 3, [3]), (2, 3, [2]), (1, 3, []),
                                                     (4, 1, []), (0, 2, [])])
    def test_pool_has_at_most_one_process_per_row(self, monkeypatch, workers, rows, pool):
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(experiments, "_sweep_row", lambda cfg: cfg.seed)
        configs = [base_config(6, 250.0, seed=i) for i in range(rows)]
        assert experiments.dichotomy_sweep(configs, workers) == list(range(rows))
        assert sizes == pool

    def test_near_threshold_row_is_undecided(self):
        cfg = base_config(5, 600.0, params={"a": 1.001}.items(), t_max=10.0)
        row = experiments.dichotomy_sweep([cfg], workers=1)[0]
        assert row.verdict.kind == evolve.UNDECIDED
        assert row.verdict.detail["reason"] == "at_threshold"
        assert row.trajectory.membership.branch == "none"
        assert row.consistent_with_theorem

    def test_superthreshold_without_l2_is_not_a_claim(self):
        # a W in d = 3 is not square integrable, so branch II never applies
        cfg = base_config(3, 2e6, params={"a": 1.5}.items(), t_max=50.0, tol=1e-3)
        row = experiments.dichotomy_sweep([cfg], workers=1)[0]
        assert row.trajectory.snapshots[0].report.l2_sq is None
        assert row.trajectory.membership.branch == "none"
        assert row.verdict.kind == evolve.BLOWUP
        assert row.consistent_with_theorem


class TestDecayFit:
    def test_saturating_family_hits_capped_rate(self):
        # 0.5 W in d = 4 has q* = -1, so the predicted exponent min{d/2+q*, 1}
        # equals 1 and the linear flow realizes it two-sidedly
        cfg = base_config(4, 5000.0, params={"a": 0.5}.items(), t_max=3e6)
        traj = experiments.run_config(cfg)
        assert traj.verdict.kind == evolve.DISSIPATIVE
        spec0 = spectral.gaussian_spectrum(4, k=-2.0)  # |xi|^{-2} low-frequency law of the bubble tail
        fit = experiments.decay_fit(traj, spec0, t_lo=100.0)
        assert fit.law == "power"
        assert fit.q_star == pytest.approx(-1.0, abs=0.02)
        assert fit.predicted == pytest.approx(1.0, abs=0.02)
        assert fit.r2 >= 0.98
        assert -1.1 <= fit.exponent <= -0.9

    def test_gaussian_run_decays_faster_than_the_bound(self):
        cfg = base_config(
            3, 160.0, family="gaussian", params={"amp": 0.05, "width": 1.0}.items(),
            t_max=500.0, tol=1e-6, dt_init=1e-6, snapshot_factor=1.2, eps_dissip_rel=1e-7,
        )
        traj = experiments.run_config(cfg)
        spec0 = families.initial_spectrum("gaussian", {"amp": 0.05, "width": 1.0}, 3)
        fit = experiments.decay_fit(traj, spec0)
        assert fit.q_star == pytest.approx(1.0, abs=0.03)
        assert fit.predicted == 1.0
        # an upper bound: decaying faster than predicted is consistent
        assert fit.exponent <= -fit.predicted + 0.15
        assert fit.r2 >= 0.98

    def test_requires_dissipative_trajectory(self):
        cfg = base_config(5, 600.0, params={"a": 1.2}.items(), t_max=50.0)
        traj = experiments.run_config(cfg)
        with pytest.raises(ValueError):
            experiments.decay_fit(traj, spectral.gaussian_spectrum(5, k=-2.0))

    def test_window_too_short(self):
        cfg = base_config(
            4, 160.0, family="gaussian", params={"amp": 0.05, "width": 1.0}.items(),
            t_max=500.0, tol=1e-6, dt_init=1e-6,
        )
        traj = experiments.run_config(cfg)
        with pytest.raises(experiments.WindowTooShortError):
            experiments.decay_fit(traj, spectral.gaussian_spectrum(4), t_lo=20.0)

    @pytest.mark.parametrize("t_lo", [0.0, -5.0])
    def test_window_from_t0_is_refused(self, t_lo):
        # the t = 0 sample would make the decade test pass on any run
        with pytest.raises(ValueError, match="t_lo > 0"):
            experiments.fit_window(zero_trajectory([0.0, 1.0, 100.0]), t_lo)

    def test_log_law_mode_beyond_d10(self):
        cfg = base_config(
            11, 60.0, family="gaussian", params={"amp": 2.0, "width": 1.0}.items(),
            t_max=1e3, tol=1e-6, dt_init=1e-6, snapshot_factor=1.15,
        )
        traj = experiments.run_config(cfg)
        assert traj.verdict.kind == evolve.DISSIPATIVE
        fit = experiments.decay_fit(traj, spectral.gaussian_spectrum(11), t_lo=0.02)
        assert fit.law == "log"
        assert fit.envelope_constant is not None and fit.envelope_constant > 0
        # envelope: every sample obeys ||u||^2 <= C [ln(e+t)]^{-2} for fitted C
        t, h1 = experiments.fit_window(traj, 0.02)
        bound = fit.envelope_constant / np.log(math.e + t) ** 2
        assert np.all(h1 <= bound * (1 + 1e-12))

    def test_initial_spectrum_uses_the_builder_defaults(self, monkeypatch):
        spec = families.initial_spectrum("gaussian", {}, 4)
        same = families.initial_spectrum("gaussian", {"amp": 0.05, "width": 1.0}, 4)
        assert (spec.amp, spec.sig) == (same.amp, same.sig)
        # the defaults are read from the builder's signature, not copied
        monkeypatch.setattr(families._gaussian_family, "__kwdefaults__",
                            {"amp": 0.2, "width": 2.0})
        spec = families.initial_spectrum("gaussian", {}, 4)
        assert (spec.amp, spec.sig) == (0.2 * 2.0**2, 1.0)


def zero_trajectory(times) -> evolve.Trajectory:
    """The zero solution in d = 4 with a field checkpoint at each time."""
    grid = grid_for_span(4, 40.0, 0.02, 0.01)
    zero = RadialField(grid, np.zeros(grid.n))
    traj = evolve.Trajectory(grid=grid)
    for t in times:
        traj.snapshots.append(
            evolve.Snapshot(
                t=t, report=fn.energy_report(zero), kq=0.0, dt=0.1,
                dissipation=0.0, form_energy=0.0, field=zero.copy(),
            )
        )
    return traj


def rising_trajectory() -> evolve.Trajectory:
    """Zero checkpoints at t = 0.5, 1, 2, 4 whose reported ||grad u||^2 rises:
    no ball holds any mass, so no constant closes the splitting inequality."""
    traj = zero_trajectory((0.5, 1.0, 2.0, 4.0))
    traj.snapshots = [replace(s, report=replace(s.report, h1_sq=s.t)) for s in traj.snapshots]
    return traj


@pytest.fixture(scope="module")
def gaussian_trajectory():
    """The d = 4 gaussian run of the splitting tests."""
    return experiments.run_config(base_config(
        4, 160.0, family="gaussian", params={"amp": 0.05, "width": 1.0}.items(),
        t_max=40.0, tol=1e-6, dt_init=1e-6, checkpoint_every=2, snapshot_first=0.05,
    ))


def full_margins_fit(traj, g_choice, alpha):
    """(c_tilde, margins) of the splitting fit that evaluates every margin at
    every constant it tries."""
    g, gp = experiments._g_functions(g_choice, alpha)
    snaps = [s for s in traj.snapshots if s.field is not None and s.t > 0.0]
    c_lo, c_hi = experiments.C_RANGE
    r_needed = max(math.sqrt(gp(s.t) / (c_lo * g(s.t))) for s in snaps)
    s_hi = min(max(2.0 * r_needed, 1.0), experiments.S_CAP)
    s_nodes = np.concatenate([np.geomspace(1e-4, 0.1, 30), np.geomspace(0.11, s_hi, 60)])
    specs = spectral.hankel_spectra([s.field for s in snaps], s_nodes)
    lams = [spectral.lambda_spectrum(f) for f in specs]

    def margins(c_tilde):
        out = []
        for (s1, l1), (s2, l2) in zip(zip(snaps, lams), zip(snaps[1:], lams[1:])):
            tm = 0.5 * (s1.t + s2.t)
            lhs = (g(s2.t) * s2.report.h1_sq - g(s1.t) * s1.report.h1_sq) / (s2.t - s1.t)
            rho = min(math.sqrt(gp(tm) / (c_tilde * g(tm))), l1.s_max)
            mass = 0.5 * (spectral.low_freq_mass(l1, rho) + spectral.low_freq_mass(l2, rho))
            rhs = gp(tm) * mass
            out.append((rhs - lhs) / (abs(lhs) + abs(rhs) + 1e-300))
        return np.array(out)

    assert margins(c_lo).min() >= -1e-9
    lo, hi = c_lo, c_hi
    if margins(hi).min() >= 0.0:
        lo = hi
    else:
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if margins(mid).min() >= 0.0:
                lo = mid
            else:
                hi = mid
    return lo, tuple(margins(lo))


class TestSplitting:
    def test_zero_solution_trivial(self):
        # both sides of the inequality vanish identically on the zero solution
        report = experiments.splitting_diagnostic(zero_trajectory((0.5, 1.0, 2.0, 4.0)))
        assert all(m == 0.0 for m in report.margins)

    def test_no_constant_when_the_margins_fail_at_the_smallest(self):
        # a rising critical norm against zero mass: every margin is -1 at
        # C_RANGE's lower end, so no constant is fitted
        report = experiments.splitting_diagnostic(rising_trajectory())
        assert report.c_tilde is None
        assert report.times == (0.75, 1.5, 3.0)
        assert report.margins == (-1.0, -1.0, -1.0)

    def test_one_lambda_spectrum_per_checkpoint(self, monkeypatch):
        # the margins are evaluated at several constants (here c_lo, c_hi and
        # the fit), each over every pair of neighbouring checkpoints; the Lambda
        # spectra they integrate are built once per checkpoint all the same
        built = []
        lambda_spectrum = spectral.lambda_spectrum
        monkeypatch.setattr(spectral, "lambda_spectrum",
                            lambda spec: built.append(spec) or lambda_spectrum(spec))
        traj = zero_trajectory((0.5, 1.0, 2.0, 4.0, 8.0))
        experiments.splitting_diagnostic(traj)
        assert len(built) == len(traj.snapshots)

    def test_dissipative_margins_nonnegative(self):
        cfg = base_config(
            4, 160.0, family="gaussian", params={"amp": 0.05, "width": 1.0}.items(),
            t_max=40.0, tol=1e-6, dt_init=1e-6, checkpoint_every=2, snapshot_first=0.05,
        )
        traj = experiments.run_config(cfg)
        for g_choice, alpha in (("log_cubed", None), ("power", 4.0)):
            report = experiments.splitting_diagnostic(traj, g_choice=g_choice, alpha=alpha)
            assert report.c_tilde is not None
            assert min(report.margins) >= -1e-9
            # byte-identical CSV needs a deterministic batched transform
            again = experiments.splitting_diagnostic(traj, g_choice=g_choice, alpha=alpha)
            assert again.margins == report.margins

    def test_early_stopping_bisection_is_exact(self, gaussian_trajectory):
        # the margins at every constant the bisection tries, all of them, as
        # the fit was first written: the same constant and the same margins
        for g_choice, alpha in (("log_cubed", None), ("power", 4.0)):
            report = experiments.splitting_diagnostic(
                gaussian_trajectory, g_choice=g_choice, alpha=alpha)
            c_tilde, margins = full_margins_fit(gaussian_trajectory, g_choice, alpha)
            assert report.c_tilde == c_tilde
            assert report.margins == margins

    def test_one_table_masses_call_per_constant(self, gaussian_trajectory, monkeypatch):
        # each constant tried takes every pair's masses in one call, both tables
        # of each of the 11 pairs: C_RANGE's two ends for log-cubed, whose upper
        # end holds, and those two plus 40 bisection steps for alpha = 4
        calls = []
        table_masses = spectral.table_masses
        monkeypatch.setattr(spectral, "table_masses", lambda tables, rhos: calls.append(
            (len(tables), len(rhos))) or table_masses(tables, rhos))
        for g_choice, alpha, constants in (("log_cubed", None, 2), ("power", 4.0, 42)):
            calls.clear()
            experiments.splitting_diagnostic(gaussian_trajectory, g_choice=g_choice, alpha=alpha)
            assert calls == [(2 * 11, 2 * 11)] * constants

    def test_stationary_bubble_is_degenerate(self):
        # constant critical norm: the inequality closes only as the ball grows,
        # so the margins of the fitted constant sit at zero scale. Its transform
        # is in d = 5, on the half-integer route
        grid = grid_for_span(5, 700.0, 0.005, 0.002)
        w = gs.aubin_talenti(grid)
        u0 = RadialField(grid, w.values.copy())
        u0.values[-1] = 0.0
        traj = evolve.run_flow(u0, FlowSettings(t_max=1.0, tol=1e-6, dt_init=1e-6,
                                                snapshot_first=0.05, checkpoint_every=1),
                               threshold_guard=False)
        report = experiments.splitting_diagnostic(traj)
        assert report.c_tilde is not None
        assert 0.0 <= min(report.margins) <= 5e-3
