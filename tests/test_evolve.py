import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from critheat import evolve, experiments
from critheat import families, spectral
from critheat import functionals as fn
from critheat import ground_state as gs
from critheat.config import RunConfig
from critheat.evolve import FlowSettings
from critheat.radial import CorruptionError, RadialField, grid_for_span, make_grid


def make_w_data(d, R, a=1.0, h0=0.01, eps=0.004):
    grid = grid_for_span(d, R, h0, eps)
    w = gs.aubin_talenti(grid)
    u0 = RadialField(grid, a * w.values)
    u0.values[-1] = 0.0
    return u0, w


class TestStep:
    def test_zero_is_fixed_point(self):
        grid = grid_for_span(4, 20.0, 0.05, 0.01)
        state = evolve.SolverState(t=0.0, u=RadialField(grid, np.zeros(grid.n)), dt=1e-3)
        problem = evolve.HeatProblem(grid)
        for _ in range(5):
            state = evolve.step(state, 1e-6, problem)
        assert np.array_equal(state.u.values, np.zeros(grid.n))
        assert state.t > 0

    def test_step_collapse_raises(self):
        grid = grid_for_span(4, 20.0, 0.05, 0.01)
        state = evolve.SolverState(t=0.0, u=RadialField(grid, np.zeros(grid.n)), dt=1e-3)
        with pytest.raises(evolve.StepCollapseError):
            evolve.step(state, 1e-6, evolve.HeatProblem(grid), dt_min=1.0)

    def test_dissipation_tally_monotone(self):
        u0, _ = make_w_data(4, 200.0, a=0.8)
        state = evolve.SolverState(t=0.0, u=u0, dt=1e-5)
        problem = evolve.HeatProblem(u0.grid)
        last = 0.0
        for _ in range(10):
            state = evolve.step(state, 1e-6, problem)
            assert state.accumulated_dissipation >= last
            last = state.accumulated_dissipation
        assert last > 0

    @pytest.mark.parametrize("dt", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_stiff_mode_is_damped(self, dt):
        # the extrapolated stability function has |R(z)| <= 1 on the negative
        # real axis, where the symmetric Laplacian's spectrum lies, and
        # R(-inf) = 0; a grid-scale alternating field is the stiffest mode
        grid = grid_for_span(5, 20.0, 0.05, 0.01)
        v = (-1.0) ** np.arange(grid.n)
        v[-1] = 0.0
        problem = evolve.HeatProblem(grid, "off")
        state = evolve.SolverState(t=0.0, u=RadialField(grid, v), dt=dt)
        new = evolve.step(state, tol=1e300, problem=problem)
        assert new.t == dt  # no attempt was rejected
        ratio = problem.l2_sq(new.u.values) / problem.l2_sq(v)
        assert ratio <= 1.0
        if dt == 1e6:
            assert ratio < 1e-12


def criterion_11_config(tol):
    """The criterion-11 run (d=5, aW at a=0.9) at tolerance `tol`."""
    return RunConfig(dimension=5, r_max=600.0, n_nodes=1375, stretch=1.004,
                     family="aW", family_params=(("a", 0.9),), tol=tol, t_max=1e6)


class TestExtrapolation:
    def test_matches_a_tight_tolerance_run(self):
        loose = experiments.run_config(criterion_11_config(1e-5))
        tight = experiments.run_config(criterion_11_config(1e-9))
        assert loose.verdict.kind == tight.verdict.kind == evolve.DISSIPATIVE
        assert len(loose.snapshots) == len(tight.snapshots)
        h1 = np.array([s.report.h1_sq for s in loose.snapshots])
        h1_ref = np.array([s.report.h1_sq for s in tight.snapshots])
        assert np.max(np.abs(h1 / h1_ref - 1.0)) < 5e-6

    def test_a_decade_of_the_tail_takes_few_steps(self, monkeypatch):
        # the fifth-order table crosses t in [10, 100) in a few dozen steps;
        # the second-order step that preceded the extrapolation took about 800
        accepted = []
        plain_step = evolve.step

        def counting_step(state, *args, **kwargs):
            new = plain_step(state, *args, **kwargs)
            accepted.append(new.t)
            return new

        monkeypatch.setattr(evolve, "step", counting_step)
        traj = experiments.run_config(criterion_11_config(1e-5))
        assert traj.verdict.t_end > 100.0
        assert 0 < sum(10.0 <= t < 100.0 for t in accepted) <= 100


class TestStepSizeController:
    def test_blowup_row_rarely_rejects(self, monkeypatch):
        # d = 4 aW at a = 1.48 on the acceptance matrix's Blowup grid: past
        # amplitude 100 the standard controller alone rejected 147 attempts
        # for 202 accepted steps; the predictive one stops that oscillation
        substeps, accepted = [0], [0]
        plain_substep, plain_step = evolve.HeatProblem.substep, evolve.step

        def counting_substep(self, *args, **kwargs):
            substeps[0] += 1
            return plain_substep(self, *args, **kwargs)

        def counting_step(*args, **kwargs):
            new = plain_step(*args, **kwargs)
            accepted[0] += 1
            return new

        monkeypatch.setattr(evolve.HeatProblem, "substep", counting_substep)
        monkeypatch.setattr(evolve, "step", counting_step)
        grid = grid_for_span(4, 300.0, 0.01, 0.004)
        cfg = RunConfig(dimension=4, r_max=300.0, n_nodes=grid.n, stretch=grid.stretch,
                        family="aW", family_params=(("a", 1.48),), t_max=50.0)
        traj = experiments.run_config(cfg)
        assert traj.verdict.kind == evolve.BLOWUP
        attempts = substeps[0] / sum(evolve.SEQUENCE)
        assert attempts == int(attempts)
        assert accepted[0] > 0
        assert attempts - accepted[0] <= 0.05 * accepted[0]

    @given(tol=st.floats(1e-12, 1e-2), err_prev=st.floats(1e-14, 1.0),
           rise=st.floats(1.0, 1e6), dt=st.floats(1e-12, 1e3), dt_ratio=st.floats(1e-3, 1e3))
    def test_predictive_factor_never_exceeds_the_standard_one(
            self, tol, err_prev, rise, dt, dt_ratio):
        err = err_prev * rise
        standard = evolve._step_factor(tol, err)
        predictive = evolve._step_factor(tol, err, dt, (dt * dt_ratio, err_prev))
        assert 0.2 <= predictive <= standard <= 5.0
        if rise > 1.0 and dt_ratio == 1.0 and 0.2 < standard < 5.0:
            assert predictive < standard  # same dt, larger error: a smaller step

    def test_standard_factor_without_history(self):
        assert evolve._step_factor(1e-5, 0.0) == 5.0
        assert evolve._step_factor(1e-5, 1e-5) == pytest.approx(0.9)
        assert evolve._step_factor(1e-5, 1e-5, 1.0, (1.0, 0.0)) == pytest.approx(0.9)
        assert evolve._step_factor(1e-5, 1.0) == 0.2


#: the acceptance matrix's bubble grids: dimension -> outer radius
ACCEPTANCE_R = {3: 2e6, 5: 600.0, 6: 250.0}


class TestSubstep:
    @pytest.mark.parametrize("d", sorted(ACCEPTANCE_R))
    @pytest.mark.parametrize("dt", [1e-4, 0.5])
    def test_matches_solve_banded(self, d, dt):
        # the oracle is scipy's symmetric banded solver, solveh_banded: its
        # two-row path is ptsv = pttrf + pttrs, so the same bands and
        # right-hand side give the same bits
        u0, _ = make_w_data(d, ACCEPTANCE_R[d], a=0.9)
        problem = evolve.HeatProblem(u0.grid)
        u = u0.values
        m = u0.grid.n - 1
        diag, off = u0.grid.stiffness_bands
        vol = u0.grid.cell_volumes[:m]
        ab = np.zeros((2, m))
        ab[0, 1:] = dt * off
        ab[1, :] = vol + dt * diag
        rhs = (problem.nonlinear_term(u[:m]) * dt + u[:m]) * vol
        out = problem.substep(u, dt)
        assert out[:m].tobytes() == solveh_banded(ab, rhs).tobytes()
        assert out[m] == 0.0

    @pytest.mark.parametrize("nonlinearity", sorted(evolve.NONLINEARITY_SIGN))
    @pytest.mark.parametrize("d", sorted(ACCEPTANCE_R))
    def test_shared_nonlinear_term_keeps_the_bits(self, d, nonlinearity):
        # step evaluates N(u) once and hands it to the first substep of every
        # row; that must give the bits of the substep evaluating it itself
        u0, _ = make_w_data(d, ACCEPTANCE_R[d], a=0.9)
        problem = evolve.HeatProblem(u0.grid, nonlinearity)
        u = u0.values
        n_u = problem.nonlinear_term(u[:-1])
        kept = n_u.tobytes()
        for dt in (1e-4, 0.5):
            assert problem.substep(u, dt, n_u=n_u).tobytes() == problem.substep(u, dt).tobytes()
        assert n_u.tobytes() == kept

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nonlinearity", ["focusing", "defocusing"])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_nonlinear_term_matches_the_formula(self, d, nonlinearity, dtype):
        problem = evolve.HeatProblem(grid_for_span(d, 20.0, 0.05, 0.01), nonlinearity)
        rng = np.random.default_rng(d)
        u = (rng.standard_normal(2000) * 10.0 ** rng.uniform(-12, 12, 2000)).astype(dtype)
        with np.errstate(over="ignore"):
            want = problem.sign * np.abs(u) ** problem.power * u
            got = problem.nonlinear_term(u)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_factor_cache_is_keyed_on_dt(self):
        u0, _ = make_w_data(5, ACCEPTANCE_R[5], a=0.9)
        u = u0.values
        cached = evolve.HeatProblem(u0.grid)

        def fresh(v, dt):
            return evolve.HeatProblem(u0.grid).substep(v, dt).tobytes()

        for dt in (1e-3, 2e-3, 1e-3):
            assert cached.substep(u, dt).tobytes() == fresh(u, dt)
        big = cached.substep(u, 0.25)
        half = cached.substep(u, 0.125)
        small = cached.substep(half, 0.125)
        assert big.tobytes() == fresh(u, 0.25)
        assert half.tobytes() == fresh(u, 0.125)
        assert small.tobytes() == fresh(half, 0.125)

    def test_single_precision_input_is_solved(self):
        # pttrs solves a float32 right-hand side on a float64 copy; substep
        # must return that solution, not the right-hand side it built
        u0, _ = make_w_data(5, ACCEPTANCE_R[5], a=0.9)
        problem = evolve.HeatProblem(u0.grid)
        u = u0.values.astype(np.float32)
        want = problem.substep(u.astype(np.float64), 0.5)
        assert np.allclose(problem.substep(u, 0.5), want, rtol=1e-5, atol=1e-6)

    def test_overflowing_explicit_term_collapses_the_step(self):
        # |u|^4 u overflows at u = 1e80 in d = 3: every candidate is non-finite,
        # so dt shrinks until it falls below the floor
        grid = grid_for_span(3, 20.0, 0.05, 0.01)
        u = np.full(grid.n, 1e80)
        u[-1] = 0.0
        state = evolve.SolverState(t=0.0, u=RadialField(grid, u), dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(evolve.StepCollapseError):
            evolve.step(state, 1e-6, evolve.HeatProblem(grid), dt_min=1e-9)


#: runs sys.argv[1], imports critheat.evolve and then scipy.linalg.lapack, and
#: prints as JSON: whether importing evolve loaded scipy.linalg.lapack, whether
#: scipy.linalg.lapack took the _flapack module that importing evolve left in
#: sys.modules, whether both names hold the same routines, and, for each name's
#: pttrf/pttrs, the digest of a direct factor-and-solve and of two substeps on
#: a W in d = 5
LAPACK_SOURCE_SCRIPT = """
import hashlib, json, sys
import numpy as np
exec(sys.argv[1])
from critheat import evolve
loaded = "scipy.linalg.lapack" in sys.modules
flapack = sys.modules.get("scipy.linalg._flapack")
from scipy.linalg import lapack
from critheat.ground_state import aubin_talenti
from critheat.radial import grid_for_span

def digest(pttrf, pttrs):
    evolve.dpttrf, evolve.dpttrs = pttrf, pttrs
    d, e, _ = pttrf(np.linspace(2.0, 3.0, 50), np.full(49, -0.5))
    x, _ = pttrs(d, e, np.linspace(-1.0, 1.0, 50))
    grid = grid_for_span(5, 600.0, 0.01, 0.004)
    problem = evolve.HeatProblem(grid)
    u = problem.substep(problem.substep(0.9 * aubin_talenti(grid).values, 1e-3), 2e-3)
    return [hashlib.sha256(v.tobytes()).hexdigest() for v in (d, e, x, u)]

same = evolve.dpttrf is lapack.dpttrf and evolve.dpttrs is lapack.dpttrs
print(json.dumps({"package_loaded": loaded, "reused": lapack._flapack is flapack,
                  "same": same, "ours": digest(evolve.dpttrf, evolve.dpttrs),
                  "scipy": digest(lapack.dpttrf, lapack.dpttrs)}))
"""

#: runs sys.argv[1], imports critheat.spectral, takes the Hankel transform of a
#: gaussian in d = 4, then imports scipy.special, and prints as JSON: whether
#: the transform left the scipy package loaded, whether scipy.special took the
#: _special_ufuncs module the transform left in sys.modules, whether
#: scipy.special.j1 is the j1 that the transform used (order 1's routine), and
#: the digest of the transform with that j1 and with scipy.special's
JV_SOURCE_SCRIPT = """
import hashlib, json, sys
import numpy as np
exec(sys.argv[1])
from critheat import spectral
from critheat.radial import RadialField, grid_for_span
used = []
load = spectral.scipy_extension
spectral.scipy_extension = lambda name: used.append(load(name)) or used[-1]

def digest():
    grid = grid_for_span(4, 40.0, 0.01, 0.004)
    spec = spectral.hankel_spectrum(RadialField(grid, np.exp(-grid.nodes ** 2)),
                                    np.geomspace(1e-3, 10.0, 200))
    return [hashlib.sha256(spec.values.tobytes()).hexdigest()]

ours = digest()
loaded = "scipy" in sys.modules
ufuncs = sys.modules.get("scipy.special._special_ufuncs")
import scipy.special
spectral.scipy_extension = lambda name: scipy.special
print(json.dumps({"package_loaded": loaded,
                  "reused": sys.modules["scipy.special._special_ufuncs"] is ufuncs,
                  "same": scipy.special.j1 is used[0].j1, "ours": ours, "scipy": digest()}))
"""


def lapack_digest() -> str:
    grid = grid_for_span(5, 600.0, 0.01, 0.004)
    problem = evolve.HeatProblem(grid)
    u = problem.substep(problem.substep(0.9 * gs.aubin_talenti(grid).values, 1e-3), 2e-3)
    return hashlib.sha256(u.tobytes()).hexdigest()


def jv_digest() -> str:
    grid = grid_for_span(4, 40.0, 0.01, 0.004)
    spec = spectral.hankel_spectrum(RadialField(grid, np.exp(-grid.nodes ** 2)),
                                    np.geomspace(1e-3, 10.0, 200))
    return hashlib.sha256(spec.values.tobytes()).hexdigest()


#: scipy extension -> the critheat module that loads it, the import that loads
#: it through its scipy package, the script that prints what the test checks,
#: and this process's digest of the last thing that script digests
EXTENSION_SOURCES = {
    "linalg._flapack": ("evolve", "import scipy.linalg.lapack", LAPACK_SOURCE_SCRIPT,
                        lapack_digest),
    "special._special_ufuncs": ("spectral", "import scipy.special", JV_SOURCE_SCRIPT,
                                jv_digest),
}


def source_preludes(extension: str) -> dict[str, str]:
    """Code run before importing critheat: the two import orders, then the
    three ways the lookup of `extension` can fail."""
    owner, package_import = EXTENSION_SOURCES[extension][:2]
    return {
        f"{owner}_first": "",
        "scipy_first": package_import,
        "no_scipy_spec": """
import importlib.util
find = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: None if name == "scipy" else find(name, *a)
""",
        "no_extension_file": """
import importlib.machinery, importlib.util
find = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: (
    importlib.machinery.ModuleSpec("scipy", None, is_package=True) if name == "scipy"
    else find(name, *a))
""",
        "load_fails": f"""
from importlib.machinery import ExtensionFileLoader
create = ExtensionFileLoader.create_module
def refuse_once(self, spec):
    if spec.name != "scipy.{extension}":
        return create(self, spec)
    ExtensionFileLoader.create_module = create
    raise ImportError("refused")
ExtensionFileLoader.create_module = refuse_once
""",
    }


#: (extension, prelude) pairs; _flapack's keep the bare prelude as their id
SOURCE_CASES = [
    pytest.param(extension, prelude,
                 id=prelude if extension == "linalg._flapack" else f"jv-{prelude}")
    for extension in EXTENSION_SOURCES for prelude in sorted(source_preludes(extension))
]


class TestLapackSource:
    @pytest.mark.parametrize("extension, prelude", SOURCE_CASES)
    def test_every_source_gives_the_same_bits(self, extension, prelude):
        # evolve loads pttrf/pttrs from scipy's _flapack extension, and a
        # Hankel transform j1 from its _special_ufuncs, without importing
        # their scipy packages, and by importing them when that fails; either
        # way, and in either import order, the package and critheat hold the
        # same objects, with the same bits as this process's
        owner, _, script, want = EXTENSION_SOURCES[extension]
        src = Path(evolve.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, source_preludes(extension)[prelude]],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120, check=True,
        )
        got = json.loads(proc.stdout)
        assert got["package_loaded"] == (prelude != f"{owner}_first")
        assert got["reused"]
        assert got["same"]
        assert got["ours"] == got["scipy"]
        assert got["ours"][-1] == want()


class TestLinearMode:
    def test_matches_gaussian_heat_kernel(self):
        # closed-form oracle: e^{tLap} exp(-r^2/(4a)) = (a/(a+t))^{d/2} exp(-r^2/(4(a+t)))
        grid = grid_for_span(3, 30.0, 0.01, 0.002)
        a0 = 0.25
        u0 = RadialField(grid, np.exp(-grid.nodes**2 / (4 * a0)))
        traj = evolve.run_flow(
            u0,
            FlowSettings(t_max=1.0, tol=1e-7, dt_init=1e-6, nonlinearity="off",
                         forced_times=(1.0,)),
            threshold_guard=False,
        )
        got = traj.checkpoint_at(1.0).field.values
        want = (a0 / (a0 + 1.0)) ** 1.5 * np.exp(-grid.nodes**2 / (4 * (a0 + 1.0)))
        rel = math.sqrt(
            fn.l2_norm_sq(RadialField(grid, got - want)) / fn.l2_norm_sq(RadialField(grid, want))
        )
        assert rel < 1e-4


class TestStationarity:
    def test_bubble_drift_small(self):
        grid = grid_for_span(5, 3000.0, 0.0008, 0.0003)
        w = gs.aubin_talenti(grid)
        u0 = w.copy()
        u0.values[-1] = 0.0
        traj = evolve.run_flow(u0, FlowSettings(t_max=1.0, tol=1e-6, dt_init=1e-6,
                                                forced_times=(1.0,)), threshold_guard=False)
        diff = RadialField(grid, traj.checkpoint_at(1.0).field.values - w.values)
        drift = math.sqrt(fn.h1_norm_sq(diff) / fn.h1_norm_sq(w))
        assert drift <= 1e-3

    def test_bubble_never_reaches_a_verdict(self):
        u0, _ = make_w_data(5, 2000.0, h0=0.0025, eps=0.001)
        traj = evolve.run_flow(u0, FlowSettings(t_max=1.5, tol=1e-6, dt_init=1e-6),
                               threshold_guard=False)
        assert traj.verdict.kind == evolve.UNDECIDED
        assert traj.verdict.detail["reason"] == "t_max_reached"

    def test_at_threshold_guard(self):
        # the band is at least twice the bias of E(W) on the run grid, so the
        # bubble sampled on that grid sits inside it
        u0, _ = make_w_data(5, 600.0, a=1.0, h0=0.004, eps=0.0015)
        traj = evolve.run_flow(u0, FlowSettings(t_max=5.0, tol=1e-5, dt_init=1e-5))
        assert traj.verdict.kind == evolve.UNDECIDED
        assert traj.verdict.detail["reason"] == "at_threshold"


class TestDetectors:
    def test_dissipation_fires_for_zero_data(self):
        grid = grid_for_span(4, 20.0, 0.05, 0.01)
        u0 = RadialField(grid, np.zeros(grid.n))
        traj = evolve.run_flow(u0, FlowSettings(t_max=10.0, tol=1e-6, dt_init=1e-4),
                               threshold_guard=False)
        assert traj.verdict.kind == evolve.DISSIPATIVE
        assert traj.snapshots[-1].t < 10.0  # fired at the first cadence, not t_max

    def test_dissipative_run_subthreshold(self):
        u0, _ = make_w_data(4, 5000.0, a=0.5)
        traj = evolve.run_flow(u0, FlowSettings(t_max=3e6, tol=1e-5, dt_init=1e-5))
        assert traj.verdict.kind == evolve.DISSIPATIVE
        final = traj.snapshots[-1].report.h1_sq
        assert final <= 1e-6 * traj.initial_h1_sq
        # stable-set invariance: no Nehari sign-change events, J >= 0 throughout
        assert all(kind != "nehari_sign_change" for _, kind in traj.events)
        assert all(s.report.nehari >= -1e-8 * traj.initial_h1_sq for s in traj.snapshots)

    def test_blowup_run_superthreshold(self):
        u0, _ = make_w_data(5, 600.0, a=1.2)
        traj = evolve.run_flow(u0, FlowSettings(t_max=50.0, tol=1e-5, dt_init=1e-5))
        assert traj.verdict.kind == evolve.BLOWUP
        lo, hi = traj.verdict.detail["t_bracket"]
        assert lo <= traj.verdict.t_end <= hi
        assert traj.verdict.detail["nehari_negative_persisted"]
        assert all(s.report.nehari < 0 for s in traj.snapshots[:-1])

    def test_blowup_amp_cap_immediate(self):
        # amplitude beyond the cap is a blowup signature even at step one
        grid = grid_for_span(5, 100.0, 0.05, 0.01)
        u0 = RadialField(grid, 1e9 * np.exp(-grid.nodes**2))
        u0.values[-1] = 0.0
        traj = evolve.run_flow(u0, FlowSettings(t_max=1.0, tol=1e-5, dt_init=1e-8),
                               threshold_guard=False)
        assert traj.verdict.kind == evolve.BLOWUP

    @pytest.mark.parametrize("amp, bad", [(1.0, np.nan), (1.0, np.inf), (1e120, None)])
    def test_unusable_initial_data_raises(self, amp, bad):
        # a u0 made non-finite after construction, or one whose |u0|^{2*}
        # overflows (amplitude 1e120 in d = 5), is refused, not given a verdict
        grid = grid_for_span(5, 100.0, 0.05, 0.01)
        u0 = RadialField(grid, amp * np.exp(-grid.nodes**2))
        if bad is not None:
            u0.values[3] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(CorruptionError):
            evolve.run_flow(u0, FlowSettings(t_max=1.0), threshold_guard=False)

    @pytest.mark.parametrize("amp_cap", [1e300])
    def test_snapshot_at_blowup_detection_that_fails_is_corruption(self, amp_cap):
        # 1.5 W in d = 3 reaches an amplitude of 5e49 when its step collapses
        # at t = 0.0202, below amp_cap 1e300: the step-collapse snapshot, whose
        # ||grad u||^2 the detector needs, is not finite
        grid = make_grid(3, 20.0, 120, 1.02)
        u0 = families.build_initial("aW", {"a": 1.5}, grid)
        settings = FlowSettings(t_max=1.0, dt_min=1e-200, amp_cap=amp_cap)
        traj = evolve.run_flow(u0, settings)
        assert traj.verdict.kind == evolve.UNDECIDED
        assert traj.verdict.detail == {"reason": "corruption"}
        t_end = traj.verdict.t_end
        assert 0.02 < t_end < 0.021
        # only the snapshots taken before the failure: t = 0 and the ladder's times
        assert [s.t for s in traj.snapshots] == [
            0.0, *(t for t in evolve.snapshot_ladder(settings) if t < t_end)]

    @pytest.mark.parametrize("amp_cap", [1e45, 1e46, 1e48])
    def test_blowup_past_amp_cap_whose_snapshot_fails(self, monkeypatch, amp_cap):
        # the same run past amp_cap: the detector fires before the snapshot, which
        # is not finite, so the run ends Blowup without it, and Nehari's sign is
        # read on every snapshot, none of them the detection one
        grid = make_grid(3, 20.0, 120, 1.02)
        u0 = families.build_initial("aW", {"a": 1.5}, grid)
        settings = FlowSettings(t_max=1.0, dt_min=1e-200, amp_cap=amp_cap)
        read = []
        persisted = evolve._nehari_persisted_negative
        monkeypatch.setattr(evolve, "_nehari_persisted_negative",
                            lambda before: read.append(list(before)) or persisted(before))
        traj = evolve.run_flow(u0, settings)
        assert traj.verdict.kind == evolve.BLOWUP
        t_end = traj.verdict.t_end
        assert 0.02 < t_end < 0.021
        assert traj.verdict.detail["amplitude"] > amp_cap
        assert traj.verdict.detail["nehari_negative_persisted"]
        assert [s.t for s in traj.snapshots] == [
            0.0, *(t for t in evolve.snapshot_ladder(settings) if t < t_end)]
        assert read == [traj.snapshots]

    @pytest.mark.parametrize("settings, key", [
        (FlowSettings(t_max=1.0, snapshot_first=5e-324), "snapshots.first"),
        (FlowSettings(t_max=1.0, snapshot_factor=1.0000000001), "snapshots.factor"),
        (FlowSettings(t_max=1.0, snapshot_first=1e-13), "integrator.dt_min"),
        (FlowSettings(t_max=1.0, forced_times=(0.5, 0.5 + 1e-13)), "integrator.dt_min"),
        (FlowSettings(t_max=1.0, dt_init=1e-13), "integrator.dt_init"),
    ])
    def test_refused_ladder_raises_before_any_work(self, settings, key):
        # the t = 0 snapshot of this u0 would raise CorruptionError
        grid = grid_for_span(5, 100.0, 0.05, 0.01)
        u0 = RadialField(grid, np.exp(-grid.nodes**2))
        u0.values[3] = np.nan
        with pytest.raises(ValueError, match=rf"^{key}: "):
            evolve.run_flow(u0, settings)

    def test_overflowing_integrals_are_refused_quietly(self):
        # |u0|^{2*} of this d = 5 gaussian is finite at every node, but its
        # integral overflows; so do ||grad v||^2 and ||v||^2 of v = +-1e150.
        # Each is refused as corruption, without numpy's overflow warnings.
        grid = make_grid(5, 100.0, 400, 1.01)
        u0 = families.build_initial("gaussian", {"amp": 3e90, "width": 30.0}, grid)
        assert np.isfinite(np.abs(u0.values) ** fn.crit_exponent(5)).all()
        v = RadialField(grid, np.where(np.arange(grid.n) % 2, 1e150, -1e150))
        refused = [
            lambda: fn.l2star_power(u0),
            lambda: fn.kq_weight(1.0, u0),
            lambda: fn.energy(u0),
            lambda: fn.energy_report(u0),
            lambda: evolve.HeatProblem(grid).form_energy(u0.values, fn.h1_norm_sq(u0)),
            lambda: evolve.run_flow(u0, FlowSettings(t_max=1.0)),
            lambda: fn.h1_norm_sq(v),
            lambda: fn.l2_norm_sq(v),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for integral in refused:
                with pytest.raises(CorruptionError):
                    integral()


class TestEnergyBookkeeping:
    def test_identity_residual_stationary(self):
        u0, _ = make_w_data(5, 2000.0, h0=0.0025, eps=0.001)
        traj = evolve.run_flow(u0, FlowSettings(t_max=1.0, tol=1e-6, dt_init=1e-6,
                                                forced_times=(0.1, 1.0)), threshold_guard=False)
        res = evolve.energy_identity_residual(traj, 0.1, 1.0)
        d_tally = traj.checkpoint_at(1.0).dissipation - traj.checkpoint_at(0.1).dissipation
        scale = abs(traj.snapshots[0].form_energy)
        assert res < 1e-5 * scale
        assert d_tally < 1e-4 * scale  # stationary up to the discretization residual

    def test_energy_rise_past_the_slack_is_refused(self):
        # hand-built checkpoints at t = 1 and 2 whose solver-frame energy rises
        grid = make_grid(4, 5.0, 32, 1.0)
        zero = RadialField(grid, np.zeros(grid.n))

        def rising_to(e1: float) -> evolve.Trajectory:
            traj = evolve.Trajectory(grid=grid)
            for t, energy, dissipation in ((1.0, 1.0, 0.0), (2.0, e1, 0.25)):
                traj.snapshots.append(evolve.Snapshot(
                    t=t, report=fn.energy_report(zero), kq=0.0, dt=0.1,
                    dissipation=dissipation, form_energy=energy, field=zero))
            return traj

        slack = evolve.ENERGY_SLACK_REL  # of max(|E(t0)|, |E(0)|) = 1
        with pytest.raises(evolve.EnergyMonotonicityError, match="E increased"):
            evolve.energy_identity_residual(rising_to(1.0 + 2.0 * slack), 1.0, 2.0)
        inside = 1.0 + 0.5 * slack
        assert evolve.energy_identity_residual(rising_to(inside), 1.0, 2.0) == abs(
            inside + 0.25 - 1.0)

    def test_identity_residual_dissipative_and_refinement(self):
        grid = grid_for_span(4, 400.0, 0.005, 0.002)
        w = gs.aubin_talenti(grid)
        u0 = RadialField(grid, 0.8 * w.values)
        u0.values[-1] = 0.0
        residuals = {}
        for tol in (1e-5, 5e-6):
            traj = evolve.run_flow(u0, FlowSettings(t_max=1.0, tol=tol, dt_init=1e-6,
                                                    forced_times=(0.1, 1.0)), threshold_guard=False)
            residuals[tol] = evolve.energy_identity_residual(traj, 0.1, 1.0)
        e_ref = abs(traj.checkpoint_at(0.1).form_energy)
        assert residuals[1e-5] <= 1e-3 * e_ref
        assert residuals[1e-5] / residuals[5e-6] >= 1.5

    def test_missing_checkpoint(self):
        u0, _ = make_w_data(4, 400.0, a=0.8)
        traj = evolve.run_flow(u0, FlowSettings(t_max=0.5, tol=1e-5, dt_init=1e-5,
                                                checkpoint_every=10**6))
        with pytest.raises(evolve.MissingCheckpointError):
            evolve.energy_identity_residual(traj, 0.1, 0.4)

    def test_energy_nonincreasing_across_runs(self):
        u0, _ = make_w_data(4, 400.0, a=0.8)
        traj = evolve.run_flow(u0, FlowSettings(t_max=10.0, tol=1e-5, dt_init=1e-5))
        assert evolve.energy_nonincreasing(traj)


class TestFlowInvariants:
    def test_positivity_preserved(self):
        grid = grid_for_span(4, 160.0, 0.01, 0.004)
        u0 = families.build_initial("gaussian", {"amp": 0.05, "width": 1.0}, grid)
        traj = evolve.run_flow(u0, FlowSettings(t_max=100.0, tol=1e-5, dt_init=1e-6,
                                                checkpoint_every=2))
        floor = -1e-8 * float(np.max(u0.values))
        for snap in traj.snapshots:
            if snap.field is not None:
                assert float(snap.field.values.min()) >= floor

    def test_l2_balance_against_nehari(self):
        # d(1/2 ||u||^2)/dt = -J(u), checked between close snapshots
        grid = grid_for_span(4, 60.0, 0.01, 0.004)
        u0 = families.build_initial("gaussian", {"amp": 0.3, "width": 1.0}, grid)
        traj = evolve.run_flow(u0, FlowSettings(t_max=2.0, tol=1e-7, dt_init=1e-7,
                                                snapshot_first=0.25, snapshot_factor=1.05),
                               threshold_guard=False)
        snaps = [s for s in traj.snapshots if s.t >= 0.25]
        assert len(snaps) > 10
        for s1, s2 in zip(snaps[:-1], snaps[1:]):
            lhs = 0.5 * (s2.report.l2_sq - s1.report.l2_sq) / (s2.t - s1.t)
            rhs = -0.5 * (s1.report.nehari + s2.report.nehari)
            assert lhs == pytest.approx(rhs, rel=0.02, abs=1e-8)

    def test_lyapunov_tail_exists_on_dissipative_run(self):
        u0, _ = make_w_data(4, 5000.0, a=0.9)
        traj = evolve.run_flow(u0, FlowSettings(t_max=3e6, tol=1e-5, dt_init=1e-5))
        idx = evolve.lyapunov_tail_index(traj)
        assert idx is not None

    def test_defocusing_mode_dissipates(self):
        u0, _ = make_w_data(5, 600.0, a=1.2)
        traj = evolve.run_flow(u0, FlowSettings(t_max=1e5, tol=1e-5, dt_init=1e-5,
                                                nonlinearity="defocusing"), threshold_guard=False)
        assert traj.verdict.kind == evolve.DISSIPATIVE
