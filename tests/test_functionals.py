import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critheat import functionals as fn
from critheat import ground_state as gs
from critheat.radial import RadialField, grid_for_span, make_grid

from test_ground_state import closed_form_grad_sq


@pytest.fixture(scope="module")
def bubble5():
    grid = gs.default_grid(5)
    return gs.aubin_talenti(grid)


@pytest.fixture(scope="module")
def e_w5(bubble5):
    return fn.energy(bubble5)


def scaled(w, a):
    return RadialField(w.grid, a * w.values)


def nehari(u):
    """J(u) as every energy report carries it."""
    return fn.energy_report(u).nehari


class TestEnergyAndNehari:
    def test_zero_field(self):
        grid = make_grid(4, 5.0, 32, 1.0)
        zero = RadialField(grid, np.zeros(grid.n))
        assert fn.energy(zero) == 0.0
        assert nehari(zero) == 0.0

    def test_energy_of_bubble_is_minimization_value(self, bubble5):
        assert fn.energy(bubble5) == pytest.approx(fn.h1_norm_sq(bubble5) / 5, rel=1e-5)

    def test_energy_of_scaled_bubble(self, bubble5):
        # E(1.2 W) = grad^2 (0.72 - 0.3 * 1.2^{10/3}) in d = 5, below E(W)
        grad = closed_form_grad_sq(5)
        got = fn.energy(scaled(bubble5, 1.2))
        want = grad * (0.72 - 0.3 * 1.2 ** (10 / 3))
        assert got == pytest.approx(want, rel=2e-4)
        assert got < grad / 5

    def test_nehari_signs(self, bubble5):
        grad = closed_form_grad_sq(5)
        two_star = 10 / 3
        j_half = nehari(scaled(bubble5, 0.5))
        assert j_half == pytest.approx(grad * (0.25 - 0.5**two_star), rel=2e-4)
        assert j_half > 0
        assert nehari(scaled(bubble5, 1.5)) < 0
        assert abs(nehari(bubble5)) < 1e-5 * grad

    def test_report_identities_exact(self, bubble5):
        rep = fn.energy_report(scaled(bubble5, 0.8))
        assert rep.energy == 0.5 * rep.h1_sq - rep.l2star_pow / fn.crit_exponent(5)
        assert rep.nehari == rep.h1_sq - rep.l2star_pow


class TestGradient:
    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_h1_is_the_dirichlet_form_the_flow_dissipates(self, d):
        # one discrete gradient: the reported ||grad u||^2 is u K u for the
        # solver's stiffness K (u = 0 at R), which the energy identity uses
        grid = grid_for_span(d, 40.0, 0.01, 0.004)
        u = RadialField(grid, np.exp(-grid.nodes**2 / 4) * np.cos(grid.nodes))
        v = u.values[:-1]
        k_diag, k_off = grid.stiffness_bands
        form = v @ (k_diag * v) + 2.0 * v[:-1] @ (k_off * v[1:])
        assert fn.h1_norm_sq(u) == pytest.approx(form, rel=1e-9)

    def test_second_order_convergence(self):
        # ||grad e^{-r^2}||^2 in d = 3 is 16 pi int r^4 e^{-2 r^2} dr = 6 pi sqrt(pi/32);
        # the tail beyond R = 6 is below e^{-70}
        exact = 6 * math.pi * math.sqrt(math.pi / 32)
        errs = []
        for n in (101, 201, 401):
            g = make_grid(3, 6.0, n, 1.0)
            errs.append(abs(fn.h1_norm_sq(RadialField(g, np.exp(-g.nodes**2))) - exact))
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert 1.8 <= rate1 <= 2.2
        assert 1.8 <= rate2 <= 2.2


def placed(u, e_w):
    """classify_set on u's t = 0 report against the same-grid bubble."""
    w = gs.aubin_talenti(u.grid)
    return fn.classify_set(fn.energy_report(u), e_w, fn.h1_norm_sq(w),
                           fn.threshold_band(e_w, e_w))


class TestClassification:
    def test_stable_set(self, bubble5, e_w5):
        m = placed(scaled(bubble5, 0.9), e_w5)
        assert m.verdict == fn.MPLUS
        assert m.margin > 0

    def test_unstable_set(self, bubble5, e_w5):
        m = placed(scaled(bubble5, 1.2), e_w5)
        assert m.verdict == fn.MMINUS

    def test_threshold(self, bubble5, e_w5):
        assert placed(bubble5, e_w5).verdict == fn.AT_THRESHOLD

    def test_above_threshold(self, bubble5, e_w5):
        # narrow spike: gradient term dominates, energy lands above E(W)
        grid = bubble5.grid
        probe = RadialField(grid, np.exp(-((grid.nodes / 0.2) ** 2)))
        amp = math.sqrt(4.0 * e_w5 / fn.h1_norm_sq(probe))
        spike = RadialField(grid, amp * probe.values)
        m = placed(spike, e_w5)
        assert m.verdict == fn.ABOVE_THRESHOLD

    @pytest.mark.parametrize("energy, h1_sq, l2_sq, verdict, branch", [
        (0.5, 0.25, 1.0, fn.MPLUS, "I"),
        (0.5, 4.0, 1.0, fn.MMINUS, "II"),
        (0.5, 4.0, None, fn.MMINUS, "none"),  # no finite L2: branch II's hypothesis fails
        (0.5, 1.0, 1.0, fn.MMINUS, "none"),  # gradient ratio exactly 1
        (0.75, 0.25, 1.0, fn.AT_THRESHOLD, "none"),  # margin == band, below E(W)
        (1.25, 4.0, 1.0, fn.AT_THRESHOLD, "none"),  # margin == band, above E(W)
        (1.5, 4.0, 1.0, fn.ABOVE_THRESHOLD, "none"),
    ])
    def test_placements(self, energy, h1_sq, l2_sq, verdict, branch):
        # E(W) = 1, ||grad W||^2 = 1, band 0.25: every margin here is exact in binary
        rep = fn.EnergyReport(h1_sq=h1_sq, l2star_pow=0.0, energy=energy, nehari=0.0,
                              l2_sq=l2_sq)
        m = fn.classify_set(rep, 1.0, 1.0, 0.25)
        assert (m.verdict, m.branch) == (verdict, branch)
        assert m.margin == abs(energy - 1.0)
        assert m.e_ratio == energy
        assert m.grad_ratio == math.sqrt(h1_sq)

    @given(a=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_sign_equivalence_on_subthreshold_slab(self, a):
        # for E(u) < E(W): J(u) >= 0 iff ||grad u|| < ||grad W||
        grid = gs.default_grid(5)
        w = gs.aubin_talenti(grid)
        e_w = fn.energy(w)
        u = RadialField(grid, a * w.values)
        if abs(fn.energy(u) - e_w) < 1e-4 * e_w or abs(a - 1.0) < 1e-3:
            return  # threshold band is ill-conditioned by construction
        if fn.energy(u) >= e_w:
            return
        grad_ok = fn.h1_norm_sq(u) < closed_form_grad_sq(5)
        assert (nehari(u) >= 0) == grad_ok

    def test_sign_equivalence_for_bumps(self, e_w5, bubble5):
        grid = bubble5.grid
        r = grid.nodes
        bump = RadialField(grid, 0.4 * np.exp(-((r - 2.0) ** 2)) + 0.4 * np.exp(-((r + 2.0) ** 2)))
        assert fn.energy(bump) < e_w5
        assert (nehari(bump) >= 0) == (fn.h1_norm_sq(bump) < closed_form_grad_sq(5))


class TestScaleInvariance:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_energy_and_nehari_invariant(self, lam):
        # u_lam(r) = lam^{-(d-2)/2} u(r/lam), sampled from each closed form
        d = 4
        grid = gs.default_grid(d)
        r = grid.nodes

        def gauss(lam):
            return 0.3 * lam ** (-(d - 2) / 2) * np.exp(-((r / lam) ** 2))

        pairs = [(c * gs.bubble_values(d, r), c * gs.bubble_values(d, r, lam)) for c in (1.0, 0.7)]
        pairs.append((gauss(1.0), gauss(lam)))
        scale = closed_form_grad_sq(d)
        for a, b in pairs:
            u, v = RadialField(grid, a), RadialField(grid, b)
            assert abs(fn.energy(v) - fn.energy(u)) <= 1e-5 * scale
            assert abs(nehari(v) - nehari(u)) <= 1e-5 * scale


class TestWeightedNorm:
    def test_zero_field(self):
        grid = make_grid(4, 5.0, 32, 1.0)
        zero = RadialField(grid, np.zeros(grid.n))
        assert fn.kq_weight(1.0, zero) == 0.0

    def test_admissible_window_d4(self):
        # 1/4 - 1/12 < 1/5 < 1/4, so q = 5 is admissible in d = 4
        lo, hi = fn.kq_inv_window(4)
        assert lo < 1 / 5 < hi
        grid = grid_for_span(4, 20.0, 0.01, 0.005)
        u = RadialField(grid, np.exp(-grid.nodes**2))
        assert np.isfinite(fn.kq_weight(1.0, u))

    def test_d3_window_is_narrower(self):
        lo3, hi3 = fn.kq_inv_window(3)
        assert lo3 == pytest.approx(1 / 6 - 1 / 24)

    def test_default_q_is_window_midpoint(self):
        for d in (3, 4, 5, 6, 11):
            lo, hi = fn.kq_inv_window(d)
            assert lo < 1.0 / fn.default_q(d) < hi
            assert 1.0 / fn.default_q(d) == pytest.approx(0.5 * (lo + hi))

    def test_scaling_homogeneity_degree_zero(self):
        # weight(lam^2 t, u_lam) = weight(t, u) under the natural scaling,
        # checked on a heat-evolved gaussian profile (closed form at time t)
        d, t = 4, 0.7
        grid = grid_for_span(d, 60.0, 0.005, 0.002)
        a0 = 0.5

        def profile(lam):
            # lam^{-(d-2)/2} u(r/lam) for u(r) = (a0/(a0+t))^{d/2} exp(-r^2/(4(a0+t)))
            x = grid.nodes / lam
            return RadialField(grid, lam ** (-(d - 2) / 2) * (a0 / (a0 + t)) ** (d / 2)
                               * np.exp(-x**2 / (4 * (a0 + t))))

        base = fn.kq_weight(t, profile(1.0))
        for lam in (0.5, 2.0):
            assert fn.kq_weight(lam**2 * t, profile(lam)) == pytest.approx(base, rel=1e-5)


class TestL2Reporting:
    def test_bubble_not_square_integrable_below_d5(self):
        for d in (3, 4):
            grid = gs.default_grid(d)
            w = gs.aubin_talenti(grid)
            assert fn.energy_report(w).l2_sq is None

    def test_bubble_square_integrable_from_d5(self):
        grid = gs.default_grid(5)
        w = gs.aubin_talenti(grid)
        assert fn.energy_report(w).l2_sq is not None

    def test_gaussian_always_reported(self):
        grid = grid_for_span(3, 30.0, 0.01, 0.005)
        u = RadialField(grid, np.exp(-grid.nodes**2))
        rep = fn.energy_report(u)
        assert rep.l2_sq == pytest.approx((math.pi / 2) ** 1.5, rel=1e-5)
