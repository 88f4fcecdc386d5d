import math

import numpy as np
import pytest

from critheat import functionals as fn
from critheat import ground_state as gs
from critheat.radial import RadialField, make_grid, sphere_area


def closed_form_grad_sq(d: int) -> float:
    """Independent oracle: ||grad W||^2 = pi^{d/2} (d(d-2))^{d/2} Gamma(d/2)/Gamma(d),
    from the Beta integral int r^{d-1}(1+r^2)^{-d} dr = Gamma(d/2)^2/(2 Gamma(d))."""
    return math.pi ** (d / 2) * (d * (d - 2)) ** (d / 2) * math.gamma(d / 2) / math.gamma(d)


class TestBubble:
    def test_peak_values(self):
        grid4 = make_grid(4, 10.0, 64, 1.0)
        w4 = gs.aubin_talenti(grid4)
        assert w4.values[0] == pytest.approx(math.sqrt(8.0), rel=1e-14)
        grid3 = make_grid(3, 10.0, 64, 1.0)
        w3 = gs.aubin_talenti(grid3)
        assert w3.values[0] == pytest.approx(3.0**0.25, rel=1e-14)

    def test_far_field_power_law(self):
        grid = make_grid(5, 500.0, 1024, 1.01)
        w = gs.aubin_talenti(grid)
        r = grid.nodes[-1]
        amp = (5 * 3) ** (3 / 4)
        assert w.values[-1] * r**3 == pytest.approx(amp, rel=1e-4)

    def test_largest_dimension_is_the_last_finite_gradient_norm(self):
        assert math.isfinite(gs.grad_norm_sq_closed_form(gs.MAX_DIMENSION))
        assert gs.grad_norm_sq_closed_form(gs.MAX_DIMENSION + 1) == math.inf

    def test_spec_validation(self):
        # the bubble takes its dimension from the grid, which refuses d < 3
        with pytest.raises(ValueError):
            make_grid(2, 5.0, 32, 1.0)


class TestPohozaev:
    def test_residual_small_on_fine_grid(self):
        grid = make_grid(5, 200.0, 4097, 1.002)
        w = gs.aubin_talenti(grid)
        res = gs.pohozaev_residual(w)
        assert abs(res) / fn.h1_norm_sq(w) < 1e-4

    def test_zero_field(self):
        grid = make_grid(4, 5.0, 32, 1.0)
        assert gs.pohozaev_residual(RadialField(grid, np.zeros(grid.n))) == 0.0

    def test_scaled_bubble_sign(self):
        # residual of a*W is grad^2 (a^2 - a^{2*}) > 0 for a < 1
        grid = gs.default_grid(5)
        w = gs.aubin_talenti(grid)
        half = RadialField(grid, 0.5 * w.values)
        want = closed_form_grad_sq(5) * (0.25 - 0.5 ** (10 / 3))
        assert gs.pohozaev_residual(half) == pytest.approx(want, rel=1e-4)
        assert gs.pohozaev_residual(half) > 0


def rescaled_bubble(grid, lam):
    """W_lam = lam^{-(d-2)/2} W(./lam) sampled on the grid."""
    return RadialField(grid, gs.bubble_values(grid.d, grid.nodes, lam))


def bubble_energy(grid, lam=1.0):
    """E(W_lam) by quadrature on the grid."""
    return fn.energy(rescaled_bubble(grid, lam))


class TestGroundStateEnergy:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_closed_form(self, d):
        grid = gs.default_grid(d)
        e = bubble_energy(grid)
        assert e == pytest.approx(closed_form_grad_sq(d) / d, rel=1e-4)
        # the minimization value ||grad W||^2 / d on the same grid
        w = gs.aubin_talenti(grid)
        assert e == pytest.approx(fn.h1_norm_sq(w) / d, rel=1e-4)
        assert e > 0

    def test_d4_value(self):
        # E(W) = ||grad W||^2 / 4 = 8 pi^2 / 3 in d = 4
        e = bubble_energy(gs.default_grid(4))
        assert e == pytest.approx(8 * math.pi**2 / 3, rel=1e-5)

    def test_scale_invariance(self):
        grid = gs.default_grid(4)
        assert bubble_energy(grid, lam=3.0) == pytest.approx(bubble_energy(grid), rel=1e-4)


class TestRescale:
    """The scaling family W_lam = lam^{-(d-2)/2} W(./lam), sampled exactly."""

    def test_identity(self):
        grid = gs.default_grid(4)
        w = gs.aubin_talenti(grid)
        assert np.array_equal(gs.bubble_values(4, grid.nodes, 1.0), w.values)

    def test_energy_preserved_quadrature_tolerance_d3(self):
        grid = gs.default_grid(3)
        assert bubble_energy(grid, lam=2.0) == pytest.approx(bubble_energy(grid), rel=1e-6)

    @pytest.mark.parametrize("d", [4, 5])
    def test_energy_preserved_higher_d(self, d):
        # order-2 gradient quadrature: 1e-5 is the measured tolerance here
        grid = gs.default_grid(d)
        assert bubble_energy(grid, lam=2.0) == pytest.approx(bubble_energy(grid), rel=1e-5)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_nehari_stays_zero(self, lam):
        grid = gs.default_grid(4)
        w = gs.aubin_talenti(grid)
        j = gs.pohozaev_residual(rescaled_bubble(grid, lam))
        assert abs(j) < 1e-4 * fn.h1_norm_sq(w)

    def test_matches_exact_rescaled_samples(self):
        r = gs.default_grid(5).nodes
        got = 2.0 ** -1.5 * gs.bubble_values(5, r / 2.0)
        want = gs.bubble_values(5, r, 2.0)
        assert np.max(np.abs(got - want)) < 1e-7 * gs.bubble_amplitude(5)


class TestBubbleIdentities:
    def test_nehari_vanishes(self):
        grid = gs.default_grid(5)
        w = gs.aubin_talenti(grid)
        assert abs(gs.pohozaev_residual(w)) < 1e-5 * fn.h1_norm_sq(w)

    def test_energy_of_scalar_multiples(self):
        # E(aW) = grad^2 (a^2/2 - a^{2*}/2*), maximized at a = 1
        d = 5
        grid = gs.default_grid(d)
        w = gs.aubin_talenti(grid)
        grad = closed_form_grad_sq(d)
        two_star = 2 * d / (d - 2)
        energies = {}
        for a in (0.5, 0.9, 1.0, 1.1, 1.5):
            e = fn.energy(RadialField(grid, a * w.values))
            want = grad * (a**2 / 2 - a**two_star / two_star)
            assert e == pytest.approx(want, rel=2e-4, abs=1e-6 * grad)
            energies[a] = e
        assert max(energies, key=energies.get) == 1.0

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 10])
    def test_truncation_control(self, d):
        # analytic gradient tail beyond the default radius stays below 1e-6
        grid = gs.default_grid(d)
        amp_sq = gs.bubble_amplitude(d) ** 2
        tail = sphere_area(d) * amp_sq * (d - 2) * grid.rmax ** (2 - d)
        assert tail / closed_form_grad_sq(d) < 1e-6
