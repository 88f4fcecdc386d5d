import math
import sys
import threading
import types
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from critheat import experiments, families
from critheat import functionals as fn
from critheat import _extensions
from critheat import spectral as sp
from critheat._extensions import scipy_extension
from critheat.radial import RadialField, RadialGrid, grid_for_span, make_grid, sphere_area


class TestLowFreqMass:
    def test_flat_spectrum_d3(self):
        # |vhat| = 1 near 0 gives the ball volume (4 pi / 3) rho^3
        spec = sp.power_spectrum(3, k=0.0)
        for rho in (1e-3, 1e-2):
            assert sp.low_freq_mass(spec, rho) == pytest.approx(4 * math.pi / 3 * rho**3, rel=1e-9)

    def test_linear_spectrum_d3(self):
        spec = sp.power_spectrum(3, k=1.0)
        rho = 0.02
        assert sp.low_freq_mass(spec, rho) == pytest.approx(4 * math.pi * rho**5 / 5, rel=1e-9)

    @pytest.mark.parametrize("d, k", [(5, 0.0), (4, 2.0)])
    def test_monomial_spectrum(self, d, k):
        # vhat = s^k: F(rho) = omega_{d-1} rho^{2k+d} / (2k+d) exactly
        spec = sp.power_spectrum(d, k=k)
        for rho in (1e-3, 1e-2, 1e-1):
            want = sphere_area(d) * rho ** (2 * k + d) / (2 * k + d)
            assert sp.low_freq_mass(spec, rho) == pytest.approx(want, rel=1e-9)

    def test_gaussian_matches_ball_volume_at_small_rho(self):
        # leading Taylor correction is (6/5) rho^2 of the ball volume
        spec = sp.gaussian_spectrum(3)
        rho = 0.005
        vol = sphere_area(3) / 3 * rho**3
        assert sp.low_freq_mass(spec, rho) == pytest.approx(vol, rel=1e-4)

    @pytest.mark.parametrize("rho", [1e-5, 1e-4, 5e-4])
    def test_tabulated_below_first_node_is_the_ball_volume(self, rho):
        # a flat table from s = 1e-3: below its first node F(rho) still falls like rho^3
        s = np.geomspace(1e-3, 1.0, 50)
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=np.ones(s.size))
        assert sp.low_freq_mass(spec, rho) == pytest.approx(4 * math.pi / 3 * rho**3, rel=1e-12)

    def test_divergent_tabulated_stub_raises(self):
        # s^-2 in d=3: the power law below the first node has infinite mass,
        # as the closed-form s^-2 spectrum does
        s = np.geomspace(1e-3, 1.0, 50)
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=s**-2.0)
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.low_freq_mass(spec, 0.1)
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.linear_heat_l2_sq(spec, 1.0)
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.decay_character(spec)
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.low_freq_mass(sp.power_spectrum(3, k=-2.0), 0.1)

    @pytest.mark.parametrize("k", [-1.2, 0.0, 1.0, 2.5])
    def test_stub_of_a_power_table_is_its_power(self, k):
        s = np.geomspace(1e-4, 1.0, 60)
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=3.0 * s**k)
        p, v0 = spec._low_power
        assert p == pytest.approx(k, abs=1e-12) and v0 == spec.values[0]

    def test_stub_is_flat_across_a_sign_change(self):
        s = np.geomspace(1e-4, 1.0, 60)
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=np.cos(3e3 * s))
        assert spec._low_power == (0.0, spec.values[0])

    def test_domain_validation(self):
        spec = sp.gaussian_spectrum(3)
        with pytest.raises(sp.SpectrumDomainError):
            sp.low_freq_mass(spec, -1.0)
        with pytest.raises(sp.SpectrumDomainError):
            sp.low_freq_mass(spec, 1e9)


def per_interval_grid(pts):
    """The quadrature grid as it was built before `_refine`: one linspace per interval."""
    fine = [np.linspace(a, b, 5)[:-1] for a, b in zip(pts[:-1], pts[1:])]
    fine.append([pts[-1]])
    return np.concatenate(fine)


def reference_table_integral(spec, grid, weight, rho=math.inf):
    """Trapezoid over `grid` plus the power-law stub below min(rho, first node)."""
    v = spec(grid)
    vals = sphere_area(spec.d) * v * v * grid ** (spec.d - 1) * weight
    total = float(np.trapezoid(vals, grid))
    p, v0 = spec._low_power
    expo = 2.0 * p + spec.d
    if expo > 0.0:
        s0 = spec.s_nodes[0]
        total += sphere_area(spec.d) * v0 * v0 * s0**spec.d / expo * (min(rho, s0) / s0) ** expo
    return total


def assert_refinement_bit_exact(spec, rho, t):
    s = spec.s_nodes
    grid = per_interval_grid(np.concatenate([s[s < rho], [rho]]))
    assert sp.low_freq_mass(spec, rho) == reference_table_integral(spec, grid, 1.0, rho)
    grid = per_interval_grid(s)
    want = reference_table_integral(spec, grid, np.exp(-2.0 * t * grid * grid))
    assert sp.linear_heat_l2_sq(spec, t) == want


@st.composite
def tabulated_spectra(draw, value=st.floats(0.01, 10.0)):
    first = draw(st.floats(1e-6, 1e-3))
    gaps = draw(st.lists(st.floats(1e-6, 5.0), min_size=3, max_size=40))
    s = first + np.cumsum([0.0] + gaps)
    values = draw(st.lists(value, min_size=len(s), max_size=len(s)))
    return sp.SpectrumFn(d=draw(st.integers(3, 11)), kind="tabulated", s_nodes=s,
                         values=np.array(values))


class TestRefinement:
    """The vectorized quadrature grid reproduces the per-interval one bit for bit."""

    @pytest.mark.parametrize("where", ["below_first_node", "on_a_node", "between_nodes", "s_max"])
    def test_tabulated_integrals_match_the_per_interval_grid(self, where):
        s = np.geomspace(1e-4, 7.0, 90)
        spec = sp.SpectrumFn(d=4, kind="tabulated", s_nodes=s, values=np.exp(-s) * np.cos(s))
        rho = {"below_first_node": 5e-5, "on_a_node": s[40], "between_nodes": 0.37,
               "s_max": s[-1]}[where]
        for t in (0.0, 0.3, 20.0):
            assert_refinement_bit_exact(spec, rho, t)

    @given(spec=tabulated_spectra(), u=st.floats(0.0, 1.0), t=st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_any_increasing_nodes(self, spec, u, t):
        s = spec.s_nodes
        assert np.array_equal(sp._refine(s), per_interval_grid(s))
        rho = min(s[0] + u * (s[-1] - s[0]), s[-1])
        if 2.0 * spec._low_power[0] + spec.d > 0.0:
            assert_refinement_bit_exact(spec, rho, t)
            return
        # the stub below the first node has infinite mass
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.low_freq_mass(spec, rho)
        with pytest.raises(sp.SpectrumDomainError, match="diverges"):
            sp.linear_heat_l2_sq(spec, t)



class TestMassCache:
    """`low_freq_mass` reuses the table's integrand samples without moving a bit."""

    @given(spec=tabulated_spectra(), us=st.lists(st.floats(0.0, 1.0), max_size=4),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_call_order(self, spec, us, data):
        s = spec.s_nodes
        if not 2.0 * spec._low_power[0] + spec.d > 0.0:
            return  # the stub diverges; TestRefinement covers the refusal
        rhos = [0.5 * s[0], s[len(s) // 2], 0.5 * (s[1] + s[2]), s[-1],
                *(min(s[0] + u * (s[-1] - s[0]), s[-1]) for u in us)]
        for rho in data.draw(st.permutations(rhos)):
            grid = per_interval_grid(np.concatenate([s[s < rho], [rho]]))
            assert sp.low_freq_mass(spec, rho) == reference_table_integral(spec, grid, 1.0, rho)

    @given(spec=tabulated_spectra(st.one_of(st.just(0.0), st.floats(-10.0, 10.0))),
           us=st.lists(st.floats(0.0, 1.0), max_size=3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_interval_edges_on_signed_values(self, spec, us, data):
        # an interior node, where the tail's last point is in the next interval;
        # the first interval; s_max, the last interval's right end; values of
        # both signs and exact zeros
        s = spec.s_nodes
        if not 2.0 * spec._low_power[0] + spec.d > 0.0:
            return  # the stub diverges; TestRefinement covers the refusal
        node = s[data.draw(st.integers(1, len(s) - 2))]
        rhos = [node, 0.5 * (s[0] + s[1]), s[-1],
                *(min(s[0] + u * (s[-1] - s[0]), s[-1]) for u in us)]
        for rho in data.draw(st.permutations(rhos)):
            grid = per_interval_grid(np.concatenate([s[s < rho], [rho]]))
            assert sp.low_freq_mass(spec, rho) == reference_table_integral(spec, grid, 1.0, rho)


class TestHankelTableMass:
    """On a Hankel table and its Lambda spectrum, `low_freq_mass` is the
    trapezoid rule over `_refine`'s grid plus the stub, bit for bit."""

    @pytest.fixture(scope="class")
    def tables(self):
        grid = grid_for_span(4, 14.0, 2e-3, 1e-3)
        u = RadialField(grid, np.exp(-((grid.nodes / 1.3) ** 2)) * (1 + 0.3 * np.cos(grid.nodes)))
        s = np.concatenate([np.geomspace(1e-4, 0.1, 30), np.geomspace(0.11, 9.0, 60)])
        spec = sp.hankel_spectrum(u, s)
        return spec, sp.lambda_spectrum(spec)

    @pytest.mark.parametrize("where", ["below_first_node", "first_interval", "on_a_node",
                                       "between_nodes", "s_max"])
    def test_matches_trapezoid_over_the_refined_grid(self, tables, where):
        for spec in tables:
            s = spec.s_nodes
            rho = {"below_first_node": 0.3 * s[0], "first_interval": 0.5 * (s[0] + s[1]),
                   "on_a_node": s[45], "between_nodes": 0.5 * (s[50] + s[51]),
                   "s_max": s[-1]}[where]
            grid = sp._refine(np.concatenate([s[s < rho], [rho]]))
            assert sp.low_freq_mass(spec, rho) == reference_table_integral(spec, grid, 1.0, rho)


class TestTableMasses:
    """`table_masses` of tables on one set of nodes is `low_freq_mass` of each."""

    @pytest.fixture(scope="class")
    def pair(self):
        grid = grid_for_span(4, 14.0, 2e-3, 1e-3)
        r = grid.nodes
        fields = [RadialField(grid, np.exp(-((r / w) ** 2)) * (1 + 0.3 * np.cos(r)))
                  for w in (1.3, 0.9)]
        s = np.concatenate([np.geomspace(1e-4, 0.1, 30), np.geomspace(0.11, 9.0, 60)])
        return [sp.lambda_spectrum(spec) for spec in sp.hankel_spectra(fields, s)]

    @pytest.mark.parametrize("where", ["below_first_node", "on_a_node", "between_nodes",
                                       "s_max"])
    def test_pair_matches_single_masses(self, pair, where):
        s = pair[0].s_nodes
        rho = {"below_first_node": 0.3 * s[0], "on_a_node": s[45],
               "between_nodes": 0.5 * (s[50] + s[51]), "s_max": s[-1]}[where]
        got = sp.table_masses(pair, [rho, rho])
        want = [sp.low_freq_mass(spec, rho) for spec in pair]
        assert got.tobytes() == np.array(want).tobytes()
        grid = sp._refine(np.concatenate([s[s < rho], [rho]]))
        assert got.tolist() == [reference_table_integral(spec, grid, 1.0, rho) for spec in pair]

    def test_tables_must_share_nodes_and_dimension(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="one set of nodes"):
            sp.table_masses([a, replace(b, s_nodes=b.s_nodes * 0.5)], [1e-2, 1e-2])
        with pytest.raises(ValueError, match="one set of nodes"):
            sp.table_masses([a, replace(b, d=5)], [1e-2, 1e-2])
        with pytest.raises(ValueError, match="one set of nodes"):
            sp.table_masses([a, sp.gaussian_spectrum(4)], [1e-2, 1e-2])
        with pytest.raises(sp.SpectrumDomainError, match="rho=18.0 outside"):
            sp.table_masses(pair + pair, [1e-2, 1e-2, 2.0 * a.s_max, 2.0 * a.s_max])


def scalar_table_mass(spec, rho: float) -> float:
    """`low_freq_mass` of a table as it was formed one table and one float at
    a time: the trapezoid terms over the refined nodes below rho, then the tail
    np.linspace(s_{k-1}, rho, 5) in Python floats, the cubic on it one float
    at a time from the coefficients of scipy's PCHIP, summed in PPoly's order,
    the tail's powers as one numpy call, and numpy's pairwise sum of the
    concatenated terms, plus the stub below the first node."""
    s, d = spec.s_nodes, spec.d
    area = sphere_area(d)
    p, v0 = spec._low_power
    expo = 2.0 * p + d
    stub = area * v0 * v0 * s[0] ** d / expo
    k = int(s.searchsorted(rho))
    if k == 0:
        return stub * (min(rho, s[0]) / s[0]) ** expo
    cubic = PchipInterpolator(s, spec.values, extrapolate=False)
    grid = per_interval_grid(s)
    v = cubic(grid)
    vals = area * v * v * grid ** (d - 1)
    cached = np.diff(grid) * (vals[1:] + vals[:-1]) / 2.0
    coefficients, inner, nodes = cubic.c.T.tolist(), s[1:-1].tolist(), s.tolist()

    def at(x: float) -> float:
        i = bisect_right(inner, x)
        a3, a2, a1, a0 = coefficients[i]
        z = x - nodes[i]
        z2 = z * z
        return (((0.0 + a0) + a1 * z) + a2 * z2) + a3 * (z2 * z)

    lo = nodes[k - 1]
    delta = rho - lo
    step = delta / 4.0
    tail = [i * step + lo if step else i / 4.0 * delta + lo for i in range(4)] + [rho]
    powers = (np.array(tail) ** (d - 1)).tolist()
    y = [area * w * w * q for w, q in zip(map(at, tail), powers)]
    tail_terms = [(tail[i + 1] - tail[i]) * (y[i + 1] + y[i]) / 2.0 for i in range(4)]
    return float(np.concatenate([cached[:4 * (k - 1)], tail_terms]).sum()) + stub


class TestScalarReference:
    """Batched table masses against `scalar_table_mass`, bit for bit."""

    @given(d=st.integers(3, 8), n_tables=st.integers(1, 3), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_has_the_scalar_bits(self, d, n_tables, data):
        first = data.draw(st.floats(1e-6, 1e-3))
        gaps = data.draw(st.lists(st.floats(1e-6, 5.0), min_size=3, max_size=40))
        s = first + np.cumsum([0.0] + gaps)
        value = st.one_of(st.just(0.0), st.floats(-10.0, -0.01), st.floats(0.01, 10.0))
        tables = [sp.SpectrumFn(d=d, kind="tabulated", s_nodes=s, values=np.array(
            data.draw(st.lists(value, min_size=len(s), max_size=len(s)))))
            for _ in range(n_tables)]
        if not all(2.0 * spec._low_power[0] + d > 0.0 for spec in tables):
            return  # the stub diverges; TestRefinement covers the refusal
        # below the first node (the stub alone), on a node, inside an
        # interval, at s_max, and drawn points: each a row of every table
        u = data.draw(st.floats(0.0, 1.0))
        node = s[data.draw(st.integers(1, len(s) - 1))]
        rhos = [0.5 * s[0], node, 0.5 * (s[0] + s[1]), s[-1],
                min(s[0] + u * (s[-1] - s[0]), s[-1])]
        rhos = data.draw(st.permutations(rhos))
        want = np.array([[scalar_table_mass(spec, rho) for spec in tables] for rho in rhos])
        if data.draw(st.booleans()):  # tables cached one by one, then batched together
            for spec in tables:
                sp.low_freq_mass(spec, rhos[0])
        masses = sp.table_masses(tables * len(rhos), np.repeat(rhos, n_tables))
        assert masses.tobytes() == want.tobytes()
        single = [[sp.low_freq_mass(spec, rho) for spec in tables] for rho in rhos]
        assert np.array(single).tobytes() == want.tobytes()


class TestDecayCharacter:
    @pytest.mark.parametrize("d", [3, 5, 11])
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_monomial_gaussian_recovery(self, d, k):
        est = sp.decay_character(sp.gaussian_spectrum(d, k=k))
        assert est.flag is None
        assert abs(est.r_star - k) < 0.02
        assert 0 < est.p_r_value < math.inf

    def test_lambda_shift(self):
        for d in (3, 4, 5):
            base = sp.gaussian_spectrum(d, k=0.0)
            est0 = sp.decay_character(base)
            est1 = sp.decay_character(sp.lambda_spectrum(base))
            assert abs(est1.r_star - est0.r_star - 1.0) < 0.03

    def test_zero_masses_give_no_estimate(self):
        # the table of an all-zero field has F = 0 on the whole ladder: log F
        # has no line, so r* is inf with the fit flagged, not a fit of nan
        grid = grid_for_span(4, 40.0, 0.02, 0.01)
        table = sp.hankel_spectrum(RadialField(grid, np.zeros(grid.n)), experiments.DECAYFIT_NODES)
        est = sp.decay_character(sp.lambda_spectrum(table))
        assert (est.flag, est.r_star, est.p_r_value) == ("nonlinear_fit", math.inf, 0.0)

    def test_oscillatory_spectrum_flagged(self):
        # strong log-periodic oscillation near the origin defeats the slope fit
        s = np.geomspace(1e-5, 10.0, 400)
        vals = s**-0.5 * (1.0 + 0.9 * np.sin(4.0 * np.log(s)))
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=vals)
        est = sp.decay_character(spec)
        assert est.flag == "nonlinear_fit"

    def test_oscillatory_table_fails_the_residual_gate(self):
        # the same table: its first two nodes alone give the stub 2p + d = -14.4,
        # the first decade gives a convergent one, so the fit runs and the
        # residual of log F about its line rejects it
        s = np.geomspace(1e-5, 10.0, 400)
        vals = s**-0.5 * (1.0 + 0.9 * np.sin(4.0 * np.log(s)))
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=vals)
        assert 2.0 * spec._low_power[0] + spec.d > 0.0
        est = sp.decay_character(spec)
        assert 0.05 < est.fit_residual < math.inf
        assert est.flag == "nonlinear_fit"


class TestLambdaSpectrum:
    def test_closed_form_shift(self):
        spec = sp.gaussian_spectrum(4, k=0.0)
        lam = sp.lambda_spectrum(spec)
        assert lam.kind == "power_gauss" and lam.k == 1.0

    def test_tabulated_nodewise_product(self):
        s = np.geomspace(1e-4, 5.0, 50)
        spec = sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=np.exp(-s))
        lam = sp.lambda_spectrum(spec)
        assert np.allclose(lam.values, s * np.exp(-s))


class TestLinearHeatDecay:
    def test_plancherel_at_time_zero(self):
        spec = sp.gaussian_spectrum(3, sig=math.sqrt(2.0))
        # ||v||^2 = omega int e^{-s^2} s^2 ds = pi^{3/2}
        assert sp.linear_heat_l2_sq(spec, 0.0) == pytest.approx(math.pi**1.5, rel=1e-9)

    def test_gaussian_closed_form(self):
        # vhat = e^{-(s/sig)^2} in d = 3: ||v(t)||^2 = pi^{3/2} (2/sig^2 + 2t)^{-3/2};
        # a narrow spectrum is one peak at the origin, which a quadrature can miss
        for sig in (math.sqrt(2.0), 1e-3, 1e-5):
            spec = sp.gaussian_spectrum(3, sig=sig)
            for t in (0.0, 0.5, 1.0, 10.0, 100.0):
                want = math.pi**1.5 * (2.0 / sig**2 + 2.0 * t) ** -1.5
                assert sp.linear_heat_l2_sq(spec, t) == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing(self):
        spec = sp.gaussian_spectrum(4, k=1.0)
        vals = [sp.linear_heat_l2_sq(spec, t) for t in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def quad_oracle(spec, upper, t):
    """The oracle of the closed-form integrals: scipy's adaptive quadrature of
    omega_{d-1} e^{-2ts^2} |vhat|^2 s^{d-1} over [0, upper]."""
    from scipy.integrate import quad

    def f(s):
        return sphere_area(spec.d) * spec(s) ** 2 * s ** (spec.d - 1) * math.exp(-2.0 * t * s * s)

    return quad(f, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200)[0]


class TestClosedForm:
    """Masses and heat norms of closed forms are exact incomplete-gamma integrals."""

    @given(d=st.integers(3, 13), k=st.floats(-1.4, 3.0), amp=st.floats(0.1, 10.0),
           sig=st.floats(0.05, 1e3), gauss=st.booleans(), t=st.floats(0.0, 1e3),
           log_rho=st.floats(math.log(1e-3), math.log(50.0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_quadrature(self, d, k, amp, sig, gauss, t, log_rho):
        # a box where quadrature resolves every spectrum: sig >= 0.05, t <= 1e3
        spec = (sp.gaussian_spectrum(d, k=k, amp=amp, sig=sig) if gauss
                else sp.power_spectrum(d, k=k, amp=amp))
        rho = math.exp(log_rho)
        assert sp.low_freq_mass(spec, rho) == pytest.approx(quad_oracle(spec, rho, 0.0), rel=1e-10)
        want = quad_oracle(spec, spec.s_max, t)
        assert sp.linear_heat_l2_sq(spec, t) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("sig", [1e100, 1e300])
    def test_wide_gaussian_is_its_power_law(self, sig):
        # 2/sig^2 is below 1e-199, so exp(-(s/sig)^2) is 1 to the last bit
        spec = sp.gaussian_spectrum(3, k=-1.4, sig=sig)
        e = 2.0 * -1.4 + 3.0
        for rho in (1e-3, 0.1, 50.0):
            want = sphere_area(3) * rho**e / e
            assert sp.low_freq_mass(spec, rho) == pytest.approx(want, rel=1e-12)
        assert sp.linear_heat_l2_sq(spec, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k, sig", [(0.0, 1e-4), (0.0, 1e-5), (-1.45, 1e-7),
                                        (-1.4, 1e-160), (-1.4, 1e-200), (-1.4, 1e-300),
                                        (-0.4, 1e-200)])
    def test_narrow_gaussian_is_at_the_lower_bound(self, k, sig):
        # all the mass lies below the ladder's first rho, 1e-3, so F is flat on it:
        # r* = -d/2. Below sig ~ 1e-154 beta = 2/sig^2 overflows, but the mass
        # omega Gamma(a) / (2 beta^a), taken in logs, is a normal float, except at
        # k = -0.4 (the Lambda spectrum of k = -1.4): about 3e-440, 0 as a double,
        # so the fit reads its logarithm
        spec = sp.gaussian_spectrum(3, k=k, sig=sig)
        a = 0.5 * (2.0 * k + 3.0)
        log_beta = math.log(2.0) - 2.0 * math.log(sig)
        want = sphere_area(3) * 0.5 * math.exp(math.lgamma(a) - a * log_beta)
        assert sp.low_freq_mass(spec, 0.05) == pytest.approx(want, rel=1e-12, abs=0.0)
        est = sp.decay_character(spec)
        assert est.flag == "at_lower_bound"
        assert est.r_star == pytest.approx(-1.5, abs=1e-9)

    @pytest.mark.parametrize("t", [5e-324, 1e-40])
    def test_power_at_a_tiny_time_is_its_power_law(self, t):
        # beta upper^2 = 5e3 t is below 2^-54, so e^{-2ts^2} is 1 to the last bit
        want = sphere_area(3) * 50.0**3 / 3.0
        assert sp.linear_heat_l2_sq(sp.power_spectrum(3, k=0.0), t) == pytest.approx(
            want, rel=1e-12)

    def test_large_dimension_mass_is_finite(self):
        # beta^-a = (2e-18)^-18 overflows, so Gamma(a) P(a, x) / (2 beta^a) is taken in
        # logs; the value is the one of the hypergeometric form it replaced
        spec = sp.gaussian_spectrum(30, k=3.0, sig=1e9)
        assert sp.low_freq_mass(spec, 50.0) == pytest.approx(2.657586379771006e+56, rel=1e-12)

    def test_mass_whose_gamma_ratio_underflows_is_refused(self):
        # P(20, 2e-16) is below the double range; the mass is refused, not 0
        spec = sp.gaussian_spectrum(40, k=0.0, sig=1e6)
        with pytest.raises(sp.SpectrumDomainError, match="closed-form mass out of range"):
            sp.low_freq_mass(spec, 0.01)
        # in d = 400 the sphere's area underflows to 0 too: its log is -inf, not an error
        with pytest.raises(sp.SpectrumDomainError, match="closed-form mass out of range"):
            sp.low_freq_mass(sp.gaussian_spectrum(400), 0.01)


class TestDecayBounds:
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_two_sided_band(self, d, k):
        t_grid = np.geomspace(1.0, 100.0, 25)
        lo, hi = sp.decay_bounds_check(sp.gaussian_spectrum(d, k=k), k, t_grid)
        assert lo > 0
        assert hi / lo < 3.0

    def test_negative_control_drifts(self):
        # a mismatched exponent r* + 0.5 drifts by >= 10x; (1+t)^{1/2} needs
        # about three decades of t to show it, so the control uses [1, 1000]
        t_grid = np.geomspace(1.0, 1000.0, 30)
        lo, hi = sp.decay_bounds_check(sp.gaussian_spectrum(4, k=0.0), 0.5, t_grid)
        assert hi / lo >= 10.0


class TestHankel:
    # d = 3 .. 13 covers the Bessel orders nu = (d-2)/2 = 0.5 .. 5.5, both parities
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 10, 11, 13])
    def test_gaussian_pair(self, d):
        # amp e^{-(r/w)^2}  <->  amp (w^2/2)^{d/2} e^{-(w s/2)^2}, unitary convention
        grid = grid_for_span(d, 14.0, 2e-3, 1e-3)
        w = 1.3
        u = RadialField(grid, np.exp(-((grid.nodes / w) ** 2)))
        s = np.concatenate([np.geomspace(5e-4, 0.1, 25), np.linspace(0.12, 12.0, 140)])
        spec = sp.hankel_spectrum(u, s)
        exact = (w * w / 2.0) ** (d / 2.0) * np.exp(-(w * w / 4.0) * s * s)
        assert np.max(np.abs(spec.values - exact)) < 1e-4 * exact[0]

    def test_batched_matches_single_field(self):
        grid = grid_for_span(4, 14.0, 2e-3, 1e-3)
        r = grid.nodes
        fields = [RadialField(grid, np.exp(-((r / w) ** 2))) for w in (0.8, 1.3, 2.0)]
        s = np.concatenate([np.geomspace(5e-4, 0.1, 25), np.linspace(0.12, 12.0, 140)])
        batch = sp.hankel_spectra(fields, s)
        for u, spec in zip(fields, batch):
            single = sp.hankel_spectrum(u, s).values
            assert np.max(np.abs(spec.values - single)) <= 1e-12 * np.max(np.abs(single))
        other = grid_for_span(4, 14.0, 4e-3, 1e-3)
        with pytest.raises(ValueError):
            sp.hankel_spectra([fields[0], RadialField(other, np.exp(-other.nodes**2))], s)

    def test_a_grid_equal_by_value_is_the_same_grid(self):
        grid = grid_for_span(4, 14.0, 2e-3, 1e-3)
        twin = RadialGrid(d=4, nodes=grid.nodes.copy(), stretch=grid.stretch)
        assert twin is not grid and twin.nodes is not grid.nodes
        values = [np.exp(-((grid.nodes / w) ** 2)) for w in (0.8, 1.3)]
        s = np.geomspace(1e-4, 12.0, 40)
        one = sp.hankel_spectra([RadialField(grid, v) for v in values], s)
        two = sp.hankel_spectra([RadialField(grid, values[0]), RadialField(twin, values[1])], s)
        assert [a.values.tobytes() for a in one] == [b.values.tobytes() for b in two]
        moved = RadialGrid(d=4, nodes=np.concatenate([grid.nodes[:-1], [grid.rmax * 1.01]]))
        for other in (moved, RadialGrid(d=5, nodes=grid.nodes)):
            with pytest.raises(ValueError, match="fields must share one grid"):
                sp.hankel_spectra([RadialField(grid, values[0]), RadialField(other, values[1])], s)

    def test_a_node_set_is_checked_once(self):
        grid = grid_for_span(4, 14.0, 2e-3, 1e-3)
        fields = [RadialField(grid, np.exp(-((grid.nodes / w) ** 2))) for w in (0.8, 1.3)]
        given_nodes = np.geomspace(1e-4, 12.0, 40)
        specs = sp.hankel_spectra(fields, given_nodes)
        # one read-only copy of the given nodes serves every table and its Lambda spectrum
        nodes = specs[0].s_nodes
        assert nodes is not given_nodes and nodes.tobytes() == given_nodes.tobytes()
        assert all(spec.s_nodes is nodes for spec in specs)
        assert sp.lambda_spectrum(specs[1]).s_nodes is nodes
        assert sp._tabulated_nodes(nodes) is nodes
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 2e-3
        # an equal array is checked again, and a bad copy of a passed set is refused
        bad = nodes.copy()
        bad[3] = bad[2]
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            sp.hankel_spectra(fields, bad)
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            sp.SpectrumFn(d=4, kind="tabulated", s_nodes=bad, values=np.ones(len(bad)))
        given_nodes *= 100.0  # the caller's own array stays theirs
        with pytest.raises(ValueError, match="start at or below s = 1e-3"):
            sp.hankel_spectra(fields, given_nodes)
        assert nodes[0] == 1e-4

    def test_zero_field(self):
        grid = grid_for_span(3, 10.0, 0.01, 0.005)
        spec = sp.hankel_spectrum(RadialField(grid, np.zeros(grid.n)), np.geomspace(1e-4, 5.0, 40))
        assert np.allclose(spec.values, 0.0)

    def test_plancherel_roundtrip_compact_bump(self):
        grid = grid_for_span(4, 16.0, 2e-3, 1e-3)
        r = grid.nodes
        u = RadialField(grid, np.exp(-(r**2)) * (1 + 0.5 * np.cos(r)))
        s = np.concatenate([np.geomspace(1e-4, 0.1, 30), np.linspace(0.12, 16.0, 220)])
        spec = sp.hankel_spectrum(u, s)
        l2 = fn.l2_norm_sq(u)
        assert sp.linear_heat_l2_sq(spec, 0.0) == pytest.approx(l2, rel=1e-3)

    def test_tail_mass_guard(self):
        from critheat import ground_state as gs

        grid = make_grid(3, 10.0, 64, 1.0)
        w = gs.aubin_talenti(grid)  # r^{-1} tail, far from decayed
        with pytest.raises(sp.TailMassError):
            sp.hankel_spectrum(w, np.geomspace(1e-4, 5.0, 40))


def route_kernel(nu: float, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J_nu(np.outer(s, r)) by one call of the transform's routine for nu."""
    x = np.outer(s, r)
    sp._bessel_routine(nu)(x, out=x)
    return x


class TestBesselRoutine:
    """Each order's routine against `jv`, on the products s r the verbs form."""

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.5])
    def test_route_matches_jv(self, nu):
        # s up to the splitting cap S_CAP = 60, r on the d = 4 grid of the
        # acceptance matrix, R = 5000: s r reaches 3e5, past J1_MAX_ARG
        jv = scipy_extension("special._special_ufuncs").jv
        s = np.geomspace(1e-4, 60.0, 120)
        r = grid_for_span(4, 5000.0, 0.01, 0.004).nodes
        assert np.max(np.abs(route_kernel(nu, s, r) - jv(nu, np.outer(s, r)))) <= 1e-14

    def test_other_orders_keep_jv(self):
        routine = sp._bessel_routine(2.0)
        assert routine.func is scipy_extension("special._special_ufuncs").jv
        assert routine.args == (2.0,)


class TestParallelKernel:
    """The Bessel kernel, cut into row blocks over threads, keeps every bit."""

    @pytest.fixture(scope="class")
    def fields(self):
        grid = grid_for_span(3, 14.0, 2e-3, 1e-3)
        r = grid.nodes
        return [RadialField(grid, np.exp(-((r / w) ** 2))) for w in (0.8, 1.3)]

    @staticmethod
    def parallel(call, monkeypatch, cpus):
        """`call()` with `cpus` CPUs to use and frequent thread switches, so
        that a lost or repeated block would show."""
        monkeypatch.setattr(_extensions, "cpu_count", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return call()
        finally:
            sys.setswitchinterval(interval)

    # 7 CPUs are more workers than a 1-, 2- or 4-node kernel has blocks; a
    # table needs 4 nodes, so 1 and 2 nodes are checked on the kernel alone
    @pytest.mark.parametrize("n_s", [1, 2, 4, 90])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_kernel_same_bits_for_any_worker_count(self, monkeypatch, fields, n_s, cpus):
        # written in place into a column span of a wider kernel, which keeps its
        # zeros, by each route: spherical, j1, spherical, jv
        s = np.geomspace(1e-4, 12.0, n_s) if n_s > 1 else np.array([0.7])
        r = fields[0].grid.nodes
        span = slice(3, len(r) - 5)
        for nu in (0.5, 1.0, 1.5, 2.0):
            want = np.zeros((n_s, len(r)))
            want[:, span] = route_kernel(nu, s, r[span])
            got = np.zeros((n_s, len(r)))
            bessel = sp._bessel_routine(nu)
            self.parallel(lambda: sp._bessel_kernel(bessel, s, r[span], got[:, span]),
                          monkeypatch, cpus)
            assert got.tobytes() == want.tobytes(), nu

    @pytest.mark.parametrize("n_s", [4, 90])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_transform_same_bits_for_any_worker_count(self, monkeypatch, fields, n_s, cpus):
        s = np.geomspace(1e-4, 12.0, n_s)
        grid = fields[0].grid
        nu = (grid.d - 2) / 2.0
        r = grid.nodes
        weighted = np.stack([grid.line_weights * u.values * r ** (grid.d / 2.0) for u in fields])
        kernel = route_kernel(nu, s, r)
        want = np.einsum("fr,sr->fs", weighted, kernel) * s ** (-nu)
        got = self.parallel(lambda: sp.hankel_spectra(fields, s), monkeypatch, cpus)
        for spec, values in zip(got, want):
            assert spec.values.tobytes() == values.tobytes()

    @pytest.fixture(scope="class")
    def zero_spans(self):
        """Fields with exact zeros on the d = 4 grid of the splitting runs:
        a gaussian whose tail underflows, `bumps`, `aW_cutoff`, a `power_tail`
        steep enough to underflow from r ~ 12 on, one with a zero inside its
        span, and a batch of fields with different spans."""
        grid = grid_for_span(4, 160.0, 0.01, 0.004)
        r = grid.nodes
        gauss = RadialField(grid, 0.05 * np.exp(-(r**2)))
        tail = families.build_initial("power_tail", {"p": 300.0, "amp": 0.2}, grid)
        want = 0.2 * (1.0 + r**2) ** -150.0
        want[-1] = 0.0  # the Dirichlet value
        assert tail.values.tobytes() == want.tobytes()
        holed = gauss.values * np.cos(r)
        holed[40:45] = 0.0
        return {
            "gaussian": [gauss],
            "bumps": [families.build_initial("bumps", {"n_bumps": 3}, grid, seed=3)],
            "aW_cutoff": [families.build_initial("aW_cutoff", {"a": 0.8}, grid)],
            "power_tail": [tail],
            "zero_inside": [RadialField(grid, holed)],
            "batch": [gauss,
                      RadialField(grid, np.where(r < 120.0, np.exp(-((r / 6.0) ** 2)), 0.0)),
                      RadialField(grid, np.where(r > 2.0, 0.0, 1.0 - r**2 / 4.0))],
        }

    @pytest.mark.parametrize("case", ["gaussian", "bumps", "aW_cutoff", "power_tail",
                                      "zero_inside", "batch"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_transform_same_bits_on_exact_zeros(self, monkeypatch, zero_spans, case, cpus):
        fields = zero_spans[case]
        grid = fields[0].grid
        assert all(np.any(u.values[1:-1] == 0.0) for u in fields)
        s = np.concatenate([np.geomspace(1e-4, 0.1, 40), np.geomspace(0.11, 20.0, 80)])
        nu = (grid.d - 2) / 2.0
        r = grid.nodes
        weighted = np.stack([grid.line_weights * u.values * r ** (grid.d / 2.0) for u in fields])
        kernel = route_kernel(nu, s, r)
        want = np.einsum("fr,sr->fs", weighted, kernel) * s ** (-nu)
        got = self.parallel(lambda: sp.hankel_spectra(fields, s), monkeypatch, cpus)
        for spec, values in zip(got, want):
            assert spec.values.tobytes() == values.tobytes()

    def test_zero_field_calls_no_bessel_function(self, monkeypatch, fields):
        def no_jv(name):
            raise AssertionError("the Bessel function was loaded for an all-zero field")

        monkeypatch.setattr(sp, "scipy_extension", no_jv)
        grid = fields[0].grid
        s = np.geomspace(1e-4, 12.0, 20)
        (spec,) = sp.hankel_spectra([RadialField(grid, np.zeros(grid.n))], s)
        assert spec.values.tobytes() == np.zeros(20).tobytes()

    @pytest.mark.parametrize("s_nodes, message", [
        (np.array([0.01, 0.1, 1.0, 10.0]), "start at or below s = 1e-3"),
        (np.array([1e-4, 1e-3, 1e-2]), ">= 4 nodes"),
        (np.geomspace(0.01, 50.0, 2000), "start at or below s = 1e-3"),
        (np.array([1e-4, 1e-3, 1e-3, 1e-2]), "positive and strictly increasing"),
        (np.array([1e-4, 1e-3, np.nan, 1e-2]), "must be finite"),
    ])
    def test_unusable_nodes_are_refused_before_the_kernel(self, monkeypatch, fields, s_nodes,
                                                         message):
        def no_kernel(*args):
            raise AssertionError("the Bessel kernel was evaluated")

        monkeypatch.setattr(sp, "_bessel_kernel", no_kernel)
        with pytest.raises(ValueError, match=message):
            sp.hankel_spectra(fields, s_nodes)
        with pytest.raises(ValueError, match=message):
            sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s_nodes, values=np.ones(len(s_nodes)))

    def test_worker_exception_reaches_the_caller(self, monkeypatch, fields):
        # the fields are in d = 3, whose order 1/2 takes the spherical route
        spherical_jn = scipy_extension("special._special_ufuncs")._spherical_jn
        caller = threading.current_thread()
        raised = threading.Event()

        def failing_spherical_jn(n, x, out):
            if threading.current_thread() is caller:
                # hold the calling thread's first block until a worker has failed
                assert raised.wait(timeout=30.0)
                return spherical_jn(n, x, out=out)
            raised.set()
            raise FloatingPointError("Bessel block failed")

        monkeypatch.setattr(sp, "scipy_extension", lambda name: types.SimpleNamespace(
            _spherical_jn=failing_spherical_jn))
        monkeypatch.setattr(_extensions, "cpu_count", lambda: 3)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="Bessel block failed"):
            sp.hankel_spectra(fields, np.geomspace(1e-4, 12.0, 90))
        assert threading.active_count() == before


class TestSpectrumIO:
    def test_roundtrip(self, tmp_path):
        s = np.geomspace(1e-4, 8.0, 60)
        spec = sp.SpectrumFn(d=5, kind="tabulated", s_nodes=s, values=np.exp(-s) * np.cos(s))
        path = tmp_path / "spec.txt"
        sp.save_spectrum(spec, path)
        back = sp.load_spectrum(path)
        assert back.d == 5
        assert np.array_equal(back.s_nodes, spec.s_nodes)
        assert np.array_equal(back.values, spec.values)

    def test_dimension_must_match_the_header(self, tmp_path):
        path = tmp_path / "spec.txt"
        sp.save_spectrum(sp.gaussian_spectrum(5), path)
        assert sp.load_spectrum(path, 5).d == 5
        with pytest.raises(ValueError, match="dimension"):
            sp.load_spectrum(path, 3)

    def test_closed_form_export_is_tabulated(self, tmp_path):
        spec = sp.gaussian_spectrum(3, k=1.0)
        path = tmp_path / "gauss.txt"
        sp.save_spectrum(spec, path)
        back = sp.load_spectrum(path)
        est_a = sp.decay_character(spec)
        est_b = sp.decay_character(back)
        assert abs(est_a.r_star - est_b.r_star) < 0.02

    def test_tabulated_low_node_requirement(self):
        s = np.geomspace(1e-2, 1.0, 30)  # starts above 1e-3
        with pytest.raises(ValueError):
            sp.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=np.ones(30))
