import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from critheat import experiments, families, spectral
from critheat.radial import (
    CorruptionError,
    RadialField,
    _finite,
    column_text,
    grid_for_span,
    make_grid,
    pchip,
    read_columns,
    sphere_area,
    write_columns,
)


def radial_integral(f: RadialField) -> float:
    """omega_{d-1} int_0^R f(r) r^{d-1} dr by composite trapezoid, checked by
    `radial._finite`: the integral the grid's `quad_weights` define."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(f.grid.quad_weights @ f.values))


class TestMakeGrid:
    def test_uniform_nodes(self):
        # n >= 16 is a hard precondition, so the smallest uniform example is 0..15
        g = make_grid(3, 15.0, 16, 1.0)
        assert np.allclose(g.nodes, np.arange(16.0))
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 15.0

    def test_geometric_grid_hits_outer_radius_exactly(self):
        g = make_grid(5, 100.0, 2049, 1.003)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 100.0
        h = np.diff(g.nodes)
        assert np.allclose(h[1:] / h[:-1], 1.003, rtol=1e-10)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2, 10.0, 16, 1.0)

    @pytest.mark.parametrize(
        "args",
        [(3, -1.0, 32, 1.0), (3, 10.0, 8, 1.0), (3, 10.0, 32, 1.5), (3, 10.0, 32, 0.9)],
    )
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)

    @given(
        d=st.integers(min_value=3, max_value=12),
        R=st.floats(min_value=0.5, max_value=1e4),
        n=st.integers(min_value=16, max_value=400),
        stretch=st.floats(min_value=1.0, max_value=1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_invariants(self, d, R, n, stretch):
        g = make_grid(d, R, n, stretch)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == R
        assert np.all(np.diff(g.nodes) > 0)
        assert g.n == n


class TestSphereArea:
    def test_closed_forms(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
        # Gamma(5/2) = 3 sqrt(pi) / 4, so area = 8 pi^2 / 3
        assert sphere_area(5) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_against_gamma_function(self, d):
        want = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        assert sphere_area(d) == pytest.approx(want, rel=1e-12)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            sphere_area(0)


class TestRadialIntegral:
    def test_zero_field(self):
        g = make_grid(4, 5.0, 64, 1.0)
        assert radial_integral(RadialField(g, np.zeros(g.n))) == 0.0

    def test_gaussian_d3(self):
        # int_{R^3} exp(-|x|^2) dx = pi^{3/2}
        g = grid_for_span(3, 12.0, 1e-3, 1e-3)
        f = RadialField(g, np.exp(-g.nodes**2))
        assert radial_integral(f) == pytest.approx(math.pi**1.5, rel=1e-6)

    def test_ball_volume_d4(self):
        # volume of the radius-2 ball in R^4: 2 pi^2 * 2^4 / 4 = 8 pi^2
        g = make_grid(4, 2.0, 4097, 1.0)
        f = RadialField(g, np.ones(g.n))
        assert radial_integral(f) == pytest.approx(8 * math.pi**2, rel=1e-7)

    def test_corruption_detected(self):
        g = make_grid(3, 2.0, 32, 1.0)
        f = RadialField(g, np.ones(g.n))
        f.values[5] = np.nan
        with pytest.raises(CorruptionError):
            radial_integral(f)

    def test_quadrature_order_two(self):
        # truncated gaussian whose weighted integrand has a live endpoint slope,
        # so the composite-trapezoid O(h^2) term is observable; oracle via erf
        R = 2.5
        exact = 4 * math.pi * (
            math.sqrt(math.pi) * math.erf(R) / 4 - R * math.exp(-(R**2)) / 2
        )
        errs = []
        for n in (101, 201, 401):
            g = make_grid(3, R, n, 1.0)
            f = RadialField(g, np.exp(-g.nodes**2))
            errs.append(abs(radial_integral(f) - exact))
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert 1.8 <= rate1 <= 2.2
        assert 1.8 <= rate2 <= 2.2


def scipy_pchip(x, y, s) -> np.ndarray:
    """The oracle of `pchip`: scipy's monotone cubic on the same table."""
    with np.errstate(over="ignore"):  # a secant near 1e-308 overflows its reciprocal
        return PchipInterpolator(x, y, extrapolate=False)(s)


@st.composite
def pchip_tables(draw):
    """Tables of 4..300 unevenly spaced nodes: signed, positive or monotone
    values at magnitudes 1e-10..1e5, with exact zeros of either sign and a
    flat run."""
    n = draw(st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.floats(-10.0, 10.0)) + draw(st.sampled_from([1e-4, 1.0, 1e3])) * np.cumsum(
        [0.0, *rng.uniform(1e-3, 1.0, n - 1)])
    y = {"signed": rng.uniform(-1.0, 1.0, n), "positive": rng.uniform(0.0, 1.0, n),
         "monotone": np.cumsum(rng.uniform(0.0, 1.0, n)) / n}[
        draw(st.sampled_from(["signed", "positive", "monotone"]))]
    y = 10.0 ** draw(st.integers(-10, 5)) * y
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    y[zeros] = np.copysign(0.0, rng.uniform(-1.0, 1.0, n))[zeros]
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(0, 8))
    y[start:start + length] = y[start]
    return x, y


class TestPchip:
    @given(pchip_tables(), st.lists(st.floats(0.0, 1.0), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_scipys_pchip(self, table, fractions):
        x, y = table
        inner = np.minimum(x[0] + (x[-1] - x[0]) * np.array(fractions), x[-1])
        s = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), inner, [x[0], x[-1]]])
        assert pchip(x, y)(s).tobytes() == scipy_pchip(x, y, s).tobytes()

    @given(pchip_tables(), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_have_the_bits_of_their_own_calls(self, table, n_rows, data):
        # rows of one batch on one x: the drawn table, rescaled and reversed
        # copies, an all -0.0 row and rows flat at either end, whose end
        # slopes are 0: the batch, each row's 1-d call and scipy's, to the bit
        x, y = table
        rows = [y, *(y[::-1] * 10.0 ** data.draw(st.integers(-3, 3)) for _ in range(n_rows)),
                np.full(len(x), -0.0), np.concatenate([[y[1]], y[1:]]),
                np.concatenate([y[:-1], [y[-2]]])]
        s = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), [x[0], x[-1]]])
        batch = pchip(x, np.stack(rows))
        every = batch(s)
        # each row also at points of its own, as row[...] at s[...]
        own = np.stack([np.roll(s, shift) for shift in range(len(rows))])
        picked = batch(own, np.arange(len(rows))[:, None])
        for row, values in enumerate(rows):
            want = scipy_pchip(x, values, s)
            assert pchip(x, values)(s).tobytes() == want.tobytes()
            assert every[row].tobytes() == want.tobytes()
            assert batch(s, row).tobytes() == want.tobytes()
            assert picked[row].tobytes() == scipy_pchip(x, values, own[row]).tobytes()

    def test_negative_zero_node_reads_positive_zero(self):
        # every coefficient of the interval at -0.0 is negative, and the sum
        # starts from +0.0 as PPoly's does
        x, y = np.arange(5.0), np.array([0.5, 0.4, -0.0, -1.0, -4.0])
        assert pchip(x, y)(x).tobytes() == scipy_pchip(x, y, x).tobytes()
        assert pchip(x, y)(2.0).tobytes() == np.float64(0.0).tobytes()

    def test_bits_on_the_decayfit_hankel_table(self):
        # the table `decayfit` interpolates: the d = 4 gaussian at DECAYFIT_NODES,
        # evaluated on the refined grid of its mass quadrature
        grid = grid_for_span(4, 160.0, 0.02, 0.004)
        u0 = families.build_initial("gaussian", {"amp": 0.05, "width": 1.0}, grid)
        spec = spectral.hankel_spectrum(u0, experiments.DECAYFIT_NODES)
        x, y = spec.s_nodes, spec.values
        s = spectral._refine(x)
        assert pchip(x, y)(s).tobytes() == scipy_pchip(x, y, s).tobytes()
        assert spec(s).tobytes() == scipy_pchip(x, y, s).tobytes()

    @pytest.mark.parametrize("R", [600.0, 300.0])
    def test_from_file_regrids_with_scipys_bits(self, tmp_path, R):
        # a checkpoint on a coarser grid, read onto the criterion-11 grid:
        # PCHIP up to the checkpoint's R, 0 past it
        coarse = grid_for_span(5, R, 0.02, 0.004)
        path = tmp_path / "ck.txt"
        families.save_checkpoint(path, families.build_initial("aW", {"a": 0.9}, coarse), 0.0)
        grid = make_grid(5, 600.0, 1375, 1.004)
        u0 = families.build_initial("from_file", {"path": str(path)}, grid)
        saved, _t = families.load_checkpoint(path)
        assert coarse.n < grid.n
        beyond = grid.nodes > R
        want = scipy_pchip(coarse.nodes, saved.values, np.minimum(grid.nodes, R))
        want[beyond] = 0.0
        want[-1] = 0.0  # the Dirichlet node
        assert u0.values.tobytes() == want.tobytes()
        assert beyond.any() == (R < 600.0)

    def test_from_file_regrids_onto_a_nearby_grid(self, tmp_path):
        # a checkpoint on the criterion-11 grid read onto the same grid out to
        # R = 600.003, whose nodes lie up to 0.003 off: PCHIP as on any other grid
        saved_grid = make_grid(5, 600.0, 1375, 1.004)
        path = tmp_path / "ck.txt"
        families.save_checkpoint(path, families.build_initial("aW", {"a": 0.9}, saved_grid), 0.0)
        saved, _t = families.load_checkpoint(path)
        grid = make_grid(5, 600.003, 1375, 1.004)
        want = scipy_pchip(saved_grid.nodes, saved.values, np.minimum(grid.nodes, 600.0))
        want[grid.nodes > 600.0] = 0.0
        want[-1] = 0.0  # the Dirichlet node
        u0 = families.build_initial("from_file", {"path": str(path)}, grid)
        assert u0.values.tobytes() == want.tobytes()
        # on its own grid the checkpoint reads back to the bit
        back = families.build_initial("from_file", {"path": str(path)}, saved_grid)
        assert back.values.tobytes() == saved.values.tobytes()


class TestConservativeOperator:
    def test_conservative_laplacian_r_squared_exact(self):
        # the flux form with exact shell volumes also reproduces Delta r^2 = 2d
        g = make_grid(6, 8.0, 90, 1.01)
        diag, off = g.stiffness_bands
        u = g.nodes**2
        m = g.n - 1
        ku = diag * u[:m]
        ku[:-1] += off * u[1:m]
        ku[1:] += off * u[: m - 1]
        ku[-1] -= g.face_weights[m - 1] * u[m]
        assert np.allclose(-ku / g.cell_volumes[:m], 12.0, rtol=1e-9)

    def test_volumes_partition_the_ball(self):
        g = make_grid(4, 3.0, 64, 1.02)
        total = g.cell_volumes.sum()
        want = sphere_area(4) / 4 * 3.0**4
        assert total == pytest.approx(want, rel=1e-12)

    def test_field_length_mismatch_rejected(self):
        g = make_grid(3, 2.0, 32, 1.0)
        with pytest.raises(ValueError):
            RadialField(g, np.ones(g.n - 1))

    def test_nonfinite_values_rejected_at_construction(self):
        g = make_grid(3, 2.0, 32, 1.0)
        vals = np.ones(g.n)
        vals[0] = np.inf
        with pytest.raises(CorruptionError):
            RadialField(g, vals)


class TestColumnFiles:
    MAGIC = "# test columns v1"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=20))
    def test_round_trip_is_exact(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("columns") / "c.txt"
        x, y = np.array(pairs).T
        write_columns(path, [self.MAGIC, "# d=4 t=0.5 note=free text"], column_text(x), y)
        header, x_back, y_back = read_columns(path, self.MAGIC, {"d": int, "t": float})
        assert header == {"d": 4, "t": 0.5}
        assert x_back.tobytes() == x.tobytes() and y_back.tobytes() == y.tobytes()

    def test_rows_are_the_repr_of_each_float(self, tmp_path):
        path = tmp_path / "c.txt"
        write_columns(path, [self.MAGIC], column_text([0.0, 0.1]), [-0.0, 1e-300])
        assert path.read_text() == f"{self.MAGIC}\n0.0 -0.0\n0.1 1e-300\n"

    def test_a_binary_file_is_named(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"\xff\xfe\x00binary\n")
        with pytest.raises(ValueError, match="first line is not") as exc:
            read_columns(path, self.MAGIC, {"d": int})
        assert str(exc.value).startswith(f"{path}: ")
