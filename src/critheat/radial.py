"""Radial grids, quadrature, and the finite-volume Laplacian on a truncated ball.

Radially symmetric functions on R^d (d >= 3) are represented by samples on a
graded one-dimensional grid 0 = r_0 < r_1 < ... < r_{n-1} = R. Integrals carry
the surface measure of the unit (d-1)-sphere. The only discrete gradient is
the difference quotient on the midpoint faces between nodes, and its
Dirichlet form (`face_weights`) is the discrete ||grad u||^2. The Laplacian is
the conservative finite-volume operator r^{1-d} (r^{d-1} u_r)_r on the grid's
dual cells, in symmetric form -V^{-1} K: K the stiffness matrix of
`face_weights` (`stiffness_bands`), V the `cell_volumes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class CorruptionError(RuntimeError):
    """A field holds NaN/Inf values, or an integral of it overflows; the
    corruption is surfaced, not propagated."""


def gamma_half_integer(twice_x: int) -> float:
    """Gamma(twice_x / 2) for positive integer twice_x.

    Only integer and half-integer arguments occur (the dimension d is an
    integer), so the value follows from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi)
    by the recursion Gamma(x + 1) = x Gamma(x).
    """
    if twice_x < 1:
        raise ValueError(f"gamma argument must be >= 1/2, got {twice_x}/2")
    if twice_x % 2 == 0:
        value, x = 1.0, 1.0
    else:
        value, x = math.sqrt(math.pi), 0.5
    while 2 * x < twice_x:
        value *= x
        x += 1.0
    return value


def sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere, 2 pi^{d/2} / Gamma(d/2)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / gamma_half_integer(d)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded grid on [0, R] with geometric node spacing.

    `stretch` is the ratio of consecutive spacings (1 means uniform). Nodes
    are immutable after construction; consumers share grids freely.
    """

    d: int
    nodes: np.ndarray
    stretch: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if self.d < 3:
            raise ValueError(f"dimension must be >= 3, got {self.d}")
        if nodes.ndim != 1 or len(nodes) < 16:
            raise ValueError("grid needs at least 16 nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must sit exactly at the origin")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def rmax(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def node_text(self) -> list[str]:
        """The nodes as the first column of checkpoint rows (`column_text`)."""
        return column_text(self.nodes)

    @cached_property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @cached_property
    def line_weights(self) -> np.ndarray:
        """Plain trapezoid weights for int_0^R f(r) dr (no sphere measure)."""
        h = self.spacings
        w = np.empty(self.n)
        w[0] = 0.5 * h[0]
        w[-1] = 0.5 * h[-1]
        w[1:-1] = 0.5 * (h[:-1] + h[1:])
        return w

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Weights w with sum(w * f) = omega_{d-1} int_0^R f r^{d-1} dr."""
        return self.line_weights * sphere_area(self.d) * self.nodes ** (self.d - 1)

    @cached_property
    def cell_faces(self) -> np.ndarray:
        """Midpoint faces f_i = (r_i + r_{i+1})/2 of the finite-volume cells."""
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @cached_property
    def face_weights(self) -> np.ndarray:
        """Weights a with sum(a * diff(u)^2) the Dirichlet form of the
        finite-volume Laplacian: face area omega_{d-1} f^{d-1} over spacing."""
        return sphere_area(self.d) * self.cell_faces ** (self.d - 1) / self.spacings

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Exact shell volumes (sphere measure included) of the dual cells."""
        f = self.cell_faces
        vol = np.empty(self.n)
        scale = sphere_area(self.d) / self.d
        vol[0] = scale * f[0] ** self.d
        vol[1:-1] = scale * (f[1:] ** self.d - f[:-1] ** self.d)
        # a numpy power, which overflows to inf where a float power raises
        vol[-1] = scale * (self.nodes[-1] ** self.d - f[-1] ** self.d)
        return vol

    @cached_property
    def stiffness_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Stiffness matrix K of `face_weights` as (diag, off) on nodes 0 .. n-2
        (u = 0 at R): u K u is the Dirichlet form, -V^{-1} K the flux-form
        Laplacian; V + dt K is a positive-definite M-matrix, so implicit
        diffusion preserves positivity."""
        a = self.face_weights
        return a + np.concatenate(([0.0], a[:-1])), -a[:-1]


@dataclass(eq=False)
class RadialField:
    """Samples of a radial function on a grid. Values must stay finite."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"value count {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.isfinite(self.values).all():
            raise CorruptionError("field holds non-finite values")

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())


def make_grid(d: int, R: float, n: int, stretch: float = 1.0) -> RadialGrid:
    """Build a grid whose spacings grow geometrically by `stretch`.

    The last node lands exactly on R (the geometric sum is normalized), the
    first sits exactly at 0. `stretch` = 1 gives uniform spacing. `RadialGrid`
    refuses d < 3.
    """
    if not R > 0:
        raise ValueError(f"outer radius must be positive, got {R}")
    if n < 16:
        raise ValueError(f"need at least 16 nodes, got {n}")
    if not (1.0 <= stretch <= 1.2):
        raise ValueError(f"stretch must lie in [1, 1.2], got {stretch}")
    if stretch == 1.0:
        nodes = np.linspace(0.0, R, n)
    else:
        # r_k = h0 (q^k - 1)/(q - 1) with h0 fixed so that r_{n-1} = R
        k = np.arange(n, dtype=float)
        growth = np.expm1(k * math.log(stretch))
        nodes = R * growth / growth[-1]
    nodes[0] = 0.0
    nodes[-1] = R
    return RadialGrid(d=d, nodes=nodes, stretch=stretch)


def grid_for_span(d: int, R: float, h0: float, eps: float) -> RadialGrid:
    """Grid reaching R with inner spacing ~ h0 and relative grading eps > 0."""
    n = max(16, int(math.ceil(math.log1p(R * eps / h0) / math.log1p(eps))) + 1)
    return make_grid(d, R, n, 1.0 + eps)


def _finite(integral: float) -> float:
    """The one check on a field integral, made on its value: CorruptionError
    unless it is finite, as when a sample is NaN/Inf or the sum overflows.
    Its callers silence numpy's overflow warnings, which would only repeat it."""
    if not math.isfinite(integral):
        raise CorruptionError(f"a field integral is {integral}: non-finite samples or overflow")
    return integral


def power_integral(weights: np.ndarray, x: np.ndarray, p: float) -> float:
    """weights @ |x|^p, checked by `_finite`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(weights @ np.abs(x) ** p))


def pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant of each row of `y` on x
    (x strictly increasing, at least 3 nodes, along `y`'s last axis; a 1-d `y`
    is a batch of one table), with the bits of scipy's PCHIP interpolator of
    (x, row) without extrapolation on [x_0, x_end].

    Interior slopes are the weighted harmonic mean of the neighbouring secants
    (Fritsch & Butland 1984), 0 where those differ in sign or one is 0; end
    slopes are Moler's shape-preserving one-sided three-point estimates. Every
    row's coefficients are formed by the same array operations, so a row has
    the bits of its own 1-d call. The evaluator `evaluate(s, row=None)` sums
    each interval's cubic in PPoly's order, ascending powers of the offset
    from the interval's left node, with x_end in the last interval: at s for
    a 1-d `y`; every row at s, shape (rows, *s.shape), for a 2-d one; or row
    `row[...]` at `s[...]`, the two broadcast together, when `row` is given.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    table = np.atleast_2d(y)
    h = np.diff(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.diff(table) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
        # a zero secant beside a nonzero one differs from it in sign
        flat = (np.sign(m[:, 1:]) != np.sign(m[:, :-1])) | (m[:, 1:] == 0)
        slopes = np.concatenate([_end_slope(h[0], h[1], m[:, :1], m[:, 1:2]),
                                 np.where(flat, 0.0, 1.0 / whmean),
                                 _end_slope(h[-1], h[-2], m[:, -1:], m[:, -2:-1])], axis=1)
        t = (slopes[:, :-1] + slopes[:, 1:] - 2 * m) / h
        # per row and interval, the coefficients of z^0 .. z^3, z the offset
        # from the interval's left node; z^0's is summed onto +0.0 as PPoly does
        coefficients = np.stack([0.0 + table[:, :-1], slopes[:, :-1],
                                 (m - slopes[:, :-1]) / h - t, t / h])
    inner = x[1:-1]
    every_row = np.arange(len(table))

    def evaluate(s, row=None) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if row is None:
            row = 0 if y.ndim == 1 else every_row.reshape((-1,) + (1,) * s.ndim)
        # the number of interior nodes <= s is its interval, x_end in the last
        i = np.searchsorted(inner, s, side="right")
        a0, a1, a2, a3 = coefficients[:, row, i]
        z = s - x[i]
        z2 = z * z
        return ((a0 + a1 * z) + a2 * z2) + a3 * (z2 * z)

    return evaluate


def _end_slope(h0, h1, m0, m1) -> np.ndarray:
    """Moler's end slope from the two end spacings and secants, element by
    element: the three-point estimate, 0 where its sign is not the end
    secant's, and 3 m0 where the secants change sign and it exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return np.where(np.sign(d) != np.sign(m0), 0.0,
                    np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)),
                             3.0 * m0, d))


def column_text(x) -> list[str]:
    """`repr(x_i) + " "` per sample: the first column of `write_columns` rows,
    which a column written many times formats once (`RadialGrid.node_text`)."""
    return [f"{a!r} " for a in np.asarray(x, dtype=float).tolist()]


def write_columns(path, header: list[str], x_text: list[str], y) -> None:
    """Two-column text file: the `header` lines (the first a magic line), then
    one `repr(x_i) repr(y_i)` row per sample, so floats read back exactly.
    The first column comes formatted, as `column_text(x)`."""
    rows = map(str.__add__, x_text, map(repr, np.asarray(y, dtype=float).tolist()))
    Path(path).write_text("\n".join([*header, *rows]) + "\n")


def read_columns(path, magic: str, keys: dict) -> tuple[dict, np.ndarray, np.ndarray]:
    """The `key=value` header tokens that `keys` names, each read by its type
    (`{"d": int}`), and the two columns of a `write_columns` file whose first
    line is `magic`. A bad file raises ValueError naming it and the line."""
    lines = Path(path).read_text(errors="replace").splitlines()
    if not lines or lines[0].strip() != magic:
        raise ValueError(f"{path}: first line is not {magic!r}")
    header, rows = {}, []
    for number, line in enumerate(lines[1:], 2):
        line = line.strip()
        try:
            if line.startswith("#"):
                for key, eq, value in (token.partition("=") for token in line[1:].split()):
                    if eq and key in keys:
                        header[key] = keys[key](value)
            elif line:
                a, b = line.split()
                rows.append((float(a), float(b)))
        except ValueError:
            typed = " ".join(f"{key}=<{kind.__name__}>" for key, kind in keys.items())
            raise ValueError(f"{path}: line {number}: expected two numbers or {typed}, "
                             f"got {line!r}") from None
    missing = [f"{key}=" for key in keys if key not in header]
    if missing:
        raise ValueError(f"{path}: missing {' '.join(missing)} header")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return (header, *np.array(rows).T)
