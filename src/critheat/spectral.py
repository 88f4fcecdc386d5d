"""Frequency-side toolkit: radial spectra, decay character, linear heat decay.

A radial frequency profile s -> vhat(s) is either a closed-form family or a
table produced by the Hankel transform of a physical field. The low-frequency
mass F(rho) = omega_{d-1} int_0^rho |vhat|^2 s^{d-1} ds drives everything: the
decay character r* (the unique r for which rho^{-2r-d} F(rho) has a finite
nonzero limit as rho -> 0, estimated here as a log-log slope of F), and the
two-sided heat-semigroup decay (1+t)^{-(d/2+r*)} of the L2 norm.

Fourier convention is unitary, so Plancherel carries constant one; the decay
character itself is convention independent (it is a ratio of powers).

On a closed form, F(rho) and the heat norm are incomplete-gamma integrals with
an exact value, in logs (`_closed_log_mass`): the decay character fits log F
where F underflows, and only a regularized gamma P(a, x) that is not a normal
float is refused. On a table, F(rho) is the trapezoid rule over the nodes
refined 4-fold. Tables on one set of nodes are built as one batch
(`_table_block`): one monotone cubic `radial.pchip` of all their values, with
the bits of scipy's PCHIP row by row, one refined grid and its s^{d-1}, and
every table's integrand samples and trapezoid terms, each table's share kept
in its one cache `_table`. `table_masses` takes a flat list of such tables, a
table possibly more than once, with one rho per entry: the interval searches,
the tails [last node below rho, rho] at five points, their powers and the
cubic on them are each one numpy call over all entries, and each entry sums
its table's cached terms and its tail's as one array, with numpy's pairwise
sum. The Bessel function of a Hankel transform, and a closed form's `gammainc`
and `gammaln`, come from scipy's compiled `_special_ufuncs` extension, which
`_extensions.scipy_extension` loads on first use: no scipy package loads. The
transform's order picks its routine there (`_bessel_routine`): `j1` for order
1 (`jv` past s r = 2^15), the spherical Bessel function for a half-integer
order, `jv` for any other. It evaluates its Bessel kernel on every CPU the
process may use, in blocks of rows; each routine works element by element, so
the bits are those of one call of it, however many CPUs there are. It
evaluates J only on the span of nodes where some field carries weight, and the
transform keeps its bits. A set of frequency nodes is checked once
(`_tabulated_nodes`), and the tables built on it share it.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _extensions
from ._extensions import scipy_extension
from .radial import RadialField, column_text, pchip, read_columns, sphere_area, write_columns

CLOSED_FORM_KINDS = ("power_gauss", "power")
SPECTRUM_MAGIC = "# spectrum v1"


class SpectrumDomainError(ValueError):
    """Frequency outside the resolvable range of the spectrum."""


class TailMassError(ValueError):
    """Physical field has not decayed enough at r = R for a clean transform."""


#: the fields each spectrum kind reads, which a spectrum of that kind must set
KIND_FIELDS = {
    "power_gauss": ("k", "amp", "sig", "s_max"),
    "power": ("k", "amp", "sig", "s_max"),
    "tabulated": ("s_nodes", "values"),
}


class _Table(NamedTuple):
    """A table's row of a `_table_block` batch."""

    evaluate: Callable  # the batch's `radial.pchip` evaluator; the table is row `row`
    row: int
    grid: np.ndarray  # the refined nodes, on which `linear_heat_l2_sq` integrates
    samples: np.ndarray  # the mass integrand on `grid`
    terms: np.ndarray  # its trapezoid terms, one per interval, as `np.trapezoid` forms them


_MATCHING_ARRAYS = "tabulated spectrum needs matching 1-d arrays, >= 4 nodes"

#: the node sets `_tabulated_nodes` has passed, by id, each a read-only copy
#: that lives as long as some table or caller holds it
_NODE_SETS = weakref.WeakValueDictionary()


def _tabulated_nodes(s_nodes) -> np.ndarray:
    """`s_nodes` as a read-only float array, refused unless a table can stand
    on them: one dimension, at least 4 nodes, finite, positive, strictly
    increasing, and the first at or below s = 1e-3. A node set it has passed
    before is returned as it is; any other array is checked as a new copy."""
    if _NODE_SETS.get(id(s_nodes)) is s_nodes:
        return s_nodes
    s = np.array(s_nodes, dtype=float)
    if s.ndim != 1 or len(s) < 4:
        raise ValueError(_MATCHING_ARRAYS)
    if not np.all(np.isfinite(s)):
        raise ValueError("tabulated nodes and values must be finite")
    if np.any(np.diff(s) <= 0) or s[0] <= 0:
        raise ValueError("tabulated nodes must be positive and strictly increasing")
    if s[0] > 1e-3:
        raise ValueError("tabulated nodes must start at or below s = 1e-3")
    s.flags.writeable = False
    _NODE_SETS[id(s)] = s
    return s


@dataclass(frozen=True, eq=False)
class SpectrumFn:
    """Radial frequency profile with dimension attached.

    Closed forms: "power_gauss" is amp * s^k * exp(-(s/sig)^2) on (0, s_max],
    and "power" is amp * s^k, the same with sig = inf. Tabulated spectra
    interpolate (s_nodes, values) by the monotone cubic `radial.pchip`
    (scipy's PCHIP, bit for bit) and continue below the first node with the
    local power law fitted to the nodes of the first decade. A kind's fields
    (`KIND_FIELDS`) have no default here: the builders' signatures hold them.
    """

    d: int
    kind: str
    k: float | None = None
    amp: float | None = None
    sig: float | None = None
    s_nodes: np.ndarray | None = None
    values: np.ndarray | None = None
    s_max: float | None = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        missing = [name for name in KIND_FIELDS[self.kind] if getattr(self, name) is None]
        if missing:
            raise ValueError(f"a {self.kind} spectrum needs {', '.join(missing)}")
        if self.kind == "tabulated":
            s = _tabulated_nodes(self.s_nodes)
            v = np.asarray(self.values, dtype=float)
            if v.shape != s.shape:
                raise ValueError(_MATCHING_ARRAYS)
            if not np.all(np.isfinite(v)):
                raise ValueError("tabulated nodes and values must be finite")
            object.__setattr__(self, "s_nodes", s)
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "s_max", float(s[-1]))

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind in CLOSED_FORM_KINDS:
            with np.errstate(divide="ignore"):
                return self.amp * s**self.k * np.exp(-((s / self.sig) ** 2))
        table = self._table
        out = np.empty_like(s)
        low = s < self.s_nodes[0]
        out[~low] = table.evaluate(np.minimum(s[~low], self.s_nodes[-1]), table.row)
        if low.any():
            p, v0 = self._low_power
            out[low] = v0 * (s[low] / self.s_nodes[0]) ** p
        return out

    @cached_property
    def _table(self) -> _Table:
        """The table's share of the batch `_table_block` built it in."""
        _table_block([self])
        return self.__dict__["_table"]

    @cached_property
    def _stub_above(self) -> float:
        """The stub's whole mass, below the first node: `_stub_mass` for any
        rho at or above that node, where its factor is exactly 1."""
        return _stub_mass(self, math.inf)

    @cached_property
    def _low_power(self) -> tuple[float, float]:
        """Power-law continuation v0 (s/s0)^p below the first tabulated node s0:
        p is the least-squares log-log slope over the nodes up to 10 s0 (at
        least two), so no single pair of nodes decides the law; 0 if a value
        there is zero or of the other sign."""
        s, v = self.s_nodes, self.values
        n = max(2, int(np.searchsorted(s, 10.0 * s[0], side="right")))
        if np.any(v[:n] * v[0] <= 0.0):
            return 0.0, v[0]
        x = np.log(s[:n])
        x -= x.mean()
        y = np.log(np.abs(v[:n]))
        return float(x @ (y - y.mean()) / (x @ x)), v[0]


def gaussian_spectrum(d: int, *, k: float = 0.0, amp: float = 1.0, sig: float = 1.0) -> SpectrumFn:
    """amp * s^k * exp(-(s/sig)^2); decay character k."""
    # s_max is where its integrals stop, a fixed cutoff rather than a parameter
    return SpectrumFn(d=d, kind="power_gauss", k=k, amp=amp, sig=sig, s_max=50.0,
                      description=f"s^{k} gaussian")


def power_spectrum(d: int, *, k: float, amp: float = 1.0, s_max: float = 50.0) -> SpectrumFn:
    """amp * s^k: the gaussian one with sig = inf, whose factor is exactly 1."""
    return SpectrumFn(d=d, kind="power", k=k, amp=amp, sig=math.inf, s_max=s_max,
                      description=f"s^{k}")


def _mass_power(spec: SpectrumFn) -> float:
    """e = 2p + d where |vhat| ~ s^p near 0 (s^k, or a table's stub): F ~ rho^e."""
    expo = 2.0 * (spec.k if spec.kind in CLOSED_FORM_KINDS else spec._low_power[0]) + spec.d
    if expo <= 0.0:
        raise SpectrumDomainError(f"low-frequency mass diverges: 2p + d = {expo} <= 0")
    return expo


def _closed_log_mass(spec: SpectrumFn, upper: float, t: float) -> float:
    """log of omega_{d-1} int_0^upper e^{-2ts^2} |vhat|^2 s^{d-1} ds of a closed form (-inf if
    amp = 0): with a = e/2, beta = 2t + 2/sig^2, and x = beta upper^2, omega amp^2 Gamma(a)
    P(a, x) / (2 beta^a), or the power law where x <= 2^-54. beta and amp^2 are taken in logs,
    as they leave the double range for sig or |amp| beyond ~1e+-154. Refused outside
    (0, s_max] or where P(a, x) is not normal."""
    if not 0.0 < upper <= spec.s_max:
        raise SpectrumDomainError(f"rho={upper} outside (0, {spec.s_max}]")
    special = scipy_extension("special._special_ufuncs")
    e = _mass_power(spec)
    a = 0.5 * e
    with np.errstate(divide="ignore", over="ignore"):  # log 0 is -inf, and x may be inf
        log_scale = float(np.log(sphere_area(spec.d)) + 2.0 * np.log(abs(spec.amp)))
        log_beta = math.log(2.0) + float(np.logaddexp(np.log(t), -2.0 * np.log(spec.sig)))
        x = float(np.exp(log_beta + 2.0 * math.log(upper)))
    if x <= 2.0**-54:  # e^{-beta s^2} is 1 to the last bit on [0, upper]
        return log_scale + e * math.log(upper) - math.log(e)
    p = float(special.gammainc(a, x))
    if not p >= 2.0**-1022:  # the least normal float
        raise SpectrumDomainError(f"closed-form mass out of range: P({a}, {x}) = {p}")
    return log_scale + math.log(0.5 * p) + float(special.gammaln(a)) - a * log_beta


def _mass_integrand(d: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """omega_{d-1} |vhat|^2 s^{d-1} at s, where v = vhat(s), broadcast."""
    return sphere_area(d) * v * v * s ** (d - 1)


def _trapezoid_terms(s: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The terms of the trapezoid rule of `vals` over s along the last axis,
    one per interval, as `np.trapezoid` forms them before it sums."""
    return (s[..., 1:] - s[..., :-1]) * (vals[..., 1:] + vals[..., :-1]) / 2.0


def _refine(pts: np.ndarray) -> np.ndarray:
    """`pts` with 3 evenly spaced points inside each interval, so quadrature
    over a table is not table-limited; the same bits as `np.linspace(a, b, 5)`
    interval by interval."""
    inner = np.linspace(pts[:-1], pts[1:], 5, axis=1)[:, :-1].ravel()
    return np.concatenate([inner, pts[-1:]])


def _stub_mass(spec: SpectrumFn, rho: float) -> float:
    """Mass below min(rho, first tabulated node), from the fitted power law."""
    v0 = spec._low_power[1]
    expo = _mass_power(spec)
    s0 = spec.s_nodes[0]
    # the stub's mass grows like s^expo; the factor is exactly 1 for rho >= s0
    return sphere_area(spec.d) * v0 * v0 * s0**spec.d / expo * (min(rho, s0) / s0) ** expo


def low_freq_mass(spec: SpectrumFn, rho: float) -> float:
    """F(rho) = omega_{d-1} int_0^rho |vhat(s)|^2 s^{d-1} ds."""
    if spec.kind in CLOSED_FORM_KINDS:
        return float(np.exp(_closed_log_mass(spec, rho, 0.0)))
    return float(table_masses([spec], [rho])[0])


def _table_block(tables: list[SpectrumFn]):
    """The `radial.pchip` evaluator whose rows are the cubics of `tables`,
    which share their nodes and dimension. If they are not all rows of one
    evaluator, builds one for them, and with it every table's `_table` in one
    pass: `_refine` of the nodes, its power s^{d-1}, the mass samples and their
    trapezoid terms. A row has the bits of its own table's."""
    cached = [table.__dict__.get("_table") for table in tables]
    if None not in cached and all(c.evaluate is cached[0].evaluate for c in cached):
        return cached[0].evaluate
    s, d = tables[0].s_nodes, tables[0].d
    evaluate = pchip(s, np.stack([table.values for table in tables]))
    grid = _refine(s)
    samples = _mass_integrand(d, grid, evaluate(grid))
    terms = _trapezoid_terms(grid, samples)
    for row, table in enumerate(tables):
        table.__dict__["_table"] = _Table(evaluate, row, grid, samples[row], terms[row])
    return evaluate


def table_masses(tables, rhos) -> np.ndarray:
    """`low_freq_mass` of each table in `tables` at its rho in `rhos`, as a
    1-d array. The tables must share their nodes and dimension; a table may
    appear more than once. The interval search, the tails, their powers and
    the cubic on them are formed once for all entries."""
    first = tables[0]
    block = list(dict.fromkeys(tables))
    if any(spec.kind != "tabulated" or spec.d != first.d
           or not (spec.s_nodes is first.s_nodes or np.array_equal(spec.s_nodes, first.s_nodes))
           for spec in block):
        raise ValueError("table masses need tables on one set of nodes, in one dimension")
    rhos = np.asarray(rhos, dtype=float)
    for rho in rhos.tolist():
        if not 0.0 < rho <= first.s_max:
            raise SpectrumDomainError(f"rho={rho} outside (0, {first.s_max}]")
    evaluate = _table_block(block)
    # each rho's grid is `_refine` of the nodes below it and rho itself: the
    # table's samples up to the last such node s_{k-1}, then the tail
    # np.linspace(s_{k-1}, rho, 5). Its trapezoid terms are the cached ones up
    # to s_{k-1} and the tail's, summed as one array, as `np.trapezoid` sums
    # them. A rho below the first node (k = 0) takes the stub alone, and its
    # tail, from s_0, is not read
    s = first.s_nodes
    k = s.searchsorted(rhos)
    lo = s[np.maximum(k, 1) - 1][:, None]
    delta = rhos[:, None] - lo
    step = delta / 4.0
    # as np.linspace, entry by entry: i step + s_{k-1}, or i/4 of the gap where
    # the step underflows to 0, and rho itself last. Inside [s_0, s_max] the
    # table is its cubic: no stub, no clipping
    i = np.arange(5.0)
    tail = i * step + lo
    tiny = step[:, 0] == 0.0
    if tiny.any():
        tail[tiny] = i / 4.0 * delta[tiny] + lo[tiny]
    tail[:, -1] = rhos
    rows = np.array([spec._table.row for spec in tables])[:, None]
    tail_terms = _trapezoid_terms(tail, _mass_integrand(first.d, tail, evaluate(tail, rows)))
    masses = np.empty(len(tables))
    for j, (spec, kj) in enumerate(zip(tables, k.tolist())):
        if kj == 0:
            masses[j] = _stub_mass(spec, rhos[j])
        else:
            terms = np.concatenate([spec._table.terms[:4 * (kj - 1)], tail_terms[j]])
            masses[j] = float(terms.sum()) + spec._stub_above
    return masses


@dataclass(frozen=True)
class DecayCharacterEstimate:
    """Log-log slope surrogate for the decay character.

    The literal limit rho -> 0 is unobservable numerically; the slope of
    log F over a geometric rho-ladder, with its residual gate, stands in for
    it. `flag` is None for a clean estimate, "nonlinear_fit" when strong
    low-frequency oscillation defeats the fit (the character may not exist),
    and "at_lower_bound" when the slope indicates r* <= -d/2.
    """

    r_star: float
    p_r_value: float
    fit_residual: float
    flag: str | None = None


#: the decay character's ladder, RHO_STEPS geometric steps across RHO_WINDOW,
#: and the largest residual of log F about its line that a clean fit may have
RHO_WINDOW = (1e-3, 1e-1)
RHO_STEPS = 12
TOL_FIT = 0.05


def decay_character(spec: SpectrumFn) -> DecayCharacterEstimate:
    """Estimate r* = (slope of log F vs log rho - d) / 2 on a geometric ladder."""
    rhos = np.geomspace(*RHO_WINDOW, RHO_STEPS)
    if spec.kind in CLOSED_FORM_KINDS:  # in logs: F may underflow where log F does not
        y = np.array([_closed_log_mass(spec, rho, 0.0) for rho in rhos])
        with np.errstate(over="ignore"):  # or overflow, and P_r with it: both read inf
            masses = np.exp(y)
    else:
        masses = table_masses([spec] * RHO_STEPS, rhos)
        y = np.log(np.where(masses > 0.0, masses, np.nan))
    if not np.all(np.isfinite(y)):  # a mass that is zero or negative
        return DecayCharacterEstimate(r_star=math.inf, p_r_value=0.0, fit_residual=math.inf,
                                      flag="nonlinear_fit")
    x = np.log(rhos)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    r_star = (slope - spec.d) / 2.0
    flag = None
    if residual > TOL_FIT:
        flag = "nonlinear_fit"
    elif r_star <= -spec.d / 2.0 + 1e-9:
        flag = "at_lower_bound"
    with np.errstate(over="ignore"):
        p_r = float(np.mean(masses * rhos ** (-2.0 * r_star - spec.d)))
    return DecayCharacterEstimate(r_star=float(r_star), p_r_value=p_r, fit_residual=residual,
                                  flag=flag)


def lambda_spectrum(spec: SpectrumFn) -> SpectrumFn:
    """Spectrum of Lambda v = (-Delta)^{1/2} v, i.e. s * vhat(s)."""
    description = f"Lambda({spec.description})"
    if spec.kind in CLOSED_FORM_KINDS:
        return replace(spec, k=spec.k + 1.0, description=description)
    return replace(spec, values=spec.s_nodes * spec.values, description=description)


def linear_heat_l2_sq(spec: SpectrumFn, t: float) -> float:
    """||v(t)||_{L2}^2 for v_t = Delta v, exactly on the Fourier side:
    omega_{d-1} int_0^{s_max} e^{-2 t s^2} |vhat|^2 s^{d-1} ds."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if spec.kind in CLOSED_FORM_KINDS:
        return float(np.exp(_closed_log_mass(spec, spec.s_max, t)))
    table = spec._table
    vals = table.samples * np.exp(-2.0 * t * table.grid * table.grid)
    return float(np.trapezoid(vals, table.grid)) + spec._stub_above


def decay_bounds_check(spec: SpectrumFn, r_star: float, t_grid) -> tuple[float, float]:
    """Extremes of ||v(t)||^2 (1+t)^{d/2+r*} over the grid.

    Bounded, strictly positive extremes certify the two-sided linear decay
    bound at desk scale; a mismatched r* makes the ratio drift."""
    power = spec.d / 2.0 + r_star
    ratios = [linear_heat_l2_sq(spec, t) * (1.0 + t) ** power for t in t_grid]
    return min(ratios), max(ratios)


def hankel_spectra(fields, s_nodes) -> list[SpectrumFn]:
    """Tabulated radial Fourier transforms of several fields on one grid.

    vhat(s) = s^{-(d-2)/2} int_0^R u(r) J_{(d-2)/2}(r s) r^{d/2} dr in the
    unitary convention, so Plancherel holds with constant one. One Bessel
    kernel serves every field. J is evaluated only on the span of nodes where
    some field's u r^{d/2} is nonzero (never r = 0), and the kernel is 0
    elsewhere; the sum over nodes stays full width, so each value has the full
    kernel's bits, but for the sign of an exactly-zero sum. `_bessel_kernel`
    evaluates the span on every CPU the process may use, with the same bits as
    one call of its routine (`_bessel_routine`). Nodes that no table can stand
    on are refused before any kernel work. Requires each field to have decayed
    to <= 1e-8 of its peak at the outer radius. That check reads the outer node
    alone, which `families.build_initial` and every substep pin to 0, so no
    field of a run or of its checkpoints trips it: only a hand-built field can.
    A field that has not decayed well inside R passes and aliases.
    """
    s_nodes = _tabulated_nodes(s_nodes)
    grid = fields[0].grid
    if any(u.grid is not grid and (u.grid.d != grid.d
                                   or not np.array_equal(u.grid.nodes, grid.nodes))
           for u in fields):
        raise ValueError("fields must share one grid")
    for u in fields:
        peak = float(np.max(np.abs(u.values)))
        edge = float(np.abs(u.values[-1]))
        if peak > 0.0 and edge > 1e-8 * peak:
            raise TailMassError(
                f"field carries {edge/peak:.2e} of its peak at r = R; transform would alias"
            )
    nu = (grid.d - 2) / 2.0
    r = grid.nodes
    rpow = r ** (grid.d / 2.0)
    weighted = np.stack([grid.line_weights * u.values * rpow for u in fields])
    live = np.flatnonzero(weighted.any(axis=0))
    kernel = np.zeros((len(s_nodes), len(r)))
    if live.size:
        span = slice(live[0], live[-1] + 1)
        _bessel_kernel(_bessel_routine(nu), s_nodes, r[span], kernel[:, span])
    # einsum, not `@`: a BLAS product this size wakes the BLAS thread pool,
    # whose threads keep spinning on another core after the call returns
    vals = np.einsum("fr,sr->fs", weighted, kernel) * s_nodes ** (-nu)
    return [
        SpectrumFn(
            d=grid.d, kind="tabulated", s_nodes=s_nodes, values=v,
            description="hankel transform",
        )
        for v in vals
    ]


#: row blocks of the Bessel kernel per worker: rows of small s cost less
#: than rows of large s, so workers that take small blocks from one shared
#: iterator finish together
BLOCKS_PER_WORKER = 4


#: `j1` forms x - 3 pi/4 in doubles, whose rounding is one phase error for
#: each binade of x: up to 2^15 that keeps it within 3.6e-15 of J_1 (against
#: mpmath), in [2^15, 2^16) it reads 1.5e-14. Past it order 1 takes `jv`
J1_MAX_ARG = 2.0**15


def _bessel_routine(nu: float):
    """J_nu as a routine `f(x, out)` of ufuncs of the `_special_ufuncs`
    extension, which scipy.special exports: `j1` for nu = 1 (`jv` past
    J1_MAX_ARG); sqrt(2x/pi) j_n(x), with j_n the spherical Bessel function, for
    nu = n + 1/2; `jv` at nu for any other order. Each works element by element,
    and its ufuncs release the GIL."""
    special = scipy_extension("special._special_ufuncs")
    if nu == 1.0:
        return partial(_order_one_bessel, special.j1, special.jv)
    n = nu - 0.5
    if n >= 0.0 and n.is_integer():
        return partial(_half_integer_bessel, special._spherical_jn, int(n))
    return partial(special.jv, nu)


def _order_one_bessel(j1, jv, x: np.ndarray, out: np.ndarray) -> None:
    """Writes J_1(x) into `out`, which may be `x`: `j1`, and `jv` past J1_MAX_ARG."""
    far = x > J1_MAX_ARG
    x_far = x[far]
    j1(x, out=out)
    out[far] = jv(1.0, x_far)


def _half_integer_bessel(spherical_jn, n: int, x: np.ndarray, out: np.ndarray) -> None:
    """Writes J_{n+1/2}(x) = sqrt(2x/pi) j_n(x) into `out`, which may be `x`."""
    scale = np.sqrt(x * (2.0 / math.pi))
    spherical_jn(n, x, out=out)
    out *= scale


def _bessel_kernel(bessel, s: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """Writes bessel(np.outer(s, r)) into `out`, the same bits, with its rows
    cut into blocks that one thread per CPU (`_extensions.cpu_count()`, at most
    one per block, the calling thread one of them) takes from one shared
    iterator; each block is formed in place, and `bessel`, a routine of
    `_bessel_routine`, releases the GIL. The first exception a block raises is
    raised here, after every thread has ended."""
    cpus = _extensions.cpu_count()
    n_blocks = max(1, min(len(s), BLOCKS_PER_WORKER * cpus))
    edges = [len(s) * i // n_blocks for i in range(n_blocks + 1)]
    blocks = iter(zip(edges[:-1], edges[1:]))
    lock = threading.Lock()
    errors = []

    def work() -> None:
        try:
            while True:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                lo, hi = block
                view = out[lo:hi]
                np.multiply.outer(s[lo:hi], r, out=view)
                bessel(view, out=view)
        except Exception as exc:  # raised in the caller once every thread has ended
            errors.append(exc)

    threads = []
    try:
        for _ in range(min(cpus, n_blocks) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def hankel_spectrum(u: RadialField, s_nodes) -> SpectrumFn:
    """Tabulated radial Fourier transform of one field; see `hankel_spectra`."""
    return hankel_spectra([u], s_nodes)[0]


def save_spectrum(spec: SpectrumFn, path) -> None:
    """Two-column text export with a header: dimension, kind, normalization."""
    if spec.kind == "tabulated":
        s, v = spec.s_nodes, spec.values
    else:
        s = np.geomspace(1e-4, spec.s_max, 400)
        v = spec(s)
    header = [SPECTRUM_MAGIC, f"# d={spec.d} kind={spec.kind} normalization=unitary",
              f"# description={spec.description}"]
    write_columns(path, header, column_text(s), v)


def load_spectrum(path, d: int | None = None) -> SpectrumFn:
    """A spectrum saved by `save_spectrum`; its `d=` header must equal `d` if given."""
    head, s, v = read_columns(path, SPECTRUM_MAGIC, {"d": int})
    if d is not None and head["d"] != d:
        raise ValueError(f"dimension: {d} does not match the d={head['d']} header of {path}")
    try:
        return SpectrumFn(d=head["d"], kind="tabulated", s_nodes=s, values=v,
                          description=f"loaded from {Path(path).name}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
