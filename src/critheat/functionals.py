"""Scalar diagnostics of the variational framework.

Energy E(u) = (1/2)||grad u||_{L2}^2 - (1/2*)||u||_{L2*}^{2*} with the critical
exponent 2* = 2d/(d-2), and the Nehari functional J(u) = ||u||_{H1}^2 -
||u||_{L2*}^{2*}: every `EnergyReport` carries both. Also stable/unstable set
membership below the ground-state energy, and the weighted norm
t^{(d/2)(1/2* - 1/q)} ||u(t)||_{Lq} whose vanishing characterizes dissipation,
at the one admissible q that the lab uses, `default_q(d)`.
Each integral is checked once, on its value (`radial.power_integral`): NaN/Inf
samples, or an integral that overflows, raise CorruptionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial import RadialField, power_integral

MPLUS = "MPlus"
MMINUS = "MMinus"
ABOVE_THRESHOLD = "AboveThreshold"
AT_THRESHOLD = "AtThreshold"

#: classification tolerance relative to |E(W)|; the AtThreshold band of
#: `threshold_band` is ten of these, widened to twice the run grid's E(W) bias
TOL_THRESHOLD_REL = 1e-5


def threshold_band(e_w: float, e_w_grid: float) -> float:
    """Half-width of the AtThreshold band around E(W).

    Ten classification tolerances of E(W), widened to twice a grid's own
    E(W) bias, `e_w_grid` being E(W) on that grid (`run_flow` passes its run
    grid's): a margin inside the grid's quadrature error is not a resolvable
    margin.
    """
    return max(10.0 * TOL_THRESHOLD_REL * abs(e_w), 2.0 * abs(e_w_grid - e_w))

#: a truncated L2 integral counts as "not in L2" when the outer quarter of the
#: domain contributes more than this fraction of the total
L2_TAIL_FRACTION = 0.01


def crit_exponent(d: int) -> float:
    """The energy-critical Sobolev exponent 2d/(d-2)."""
    return 2.0 * d / (d - 2.0)


def h1_norm_sq(u: RadialField) -> float:
    """||u||_{H1-dot}^2 = ||grad u||_{L2}^2 as the Dirichlet form of the
    finite-volume Laplacian, the gradient energy the flow dissipates."""
    return power_integral(u.grid.face_weights, np.diff(u.values), 2)


def l2star_power(u: RadialField) -> float:
    """||u||_{L2*}^{2*}."""
    return power_integral(u.grid.quad_weights, u.values, crit_exponent(u.grid.d))


def l2_norm_sq(u: RadialField) -> float:
    """||u||_{L2}^2 on the truncated domain."""
    return power_integral(u.grid.quad_weights, u.values, 2)


def converged_l2_sq(u: RadialField) -> float | None:
    """||u||_{L2}^2 on the truncated domain, or None when the outer quarter of
    [0, R] carries more than `L2_TAIL_FRACTION` of it."""
    total = l2_norm_sq(u)
    outer = u.grid.nodes >= 0.75 * u.grid.rmax
    tail = power_integral(u.grid.quad_weights[outer], u.values[outer], 2)
    return None if tail > L2_TAIL_FRACTION * total else total


def _energy(h1_sq: float, l2star_pow: float, d: int) -> float:
    return 0.5 * h1_sq - l2star_pow / crit_exponent(d)


def energy(u: RadialField) -> float:
    """E(u) = (1/2)||grad u||^2 - (1/2*)||u||_{2*}^{2*}."""
    return _energy(h1_norm_sq(u), l2star_power(u), u.grid.d)


@dataclass(frozen=True)
class EnergyReport:
    """All scalar diagnostics of a field at one time.

    `energy` and `nehari` are derived from `h1_sq` and `l2star_pow` exactly as
    computed, so the defining identities hold by construction. `l2_sq` is None
    when the far-field tail has not converged on the truncated domain (the
    field is not in L2 numerically).
    """

    h1_sq: float
    l2star_pow: float
    energy: float
    nehari: float
    l2_sq: float | None


def energy_report(u: RadialField) -> EnergyReport:
    h1 = h1_norm_sq(u)
    l2s = l2star_power(u)
    return EnergyReport(
        h1_sq=h1,
        l2star_pow=l2s,
        energy=_energy(h1, l2s, u.grid.d),
        nehari=h1 - l2s,
        l2_sq=converged_l2_sq(u),
    )


@dataclass(frozen=True)
class SetMembership:
    """Where a datum sits against the ground-state threshold.

    `margin` is |E - E(W)|; `branch` names the dichotomy hypothesis the datum
    satisfies: "I" (MPlus), "II" (MMinus with a gradient ratio above 1 and
    finite L2) or "none".
    """

    verdict: str
    e_ratio: float
    grad_ratio: float
    margin: float
    branch: str


def classify_set(
    report: EnergyReport, e_w: float, grad_sq_w: float, band: float
) -> SetMembership:
    """Place a datum, from its t = 0 report, against the ground state W.

    AtThreshold when |E - E(W)| <= band, AboveThreshold when E exceeds E(W)
    by more. Below the band the gradient ratio ||grad u|| / ||grad W|| sorts
    it, as in Kenig-Merle: MPlus under 1, MMinus otherwise.
    """
    grad_ratio = math.sqrt(report.h1_sq / grad_sq_w)
    margin = abs(report.energy - e_w)
    if margin <= band:
        verdict, branch = AT_THRESHOLD, "none"
    elif report.energy > e_w:
        verdict, branch = ABOVE_THRESHOLD, "none"
    elif grad_ratio < 1.0:
        verdict, branch = MPLUS, "I"
    else:
        verdict, branch = MMINUS, "II" if grad_ratio > 1.0 and report.l2_sq is not None else "none"
    return SetMembership(verdict, report.energy / e_w, grad_ratio, margin, branch)


def kq_inv_window(d: int) -> tuple[float, float]:
    """Admissible window for 1/q: 1/2* - 1/(d(2*-1)) < 1/q < 1/2*.

    In d = 3 the lower edge tightens to 1/2* - 1/24, matching the narrower
    exponent range under which time-derivative regularity is available; the
    regularity claim itself is not tested here.
    """
    two_star = crit_exponent(d)
    hi = 1.0 / two_star
    lo = hi - 1.0 / (d * (two_star - 1.0))
    if d == 3:
        lo = max(lo, hi - 1.0 / 24.0)
    return lo, hi


def default_q(d: int) -> float:
    """Midpoint (in 1/q) of the admissible window."""
    lo, hi = kq_inv_window(d)
    return 2.0 / (lo + hi)


def kq_weight(t: float, u: RadialField) -> float:
    """t^{(d/2)(1/2* - 1/q)} ||u(t)||_{Lq} at the one q the lab uses, `default_q(d)`;
    decays to 0 on dissipative flows."""
    d = u.grid.d
    q = default_q(d)
    power = 0.5 * d * (1.0 / crit_exponent(d) - 1.0 / q)
    return t**power * power_integral(u.grid.quad_weights, u.values, q) ** (1.0 / q)
