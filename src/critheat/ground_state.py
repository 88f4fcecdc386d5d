"""The explicit ground-state bubble and its calibration identities.

W(x) = (d(d-2))^{(d-2)/4} / (1 + |x|^2)^{(d-2)/2} is the positive radial
solution of -Delta W = |W|^{2*-2} W and the threshold of the dissipation /
blowup dichotomy. Everything downstream calibrates against it: the Pohozaev
identity ||grad W||^2 = ||W||_{2*}^{2*} (`pohozaev_residual`) and the
minimization value E(W) = ||grad W||^2 / d, in closed form (`reference`).
E(W) on a grid is `functionals.energy` of the grid's `aubin_talenti` samples.
`evolve.run_flow` builds the threshold from both, E(W) on its run grid, and
nothing else does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import functionals
from .radial import RadialField, RadialGrid, gamma_half_integer, grid_for_span, sphere_area


def bubble_amplitude(d: int) -> float:
    """W(0) = (d(d-2))^{(d-2)/4}."""
    return (d * (d - 2.0)) ** ((d - 2.0) / 4.0)


def bubble_values(d: int, r: np.ndarray, lam: float = 1.0) -> np.ndarray:
    x = r / lam
    return lam ** (-(d - 2.0) / 2.0) * bubble_amplitude(d) / (1.0 + x * x) ** ((d - 2.0) / 2.0)


def aubin_talenti(grid: RadialGrid) -> RadialField:
    """Samples of W on the grid, in the grid's dimension."""
    return RadialField(grid, bubble_values(grid.d, grid.nodes))


#: the largest dimension whose ||grad W||^2 `grad_norm_sq_closed_form` gives as a
#: double: its product pi^{d/2} (d(d-2))^{d/2} leaves the double range from d = 106
#: on (inf, and from d = 144 an OverflowError), so E(W) would be inf
MAX_DIMENSION = 105


def grad_norm_sq_closed_form(d: int) -> float:
    """||grad W||_{L2}^2 = pi^{d/2} (d(d-2))^{d/2} Gamma(d/2) / Gamma(d).

    Follows from the Beta integral int r^{d-1} (1+r^2)^{-d} dr =
    Gamma(d/2)^2 / (2 Gamma(d)) and the Pohozaev identity.
    """
    return (
        math.pi ** (d / 2.0)
        * (d * (d - 2.0)) ** (d / 2.0)
        * gamma_half_integer(d)
        / math.gamma(d)
    )


def pohozaev_residual(u: RadialField) -> float:
    """||grad u||^2 - ||u||_{2*}^{2*}; vanishes on (rescaled) bubbles."""
    return functionals.h1_norm_sq(u) - functionals.l2star_power(u)


#: target for the relative gradient mass of W beyond the default radius
DEFAULT_TAIL_REL = 2e-7
_CAL_H0 = 5e-4
_CAL_EPS = 3e-4


def default_radius(d: int) -> float:
    """Radius at which W's gradient tail drops below DEFAULT_TAIL_REL.

    The tail integral is omega_{d-1} c_d^2 (d-2) R^{-(d-2)} for the far-field
    coefficient c_d = W(0); discretization error then dominates truncation error."""
    c_sq = bubble_amplitude(d) ** 2
    tail_coeff = sphere_area(d) * c_sq * (d - 2.0)
    return (tail_coeff / (grad_norm_sq_closed_form(d) * DEFAULT_TAIL_REL)) ** (1.0 / (d - 2.0))


@lru_cache(maxsize=None)
def default_grid(d: int) -> RadialGrid:
    """Calibration grid: fine core, geometric far field out to default_radius."""
    return grid_for_span(d, default_radius(d), _CAL_H0, _CAL_EPS)


@dataclass(frozen=True)
class GroundStateReference:
    """Per-dimension threshold quantities ||grad W||^2 and E(W)."""

    e_w: float
    grad_sq_w: float


def reference(d: int) -> GroundStateReference:
    """Exact threshold quantities: E(W) = ||grad W||^2 / d in closed form."""
    grad_sq_w = grad_norm_sq_closed_form(d)
    return GroundStateReference(e_w=grad_sq_w / d, grad_sq_w=grad_sq_w)
