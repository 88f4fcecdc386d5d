"""Desk-scale laboratory for the energy-critical nonlinear heat flow on R^d.

Modules
-------
radial        graded grids, quadrature, finite-volume Laplacian and its
              Dirichlet form, the one discrete gradient
ground_state  the explicit bubble, Pohozaev/energy calibration
functionals   energy reports (E and the Nehari functional), set membership,
              weighted-norm decay
evolve        adaptive IMEX integration with dissipation/blowup verdicts
spectral      Hankel transform (scipy Bessel kernel), radial spectra, decay
              character, linear heat decay bounds
families      named initial-data families
experiments   dichotomy sweeps, decay-rate fits, splitting diagnostic
config        run configuration parsing and serialization
cli           command-line front end (run / sweep / decayfit / character / splitting)
"""

__version__ = "0.1.0"

from .radial import (
    CorruptionError,
    RadialField,
    RadialGrid,
    make_grid,
    radial_integral,
    sphere_area,
)
from .ground_state import aubin_talenti, pohozaev_residual
from .functionals import EnergyReport, SetMembership, classify_set, energy, kq_weight
from .evolve import FlowSettings, Snapshot, SolverState, Trajectory, Verdict, run_flow, step
from .spectral import SpectrumFn, decay_character, hankel_spectrum, linear_heat_l2_sq

__all__ = [
    "CorruptionError",
    "EnergyReport",
    "FlowSettings",
    "RadialField",
    "RadialGrid",
    "SetMembership",
    "Snapshot",
    "SolverState",
    "SpectrumFn",
    "Trajectory",
    "Verdict",
    "aubin_talenti",
    "classify_set",
    "decay_character",
    "energy",
    "hankel_spectrum",
    "kq_weight",
    "linear_heat_l2_sq",
    "make_grid",
    "pohozaev_residual",
    "radial_integral",
    "run_flow",
    "sphere_area",
    "step",
    "__version__",
]
