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
