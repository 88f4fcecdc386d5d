"""Named initial-data families and checkpoint save/load.

A family builder takes the grid (`bumps`, the one family that draws, also the
run's seed) and its parameters as keyword arguments; its signature is the one
definition of those parameters and their defaults, and `config` reads it to
check a configuration up front. Where the transform is known in closed form
the family also supplies its frequency profile, which the decay-rate machinery
prefers over a numerical transform.
"""

from __future__ import annotations

import math

import numpy as np

from . import ground_state, spectral
from .radial import (CorruptionError, RadialField, RadialGrid, pchip, read_columns,
                     write_columns)

CHECKPOINT_MAGIC = "# critheat checkpoint v1"
CHECKPOINT_KEYS = {"d": int, "R": float, "n": int, "t": float, "stretch": float}


def _w_family(grid: RadialGrid, *, a=1.0, lam=1.0) -> np.ndarray:
    return a * ground_state.bubble_values(grid.d, grid.nodes, lam)


def _gaussian_family(grid: RadialGrid, *, amp=0.05, width=1.0) -> np.ndarray:
    return amp * np.exp(-((grid.nodes / width) ** 2))


def _cutoff_taper(r: np.ndarray, rho_c: float, width: float) -> np.ndarray:
    """1 inside rho_c, smooth cosine rolloff to 0 over [rho_c, rho_c + width]."""
    chi = np.zeros_like(r)
    chi[r <= rho_c] = 1.0
    ramp = (r > rho_c) & (r < rho_c + width)
    chi[ramp] = 0.5 * (1.0 + np.cos(math.pi * (r[ramp] - rho_c) / width))
    return chi


def cutoff_window(r_max: float, rho_c=None, taper=None) -> tuple[float, float]:
    """The `aW_cutoff` cutoff radius (default R/4) and taper width (default
    rho_c/4) on [0, r_max]; the taper must end inside the domain."""
    rho_c = r_max / 4.0 if rho_c is None else rho_c
    taper = rho_c / 4.0 if taper is None else taper
    if rho_c + taper >= r_max:
        raise ValueError(f"family.rho_c: cutoff {rho_c}+{taper} must end inside R={r_max}")
    return rho_c, taper


def _w_cutoff_family(grid: RadialGrid, *, a=1.2, rho_c=None, taper=None) -> np.ndarray:
    """a*W cut off at rho_c with a taper; see `cutoff_window`."""
    rho_c, taper = cutoff_window(grid.rmax, rho_c, taper)
    w = ground_state.bubble_values(grid.d, grid.nodes)
    return a * w * _cutoff_taper(grid.nodes, rho_c, taper)


def _power_tail_family(grid: RadialGrid, *, p, amp=0.1) -> np.ndarray:
    return amp * (1.0 + grid.nodes**2) ** (-p / 2.0)


def _bumps_family(grid: RadialGrid, seed: int, *, n_bumps=3, amp=0.05, spread=4.0) -> np.ndarray:
    """Sum of symmetrized off-center bumps, drawn from `seed`; smooth at the
    origin by even extension, so u_r(0) = 0 holds exactly."""
    rng = np.random.default_rng(seed)
    r = grid.nodes
    out = np.zeros_like(r)
    for _ in range(n_bumps):
        a = amp * (0.5 + rng.random())
        c = spread * rng.random()
        w = 0.5 + 1.5 * rng.random()
        out += a * (np.exp(-(((r - c) / w) ** 2)) + np.exp(-(((r + c) / w) ** 2)))
    return out


def _from_file_family(grid: RadialGrid, *, path) -> np.ndarray:
    field, _t = load_checkpoint(path)
    if field.grid.d != grid.d:
        raise ValueError(f"{path}: checkpoint dimension {field.grid.d} "
                         f"does not match run {grid.d}")
    # at the checkpoint's own nodes PCHIP returns its samples to the bit (a -0.0
    # reads +0.0), so a run on the checkpoint's grid reads it unchanged
    vals = pchip(field.grid.nodes, field.values)(np.minimum(grid.nodes, field.grid.rmax))
    vals[grid.nodes > field.grid.rmax] = 0.0
    return vals


FAMILIES = {
    "aW": _w_family,
    "gaussian": _gaussian_family,
    "aW_cutoff": _w_cutoff_family,
    "power_tail": _power_tail_family,
    "bumps": _bumps_family,
    "from_file": _from_file_family,
}


def build_initial(name: str, params: dict, grid: RadialGrid, seed: int = 0) -> RadialField:
    """Construct the initial field; the last node is pinned to the Dirichlet value."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; registered: {sorted(FAMILIES)}")
    # only `bumps` draws, so no other family imports numpy.random (6 MB of a cold run)
    seeded = (seed,) if name == "bumps" else ()
    values = np.asarray(FAMILIES[name](grid, *seeded, **params), dtype=float)
    values[-1] = 0.0
    return RadialField(grid, values)


def initial_spectrum(name: str, params: dict, d: int) -> spectral.SpectrumFn | None:
    """Closed-form frequency profile of the family, when one is known.

    A physical gaussian amp*exp(-(r/w)^2) transforms to
    amp*(w^2/2)^{d/2} exp(-(w s/2)^2) under the unitary convention.
    """
    if name == "gaussian":
        args = {**_gaussian_family.__kwdefaults__, **params}  # the builder's defaults
        amp, width = args["amp"], args["width"]
        return spectral.gaussian_spectrum(
            d, k=0.0, amp=amp * (width * width / 2.0) ** (d / 2.0), sig=2.0 / width
        )
    return None


def save_checkpoint(path, field: RadialField, t: float) -> None:
    """Versioned two-column text checkpoint: header (d, R, n, t, stretch), then r_i u_i."""
    g = field.grid
    header = f"# d={g.d} R={float(g.rmax)!r} n={g.n} t={float(t)!r} stretch={float(g.stretch)!r}"
    write_columns(path, [CHECKPOINT_MAGIC, header], g.node_text, field.values)


def load_checkpoint(path) -> tuple[RadialField, float]:
    """A checkpoint saved by `save_checkpoint`: its rows must be finite
    (else CorruptionError) and agree with the header's n= and R=."""
    head, r, u = read_columns(path, CHECKPOINT_MAGIC, CHECKPOINT_KEYS)
    if not (np.isfinite(r).all() and np.isfinite(u).all()):
        raise CorruptionError(f"{path}: checkpoint holds non-finite samples")
    if (head["n"], head["R"]) != (len(r), r[-1]):
        raise ValueError(f"{path}: header n={head['n']} R={head['R']!r} does not match "
                         f"its {len(r)} rows ending at r = {float(r[-1])!r}")
    try:
        grid = RadialGrid(d=head["d"], nodes=r, stretch=head["stretch"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return RadialField(grid, u), head["t"]
