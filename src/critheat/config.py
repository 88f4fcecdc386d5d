"""Configuration: JSON-compatible trees, validated with no silent defaults.

The only module that reads a configuration tree. `parse_config` fills every
default and records it, so serializing the result and parsing it again yields
an identical value. Each default is the default of a dataclass field
(`evolve.FlowSettings` for the flow parameters); `KEYS` places each field in
the tree and says which values it accepts, and both `parse_config` and
`RunConfig.to_json` read it (`parse_sweep` and `parse_character` likewise).
A family's or a spectrum's parameters are the keyword-only parameters of its
builder, checked against `PARAMS` and recorded as written: their defaults stay
in the builder's signature. The content hash of the configuration identifies
a run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import families, spectral
from .evolve import NONLINEARITY_SIGN, FlowSettings, snapshot_ladder
from .ground_state import MAX_DIMENSION
from .radial import RadialGrid, make_grid


class ConfigError(ValueError):
    """Malformed or invalid configuration; the message names the field."""


@dataclass(frozen=True, kw_only=True)
class RunConfig(FlowSettings):
    """The flow settings plus the grid, the initial data and the outputs."""

    dimension: int
    r_max: float
    n_nodes: int
    stretch: float = 1.0
    family: str
    family_params: tuple
    fit_t_lo: float = 2.0
    seed: int = 0
    out_dir: str | None = None

    @property
    def params(self) -> dict:
        return dict(self.family_params)

    def make_grid(self) -> RadialGrid:
        """The run grid, refused when memory cannot hold its nodes, or doubles cannot
        hold them, its cell volumes or face weights as strictly increasing, finite and positive."""
        where = (f"grid.R: {self.r_max!r} with grid.n = {self.n_nodes}, grid.stretch = "
                 f"{self.stretch!r} in d = {self.dimension}")
        with np.errstate(all="ignore"):  # the checks below report what over- or underflows
            try:  # `KEYS` has checked the arguments: what fails here is an allocation,
                # or nodes that doubles cannot hold as strictly increasing
                grid = make_grid(self.dimension, self.r_max, self.n_nodes, self.stretch)
            except (MemoryError, ValueError) as exc:
                # numpy refuses an array of more bytes than it can index with a ValueError
                if isinstance(exc, ValueError) and 8 * self.n_nodes <= np.iinfo(np.intp).max:
                    raise ConfigError(f"{where}: {exc}") from None
                raise ConfigError(f"grid.n: {self.n_nodes} nodes exceed memory: {exc}") from None
            for name in ("cell_volumes", "face_weights"):
                weights = getattr(grid, name)
                if not np.all((weights > 0.0) & (weights < math.inf)):
                    raise ConfigError(f"{where}: {name.replace('_', ' ')} are not all "
                                      "finite and positive")
        return grid

    def to_json(self) -> str:
        tree: dict = {}
        for key in KEYS:
            section, _, name = key.path.rpartition(".")
            node = tree.setdefault(section, {}) if section else tree
            value = getattr(self, key.field)
            node[name] = list(value) if isinstance(value, tuple) else value
        tree["family"].update(self.params)
        return json.dumps(tree, indent=2, sort_keys=True)

    def content_hash(self) -> str:
        payload = replace(self, out_dir=None).to_json()
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _expected(what: str, value, where: str) -> ConfigError:
    return ConfigError(f"{where}: expected {what}, got {type(value).__name__}")


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected("an integer", value, where)
    return value


def _number(value, where: str):
    """A finite number, kept as written so that an integer keeps its hash."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("a number", value, where)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return value


def _float(value, where: str) -> float:
    return float(_number(value, where))


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise _expected("a string", value, where)
    return value


def _times(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise _expected("a list", value, where)
    return tuple(_number(t, f"{where}[{i}]") for i, t in enumerate(value))


def _positive(value) -> bool:
    return value > 0


class Key(NamedTuple):
    """Where a configuration field lives in the JSON tree and what it accepts."""

    path: str  # "section.key", or "key" at the top level
    field: str
    read: Callable  # (JSON value, path) -> field value, or ConfigError
    ok: Callable = lambda value: True
    rule: str = ""  # what `ok` demands, for the error message


#: the dimension, of a run and of the `character` verb's spectrum alike
DIMENSION = Key("dimension", "dimension", _int, lambda v: 3 <= v <= MAX_DIMENSION,
                f"in [3, {MAX_DIMENSION}]")

KEYS = (
    DIMENSION,
    Key("grid.R", "r_max", _float, _positive, "> 0"),
    Key("grid.n", "n_nodes", _int, lambda v: v >= 16, ">= 16"),
    Key("grid.stretch", "stretch", _float, lambda v: 1.0 <= v <= 1.2, "in [1, 1.2]"),
    Key("family.name", "family", _text, lambda v: v in families.FAMILIES,
        f"a registered family {sorted(families.FAMILIES)}"),
    Key("integrator.tol", "tol", _float, _positive, "> 0"),
    Key("integrator.dt_init", "dt_init", _float, _positive, "> 0"),
    Key("integrator.dt_min", "dt_min", _float, _positive, "> 0"),
    Key("integrator.t_max", "t_max", _float, _positive, "> 0"),
    Key("integrator.nonlinearity", "nonlinearity", _text, lambda v: v in NONLINEARITY_SIGN,
        f"one of {sorted(NONLINEARITY_SIGN)}"),
    Key("snapshots.first", "snapshot_first", _float, _positive, "> 0"),
    Key("snapshots.factor", "snapshot_factor", _float, lambda v: v > 1, "> 1"),
    Key("snapshots.checkpoint_every", "checkpoint_every", _int, lambda v: v >= 1, ">= 1"),
    Key("snapshots.forced_times", "forced_times", _times, lambda v: all(t > 0 for t in v),
        "times > 0"),
    Key("verdict.eps_dissip_rel", "eps_dissip_rel", _float, _positive, "> 0"),
    Key("verdict.amp_cap", "amp_cap", _float, _positive, "> 0"),
    Key("diagnostics.fit_t_lo", "fit_t_lo", _float, _positive, "> 0"),
    Key("seed", "seed", _int, lambda v: v >= 0, ">= 0"),
    Key("out_dir", "out_dir", _text),
)


def _section(tree: dict, name: str) -> dict:
    if not name:
        return tree
    node = tree.get(name)
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise _expected("an object", node, name)
    return node


def _checked(key: Key, raw):
    value = key.read(raw, key.path)
    if not key.ok(value):
        raise ConfigError(f"{key.path}: must be {key.rule}, got {value!r}")
    return value


def _read(tree: dict, keys, defaults: dict, free=()) -> dict:
    """Field values of `keys`: each tree value checked, else the field's default.

    A key that `keys` does not place in the tree is refused, except the
    top-level keys `free` and whatever they hold.
    """
    known = {key.path.rpartition(".")[::2] for key in keys}
    known |= {("", section) for section, _ in known if section}
    for name, node in tree.items():
        if name in free:
            continue
        if ("", name) not in known:
            raise ConfigError(f"{name}: unknown key")
        for key in node if isinstance(node, dict) else ():
            if (name, key) not in known:
                raise ConfigError(f"{name}.{key}: unknown key")
    values = {}
    for key in keys:
        section, _, name = key.path.rpartition(".")
        raw = _section(tree, section).get(name)
        if raw is None:
            if defaults[key.field] is MISSING:
                raise ConfigError(f"{key.path}: missing required field")
            values[key.field] = defaults[key.field]
            continue
        values[key.field] = _checked(key, raw)
    return values


#: every keyword-only parameter of a family or spectrum builder: its reader and range
PARAMS = {
    "a": (_number,),
    "amp": (_number,),
    "p": (_number,),
    "spread": (_number,),
    "k": (_float,),
    "lam": (_number, _positive, "> 0"),
    "width": (_number, _positive, "> 0"),
    "rho_c": (_number, _positive, "> 0"),
    "taper": (_number, _positive, "> 0"),
    "sig": (_float, _positive, "> 0"),
    "s_max": (_float, _positive, "> 0"),
    "n_bumps": (_int, lambda v: v >= 1, ">= 1"),
    "path": (_text,),
}


def _arguments(build: Callable, section: str, node: dict, chooser: str) -> dict:
    """The keyword-only arguments of `build` that the object `section` sets
    besides `chooser`, each checked against `PARAMS`, kept as written.

    Unknown keys, `null` and missing required parameters are refused; an
    omitted parameter takes the default in the signature of `build`.
    """
    params = {p.name: p for p in inspect.signature(build).parameters.values()
              if p.kind is p.KEYWORD_ONLY}
    args = {}
    for name, raw in node.items():
        if name == chooser:
            continue
        if name not in params:
            raise ConfigError(f"{section}.{name}: unknown key")
        args[name] = _checked(Key(f"{section}.{name}", name, *PARAMS[name]), raw)
    for name, p in params.items():
        if p.default is p.empty and name not in args:
            raise ConfigError(f"{section}.{name}: missing required field")
    return args


def _load(text: str) -> dict:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # oversized integers, deep nesting
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("top level must be an object")
    return tree


def _run_config(tree: dict) -> RunConfig:
    # the family object also holds the family's own parameters, and the
    # `sweep` verb reads `sweep` from the same file
    values = _read(tree, KEYS, {f.name: f.default for f in fields(RunConfig)},
                   free=("family", "sweep"))
    params = _arguments(families.FAMILIES[values["family"]], "family", tree["family"], "name")
    if values["family"] == "aW_cutoff":  # the one family whose range depends on the grid
        try:
            families.cutoff_window(values["r_max"], params.get("rho_c"), params.get("taper"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    cfg = RunConfig(family_params=tuple(sorted(params.items())), **values)
    try:  # the ladder `run_flow` steps through, refused before any stepping
        snapshot_ladder(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration, materializing every default."""
    return _run_config(_load(text))


def reseeded(cfg: RunConfig, seed) -> RunConfig:
    """`cfg` with `seed`, checked by the rule that `KEYS` gives the seed."""
    return replace(cfg, seed=_checked(next(k for k in KEYS if k.field == "seed"), seed))


def parse_sweep(text: str) -> list[RunConfig]:
    """One configuration per `sweep` entry; the file's own if it has none.

    Each entry is an object. One that sets `name` replaces the `family`
    object; any other overrides the keys of the `family` object. Every merged
    tree is checked as `parse_config` checks a file, so a row's family and
    parameters are exactly what it runs.
    """
    tree = _load(text)
    entries = tree.get("sweep")
    if entries is None or entries == []:
        return [_run_config(tree)]
    if not isinstance(entries, list):
        raise _expected("a list", entries, "sweep")
    configs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _expected("an object", entry, f"sweep[{i}]")
        try:
            family = entry if "name" in entry else {**_section(tree, "family"), **entry}
            configs.append(_run_config({**tree, "family": family}))
        except ConfigError as exc:
            raise ConfigError(f"sweep[{i}]: {exc}") from exc
    return configs


#: the `character` verb's spectrum kinds and their builders; a builder's
#: keyword-only parameters are the kind's keys, required where it has no default
SPECTRUM_KINDS = {
    "power_gauss": spectral.gaussian_spectrum,
    "power": spectral.power_spectrum,
    "file": lambda d, *, path: spectral.load_spectrum(path, d),
}

#: the `character` configuration; `spectrum` also holds the kind's keys
CHARACTER_KEYS = (
    DIMENSION,
    Key("spectrum.kind", "kind", _text, lambda v: v in SPECTRUM_KINDS,
        f"one of {sorted(SPECTRUM_KINDS)}"),
    Key("out_dir", "out_dir", _text),
)


@dataclass(frozen=True)
class CharacterConfig:
    """The `character` verb's input: its spectrum, built on demand, and where to write."""

    spectrum: Callable[[], spectral.SpectrumFn]
    out_dir: str | None = None


def parse_character(text: str) -> CharacterConfig:
    """Parse and validate the `character` verb's configuration."""
    tree = _load(text)
    values = _read(tree, CHARACTER_KEYS, {"dimension": MISSING, "kind": MISSING, "out_dir": None},
                   free=("spectrum",))
    build = SPECTRUM_KINDS[values["kind"]]
    args = _arguments(build, "spectrum", tree["spectrum"], "kind")
    return CharacterConfig(partial(build, values["dimension"], **args), values["out_dir"])
