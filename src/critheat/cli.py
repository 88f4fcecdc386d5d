"""Command-line front end: run, sweep, decayfit, character, splitting.

Every command reads its JSON configuration once (`config` parses it), computes
its result, and only then writes RFC-4180-style CSV plus a JSON manifest
(config hash, tool version, grid summary, wall time, output list), each file
renamed into place from a temporary name, `manifest.json` last. A command
that fails writes nothing. It returns a category exit code:

    0  success            2  configuration error     3  I/O error
    4  numerical corruption                          5  theorem-inconsistent sweep row
    1  partial: sweep rows without a decided verdict or without hypotheses
    6  internal error: an exception the front end does not expect

Identical (config, seed) pairs reproduce byte-identical CSV; manifests may
differ in wall time only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, _extensions, evolve, experiments, families, spectral
from .config import (
    CharacterConfig, ConfigError, RunConfig, parse_character, parse_config, parse_sweep, reseeded,
)
from .radial import CorruptionError


class Result(NamedTuple):
    """What a command produced, for `_write_outputs`, and its exit code."""

    files: dict[str, Callable[[Path], None]]  # name -> writer of the file at a path
    manifest: dict  # entries beyond the common ones
    code: int = 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _check_out(out_dir: str, overwrite: bool) -> None:
    out = Path(out_dir)
    if out.exists():
        if not out.is_dir():
            raise OSError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not overwrite:
            raise OSError(f"output directory {out} is not empty (use --overwrite)")


def _csv(header: list[str], rows: list[list]) -> Callable[[Path], None]:
    def write(path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])

    return write


def _listed_outputs(out: Path) -> set[str]:
    """The files that an earlier manifest in `out` lists as its outputs."""
    try:
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        return {name for name in listed if Path(name).name == name and (out / name).is_file()}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


def _write_outputs(out_dir: str, result: Result, wall: float) -> None:
    """Remove the outputs an earlier manifest lists that this result does not
    write, then write each file under a temporary name and rename it into
    place, `manifest.json` last."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _listed_outputs(out) - set(result.files):
        (out / name).unlink()
    manifest = {"tool": "critheat", "version": __version__, "outputs": list(result.files),
                "wall_time_s": wall, **result.manifest}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for name, write in [*result.files.items(), ("manifest.json", lambda p: p.write_text(text))]:
        tmp = out / f".{name}.tmp"
        try:
            write(tmp)
            os.replace(tmp, out / name)
        finally:
            tmp.unlink(missing_ok=True)


def _described(cfg: RunConfig) -> dict:
    return {
        "config_hash": cfg.content_hash(),
        "config": json.loads(cfg.to_json()),
        "grid": {"d": cfg.dimension, "R": cfg.r_max, "n": cfg.n_nodes, "stretch": cfg.stretch},
    }


def _series_rows(traj: evolve.Trajectory) -> list[list]:
    rows = []
    for snap in traj.snapshots:
        rep = snap.report
        rows.append([snap.t, "h1_sq", rep.h1_sq])
        rows.append([snap.t, "l2star_pow", rep.l2star_pow])
        rows.append([snap.t, "energy", rep.energy])
        rows.append([snap.t, "nehari", rep.nehari])
        if rep.l2_sq is not None:
            rows.append([snap.t, "l2_sq", rep.l2_sq])
        if snap.kq is not None:
            rows.append([snap.t, "kq_weight", snap.kq])
        rows.append([snap.t, "dt", snap.dt])
        rows.append([snap.t, "dissipation", snap.dissipation])
    for t, kind in traj.events:
        rows.append([t, "event:" + kind, 1.0])
    return rows


def _exit_for_verdict(verdict: evolve.Verdict) -> int:
    if verdict.kind == evolve.UNDECIDED and verdict.detail.get("reason") == "corruption":
        return 4
    return 0


def cmd_run(cfg: RunConfig) -> Result:
    traj = experiments.run_config(cfg)
    files = {"series.csv": _csv(["t", "quantity", "value"], _series_rows(traj))}
    checkpoints = [s for s in traj.snapshots if s.field is not None]
    for i, snap in enumerate(checkpoints):
        files[f"checkpoint_{i:04d}.txt"] = partial(families.save_checkpoint, field=snap.field,
                                                   t=snap.t)
    verdict = {"kind": traj.verdict.kind, "t_end": traj.verdict.t_end,
               "detail": traj.verdict.detail}
    return Result(files, {**_described(cfg), "verdict": verdict}, _exit_for_verdict(traj.verdict))


def cmd_sweep(configs: list[RunConfig]) -> Result:
    rows = experiments.dichotomy_sweep(configs, _extensions.cpu_count())
    table = []
    for i, row in enumerate(rows):
        cfg, m = row.config, row.trajectory.membership
        table.append([
            i, cfg.family, json.dumps(cfg.params, sort_keys=True), cfg.dimension,
            m.e_ratio, m.grad_ratio, row.trajectory.snapshots[0].report.l2_sq is not None,
            m.branch, row.verdict.kind, row.verdict.t_end, row.consistent_with_theorem,
        ])
    files = {"sweep.csv": _csv(
        ["index", "family", "params", "d", "e_over_ew", "grad_over_gradw",
         "l2_finite", "hypothesis_branch", "verdict", "t_end", "consistent_with_theorem"],
        table,
    )}
    summary = {
        "rows": len(rows),
        "inconsistent": sum(not r.consistent_with_theorem for r in rows),
        "undecided": sum(r.verdict.kind == evolve.UNDECIDED for r in rows),
        "without_hypotheses": sum(r.trajectory.membership.branch == "none" for r in rows),
    }
    manifest = {"config_hash": [cfg.content_hash() for cfg in configs],
                "config": [json.loads(cfg.to_json()) for cfg in configs],
                "grid": _described(configs[0])["grid"], "sweep": summary}
    if summary["inconsistent"]:
        return Result(files, manifest, 5)
    if summary["undecided"] or summary["without_hypotheses"]:
        return Result(files, manifest, 1)
    return Result(files, manifest)


def cmd_decayfit(cfg: RunConfig) -> Result:
    traj = experiments.run_config(cfg)
    code = _exit_for_verdict(traj.verdict)
    if code:
        return Result({}, {}, code)
    spec0 = families.initial_spectrum(cfg.family, cfg.params, cfg.dimension)
    if spec0 is None:
        spec0 = spectral.hankel_spectrum(traj.snapshots[0].field, experiments.DECAYFIT_NODES)
    fit = experiments.decay_fit(traj, spec0, t_lo=cfg.fit_t_lo)
    files = {"decayfit.csv": _csv(
        ["d", "law", "exponent", "predicted", "q_star", "t_lo", "t_hi", "r2",
         "envelope_constant"],
        [[cfg.dimension, fit.law, fit.exponent, fit.predicted, fit.q_star,
          fit.window[0], fit.window[1], fit.r2,
          fit.envelope_constant if fit.envelope_constant is not None else ""]],
    )}
    verdict = {"kind": traj.verdict.kind, "t_end": traj.verdict.t_end}
    return Result(files, {**_described(cfg), "verdict": verdict})


def cmd_character(cfg: CharacterConfig) -> Result:
    spec = cfg.spectrum()
    est = spectral.decay_character(spec)
    lam = spectral.decay_character(spectral.lambda_spectrum(spec))
    files = {"character.csv": _csv(
        ["d", "description", "r_star", "p_r_value", "fit_residual", "rho_lo",
         "rho_hi", "flag", "lambda_r_star"],
        [[spec.d, spec.description, est.r_star, est.p_r_value, est.fit_residual,
          *spectral.RHO_WINDOW, est.flag or "", lam.r_star]],
    )}
    return Result(files, {"spectrum": {"d": spec.d, "kind": spec.kind}})


def cmd_splitting(cfg: RunConfig, g_choice: str) -> Result:
    traj = experiments.run_config(cfg)
    code = _exit_for_verdict(traj.verdict)
    if code:
        return Result({}, {}, code)
    alpha = cfg.dimension / 2.0 + 1.5 if g_choice == "power" else None
    report = experiments.splitting_diagnostic(traj, g_choice=g_choice, alpha=alpha)
    rows = [[t, m] for t, m in zip(report.times, report.margins)]
    splitting = {"g": g_choice, "c_tilde": report.c_tilde, "alpha": alpha}
    return Result({"splitting.csv": _csv(["t_mid", "normalized_margin"], rows)},
                  {**_described(cfg), "splitting": splitting})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critheat",
        description="energy-critical heat flow laboratory",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "integrate one configuration to a verdict"),
        ("sweep", "run a parameter sweep against the dichotomy, one row per CPU"),
        ("decayfit", "run and fit the decay exponent of the critical norm"),
        ("character", "estimate the decay character of a spectrum"),
        ("splitting", "run and evaluate the frequency-splitting diagnostic"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--overwrite", action="store_true", help="allow writing into a non-empty directory")
        if name != "character":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "splitting":
            p.add_argument("--weight", default="log_cubed", choices=("log_cubed", "power"))
    return parser


def _overridden(cfg, args):
    """The configuration with the --out and --seed flags applied."""
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = reseeded(cfg, args.seed)
    if cfg.out_dir is None:
        raise ConfigError("out_dir: missing (set in config or pass --out)")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        text = Path(args.config).read_text()
        if args.command == "sweep":
            configs = [_overridden(cfg, args) for cfg in parse_sweep(text)]
            cfg, verb = configs[0], partial(cmd_sweep, configs)
        elif args.command == "character":
            cfg = _overridden(parse_character(text), args)
            verb = partial(cmd_character, cfg)
        elif args.command == "splitting":
            cfg = _overridden(parse_config(text), args)
            verb = partial(cmd_splitting, cfg, args.weight)
        else:
            cfg = _overridden(parse_config(text), args)
            verb = partial(cmd_run if args.command == "run" else cmd_decayfit, cfg)
        _check_out(cfg.out_dir, args.overwrite)
        result = verb()
        if result.files:
            _write_outputs(cfg.out_dir, result, time.time() - t0)
        return result.code
    except CorruptionError as exc:
        print(f"numerical corruption: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    # ConfigError included; the last two: a run too short for what its verb needs
    except (ValueError, experiments.WindowTooShortError, evolve.MissingCheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep exit 1 for partial sweeps, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
