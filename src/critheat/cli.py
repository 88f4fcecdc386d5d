"""Command-line front end: run, sweep, decayfit, character, splitting.

Every command reads a JSON configuration, writes RFC-4180-style CSV plus a
JSON manifest (config hash, tool version, grid summary, wall time, output
list), and returns a category exit code:

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
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__, evolve, experiments, families, spectral
from .config import ConfigError, RunConfig, parse_config
from .radial import CorruptionError


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _prepare_out(out_dir: str, overwrite: bool) -> Path:
    out = Path(out_dir)
    if out.exists():
        if not out.is_dir():
            raise OSError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not overwrite:
            raise OSError(f"output directory {out} is not empty (use --overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out: Path, cfg: RunConfig, files: list[str], wall: float, extra: dict) -> None:
    manifest = {
        "tool": "critheat",
        "version": __version__,
        "config_hash": cfg.content_hash(),
        "config": json.loads(cfg.to_json()),
        "grid": {"d": cfg.dimension, "R": cfg.r_max, "n": cfg.n_nodes, "stretch": cfg.stretch},
        "outputs": files,
        "wall_time_s": wall,
    }
    manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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


def _load_config(path: str, seed: int | None, out_flag: str | None) -> RunConfig:
    cfg = parse_config(Path(path).read_text())
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_flag is not None:
        cfg = replace(cfg, out_dir=out_flag)
    if cfg.out_dir is None:
        raise ConfigError("out_dir: missing (set in config or pass --out)")
    return cfg


def _exit_for_verdict(verdict: evolve.Verdict) -> int:
    if verdict.kind == evolve.UNDECIDED and verdict.detail.get("reason") == "corruption":
        return 4
    return 0


def cmd_run(cfg: RunConfig, overwrite: bool) -> int:
    t0 = time.time()
    out = _prepare_out(cfg.out_dir, overwrite)
    traj = experiments.run_config(cfg)
    files = ["series.csv"]
    _write_csv(out / "series.csv", ["t", "quantity", "value"], _series_rows(traj))
    checkpoints = [s for s in traj.snapshots if s.field is not None]
    for i, snap in enumerate(checkpoints):
        name = f"checkpoint_{i:04d}.txt"
        families.save_checkpoint(out / name, snap.field, snap.t)
        files.append(name)
    _write_manifest(
        out, cfg, files, time.time() - t0,
        {"verdict": {"kind": traj.verdict.kind, "t_end": traj.verdict.t_end,
                     "detail": _jsonable(traj.verdict.detail)}},
    )
    return _exit_for_verdict(traj.verdict)


def _jsonable(detail: dict) -> dict:
    out = {}
    for key, val in detail.items():
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


def _sweep_configs(cfg: RunConfig, path: str) -> list[RunConfig]:
    tree = json.loads(Path(path).read_text())
    points = tree.get("sweep")
    if not points:
        return [cfg]
    if not isinstance(points, list):
        raise ConfigError("sweep: expected a list of parameter objects")
    configs = []
    for point in points:
        if not isinstance(point, dict):
            raise ConfigError("sweep: entries must be objects")
        params = dict(cfg.params)
        params.update(point)
        configs.append(replace(cfg, family_params=tuple(sorted(params.items()))))
    return configs


def cmd_sweep(cfg: RunConfig, path: str, overwrite: bool, threads: int) -> int:
    t0 = time.time()
    out = _prepare_out(cfg.out_dir, overwrite)
    configs = _sweep_configs(cfg, path)
    rows = experiments.dichotomy_sweep(configs, threads=threads)
    table = []
    for i, row in enumerate(rows):
        table.append([
            i, row.family, json.dumps(row.params, sort_keys=True), row.d,
            row.e_ratio, row.grad_ratio, row.l2_finite, row.hypothesis_branch,
            row.verdict.kind, row.verdict.t_end, row.consistent_with_theorem,
        ])
    _write_csv(
        out / "sweep.csv",
        ["index", "family", "params", "d", "e_over_ew", "grad_over_gradw",
         "l2_finite", "hypothesis_branch", "verdict", "t_end", "consistent_with_theorem"],
        table,
    )
    summary = {
        "rows": len(rows),
        "inconsistent": sum(not r.consistent_with_theorem for r in rows),
        "undecided": sum(r.verdict.kind == evolve.UNDECIDED for r in rows),
        "without_hypotheses": sum(r.hypothesis_branch == "none" for r in rows),
    }
    _write_manifest(out, cfg, ["sweep.csv"], time.time() - t0, {"sweep": summary})
    if summary["inconsistent"]:
        return 5
    if summary["undecided"] or summary["without_hypotheses"]:
        return 1
    return 0


def cmd_decayfit(cfg: RunConfig, overwrite: bool) -> int:
    t0 = time.time()
    out = _prepare_out(cfg.out_dir, overwrite)
    traj = experiments.run_config(cfg)
    code = _exit_for_verdict(traj.verdict)
    if code:
        return code
    spec0 = families.initial_spectrum(cfg.family, cfg.params, cfg.dimension)
    if spec0 is None:
        grid = cfg.make_grid()
        u0 = families.build_initial(cfg.family, cfg.params, grid, cfg.seed)
        import numpy as np

        s_nodes = np.concatenate([np.geomspace(1e-4, 0.1, 40), np.geomspace(0.11, 20.0, 80)])
        spec0 = spectral.hankel_spectrum(u0, s_nodes)
    fit = experiments.decay_fit(traj, spec0, t_lo=cfg.fit_t_lo)
    _write_csv(
        out / "decayfit.csv",
        ["d", "law", "exponent", "predicted", "q_star", "t_lo", "t_hi", "r2",
         "envelope_constant"],
        [[cfg.dimension, fit.law, fit.exponent, fit.predicted, fit.q_star,
          fit.window[0], fit.window[1], fit.r2,
          fit.envelope_constant if fit.envelope_constant is not None else ""]],
    )
    _write_manifest(out, cfg, ["decayfit.csv"], time.time() - t0,
                    {"verdict": {"kind": traj.verdict.kind, "t_end": traj.verdict.t_end}})
    return 0


def _spectrum_from_tree(tree: dict) -> spectral.SpectrumFn:
    if "dimension" not in tree:
        raise ConfigError("config: missing required field 'dimension'")
    d = tree["dimension"]
    if not isinstance(d, int) or d < 3:
        raise ConfigError(f"dimension: must be an integer >= 3, got {d!r}")
    spec_tree = tree.get("spectrum")
    if not isinstance(spec_tree, dict) or "kind" not in spec_tree:
        raise ConfigError("spectrum: missing object with a 'kind' field")
    kind = spec_tree["kind"]
    if kind == "power_gauss":
        return spectral.gaussian_spectrum(
            d, k=float(spec_tree.get("k", 0.0)), amp=float(spec_tree.get("amp", 1.0)),
            sig=float(spec_tree.get("sig", 1.0)),
        )
    if kind == "power":
        return spectral.power_spectrum(
            d, k=float(spec_tree["k"]), amp=float(spec_tree.get("amp", 1.0)),
            s_max=float(spec_tree.get("s_max", 50.0)),
        )
    if kind == "file":
        return spectral.load_spectrum(spec_tree["path"])
    raise ConfigError(f"spectrum.kind: unknown kind {kind!r}")


def cmd_character(path: str, out_flag: str | None, overwrite: bool) -> int:
    t0 = time.time()
    tree = json.loads(Path(path).read_text())
    out_dir = out_flag or tree.get("out_dir")
    if out_dir is None:
        raise ConfigError("out_dir: missing (set in config or pass --out)")
    spec = _spectrum_from_tree(tree)
    out = _prepare_out(out_dir, overwrite)
    est = spectral.decay_character(spec)
    lam = spectral.decay_character(spectral.lambda_spectrum(spec))
    _write_csv(
        out / "character.csv",
        ["d", "description", "r_star", "p_r_value", "fit_residual", "rho_lo",
         "rho_hi", "flag", "lambda_r_star"],
        [[spec.d, spec.description, est.r_star, est.p_r_value, est.fit_residual,
          est.window[0], est.window[1], est.flag or "", lam.r_star]],
    )
    manifest = {
        "tool": "critheat", "version": __version__, "outputs": ["character.csv"],
        "wall_time_s": time.time() - t0, "spectrum": {"d": spec.d, "kind": spec.kind},
    }
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_splitting(cfg: RunConfig, overwrite: bool, g_choice: str) -> int:
    t0 = time.time()
    out = _prepare_out(cfg.out_dir, overwrite)
    traj = experiments.run_config(cfg)
    code = _exit_for_verdict(traj.verdict)
    if code:
        return code
    alpha = cfg.dimension / 2.0 + 1.5 if g_choice == "power" else None
    report = experiments.splitting_diagnostic(traj, g_choice=g_choice, alpha=alpha)
    rows = [[t, m] for t, m in zip(report.times, report.margins)]
    _write_csv(out / "splitting.csv", ["t_mid", "normalized_margin"], rows)
    _write_manifest(
        out, cfg, ["splitting.csv"], time.time() - t0,
        {"splitting": {"g": report.g_choice, "c_tilde": report.c_tilde,
                       "alpha": report.alpha}},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critheat",
        description="energy-critical heat flow laboratory",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "integrate one configuration to a verdict"),
        ("sweep", "run a parameter sweep against the dichotomy"),
        ("decayfit", "run and fit the decay exponent of the critical norm"),
        ("character", "estimate the decay character of a spectrum"),
        ("splitting", "run and evaluate the frequency-splitting diagnostic"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--overwrite", action="store_true", help="allow writing into a non-empty directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1, help="parallel sweep workers")
        if name == "splitting":
            p.add_argument("--weight", default="log_cubed", choices=("log_cubed", "power"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "character":
            return cmd_character(args.config, args.out, args.overwrite)
        cfg = _load_config(args.config, args.seed, args.out)
        if args.command == "run":
            return cmd_run(cfg, args.overwrite)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.config, args.overwrite, args.threads)
        if args.command == "decayfit":
            return cmd_decayfit(cfg, args.overwrite)
        if args.command == "splitting":
            return cmd_splitting(cfg, args.overwrite, args.weight)
        raise AssertionError(f"unhandled command {args.command}")
    except CorruptionError as exc:
        print(f"numerical corruption: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, experiments.WindowTooShortError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep exit 1 for partial sweeps, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
