"""Check that two source trees write the same `critheat` outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, each holding a `critheat` package.
Under each tree a fresh interpreter runs `critheat run` on eleven fixed
configurations (Dissipative, Blowup at the amplitude cap, Blowup on a step
collapse at t = 0, Undecided at the threshold, a u0 whose integrals overflow,
a step collapse whose snapshot's integrals overflow,
`bumps` drawn from a seed, initial data read from three checkpoint files: a
uniform and a graded one, each interpolated onto the finer run grid, and one
on the run grid itself, and a ladder of non-default rungs with two forced
times and a checkpoint at every snapshot),
`critheat sweep` on two (d = 5 and d = 3 rows around the ground state, each
in a pool as wide as the CPUs the interpreter may use, or serially on one),
`critheat character` on a spectrum file, on the two closed forms and on a
gaussian so narrow that its masses leave the double range, `critheat
splitting` with both weights on the d = 4 gaussian run of the splitting tests
and with the power weight on a d = 3 `bumps` run, on the same gaussian in
d = 5 and on a d = 4 Blowup run (aW, a = 1.3, at the amplitude cap), whose
bisection ends inside its range, and `critheat decayfit` on
the d = 5 Dissipative run and on a d = 3 `bumps` run, whose initial spectra
are Hankel transforms, and on a d = 4 gaussian run, whose initial spectrum has
a closed form. The Hankel transforms have Bessel orders 1.5 (d = 5) and 0.5
(d = 3), which take the spherical Bessel routine, and 1 (d = 4), which takes
`j1`; the splitting masses take the tail powers s^2, s^3 and s^4. Those verbs read a Hankel table only up to the splitting radius or the
decay-character window, so three more checks write whole tables, Hankel
transforms on the `decayfit` nodes saved by `spectral.save_spectrum`: of the
run-grid checkpoint below, of the d = 4 gaussian u0 of the splitting runs,
which is exactly 0 on its outer 426 nodes, and of the same gaussian in d = 6,
whose order 2 takes `jv`.
The tool writes the checkpoints and the spectrum file itself, once for both
trees; the checkpoint on the run grid is the t = 0 checkpoint of an OLD_SRC
`critheat run`, so that its nodes are the grid's to the bit.
Every output file is compared byte for byte, manifests without `wall_time_s`
and `out_dir`, and the exit codes must agree. Prints one line per
configuration, naming the files that differ and, for a manifest, the dotted
paths of its entries that differ (`config.verdict.eps_dissip_rel`), and exits
0 when all of them match, 1 otherwise. Standard library only.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

#: the criterion-11 grid, d = 5
GRID_5 = {"R": 600.0, "n": 1375, "stretch": 1.004}
GRID_3 = {"R": 1e5, "n": 2656, "stretch": 1.004}

#: the d = 4 gaussian run of the splitting tests, with checkpoints to transform
GAUSSIAN_4 = {
    "dimension": 4, "grid": {"R": 160.0, "n": 1047, "stretch": 1.004},
    "family": {"name": "gaussian", "amp": 0.05, "width": 1.0},
    "integrator": {"tol": 1e-6, "dt_init": 1e-6, "t_max": 40.0},
    "snapshots": {"first": 0.05, "checkpoint_every": 2}}

#: `bumps` in d = 3 on the grid of GAUSSIAN_4, with checkpoints to transform
BUMPS_3 = {
    "dimension": 3, "grid": GAUSSIAN_4["grid"], "family": {"name": "bumps", "n_bumps": 3},
    "integrator": GAUSSIAN_4["integrator"], "snapshots": GAUSSIAN_4["snapshots"], "seed": 5}

#: name -> (verb and its flags, configuration tree)
CONFIGS = {
    "run_dissipative": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e6}}),
    "run_blowup_amp_cap": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 1.3},
        "integrator": {"t_max": 50.0}, "verdict": {"amp_cap": 1e3}}),
    "run_blowup_collapse_t0": ("run", {
        "dimension": 5, "grid": {"R": 100.0, "n": 307, "stretch": 1.01},
        "family": {"name": "gaussian", "amp": 1e9}, "integrator": {"t_max": 1.0, "dt_init": 1e-8}}),
    "run_at_threshold": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 1.001},
        "integrator": {"t_max": 10.0}}),
    # |u0|^{2*} is finite at every node, its integral is not
    "run_overflow_t0": ("run", {
        "dimension": 5, "grid": {"R": 100.0, "n": 400, "stretch": 1.01},
        "family": {"name": "gaussian", "amp": 3e90, "width": 30.0},
        "integrator": {"t_max": 1.0}}),
    # 1.5 W in d = 3 collapses at t = 0.0202 with an amplitude of 5e49, below
    # amp_cap: the snapshot there is not finite, so the run ends Undecided("corruption")
    "run_corruption_at_collapse": ("run", {
        "dimension": 3, "grid": {"R": 20.0, "n": 120, "stretch": 1.02},
        "family": {"name": "aW", "a": 1.5}, "integrator": {"t_max": 1.0, "dt_min": 1e-200},
        "verdict": {"amp_cap": 1e300}}),
    # the one family that draws from the run's seed
    "run_bumps": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "bumps", "n_bumps": 4},
        "integrator": {"t_max": 1e6}, "seed": 3}),
    "run_from_file": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "from_file", "path": "checkpoint.txt"},
        "integrator": {"t_max": 1e6}}),
    "run_from_file_regrid": ("run", {
        "dimension": 5, "grid": GRID_5,
        "family": {"name": "from_file", "path": "checkpoint_coarse.txt"},
        "integrator": {"t_max": 1e6}}),
    "run_from_file_same_grid": ("run", {
        "dimension": 5, "grid": GRID_5,
        "family": {"name": "from_file", "path": "checkpoint_grid5.txt"},
        "integrator": {"t_max": 1e6}}),
    # the only check whose steps land on forced times, each a checkpoint
    "run_forced_times": ("run", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 100.0},
        "snapshots": {"first": 0.02, "factor": 1.7, "checkpoint_every": 1,
                      "forced_times": [0.35, 7.0]}}),
    "sweep_d5": ("sweep", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e6},
        "sweep": [{"a": 0.9}, {"a": 1.2}, {"a": 1.001}, {"a": 0.999},
                  {"name": "gaussian", "amp": 0.05}, {"name": "aW_cutoff", "a": 1.3}]}),
    "sweep_d3": ("sweep", {
        "dimension": 3, "grid": GRID_3, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e4, "tol": 1e-3},
        "sweep": [{"a": 0.9}, {"a": 1.5}, {"name": "aW_cutoff", "a": 1.3}]}),
    "character_from_file": ("character", {
        "dimension": 3, "spectrum": {"kind": "file", "path": "spectrum.txt"}}),
    "character_power_gauss": ("character", {
        "dimension": 3, "spectrum": {"kind": "power_gauss", "k": 0.0}}),
    "character_power": ("character", {
        "dimension": 3, "spectrum": {"kind": "power", "k": 1.0, "amp": 2.0, "s_max": 40.0}}),
    # beta = 2/sig^2 overflows, and the Lambda spectrum's mass (about 3e-440) underflows
    "character_narrow_gaussian": ("character", {
        "dimension": 3, "spectrum": {"kind": "power_gauss", "k": -1.4, "sig": 1e-200}}),
    "splitting_log_cubed": ("splitting --weight log_cubed", GAUSSIAN_4),
    "splitting_power": ("splitting --weight power", GAUSSIAN_4),
    # the power weight bisects its constant, which every bit of the masses moves
    "splitting_power_bumps_d3": ("splitting --weight power", BUMPS_3),
    # the half-integer order 1.5 and the tail power s^4
    "splitting_power_d5": ("splitting --weight power", {**GAUSSIAN_4, "dimension": 5}),
    # a Blowup run, whose bisection ends inside C_RANGE
    "splitting_power_blowup": ("splitting --weight power", {
        "dimension": 4, "grid": GAUSSIAN_4["grid"], "family": {"name": "aW", "a": 1.3},
        "integrator": {"t_max": 50.0}, "snapshots": {"checkpoint_every": 2},
        "verdict": {"amp_cap": 1e3}}),
    "decayfit_hankel": ("decayfit", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e6}}),
    "decayfit_bumps_d3": ("decayfit", {
        "dimension": 3, "grid": GRID_3, "family": {"name": "bumps", "n_bumps": 3},
        "integrator": {"t_max": 1e4, "tol": 1e-3}, "seed": 5}),
    "decayfit_gaussian": ("decayfit", {
        **GAUSSIAN_4, "integrator": {"tol": 1e-6, "dt_init": 1e-6, "t_max": 500.0},
        "snapshots": {"factor": 1.2}, "verdict": {"eps_dissip_rel": 1e-7}}),
}


def _two_columns(header: list[str], pairs) -> str:
    """The checkpoint and spectrum file format: header lines, then `repr` rows."""
    return "\n".join(header + [f"{x!r} {y!r}" for x, y in pairs]) + "\n"


def _graded(R: float, n: int, q: float) -> list[float]:
    """n nodes from 0 to R whose spacings grow by the factor q."""
    scale = math.expm1((n - 1) * math.log(q))
    return [R * math.expm1(k * math.log(q)) / scale for k in range(n - 1)] + [R]


#: input file name -> its text; the configurations name these files
#: relative to the directory that holds them
INPUTS = {
    # exp(-r^2/4) in d = 5 on a uniform grid over [0, 40], interpolated onto GRID_5
    "checkpoint.txt": _two_columns(
        ["# critheat checkpoint v1", "# d=5 R=40.0 n=801 t=0.0 stretch=1.0"],
        ((40.0 * i / 800, math.exp(-((40.0 * i / 800) ** 2) / 4.0)) for i in range(801))),
    # (1 - r^2/20) exp(-r^2/16) / 5 in d = 5 on 400 nodes over [0, 300] graded by 1.01:
    # a sign change, then exact zeros where the exponential underflows
    "checkpoint_coarse.txt": _two_columns(
        ["# critheat checkpoint v1", "# d=5 R=300.0 n=400 t=0.0 stretch=1.01"],
        ((r, 0.2 * (1.0 - r * r / 20.0) * math.exp(-r * r / 16.0))
         for r in _graded(300.0, 400, 1.01))),
    # s exp(-s^2) in d = 3 at 300 log-spaced frequencies from 1e-4 to 10
    "spectrum.txt": _two_columns(
        ["# spectrum v1", "# d=3 kind=tabulated normalization=unitary",
         "# description=s*exp(-s^2)"],
        ((s, s * math.exp(-s * s)) for s in (1e-4 * 10.0 ** (5 * i / 299) for i in range(300)))),
}

#: input file name -> the configuration of the OLD_SRC `critheat run` whose
#: t = 0 checkpoint it is: a*W cut off at R/4, exact zeros beyond, on GRID_5
RUN_INPUTS = {
    "checkpoint_grid5.txt": {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW_cutoff", "a": 0.8},
        "integrator": {"t_max": 1e-3}},
}

#: name -> Python source that a fresh interpreter runs in the `INPUTS`
#: directory, with its output directory as sys.argv[1]
SCRIPTS = {
    # the d = 4 gaussian u0 of GAUSSIAN_4, exactly 0 from r ~ 27 out (426 of its
    # 1047 nodes), with Bessel order 1: a kernel that misplaces its columns moves
    # this table. Its last nonzero values are near the underflow limit and move
    # no bit; the cutoff edge of the run-grid checkpoint below covers that end
    "hankel_table_gaussian4": f"""
import sys
from pathlib import Path
from critheat import config, experiments, families, spectral
cfg = config.parse_config({json.dumps(GAUSSIAN_4)!r})
u0 = families.build_initial(cfg.family, cfg.params, cfg.make_grid(), cfg.seed)
out = Path(sys.argv[1])
out.mkdir(parents=True)
spectral.save_spectrum(spectral.hankel_spectrum(u0, experiments.DECAYFIT_NODES),
                       out / "spectrum.txt")
""",
    # order 2, the one order of the checks whose routine is `jv`
    "hankel_table_d6": f"""
import sys
from pathlib import Path
from critheat import config, experiments, families, spectral
cfg = config.parse_config({json.dumps({**GAUSSIAN_4, "dimension": 6})!r})
u0 = families.build_initial(cfg.family, cfg.params, cfg.make_grid(), cfg.seed)
out = Path(sys.argv[1])
out.mkdir(parents=True)
spectral.save_spectrum(spectral.hankel_spectrum(u0, experiments.DECAYFIT_NODES),
                       out / "spectrum.txt")
""",
    "hankel_table_grid5": """
import sys
from pathlib import Path
from critheat import experiments, families, spectral
field, _t = families.load_checkpoint("checkpoint_grid5.txt")
out = Path(sys.argv[1])
out.mkdir(parents=True)
spectral.save_spectrum(spectral.hankel_spectrum(field, experiments.DECAYFIT_NODES),
                       out / "spectrum.txt")
""",
}

#: manifest entries that may differ between two runs of the same configuration
VOLATILE = {"wall_time_s", "out_dir"}


def _stable(tree):
    """The manifest tree without its volatile entries, at any depth."""
    if isinstance(tree, dict):
        return {k: _stable(v) for k, v in tree.items() if k not in VOLATILE}
    if isinstance(tree, list):
        return [_stable(v) for v in tree]
    return tree


#: stands for an entry that one tree lacks
_ABSENT = object()


def _differing_paths(old, new, at: str = "") -> list[str]:
    """Dotted paths of the entries where two JSON trees differ; an entry that
    only one tree holds differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [path for key in sorted(old.keys() | new.keys())
                for path in _differing_paths(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                             f"{at}.{key}" if at else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [path for i, (a, b) in enumerate(zip(old, new))
                for path in _differing_paths(a, b, f"{at}[{i}]")]
    return [] if old == new else [at]


def _differing(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> str:
    """The file name, and for a manifest both trees hold, the stable entries that differ."""
    if name != "manifest.json" or name not in old or name not in new:
        return name
    paths = _differing_paths(json.loads(old[name]), json.loads(new[name]))
    return f"{name} ({', '.join(paths)})"


def run(src: Path, verb: str, tree: dict, work: Path,
        inputs: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and output files of one command under the tree `src`, run in
    the directory `inputs` that holds the `INPUTS` files."""
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(tree))
    return execute(src, ["-m", "critheat.cli", *verb.split(), "--config", str(cfg), "--out"],
                   work, inputs)


def execute(src: Path, args: list[str], work: Path,
            inputs: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and output files of `python *args OUT` under the tree `src`,
    run in `inputs`, with OUT the directory `work`/out."""
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = subprocess.run([sys.executable, *args, str(out)], env=env, cwd=inputs,
                          stdout=subprocess.DEVNULL).returncode
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = json.dumps(_stable(json.loads(data)), sort_keys=True).encode()
        files[path.name] = data
    return code, files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for src in trees:
        if not (src / "critheat" / "__init__.py").is_file():
            print(f"no critheat package under {src}", file=sys.stderr)
            return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for name, text in INPUTS.items():
            (inputs / name).write_text(text)
        for name, tree in RUN_INPUTS.items():
            _code, files = run(trees[0], "run", tree, Path(tmp) / "inputs_run" / name, inputs)
            (inputs / name).write_bytes(files["checkpoint_0000.txt"])
        checks = {name: partial(run, verb=verb, tree=tree)
                  for name, (verb, tree) in CONFIGS.items()}
        checks.update((name, partial(execute, args=["-c", script]))
                      for name, script in SCRIPTS.items())
        for name, check in checks.items():
            (old_code, old), (new_code, new) = (
                check(src=src, work=Path(tmp) / side / name, inputs=inputs)
                for side, src in zip(("old", "new"), trees)
            )
            differ = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
            ok = old_code == new_code and not differ
            same &= ok
            detail = f"exit {old_code}, {len(old)} files" if ok else (
                f"exit {old_code} vs {new_code}, differing: "
                f"{', '.join(_differing(n, old, new) for n in differ) or 'none'}")
            print(f"{'SAME' if ok else 'DIFF'} {name}: {detail}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
