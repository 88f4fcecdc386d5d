"""Check that two source trees write the same `critheat run` and `sweep` outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, each holding a `critheat`
package. Under each tree a fresh interpreter runs `critheat run` on four
fixed configurations (Dissipative, Blowup at the amplitude cap, Blowup on a
step collapse at t = 0, Undecided at the threshold) and `critheat sweep` on
two (d = 5 and d = 3 rows around the ground state). Every output file is
compared byte for byte, manifests without `wall_time_s` and `out_dir`, and
the exit codes must agree. Prints one line per configuration and exits 0
when all of them match, 1 otherwise. Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: the criterion-11 grid, d = 5
GRID_5 = {"R": 600.0, "n": 1375, "stretch": 1.004}
GRID_3 = {"R": 1e5, "n": 2656, "stretch": 1.004}

#: name -> (verb, configuration tree)
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
    "sweep_d5": ("sweep", {
        "dimension": 5, "grid": GRID_5, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e6},
        "sweep": [{"a": 0.9}, {"a": 1.2}, {"a": 1.001}, {"a": 0.999},
                  {"name": "gaussian", "amp": 0.05}, {"name": "aW_cutoff", "a": 1.3}]}),
    "sweep_d3": ("sweep", {
        "dimension": 3, "grid": GRID_3, "family": {"name": "aW", "a": 0.9},
        "integrator": {"t_max": 1e4, "tol": 1e-3},
        "sweep": [{"a": 0.9}, {"a": 1.5}, {"name": "aW_cutoff", "a": 1.3}]}),
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


def run(src: Path, verb: str, tree: dict, work: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and output files of one command under the tree `src`."""
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(tree))
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, "-m", "critheat.cli", verb, "--config", str(cfg), "--out", str(out)]
    if verb == "sweep":
        args += ["--workers", "2"]
    code = subprocess.run(args, env=env, cwd=work, stdout=subprocess.DEVNULL).returncode
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
        for name, (verb, tree) in CONFIGS.items():
            (old_code, old), (new_code, new) = (
                run(src, verb, tree, Path(tmp) / side / name)
                for side, src in zip(("old", "new"), trees)
            )
            differ = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
            ok = old_code == new_code and not differ
            same &= ok
            detail = f"exit {old_code}, {len(old)} files" if ok else (
                f"exit {old_code} vs {new_code}, differing: {', '.join(differ) or 'none'}")
            print(f"{'SAME' if ok else 'DIFF'} {name}: {detail}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
