"""Compare the cold-start wall time and peak memory of two source trees.

    python tools/cold_start.py OLD_SRC NEW_SRC [--config NAME] [--pairs N]

OLD_SRC and NEW_SRC are `src` directories, each holding a `critheat` package.
NAME is one of `same_outputs.py`'s configurations that reads no input file, by
default `run_dissipative`: `critheat run` on the criterion-11 configuration
(d = 5, aW with a = 0.9 on R = 600, n = 1375, stretch 1.004);
`splitting_log_cubed` and `decayfit_hankel` time the Hankel verbs. The tool
runs N pairs (default 10) of that command in a fresh interpreter, one run
under each tree per pair. OLD_SRC goes first in even pairs and NEW_SRC in odd
ones, so a machine that drifts during the session weighs on both sides alike;
one untimed run per tree fills the file cache first. Each run's wall time
spans the spawn to the child's exit, and its peak RSS is the child's own, read
from `os.wait4`. Prints, per tree, the median and quartiles of both, and in
how many pairs NEW_SRC was faster and smaller. Exits 0 when every run exits
with the code of OLD_SRC's untimed run (a Blowup verdict, for one, is not 0),
1 otherwise. Standard library and `same_outputs.py`, next to it, only; Linux
or another POSIX system whose `ru_maxrss` is in kilobytes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import same_outputs  # the sibling tool: its configurations

#: the configurations that name no input file, which this tool does not write
CONFIGS = sorted(name for name, (_verb, tree) in same_outputs.CONFIGS.items()
                 if not any("path" in tree.get(part, {}) for part in ("family", "spectrum")))


def cold_run(src: Path, verb: str, config: Path, out: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one fresh `critheat` command."""
    args = [sys.executable, "-m", "critheat.cli", *verb.split(), "--config", str(config),
            "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=quiet)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.3f} [quartiles {q1:.3f}, {q3:.3f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="SRC")
    parser.add_argument("--config", choices=CONFIGS, default="run_dissipative")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = [src.resolve() for src in args.trees]
    for src in trees:
        if not (src / "critheat" / "__init__.py").is_file():
            print(f"no critheat package under {src}", file=sys.stderr)
            return 2
    verb, tree = same_outputs.CONFIGS[args.config]
    walls: list[list[float]] = [[], []]
    rss: list[list[float]] = [[], []]
    codes: list[int] = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(tree))
        for side, src in enumerate(trees):
            codes.append(cold_run(src, verb, config, Path(tmp) / f"warm{side}")[0])
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                code, wall, peak = cold_run(trees[side], verb, config,
                                            Path(tmp) / f"{pair}-{side}")
                codes.append(code)
                walls[side].append(wall)
                rss[side].append(peak)
    for name, src, wall, peak in zip(("OLD", "NEW"), trees, walls, rss):
        print(f"{name} {src}")
        print(f"  wall_s      {summary(wall)}")
        print(f"  peak_rss_mb {summary(peak)}")
    faster = sum(new < old for old, new in zip(*walls))
    smaller = sum(new < old for old, new in zip(*rss))
    print(f"NEW faster in {faster} of {args.pairs} pairs, smaller in {smaller} of {args.pairs}")
    failed = sum(code != codes[0] for code in codes)
    if failed:
        print(f"{failed} runs exited with another code than {codes[0]}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
