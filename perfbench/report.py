"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in a fresh interpreter through run.py, so setup_s counts
that interpreter's imports. failed_frac is the run's failed ops over its
attempted ops. Exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    any_failed = False
    print(f"{'workload':<9} {'metric':<12} {'value':>12}  unit")
    for name in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<9} {metric:<12} {m['value']:>12.4f}  {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<9} {'failed_frac':<12} {frac:>12.4f}  ratio"
              f"  ({result['failed']} of {result['attempted']} ops)")
        any_failed |= result["failed"] > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
