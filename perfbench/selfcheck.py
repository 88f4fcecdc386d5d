"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced at tiny size (one call
per phase, the sweep on d = 6 only), and checks that:

- the result lines carry exactly the metrics BENCHMARK.json names;
- the traced run shows the split each workload was chosen for;
- a deliberately wrong expectation is counted as failed ops;
- the benchmark refuses to run where the package sources are missing.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

def _swap_branches(wl) -> None:
    wl.expect_below, wl.expect_above = wl.expect_above, wl.expect_below


#: deliberately wrong expectations; every op of the workload must then fail
WRONG = {
    "sweep": _swap_branches,
    "run": lambda wl: setattr(wl, "expect_verdict", "Blowup"),
    "spectra": lambda wl: setattr(wl, "r_star_expected", 2.0),
}


def split_holds(name: str, m: dict) -> bool:
    """Where the traced self time goes: stepping for sweep and run, the
    transform and its Bessel kernel for spectra."""
    if name == "spectra":
        return (m["evolve.substep.calls"] == 0
                and m["spectral.self_share"] + m["bessel.self_share"] > 0.5)
    return (m["evolve.substep.self_s"] > 0.5 * m["trace.op_wall_s"]
            and m["spectral.hankel_spectrum.calls"] == 0 and m["bessel.bessel_j.calls"] == 0)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    run.import_package()
    from spans import PER_LAYER
    from workloads import WORKLOADS

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    check(sorted(WORKLOADS) == sorted(w["name"] for w in bench["workloads"]),
          "workloads match BENCHMARK.json")
    check(dict(run.END_TO_END) == e2e, "end-to-end metrics match BENCHMARK.json")
    check(dict(PER_LAYER) == per_layer, "per-layer metrics match BENCHMARK.json")

    workdir = run.OUT / "selfcheck"
    try:
        for name in WORKLOADS:
            result, _ = run.measure(name, 1, 0.0, False, workdir / name, tiny=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{name}: ops pass")
            check(units == e2e, f"{name}: end-to-end metrics by name and unit")
            check(all(v["value"] > 0 for v in result["metrics"].values()),
                  f"{name}: end-to-end metrics are positive")

            result, _ = run.measure(name, 1, 0.0, True, workdir / name, tiny=True)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            check(result["failed"] == 0, f"{name}: traced ops pass")
            check(set(values) == set(per_layer), f"{name}: per-layer metrics by name")
            check(split_holds(name, values), f"{name}: traced self time has the expected split")

            result, _ = run.measure(name, 1, 0.0, False, workdir / name, tiny=True,
                                    configure=WRONG[name])
            check(result["attempted"] >= 1 and result["failed"] == result["attempted"],
                  f"{name}: a wrong expectation counts every op as failed")

        bare = workdir / "bare"
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "run", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run without the package sources")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
