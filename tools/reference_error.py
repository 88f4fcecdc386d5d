"""Measure how far a source tree's trajectories are from tight-tolerance runs.

    python tools/reference_error.py SRC

SRC is a `src` directory holding a `critheat` package. A fresh interpreter
runs `critheat run` under SRC on the criterion-11 configuration (d = 5, aW on
R = 600, n = 1375, stretch 1.004) and the tool prints:

- for a = 0.5 and a = 0.9, the largest relative difference of the h1_sq
  series at the default tol 1e-5 from the series at tol 1e-11, over the
  snapshot times both runs share;
- for a = 1.3 (t_max 50), the Blowup verdict's t_end at tol 1e-5 and at
  tol 1e-9, and their difference.

This is the evidence that a change of the time stepper keeps the
trajectories within a stated tolerance; run it on both trees and compare.
Exits 0 when every run exits 0, 1 otherwise. Standard library and
`same_outputs.py`, next to it, only.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import same_outputs  # the sibling tool: one fresh interpreter per command

TOL = 1e-5
#: the reference tolerance of the Dissipative runs and of the Blowup run
TOL_H1_REF = 1e-11
TOL_T_END_REF = 1e-9
A_DISSIPATIVE = (0.5, 0.9)
A_BLOWUP = 1.3


def _tree(a: float, tol: float, t_max: float) -> dict:
    return {"dimension": 5, "grid": same_outputs.GRID_5, "family": {"name": "aW", "a": a},
            "integrator": {"t_max": t_max, "tol": tol}}


def run(src: Path, tree: dict, work: Path) -> tuple[int, dict[float, float], dict]:
    """Exit code, {t: h1_sq} and the manifest verdict of one `critheat run`."""
    code, files = same_outputs.run(src, "run", tree, work, work.parent)
    if code != 0:
        return code, {}, {}
    series = csv.DictReader(io.StringIO(files["series.csv"].decode()))
    h1 = {float(row["t"]): float(row["value"]) for row in series if row["quantity"] == "h1_sq"}
    return code, h1, json.loads(files["manifest.json"])["verdict"]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "critheat" / "__init__.py").is_file():
        print(f"no critheat package under {src}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for a in A_DISSIPATIVE:
            (code, h1, _), (ref_code, ref, _) = (
                run(src, _tree(a, tol, 1e6), Path(tmp) / f"a{a}_tol{tol:g}")
                for tol in (TOL, TOL_H1_REF))
            if code or ref_code:
                print(f"a={a}: exit {code} at tol {TOL:g}, {ref_code} at tol {TOL_H1_REF:g}")
                ok = False
                continue
            common = sorted(h1.keys() & ref.keys())
            worst = max(abs(h1[t] / ref[t] - 1.0) for t in common)
            print(f"a={a}: h1_sq at tol {TOL:g} vs {TOL_H1_REF:g}: largest relative "
                  f"difference {worst:.2e} over {len(common)} common snapshot times "
                  f"({len(h1)} and {len(ref)} snapshots)")
        t_ends = []
        for tol in (TOL, TOL_T_END_REF):
            code, _, verdict = run(src, _tree(A_BLOWUP, tol, 50.0), Path(tmp) / f"blowup_tol{tol:g}")
            if code:
                print(f"a={A_BLOWUP}: exit {code} at tol {tol:g}")
                ok = False
                continue
            t_ends.append(verdict["t_end"])
            print(f"a={A_BLOWUP}: tol {tol:g}: {verdict['kind']} t_end={verdict['t_end']!r} "
                  f"t_bracket={verdict['detail'].get('t_bracket')}")
        if len(t_ends) == 2:
            print(f"a={A_BLOWUP}: t_end at tol {TOL:g} minus t_end at tol {TOL_T_END_REF:g}: "
                  f"{t_ends[0] - t_ends[1]:.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
