"""critheat benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload {sweep,run,spectra} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. With --trace 0 the workload is set up and
then driven closed-loop for S seconds, and the end-to-end metrics are
reported. With --trace 1 a separate run reports the per-layer metrics from a
fixed number of calls, made traced and then again untraced, so the tracing
overhead is their difference.
The last line of standard output is the result
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds the
environment, sample counts and per-op digests. Both, and under trace the
spans, are also kept under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: set-ups per run; setup_s is the median
SETUP_REPS = 3
#: fresh interpreters per run that import the package; their median start-up
#: time is the import part of setup_s
IMPORT_PROBES = 3
IMPORT_PROBE = "import critheat.cli"

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("call_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_package() -> None:
    """Make the checkout's own sources importable, or stop."""
    if not (SRC / "critheat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no critheat sources under {SRC}")
    sys.path.insert(0, str(SRC))


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """The larger of this process's peak resident memory and its largest
    child's, so that work moved into pool workers still shows."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def import_seconds() -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def drive(wl, seconds: float) -> list:
    """Closed loop: call after call until `seconds` have passed (at least one)."""
    from spans import OP, Span

    calls = []
    deadline = time.perf_counter() + seconds
    while True:
        calls.append(wl.call(wl.workers, Span(OP)))
        if time.perf_counter() >= deadline:
            return calls


def timed(wl, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metrics of one untraced run."""
    from workloads import clear_caches

    setups = []
    for _ in range(SETUP_REPS):
        clear_caches()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    calls = drive(wl, seconds)
    rss = peak_rss_mb()  # before the import probes add children of their own
    imports = import_seconds()
    values = {
        "ops_per_s": sum(c.ops for c in calls) / sum(c.seconds for c in calls),
        "call_s_p50": statistics.median(c.seconds for c in calls),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": rss,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, calls, {"setup_reps_s": setups, "import_probes_s": imports}


def traced(wl, spans_path: Path | None) -> tuple[dict, list, dict]:
    """Per-layer metrics from a fixed amount of work, so counts repeat exactly
    for a seed: `wl.traced_calls` calls traced, then the same calls untraced
    for the overhead, and for a pooled workload one untraced pooled call for
    the CPU utilisation."""
    from spans import OP, SETUP, Span, Tracer, layer_metrics
    from workloads import clear_caches

    tracer = Tracer()
    clear_caches()
    tracer.install()
    try:
        with Span(SETUP, tracer):
            wl.setup()
        tracer.counters.clear()
        under_trace = [wl.call(wl.trace_workers, Span(OP, tracer))
                       for _ in range(wl.traced_calls)]
    finally:
        tracer.uninstall()
    wl.setup()  # rewind the inputs: the untraced calls repeat the traced ones
    baseline = [wl.call(wl.trace_workers, Span(OP)) for _ in range(wl.traced_calls)]
    pooled = []
    cpu_util = 0.0
    if wl.workers > 1:
        # CPU seconds of the process and its children over wall x workers
        before = os.times()
        t0 = time.perf_counter()
        pooled.append(wl.call(wl.workers, Span(OP)))
        wall = time.perf_counter() - t0
        after = os.times()
        cpu = sum(getattr(after, k) - getattr(before, k)
                  for k in ("user", "system", "children_user", "children_system"))
        cpu_util = cpu / (wall * wl.workers)
    metrics = layer_metrics(
        tracer,
        ops=sum(c.ops for c in under_trace),
        untraced_p50=statistics.median(c.seconds for c in baseline),
        traced_p50=statistics.median(c.seconds for c in under_trace),
        cpu_util=cpu_util,
    )
    if spans_path is not None:
        tracer.write(spans_path)
    extra = {"missing_hooks": tracer.missing, "traced_calls": len(under_trace)}
    return metrics, under_trace + baseline + pooled, extra


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            tiny: bool = False, configure=None, spans_path: Path | None = None):
    """One benchmark run; returns (result, detail). `configure` may adjust the
    workload object before set-up (the self-check uses it)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir, tiny)
    if configure is not None:
        configure(wl)
    if trace:
        metrics, calls, extra = traced(wl, spans_path)
    else:
        metrics, calls, extra = timed(wl, seconds)
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "env": environment(workload, seed),
        "trace": trace,
        "seconds": seconds,
        "calls": len(calls),
        "call_s": [c.seconds for c in calls],
        "failed_frac": failed / attempted,
        "digests": [d for c in calls for d in c.digests],
        **extra,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "run", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    import_package()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        result, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            spans_path=OUT / f"spans-{tag}.jsonl.gz" if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
