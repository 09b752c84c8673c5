"""rmtdiff benchmark: one workload, a closed loop with a single caller.

    python3 perfbench/run.py --workload mc_spectra --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  With ``--trace 0`` it times set-up, also in fresh
processes, then repeats passes over the workload's jobs for about
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced passes with passes that have spans around every call
into the library's layers, and prints the per-layer metrics.  Every job's
output is checked on every pass.  Times are divided by the machine pace
measured next to them (see ``machine_pace``).  The last line of standard
output is the JSON result; the machine record, per-job results and the
spans go to ``.perfbench_out/`` in the checkout.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh processes besides the measuring one; median of three
MIN_PASSES = 3
# Nominal duration of one reference kernel on an idle machine.
REFERENCE_S = 0.004
# How strongly rmtdiff's code follows the kernel's slow-downs; fitted over
# runs of all four workloads (0.4 for BLAS-bound jobs, up to 0.9 for
# Python-bound ones).
PACE_EXPONENT = 0.65

BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of the metrics to print


def _import_library() -> None:
    """Import rmtdiff from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "rmtdiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rmtdiff sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import rmtdiff

    if Path(rmtdiff.__file__).resolve().parent != (src / "rmtdiff").resolve():
        sys.exit(f"perfbench: imported rmtdiff from {rmtdiff.__file__}, not from {src}")


def setup(workload: str, nproc: int):
    """``import rmtdiff`` plus one warm-up call per job kind; returns (seconds, workloads).

    The seconds are divided by the machine pace measured around the set-up.
    """
    pace = machine_pace()
    t0 = time.perf_counter()
    _import_library()
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workloads.WORKLOADS[workload].warmup(str(_scratch_dir()), nproc)
    seconds = time.perf_counter() - t0
    return seconds / (0.5 * (pace + machine_pace())), workloads


def _scratch_dir() -> Path:
    path = OUT_DIR / "scratch"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _probe_setup(workload: str) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _reference_kernel() -> None:
    """Fixed pure-Python work: an integer loop and growing Fraction arithmetic."""
    x = 0
    for i in range(30_000):
        x += i * i
    a = Fraction(1, 3)
    for i in range(600):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, 7)


def machine_pace() -> float:
    """Divisor for times measured now: (best-of-three kernel time / REFERENCE_S) ** PACE_EXPONENT.

    Other tenants of a shared machine slow all code here by up to 1.8x, in
    spells of seconds to minutes that no number of passes in one run
    averages away.  Times divided by the pace measured next to them keep
    most of that drift out; the raw times are kept in the result file.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return (best / REFERENCE_S) ** PACE_EXPONENT


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(jobs, tracer=None) -> dict:
    """One pass over the jobs; each job's checks are evaluated as it finishes.

    Each job's wall and CPU seconds are kept raw and also divided by the
    machine pace measured just before and just after it.
    """
    records = []
    pace = machine_pace()
    for job in jobs:
        c_job = _cpu_seconds()
        t_job = time.perf_counter()
        span_id = None
        try:
            if tracer is None:
                checks = job.run()
            else:
                with tracer.span(f"bench.{job.name}") as span:
                    span_id = span.sid
                    checks = job.run()
            failing = [c for c in checks if not c[1] <= c[2]]
            rec = {"job": job.name, "ok": not failing, "checks": checks}
        except Exception:
            rec = {"job": job.name, "ok": False, "error": traceback.format_exc(limit=4)}
        rec["span_id"] = span_id
        rec["raw_s"] = time.perf_counter() - t_job
        rec["raw_cpu_s"] = _cpu_seconds() - c_job
        rec["expected_failure"] = bool(job.known_defect) and "error" not in rec and not rec["ok"]
        after = machine_pace()
        rec["pace"] = 0.5 * (pace + after)
        pace = after
        records.append(rec)
    return {
        "wall_s": sum(r["raw_s"] / r["pace"] for r in records),
        "cpu_s": sum(r["raw_cpu_s"] / r["pace"] for r in records),
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "jobs": records,
    }


def run_passes(jobs, budget: float, min_passes: int, tracer=None) -> list[dict]:
    """Repeat passes until about ``budget`` seconds are spent (at least ``min_passes``).

    With a tracer, untraced and traced passes alternate, so that drift in
    the machine's speed reaches both alike and their difference is the
    tracing overhead.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            mark = len(tracer.spans)
            tracer.install()
            try:
                p = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            p["span_range"] = (mark, len(tracer.spans))
        else:
            p = run_pass(jobs)
        p["traced"] = traced
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if (
            len(passes) >= min_passes
            and elapsed + 0.5 * typical >= budget
            and (tracer is None or len(passes) % 2 == 0)
        ):
            return passes


def machine_record(workload: str, seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": _git_commit(),
    }


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS will use (left at the library default)."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
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


def _summary(passes: list[dict]) -> tuple[int, int, int]:
    """(jobs attempted, jobs failed unexpectedly, jobs whose checks passed)."""
    attempted = failed = passed = 0
    for p in passes:
        for rec in p["jobs"]:
            attempted += 1
            passed += rec["ok"]
            failed += not rec["ok"] and not rec["expected_failure"]
    return attempted, failed, passed


def _report_failures(passes: list[dict], jobs) -> None:
    defects = {job.name: job.known_defect for job in jobs}
    seen = set()
    for p in passes:
        for rec in p["jobs"]:
            if rec["ok"] or rec["job"] in seen:
                continue
            seen.add(rec["job"])
            tag = f"known defect ({defects[rec['job']]})" if rec["expected_failure"] else "FAILED"
            detail = rec.get("error") or "; ".join(
                f"{label}: {dev:.3g} > {tol:g}" for label, dev, tol in rec["checks"] if not dev <= tol
            )
            print(f"perfbench: {tag}: {rec['job']}: {detail}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    nproc = _nproc()

    if args.setup_probe:
        seconds, _ = setup(args.workload, nproc)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_s, workloads = setup(args.workload, nproc)
    spec = json.loads(BENCHMARK.read_text())
    jobs = workloads.WORKLOADS[args.workload].build(args.seed, str(_scratch_dir()), nproc)
    record = machine_record(args.workload, args.seed, nproc)
    correct = True

    if args.trace == 0:
        setups = [setup_s] + [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        passes = run_passes(jobs, args.seconds, MIN_PASSES)
        attempted, failed, passed = _summary(passes)
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_rate": passed / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        extra = {"setup_samples_s": setups}
    else:
        import spans

        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        passes = run_passes(jobs, args.seconds, 4, tracer)
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        attempted, failed, passed = _summary(passes)
        per_pass = [
            spans.layer_metrics(
                tracer.spans[slice(*p["span_range"])],
                {rec["span_id"]: rec["pace"] for rec in p["jobs"]},
            )
            for p in traced
        ]
        for name in spans.EXACT_COUNTERS:
            counts = {pm.get(name, 0) for pm in per_pass}
            if len(counts) != 1:
                print(f"perfbench: counter {name} differs between passes: {sorted(counts)}", file=sys.stderr)
                correct = False
        metrics = {}
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                # fastest of each kind: the first pass after set-up is often slow
                value = min(p["wall_s"] for p in traced) - min(p["wall_s"] for p in plain)
            else:
                value = statistics.median(pm.get(name, 0) for pm in per_pass)
                if unit == "count":
                    value = int(value)
            metrics[name] = {"value": value, "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl.gz")
        extra = {}

    _report_failures(passes, jobs)
    correct = correct and failed == 0
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "machine": record,
        "trace": args.trace,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "span_range"} for p in passes],
        **extra,
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print("machine " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
