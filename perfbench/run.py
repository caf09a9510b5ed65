"""fidreg benchmark: seeded workloads timed end to end, or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload intraop-register --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing rebound.
``--trace 1`` runs the same operations untraced and traced in turn and
reports per-operation per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (environment, sample counts, percentiles, output hashes), which is
also written under ``.perfbench_work/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: the workloads are one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ref": "ref",
    "ok_rate": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def import_fidreg(src: Path):
    """(Re)import fidreg from ``src``; refuses any other copy on the path."""
    for name in [m for m in sys.modules if m == "fidreg" or m.startswith("fidreg.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    fidreg = importlib.import_module("fidreg")
    importlib.import_module("fidreg.cli")
    if Path(fidreg.__file__).resolve().parent != (src / "fidreg").resolve():
        raise SourceMissing(f"imported fidreg from {fidreg.__file__}, not from {src}")
    return fidreg


def environment(seed: int, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "fidreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's ``.git`` read from its files; None outside a git checkout."""
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


def guarded_op(workload, index: int, between=None) -> workloads.OpResult:
    """One operation; an exception counts as a failed operation, not a crash."""
    start = perf_counter()
    try:
        return workload.run_op(index, between)
    except Exception:  # the loop must go on and report the failure
        return workloads.OpResult(
            latency_s=perf_counter() - start,
            failures=[traceback.format_exc(limit=4)],
            failed_items=1,
        )


def set_up(name: str, seed: int, workdir: Path, sizes, src: Path):
    """Import fidreg, write the inputs and run one discarded warm-up operation."""
    start = perf_counter()
    import_fidreg(src)
    workload = workloads.WORKLOADS[name](workdir, seed, sizes)
    workload.prepare()
    warm = guarded_op(workload, 0)
    return perf_counter() - start, workload, warm


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report)."""
    src = ROOT / "src"
    if not (src / "fidreg" / "__init__.py").is_file():
        raise SourceMissing(f"fidreg sources not found under {src}")
    if sizes is None:
        sizes = workloads.FULL_SIZES[name]
    work = ROOT / ".perfbench_work"
    workdir = work / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        warm_failures = []
        for _ in range(1 if trace else SETUP_REPEATS):
            elapsed, workload, warm = set_up(name, seed, workdir, sizes, src)
            setups.append(elapsed)
            warm_failures += warm.failures
        if trace:
            line, report = traced_run(workload, seconds, work, seed)
        else:
            line, report = timed_run(workload, seconds, statistics.median(setups))
        report["setup_runs_s"] = setups
        if not trace:
            report["samples"]["setup_s"] = len(setups)
        if warm_failures:
            line["correct"] = False
            report["warm_up_failures"] = warm_failures[:3]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update({"workload": name, "seconds": seconds, "trace": int(trace),
                   "environment": environment(seed, src)})
    return line, report


def _summary(results) -> tuple[int, int, list[str]]:
    attempted = sum(r.work_items for r in results)
    failed = sum(r.failed_items for r in results)
    messages = [m for r in results for m in r.failures]
    return attempted, failed, messages


def timed_run(workload, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Operation stages alternating with reference jobs, so each stage has one
    on both sides; an operation's relative time is the sum over its stages of
    the stage's time over the mean of those two reference jobs."""
    repeats = workload.reference_repeats
    reference_times: list[float] = []

    def run_reference():
        reference_times.append(reference.reference_s(repeats))

    results = []
    relative = []
    run_reference()
    start = perf_counter()
    while perf_counter() - start < seconds or not results:
        first = len(reference_times) - 1
        result = guarded_op(workload, len(results), run_reference)
        run_reference()
        around = reference_times[first:]
        stages = list(result.stages_s.values()) or [result.latency_s]
        relative.append(sum(stage * 2.0 / (before + after)
                            for stage, before, after in zip(stages, around, around[1:])))
        results.append(result)
    attempted, failed, messages = _summary(results)
    latencies_ms = [r.latency_s * 1e3 for r in results]
    level, tail = workloads.tail_percentile(latencies_ms)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "op_p50_ref": statistics.median(relative),
        "ok_rate": (attempted - failed) / attempted,
    }
    line = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    report = {
        "operations": len(results),
        "work_unit": workload.work_unit,
        "samples": {"op_p50_ref": len(results), "ok_rate": attempted, "peak_rss_mb": 1},
        "reference_repeats": repeats,
        "reference_p50_ms": statistics.median(reference_times) * 1e3,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail,
        "op_tail_percentile": level,
        "error_rate": failed / attempted,
        "failures": messages[:5],
        "workload_metrics": workload.report(results),
    }
    return line, report


def traced_run(workload, seconds: float, work: Path, seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over a fixed set of operations."""
    ops = workload.trace_ops()
    tracer = spans.Tracer()
    results = []
    untraced_s = traced_s = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for index in ops:
            untraced_s += guarded_op(workload, index).latency_s
        undo = tracer.install()
        try:
            for index in ops:
                tracer.begin_op(passes * len(ops) + index)
                result = guarded_op(workload, index)
                traced_s += result.latency_s
                results.append(result)
        finally:
            tracer.uninstall(undo)
        passes += 1
    attempted, failed, messages = _summary(results)
    layer = spans.layer_metrics(tracer.spans, len(results))
    layer["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    (work / "spans").mkdir(parents=True, exist_ok=True)
    spans_path = work / "spans" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    line = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
    }
    report = {
        "operations": len(results),
        "passes": passes,
        "ops_per_pass": len(ops),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(work.parent)),
        "rebound": sorted({f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in undo}),
        "failures": messages[:5],
    }
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": line, "report": report}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
