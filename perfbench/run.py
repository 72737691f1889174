"""gapfuse benchmark: one workload per process, generated from --seed.

    python3 perfbench/run.py --workload train --seed 101 --seconds 50 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run sets up three times (set-up time is their median), then
runs the workload's steps in order, pass after pass, while the next step is
expected to end within --seconds (each step runs at least once), then checks
the outputs.  With --trace 1 it sets up and
runs one pass untraced, then again with spans recorded around every gapfuse
module's public functions, and reports per-layer numbers from those spans.

The line before the last is a JSON report with every metric the benchmark
knows, with its unit, median, tail percentile and sample count, the output
checks, and an environment record.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# BLAS may use every core the process is allowed on and no more; pinned
# before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

# every per-workload metric the report line carries, whether or not the
# workload exercises it
REPORTED = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "train_samples_per_s": "samples/s",
    "assemble_px_per_s": "px/s",
    "fill_mae": "ndvi",
    "gapfill_px_per_s": "px/s",
    "detect_parcels_per_s": "parcels/s",
    "detect_f1": "f1",
    "preprocess_px_per_s": "px/s",
    "eval_parcels_per_s": "parcels/s",
}


def summary(unit: str, values: list[float], better_low: bool = False) -> dict:
    """Median, tail and count of a metric's samples; the tail is the slow
    end (low for rates, high for times)."""
    from tracer import tail_percentile

    if not values:
        return {"value": None, "unit": unit, "n": 0}
    pct, tail = tail_percentile([-v for v in values] if not better_low else values)
    if tail is not None and not better_low:
        tail = -tail
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail_pct": pct, "tail": tail}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for p in sorted((SRC / "gapfuse").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_steps(wl, ctx, seconds: float) -> dict[str, list]:
    """Run the workload's steps in order, pass after pass, while the next
    step is expected to end within `seconds`; every step runs at least once.
    Returns each step's ops."""
    ops: dict[str, list] = {name: [] for name in wl.steps}
    start = time.perf_counter()
    for i in itertools.count():
        done = ops[wl.steps[i % len(wl.steps)]]
        if done and time.perf_counter() - start + done[-1].wall_s > seconds:
            return ops
        done.append(wl.step(ctx, wl.steps[i % len(wl.steps)]))


def px_per_s(wl, ops: dict[str, list]) -> list[float]:
    """Pixels handled per second over the workload's rate ops: their items
    over the sum of each op's median wall time.  One value per run; none
    when a rate op failed every time."""
    walls = [[op.wall_s for op in ops[name] if op.ok] for name in wl.rate_ops]
    if not all(walls):
        return []
    items = sum(ops[name][0].items for name in wl.rate_ops)
    return [items / sum(statistics.median(w) for w in walls)]


def run_timed(wl, seconds: float, report: dict, end_to_end: dict[str, str]) -> dict:
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = wl.setup(k)
        setups.append(time.perf_counter() - t0)
    ops = timed_steps(wl, ctx, seconds)
    rss = peak_rss_mb()
    wl.check(ctx)
    samples = {"setup_s": setups, "peak_rss_mb": [rss], "px_per_s": px_per_s(wl, ops)}
    metrics = {name: summary(unit, samples[name], better_low=name in ("setup_s", "peak_rss_mb"))
               for name, unit in end_to_end.items()}
    reported = {name: {"value": None, "unit": unit, "note": "not exercised by this workload"}
                for name, unit in REPORTED.items()}
    reported.update(metrics)
    for name, (unit, values) in wl.report(ctx, ops).items():
        reported[name] = summary(unit, values)
        if not values:
            reported[name]["note"] = "the op failed on every pass"
    report["op_wall_s"] = {name: [op.wall_s for op in done] for name, done in ops.items()}
    report["metrics"] = reported
    return metrics


def run_pass(wl, ctx) -> None:
    for name in wl.steps:
        wl.step(ctx, name)


def run_traced(wl, report: dict, run_id: str, per_layer: dict[str, str]) -> dict:
    import tracer

    t0 = time.perf_counter()
    run_pass(wl, wl.setup(0))
    untraced = time.perf_counter() - t0
    tr = tracer.Tracer(run_id)
    tr.install()
    try:
        t0 = time.perf_counter()
        ctx = wl.setup(1)
        run_pass(wl, ctx)
        traced = time.perf_counter() - t0
    finally:
        tr.uninstall()
    wl.check(ctx)
    layers = tracer.layer_metrics(tr.spans)
    layers["metrics"]["trace_overhead_ratio"] = traced / untraced
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"spans-{run_id}.jsonl.gz")
    report["per_layer"] = layers
    report["untraced_s"], report["traced_s"] = untraced, traced
    return {name: {"value": layers["metrics"].get(name, 0), "unit": unit} for name, unit in per_layer.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "sf_pipeline", "rule_pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gapfuse" / "__init__.py").is_file():
        print(f"perfbench: no gapfuse package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gapfuse

    if Path(gapfuse.__file__).resolve().parent != (SRC / "gapfuse").resolve():
        print(f"perfbench: imported gapfuse from {gapfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Ledger

    # metric names and units come from the benchmark's own definition
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    ledger = Ledger()
    wl = WORKLOADS[args.workload](work, args.seed, ledger)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scene": wl.scene, "env": environment(args.seed)}
    metrics: dict = {}
    try:
        if args.trace:
            metrics = run_traced(wl, report, f"{args.workload}-{args.seed}", units["per_layer"])
        else:
            metrics = run_timed(wl, args.seconds, report, units["end_to_end"])
    except Exception:  # noqa: BLE001 - a crashed workload is a failed check, reported below
        ledger.check("workload_completed", False, traceback.format_exc(limit=3))
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    report.setdefault("metrics", {})["failed_ratio"] = {
        "value": ledger.failed / max(ledger.attempted, 1), "unit": "ratio",
        "n": ledger.attempted}
    report["checks"] = [{"name": op.name[6:], "ok": op.ok, "detail": op.note}
                        for op in ledger.ops.values() if op.name.startswith("check:")]
    report["failed_ops"] = [{"name": op.name, "note": op.note} for op in ledger.ops.values() if not op.ok]
    correct = ledger.checks_ok() and bool(metrics)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
