"""emoprop benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload all_base --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run times the package import in a fresh interpreter five
times and sets up the workload three times (``setup_s`` is the median
import time plus the median set-up), repeats the workload's operation
for ``--seconds`` (at least three times; ``wall_s`` is the median),
checks the outputs and prints every metric with its unit.  A fixed
reference kernel runs between the timed sections, and the reported times
are rescaled to the kernel's nominal speed (see ``HostSpeed``); the raw
times are reported beside them.  With
``--trace 1`` it then sets up and operates once more with spans recorded
around the package's public functions, checks the traced calls against
the benchmark's exact counts and the workload's design, and reports the
per-layer metrics instead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the
run goes to ``.perfbench-results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
IMPORT_REPS = 5
MIN_ITERATIONS = 3
# Time of one ``reference_kernel`` call on a quiet 2-vCPU Intel Xeon; a
# fixed scale, so normalized times read in seconds.
REF_NOMINAL_S = 0.7
# One BLAS thread: on a few shared vCPUs a second thread makes a matrix
# product wait for whichever vCPU the host serves last (at 2 threads a
# 128x1024x1024 product took 0.08 s alone and 0.65 s while another
# process kept the second vCPU busy).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def import_time() -> float:
    """Seconds a fresh interpreter spends importing the package, as every
    ``emoprop`` command does before its first stage."""
    code = (
        "import time; t = time.perf_counter(); import emoprop.cli; "
        "print(time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout)


def reference_kernel() -> float:
    """Seconds for a fixed mix of the kinds of work the program does, in
    about equal parts: an interpreted dict loop (walks, set-up), small
    gathers and matrix-vector products (SGNS), a 128x512x256 matrix
    product (the deep regressor's layers) and Adam-like elementwise
    updates (its optimizer).  It does not touch ``emoprop``, so a change
    to the program cannot move it; only the host's speed does.  Its arrays
    (about 2 MB) are made afresh and freed on each call."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.standard_normal((1024, 50))
    rows = rng.integers(0, 1024, size=(20_000, 6), dtype=np.int32)
    left = rng.standard_normal((128, 512))
    right = rng.standard_normal((512, 256))
    grad = rng.standard_normal(30_000)
    m, v, tmp = np.zeros_like(grad), np.zeros_like(grad), np.empty_like(grad)
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(1_000_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    total = 0.0
    for r in rows:
        total += float((table[r[1:]] @ table[r[0]]).sum())
    for _ in range(220):
        total += float((left @ right)[0, 0])
    for _ in range(600):
        m *= 0.9
        np.multiply(grad, 0.1, out=tmp)
        m += tmp
        v *= 0.999
        np.multiply(grad, grad, out=tmp)
        tmp *= 0.001
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += 1e-8
        np.divide(m, tmp, out=tmp)
        total += float(tmp[0])
    return time.perf_counter() - t0


class HostSpeed:
    """Rescales timed sections to the reference kernel's nominal speed.

    The shared host's speed drifts by tens of percent over seconds to
    minutes (one ``sparse_seed_subword`` operation, repeated in one
    process, took 4.1-7.4 s), far more than the bound a regression must be
    caught within.  So the kernel runs before the first timed section and
    after each one, and each phase of a run (imports, set-ups, operations)
    is measured against the kernel runs around its own sections: a
    section's normalized time is its raw time times ``REF_NOMINAL_S`` over
    the mean time of those kernel runs, i.e. what it would have taken at
    the nominal speed.  The mean over a whole phase evens out the kernel's
    own jitter, which at one run's scale is larger than the drift within a
    phase.  A change to the program moves the sections but not the kernel,
    so it moves the normalized times by the same share."""

    def __init__(self) -> None:
        self.kernel_times = [reference_kernel()]
        self.sections: list[tuple[str, float]] = []

    def record(self, kind: str, seconds: float) -> None:
        """Note a section of ``kind`` that just took ``seconds``; run the kernel."""
        self.sections.append((kind, seconds))
        self.kernel_times.append(reference_kernel())

    def raw(self, kind: str) -> list[float]:
        return [t for k, t in self.sections if k == kind]

    def normalized(self, kind: str) -> list[float]:
        # section i lies between kernel runs i and i + 1
        around = {j for i, (k, _) in enumerate(self.sections) if k == kind for j in (i, i + 1)}
        scale = REF_NOMINAL_S / statistics.mean(self.kernel_times[j] for j in around)
        return [t * scale for t in self.raw(kind)]

    def speed(self) -> float:
        """Host speed over the run, as nominal over median kernel time."""
        return REF_NOMINAL_S / statistics.median(self.kernel_times)


class Run:
    """Attempted and failed operation counts plus the checks' verdicts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def count(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.count(1, 0 if ok else 1)


def measure(workload, seconds: int, trace: bool, work: Path, host: HostSpeed) -> dict:
    import workloads
    from spans import Tracer, count_mismatches, design_shares, layer_metrics, layer_table

    run = Run()
    setup_digests = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.prepare(work / f"setup{rep}")
        host.record("setup", time.perf_counter() - t0)
        run.count(state["ops"], state["failed"])
        if state["failed"]:
            return {"run": run}
        setup_digests.append(workloads.digest(state["files"]))
    run.check("set-up repeats byte-identical", len(set(setup_digests)) == 1)

    times, digests = [], []
    first = None
    started = time.perf_counter()
    while True:
        dest = work / f"op{len(times)}"
        t0 = time.perf_counter()
        try:
            outcome = workload.operate(state, dest)
        except Exception:  # a program failure is a failed operation, not a crash
            traceback.print_exc()
            run.count(1, 1)
            return {"run": run}
        times.append(time.perf_counter() - t0)
        host.record("op", times[-1])
        run.count(outcome.ops, outcome.failed)
        if outcome.failed:
            return {"run": run}
        digests.append(workloads.digest(outcome.files))
        if first is None:
            first = outcome
        else:
            shutil.rmtree(dest)
        elapsed = time.perf_counter() - started
        if len(times) >= MIN_ITERATIONS and elapsed * (len(times) + 1) / len(times) > seconds:
            break

    run.check("fresh runs byte-identical", len(set(digests)) == 1, f"{len(digests)} runs")
    for name, ok, detail in workload.output_checks(state, first):
        run.check(name, ok, detail)
    result = {
        "run": run,
        "times": times,
        "digest": digests[0],
        "quality": workload.quality(state, first),
        "counts": workload.counts(state, first),
    }
    if not trace:
        return result

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            tstate = workload.prepare(work / "setup-traced")
        with tracer.span("bench.op"):
            toutcome = workload.operate(tstate, work / "op-traced")
    run.count(tstate["ops"] + toutcome.ops, tstate["failed"] + toutcome.failed)
    spans = tracer.spans
    run.check("traced artifacts match untraced", workloads.digest(toutcome.files) == digests[0])
    run.check("traced counts match untraced", workload.counts(tstate, toutcome) == result["counts"])
    facts = workloads.facts(workload, tstate, toutcome)
    mismatches = count_mismatches(spans, facts)
    run.check("exact counts match the traced calls", not mismatches, "; ".join(mismatches))
    roots = {s["name"]: i for i, s in enumerate(spans) if s["name"].startswith("bench.")}
    result.update(
        spans=spans,
        layers=layer_metrics(spans, facts),
        tables={name: layer_table(spans, i) for name, i in roots.items()},
        traced_wall=spans[roots["bench.op"]]["end"] - spans[roots["bench.op"]]["start"],
        shares=design_shares(spans, roots["bench.op"]),
    )
    for name, ok, detail in workload.design_checks(result["layers"], result["shares"]):
        run.check(name, ok, detail)
    return result


def print_tables(workload: str, result: dict) -> None:
    for root, (uncovered, table) in result["tables"].items():
        span_total = sum(table.values()) + uncovered
        print(f"self time by layer, {workload} {root} ({span_total:.3f} s traced)")
        for layer, t in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {t:10.4f} s  {t / span_total:7.1%}")
        print(f"  {'uncovered':<10} {uncovered:10.4f} s  {uncovered / span_total:7.1%}")
    wall = result["traced_wall"]
    untraced = statistics.median(result["times"])
    print(
        f"tracing overhead, {workload}: traced wall_s {wall:.4f} s - untraced median "
        f"{untraced:.4f} s = {wall - untraced:+.4f} s"
    )
    shares = "; ".join(f"{k} {v:.1%}" for k, v in result["shares"].items())
    print(f"share of traced wall_s, {workload}: {shares}")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import emoprop.cli  # (pulls in every layer and numpy)
    except ImportError as exc:
        print(f"error: cannot import emoprop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(emoprop.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: emoprop was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = HostSpeed()
    for _ in range(IMPORT_REPS):
        host.record("import", import_time())
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(workload, args.seconds, bool(args.trace), work, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            work.parent.rmdir()
    run = result["run"]
    env = environment(args.seed, threads)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, ok, detail in run.checks:
        print(f"check {args.workload}: {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    complete = "quality" in result and (not args.trace or "layers" in result)
    if complete and not args.trace:
        med = statistics.median
        values = {
            "wall_s": med(host.normalized("op")),
            "setup_s": med(host.normalized("import")) + med(host.normalized("setup")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "raw_wall_s": med(host.raw("op")),
            "raw_setup_s": med(host.raw("import")) + med(host.raw("setup")),
            "host_speed": host.speed(),
        }
        listed = spec["end_to_end"]
    elif complete:
        print_tables(args.workload, result)
        values = result["layers"]
        listed = spec["per_layer"]
    else:
        values, listed = {}, []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"metric {args.workload} {name} = {entry['value']!r} {entry['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"report {args.workload} {name} = {values[name]!r}")
    if complete:
        print(f"quality {args.workload} {json.dumps(result['quality'], sort_keys=True)}")
        print(f"counts {args.workload} {json.dumps(result['counts'], sort_keys=True)}")
        print(f"digest {args.workload} {result['digest']}")
    error_rate = run.failed / max(1, run.attempted)
    print(f"error_rate {args.workload} = {error_rate!r} ({run.failed}/{run.attempted} operations failed)")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "sections": host.sections,
        "normalized": {kind: host.normalized(kind) for kind in ("import", "setup", "op")},
        "kernel_times": host.kernel_times,
        "checks": run.checks,
        "error_rate": error_rate,
        "quality": result.get("quality"),
        "counts": result.get("counts"),
        "digest": result.get("digest"),
        "layers": result.get("layers"),
        "traced_wall": result.get("traced_wall"),
        "spans": result.get("spans"),
        "metrics": metrics,
        "reports": {name: values[name] for name in sorted(set(values) - set(metrics))},
    }
    out_dir = ROOT / ".perfbench-results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    correct = complete and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted), "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, entry in last["metrics"].items():
            summary["metrics"][f"{w['name']}.{name}"] = entry
            rows.append((w["name"], name, entry["value"], entry["unit"]))
    print(f"{'workload':<22} {'metric':<28} {'value':>14}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<22} {name:<28} {value:>14.6g}  {unit}")
    print(f"error_rate = {summary['failed'] / max(1, summary['attempted'])!r}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
