"""Measure how steady the benchmark is and record its first baseline.

    python3 perfbench/baseline.py            # measure and report
    python3 perfbench/baseline.py --write    # also write perfbench/BASELINE.json

It makes two sweeps of untraced runs over the same seeds (1-10), each
run in a fresh process, one after another: the first sweep takes the
workloads and seeds in order, the second in reverse order.  Then it makes
one traced run per workload on seeds 1-3.  For every workload and
end-to-end metric it prints each sweep's median, quartiles and spread
(the distance between the quartiles as a share of the median) and the
ratio of the second sweep's median to the first's, next to the metric's
bound from BENCHMARK.json, and, not gated, the same for the raw
(unnormalized) ``wall_s`` and the host speed the runs saw.  It flags

- a spread at or above a third of the bound (SPREAD),
- a ratio further from 1 than the bound (DRIFT),
- a seed whose exact counts or artifact digest differ between its runs,
- a failed or incorrect run,

and exits with status 1 if anything is flagged.  ``--write`` records the
summaries, the ratios, the run environment and each seed's digest, exact
counts and quality figures in ``perfbench/BASELINE.json``, unless a run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = list(range(1, 4))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One run's result and record, or None (reported) if it failed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        print(f"FAILED {workload} seed {seed} trace {trace}: exit {proc.returncode}, {result}")
        return None
    record = ROOT / ".perfbench-results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {**result, "record": json.loads(record.read_text(encoding="utf-8"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="write perfbench/BASELINE.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sweeps: list[dict] = [{}, {}]
    for sweep, order in zip(sweeps, (1, -1)):
        for name in names[::order]:
            for seed in SEEDS[::order]:
                sweep[name, seed] = run(name, seed, seconds, 0)
    traced = {(name, seed): run(name, seed, seconds, 1) for name in names for seed in TRACE_SEEDS}
    if any(r is None for r in (*sweeps[0].values(), *sweeps[1].values(), *traced.values())):
        return 1

    baseline = {"run_seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "workloads": {}}
    steady = True
    for name in names:
        entry = {"seeds": {}, "end_to_end": {}, "quality": {}, "per_layer": {}}
        for seed in SEEDS:
            runs = [sweeps[0][name, seed], sweeps[1][name, seed]]
            if seed in TRACE_SEEDS:
                runs.append(traced[name, seed])
            records = [r["record"] for r in runs]
            if any((r["digest"], r["counts"]) != (records[0]["digest"], records[0]["counts"]) for r in records):
                print(f"{name} seed {seed}: exact counts or artifact digest differ between runs  REPEAT")
                steady = False
            entry["seeds"][seed] = {k: records[0][k] for k in ("digest", "counts", "quality")}
        baseline["env"] = {k: v for k, v in records[0]["env"].items() if k != "seed"}

        print(f"{name}: two sweeps of {len(SEEDS)} untraced runs, {len(TRACE_SEEDS)} traced runs")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            first, second = (summary([sweep[name, s]["metrics"][m]["value"] for s in SEEDS]) for sweep in sweeps)
            ratio = second["median"] / first["median"]
            flags = [f for f, bad in (("SPREAD", max(first["spread"], second["spread"]) >= bound / 3),
                                      ("DRIFT", abs(ratio - 1) > bound)) if bad]
            steady &= not flags
            entry["end_to_end"][m] = {"sweeps": [first, second], "ratio": ratio, "bound": bound}
            print(f"  {m:<12} median {first['median']:10.5g} / {second['median']:10.5g}"
                  f"  spread {first['spread']:6.2%} / {second['spread']:6.2%}  bound/3 {bound / 3:6.2%}"
                  f"  ratio {ratio:6.3f}  bound {bound:.2f}  {' '.join(flags) or 'ok'}")
        for raw in ("raw_wall_s", "host_speed"):
            first, second = (summary([sweep[name, s]["record"]["reports"][raw] for s in SEEDS]) for sweep in sweeps)
            entry["end_to_end"][raw] = {"sweeps": [first, second], "ratio": second["median"] / first["median"]}
            print(f"  {raw:<12} median {first['median']:10.5g} / {second['median']:10.5g}"
                  f"  spread {first['spread']:6.2%} / {second['spread']:6.2%}  (not gated)")
        first_sweep = [sweeps[0][name, s]["record"] for s in SEEDS]
        for metric in sorted(first_sweep[0]["quality"]):
            entry["quality"][metric] = summary([r["quality"][metric] for r in first_sweep])
        traced_runs = [traced[name, s] for s in TRACE_SEEDS]
        for metric in sorted(traced_runs[0]["metrics"]):
            entry["per_layer"][metric] = summary([r["metrics"][metric]["value"] for r in traced_runs])
        baseline["workloads"][name] = entry
    if args.write:
        out = HERE / "BASELINE.json"
        out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
