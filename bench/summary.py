"""Run every workload over several seeds and summarize.

    python3 bench/summary.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                             [--trace] [--out bench/out/summary.json]

Runs bench/run.py once per workload and seed, one run at a time, with
the run length from BENCHMARK.json.  Prints, per workload, every
end-to-end metric by name and unit with the median, quartiles and sample
count of its per-run values, the quartile spread as a share of the
median against the metric's bound, and the output checks.  With
``--trace`` it adds one traced run per workload, with every per-layer
metric and each layer's share of the traced time.  The summary, with the
workloads' reasons, the seeds, the bounds and the run environment, is
written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, describe


def run_once(workload, seed, seconds, trace):
    """One run.py run; returns its result line and its report file."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = BENCH / "out" / f"{'trace' if trace else 'result'}-{workload}-{seed}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(report.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "summary.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": seconds, "seeds": seeds, "env": None, "workloads": {}}
    for name in names:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        results, reports = [], []
        for seed in seeds:
            res, report = run_once(name, seed, seconds, False)
            summary["env"] = {k: v for k, v in report["env"].items() if k != "seed"}
            results.append(res)
            reports.append(report)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"why": why, "attempted": attempted, "failed": failed, "metrics": {}}
        print(f"\n{name}: {why}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, first in reports[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in reports]
            d = describe(values, first["unit"])
            d.update(values=values, spread=(d["q3"] - d["q1"]) / d["median"] if d["median"] else 0.0,
                     bound=bounds.get(metric))
            entry["metrics"][metric] = d
            line = (f"  {metric:<12} [{d['unit']}] median {d['median']:.6g} q1 {d['q1']:.6g} "
                    f"q3 {d['q3']:.6g} n {d['n']}  spread {d['spread']:.3f}")
            if d["bound"] is not None:
                verdict = "steady" if d["spread"] <= d["bound"] / 3 else (
                    "within bound" if d["spread"] <= d["bound"] else "TOO WIDE")
                line += f" of bound {d['bound']} ({verdict})"
            print(line)
        print(f"  output checks {'passed' if not failed else 'FAILED'}: {failed} of {attempted} operations failed")
        if args.trace:
            _, report = run_once(name, seeds[0], seconds, True)
            entry["trace"] = report
            print(f"  traced run (seed {seeds[0]}), shares of traced time:")
            for layer, share in sorted(report["shares_of_traced_time"].items(), key=lambda kv: -kv[1]):
                print(f"    {layer:<18} {share:.3f}")
            for k, v in sorted(report["metrics"].items()):
                if v:
                    print(f"    {k} = {v:.6g}")
        summary["workloads"][name] = entry
        print(flush=True)
    summary["bounds"] = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {args.out}")


if __name__ == "__main__":
    main()
