"""hausmom benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` in fresh child processes (bench/child.py), one at a time, with
one BLAS/OpenMP thread each.  Workloads, metrics and bounds are read
from BENCHMARK.json.

With ``--trace 0`` the run starts SETUP_SAMPLES fresh processes, each
timed from its spawn until hausmom is imported and the inputs are
generated (the last one then runs the timed phase), and reports the
end-to-end metrics:

- setup_s: the median of those set-up times;
- setup_rel: the median of each set-up time divided by the mean time of
  the start-up kernel (below) run just before and just after it (the
  last, which runs on, only before it); like run_rel, this cancels most
  of the host's drift, which setup_s keeps;
- run_rel: the median over rounds of a round's time (a round is a fixed
  amount of work) divided by the mean time of a fixed calibration kernel
  that uses no hausmom code, run just before and after the round: a
  pure-Python Fraction and dict kernel, or for cli the start-up kernel,
  a fresh interpreter importing numpy, scipy.integrate and mpmath and
  then running the pure-Python kernel, run between the calls too.  The
  host's speed drifts by tens of percent within a minute; the ratio
  cancels most of that, the raw time does not;
- peak_rss_mb: the workload process's peak RSS (cli: the largest peak
  of one CLI call, each call's own, from wait4).

The raw round time run_s, the operation latencies op_ms_p50 and op_ms_p90
(where a run has 100 operations) and fail_ratio are printed as well, and
with every number's median, quartiles and sample count written to
bench/out/result-NAME-SEED.json.  With ``--trace 1`` one child, started under
``python -X importtime``, runs the untraced rounds and then one traced
round, round 0 of the seed, and the run reports the per-layer metrics of
that round; every per-layer number, per-function self times included,
also goes to bench/out/trace-NAME-SEED.json.

Human-readable lines start with ``#``; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import child
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 6
# The whole run must end within 180 s; children are killed past this.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """The checkout's src/ as the only PYTHONPATH, one BLAS/OpenMP thread,
    and a fixed string-hash seed, so that dict layouts, and with them
    speed, do not vary from process to process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def git_commit():
    """The checked-out commit; None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    """Versions, CPU count, seed and commit recorded with each result."""
    versions = {}
    for dist in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(), **versions, "nproc": os.cpu_count(),
        "threads": dict.fromkeys(THREAD_VARS, "1"), "seed": seed, "commit": git_commit(),
    }


def spawn(args, deadline, importtime=False):
    """Run bench/child.py; return (seconds from spawn to its "ready" line,
    the rest of its stdout, its stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "child.py"), *args]
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT, text=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if code != 0 or ready.strip() != "ready":
        tail = "\n".join(line for line in stderr.splitlines() if not line.startswith("import time:"))[-2000:]
        raise RuntimeError(f"child {' '.join(args)} exited with {code}\n{tail}")
    return setup_s, rest, stderr


def describe(values, unit, value=statistics.median):
    """The reported value with the median, quartiles and count of its samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": value(values), "unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(args, deadline, env):
    """Every end-to-end number of one run, also written to bench/out."""
    samples, kernels = [], []
    for i in range(SETUP_SAMPLES):
        kernels.append(child.start_kernel_s(max(deadline - time.monotonic(), 1.0), child_env()))
        if i < SETUP_SAMPLES - 1:
            samples.append(spawn(["setup", args.workload, str(args.seed)], deadline)[0])
    setup_s, out, _ = spawn(["run", args.workload, str(args.seed), str(args.seconds), "0"], deadline)
    samples.append(setup_s)
    res = json.loads(out.strip().splitlines()[-1])
    rel = [s / statistics.fmean(kernels[i:i + 2]) for i, s in enumerate(samples)]
    stats = {
        "setup_s": describe(samples, "s"),
        "setup_rel": describe(rel, "ratio"),
        "run_s": describe(res["round_s"], "s"),
        "run_rel": describe(res["round_rel"], "ratio"),
    }
    # a percentile is reported only with ten samples beyond it
    if len(res["op_s"]) >= 100:
        ms = [t * 1e3 for t in res["op_s"]]
        cuts = statistics.quantiles(ms, n=100)
        stats["op_ms_p50"] = describe(ms, "ms", lambda _: cuts[49])
        stats["op_ms_p90"] = describe(ms, "ms", lambda _: cuts[89])
    stats["peak_rss_mb"] = describe([res["peak_rss_mb"]], "MB")
    stats["fail_ratio"] = describe([res["failed"] / res["attempted"]], "ratio")
    for name, d in stats.items():
        print(f"# {name} [{d['unit']}] {d['value']:.6g}  (median {d['median']:.6g} q1 {d['q1']:.6g} "
              f"q3 {d['q3']:.6g} n {d['n']})")
    report = {"workload": args.workload, "env": env, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": stats}
    (OUT / f"result-{args.workload}-{args.seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    return res, {name: d["value"] for name, d in stats.items()}


def traced(args, deadline, env):
    _, out, stderr = spawn(["run", args.workload, str(args.seed), str(args.seconds), "1"], deadline, importtime=True)
    res = json.loads(out.strip().splitlines()[-1])
    tr = res["trace"]
    full = dict(tr["metrics"])
    # cli: one import per call, so the median over the calls
    imports = tr["imports"] or [spans.import_times(stderr)]
    for pkg in imports[0]:
        full[f"setup.import.{pkg}_s"] = statistics.median(imp[pkg] for imp in imports)
    full["trace.overhead_ratio"] = tr["overhead_ratio"]
    traced_s = tr["round_s"]
    shares = {k[: -len(".self_s")]: v / traced_s for k, v in full.items() if k.count(".") == 1 and k.endswith(".self_s")}
    if tr["imports"]:
        shares["import"] = sum(imp["hausmom"] for imp in imports) / traced_s
    report = {"workload": args.workload, "env": env, "traced_round_s": traced_s,
              "untraced_run_s": statistics.median(res["round_s"]), "shares_of_traced_time": shares,
              "metrics": full, "spans_file": tr["spans_file"]}
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"# traced round 0 in {traced_s:.4g} s; overhead_ratio {tr['overhead_ratio']:.4g}")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# share of traced time: {name} {share:.3f}")
    print(f"# all per-layer metrics: {path}")
    return res, full


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "hausmom" / "__init__.py").is_file():
        print(f"error: no hausmom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    try:
        if args.trace:
            res, metrics = traced(args, deadline, env)
            wanted = spec["per_layer"]
        else:
            res, metrics = end_to_end(args, deadline, env)
            wanted = spec["end_to_end"]
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a function of a module the workload never loads was never called
    metrics.update({m["name"]: 0 for m in wanted if m["unit"] == "count" and m["name"] not in metrics})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(f"# output checks {'passed' if not res['failed'] else 'FAILED'}: "
          f"{res['failed']} of {res['attempted']} operations failed")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
