"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 bench/child.py setup WORKLOAD SEED
        import hausmom and generate the inputs, print "ready", exit
    python3 bench/child.py run WORKLOAD SEED SECONDS TRACE
        the same, then run the timed phase and print one JSON result line
    python3 bench/child.py cli TRANSFER_FILE ARG...
        one traced hausmom CLI call, its spans written to TRANSFER_FILE
    python3 bench/child.py kernel
        the start-up calibration kernel, see start_kernel_s

The timed phase repeats a round, a fixed amount of work, until SECONDS
have passed (at least one round).  Each operation is checked as it
completes, and a failed check counts the operation as failed.  With
TRACE 1 the timed phase is followed by exactly one traced round, round 0
of the seed again, with every public hausmom function wrapped, so that
every per-layer figure is a per-round figure of the program, whatever
the host's speed.

hausmom is imported only inside the workloads, after this module and
``spans`` (standard library only), so that under ``python -X importtime``
the package's cumulative import time is whole.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
DEFAULT_SEED = 42
clock = time.perf_counter

# growth: one linv_growth_study call per round.
GROWTH_N_MAX = 24
GROWTH_BITS = 256

# moment_data: per round, at each level n, POLYS_PER_LEVEL exact
# polynomial moment vectors and one quadrature and one noisy vector of
# each function.  The cells are fixed, so every round does the same mix
# of work; the seed draws the coefficients, noise sizes and order.
LEVELS = (8, 12, 24, 40)
POLYS_PER_LEVEL = 3
QUAD_FUNCTIONS = ("peak", "cubic_exp", "abs_kink")

# cli: every subcommand at its defaults (reconstruct needs --poly), plus
# the order-7 bump of counterexample --mu 0.25; each call is one
# operation, in a fresh interpreter.  Names are the golden file names.
CLI_CALLS = (
    ("hilbert", ("hilbert",)),
    ("linv", ("linv",)),
    ("reconstruct", ("reconstruct", "--poly", "3t^2-1")),
    ("hausdorff", ("hausdorff",)),
    ("amplification", ("amplification",)),
    ("growth", ("growth",)),
    ("pointvalue", ("pointvalue",)),
    ("counterexample", ("counterexample",)),
    ("counterexample-mu-0.25", ("counterexample", "--mu", "0.25")),
    ("laplace", ("laplace",)),
    ("eit", ("eit",)),
)
CLI_MAIN = "from hausmom.cli import main; main()"
CLI_TIMEOUT_S = 120
# Repetitions of calibrate() in the start-up kernel: about 0.3 s, like
# the pure-Python part (sympy) of a CLI call's import and work.
KERNEL_REPS = 12


def growth_invariants(rows):
    """The criterion-2 invariants of tests/test_acceptance.py on the rows."""
    rates = [r["ln_inf_over_i"] for r in rows if r["i"] >= 10]
    return (
        [r["i"] for r in rows] == list(range(1, GROWTH_N_MAX + 1))
        and all(r["norm_sq_rel_err"] <= 1e-10 for r in rows)
        and all(3.0 <= v <= 3.526 for v in rates)
        and all(b > a for a, b in zip(rates, rates[1:]))
        and all(math.ceil((r["i"] + 1) / 2) < r["row_max_col"] < r["i"] for r in rows if r["i"] >= 10)
    )


def moment_batch(seed, r):
    """Input specs of round r: plain tuples, the same for the same (seed, r)."""
    rng = random.Random(f"moment_data:{seed}:{r}")
    specs = []
    for n in LEVELS:
        degree = min(n - 1, 10)
        for _ in range(POLYS_PER_LEVEL):
            coeffs = tuple(Fraction(rng.randint(-200, 200), rng.randint(1, 100)) for _ in range(degree + 1))
            specs.append(("exact", n, coeffs))
        for name in QUAD_FUNCTIONS:
            specs.append(("quad", n, name))
            specs.append(("noisy", n, name, 10.0 ** rng.uniform(-10, -6), rng.getrandbits(32)))
    rng.shuffle(specs)
    return specs


def spec_key(spec):
    return [str(x) if isinstance(x, tuple) else x for x in spec]


def moment_function(hm, spec):
    """The TestFunction a spec's moments are taken of."""
    return hm.polynomial(spec[2]) if spec[0] == "exact" else getattr(hm, spec[2])()


def moment_op(hm, spec, f):
    """Moments, top-level range criterion, pseudoinverse, distance to the projection."""
    kind, n = spec[0], spec[1]
    if kind == "exact":
        y = hm.exact_polynomial_moments(spec[2], n)
    else:
        y = hm.forward_moments(f, n)
        if kind == "noisy":
            y = hm.noisy_data(y, hm.NoiseModel(spec[3], seed=spec[4]))
    st = hm.hausdorff_criterion(y, n - 1)
    lam = hm.pseudoinverse(y)
    err = hm.l2_distance(lam, hm.project(f, n))
    return [float(st.criterion_value), float(st.picard_partial), err, float((lam.coefficients ** 2).sum())]


def moment_ok(spec, result):
    """Finite results; exact data recovers below 1e-9 (criterion 3) and its
    exact Picard sum equals the squared norm of the reconstruction."""
    if not all(math.isfinite(v) for v in result):
        return False
    if spec[0] != "exact":
        return True
    _, picard, err, norm_sq = result
    return err < 1e-9 and abs(picard - norm_sq) <= 1e-9 * abs(picard)


def start_kernel_s(timeout=CLI_TIMEOUT_S, env=None):
    """Seconds the start-up calibration kernel takes: a fresh interpreter
    importing dependencies hausmom keeps (sympy is to go, see ROADMAP),
    then running calibrate() KERNEL_REPS times, and no hausmom code."""
    t0 = clock()
    subprocess.run([sys.executable, str(Path(__file__)), "kernel"], check=True, timeout=timeout, env=env)
    return clock() - t0


def call(cmd):
    """Run cmd to its end; return its exit code, stdout, stderr and its own
    peak RSS in MB (from wait4, so no other child's memory is counted)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def calibrate():
    """Seconds a fixed pure-Python kernel takes now: Fraction, big-integer
    and dict work like the workloads' own, none of it from hausmom.

    The host's speed drifts by tens of percent over tens of seconds, and
    this kernel's time drifts with it, so round time over kernel time is
    steady where round time alone is not.
    """
    t0 = clock()
    x = Fraction(0)
    for k in range(1, 700):
        x += Fraction((-1) ** k * math.comb(80, k % 80), k)
    counts = {}
    for i in range(100000):
        key = i * i % 97
        counts[key] = counts.get(key, 0) + 1
    return clock() - t0


class InProcess:
    """A workload whose operations call hausmom in this process; tracing
    wraps the package's functions here."""

    tracer = None

    def prepare(self, r):
        pass

    def reference(self):
        return []

    def calibrate(self):
        return calibrate()

    def enable_trace(self):
        self.tracer = spans.Tracer()
        spans.instrument(self.tracer)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced_processes(self):
        """(spans, errors) per traced process, the traced names, import times."""
        return [(self.tracer.spans, self.tracer.errors)], self.tracer.names, []


class Growth(InProcess):
    """Inputs are fixed (n_max, precision); the seed is not used."""

    def __init__(self, seed):
        self.hm = importlib.import_module("hausmom")
        self.golden = json.loads((GOLDEN / "growth.json").read_text())

    def round(self, r, calibrations):
        t0 = clock()
        rows = self.hm.linv_growth_study(GROWTH_N_MAX, precision=GROWTH_BITS)
        lat = clock() - t0
        return [(lat, growth_invariants(rows) and json.loads(json.dumps(rows)) == self.golden)]


class MomentData(InProcess):
    def __init__(self, seed):
        self.hm = importlib.import_module("hausmom")
        self.seed = seed
        self.golden = json.loads((GOLDEN / "moment_data.json").read_text())
        self.r = 0
        self.batch = self.inputs(seed, 0)
        self.ops = 0

    def inputs(self, seed, r):
        return [(spec, moment_function(self.hm, spec)) for spec in moment_batch(seed, r)]

    def prepare(self, r):
        if r != self.r:
            self.r = r
            self.batch = self.inputs(self.seed, r)

    def round(self, r, calibrations):
        out = []
        for spec, f in self.batch:
            if self.tracer:
                self.tracer.op = self.ops
            self.ops += 1
            t0 = clock()
            result = moment_op(self.hm, spec, f)
            out.append((clock() - t0, moment_ok(spec, result)))
        return out

    def reference(self):
        """Round 0 of the default seed against the golden results."""
        expected = self.golden["ops"]
        batch = self.inputs(DEFAULT_SEED, 0)
        oks = []
        for i, (spec, f) in enumerate(batch):
            result = moment_op(self.hm, spec, f)
            same = i < len(expected) and expected[i] == {"spec": spec_key(spec), "result": result}
            oks.append(same and moment_ok(spec, result))
        return oks + [False] * (len(expected) - len(batch))


class Cli:
    """Each operation is one CLI call in a fresh interpreter.  Inputs are
    the fixed argument lists; the seed is not used."""

    def __init__(self, seed):
        importlib.import_module("hausmom.cli")
        self.golden = {name: (GOLDEN / "cli" / f"{name}.out").read_bytes() for name, _ in CLI_CALLS}
        self.transfer = OUT / f"cli-trace-{seed}.json"
        self.tracing = False
        self.traced = []  # one record per traced call, see traced_cli
        self.peak_mb = 0.0

    def prepare(self, r):
        pass

    def reference(self):
        return []

    def calibrate(self):
        """Start-up and import, the bulk of a CLI call, which the
        in-process kernel does not track."""
        return start_kernel_s()

    def enable_trace(self):
        self.tracing = True

    def peak_rss_mb(self):
        """The largest peak RSS of one untraced CLI call."""
        return self.peak_mb

    def traced_processes(self):
        procs = [(rec["spans"], rec["errors"]) for rec in self.traced]
        return procs, self.traced[0]["names"], [rec["imports"] for rec in self.traced]

    def round(self, r, calibrations):
        """The calls in turn, with the host's speed sampled between calls,
        since it drifts within a round of this length."""
        out = []
        for i, (name, argv) in enumerate(CLI_CALLS):
            if i:
                calibrations.append(self.calibrate())
            if self.tracing:
                cmd = [sys.executable, "-X", "importtime", str(Path(__file__)), "cli", str(self.transfer)]
            else:
                cmd = [sys.executable, "-c", CLI_MAIN]
            t0 = clock()
            code, stdout, stderr, peak_mb = call(cmd + list(argv))
            lat = clock() - t0
            out.append((lat, code == 0 and stdout == self.golden[name]))
            if self.tracing:
                rec = json.loads(self.transfer.read_text())
                self.transfer.unlink()
                op = len(self.traced)
                rec["spans"] = [[s[0], s[1], s[2], s[3], op, s[5]] for s in rec["spans"]]
                rec["imports"] = spans.import_times(stderr.decode())
                self.traced.append(rec)
            else:
                self.peak_mb = max(self.peak_mb, peak_mb)
        return out


WORKLOADS = {"growth": Growth, "moment_data": MomentData, "cli": Cli}


def phase(w, seconds, r0):
    """Rounds from r0 until `seconds` have passed, at least one.

    A round's time is the sum of its operations' latencies.  The host's
    speed is sampled with w.calibrate() before the first round and after
    each one; a round's relative time is its time over the mean of the
    samples taken from just before it to just after it.
    Returns (round times, relative round times, (latency, ok) per op).
    """
    start = clock()
    rounds, rel, ops = [], [], []
    calibrations = [w.calibrate()]
    r = r0
    while True:
        w.prepare(r)
        first = len(calibrations) - 1
        done = w.round(r, calibrations)
        calibrations.append(w.calibrate())
        ops.extend(done)
        rounds.append(sum(lat for lat, _ in done))
        rel.append(rounds[-1] / statistics.fmean(calibrations[first:]))
        r += 1
        if clock() - start >= seconds:
            return rounds, rel, ops


def run(workload, seed, seconds, trace):
    w = WORKLOADS[workload](seed)
    print("ready", flush=True)
    OUT.mkdir(exist_ok=True)
    rounds, rel, ops = phase(w, seconds, 0)
    checks = [ok for _, ok in ops] + w.reference()
    result = {"round_s": rounds, "round_rel": rel, "op_s": [lat for lat, _ in ops]}
    if trace:
        w.enable_trace()
        traced_rounds, traced_rel, traced_ops = phase(w, 0, 0)
        checks += [ok for _, ok in traced_ops]
        procs, names, imports = w.traced_processes()
        path = OUT / f"spans-{workload}-{seed}.jsonl"
        spans.write_spans(path, [s for s, _ in procs])
        result["trace"] = {
            "metrics": spans.layer_metrics(procs, names), "imports": imports, "spans_file": str(path),
            "round_s": traced_rounds[0],
            "overhead_ratio": traced_rel[0] / statistics.median(rel),
        }
    result["peak_rss_mb"] = w.peak_rss_mb()
    result["attempted"] = len(checks)
    result["failed"] = checks.count(False)
    print(json.dumps(result), flush=True)


def traced_cli(transfer, argv):
    """One CLI call with its layers traced; spans, errors and names go to
    the JSON file `transfer`."""
    importlib.import_module("hausmom.cli")
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        return sys.modules["hausmom.cli"].run(argv)
    finally:
        rec = {"spans": tracer.spans, "errors": dict(tracer.errors), "names": tracer.names}
        Path(transfer).write_text(json.dumps(rec))


def main(argv):
    mode = argv[0]
    if mode == "setup":
        WORKLOADS[argv[1]](int(argv[2]))
        print("ready", flush=True)
        return 0
    if mode == "run":
        run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "kernel":
        for mod in ("numpy", "scipy.integrate", "mpmath"):
            importlib.import_module(mod)
        for _ in range(KERNEL_REPS):
            calibrate()
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
