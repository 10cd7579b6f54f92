"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import child
import run
import spans

ROOT = run.ROOT


def test_self_times_subtract_the_union_of_children():
    # root [0,10] with children [1,4] and [3,6] (overlapping, union 5) and
    # [8,12] (clipped to [8,10]); [1,4] has the grandchild [2,3].
    tree = [
        ["a.root", 0.0, 10.0, None, 0, None],
        ["a.left", 1.0, 4.0, 0, 0, None],
        ["b.mid", 3.0, 6.0, 0, 0, None],
        ["b.inner", 2.0, 3.0, 1, 0, None],
        ["a.late", 8.0, 12.0, 0, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_layer_metrics_sum_over_processes():
    linv = "exact_core.inverse_factor_Linv"
    proc1 = [
        ["moment_ops.pseudoinverse", 0.0, 5.0, None, 0, None],
        [linv, 1.0, 3.0, 0, 0, 8],
        [linv, 3.0, 4.0, 0, 0, 8],
    ]
    proc2 = [[linv, 0.0, 1.0, None, 0, 8], [linv, 1.0, 2.0, None, 1, 12]]
    m = spans.layer_metrics([(proc1, {}), (proc2, {"exact_core": 1})], names=["legendre.project"])
    assert m["moment_ops.pseudoinverse.self_s"] == 2.0
    assert m[f"{linv}.calls"] == 4 and m[f"{linv}.self_s"] == 5.0
    assert m["exact_core.self_s"] == 5.0 and m["moment_ops.self_s"] == 2.0
    assert m["exact_core.errors"] == 1 and m["cli.errors"] == 0
    # distinct n per process: {8} and {8, 12}
    assert m[f"{linv}.distinct_ratio"] == 3 / 4
    assert m["legendre.project.calls"] == 0 and m["functions.evals"] == 0


def test_tracer_records_nesting_and_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = tracer.wrap("legendre.leaf", leaf)
    outer = tracer.wrap("moment_ops.outer", lambda x: traced_leaf(x) + traced_leaf(x))
    tracer.op = 7
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    names = [s[0] for s in tracer.spans]
    assert names == ["moment_ops.outer", "legendre.leaf", "legendre.leaf", "moment_ops.outer", "legendre.leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0, None, 3]
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.errors == {"legendre": 1, "moment_ops": 1}
    assert spans.self_times(tracer.spans)[0] == 5.0 - 1.0 - 1.0


def test_import_times_count_nested_package_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       mpmath",
        "import time:       200 |        200 |         scipy",
        "import time:       300 |        800 |       scipy.integrate",
        "import time:        50 |       2000 |   hausmom",
        "import time:        10 |       2010 | hausmom.cli",
        "import time:         5 |          5 | json",
    ])
    t = spans.import_times(text)
    assert t["scipy"] == pytest.approx(800e-6)
    assert t["hausmom"] == pytest.approx(2010e-6)
    assert t["mpmath"] == pytest.approx(100e-6)
    assert t["numpy"] == 0.0


def test_moment_batch_depends_on_seed_only():
    a = child.moment_batch(7, 0)
    assert a == child.moment_batch(7, 0)
    assert a != child.moment_batch(8, 0)
    assert a != child.moment_batch(7, 1)
    # every seed does the same mix of work
    cells = sorted((s[0], s[1], s[2] if s[0] != "exact" else "") for s in a)
    assert cells == sorted((s[0], s[1], s[2] if s[0] != "exact" else "") for s in child.moment_batch(8, 0))
    assert all(isinstance(c, Fraction) for s in a if s[0] == "exact" for c in s[2])


def test_benchmark_json_has_the_fixed_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(child.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_per_layer_call_counts_name_traced_functions():
    code = "import json, spans, hausmom.cli; t = spans.Tracer(); spans.instrument(t); print(json.dumps(t.names))"
    env = dict(run.child_env(), PYTHONPATH=f"{ROOT / 'src'}:{run.BENCH}")
    names = set(json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                          text=True, check=True).stdout))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"].endswith((".calls", ".self_s", ".distinct_ratio")) and m["name"].count(".") > 1:
            assert m["name"].rsplit(".", 1)[0] in names, m["name"]


def test_call_reports_its_own_peak_rss_only():
    """A small call after a large one reports its own peak, not the
    largest of all the children waited for."""
    child.OUT.mkdir(exist_ok=True)
    code, _, _, big = child.call([sys.executable, "-c", "b = bytearray(80 << 20); b[::4096] = b'x' * len(b[::4096])"])
    assert code == 0 and big > 80
    code, out, _, small = child.call([sys.executable, "-c", "print('ok')"])
    assert code == 0 and out == b"ok\n" and small < big - 60


def copy_checkout(tmp_path, with_src=True):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def bench_run(root, workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def nudge_growth(doc):
    doc[20]["norm"] = math.nextafter(doc[20]["norm"], math.inf)


def nudge_moment_data(doc):
    doc["ops"][5]["result"][2] = math.nextafter(doc["ops"][5]["result"][2], math.inf)


@pytest.mark.parametrize("workload, nudge", [("growth", nudge_growth), ("moment_data", nudge_moment_data)])
def test_tampered_golden_fails_operations(tmp_path, workload, nudge):
    """One golden float moved by one ulp fails the run's checks."""
    root = copy_checkout(tmp_path)
    path = root / "bench" / "golden" / f"{workload}.json"
    doc = json.loads(path.read_text())
    nudge(doc)
    path.write_text(json.dumps(doc))
    proc = bench_run(root, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0 and result["correct"] is False


def test_changed_cli_golden_stdout_fails_that_call(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "bench" / "golden" / "cli" / "eit.out"
    path.write_bytes(path.read_bytes() + b"\n")
    proc = bench_run(root, "cli")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1 and result["attempted"] == len(child.CLI_CALLS)


def test_traced_run_counts_one_round_whatever_the_run_length(tmp_path):
    """Per-layer counts are those of round 0 of the seed, not a total over
    however many rounds fit in the run."""
    root = copy_checkout(tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "moment_data", "--seed", "3", "--seconds", "1.5",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    ops = len(child.moment_batch(3, 0))
    assert metrics["moment_ops.pseudoinverse.calls"]["value"] == ops
    assert metrics["range_diagnostics.hausdorff_criterion.calls"]["value"] == ops
    assert metrics["exact_core.inverse_factor_Linv.distinct_ratio"]["value"] < 1


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    proc = bench_run(copy_checkout(tmp_path, with_src=False), "growth")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
