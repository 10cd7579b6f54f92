"""Regenerate the golden outputs in bench/golden from the current sources.

    python3 bench/make_golden.py

Run it only to accept a deliberate change of output: every benchmark run
compares against these files, and a mismatch counts the operation as
failed.  It writes the growth rows, the moment_data results of round 0
of the default seed, and the stdout of every benchmarked CLI call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import child
import run

sys.path.insert(0, str(run.ROOT / "src"))


def main():
    os.environ.update(run.child_env())
    import hausmom as hm

    golden = child.GOLDEN
    (golden / "cli").mkdir(parents=True, exist_ok=True)
    rows = hm.linv_growth_study(child.GROWTH_N_MAX, precision=child.GROWTH_BITS)
    if not child.growth_invariants(rows):
        raise SystemExit("growth rows fail the criterion-2 invariants")
    (golden / "growth.json").write_text(json.dumps(rows, indent=1) + "\n")
    ops = []
    for spec in child.moment_batch(child.DEFAULT_SEED, 0):
        result = child.moment_op(hm, spec, child.moment_function(hm, spec))
        if not child.moment_ok(spec, result):
            raise SystemExit(f"moment_data op {spec[:2]} fails its checks")
        ops.append({"spec": child.spec_key(spec), "result": result})
    doc = {"seed": child.DEFAULT_SEED, "round": 0, "ops": ops}
    (golden / "moment_data.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, argv in child.CLI_CALLS:
        proc = subprocess.run([sys.executable, "-c", child.CLI_MAIN, *argv], env=run.child_env(),
                              capture_output=True, check=True)
        (golden / "cli" / f"{name}.out").write_bytes(proc.stdout)


if __name__ == "__main__":
    main()
