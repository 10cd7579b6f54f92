"""Command-line front end: named experiments, CSV/JSON tables, plot data.

Every command is deterministic for a fixed configuration (seed included),
so identical invocations produce byte-identical output.  Tables go to
stdout by default; ``--out`` redirects them to a file and adds a metadata
sidecar recording the configuration, library version and wall time.
"""

import argparse
import math
import re
import sys
import time
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import add
from pathlib import Path

from . import __version__
from .exact_core import hilbert_matrix, inverse_factor_Linv, linv_growth_study
from .functions import constant, peak, polynomial
from .legendre import l2_distance, project
from .moment_ops import MomentSequence, exact_polynomial_moments, pseudoinverse
from .range_diagnostics import hausdorff_criterion
from .stability_lab import (
    amplification_experiment,
    holder_counterexample,
    laplace_consistency,
    eit_forward,
    point_value_noise_study,
)

__all__ = ["main", "run", "emit_plotdata"]


def _fmt(v):
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(records, stream):
    cols = list(records[0].keys())
    stream.write(",".join(cols) + "\n")
    for rec in records:
        stream.write(",".join(_fmt(rec[c]) for c in cols) + "\n")


def _json_safe(v):
    if isinstance(v, float) and abs(v) > 1e15:
        return _fmt(v)
    return v


def _write_json(records, stream):
    import json  # loaded by --format json only
    stream.write(json.dumps([{k: _json_safe(v) for k, v in r.items()} for r in records],
                            indent=2))
    stream.write("\n")


def emit_plotdata(records, series_spec, outdir="."):
    """One two-column .dat file per (name, x_key, y_key) series."""
    if not records:
        raise ValueError("no records to plot")
    Path(outdir).mkdir(parents=True, exist_ok=True)
    paths = []
    for name, x_key, y_key in series_spec:
        path = Path(outdir) / f"{name}.dat"
        with open(path, "w") as fh:
            for rec in records:
                fh.write(f"{_fmt(rec[x_key])} {_fmt(rec[y_key])}\n")
        paths.append(path)
    return paths


def _parse_deltas(text):
    """'1e-2..1e-6' expands to the decades 10^k in the closed range between
    the ends, in the ends' order; an end that is a decade up to float
    rounding counts as inside.  A range with no decade inside is refused."""
    if ".." in text:
        ends = [float(x) for x in text.split("..")]
        if len(ends) != 2 or not all(0 < x < math.inf for x in ends):
            raise ValueError(f"a delta range needs two finite positive ends, got {text!r}")
        lo, hi = (math.log10(x) for x in sorted(ends))
        # an end within float rounding of 10^k has log10 within 1e-12 of k
        ks = range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1)
        if not ks:
            raise ValueError(f"no decade 10^k lies in the delta range {text!r}")
        return [10.0**k for k in (ks if ends[0] <= ends[1] else reversed(ks))]
    return [float(x) for x in text.split(",")]


_MAX_DEGREE = 1000
# pointvalue builds 2^max_level_exp moments, about 48 bytes each (peak RSS 787 MB at 24)
_MAX_LEVEL_EXP = 24


def _parse_poly(text):
    """Coefficients (c_0, c_1, ...) of a polynomial in t, e.g. '3t^2-1'.

    The text is parsed, never evaluated.  Accepted: int and decimal
    numbers (taken as written, so 0.5 is 1/2), t, unary and binary + and
    -, *, division by a constant and powers by an integer literal, with
    the degree at most 1000.  ``2t`` and ``)t`` imply the product.
    Intermediate polynomials are integer numerators over one common
    denominator, so products are integer convolutions.
    """
    import ast  # loaded by reconstruct only

    def refuse():
        return ValueError(f"not a polynomial in t: {text!r}")

    def mul(a, b):
        (x, dx), (y, dy) = a, b
        if len(x) + len(y) - 2 > _MAX_DEGREE:
            raise refuse()
        out = [0] * (len(x) + len(y) - 1)
        for i, c in enumerate(x):
            if c:
                out[i:i + len(y)] = map(add, out[i:i + len(y)], map(c.__mul__, y))
        g = gcd(dx * dy, *out)  # keeps e.g. (3/3)^1000 from growing
        return [c // g for c in out], dx * dy // g

    def poly(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            c = Fraction(str(node.value))
            return [c.numerator], c.denominator
        if isinstance(node, ast.Name) and node.id == "t":
            return [0, 1], 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            x, d = poly(node.operand)
            return (x, d) if isinstance(node.op, ast.UAdd) else ([-c for c in x], d)
        if not isinstance(node, ast.BinOp):
            raise refuse()
        a = poly(node.left)
        if isinstance(node.op, ast.Pow):
            k = node.right
            if not (isinstance(k, ast.Constant) and type(k.value) is int and 0 <= k.value <= _MAX_DEGREE):
                raise refuse()
            k = k.value
            if (len(a[0]) - 1) * k > _MAX_DEGREE:
                raise refuse()
            out = [1], 1
            while k:
                if k & 1:
                    out = mul(out, a)
                k >>= 1
                if k:
                    a = mul(a, a)
            return out
        b = poly(node.right)
        (x, dx), (y, dy) = a, b
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            return [c * dy + sign * e * dx for c, e in zip_longest(x, y, fillvalue=0)], dx * dy
        if isinstance(node.op, ast.Mult):
            return mul(a, b)
        if isinstance(node.op, ast.Div) and len(y) == 1 and y[0] != 0:
            return [c * dy for c in x], dx * y[0]
        raise refuse()

    source = re.sub(r"(?<=[0-9)])t", "*t", text.replace("^", "**"))
    try:
        nums, den = poly(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        # ValueError: 1e999 is inf; ast.parse reports too deep nesting as
        # MemoryError, the walk as RecursionError
        raise refuse() from None
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    return [Fraction(c, den) for c in nums]


# hausdorff's --data choices: n exact moments of 1, of t, and of the first unit vector
_DATA = {
    "const": lambda n: exact_polynomial_moments((1,), n),
    "t": lambda n: exact_polynomial_moments((0, 1), n),
    "unit": lambda n: MomentSequence([Fraction(1)] + [Fraction(0)] * (n - 1)),
}


def _cmd_hilbert(args):
    h = hilbert_matrix(args.n)
    return [
        {"i": i + 1, "j": j + 1, "exact": str(h[i, j]), "value": float(h[i, j])}
        for i in range(args.n)
        for j in range(args.n)
    ], None


def _cmd_linv(args):
    fac = inverse_factor_Linv(args.n)
    return [
        {
            "i": i + 1,
            "j": j + 1,
            "rational_part": str(fac.rational_part[i, j]),
            "weight": fac.diag_weights[i],
            "value": fac.entry(i + 1, j + 1),
        }
        for i in range(args.n)
        for j in range(i + 1)
    ], None


def _cmd_reconstruct(args):
    coeffs = _parse_poly(args.poly)
    if len(coeffs) > args.n:
        raise ValueError(f"degree {len(coeffs) - 1} needs n > degree, got n={args.n}")
    f = polynomial(coeffs, label=args.poly)
    y = exact_polynomial_moments(coeffs, args.n)
    rec = pseudoinverse(y)
    err = l2_distance(rec, project(f, args.n))
    return [{"poly": args.poly, "n": args.n, "l2_error": err}], None


def _cmd_hausdorff(args):
    y = _DATA[args.data](args.n_max + 1)
    rows = []
    for N in range(1, args.n_max + 1):
        st = hausdorff_criterion(y, N)
        rows.append({
            "N": N,
            "criterion_value": float(st.criterion_value),
            "criterion_exact": str(st.criterion_value),
            "picard_partial": float(st.picard_partial),
        })
    return rows, None


def _cmd_amplification(args):
    deltas = _parse_deltas(args.deltas)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        est = amplification_experiment(peak(), n, deltas, args.R, args.seed)
        rows.append({"n": n, "f_n": est.f_n, "ln_fn_over_n": est.rate,
                     "realizations": est.realizations})
    series = [("amplification_f_n", "n", "f_n"),
              ("amplification_rate", "n", "ln_fn_over_n")]
    return rows, series


def _cmd_growth(args):
    rows = linv_growth_study(args.n_max, precision=args.precision_bits)
    series = [("growth_bound", "i", "bound"), ("growth_norm", "i", "norm"),
              ("growth_row_max", "i", "row_max"), ("growth_diag", "i", "diag")]
    return rows, series


def _cmd_pointvalue(args):
    deltas = _parse_deltas(args.deltas)
    if args.max_level_exp < 0:
        raise ValueError("max_level_exp must be >= 0")
    if args.max_level_exp > _MAX_LEVEL_EXP:
        raise ValueError(f"max_level_exp must be <= {_MAX_LEVEL_EXP}")
    y = [1.0 / (j + 1) for j in range(1, 2**args.max_level_exp + 1)]
    rows = point_value_noise_study(y, 1.0, deltas)
    return rows, None


def _cmd_counterexample(args):
    r, m, ratio = holder_counterexample(args.mu, args.k, args.C)
    return [{"mu": args.mu, "k": args.k, "target": args.C,
             "r": r, "m": m, "ratio": ratio}], None


def _cmd_laplace(args):
    rows = laplace_consistency(peak(), list(range(1, args.j_max + 1)), tol=args.tol)
    return rows, None


def _cmd_eit(args):
    sigma = constant(1.0) if args.sigma == "const" else polynomial((0, 0, 1), label="r^2")
    modes = list(range(1, args.modes + 1))
    vals = eit_forward(sigma, modes)
    return [{"mode": n, "value": float(v)} for n, v in zip(modes, vals)], None


_COMMANDS = {
    "hilbert": _cmd_hilbert,
    "linv": _cmd_linv,
    "reconstruct": _cmd_reconstruct,
    "hausdorff": _cmd_hausdorff,
    "amplification": _cmd_amplification,
    "growth": _cmd_growth,
    "pointvalue": _cmd_pointvalue,
    "counterexample": _cmd_counterexample,
    "laplace": _cmd_laplace,
    "eit": _cmd_eit,
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="hausmom",
                                     description="Hausdorff moment problem toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="entries of the Hilbert segment")
    p.add_argument("--n", type=int, default=5)
    p = sub.add_parser("linv", help="entries of the inverse triangular factor")
    p.add_argument("--n", type=int, default=5)
    p = sub.add_parser("reconstruct", help="recover a polynomial from its moments")
    p.add_argument("--poly", required=True, help="polynomial in t, e.g. '3t^2-1'")
    p.add_argument("--n", type=int, default=8)
    p = sub.add_parser("hausdorff", help="range criterion levels")
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--data", choices=tuple(_DATA), default="const")
    p = sub.add_parser("amplification", help="noise-amplification regression")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--deltas", default="1e-2..1e-7")
    p.add_argument("--R", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p = sub.add_parser("growth", help="inverse-factor growth study")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--precision-bits", type=int, default=256,
                   help="power-iteration precision, at least 64; below 152, norm_sq_rel_err "
                        "reads a false 0 at many levels (35 of 40 at 128)")
    p = sub.add_parser("pointvalue", help="point-value recovery at t=1")
    p.add_argument("--deltas", default="1e-2..1e-6")
    p.add_argument("--max-level-exp", type=int, default=17)
    p = sub.add_parser("counterexample", help="Hoelder-rate counterexample witness")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--C", type=float, default=100.0)
    p = sub.add_parser("laplace", help="moment vs Laplace-sample agreement")
    p.add_argument("--j-max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-8)
    p = sub.add_parser("eit", help="linearized layered-disc forward map")
    p.add_argument("--sigma", choices=("const", "r2"), default="r2")
    p.add_argument("--modes", type=int, default=8)
    for p in sub.choices.values():  # the options every command shares, after its own
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--config", default=None, help="key=value config file; flags win")
        p.add_argument("--plotdata", default=None, metavar="DIR",
                       help="also write two-column .dat series files into DIR")
    return parser


def _apply_config(parser, argv, args):
    """Parse again with each config line key=value as --key=value ahead of
    the command line's own options, so argparse checks it and flags win."""
    if not args.config:
        return args
    options = []
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        options.append(f"--{key.replace('_', '-')}={val.strip()}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + options + argv[at:])


def run(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, argv, args)
        start = time.monotonic()
        records, series = _COMMANDS[args.command](args)
        if not records:
            raise ValueError(f"{args.command}: this configuration gives an empty table")
        elapsed = time.monotonic() - start
        writer = _write_csv if args.format == "csv" else _write_json
        if args.out:
            with open(args.out, "w", newline="") as fh:
                writer(records, fh)
            meta = {
                "command": args.command,
                "config": {k: v for k, v in vars(args).items() if k != "command"},
                "version": __version__,
                "wall_time_s": elapsed,
            }
            import json
            Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, indent=2, default=str) + "\n")
        else:
            writer(records, sys.stdout)
        if args.plotdata and series:
            emit_plotdata(records, series, args.plotdata)
    except SystemExit as exc:  # argparse: 0 after --help, else a usage error
        return 1 if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
