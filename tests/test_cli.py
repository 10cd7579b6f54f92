import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hausmom.cli import _COMMANDS, _parse_deltas, _parse_poly, emit_plotdata, run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_constant(file, name):
    """A module-level constant of bench/<file>, read without importing it."""
    tree = ast.parse((BENCH / file).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in bench/{file}")


CLI_CALLS = _bench_constant("child.py", "CLI_CALLS")
TRACED_LAYERS = _bench_constant("spans.py", "LAYERS")
TRACED_METHODS = [(layer, path) for layer, paths in _bench_constant("spans.py", "METHODS").items()
                  for path in paths]
PER_LAYER = [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
# [layer, function, metric] of every <layer>.<function>.<metric> metric
FUNCTION_METRICS = [name.split(".") for name in PER_LAYER if name.split(".")[0] in TRACED_LAYERS and name.count(".") == 2]
COUNTED_FUNCTIONS = sorted({(layer, fn) for layer, fn, metric in FUNCTION_METRICS
                            if metric in ("calls", "self_s", "distinct_ratio")})
TIMED_FUNCTIONS = sorted({(layer, fn) for layer, fn, metric in FUNCTION_METRICS
                          if metric in ("self_s", "distinct_ratio")})


def _run_fresh(code):
    """Run code in a new interpreter that imports hausmom from this checkout; assert it exits 0
    and return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_none_of(*packages):
    """Code asserting that no module of the named top-level packages was imported."""
    return f"import sys\nassert not {set(packages)!r} & {{m.split('.')[0] for m in sys.modules}}\n"


# numpy's own __init__ imports dozens of numpy.* submodules, so while none is loaded numpy has not run
_NUMPY_RAN = "any(m.startswith('numpy.') for m in sys.modules)"
# the CLI_CALLS that never run numpy's import; the other six do
NUMPY_FREE_CALLS = {"hilbert", "linv", "hausdorff", "growth", "pointvalue"}


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestPackageImport:
    """``import hausmom`` loads the exact core only; the float layers load at
    the first read of one of their names, and ``hausmom.cli`` loads them all."""

    def test_growth_study_leaves_numpy_out(self):
        _run_fresh("import hausmom\nrows = hausmom.linv_growth_study(24)\nassert len(rows) == 24\n"
                   + _loaded_none_of("numpy", "scipy", "sympy", "mpmath"))

    def test_exports_are_their_home_module_objects(self):
        # each name resolved lazily in a fresh interpreter, then kept in the package dict
        _run_fresh("import sys, hausmom\n"
                   "assert dir(hausmom) == sorted(hausmom.__all__) and len(hausmom.__all__) == 57\n"
                   "for name in hausmom.__all__:\n"
                   "    obj = getattr(hausmom, name)\n"
                   "    home = obj.__module__\n"
                   "    assert home.startswith('hausmom.') and getattr(sys.modules[home], name) is obj, name\n"
                   "    assert vars(hausmom)[name] is obj, name\n"
                   "assert hausmom.linv_growth_study.__module__ == 'hausmom.exact_core'\n")

    def test_star_import_binds_every_export(self):
        _run_fresh("from hausmom import *\nimport hausmom\n"
                   "assert len(hausmom.__all__) == 57 and all(n in globals() for n in hausmom.__all__)\n")

    def test_unknown_name_raises_attribute_error(self):
        import hausmom

        with pytest.raises(AttributeError, match="module 'hausmom' has no attribute 'no_such_name'"):
            hausmom.no_such_name
        assert not hasattr(hausmom, "no_such_name")

    def test_cli_loads_every_layer(self):
        # the traced benchmark instruments the layer modules loaded by `import hausmom.cli`
        layers = {f"hausmom.{layer}" for layer in TRACED_LAYERS}
        _run_fresh(f"import sys, hausmom.cli\nassert {layers!r} <= set(sys.modules)\n")


def _src_trees():
    """(module name, parsed tree) of every src/hausmom/*.py."""
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "hausmom").glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _import_sites(package):
    """(module, function) of every import of package in src/hausmom/*.py: the outermost
    enclosing def, or None for an import that runs when the module is imported."""
    sites = set()

    def visit(node, module, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        if any(name.split(".")[0] == package for name in names):
            sites.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _src_trees():
        visit(tree, module, None)
    return sites


class TestDependencyOwners:
    """Each dependency's import statements, pinned: scipy is imported by one function, never at
    module level, ``hausmom._lazy.quadpack``, the loader of QUADPACK's extension; numpy by none,
    since every layer reaches it through ``hausmom._lazy``; sympy and mpmath, which only the
    tests use (mpmath as an oracle), by none: the int kernels in ``exact_core`` give
    ``spectral_norm``'s exact value, ``lambert_w``'s logarithms and ``stable_family``'s Hardy norm."""

    @pytest.mark.parametrize("package, owners", [
        ("scipy", {("_lazy", "quadpack")}),
        ("sympy", set()),
        ("numpy", set()),
        ("mpmath", set()),
    ])
    def test_one_owner(self, package, owners):
        assert _import_sites(package) == owners

    @pytest.mark.parametrize("package", ["scipy"])
    def test_never_at_module_level(self, package):
        sites = _import_sites(package)
        assert sites and all(function is not None for _, function in sites)


class TestOnePlacePerDecision:
    """The package's public names are listed once, in ``hausmom._HOME``, and the
    noise draws come from one generator (plus ``noisy_data``'s single draw)."""

    def test_only_package_and_cli_list_names(self):
        listers = {module for module, tree in _src_trees() for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)}
        assert listers == {"__init__", "cli"}

    def test_package_imports_no_name_from_a_layer(self):
        # only `from . import module`: every public name resolves through _HOME
        trees = dict(_src_trees())
        relative = [node for node in ast.walk(trees["__init__"]) if isinstance(node, ast.ImportFrom) and node.level]
        assert relative and all(node.module is None and {alias.name for alias in node.names} <= trees.keys()
                                for node in relative)

    def test_all_is_the_home_table(self):
        import hausmom

        assert hausmom.__all__ == list(hausmom._HOME) and len(hausmom._HOME) == 57

    def test_readme_inventory_is_the_home_table(self):
        # README's "What is inside" has one entry per public name and names nothing else
        import hausmom

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## What is inside\n", 1)[1].split("\n## ", 1)[0]
        entries = re.findall(r"^- `(\w+)` — ", section, re.M)
        assert sorted(entries) == sorted(hausmom._HOME) and len(entries) == len(set(entries))
        assert set(re.findall(r"`([^`]*)`", section)) <= set(hausmom._HOME)

    def test_two_default_rng_callers(self):
        def draws(stmt):
            return any(isinstance(node, ast.Call) and ast.unparse(node.func).endswith("default_rng")
                       for node in ast.walk(stmt))

        callers = {(module, getattr(stmt, "name", None)) for module, tree in _src_trees()
                   for stmt in tree.body if draws(stmt)}
        assert callers == {("stability_lab", "noisy_data"), ("stability_lab", "_noisy_reconstructions")}


class TestParsing:
    def test_delta_range(self, capsys):
        assert _parse_deltas("1e-2..1e-5") == [1e-2, 1e-3, 1e-4, 1e-5]
        # only the decades inside the closed range, in the ends' order
        assert _parse_deltas("0.05..1e-3") == [1e-2, 1e-3]
        assert _parse_deltas("3e-3..1e-2") == [1e-2]
        assert _parse_deltas("1e-3..1e-3") == [1e-3]
        assert _parse_deltas("1e-2..1e-7") == [10.0**-k for k in range(2, 8)]
        assert _parse_deltas("1e-2..1e-6") == [10.0**-k for k in range(2, 7)]
        with pytest.raises(ValueError, match="no decade"):
            _parse_deltas("0.02..0.05")
        assert run(["pointvalue", "--deltas", "0.02..0.05"]) == 1
        assert capsys.readouterr().err.startswith("error: no decade")

    @pytest.mark.parametrize("text", ["1e-2..0", "-1e-2..1e-4", "1e-2..inf", "nan..1e-3", "1e-2..1e-3..1e-4"])
    def test_delta_range_needs_finite_positive_ends(self, text):
        with pytest.raises(ValueError, match="two finite positive ends"):
            _parse_deltas(text)

    def test_delta_list(self):
        assert _parse_deltas("0.1,0.001") == [0.1, 0.001]

    def test_poly(self):
        assert _parse_poly("3t^2-1") == [Fraction(-1), Fraction(0), Fraction(3)]
        assert _parse_poly("t") == [Fraction(0), Fraction(1)]
        assert _parse_poly("(t-1)^2") == [Fraction(1), Fraction(-2), Fraction(1)]
        assert _parse_poly("0.5t+1") == [Fraction(1), Fraction(1, 2)]
        assert _parse_poly("t/2") == [Fraction(0), Fraction(1, 2)]
        assert _parse_poly("t-t") == [Fraction(0)]
        assert _parse_poly("-t^2") == [Fraction(0), Fraction(0), Fraction(-1)]
        assert _parse_poly("t^1000") == [Fraction(0)] * 1000 + [Fraction(1)]
        assert _parse_poly("(t+1)^1000") == [Fraction(comb(1000, k)) for k in range(1001)]
        assert _parse_poly("(0.5t-1)^37") == [Fraction(comb(37, k) * (-1) ** (37 - k), 2**k) for k in range(38)]
        # a t right after a digit or ")" is a product
        assert _parse_poly("(t+1)t") == [Fraction(0), Fraction(1), Fraction(1)]
        assert _parse_poly("2t^2t") == [Fraction(0)] * 3 + [Fraction(2)]

    @pytest.mark.parametrize("text", ["x", "1/t", "t^(1/2)", "t^1000001", "(t^2)^501",
                                      "__import__('os').getpid()", "t2", "tt", "2(t)", "t(t)"])
    def test_poly_rejected(self, capsys, text):
        assert run(["reconstruct", "--poly", text]) == 1
        assert capsys.readouterr().err.startswith("error: not a polynomial in t")

    # importing hausmom.cli imports hausmom first, so one interpreter checks both
    def test_import_leaves_sympy_out(self):
        # nor does it compile the frozen bump-derivative table, about 5 ms from source
        _run_fresh("import hausmom.cli\n" + _loaded_none_of("scipy", "sympy")
                   + "assert 'hausmom._bump_derivatives' not in sys.modules\n")

    def test_counterexample_leaves_sympy_and_mpmath_out(self):
        # the bump derivatives are a frozen table of numpy expressions
        golden = (BENCH / "golden" / "cli" / "counterexample-mu-0.25.out").read_text()
        out = _run_fresh("from hausmom.cli import run\nassert run(['counterexample', '--mu', '0.25']) == 0\n"
                         + _loaded_none_of("sympy", "mpmath"))
        assert out == golden

    def test_import_leaves_mpmath_out(self):
        _run_fresh("import hausmom.cli\n" + _loaded_none_of("mpmath"))

    def test_cli_leaves_dataclasses_inspect_json_and_ast_out(self):
        # the records are __slots__ classes; json loads for --format json and --out, ast for reconstruct
        unloaded = _loaded_none_of("dataclasses", "inspect", "json", "ast")
        calls = [["hilbert"], ["linv"], ["hausdorff"], ["growth", "--n-max", "4"], ["pointvalue"]]
        _run_fresh("from hausmom.cli import run\n" + unloaded
                   + "".join(f"assert run({argv!r}) == 0\n" + unloaded for argv in calls))

    def test_exact_commands_leave_scipy_out(self):
        calls = [["hilbert"], ["linv"], ["reconstruct", "--poly", "3t^2-1"], ["hausdorff"], ["pointvalue"],
                 ["growth", "--n-max", "4"]]
        _run_fresh(f"from hausmom.cli import run\nassert all(run(argv) == 0 for argv in {calls!r})\n"
                   + _loaded_none_of("scipy"))

    def test_cli_import_leaves_numpy_unexecuted(self):
        layers = {f"hausmom.{layer}" for layer in
                  ("exact_core", "functions", "legendre", "moment_ops", "range_diagnostics", "stability_lab")}
        _run_fresh(f"import sys, hausmom.cli\nassert {layers!r} <= set(sys.modules)\n"
                   f"assert not {_NUMPY_RAN}\n")

    @pytest.mark.parametrize("name,argv", CLI_CALLS, ids=[name for name, _ in CLI_CALLS])
    def test_numpy_census(self, name, argv):
        # each benchmarked call in a fresh process: whether numpy's import ran is pinned per call
        ran = name not in NUMPY_FREE_CALLS
        _run_fresh(f"import sys\nfrom hausmom.cli import run\nassert run({list(argv)!r}) == 0\n"
                   f"assert {_NUMPY_RAN} is {ran}, 'numpy ran: {not ran}'\n")

    def test_point_value_estimator_leaves_numpy_unexecuted(self):
        _run_fresh("import sys\nfrom fractions import Fraction\nfrom hausmom import MomentSequence, point_value_estimator\n"
                   "assert point_value_estimator(MomentSequence([1.0, Fraction(1, 2), 1 / 3]), 3) == 1.0\n"
                   f"assert not {_NUMPY_RAN}\n")

    def test_stability_bound_leaves_scipy_out_and_numpy_unexecuted(self):
        # lambert_w is Newton's iteration on exact_core's int logarithm, so the balanced
        # truncation level needs neither scipy nor numpy
        _run_fresh("import sys\nfrom hausmom import stability_bound\n"
                   "assert stability_bound(1e-6, 1, 1).N_star > 0\n"
                   f"assert not {_NUMPY_RAN}\n" + _loaded_none_of("scipy"))

    def test_bump_loads_no_unused_numpy_submodule(self):
        # the frozen bump table binds numpy's exp only; `from numpy import *` would load these two
        # and about 50 more numpy submodules the bump never calls
        _run_fresh("import sys, hausmom\nassert hausmom.bump_family(1, 1).m == 1\n"
                   "assert not {'numpy.f2py', 'numpy.testing'} & set(sys.modules)\n")
        # with no numpy run yet, the table binding the lazy numpy's exp runs its import
        _run_fresh("import math, sys\nfrom hausmom.stability_lab import _mother_bump_derivative\n"
                   f"assert not {_NUMPY_RAN}\n"
                   "g = _mother_bump_derivative(2)(0.5)\n"
                   "assert math.isclose(g, -32 * math.exp(-4), rel_tol=1e-14), g\n")

    def test_layers_bind_an_already_imported_numpy(self):
        _run_fresh("import sys, types, numpy\nimport hausmom.legendre\n"
                   "assert hausmom.legendre.np is sys.modules['numpy'] is numpy\n"
                   "assert type(numpy) is types.ModuleType\n")

    def test_float_commands_leave_mpmath_out(self):
        calls = [["hilbert"], ["linv"], ["reconstruct", "--poly", "3t^2-1"], ["hausdorff"], ["amplification"],
                 ["pointvalue"], ["laplace"], ["eit"]]
        _run_fresh(f"from hausmom.cli import run\nassert all(run(argv) == 0 for argv in {calls!r})\n"
                   + _loaded_none_of("mpmath"))

    def test_spectral_norm_runs_with_mpmath_blocked(self):
        # spectral_norm's value is its int pair m 2^e as an exact Fraction, so with mpmath
        # unimportable, as on an install without it, it keeps the 256-bit value it had as an mpf
        out = _run_fresh("import sys\nsys.modules['mpmath'] = None\n"
                         "from hausmom import hilbert_matrix, spectral_norm\n"
                         "lam = spectral_norm(hilbert_matrix(3))\nprint(type(lam).__name__, lam)\n")
        m = 40768047721025885696093513402814353870527745791907829623165642490415255015271
        assert out.split() == ["Fraction", str(Fraction(m, 2 ** 254))]

    def test_failed_iteration_raises_with_mpmath_blocked(self):
        # a power iteration that does not converge raises SpectralNormError with its last
        # estimate, an exact Fraction, and growth turns that into exit code 2: with mpmath blocked
        # the estimate once raised ModuleNotFoundError, which cli.run does not catch
        out = _run_fresh("import sys\nsys.modules['mpmath'] = None\n"
                         "from hausmom import exact_core\nfrom hausmom.cli import run\n"
                         "try:\n    exact_core._signed_iteration(((1000, 0), (0, 999)), 1, 256)\n"
                         "except exact_core.SpectralNormError as exc:\n"
                         "    assert 999 < exc.last_estimate < 1000 and exc.iterations == 1000, exc.last_estimate\n"
                         "else:\n    raise AssertionError('converged')\n"
                         "exact_core._MAX_ITER = 1\nsys.stderr = sys.stdout\n"
                         "assert run(['growth', '--n-max', '3']) == 2\n")
        assert out == "numeric failure: power iteration did not converge to tol=1e-20 in 1 iterations\n"

    def test_growth_runs_with_mpmath_blocked(self):
        # with mpmath unimportable, as on an install without it, growth prints its golden
        golden = (BENCH / "golden" / "cli" / "growth.out").read_text()
        out = _run_fresh("import sys\nsys.modules['mpmath'] = None\nfrom hausmom.cli import run\n"
                         "assert run(['growth']) == 0\n")
        assert out == golden

    def test_only_quadrature_loads_scipy(self):
        _run_fresh("import math, sys\nfrom hausmom import forward_moments, peak, polynomial\n"
                   "forward_moments(polynomial((1, 2)), 4)\n"
                   "assert 'scipy' not in sys.modules\ny = forward_moments(peak(), 4)\n"
                   "assert 'scipy' in sys.modules and len(y.values) == 4 and all(map(math.isfinite, y.values))\n")

    def test_quadrature_commands_leave_scipy_integrate_out(self):
        # QUADPACK's extension is loaded alone: scipy.integrate's __init__, with scipy.special,
        # scipy.optimize and scipy.sparse.linalg behind it, never runs
        for argv in (["amplification"], ["laplace"], ["eit"]):
            _run_fresh(f"import sys\nfrom hausmom.cli import run\nassert run({argv!r}) == 0\n"
                       "assert 'scipy.integrate._quadpack' in sys.modules\n"
                       "assert not {'scipy.integrate', 'scipy.special', 'scipy.optimize'} & set(sys.modules)\n")

    def test_quadpack_loader_in_either_import_order(self):
        # loader first: a later scipy.integrate reuses its module, and quad gives the same bits
        moments = ("from hausmom import forward_moments, peak\n"
                   "y = [v.hex() for v in forward_moments(peak(), 12).values]\n")
        _run_fresh("import sys\n" + moments + "import scipy.integrate\n"
                   "from hausmom._lazy import quadpack\n"
                   "assert sys.modules['scipy.integrate._quadpack_py']._quadpack is quadpack()\n"
                   "f = peak()\n"
                   "q = [scipy.integrate.quad(lambda t: float(f(t)) * t ** k, 0.0, 1.0, epsabs=1e-12,\n"
                   "                          epsrel=1e-12, limit=200)[0].hex() for k in range(12)]\n"
                   "assert q == y, (q, y)\n")
        # scipy.integrate first: the loader returns the module that import loaded
        _run_fresh("import sys, scipy.integrate\nfrom hausmom._lazy import quadpack\n"
                   "module = sys.modules['scipy.integrate._quadpack']\n"
                   "assert quadpack() is module is scipy.integrate._quadpack\n" + moments)


class TestCommands:
    def test_hilbert_csv(self, capsys):
        code, out = _capture(capsys, ["hilbert", "--n", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,exact,value"
        assert len(lines) == 5

    def test_reconstruct_exact(self, capsys):
        code, out = _capture(capsys, ["reconstruct", "--poly", "3t^2-1", "--n", "5"])
        assert code == 0
        err = float(out.strip().split("\n")[1].split(",")[2])
        assert err < 1e-9

    def test_reconstruct_rejects_low_n(self, capsys):
        code, _ = _capture(capsys, ["reconstruct", "--poly", "t^4", "--n", "3"])
        assert code == 1

    def test_growth_shape(self, capsys):
        code, out = _capture(capsys, ["growth", "--n-max", "5"])
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_growth_precision_bits(self, capsys):
        code, out = _capture(capsys, ["growth", "--n-max", "3", "--precision-bits", "64"])
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_growth_precision_floor(self, capsys):
        assert run(["growth", "--n-max", "6", "--precision-bits", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be >= 64 bits\n"

    def test_seed_reaches_amplification(self, capsys):
        argv = ["amplification", "--n-min", "2", "--n-max", "2", "--deltas", "1e-2..1e-4", "--R", "3"]
        runs = [_capture(capsys, argv + ["--seed", seed]) for seed in ("1", "1", "2")]
        assert [code for code, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1] != runs[2][1]

    @pytest.mark.parametrize("argv", [["hilbert", "--seed", "1"], ["amplification", "--precision-bits", "64"]])
    def test_option_of_another_command_refused(self, capsys, argv):
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["growth", "--help"]]
                             + [[name, "--help"] for name in _COMMANDS if name != "growth"])
    def test_help_exits_zero(self, capsys, argv):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: hausmom")
        if argv[0] != "--help":  # every command lists the shared options
            assert all(f"  {flag} " in out for flag in ("--out", "--format", "--config", "--plotdata"))

    @pytest.mark.parametrize("argv", [
        ["hausdorff", "--n-max", "0"],
        ["amplification", "--n-min", "5", "--n-max", "2"],
        ["eit", "--modes", "0"],
        ["laplace", "--j-max", "0"],
    ])
    def test_empty_table_is_a_usage_error(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["pointvalue", "--deltas", "-0.1"], "deltas must be finite and >= 0"),
        (["pointvalue", "--deltas", "nan"], "deltas must be finite and >= 0"),
        (["pointvalue", "--max-level-exp", "-1"], "max_level_exp must be >= 0"),
        (["pointvalue", "--deltas", "1e-2..0"], "two finite positive ends"),
        (["laplace", "--tol", "0"], "tol must be finite and positive"),
        (["laplace", "--tol", "-1"], "tol must be finite and positive"),
        (["laplace", "--tol", "nan"], "tol must be finite and positive"),
        (["amplification", "--deltas", "nan", "--n-max", "2"], "deltas must be finite and positive"),
        (["counterexample", "--C", "nan"], "C must be finite and positive"),
        (["counterexample", "--C", "inf"], "C must be finite and positive"),
        (["pointvalue", "--max-level-exp", "25"], "max_level_exp must be <= 24"),
        (["growth", "--n-max", "403"], "n_max must be <= 402"),
    ])
    def test_bad_levels_and_tolerances_refused(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    def test_counterexample_beyond_symbolic_limit_fails_fast(self, capsys, monkeypatch):
        # mu = 0.1 needs m = 19, so derivative orders 19 and 20; counting m
        # up from 1 took seconds at mu = 1e-7 and did not end at mu = 1e-12
        import hausmom.stability_lab as lab

        monkeypatch.setattr(lab, "_mother_bump_derivative", lambda order: pytest.fail("a bump derivative was built"))
        for mu, message in (("0.1", "order m + k = 20 exceeds"),
                            ("1e-12", "order m + k = 2000000000000 exceeds"),
                            ("5e-324", "needs a bump order m beyond any limit")):
            start = time.perf_counter()
            assert run(["counterexample", "--mu", mu]) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("numeric failure:") and message in captured.err

    @pytest.mark.parametrize("module", ["hausmom", "hausmom.cli"])
    def test_python_dash_m(self, capsys, module):
        _, expected = _capture(capsys, ["hilbert"])
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", module, "hilbert"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_json_round_trip(self, capsys):
        code, out = _capture(capsys, ["eit", "--modes", "3", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert [r["mode"] for r in records] == [1, 2, 3]
        assert all(abs(r["value"] - 0.5) < 1e-12 for r in records)

    def test_determinism(self, capsys):
        _, a = _capture(capsys, ["amplification", "--n-min", "2", "--n-max", "2",
                                 "--deltas", "1e-2..1e-4", "--R", "3"])
        _, b = _capture(capsys, ["amplification", "--n-min", "2", "--n-max", "2",
                                 "--deltas", "1e-2..1e-4", "--R", "3"])
        assert a == b


    @pytest.mark.parametrize("argv, config, code, stream, text", [
        (["reconstruct", "--poly", "t^600*t^600"], None, 1, "err", "error: not a polynomial in t"),
        (["hausdorff", "--data", "t", "--n-max", "3"], None, 0, "out",
         "3,0.29999999999999999,3/10,0.33333333333333331\n"),
        (["hausdorff", "--data", "unit", "--n-max", "3"], None, 0, "out", "3,4,4,16\n"),
        # exp(1.763 i) passes 1e15 at i = 20, so JSON carries that bound as a string
        (["growth", "--format", "json"], None, 0, "out", '"bound": "2056948564161933.5"'),
        (["hilbert"], "# n=4\n\n  n = 2  \n", 0, "out",
         "i,j,exact,value\n1,1,1,1\n1,2,1/2,0.5\n2,1,1/2,0.5\n2,2,1/3,0.33333333333333331\n"),
        (["hilbert"], "n=2\nn 2\n", 1, "err", "error: malformed config line: 'n 2'\n"),
    ], ids=["product-past-degree-cap", "hausdorff-data-t", "hausdorff-data-unit", "json-big-float",
            "config-comment-and-blank", "config-malformed"])
    def test_edge_branches(self, tmp_path, capsys, argv, config, code, stream, text):
        if config is not None:
            cfg = tmp_path / "cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert run(argv) == code
        assert text in getattr(capsys.readouterr(), stream)


class TestOutput:
    def test_out_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = run(["hilbert", "--n", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("i,j,exact,value\n")
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        assert meta["command"] == "hilbert"
        assert "wall_time_s" in meta

    def test_plotdata_series(self, tmp_path, capsys):
        code = run(["growth", "--n-max", "3", "--out", str(tmp_path / "g.csv"),
                    "--plotdata", str(tmp_path)])
        assert code == 0
        for name in ("growth_bound", "growth_norm", "growth_row_max", "growth_diag"):
            lines = (tmp_path / f"{name}.dat").read_text().strip().split("\n")
            assert len(lines) == 3
            assert len(lines[0].split()) == 2

    @pytest.mark.parametrize("argv, stdout", [
        (["hilbert", "--n", "2", "--out", "{tmp}/missing/h.csv"], ""),
        # the table is written before the plot data, whose directory is a file here
        (["growth", "--n-max", "2", "--plotdata", "{tmp}/file"], "i,norm,"),
    ], ids=["out-in-missing-directory", "plotdata-is-a-file"])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, argv, stdout):
        (tmp_path / "file").write_text("")
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(stdout)
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_emit_plotdata_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plotdata([], [("s", "x", "y")], tmp_path)


class TestConfigFile:
    def test_config_fills_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n=2\n")
        code, out = _capture(capsys, ["hilbert", "--config", str(cfg)])
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n=7\n")
        code, out = _capture(capsys, ["hilbert", "--n", "2", "--config", str(cfg)])
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_unknown_key_is_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus=1\n")
        code, _ = _capture(capsys, ["hilbert", "--config", str(cfg)])
        assert code == 1

    def test_option_of_another_command_is_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=1\n")
        assert run(["growth", "--n-max", "2", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config key 'seed'\n"

    @pytest.mark.parametrize("line", ["format=xml", "sigma=bogus"])
    def test_config_value_outside_choices(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        code, out = _capture(capsys, ["eit", "--config", str(cfg)])
        assert code == 1
        assert out == ""

    def test_abbreviated_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n_max=3\n")
        code, out = _capture(capsys, ["growth", "--n-m", "2", "--config", str(cfg)])
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        import hausmom.cli as cli

        def boom(args):
            raise RuntimeError("synthetic numeric failure")

        monkeypatch.setitem(cli._COMMANDS, "growth", boom)
        code, _ = _capture(capsys, ["growth", "--n-max", "3"])
        assert code == 2


class TestGoldenGate:
    """Every benchmarked CLI call prints exactly its golden stdout."""

    @pytest.mark.parametrize("name,argv", CLI_CALLS, ids=[name for name, _ in CLI_CALLS])
    def test_stdout_matches_golden(self, capsys, name, argv):
        code, out = _capture(capsys, list(argv))
        assert code == 0
        assert out.encode() == (BENCH / "golden" / "cli" / f"{name}.out").read_bytes()


class TestBenchHooks:
    """The names bench/spans.py traces and BENCHMARK.json counts stay in the package.

    A rename would stop tracing a name or read its count as zero, and no
    traced run fails on that; but a function with a time or distinct-argument
    metric that a workload never calls fails that workload's traced run.
    """

    def test_every_layer_is_a_module(self):
        for layer in TRACED_LAYERS:
            importlib.import_module(f"hausmom.{layer}")

    @pytest.mark.parametrize("layer, path", TRACED_METHODS)
    def test_traced_method_exists(self, layer, path):
        cls_name, meth = path.split(".")
        assert inspect.isfunction(getattr(getattr(importlib.import_module(f"hausmom.{layer}"), cls_name), meth))

    @pytest.mark.parametrize("layer, name", COUNTED_FUNCTIONS)
    def test_counted_function_is_public_in_its_layer(self, layer, name):
        # spans.instrument wraps a name only in the module that defines it
        obj = getattr(importlib.import_module(f"hausmom.{layer}"), name)
        assert not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == f"hausmom.{layer}"

    def test_counters_are_found(self):
        assert len(COUNTED_FUNCTIONS) >= 10 and TRACED_METHODS and TIMED_FUNCTIONS

    @pytest.mark.parametrize("layer, name", TIMED_FUNCTIONS)
    def test_timed_function_is_called_by_each_workload(self, monkeypatch, layer, name):
        import hausmom as hm

        fn = getattr(importlib.import_module(f"hausmom.{layer}"), name)
        calls = []
        # rebound wherever a loaded hausmom module holds it, as spans.instrument does
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "hausmom":
                for attr in [attr for attr, obj in vars(mod).items() if obj is fn]:
                    monkeypatch.setattr(mod, attr, lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs))
        hm.linv_growth_study(_bench_constant("child.py", "GROWTH_N_MAX"), _bench_constant("child.py", "GROWTH_BITS"))
        assert calls, "not called by a growth round"
        quad = hm.forward_moments(hm.peak(), 12)
        data = {"exact": hm.exact_polynomial_moments((1, Fraction(-2, 3), 5), 12), "quadrature": quad,
                "noisy": hm.noisy_data(quad, hm.NoiseModel(1e-8, seed=1))}
        for kind, y in data.items():
            calls.clear()
            hm.hausdorff_criterion(y, y.n - 1)
            hm.pseudoinverse(y)
            assert calls, f"not called by a moment_data op on {kind} data"
