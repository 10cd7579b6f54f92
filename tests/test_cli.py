import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hausmom.cli import _parse_deltas, _parse_poly, emit_plotdata, run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _cli_calls():
    """The benchmark's CLI_CALLS, read from bench/child.py without importing it."""
    tree = ast.parse((BENCH / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_CALLS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("CLI_CALLS not found in bench/child.py")


CLI_CALLS = _cli_calls()


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_delta_range(self):
        assert _parse_deltas("1e-2..1e-5") == [1e-2, 1e-3, 1e-4, 1e-5]

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

    @pytest.mark.parametrize("text", ["x", "1/t", "t^(1/2)", "t^1000001", "(t^2)^501",
                                      "__import__('os').getpid()"])
    def test_poly_rejected(self, capsys, text):
        assert run(["reconstruct", "--poly", text]) == 1
        assert capsys.readouterr().err.startswith("error: not a polynomial in t")

    def test_import_leaves_sympy_out(self):
        code = "import hausmom.cli, sys; assert 'sympy' not in sys.modules"
        src = str(Path(__file__).resolve().parents[1] / "src")
        assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


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
