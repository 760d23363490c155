import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ballsat
from ballsat import evaluate, parse_dimacs
from ballsat.cli import run

from helpers import planted_ksat

SAT6 = "p cnf 6 4\n1 2 3 0\n-1 4 0\n-2 5 6 0\n-3 -6 0\n"

UNSAT3 = "p cnf 3 8\n" + "\n".join(
    f"{s1} {s2} {s3} 0"
    for s1 in (1, -1)
    for s2 in (2, -2)
    for s3 in (3, -3)
) + "\n"


@pytest.fixture
def sat_file(tmp_path):
    p = tmp_path / "sat6.cnf"
    p.write_text(SAT6)
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat3.cnf"
    p.write_text(UNSAT3)
    return str(p)


def model_from_stdout(out: str):
    for line in out.splitlines():
        if line.startswith("v "):
            lits = [int(tok) for tok in line[2:].split()]
            assert lits[-1] == 0
            return tuple(1 if lit > 0 else 0 for lit in lits[:-1])
    raise AssertionError(f"no v-line in {out!r}")


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs a /dev/full device"
)


class TestExitCodes:
    def test_sat(self, sat_file, capsys):
        code = run(["--input", sat_file, "--k", "2", "--r-max", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        model = model_from_stdout(out)
        assert evaluate(parse_dimacs(SAT6), model) == 1

    def test_unsat(self, unsat_file, capsys):
        code = run(["--input", unsat_file, "--k", "1", "--r-max", "1", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 20
        assert "s UNSATISFIABLE" in out
        assert "c one-sided: failure-prob <=" in out

    def test_default_radius_cap_at_k_one_bounds_nothing(self, unsat_file, tmp_path, capsys):
        # the default --c 0.3 gives r_max 0 over two free variables: no leaf runs
        stats = tmp_path / "calls.jsonl"
        assert run(["--input", unsat_file, "--k", "1", "--stats", str(stats)]) == 20
        assert "c one-sided: failure-prob <= 0\n" in capsys.readouterr().out
        assert stats.read_text() == ""

    def test_failure_bound_capped_at_one(self, unsat_file, capsys):
        argv = ["--input", unsat_file, "--k", "1", "--r-max", "1", "--seed", "7"]
        assert run(argv + ["--epsilon", "0.9", "--retries", "1"]) == 20
        assert "c one-sided: failure-prob <= 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--B", "2000"], ["--A", "1e-300"], ["--mode", "classical", "--B", "2000"]],
        ids=["large-B", "tiny-A", "classical-large-B"],
    )
    def test_resource_constants_with_large_b_over_a(self, unsat_file, flags, capsys):
        # B/A past 1/ln 2 puts the resource curve's peak at or past gamma = 1
        assert run(["--input", unsat_file, "--k", "1", *flags]) == 20
        out, err = capsys.readouterr()
        assert "s UNSATISFIABLE" in out and "Traceback" not in err

    def test_classical_mode_ignores_resource_constants(self, tmp_path, capsys):
        # classical mode never reads the resource model, so an unreachable c cannot fail it
        p = tmp_path / "one.cnf"
        p.write_text("p cnf 3 1\n1 2 3 0\n")
        flags = ["--mode", "classical", "--A", "0.1", "--B", "0.1", "--c", "0.9"]
        assert run(["--input", str(p), *flags]) == 10
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_unknown_on_config_failure(self, sat_file, capsys):
        # k wider than the variable count cannot be decomposed
        code = run(["--input", sat_file, "--r-max", "1", "--k", "99"])
        assert code == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    @pytest.mark.parametrize("oversize", ["free-vars", "width-8"])
    def test_unknown_on_oversize_input(self, oversize, tmp_path, capsys):
        if oversize == "free-vars":
            f, _ = planted_ksat(25, 100, 3, random.Random(0))
            lines = [" ".join(map(str, c)) + " 0" for c in f.clauses]
            text = f"p cnf 25 {len(lines)}\n" + "\n".join(lines) + "\n"
        else:
            text = "p cnf 10 2\n1 2 3 4 5 6 7 8 0\n-3 -4 -5 -6 -7 -8 -9 -10 0\n"
        p = tmp_path / "big.cnf"
        p.write_text(text)
        assert run(["--input", str(p)]) == 0
        out, err = capsys.readouterr()
        assert "s UNKNOWN" in out
        assert "too large" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--A", "nan"), ("--B", "nan"), ("--A", "inf")])
    def test_unknown_on_non_finite_resource_constant(self, sat_file, flag, value, capsys):
        assert run(["--input", sat_file, flag, value]) == 0
        out, err = capsys.readouterr()
        assert out == "s UNKNOWN\n"
        assert "must be finite" in err

    @pytest.mark.parametrize("epsilon,code,out_tail,err_part", [
        # 2 / 5e-324 overflows: no amplified call has a schedule
        pytest.param("5e-324", 0, "s UNKNOWN\n", "too small", id="5e-324"),
        # eps^(2R) underflows, but the bound per failed group is floored above 0
        pytest.param("1e-300", 20, "s UNSATISFIABLE\n", "", id="1e-300"),
    ])
    def test_unknown_on_epsilon_whose_bound_underflows(
        self, unsat_file, epsilon, code, out_tail, err_part, capsys
    ):
        argv = ["--input", unsat_file, "--k", "1", "--r-max", "1", "--epsilon", epsilon]
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert out.endswith(out_tail) and "failure-prob <= 0\n" not in out
        assert err_part in err and "Traceback" not in err

    def test_unknown_on_retries_above_cap(self, unsat_file):
        # in a child process, so that a solver that takes the 10^8 retries times out
        src = str(Path(ballsat.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ballsat", "--input", unsat_file,
             "--k", "1", "--r-max", "1", "--retries", "100000000"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert proc.stdout == "s UNKNOWN\n"
        assert "above the cap" in proc.stderr

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_input(self, source, tmp_path, monkeypatch, capsys):
        data = b"p cnf 2 1\n1 \xff 0\n"
        path = tmp_path / "latin1.cnf"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["--input", str(path) if source == "file" else "-"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read ") and "utf-8" in err

    def test_unwritable_stats_fails_before_solving(self, sat_file, tmp_path, capsys):
        stats = tmp_path / "missing" / "calls.jsonl"
        assert run(["--input", sat_file, "--r-max", "2", "--stats", str(stats)]) == 1
        out, err = capsys.readouterr()
        assert f"error: cannot write {stats}" in err
        assert out == ""

    @needs_dev_full
    def test_failed_stats_write_is_an_error(self, unsat_file, capsys):
        # the file opens; the records do not fit when they are written
        argv = ["--input", unsat_file, "--k", "1", "--r-max", "1", "--stats", "/dev/full"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write /dev/full: ") and "Traceback" not in err
        assert out == ""

    @needs_dev_full
    def test_failed_stdout_write_is_an_error(self, unsat_file):
        src = str(Path(ballsat.__file__).resolve().parents[1])
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ballsat", "--input", unsat_file, "--r-max", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write standard output: "), proc.stderr
        assert proc.stderr.count("\n") == 1  # no traceback, no message from the exit flush

    def test_bad_flags(self, sat_file, capsys):
        assert run(["--input", sat_file, "--mode", "nonsense"]) == 1

    def test_conflicting_caps(self, sat_file):
        assert run(["--input", sat_file, "--c", "0.3", "--r-max", "2"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "--input" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run(["--input", "/nonexistent/x.cnf"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_satlib_trailer(self, tmp_path, capsys):
        p = tmp_path / "uf.cnf"
        p.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
        assert run(["--input", str(p), "--k", "1", "--r-max", "1"]) == 10
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_parse_error_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 2 1\n1 bogus 0\n")
        assert run(["--input", str(p)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    def test_clause_count_mismatch_is_a_comment(self, flags):
        # in a child process, so that the interpreter's own warning filters apply
        src = str(Path(ballsat.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ballsat", "--mode", "classical"],
            input="p cnf 2 3\n1 0\n-2 0\n", capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 10
        # the comment alone: no UserWarning line, no source path or source line
        assert proc.stderr == "c warning: header declares 3 clauses, found 2\n"


class TestInterrupt:
    """An interrupt before the answer is printed gives a solver answer, not a traceback."""

    @staticmethod
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    @pytest.mark.parametrize("where", ["parse_dimacs", "solve"])
    def test_interrupt_answers_unknown(self, where, unsat_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(f"ballsat.cli.{where}", self.interrupt)
        stats = tmp_path / "calls.jsonl"
        argv = ["--input", unsat_file, "--k", "1", "--r-max", "1", "--stats", str(stats)]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out == "s UNKNOWN\n"
        assert err == "c interrupted\n"
        # the stats file opens after parsing, before the solve, which leaves it empty
        assert (stats.read_text() == "") if where == "solve" else not stats.exists()

    def test_interrupt_in_brute_mode(self, unsat_file, monkeypatch, capsys):
        monkeypatch.setattr("ballsat.cli.brute_sat", self.interrupt)
        assert run(["--input", unsat_file, "--mode", "brute"]) == 0
        assert capsys.readouterr() == ("s UNKNOWN\n", "c interrupted\n")


class TestCoverCache:
    # SAT6 at k=3: a length-3, radius-1 sweep cover and a 3-ary repair code
    ARGV = ["--k", "3", "--r-max", "1", "--seed", "7"]

    def _run(self, sat_file, cache, capsys):
        code = run(["--input", sat_file, *self.ARGV, "--cover-cache", str(cache)])
        return code, *capsys.readouterr()

    def test_garbage_binary_cover_is_unknown(self, sat_file, tmp_path, capsys):
        (tmp_path / "bin-3-r1.cover").write_text("garbage\n")
        code, out, err = self._run(sat_file, tmp_path, capsys)
        assert code == 0 and "s UNKNOWN" in out
        assert "missing cover header" in err and "Traceback" not in err

    def test_misshapen_kary_cover_is_unknown(self, sat_file, tmp_path, capsys):
        assert self._run(sat_file, tmp_path, capsys)[0] == 10
        [kary] = tmp_path.glob("kary-3-*.cover")
        header, *body = kary.read_text().splitlines()
        assert header.startswith("cover 3 3 1 ")
        kary.write_text("\n".join([header.replace("cover 3 3 1 ", "cover 3 3 2 "), *body]))
        code, out, err = self._run(sat_file, tmp_path, capsys)
        assert code == 0 and "s UNKNOWN" in out
        assert "shape does not match" in err

    @pytest.mark.parametrize("header", ["cover 3 3 4 1", "cover 1 3 1 1"])
    def test_kary_cover_with_impossible_header_is_unknown(
        self, sat_file, tmp_path, header, capsys
    ):
        assert self._run(sat_file, tmp_path, capsys)[0] == 10
        [kary] = tmp_path.glob("kary-3-*.cover")
        kary.write_text(f"{header}\n111\n")
        code, out, err = self._run(sat_file, tmp_path, capsys)
        assert code == 0 and "s UNKNOWN" in out
        assert "outside" in err and "Traceback" not in err

    def test_warm_cache_with_no_free_variables(self, unsat_file, tmp_path, capsys):
        # k = n: the sweep cover has one codeword of length 0, a blank line
        argv = ["--input", unsat_file, "--k", "3", "--r-max", "1", "--cover-cache", str(tmp_path)]
        assert run(argv) == 20
        cold = capsys.readouterr()
        assert (tmp_path / "bin-0-r0.cover").read_text() == "cover 2 0 0 1\n\n"
        assert run(argv) == 20
        assert capsys.readouterr() == cold

    def test_cover_header_with_huge_space_is_unknown(self, sat_file, tmp_path):
        # in a child process, so that a reader that builds 3^(10^8) times out
        (tmp_path / "bin-3-r1.cover").write_text("cover 3 100000000 1 0\n")
        src = str(Path(ballsat.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ballsat", "--input", sat_file, *self.ARGV,
             "--cover-cache", str(tmp_path)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0 and proc.stdout == "s UNKNOWN\n"
        assert "too large" in proc.stderr and "Traceback" not in proc.stderr

    def test_cache_path_under_a_file_is_unknown(self, sat_file, capsys):
        code, out, err = self._run(sat_file, f"{sat_file}/sub", capsys)
        assert code == 0 and "s UNKNOWN" in out
        assert err.startswith("c ") and f"{sat_file}/sub" in err
        assert "Traceback" not in err


class TestModes:
    def test_brute(self, sat_file, capsys):
        code = run(["--input", sat_file, "--mode", "brute"])
        out = capsys.readouterr().out
        assert code == 10
        assert evaluate(parse_dimacs(SAT6), model_from_stdout(out)) == 1

    def test_brute_unsat(self, unsat_file, capsys):
        assert run(["--input", unsat_file, "--mode", "brute"]) == 20

    def test_brute_honours_stats(self, unsat_file, tmp_path, capsys):
        # no amplified call, so an empty file; an unwritable path fails like the other modes
        stats = tmp_path / "calls.jsonl"
        assert run(["--input", unsat_file, "--mode", "brute", "--stats", str(stats)]) == 20
        assert stats.read_text() == ""
        capsys.readouterr()
        missing = tmp_path / "missing" / "calls.jsonl"
        assert run(["--input", unsat_file, "--mode", "brute", "--stats", str(missing)]) == 1
        out, err = capsys.readouterr()
        assert f"error: cannot write {missing}" in err
        assert out == ""

    def test_brute_too_large(self, tmp_path, capsys):
        p = tmp_path / "big.cnf"
        p.write_text("p cnf 30 1\n1 2 3 0\n")
        assert run(["--input", str(p), "--mode", "brute"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["hybrid", "brute"])
    def test_empty_model_line(self, mode, tmp_path, capsys):
        p = tmp_path / "empty.cnf"
        p.write_text("p cnf 0 0\n")
        assert run(["--input", str(p), "--mode", mode]) == 10
        assert capsys.readouterr().out.splitlines() == ["s SATISFIABLE", "v 0"]

    def test_classical(self, sat_file, capsys):
        code = run(["--input", sat_file, "--mode", "classical", "--seed", "1"])
        assert code == 10

    def test_default_cap_is_resource_model(self, sat_file, capsys):
        # no --c and no --r-max: c defaults to 0.3
        code = run(["--input", sat_file, "--k", "1", "--seed", "7"])
        assert code == 10


class TestStats:
    def test_records_schema(self, unsat_file, tmp_path, capsys):
        stats = tmp_path / "calls.jsonl"
        run([
            "--input", unsat_file, "--k", "1", "--r-max", "1",
            "--seed", "7", "--stats", str(stats),
        ])
        lines = stats.read_text().splitlines()
        assert lines
        for ln in lines:
            rec = json.loads(ln)
            assert list(rec) == [
                "prefix", "codeword", "radius", "L", "queries", "outcome", "attempt",
            ]
            assert rec["outcome"] in ("sat", "false")
            assert rec["queries"] == rec["L"] - 1

    def test_no_wall_time_leak(self, unsat_file, tmp_path, capsys):
        stats = tmp_path / "calls.jsonl"
        run([
            "--input", unsat_file, "--k", "1", "--r-max", "1",
            "--seed", "7", "--stats", str(stats),
        ])
        out = capsys.readouterr().out
        blob = out + stats.read_text()
        assert "wall" not in blob and "time" not in blob


class TestStdin:
    def test_reads_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(SAT6.encode())))
        code = run(["--input", "-", "--k", "1", "--r-max", "2", "--seed", "3"])
        assert code == 10


class TestDeterminism:
    def test_same_seed_same_output(self, unsat_file, tmp_path, capsys):
        argv = [
            "--input", unsat_file, "--k", "1", "--r-max", "1",
            "--workers", "1", "--seed", "13",
        ]
        run(argv + ["--stats", str(tmp_path / "a.jsonl")])
        first = capsys.readouterr().out
        run(argv + ["--stats", str(tmp_path / "b.jsonl")])
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
