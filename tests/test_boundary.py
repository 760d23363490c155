"""Property-based boundary suite: cli.run on generated DIMACS, flags and cover files.

Every input gets a solver-convention answer and never a traceback:
exit 10 with "s SATISFIABLE" and a model that satisfies the formula,
exit 20 with "s UNSATISFIABLE" (from the solver, also a failure bound
in [0, 1]), exit 0 with "s UNKNOWN", or exit 1 with the error on
stderr only.  For n <= 8, classical mode agrees with brute force.

Formulas stay at n <= 12, so no sweep cover past L = 12 is built, and
at width <= 6, so no repair code past (6, 6, 1).
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ballsat import Formula, ParseError, brute_sat, evaluate, parse_dimacs
from ballsat.cli import run
from ballsat.codes import build_binary_cover, build_kary_cover, write_cover

MAX_VARS = 12
MAX_WIDTH = 6

BOUNDARY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

pytestmark = pytest.mark.filterwarnings("ignore:header declares")

DIMACS_NOISE = [
    "0", "-0", "1", "-1", "7", "13", "-13", "99999999999999999999", "+1", "1.0", "x",
    "p", "cnf", "p cnf 3 1", "c", "%", "\n", " ", "\t", "\r\n", "\x00", "é",
]
COVER_NOISE = ["0", "1", "2", "3", "4", "9", "-1", "x", "cover", "cover 2 3 1 2", "\n", " "]

# flag values at the edges of each type, also ones the flag's type rejects
COUNTS = [
    "0", "-0", "1", "2", "3", "-1", "-5", str(2**70), str(-(2**70)), "nan", "inf", "1e-320", "",
]
REALS = [
    "nan", "inf", "-inf", "0", "-0", "1e-320", "1e308", str(2**70),
    "-1", "0.1", "0.3", "0.5", "0.9", "1", "2", "",
]
FLAG_VALUES = {
    "--k": COUNTS + [str(k) for k in range(MAX_VARS + 1)],
    "--epsilon": REALS,
    "--c": REALS,
    "--r-max": COUNTS,
    "--A": REALS,
    "--B": REALS,
    "--workers": COUNTS,
    "--retries": COUNTS,
    "--seed": COUNTS,
    "--mode": ["hybrid", "classical", "brute", "quantum"],
}
flags = st.lists(
    st.sampled_from(sorted(FLAG_VALUES)).flatmap(
        lambda flag: st.sampled_from(FLAG_VALUES[flag]).map(lambda v: f"{flag}={v}")
    ),
    max_size=4,
)


@st.composite
def edited(draw, text: str, noise: list[str]) -> str:
    """The text after up to three random token insertions or character deletions."""
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(noise)) + text[pos:]
        else:
            text = text[:pos] + text[pos + draw(st.integers(1, 4)) :]
    return text


@st.composite
def formulas(draw, max_vars: int, max_width: int) -> Formula:
    n = draw(st.integers(0, max_vars))
    if n == 0:
        return Formula(0, ())
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=max_width, unique_by=abs).map(tuple)
    clauses = draw(st.lists(clause, max_size=4 * n))
    if draw(st.booleans()):
        # every sign pattern over a few variables: an unsatisfiable core
        core = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_width, unique=True))
        signs = product((1, -1), repeat=len(core))
        clauses += [tuple(v * s for v, s in zip(core, pattern)) for pattern in signs]
    return Formula(n, tuple(draw(st.permutations(clauses))))


@st.composite
def dimacs_texts(draw, max_vars: int = MAX_VARS) -> str:
    """DIMACS from a token grammar (comments, split clauses, a '%' trailer), then edited."""
    f = draw(formulas(max_vars, 3))
    declared = len(f.clauses) + draw(st.sampled_from([0, 0, 1, -1]))
    parts = [f"p cnf {f.num_vars} {max(declared, 0)}\n"]
    for clause in f.clauses:
        parts += [f"{lit} " for lit in clause]
        parts.append("0" + draw(st.sampled_from(["\n", " ", "\n\n", "\nc note\n", "\n  "])))
    if draw(st.booleans()):
        parts.append("%\n0\n")
    return draw(edited("".join(parts), DIMACS_NOISE))


def _run(argv: list[str]) -> tuple[int, str, str]:
    """cli.run in-process; an exception escaping it fails the property."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _solve(text: str, argv: list[str], cache: dict[str, str] | None = None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.cnf")
        path.write_text(text, encoding="utf-8")
        for name, content in (cache or {}).items():
            Path(tmp, "cache").mkdir(exist_ok=True)
            Path(tmp, "cache", name).write_text(content, encoding="utf-8")
        if cache is not None:
            argv = [*argv, "--cover-cache", str(Path(tmp, "cache"))]
        return _run(["--input", str(path), *argv])


def _parsed(text: str) -> Formula | None:
    try:
        return parse_dimacs(text)
    except ParseError:
        return None


def _check_answer(code: int, out: str, err: str, f: Formula | None) -> None:
    """The solver conventions every exit must keep."""
    lines = out.splitlines()
    assert code in (0, 1, 10, 20), code
    assert "Traceback" not in err
    if code == 10:
        assert "s SATISFIABLE" in lines
        [vline] = [ln for ln in lines if ln.startswith("v ")]
        lits = [int(tok) for tok in vline.split()[1:]]
        assert lits[-1] == 0 and [abs(lit) for lit in lits[:-1]] == list(range(1, f.num_vars + 1))
        assert evaluate(f, tuple(int(lit > 0) for lit in lits[:-1]))
    elif code == 20:
        assert "s UNSATISFIABLE" in lines
        bound = re.search(r"failure-prob <= (\S+)", out)
        # the solver bounds its one-sided error; brute mode is exact and states none
        assert bound or out == "s UNSATISFIABLE\n"
        assert bound is None or 0.0 <= float(bound.group(1)) <= 1.0
    elif code == 0:
        assert "s UNKNOWN" in lines
    else:
        assert out == "" and err


@settings(BOUNDARY, max_examples=300)
@given(dimacs_texts(), flags)
def test_any_dimacs_and_flags_get_a_solver_answer(text, argv):
    f = _parsed(text)
    if f is not None:
        assume(f.num_vars <= MAX_VARS and f.max_width <= MAX_WIDTH)
    code, out, err = _solve(text, argv)
    _check_answer(code, out, err, f)
    if f is None:
        assert code == 1 and "error:" in err


@settings(BOUNDARY, max_examples=150)
@given(dimacs_texts(max_vars=8), st.data())
def test_classical_mode_agrees_with_brute(text, data):
    f = _parsed(text)
    assume(f is not None and f.num_vars <= 8 and f.max_width <= MAX_WIDTH)
    k = data.draw(st.integers(0, f.num_vars), label="k")
    seed = data.draw(st.sampled_from(["0", "1", "-5", str(2**70), str(-(2**70))]), label="seed")
    code, out, err = _solve(text, ["--mode", "classical", f"--k={k}", f"--seed={seed}"])
    _check_answer(code, out, err, f)
    assert code == (20 if brute_sat(f) is None else 10)
    assert code == 10 or "failure-prob <= 0\n" in out


@st.composite
def cover_files(draw, code) -> str:
    """Cover-file text for the code's shape: its file edited, other words, or any header."""
    alphabet, first = code.alphabet, code.first
    length, radius = code.word_length, code.radius
    word = st.lists(
        st.integers(first, first + alphabet - 1), min_size=length, max_size=length
    ).map(lambda w: "".join(map(str, w)))
    kind = draw(st.sampled_from(["edited", "random words", "code words and more", "any header"]))
    if kind == "edited":
        return draw(edited(write_cover(code), COVER_NOISE))
    if kind != "any header":
        words = draw(st.lists(word, max_size=20))
        if kind == "code words and more":
            # a cover still, in another order and with redundant words
            words = draw(st.permutations(write_cover(code).splitlines()[1:] + words))
        count = len(words) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        return "\n".join([f"cover {alphabet} {length} {radius} {count}", *words]) + "\n"
    header = draw(st.lists(st.integers(-1, 30), min_size=4, max_size=4))
    body = draw(st.lists(st.text("0123456789", max_size=12), max_size=6))
    return "\n".join(["cover " + " ".join(map(str, header)), *body]) + "\n"


@settings(BOUNDARY, max_examples=200)
@given(formulas(8, 3), st.data())
def test_any_cover_cache_file_gets_a_solver_answer(f, data):
    # 3-SAT at n <= 8: the sweep reads bin-L-rR.cover with R = L // 3, and
    # the hybrid descent reads the (3, 3, 1) repair code kary-3-t3-s1.cover
    k = data.draw(st.integers(0, f.num_vars), label="k")
    length = f.num_vars - k
    codes = {
        f"bin-{length}-r{length // 3}.cover": build_binary_cover(length, radius=length // 3),
        "kary-3-t3-s1.cover": build_kary_cover(3, 3, 1, seed=0),
    }
    # one file from outside; the solve builds and writes the other itself
    name = data.draw(st.sampled_from(sorted(codes)), label="file")
    cache = {name: data.draw(cover_files(codes[name]), label="text")}
    modes = [["--mode", "classical"], ["--r-max", "0"], ["--r-max", "1"]]
    mode = data.draw(st.sampled_from(modes), label="mode")
    code, out, err = _solve(f.to_dimacs(), [f"--k={k}", "--seed=3", *mode], cache)
    _check_answer(code, out, err, f)
    assert code != 1
    if "classical" in mode and code != 0:
        assert code == (20 if brute_sat(f) is None else 10)
