"""CNF formulas over a fixed 1-based variable index space.

DIMACS I/O, evaluation, restriction by partial assignment, occurrence
scoring, and prefix decomposition.  Variable indices never shift: a
restricted formula lives in the same index space as its parent.  The
solver reads packed assignments (x_v at bit v - 1) off `Formula.read`;
the clause-by-clause functions are the references it is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Callable, Iterator, Mapping

Clause = tuple[int, ...]      # ordered DIMACS literals, never 0
Assignment = tuple[int, ...]  # one bit per variable, index i -> x_{i+1}
PartialAssignment = Mapping[int, int]


class ParseError(ValueError):
    """DIMACS input rejected; message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Conflict:
    """Result of a restriction that empties a clause: no extension satisfies."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CONFLICT"


CONFLICT = _Conflict()


@dataclass(frozen=True)
class Formula:
    num_vars: int
    clauses: tuple[Clause, ...]

    @cached_property
    def max_width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    @cached_property
    def occurrences(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per variable (index 0 unused): clause indices of its positive and
        negative literals, one entry per occurrence, in clause order."""
        pos: list[list[int]] = [[] for _ in range(self.num_vars + 1)]
        neg: list[list[int]] = [[] for _ in range(self.num_vars + 1)]
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                (pos if lit > 0 else neg)[abs(lit)].append(idx)
        return tuple(zip(map(tuple, pos), map(tuple, neg)))

    @cached_property
    def sat_table(self) -> tuple[tuple[int, ...], ...]:
        """Row c, entry b: the clauses some literal of x_{8c+1}..x_{8c+8} satisfies
        when those variables take the bits of b, x_{8c+1} at bit 0."""
        n = self.num_vars
        holding = [0] * (2 * n + 1)   # holding[n + lit]: the clauses holding lit
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                holding[n + lit] |= 1 << idx
        rows = []
        for lo in range(1, n + 1, 8):
            row = [0]
            for v in range(lo, min(lo + 8, n + 1)):
                if0, if1 = holding[n - v], holding[n + v]
                row = [m | if0 for m in row] + [m | if1 for m in row]
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def read(self) -> Callable[[int], int]:
        """x -> mask of the clauses the packed assignment x falsifies, clause i at bit i.

        Built once per formula; unrolled up to 24 variables, where a missing
        row satisfies nothing."""
        rows, full = self.sat_table, (1 << len(self.clauses)) - 1
        if len(rows) > 3:
            chunks = tuple(enumerate(rows))
            return lambda x: full ^ reduce(int.__or__, (r[x >> 8 * c & 255] for c, r in chunks))
        r0, r1, r2 = (*rows, (0,), (0,), (0,))[:3]
        return lambda x: full ^ (r0[x & 255] | r1[x >> 8 & 255] | r2[x >> 16])

    @cached_property
    def flips(self) -> tuple[tuple[int, ...], ...]:
        """Per clause, the variable bit (x_v at bit v - 1) of each literal, in clause order."""
        return tuple(tuple(1 << abs(lit) - 1 for lit in clause) for clause in self.clauses)

    @cached_property
    def clause_vars(self) -> tuple[int, ...]:
        """Per clause, the mask of its variables."""
        return tuple(sum(set(bits)) for bits in self.flips)

    def __reduce__(self):
        # the caches (the reader is a closure) are rebuilt on the other side
        return Formula, (self.num_vars, self.clauses)

    def validate(self) -> None:
        """Check structural invariants; construction itself stays cheap."""
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause; use CONFLICT for the false formula")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for {self.num_vars} variables"
                    )

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, cl)) + " 0" for cl in self.clauses)
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF.

    Comment lines, blank lines, clauses spanning lines, and several
    clauses per line are all accepted.  Duplicate literals inside a
    clause are dropped (first occurrence kept); a clause holding both a
    literal and its negation is kept verbatim.  A clause-count mismatch
    against the header warns instead of failing.  A line holding only
    '%' ends the input, as in the SATLIB uf/uuf files; what follows it
    (their trailing '0') is ignored.
    """
    num_vars: int | None = None
    declared = 0
    clauses: list[Clause] = []
    current: list[int] = []
    seen: set[int] = set()
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped == "%":
            break
        last_line = line_no
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ParseError(line_no, "duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(line_no, f"malformed header {stripped!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(line_no, f"malformed header {stripped!r}") from None
            if num_vars < 0 or declared < 0:
                raise ParseError(line_no, "negative counts in header")
            continue
        if num_vars is None:
            raise ParseError(line_no, "clause data before 'p cnf' header")
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(line_no, f"bad token {tok!r}") from None
            if lit == 0:
                if not current:
                    raise ParseError(line_no, "empty clause")
                clauses.append(tuple(current))
                current.clear()
                seen.clear()
            else:
                if abs(lit) > num_vars:
                    raise ParseError(
                        line_no,
                        f"variable {abs(lit)} out of declared range {num_vars}",
                    )
                if lit not in seen:
                    seen.add(lit)
                    current.append(lit)
    if num_vars is None:
        raise ParseError(last_line or 1, "missing 'p cnf' header")
    if current:
        raise ParseError(last_line, "unterminated clause at end of input")
    if declared != len(clauses):
        warnings.warn(
            f"header declares {declared} clauses, found {len(clauses)}",
            stacklevel=2,
        )
    return Formula(num_vars, tuple(clauses))


def _clause_satisfied(clause: Clause, assignment: Assignment) -> bool:
    for lit in clause:
        if assignment[lit - 1] if lit > 0 else 1 - assignment[-lit - 1]:
            return True
    return False


def evaluate(f: Formula, assignment: Assignment) -> int:
    """1 if every clause holds under the total assignment, else 0."""
    if len(assignment) != f.num_vars:
        raise ValueError(f"assignment length {len(assignment)} != {f.num_vars}")
    for clause in f.clauses:
        if not _clause_satisfied(clause, assignment):
            return 0
    return 1


def unsat_count(f: Formula, assignment: Assignment) -> int:
    if len(assignment) != f.num_vars:
        raise ValueError(f"assignment length {len(assignment)} != {f.num_vars}")
    return sum(1 for clause in f.clauses if not _clause_satisfied(clause, assignment))


def first_unsat_clause(f: Formula, assignment: Assignment) -> int | None:
    """Index of the first clause the assignment falsifies, or None."""
    for idx, clause in enumerate(f.clauses):
        if not _clause_satisfied(clause, assignment):
            return idx
    return None


def pack(assignment: Assignment) -> int:
    """The assignment as an int, x_v at bit v - 1."""
    return sum(bit << i for i, bit in enumerate(assignment))


def unpack(x: int, num_vars: int) -> Assignment:
    return tuple([(x >> i) & 1 for i in range(num_vars)])


def restrict(f: Formula, binding: PartialAssignment) -> Formula | _Conflict:
    """Bind variables: satisfied clauses drop, falsified literals vanish.

    Returns CONFLICT if any clause loses all its literals.  The result
    keeps num_vars; bound variables simply no longer occur.
    """
    for var, bit in binding.items():
        if not 1 <= var <= f.num_vars:
            raise ValueError(f"variable {var} out of range")
        if bit not in (0, 1):
            raise ValueError(f"binding for {var} must be a bit, got {bit!r}")
    new_clauses: list[Clause] = []
    for clause in f.clauses:
        kept: list[int] = []
        satisfied = False
        for lit in clause:
            bit = binding.get(abs(lit))
            if bit is None:
                kept.append(lit)
            elif (bit == 1) == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not kept:
            return CONFLICT
        new_clauses.append(tuple(kept))
    return Formula(f.num_vars, tuple(new_clauses))


def m_metric(f: Formula, var: int) -> int:
    """Occurrences of the variable across all clauses, both polarities."""
    if not 1 <= var <= f.num_vars:
        raise ValueError(f"variable {var} out of range")
    pos, neg = f.occurrences[var]
    return len(pos) + len(neg)


def top_k_vars(f: Formula, k: int) -> list[int]:
    """The k most-occurring variables, ties broken by lowest index."""
    if not 0 <= k <= f.num_vars:
        raise ValueError(f"k={k} out of range for {f.num_vars} variables")
    order = sorted(range(1, f.num_vars + 1), key=lambda v: (-m_metric(f, v), v))
    return order[:k]


Prefix = tuple[int, ...]


def decompose(f: Formula, k: int) -> list[tuple[Prefix, Formula | _Conflict]]:
    """All 2^k restrictions onto the k most-occurring variables.

    Prefixes enumerate in lexicographic order; conflicting entries are
    kept so callers see the full partition.
    """
    kvars = top_k_vars(f, k)
    entries: list[tuple[Prefix, Formula | _Conflict]] = []
    for bits in product((0, 1), repeat=k):
        entries.append((bits, restrict(f, dict(zip(kvars, bits)))))
    return entries


def max_disjoint_unsat(f: Formula, unsat: int, fixed: int = 0) -> list[int]:
    """Greedy maximal set of variable-disjoint clauses among `unsat` (clause i at bit i).

    Lowest index first; each clause counts only its variables outside
    `fixed`, as restrict(f, binding of fixed) narrows it."""
    used, picked = 0, []
    while unsat:
        low = unsat & -unsat
        unsat ^= low
        idx = low.bit_length() - 1
        cvars = f.clause_vars[idx] & ~fixed
        if not cvars & used:
            used |= cvars
            picked.append(idx)
    return picked


def all_assignments(num_vars: int) -> Iterator[Assignment]:
    """Lexicographic enumeration of {0,1}^n (x1 is the most significant bit)."""
    return product((0, 1), repeat=num_vars)
