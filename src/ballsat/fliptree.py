"""Deterministic flip walks.

A word over {1..K} drives repair steps: each symbol picks a literal of
the first falsified clause (wrapping modulo clause width) and flips its
variable.  Once the formula is satisfied the remaining symbols are
no-ops, so every satisfying prefix stays satisfying.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .codes import check_space
from .formula import Assignment, Formula, first_unsat_clause

FlipSequence = tuple[int, ...]


@dataclass(frozen=True)
class FlipOutcome:
    flipped: frozenset[int]   # variables whose final value differs from center
    candidate: Assignment
    value: int                # 1 iff candidate satisfies the formula


def walk(f: Formula, center: Assignment, seq: FlipSequence) -> FlipOutcome:
    """Run the walk for one choice word and return its endpoint."""
    if len(center) != f.num_vars:
        raise ValueError("center length mismatch")
    bits = list(center)
    flipped: set[int] = set()
    satisfied = False
    for choice in seq:
        idx = first_unsat_clause(f, bits)
        if idx is None:
            satisfied = True
            break
        clause = f.clauses[idx]
        lit = clause[(choice - 1) % len(clause)]
        var = abs(lit)
        bits[var - 1] ^= 1
        if var in flipped:
            flipped.remove(var)
        else:
            flipped.add(var)
    if not satisfied:
        satisfied = first_unsat_clause(f, bits) is None
    return FlipOutcome(frozenset(flipped), tuple(bits), 1 if satisfied else 0)


def marked_mask(f: Formula, center: Assignment, radius: int, alphabet: int) -> np.ndarray:
    """Per-word walk success over {1..K}^radius, words in lexicographic order."""
    if radius < 0:
        raise ValueError("negative radius")
    if alphabet < 1:
        raise ValueError("alphabet too small")
    check_space(alphabet, radius)
    return np.fromiter(
        (
            walk(f, center, seq).value
            for seq in product(range(1, alphabet + 1), repeat=radius)
        ),
        dtype=bool,
        count=alphabet**radius,
    )


def marked_fraction(
    f: Formula, center: Assignment, radius: int, alphabet: int
) -> tuple[float, int]:
    """Fraction and count of length-`radius` words whose walk satisfies f."""
    mask = marked_mask(f, center, radius, alphabet)
    marked = int(mask.sum())
    return marked / mask.size, marked
