"""Restrict-based classical and hybrid descent, kept as a test reference.

This is the descent as written before the bind/unbind trail: every
candidate branch allocates `restrict(f, binding)`, scores it with
`unsat_count`, and each level lifts and verifies its child's model.
The production `kqcpbs` and `kpbs_hybrid` must make the same choices
in the same order, so models, branch counts and quantum attempts agree.
"""

from dataclasses import replace
from itertools import product

from ballsat.formula import (
    CONFLICT,
    evaluate,
    first_unsat_clause,
    max_disjoint_unsat,
    restrict,
    unsat_count,
)
from ballsat.pbs import modify_assignment, quantum_kpbs


def lift_and_verify(f, model, binding):
    """Overwrite `model` with `binding` and return it only if it satisfies f."""
    if model is None:
        return None
    lifted = list(model)
    for var, bit in binding.items():
        lifted[var - 1] = bit
    candidate = tuple(lifted)
    return candidate if evaluate(f, candidate) else None


def ref_kqcpbs(inst, rt):
    f, center = inst.formula, inst.center
    if evaluate(f, center):
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        return quantum_kpbs(replace(inst, radius=inst.r_max), rt)
    clause_idx = first_unsat_clause(f, center)
    bindings = (
        ({abs(lit): 1 if lit > 0 else 0}, inst.radius - 1) for lit in f.clauses[clause_idx]
    )
    return _ref_descend(inst, rt, bindings)


def _ref_descend(inst, rt, bindings):
    """Descend into (binding, radius) pairs, fewest falsified clauses first."""
    f, center = inst.formula, inst.center
    branches = []
    for binding, radius in bindings:
        sub = restrict(f, binding)
        if sub is not CONFLICT:
            branches.append((unsat_count(sub, center), binding, sub, radius))
    branches.sort(key=lambda b: b[0])
    for _, binding, sub, radius in branches:
        rt.branches += 1
        got = ref_kqcpbs(replace(inst, formula=sub, radius=radius), rt)
        model = lift_and_verify(f, got, binding)
        if model is not None:
            return model
    return None


def ref_kpbs_hybrid(inst, code, rt):
    f, center = inst.formula, inst.center
    if evaluate(f, center):
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        return quantum_kpbs(inst, rt)
    group = max_disjoint_unsat(f, center)
    if len(group) <= code.word_length:
        block_vars = sorted({abs(lit) for i in group for lit in f.clauses[i]})
        bindings = []
        for bits in product((0, 1), repeat=len(block_vars)):
            # a ball witness lies within radius - d of its block point elsewhere
            d = sum(bit != center[var - 1] for var, bit in zip(block_vars, bits))
            if d <= inst.radius:
                bindings.append((dict(zip(block_vars, bits)), inst.radius - d))
        return _ref_descend(inst, rt, bindings)
    batch = group[: code.word_length]
    moves = []
    for ci, word in enumerate(code.codewords):
        moved = modify_assignment(f, center, batch, word)
        moves.append((unsat_count(f, moved), ci, moved))
    moves.sort(key=lambda m: (m[0], m[1]))
    for _, _, moved in moves:
        rt.branches += 1
        moved_inst = replace(inst, center=moved, radius=inst.radius - code.radius)
        got = ref_kpbs_hybrid(moved_inst, code, rt)
        if got is not None:
            return got
    return None
