"""Restrict-based classical and hybrid descent on assignment tuples, kept as a test reference.

This is the descent as written before the packed trail.  The root
restricts the formula by the variables the instance holds, every
candidate branch allocates `restrict(f, binding)` and scores it with
`unsat_count`, and each level lifts and verifies its child's model.
The repair flip and the greedy disjoint set are its own, clause by
clause on tuples; the only production code it shares is the quantum
leaf, which it enters as a descent node does: with its node's packed
center, every variable free and the falsified clauses of its
restricted formula, at the node's radius.
The production `kqcpbs` and `kpbs_hybrid` must make the same choices in
the same order, so models, branch counts and quantum attempts agree.
"""

from dataclasses import replace

from ballsat.formula import (
    CONFLICT,
    evaluate,
    pack,
    restrict,
    unpack,
    unsat_count,
)
from ballsat.pbs import quantum_kpbs


def held_root(inst):
    """(formula restricted by the variables inst.fixed holds, tuple center) of an instance."""
    n = inst.formula.num_vars
    center = unpack(inst.center, n)
    binding = {v: center[v - 1] for v in range(1, n + 1) if inst.fixed >> (v - 1) & 1}
    return restrict(inst.formula, binding), center


def satisfied(clause, center):
    return any(center[abs(lit) - 1] == (lit > 0) for lit in clause)


def ref_disjoint(f, center):
    """Greedy maximal set of variable-disjoint falsified clauses (indices), first clause in."""
    used, picked = set(), []
    for idx, clause in enumerate(f.clauses):
        cvars = {abs(lit) for lit in clause}
        if not satisfied(clause, center) and not cvars & used:
            used |= cvars
            picked.append(idx)
    return picked


def ref_repair(f, center, clause_indices, word):
    """Flip, in each listed clause, the variable its symbol picks, wrapping modulo width.

    The width counts each variable once, so a repeated literal is one choice.
    """
    bits = list(center)
    for idx, choice in zip(clause_indices, word):
        variables = list(dict.fromkeys(abs(lit) for lit in f.clauses[idx]))
        bits[variables[(choice - 1) % len(variables)] - 1] ^= 1
    return tuple(bits)


def lift_and_verify(f, model, binding):
    """Overwrite `model` with `binding` and return it only if it satisfies f."""
    if model is None:
        return None
    lifted = list(model)
    for var, bit in binding.items():
        lifted[var - 1] = bit
    candidate = tuple(lifted)
    return candidate if evaluate(f, candidate) else None


def _leaf(f, center, radius, inst, rt):
    """The production leaf entered with this node on the restricted formula, nothing held."""
    x, n = pack(center), f.num_vars
    got = quantum_kpbs(replace(inst, formula=f), rt, (x, (1 << n) - 1, f.read(x)), radius)
    return None if got is None else unpack(got, n)


def _packed(model):
    return None if model is None else pack(model)


def ref_kqcpbs(inst, rt):
    f, center = held_root(inst)
    return _packed(_ref_kq(f, center, inst.radius, inst, rt))


def _ref_kq(f, center, radius, inst, rt):
    if evaluate(f, center):
        return center
    if radius <= 0:
        return None
    if radius <= inst.r_max:
        return _leaf(f, center, radius, inst, rt)
    # more disjoint falsified clauses than flips left: the ball holds no model
    if len(ref_disjoint(f, center)) > radius:
        return None
    # the narrowest falsified clause, ties to the lowest index; a falsified
    # clause holds no literal and its negation, so its distinct literals are its variables
    falsified = [list(dict.fromkeys(c)) for c in f.clauses if not satisfied(c, center)]
    clause = min(falsified, key=len)
    bindings = (({abs(lit): 1 if lit > 0 else 0}, radius - 1) for lit in clause)
    return _ref_descend(f, center, inst, rt, bindings)


def _ref_descend(f, center, inst, rt, bindings):
    """Descend into (binding, radius) pairs, fewest falsified clauses first."""
    branches = []
    for binding, radius in bindings:
        sub = restrict(f, binding)
        if sub is not CONFLICT:
            branches.append((unsat_count(sub, center), binding, sub, radius))
    branches.sort(key=lambda b: b[0])
    for _, binding, sub, radius in branches:
        rt.branches += 1
        model = lift_and_verify(f, _ref_kq(sub, center, radius, inst, rt), binding)
        if model is not None:
            return model
    return None


def ref_kpbs_hybrid(inst, code, rt):
    f, center = held_root(inst)
    return _packed(_ref_hybrid(f, center, inst.radius, inst, code, rt))


def _ref_hybrid(f, center, radius, inst, code, rt):
    group = ref_disjoint(f, center)
    # a small group (also the empty one of a model) goes on without the code
    if radius <= inst.r_max or len(group) <= code.word_length:
        return _ref_kq(f, center, radius, inst, rt)
    # more disjoint falsified clauses than flips left: the ball holds no model
    if len(group) > radius:
        return None
    batch = group[: code.word_length]
    moves = []
    for ci, word in enumerate(code.codewords):
        moved = ref_repair(f, center, batch, word)
        moves.append((unsat_count(f, moved), ci, moved))
    moves.sort(key=lambda m: (m[0], m[1]))
    for _, _, moved in moves:
        rt.branches += 1
        got = _ref_hybrid(f, moved, radius - code.radius, inst, code, rt)
        if got is not None:
            return got
    return None
