"""Top-level solve: decomposition, cover sweep, and dispatch.

The formula splits over the most-occurring variables into prefix
subproblems; each codeword of a binary covering code over the free
variables seeds a ball search.  codes.cover supplies that sweep cover,
built or read from the cover cache.  Each dispatch is an independent
subproblem whose messages carry only the parsed formula, packed
assignments and counts: a `PbsInstance` whose center holds the prefix
bits under its `fixed` mask goes in, and a `PbsRuntime` holding a seed
and a log comes back; no prefix formula is built.  Every dispatch
enters the descent `kqcpbs`, at r_max 0 in classical mode and at the
radius cap in hybrid mode, and only the descent hands a node to the
quantum leaf.  Dispatches run one at a time in a seeded order, the
permutation `stream` computes as numpy's Generator would, and the first
verified model ends the solve.
A FALSE answer is one-sided with an explicit failure-probability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import stream
from .codes import check_space, cover
from .formula import Assignment, Formula, evaluate, top_k_vars, unpack
from .fpsearch import make_schedule
from .pbs import PbsInstance, PbsRuntime, QuantumCallRecord, kqcpbs


# retries per quantum group; each retry walks one word and writes one record
MAX_RETRIES = 1000


class ConfigError(ValueError):
    """Unusable configuration; the CLI maps this to UNKNOWN."""


def exponent(alphabet: int, gamma: float) -> float:
    """Base-2 runtime exponent per variable for a given quantum-radius fraction."""
    if alphabet < 3:
        raise ValueError(f"alphabet {alphabet} below 3")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1)")
    k = alphabet
    return 1.0 + math.log2((k - 1) / k) - gamma * math.log2((k - 1) / math.sqrt(k))


@dataclass(frozen=True)
class ResourceModel:
    """Radius cap from a qubit budget: gamma solves A g log2(1/g) + B g = c."""

    A: float
    B: float
    c: float
    gamma: float

    def r_max(self, word_length: int) -> int:
        return math.floor(self.gamma * word_length)


def solve_resource(A: float, B: float, c: float) -> ResourceModel:
    """Smallest positive root of A g log2(1/g) + B g = c, increasing branch."""
    if not all(map(math.isfinite, (A, B, c))):
        raise ConfigError(f"resource constants must be finite: A={A}, B={B}, c={c}")
    if A <= 0 or B <= 0:
        raise ConfigError("resource constants must be positive")
    if not 0.0 < c < 1.0:
        raise ConfigError(f"qubit fraction c={c} outside (0, 1)")

    def g(x: float) -> float:
        return A * x * math.log2(1.0 / x) + B * x

    # g peaks at 2^(B/A - 1/ln 2): 1 or more when the exponent is, where the power may overflow
    exp = B / A - 1.0 / math.log(2.0)
    hi = min(2.0**exp, 1.0 - 1e-15) if exp < 0 else 1.0 - 1e-15
    if g(hi) < c:
        raise ConfigError(f"qubit fraction c={c} unreachable (max {g(hi):.6f})")
    lo = 1e-300
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if g(mid) < c:
            lo = mid
        else:
            hi = mid
    return ResourceModel(A, B, c, hi)


@dataclass(frozen=True)
class SolveConfig:
    k: int = 0
    epsilon: float = 0.1
    workers: int | None = None        # validated (>= 1) but unused: dispatch runs inline
    retries: int = 3
    seed: int = 0
    r_max: int | None = None          # overrides the resource model when set
    mode: str = "hybrid"              # "hybrid" | "classical"
    cover_cache: str | Path | None = None


@dataclass
class SolveStats:
    """Counters of one solve.

    failure_bound = min(1, groups_failed * max(epsilon^(2 * retries), u))
    is a union bound over the quantum groups whose every retry missed: the
    chance that a FALSE answer hides a model one of them should have found.
    u is the smallest positive float, so the bound never underflows to 0.
    """

    branches: int = 0
    dispatches: int = 0
    groups_failed: int = 0
    failure_bound: float = 0.0
    records: list[QuantumCallRecord] = field(default_factory=list)

    @property
    def quantum_calls(self) -> int:
        return len(self.records)

    @property
    def total_queries(self) -> int:
        return sum(rec.queries for rec in self.records)

    def add(self, rt: PbsRuntime) -> None:
        """Take in the log of one finished dispatch."""
        self.dispatches += 1
        self.records.extend(rt.records)
        self.branches += rt.branches
        self.groups_failed += rt.groups_failed


@dataclass
class SolveResult:
    status: str                 # "SAT" | "FALSE"
    model: Assignment | None
    stats: SolveStats


def _subset_masks(bits: list[int]) -> list[int]:
    """Entry i: the OR of the bits[j] for which i has bit j set."""
    table = [0]
    for b in bits:
        table += [m | b for m in table]
    return table


def solve(f: Formula, cfg: SolveConfig, rm: ResourceModel | None = None) -> SolveResult:
    """Decide satisfiability of a formula that validates; SAT answers carry a re-verified model."""
    f.validate()
    n = f.num_vars
    if not 0 <= cfg.k <= n:
        raise ConfigError(f"k={cfg.k} outside [0, {n}]")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon={cfg.epsilon} outside (0, 1)")
    if cfg.retries < 1:
        raise ConfigError("retries must be at least 1")
    if cfg.retries > MAX_RETRIES:
        raise ConfigError(f"retries={cfg.retries} above the cap of {MAX_RETRIES}")
    if cfg.mode not in ("hybrid", "classical"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    alphabet = max(3, f.max_width)
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError("need at least one worker")
    word_length = n - cfg.k
    radius = word_length // alphabet
    if cfg.mode == "classical":
        r_cap = 0
    elif cfg.r_max is not None:
        r_cap = cfg.r_max
    elif rm is not None:
        r_cap = rm.r_max(word_length)
    else:
        raise ConfigError("need a resource model or an explicit r_max")
    if r_cap < 0:
        raise ConfigError(f"r_max={r_cap} negative")
    # the word spaces the sweep cover and quantum leaf enumerate, then the sweep cover
    try:
        check_space(2, word_length)
        check_space(2, cfg.k)  # the prefix order permutes all 2^k prefixes
        if cfg.mode == "hybrid":
            check_space(alphabet, min(radius, r_cap))
            make_schedule(cfg.epsilon, 1.0)  # log2(2/epsilon) must be finite
        sweep = cover(word_length, radius, cfg.cover_cache)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    kvars = top_k_vars(f, cfg.k)
    fixed = sum(1 << (v - 1) for v in kvars)
    free_mask = ((1 << n) - 1) ^ fixed
    free_vars = [v for v in range(1, n + 1) if free_mask >> (v - 1) & 1]
    # each sweep codeword packed onto the free variables, once per solve
    lifted = [sum(bit << (v - 1) for v, bit in zip(free_vars, word)) for word in sweep.codewords]
    # default_rng(SeedSequence([seed, 0])).permutation(1 << k), at 4 bytes a prefix
    order = stream.permutation((seed, 0), 1 << cfg.k)
    # decompose's entry at prefix_pos, packed: bit j of prefix_pos holds kvars[k - 1 - j];
    # one table per half of the prefix bits (k <= 23, so at most 4,096 entries each)
    half = cfg.k // 2
    low_bits = (1 << half) - 1
    bit_vars = [1 << (v - 1) for v in reversed(kvars)]
    low_px, high_px = _subset_masks(bit_vars[:half]), _subset_masks(bit_vars[half:])

    stats = SolveStats()

    def finish(status: str, model: Assignment | None) -> SolveResult:
        per_group = max(cfg.epsilon ** (2 * cfg.retries), math.ulp(0.0))
        stats.failure_bound = min(1.0, stats.groups_failed * per_group)
        return SolveResult(status, model, stats)

    read = f.read
    for prefix_pos in order:
        px = low_px[prefix_pos & low_bits] | high_px[prefix_pos >> half]
        # a clause falsified whatever the free variables hold is one the prefix empties
        if read(px) & read(px | free_mask):
            continue
        prefix_str = format(prefix_pos | 1 << cfg.k, "b")[1:]   # k digits, also for k = 0
        scored = []
        for ci, word in enumerate(lifted):
            center = word | px
            score = f.read(center).bit_count()
            if not score and evaluate(f, model := unpack(center, n)):
                return finish("SAT", model)
            scored.append((score, ci, center))
        scored.sort(key=lambda sc: sc[0])
        for _, ci, center in scored:
            inst = PbsInstance(f, center, radius, r_cap, cfg.epsilon, alphabet, fixed)
            rt = PbsRuntime((seed, 1 + prefix_pos, ci), cfg.retries, prefix_str, ci)
            got = kqcpbs(inst, rt)
            stats.add(rt)
            if got is not None and evaluate(f, model := unpack(got, n)):
                return finish("SAT", model)
    return finish("FALSE", None)
