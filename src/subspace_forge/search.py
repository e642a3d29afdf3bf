"""Exhaustive and greedy search for maximal AAD families at tiny parameters.

The exhaustive search is a depth-first branch-and-bound over the
canonical subspace order: a partial family is extended only while it
stays a partial spread with exact AAD parameter at most L, branches
that cannot beat the incumbent are cut, and the closed-form size bound
ends the search early when attained.  Optimality is certified when the
search completes within the node budget (or hits the bound).

All searched maximum sizes are artifact-generated ground truth for
their tiny parameters, not values from the literature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf import Field, SizeGuardError
from .family import Family, NotAPartialSpread, _line_point_counts, count_L_aad
from .constructions import max_family_size_bound
from .subspace import Subspace, enumerate_subspaces, gaussian_binomial

EXHAUSTIVE_SPACE_LIMIT = 10_000
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class SearchConfig:
    field: Field
    n: int
    k: int
    L: int
    mode: str = "exhaustive"
    node_budget: int = DEFAULT_NODE_BUDGET
    symmetry_break: bool = True

    def __post_init__(self):
        if self.mode not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if 2 * self.k >= self.n:
            raise ValueError(f"need 2k < n, got k={self.k}, n={self.n}")
        if self.L < 0:
            raise ValueError("L must be >= 0")
        if self.mode == "exhaustive":
            total = gaussian_binomial(self.n, self.k, self.field.q)
            if total > EXHAUSTIVE_SPACE_LIMIT:
                raise SizeGuardError(
                    f"exhaustive mode needs the k-subspace count <= {EXHAUSTIVE_SPACE_LIMIT}, got {total}"
                )


@dataclass
class SearchResult:
    size: int
    family: Family
    optimality_proven: bool
    nodes: int
    bound: int
    config: SearchConfig

    def to_json(self) -> dict:
        return {
            "n": self.config.n,
            "k": self.config.k,
            "L": self.config.L,
            "q": self.config.field.q,
            "mode": self.config.mode,
            "optimum": self.size,
            "bound": self.bound,
            "proven": self.optimality_proven,
            "nodes": self.nodes,
            "symmetry_break": self.config.symmetry_break,
            "provenance": "exhaustive search ground truth (artifact-generated)",
            "family": self.family.to_json(),
        }


def _feasible(cfg: SearchConfig, chosen: list[Subspace], cand: Subspace) -> bool:
    """Can cand extend chosen while staying a valid <=L family?

    Precondition, kept by both searches: chosen is itself a partial spread
    with L_aad <= L, and cand is not one of its members.

    For k = 1, L_aad is the most family lines on one plane, minus one, and
    adding cand changes only the planes through cand.  So chosen + cand
    is feasible exactly when no plane through cand holds more than L
    lines of chosen: one tally of chosen modulo cand, the first line's
    count when cand is placed first.  For k >= 2 the limited AAD count is
    the whole test: it raises NotAPartialSpread at any meeting pair it
    reaches, and it returns a count at or below the limit only after
    visiting every member pair.
    """
    if cfg.k == 1:
        f = cfg.field
        tally = _line_point_counts([cand, *chosen], f.add_table, f.mul_table, f.neg_table, f.inv_table)
        return max(next(tally).values(), default=0) <= cfg.L
    fam = Family(cfg.field, cfg.n, cfg.k, tuple(chosen) + (cand,))
    try:
        L = count_L_aad(fam, upper_limit=cfg.L)[0]
    except NotAPartialSpread:
        return False
    return L <= cfg.L


def exhaustive_max_family(cfg: SearchConfig) -> SearchResult:
    """Maximum family size by branch-and-bound; proof flag set when the
    search finished within the node budget (or met the closed-form bound).
    """
    if cfg.mode != "exhaustive":
        raise ValueError("config mode must be 'exhaustive'")
    candidates = list(enumerate_subspaces(cfg.field, cfg.n, cfg.k))
    bound = max_family_size_bound(cfg.n, cfg.k, cfg.L, cfg.field.q)
    total = len(candidates)

    best: list[Subspace] = []
    nodes = 0
    budget_hit = False
    bound_hit = False

    def dfs(chosen: list[Subspace], start: int):
        nonlocal best, nodes, budget_hit, bound_hit
        if budget_hit or bound_hit:
            return
        if len(chosen) > len(best):
            best = chosen[:]
            if len(best) >= bound:
                bound_hit = True
                return
        for t in range(start, total):
            # not enough candidates left to beat the incumbent
            if len(chosen) + (total - t) <= len(best):
                return
            nodes += 1
            if nodes > cfg.node_budget:
                budget_hit = True
                return
            if _feasible(cfg, chosen, candidates[t]):
                chosen.append(candidates[t])
                dfs(chosen, t + 1)
                chosen.pop()
                if budget_hit or bound_hit:
                    return

    if cfg.symmetry_break:
        # Invertible maps act transitively on k-subspaces and preserve
        # every family property, so some maximum family contains the
        # canonically smallest subspace.
        nodes += 1
        dfs([candidates[0]], 1)
    else:
        dfs([], 0)
    # dfs holds itself, and through it the candidates, in its closure: a
    # cycle that only a full collection frees unless the name is cleared
    del dfs

    proven = bound_hit or not budget_hit
    fam = Family(cfg.field, cfg.n, cfg.k, tuple(best))
    return SearchResult(
        size=len(best),
        family=fam,
        optimality_proven=proven,
        nodes=nodes,
        bound=bound,
        config=cfg,
    )


def greedy_max_family(cfg: SearchConfig, seed: int) -> Family:
    """Randomized greedy insertion in a seed-shuffled canonical order."""
    candidates = list(enumerate_subspaces(cfg.field, cfg.n, cfg.k))
    rng = random.Random(seed)
    rng.shuffle(candidates)
    chosen: list[Subspace] = []
    for cand in candidates:
        if _feasible(cfg, chosen, cand):
            chosen.append(cand)
    return Family(cfg.field, cfg.n, cfg.k, tuple(chosen))
