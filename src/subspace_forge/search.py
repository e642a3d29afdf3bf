"""Exhaustive and greedy search for maximal AAD families at tiny parameters.

The exhaustive search is a depth-first branch-and-bound over the
canonical subspace order, one loop over an explicit stack: a partial
family is extended only while it stays a partial spread with exact AAD
parameter at most L, branches that cannot beat the incumbent are cut,
and the closed-form size bound ends the search early when attained.
Optimality is certified when the search completes within the node
budget (default family.DEFAULT_AS_ENUM_GUARD nodes) or hits the bound.
The greedy search takes no budget.  Both searches hold every
k-subspace and check no guard on their count: the caller does (the CLI
through checked_gaussian_binomial and its enumeration guard).

Both searches test each candidate once, with _feasible, on the pairs it
adds only: for k = 1 one tally of the chosen lines modulo the
candidate, for k >= 2 the per-member tallies that _Chosen keeps.

All searched maximum sizes are artifact-generated ground truth for
their tiny parameters, not values from the literature.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .gf import Field
from .family import DEFAULT_AS_ENUM_GUARD, Family, _free_columns, _line_point_counts, _quotient_points
from .constructions import check_parameters, max_family_size_bound
from .subspace import Subspace, enumerate_subspaces


@dataclass
class SearchResult:
    size: int
    family: Family
    optimality_proven: bool
    nodes: int
    bound: int
    L: int
    symmetry_break: bool

    def to_json(self) -> dict:
        return {
            "n": self.family.n,
            "k": self.family.k,
            "L": self.L,
            "q": self.family.field.q,
            "mode": "exhaustive",
            "optimum": self.size,
            "bound": self.bound,
            "proven": self.optimality_proven,
            "nodes": self.nodes,
            "symmetry_break": self.symmetry_break,
            "provenance": "exhaustive search ground truth (artifact-generated)",
            "family": self.family.to_json(),
        }


class _Chosen:
    """The members a search has chosen, in order, with the counts that
    test a candidate against them.

    For k >= 2, `tallies` holds one (rows, project, counts) per member
    S_i: its basis rows, an itemgetter of its free columns, and a Counter
    of its normalized quotient points, the count of a point being the
    number of other chosen members whose span over S_i holds it, as in
    family._quotient_point_counts.  The chosen family's L_aad is the
    largest count.  push adds a member's points to every tally and gives
    it its own; pop undoes the last push, removing points whose count
    falls to 0.  For k = 1 only the members are kept.
    """

    def __init__(self, k: int, L: int):
        self.k, self.L = k, L
        self.members: list[Subspace] = []
        self.tallies: list[tuple[list, operator.itemgetter, Counter]] = []

    def own_tally(self, cand: Subspace, project) -> Counter:
        """cand's tally over the chosen members; they must not meet cand."""
        own = Counter()
        for rows, _, _ in self.tallies:
            own.update(_quotient_points(cand, project, rows))
        return own

    def push(self, cand: Subspace) -> None:
        if self.k >= 2:
            rows = cand.row_list()
            project = operator.itemgetter(*_free_columns(cand))
            for S, (_, S_project, counts) in zip(self.members, self.tallies):
                counts.update(_quotient_points(S, S_project, rows))
            self.tallies.append((rows, project, self.own_tally(cand, project)))
        self.members.append(cand)

    def pop(self) -> None:
        cand = self.members.pop()
        if self.k >= 2:
            self.tallies.pop()
            rows = cand.row_list()
            for S, (_, project, counts) in zip(self.members, self.tallies):
                for pt in _quotient_points(S, project, rows):
                    counts[pt] -= 1
                    if not counts[pt]:
                        del counts[pt]


def _feasible(chosen: _Chosen, cand: Subspace) -> bool:
    """Can cand extend the chosen members while staying a valid <=L family?

    Precondition, kept by both searches: the chosen members are a partial
    spread with L_aad <= L, and cand is not one of them.

    For k = 1, L_aad is the most family lines on one plane, minus one, and
    adding cand changes only the planes through cand.  So chosen + cand
    is feasible exactly when no plane through cand holds more than L
    lines of chosen: one tally of chosen modulo cand, the first line's
    count when cand is placed first.

    For k >= 2 adding cand raises by one the count of each point of
    (S_i + cand)/S_i in S_i's tally, and gives cand a tally of its own.
    So chosen + cand is feasible exactly when cand meets no S_i (its
    residues modulo S_i have rank k), no point of (S_i + cand)/S_i
    already has count L, and no point over cand is covered by more than
    L chosen members: O(m) RREFs of k rows, and no Family is built.
    """
    if chosen.k == 1:
        tally = _line_point_counts([cand, *chosen.members])
        return max(next(tally).values(), default=0) <= chosen.L
    rows = cand.row_list()
    for S, (_, project, counts) in zip(chosen.members, chosen.tallies):
        points = _quotient_points(S, project, rows)
        if points is None or max(map(counts.get, points, repeat(0))) >= chosen.L:
            return False
    own = chosen.own_tally(cand, operator.itemgetter(*_free_columns(cand)))
    return max(own.values(), default=0) <= chosen.L


def exhaustive_max_family(
    field: Field, n: int, k: int, L: int, node_budget: int = DEFAULT_AS_ENUM_GUARD, symmetry_break: bool = True
) -> SearchResult:
    """Maximum family size by branch-and-bound; proof flag set when the
    search finished within the node budget (or met the closed-form bound).

    Like greedy_max_family, it checks no guard on its candidates: it
    holds all [n, k]_q of them, so the caller bounds that count first.

    One loop, shaped like BatchCode._assign: `picks` holds the
    candidate index of each member the loop pushed, and a backtrack pops
    the last member and resumes after its index.
    """
    bound = max_family_size_bound(n, k, L, field.q)  # checks 2k < n and L >= 0
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    candidates = list(enumerate_subspaces(field, n, k))
    total = len(candidates)

    chosen = _Chosen(k, L)
    members = chosen.members
    best: list[Subspace] = []
    nodes = 0
    if symmetry_break:
        # Invertible maps act transitively on k-subspaces and preserve
        # every family property, so some maximum family contains the
        # canonically smallest subspace.
        nodes += 1
        chosen.push(candidates[0])
    picks: list[int] = []
    t = len(members)  # the next candidate to test
    while True:
        if len(members) > len(best):
            best = members[:]
            if len(best) >= bound:
                break
        # not enough candidates left to beat the incumbent
        if len(members) + (total - t) <= len(best):
            if not picks:
                break
            chosen.pop()
            t = picks.pop() + 1
            continue
        nodes += 1
        if nodes > node_budget:
            break
        if _feasible(chosen, candidates[t]):
            chosen.push(candidates[t])
            picks.append(t)
        t += 1

    return SearchResult(
        size=len(best),
        family=Family(field, n, k, tuple(best)),
        optimality_proven=nodes <= node_budget,  # false only after the budget stop
        nodes=nodes,
        bound=bound,
        L=L,
        symmetry_break=symmetry_break,
    )


def greedy_max_family(field: Field, n: int, k: int, L: int, seed: int) -> Family:
    """Randomized greedy insertion in a seed-shuffled canonical order."""
    check_parameters(n, k, L)
    candidates = list(enumerate_subspaces(field, n, k))
    random.Random(seed).shuffle(candidates)
    chosen = _Chosen(k, L)
    for cand in candidates:
        if _feasible(chosen, cand):
            chosen.push(cand)
    return Family(field, n, k, tuple(chosen.members))
