"""Systematic binary batch codes built on an AAD family.

Information bits sit on the q^n points of GF(q)^n; every affine coset
v + S of every family member S contributes one parity bit equal to the
XOR of the information bits in that coset.  Because distinct members
meet trivially, the cosets through a fixed point share only that point,
which yields 1 + |F| pairwise disjoint recovery candidates per
information bit and supports any multiset of s = floor(|F| / L)
simultaneous requests.

A BatchCode builds coset tables once (see the class), so no request
reduces a vector or enumerates a subspace.  A plan for a multiset that
repeats no index is its direct reads, one immutable entry per index that
the code builds on first request and shares (at most K).  One loop,
`BatchCode._assign`, backtracks on the multisets that repeat an index,
for plans and verification; it builds each candidate when it first
tests it, refuses past a budget of candidate tests, and builds no plan
objects.  Exhaustive verification checks one multiset per translation
class (see `verify_batch`); sampled verification draws the stream of
`random.Random(seed).randrange(K)`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from .family import Family, _free_columns, count_L_aad
from .gf import _json_int, check_guard

# ASCII "0" and "1" to the bits 0 and 1
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class RecoveryEntry:
    request: int
    positions: frozenset[int]
    rule: str  # "direct" or "parity_xor"; both decode as XOR of positions


@dataclass(frozen=True)
class RecoveryPlan:
    entries: tuple[RecoveryEntry, ...]


class BatchCode:
    """Positions [0, K) are information bits indexed by the lexicographic
    order of the points of GF(q)^n; parities follow, ordered by (member
    index, coset canonical representative lexicographic).

    Two tables per member a, 2·K·|F| ints in all, built from the field's
    addition table, hold the coset structure: _coset_of[a][idx] is the
    coset rank of information point idx, and _coset_points[a] lists the
    points coset by coset, q^k each, in rank order.

    `encode` also keeps one parity word per information point, built on
    its first call: an int whose |F| set bits are the point's parity
    offsets a·q^(n−k) + _coset_of[a][idx].  The words take K·(N−K)/8
    bytes, about 15 KB for RS(3,1,7) but about 37 MB for two lines in
    GF(43)^3, so a code that only plans or verifies never builds them.
    """

    def __init__(self, family: Family):
        self.family = family
        f = family.field
        self.q = f.q
        self.n = family.n
        self.k = family.k
        self.L_aad = count_L_aad(family)[0]
        self.K = self.q**self.n
        self.coset_size = self.q**self.k
        self.cosets_per_member = self.q ** (self.n - self.k)
        self.N = self.K + len(family) * self.cosets_per_member

        # canonical reps of member a are the vectors vanishing on its
        # pivot columns; enumerating the free coordinates in lexicographic
        # order ranks the reps lexicographically.
        self._free_cols = [_free_columns(S) for S in family.members]

        add = f.add_table
        place = [self.q ** (self.n - 1 - c) for c in range(self.n)]
        point = list(range(self.K))  # one int object per point, shared by the tables
        self._coset_of: list[list[int]] = []
        self._coset_points: list[list[int]] = []
        for S in family.members:
            # translates[j][r] is the point index of rep_r + w_j, for the
            # reps in rank order and the member's vectors w_j; a rep is
            # zero on the pivot columns and runs over GF(q) on the others
            translates = []
            for w in S.vectors():
                col = [0]
                for c, (y, pc) in enumerate(zip(w, place)):
                    digits = (0,) if c in S.pivots else range(self.q)
                    steps = [add[d][y] * pc for d in digits]
                    col = [i + step for i in col for step in steps]
                translates.append(col)
            coset_of = [0] * self.K
            points = []
            for r, coset in enumerate(zip(*translates)):
                for idx in coset:
                    coset_of[idx] = r
                points.extend(point[idx] for idx in coset)
            self._coset_of.append(coset_of)
            self._coset_points.append(points)
        self._words: list[int] | None = None
        self._direct: dict[int, RecoveryEntry] = {}  # shared by repeat-free plans

    def parity_position(self, member: int, rep) -> int:
        rep = tuple(rep)
        free = self._free_cols[member]
        r = 0
        for c in free:
            r = r * self.q + rep[c]
        return self.K + member * self.cosets_per_member + r

    def parity_layout(self) -> list[dict]:
        """Every parity position with its (member, coset rep) address."""
        out = []
        for a, free in enumerate(self._free_cols):
            for r, digits in enumerate(itertools.product(range(self.q), repeat=len(free))):
                rep = [0] * self.n
                for c, d in zip(free, digits):
                    rep[c] = d
                out.append({"member": a, "rep": rep, "position": self.K + a * self.cosets_per_member + r})
        return out

    def layout_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "K": self.K,
            "N": self.N,
            "L_aad": self.L_aad,
            "members": len(self.family),
            "information_order": "points of GF(q)^n, lexicographic by coordinate codes",
            "parities": self.parity_layout(),
        }

    # -- encoding ----------------------------------------------------------

    def encode(self, x) -> list[int]:
        """Systematic encoding: information bits followed by one XOR
        parity per (member, coset).  A bit is 0, 1 or a bool: 1.0 and "1"
        raise TypeError."""
        # iter: bytes(K) would read an int as K zero bytes
        x = bytes(iter(x))
        if len(x) != self.K:
            raise ValueError(f"information length must be {self.K}, got {len(x)}")
        if x.translate(None, b"\0\1"):
            raise ValueError("information symbols must be bits")
        if self._words is None:
            self._words = self._parity_words()
        parity = functools.reduce(operator.xor, itertools.compress(self._words, x), 0)
        # format writes the top bit first; reversed, parity offset 0 leads
        digits = format(parity, f"0{self.N - self.K}b")[::-1]
        return list(x + digits.encode().translate(_BIT_OF_DIGIT))

    def _parity_words(self) -> list[int]:
        """One int per information point with bit a·q^(n−k) + r set for
        each member a, where r is the point's coset rank under a."""
        words = [0] * self.K
        for a, coset_of in enumerate(self._coset_of):
            base = a * self.cosets_per_member
            words = [w | 1 << (base + r) for w, r in zip(words, coset_of)]
        return words

    # -- recovery ------------------------------------------------------------

    def _candidate(self, idx: int, a: int) -> frozenset[int]:
        """Recovery candidate a of information bit idx: the direct read
        for a = 0, else the coset of idx under member a - 1 with idx
        replaced by that coset's parity."""
        if a == 0:
            return frozenset((idx,))
        a -= 1
        size = self.coset_size
        r = self._coset_of[a][idx]
        positions = self._coset_points[a][r * size : (r + 1) * size]
        positions[positions.index(idx)] = self.K + a * self.cosets_per_member + r
        return frozenset(positions)

    def recovery_sets_for(self, idx: int) -> list[frozenset[int]]:
        """1 + |F| candidate recovery sets for information bit idx: the
        direct read, plus per member the coset parity with the other
        coset points.  Candidates are pairwise disjoint."""
        self._check_indices((idx,))
        return [self._candidate(idx, a) for a in range(1 + len(self.family))]

    def _check_indices(self, indices) -> None:
        """TypeError for a non-int index (gf._json_int), ValueError outside [0, K)."""
        for idx in indices:
            if not 0 <= _json_int(idx) < self.K:
                raise ValueError(f"information index out of range: {idx}")

    def recover(self, y, positions) -> int:
        bit = 0
        for p in positions:
            bit ^= y[p]
        return bit

    def _assign(self, requests, guard: int | None = None):
        """Depth-first backtracking, in candidate order, for a sorted
        multiset of valid indices: the requests' candidate lists and the
        candidate picked for each, or None if no pairwise disjoint
        assignment exists.  A candidate is built when the search first
        tests it; requests for one index share its list.

        Proving that no assignment exists can take exponentially many
        candidate tests; past `guard` of them (None: no limit) on one
        multiset it raises SizeGuardError.
        """
        total = 1 + len(self.family)
        built: dict[int, list[frozenset[int]]] = {}
        lists = [built.setdefault(idx, []) for idx in requests]

        limit = math.inf if guard is None else guard
        tests = 0
        picks: list[int] = []  # the candidate chosen for each served request
        used: set[int] = set()
        j = 0  # next candidate to try for request len(picks)
        while len(picks) < len(requests):
            cands = lists[len(picks)]
            while j < total:
                if j == len(cands):
                    cands.append(self._candidate(requests[len(picks)], j))
                tests += 1
                if tests > limit:
                    check_guard("batch recovery search", tests, "candidate tests", guard)
                if used.isdisjoint(cands[j]):
                    break
                j += 1
            if j < total:
                used.update(cands[j])
                picks.append(j)
                j = 0
            elif picks:
                j = picks.pop()
                used.difference_update(lists[len(picks)][j])
                j += 1
            else:
                return None
        return lists, picks

    def plan_recovery(self, requests) -> RecoveryPlan | None:
        """Pairwise disjoint recovery sets for a multiset of information
        indices, one per request in sorted order, or None if no assignment
        exists.

        A multiset that repeats no index gets its direct reads from
        `_direct`, without the search.  That is the search's own answer:
        the direct reads of distinct indices are pairwise disjoint, and each
        is the first candidate the search tests for its request, so every
        request takes candidate 0 and none backtracks.
        """
        requests = sorted(requests)
        self._check_indices(requests)
        if len(set(requests)) < len(requests):
            found = self._assign(requests)
            if found is None:
                return None
            return RecoveryPlan(
                tuple(
                    RecoveryEntry(idx, cands[j], "direct" if j == 0 else "parity_xor")
                    for idx, cands, j in zip(requests, *found)
                )
            )
        direct = self._direct
        for idx in requests:
            if idx not in direct:
                direct[idx] = RecoveryEntry(idx, self._candidate(idx, 0), "direct")
        return RecoveryPlan(tuple(map(direct.__getitem__, requests)))


def batch_s(family_size: int, L: int) -> int:
    """Supported request count s = floor(|F| / L)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return family_size // L


def verify_batch(
    code: BatchCode,
    s: int,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    guard: int | None = None,
) -> tuple[bool, tuple[int, ...] | None]:
    """Check that every (or a sampled set of) multiset(s) of s requested
    information bits admits pairwise disjoint recovery sets.

    Returns (True, None) or (False, counterexample multiset).  Sampled
    mode draws `trials` multisets, at least one.  `guard` bounds the
    candidate tests of the recovery search on each multiset (see
    `BatchCode._assign`); over it, SizeGuardError.  A multiset that
    repeats no index is served by its direct reads, so verification
    builds nothing for it and does not call `_assign`.

    Exhaustive mode checks only the multisets that contain 0:
    - Translating by a point t maps the direct read of idx to that of
      idx + t, and member a's coset through idx, with its parity, onto
      member a's coset through idx + t.  Both maps are bijections on
      positions, so a multiset M can be served exactly when M + t can.
    - Every multiset has a translate that contains point 0, which is
      index 0 because code 0 is the field zero.
    - The multisets whose least element is 0 are the first part of the
      lexicographic sweep of all multisets, in the same order.  So the
      verdict and the first counterexample are those of the full sweep.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    assign = code._assign if guard is None else functools.partial(code._assign, guard=guard)
    for multiset in _request_multisets(code.K, s, mode, trials, seed):
        if len(set(multiset)) < s and assign(multiset) is None:
            return False, multiset
    return True, None


def _request_multisets(K: int, s: int, mode: str, trials: int, seed: int):
    """The sorted request multisets that verify_batch checks, in order.
    Sampled mode takes s indices at a time from getrandbits(K.bit_length())
    draws below K: the stream of random.Random(seed).randrange(K) on
    CPython 3.10 to 3.13, without a Python call per index."""
    if mode == "exhaustive":
        return ((0,) + rest for rest in itertools.combinations_with_replacement(range(K), s - 1))
    if mode == "sampled":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        stream = filter(K.__gt__, map(random.Random(seed).getrandbits, itertools.repeat(K.bit_length())))
        return (tuple(sorted(itertools.islice(stream, s))) for _ in range(trials))
    raise ValueError(f"unknown mode {mode!r}")
