"""Family builders and closed-form bound calculators.

Three constructions are provided:

* an explicit Reed-Solomon-based partial spread whose members are
  spanned by unit-vector / twisted-codeword / power-sum blocks,
* the naive builder that spans consecutive column groups of a
  parity-check matrix of a distance-(3k+1) code,
* a seeded random procedure that samples uniform k-subspaces, prunes to
  a partial spread, then prunes until the exact AS parameter reaches
  the target.

Bound calculators are exact integer/rational arithmetic throughout.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .gf import Field
from .matgf import kernel_basis, rref
from .subspace import Subspace
from .family import DEFAULT_AS_ENUM_GUARD, Family, check_as_guard, compute_L_as, count_L_aad


# -- bounds -------------------------------------------------------------


def check_parameters(n: int, k: int, L: int = 0) -> None:
    """Raise ValueError unless k >= 1, 2k < n and L >= 0."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if 2 * k >= n:
        raise ValueError(f"need 2k < n, got k={k}, n={n}")
    if L < 0:
        raise ValueError("L must be >= 0")


def max_family_size_bound(n: int, k: int, L: int, q: int) -> int:
    """Largest family size compatible with AAD parameter L:
    floor(1 + L (q^{n-k} - 1) / (q^k - 1)).
    """
    check_parameters(n, k, L)
    return 1 + (L * (q ** (n - k) - 1)) // (q**k - 1)


def max_family_size_bound_no_spread(n: int, k: int, L: int, q: int) -> int:
    """Variant without the partial-spread requirement:
    floor(L (q^{n-k} - 1) / (q^k - 1) + L + 1).
    """
    check_parameters(n, k, L)
    return (L * (q ** (n - k) - 1)) // (q**k - 1) + L + 1


def rs_guaranteed_L(n: int, k: int) -> int:
    """Guaranteed AAD parameter of the RS-based construction.

    Known only for k=1 (n-1) and k=2 (1 + 2(n-2)(2n-5)); these are upper
    guarantees, the observed exact L can be smaller.
    """
    if k == 1:
        return n - 1
    if k == 2:
        return 1 + 2 * (n - 2) * (2 * n - 5)
    raise ValueError(f"no guaranteed L for k={k} (only k=1 and k=2)")


def random_family_exponent(n: int, k: int, L: int) -> Fraction:
    """Exponent e with M = floor(q^e) for the random construction:
    e = n - 2k - (n-k)(k+1)/(L+1).
    """
    return Fraction(n - 2 * k) - Fraction((n - k) * (k + 1), L + 1)


def _integer_root(x: int, r: int) -> int:
    """floor(x ** (1/r)) for nonnegative integer x."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or r == 1:
        return x
    # lo^r <= x < hi^r, from the bit length of x; then bisect
    lo = 1 << ((x.bit_length() - 1) // r)
    hi = lo << 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r <= x:
            lo = mid
        else:
            hi = mid
    return lo


def random_sample_size(n: int, k: int, L: int, q: int) -> int:
    """M = floor(q^e) with the exact rational exponent e."""
    e = random_family_exponent(n, k, L)
    if e < 0:
        return 0
    return _integer_root(q**e.numerator, e.denominator)


def bounds_table(n: int, k: int, L: int, q: int) -> dict:
    """Closed-form values for one (n, k, L, q) parameter point."""
    size_bound = max_family_size_bound(n, k, L, q)  # first: checks L >= 0 before L + 1 divides
    e = random_family_exponent(n, k, L)
    return {
        "n": n,
        "k": k,
        "L": L,
        "q": q,
        "size_bound": size_bound,
        "size_bound_no_spread": max_family_size_bound_no_spread(n, k, L, q),
        "random_exponent": {"num": e.numerator, "den": e.denominator},
        "random_sample_size": random_sample_size(n, k, L, q),
        "rs_guaranteed_L": rs_guaranteed_L(n, k) if k in (1, 2) else None,
    }


def growth_diagnostic(fam: Family) -> Fraction:
    """log_q |F| as a rational rounded to 6 decimal digits."""
    m = len(fam)
    if m < 1:
        raise ValueError("family is empty")
    if m == 1:
        return Fraction(0)
    value = math.log(m) / math.log(fam.field.q)
    return Fraction(round(value * 10**6), 10**6)


# -- Reed-Solomon based construction --------------------------------------


def check_rs_parameters(n: int, k: int, q: int) -> None:
    """check_parameters(n, k), and q >= nk as the RS builder needs."""
    check_parameters(n, k)
    if q < n * k:
        raise ValueError(f"q < nk (q={q}, n={n}, k={k})")


def build_rs_family(n: int, k: int, field: Field) -> Family:
    """The explicit RS-based family, always a partial spread; needs q >= nk.

    The codewords c are the kernel of the k-1 rows gamma^(t col), t < k-1,
    over n-k-1 positions (all of GF(q)^(n-2k) for k = 1), taken in
    lexicographic message order.  Each c gives one member, spanned for
    j = 0..k-1 by (e_j | gamma^(p j) c_p | sum_p c_p^(j(n-k-1)+p+1)),
    positions p from 1.  The leading unit vectors make these rows their
    own canonical RREF with pivots 0..k-1, so members are built trusted.
    """
    check_rs_parameters(n, k, field.q)
    f, g, length = field, field.gamma, n - k - 1
    H = [[f.pow(g, col * t) for col in range(length)] for t in range(k - 1)]
    G = kernel_basis(f, H, length)  # in RREF, so the message order is reproducible
    twists = [[f.pow(g, p * j) for p in range(1, length + 1)] for j in range(k)]
    members = []
    for c in Subspace(f, length, len(G), tuple(x for row in G for x in row)).vectors():
        entries = []
        for j in range(k):
            entries += (int(i == j) for i in range(k))
            entries += map(f.mul, twists[j], c)
            entries.append(functools.reduce(f.add, (f.pow(v, j * length + p + 1) for p, v in enumerate(c, 1))))
        members.append(Subspace._trusted(f, n, k, tuple(entries), tuple(range(k))))
    return Family(field, n, k, tuple(members))


# -- code-column construction ---------------------------------------------


def build_code_based_family(field: Field, H, k: int) -> Family:
    """Family spanned by consecutive k-column groups of a parity-check
    matrix H, given as its rows.  With minimum code distance >= 3k+1 the
    result has exact AAD parameter at most 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = list(zip(*H))
    groups = len(cols) // k
    if groups < 1:
        raise ValueError("matrix has fewer than k columns")
    n = len(H)
    members = []
    for g in range(groups):
        R, rk, pivots = rref(field, cols[g * k : (g + 1) * k])
        if rk != k:
            raise ValueError(f"column group {g} is linearly dependent")
        members.append(Subspace._trusted(field, n, k, tuple(x for row in R for x in row), pivots))
    return Family(field, n, k, tuple(members))


def vandermonde_matrix(field: Field, rows: int) -> list[list[int]]:
    """The rows of the rows x q matrix with columns (1, a, a^2, ...) over
    all field elements."""
    return [[field.pow(a, r) for a in field.elements()] for r in range(rows)]


# -- random construction ----------------------------------------------------


@dataclass(frozen=True)
class RandomFamilyResult:
    family: Family
    sampled: int
    spread_deletions: int
    rounds_used: int

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "diagnostics": {
                "sampled": self.sampled,
                "spread_deletions": self.spread_deletions,
                "rounds_used": self.rounds_used,
            },
        }


def _random_subspace(field: Field, n: int, k: int, rng: random.Random) -> Subspace:
    # Rejection over uniform k x n matrices of full rank, then RREF
    # canonicalization: every k-subspace has the same number of rank-k
    # generator matrices, so the result is uniform.
    q = field.q
    while True:
        R, rk, pivots = rref(field, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if rk == k:
            return Subspace._trusted(field, n, k, tuple(x for row in R for x in row), pivots)


def build_random_family(
    n: int,
    k: int,
    L: int,
    field: Field,
    seed: int,
    as_enum_guard: int | None = DEFAULT_AS_ENUM_GUARD,
) -> RandomFamilyResult:
    """Seeded random AS-family builder.

    Samples M = floor(q^{n-2k-(n-k)(k+1)/(L+1)}) uniform k-subspaces,
    deletes one member of every non-trivially-intersecting pair, then
    deletes, one per round, the highest-indexed member that a worst
    (k+1)-subspace witness meets, until the exact AS parameter is at most
    L.  The loop ends: a (k+1)-subspace meets at most every member, so
    L_as > L needs more than L members, and as each round deletes one,
    at most M - spread_deletions - L rounds run.  Deterministic per seed.
    The AS count refuses above as_enum_guard (None: no guard), checked
    before anything is sampled.
    """
    check_parameters(n, k, L)
    if L < 1:
        raise ValueError("L must be >= 1")
    M = random_sample_size(n, k, L, field.q)
    if M < 1:
        raise ValueError(f"sample size M = {M} < 1 for these parameters")
    # the guard depends on (n, k, q) only: refuse before sampling
    check_as_guard(n, k, field.q, as_enum_guard)
    rng = random.Random(seed)
    sampled = [_random_subspace(field, n, k, rng) for _ in range(M)]

    kept: list[Subspace] = []
    for S in sampled:
        if all(S.trivially_intersects(T) for T in kept):
            kept.append(S)
    spread_deletions = M - len(kept)

    rounds = 0
    while True:
        fam = Family(field, n, k, tuple(kept))
        # for k = 1 the AS count stops at the first plane attaining
        # L_aad + 1, the witness of the full enumeration
        L_aad = count_L_aad(fam)[0] if k == 1 else None
        L_as, V = compute_L_as(fam, enum_guard=as_enum_guard, L_aad=L_aad)
        if L_as <= L:
            return RandomFamilyResult(fam, M, spread_deletions, rounds)
        # V meets L_as > L members: delete the highest-indexed one
        victim = next(i for i in reversed(range(len(kept))) if not V.trivially_intersects(kept[i]))
        del kept[victim]
        rounds += 1
