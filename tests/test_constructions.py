import itertools
import random
from fractions import Fraction

import pytest

from subspace_forge.gf import SizeGuardError, field_from_order, make_field
from subspace_forge.subspace import Subspace, enumerate_subspaces
from subspace_forge.family import Family, check_partial_spread, compute_L_aad, compute_L_as
from subspace_forge.constructions import (
    max_family_size_bound,
    max_family_size_bound_no_spread,
    bounds_table,
    build_code_based_family,
    build_random_family,
    build_rs_family,
    check_rs_parameters,
    growth_diagnostic,
    random_family_exponent,
    random_sample_size,
    rs_guaranteed_L,
    vandermonde_matrix,
)
from test_matgf import mat_vec


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_max_family_size_bound_values():
    assert max_family_size_bound(3, 1, 1, 2) == 4
    assert max_family_size_bound(3, 1, 1, 5) == 7
    assert max_family_size_bound(3, 1, 0, 5) == 1
    # fractional quotient is floored exactly: 1 + 31*1330/120 = 344.58...
    assert max_family_size_bound(5, 2, 31, 11) == 344


def test_max_family_size_bound_no_spread_values():
    assert max_family_size_bound_no_spread(3, 1, 1, 2) == 5
    assert max_family_size_bound_no_spread(3, 1, 1, 5) == 8
    for n, k, L, q in [(3, 1, 1, 2), (5, 2, 4, 3), (5, 1, 7, 5), (7, 3, 2, 4)]:
        assert max_family_size_bound_no_spread(n, k, L, q) >= max_family_size_bound(n, k, L, q)


def test_bounds_reject_bad_parameters():
    with pytest.raises(ValueError):
        max_family_size_bound(4, 2, 1, 3)  # 2k = n
    with pytest.raises(ValueError):
        max_family_size_bound(3, 1, -1, 3)


def test_rs_guaranteed_L():
    assert rs_guaranteed_L(3, 1) == 2
    assert rs_guaranteed_L(5, 1) == 4
    assert rs_guaranteed_L(5, 2) == 1 + 2 * 3 * 5 == 31
    with pytest.raises(ValueError):
        rs_guaranteed_L(6, 3)


def test_random_family_exponent_and_sample_size():
    # (5,1,7,5): 3 - 8/8 = 2, so 25 samples
    assert random_family_exponent(5, 1, 7) == Fraction(2)
    assert random_sample_size(5, 1, 7, 5) == 25
    # fractional exponent floors through an exact integer root
    assert random_family_exponent(5, 1, 2) == Fraction(1, 3)
    assert random_sample_size(5, 1, 2, 5) == 1  # floor(5^(1/3))
    assert random_sample_size(5, 1, 2, 27) == 3  # 27^(1/3)
    # negative exponent: no sample
    assert random_sample_size(3, 1, 1, 2) == 0


def test_bounds_table_json():
    obj = bounds_table(3, 1, 1, 2)
    assert obj["size_bound"] == 4
    assert obj["size_bound_no_spread"] == 5
    assert obj["rs_guaranteed_L"] == 2
    assert obj["random_exponent"] == {"num": -1, "den": 1}
    obj2 = bounds_table(7, 3, 5, 4)
    assert obj2["rs_guaranteed_L"] is None


def test_growth_diagnostic(f5):
    fam = build_rs_family(3, 1, f5)
    assert growth_diagnostic(fam) == Fraction(1)  # q lines at q = 5
    single = Family(f5, 3, 1, (Subspace.from_generators(f5, 3, [(1, 0, 0)]),))
    assert growth_diagnostic(single) == Fraction(0)
    fam2 = build_rs_family(4, 1, f5)  # 25 members: exactly n - 2k = 2
    assert growth_diagnostic(fam2) == Fraction(2)


# ---------------------------------------------------------------------------
# RS code and member rows
# ---------------------------------------------------------------------------


def rs_members(n, k, q):
    field = field_from_order(q)
    return field, build_rs_family(n, k, field).members


def codewords(n, k, q):
    """The codeword c of each RS member, in member order: row 0 holds
    e_0 | c | power sum, as the j = 0 twist is the identity."""
    return [S.row_list()[0][k : n - 1] for S in rs_members(n, k, q)[1]]


def test_rs_codewords_k1_are_all_messages():
    assert codewords(3, 1, 5) == [(c,) for c in range(5)]
    # lexicographic message order
    assert codewords(4, 1, 5) == list(itertools.product(range(5), repeat=2))


def test_rs_codewords_k2_are_a_minus_a():
    # one parity row (1, 1): codewords (a, -a), message a in order
    f11 = field_from_order(11)
    assert codewords(5, 2, 11) == [(a, f11.neg(a)) for a in range(11)]


def test_make_rs_code_parity_rows_are_gamma_powers():
    # at (7,3,23) the RS code is the full null space of the rows
    # (1, 1, 1) and (1, g, g^2): every codeword meets both, and there
    # are q^(n-2k) distinct codewords, the size of that null space
    f23 = field_from_order(23)
    g = f23.gamma
    H = [(1, 1, 1), (1, g, f23.mul(g, g))]
    words = codewords(7, 3, 23)
    assert len(set(words)) == len(words) == 23
    for w in words:
        assert mat_vec(f23, H, w) == (0, 0)


def test_rs_codewords_satisfy_parity():
    # the k-1 parity rows hold the powers gamma^(col t), t = 0..k-2
    for n, k, q in [(6, 2, 13), (7, 3, 23)]:
        field = field_from_order(q)
        g = field.gamma
        H = [[field.pow(g, c * t) for c in range(n - k - 1)] for t in range(k - 1)]
        words = codewords(n, k, q)
        assert len(set(words)) == len(words) == q ** (n - 2 * k)
        for w in words:
            assert mat_vec(field, H, w) == (0,) * (k - 1)


def test_rs_code_min_weight_is_mds():
    # minimum Hamming weight equals the designed distance k
    for n, k, q in [(3, 1, 5), (5, 2, 11), (6, 2, 13), (7, 3, 23)]:
        words = codewords(n, k, q)
        assert len(words) == q ** (n - 2 * k) <= 10**5
        assert min(sum(1 for x in w if x) for w in words if any(w)) == k


def test_check_rs_parameters_rejects_small_q():
    check_rs_parameters(3, 1, 3)
    check_rs_parameters(5, 2, 11)
    for n, k, q in [(3, 1, 2), (5, 2, 9)]:  # q < nk
        with pytest.raises(ValueError, match="q < nk"):
            check_rs_parameters(n, k, q)
        with pytest.raises(ValueError, match="q < nk"):
            build_rs_family(n, k, field_from_order(q))


# ---------------------------------------------------------------------------
# twisted codeword and power-sum columns
# ---------------------------------------------------------------------------


def test_twist_codeword_j1_identity():
    # row 0 of member a at (5,2,11): e_0 | (a, -a) | a^2 + (-a)^3
    f11, members = rs_members(5, 2, 11)
    for a, S in enumerate(members):
        b = f11.neg(a)
        assert S.row_list()[0] == (1, 0, a, b, (a**2 + b**3) % 11)


def test_twist_codeword_j2_powers():
    # row 1 scales position p by gamma^p
    f11, members = rs_members(5, 2, 11)
    g = f11.gamma
    for a, S in enumerate(members):
        b = f11.neg(a)
        assert S.row_list()[1][:4] == (0, 1, f11.mul(g, a), f11.mul(f11.mul(g, g), b))


def test_twist_codeword_zero():
    _, members = rs_members(5, 2, 11)
    assert members[0].row_list() == [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]


def test_power_sum_k1_square():
    for c, S in enumerate(rs_members(3, 1, 5)[1]):
        assert S.row_list()[0][2] == pow(c, 2, 5)


def test_power_sum_zero():
    _, members = rs_members(5, 2, 11)
    assert [row[-1] for row in members[0].row_list()] == [0, 0]


def test_power_sum_k2_exponents():
    # exponents are p + 1 in row 0 and (n-k-1) + p + 1 in row 1: 2, 3 and 4, 5
    _, members = rs_members(5, 2, 11)
    for S in members:
        (_, _, a, b, s0), (_, _, _, _, s1) = S.row_list()
        assert s0 == (pow(a, 2, 11) + pow(b, 3, 11)) % 11
        assert s1 == (pow(a, 4, 11) + pow(b, 5, 11)) % 11


# ---------------------------------------------------------------------------
# RS family builder
# ---------------------------------------------------------------------------


def test_build_rs_family_hand_expansion(f5):
    # k=1, n=3: members are the lines through (1, c, c^2)
    fam = build_rs_family(3, 1, f5)
    expected = {(1, c, pow(c, 2, 5)) for c in range(5)}
    assert {S.row_list()[0] for S in fam.members} == expected


def test_build_rs_family_spread_at_smallest_q():
    # smallest admissible prime power q >= nk for k = 1, 2, 3
    for n, k, q in [(3, 1, 3), (5, 2, 11), (7, 3, 23)]:
        fam = build_rs_family(n, k, field_from_order(q))
        assert len(fam) == q ** (n - 2 * k)
        assert check_partial_spread(fam)[0]


def test_build_rs_family_guarantee_k1(f5, f7):
    for n, field in [(3, f5), (3, f7), (4, f5)]:
        fam = build_rs_family(n, 1, field)
        L, _ = compute_L_aad(fam)
        assert L <= rs_guaranteed_L(n, 1)


@pytest.mark.parametrize("n,k,q", [(3, 1, 5), (4, 1, 9), (5, 2, 11), (7, 3, 23)])
def test_rs_members_equal_checked_construction(n, k, q):
    # members are built trusted: each basis must already be canonical RREF
    field, members = rs_members(n, k, q)
    for S in members:
        T = Subspace.from_generators(field, n, S.row_list())
        assert T == S and T.pivots == S.pivots == tuple(range(k))
        assert Subspace(field, n, k, S.entries) == S


def test_build_rs_family_rejects_small_q():
    with pytest.raises(ValueError):
        build_rs_family(3, 1, make_field(2))
    with pytest.raises(ValueError):
        build_rs_family(4, 2, make_field(11))  # 2k >= n


def test_build_rs_family_deterministic(f5):
    a = build_rs_family(3, 1, f5)
    b = build_rs_family(3, 1, f5)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# code-column builder
# ---------------------------------------------------------------------------


def test_code_based_vandermonde_families(f5, f7):
    for field in (f5, f7):
        H = vandermonde_matrix(field, 3)
        fam = build_code_based_family(field, H, 1)
        assert len(fam) == field.q
        assert check_partial_spread(fam)[0]
        L, _ = compute_L_aad(fam)
        assert L <= 1  # distance-4 parity check gives AAD parameter 1


def test_code_based_repeated_column_fails(f5):
    H = [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
    # first two columns span the same line: duplicate members
    with pytest.raises(ValueError):
        build_code_based_family(f5, H, 1)


def test_code_based_dependent_group_fails(f5):
    H = [[1, 0], [0, 0], [0, 0]]
    with pytest.raises(ValueError, match="column group 1 is linearly dependent"):  # second column is zero
        build_code_based_family(f5, H, 1)


def test_code_based_k2_grouping(f2):
    # 6 columns of an identity-like matrix in GF(2)^6: three disjoint planes
    H = [[int(r == c) for c in range(6)] for r in range(6)]
    fam = build_code_based_family(f2, H, 2)
    assert len(fam) == 3
    assert fam.k == 2
    assert check_partial_spread(fam)[0]


def test_code_based_members_equal_checked_construction(f7):
    # members are built trusted from one rref of each column group
    H = vandermonde_matrix(f7, 5)
    fam = build_code_based_family(f7, H, 2)
    assert len(fam) == 3
    for g, S in enumerate(fam.members):
        gens = [[H[r][c] for r in range(5)] for c in (2 * g, 2 * g + 1)]
        T = Subspace.from_generators(f7, 5, gens)
        assert T == S and T.pivots == S.pivots
        assert Subspace(f7, 5, 2, S.entries) == S


# ---------------------------------------------------------------------------
# random builder
# ---------------------------------------------------------------------------


def test_random_family_acceptance_point(f5):
    res = build_random_family(5, 1, 7, f5, seed=1)
    assert res.sampled == 25
    fam = res.family
    assert check_partial_spread(fam)[0]
    L_as, _ = compute_L_as(fam)
    assert L_as <= 7


def test_random_family_deterministic(f5):
    a = build_random_family(5, 1, 7, f5, seed=9)
    b = build_random_family(5, 1, 7, f5, seed=9)
    assert a.family.to_json() == b.family.to_json()
    c = build_random_family(5, 1, 7, f5, seed=10)
    assert c.family.to_json() != a.family.to_json()


def test_random_family_rejects_m_below_one(f2):
    with pytest.raises(ValueError):
        build_random_family(3, 1, 1, f2, seed=0)  # exponent -1


def test_random_family_prunes_to_target(monkeypatch):
    # more samples than the formula draws force AS pruning rounds, for
    # k = 1 and k = 2; each round deletes one member, and a round runs
    # only while more than L members are left
    from subspace_forge import constructions

    rounds = 0
    for n, k, L, q, M in [(5, 1, 3, 3, 40), (4, 1, 3, 3, 30), (5, 2, 2, 2, 40), (5, 2, 3, 2, 60)]:
        field = field_from_order(q)
        monkeypatch.setattr(constructions, "random_sample_size", lambda *args, M=M: M)
        for seed in range(1, 5):
            res = build_random_family(n, k, L, field, seed)
            fam = res.family
            assert check_partial_spread(fam)[0]
            assert compute_L_as(fam, None)[0] <= L
            assert len(fam) + res.spread_deletions + res.rounds_used == res.sampled == M
            assert res.rounds_used <= max(0, res.sampled - res.spread_deletions - L)
            rounds += res.rounds_used
    assert rounds > 0


@pytest.mark.parametrize("n, L, q, M", [(3, 2, 3, 13), (4, 2, 2, 15), (4, 3, 3, 30), (3, 3, 5, 25)])
def test_random_family_pruning_matches_full_as_enumeration(n, L, q, M, monkeypatch):
    # more samples than the formula draws force AS pruning rounds; stopping
    # each round's AS count at L_aad + 1 deletes the same victims as the
    # full enumeration
    from subspace_forge import constructions

    field = field_from_order(q)
    monkeypatch.setattr(constructions, "random_sample_size", lambda *args: M)
    fast = build_random_family(n, 1, L, field, seed=7)
    assert fast.rounds_used > 0

    def full_as(fam, enum_guard=None, L_aad=None):
        return compute_L_as(fam, enum_guard)

    monkeypatch.setattr(constructions, "compute_L_as", full_as)
    assert build_random_family(n, 1, L, field, seed=7) == fast


def test_random_k1_spread_pass_matches_the_pairwise_scan(f3):
    # the spread pass keeps what a pairwise rank scan of the same draws
    # keeps.  (6,1,30,3) draws 56 of the 364 lines, so some seeds draw a
    # line twice; the pinned deletions are those repeats.  No seed runs
    # an AS pruning round.
    from subspace_forge.constructions import _random_subspace

    deletions = []
    for seed in range(1, 11):
        res = build_random_family(6, 1, 30, f3, seed)
        assert res.rounds_used == 0
        rng = random.Random(seed)
        kept = []
        for S in (_random_subspace(f3, 6, 1, rng) for _ in range(res.sampled)):
            if all(S.trivially_intersects(T) for T in kept):
                kept.append(S)
        assert res.family.members == tuple(kept)
        deletions.append(res.spread_deletions)
    assert deletions == [2, 7, 4, 4, 6, 2, 4, 2, 3, 3]


def test_random_family_over_guard_refuses_before_sampling(f3, monkeypatch):
    # the AS guard depends on (n, k, q) only, so an over-guard build samples
    # nothing and runs no AAD count
    from subspace_forge import constructions

    def forbidden(*args, **kwargs):
        raise AssertionError("work done over the AS guard")

    monkeypatch.setattr(constructions, "_random_subspace", forbidden)
    monkeypatch.setattr(constructions, "count_L_aad", forbidden)
    with pytest.raises(SizeGuardError):
        build_random_family(5, 1, 8, f3, seed=3, as_enum_guard=100)
    # with no guard argument the default guard applies: the 6,865,251
    # planes of GF(7)^6 used to be enumerated, past a 60 s timeout
    with pytest.raises(SizeGuardError, match="6865251"):
        build_random_family(6, 1, 3, field_from_order(7), seed=2)
