import gc
import itertools
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from subspace_forge import batch
from subspace_forge.batch import BatchCode, RecoveryEntry, RecoveryPlan, batch_s, verify_batch
from subspace_forge.constructions import build_rs_family
from subspace_forge.gf import SizeGuardError, make_field
from test_family import DIFFERENTIAL, families


# ---------------------------------------------------------------------------
# Slow oracle: the batch code built point by point from Subspace.reduce and
# Subspace.vectors, without the coset tables
# ---------------------------------------------------------------------------


def point_index(code, v):
    """Information position of point v: its coordinates as base-q digits."""
    idx = 0
    for x in v:
        idx = idx * code.q + x
    return idx


def index_point(code, idx):
    return tuple(idx // code.q ** (code.n - 1 - c) % code.q for c in range(code.n))


def oracle_recovery_sets(code, idx):
    f = code.family.field
    v = index_point(code, idx)
    out = [frozenset({idx})]
    for a, S in enumerate(code.family.members):
        positions = {code.parity_position(a, S.reduce(v))}
        for w in S.vectors():
            if any(w):
                positions.add(point_index(code, tuple(f.add(x, y) for x, y in zip(v, w))))
        out.append(frozenset(positions))
    return out


def oracle_encode(code, x):
    """Each parity is the XOR of the information bits on its coset."""
    f = code.family.field
    y = list(x) + [0] * (code.N - code.K)
    for entry in code.parity_layout():
        S = code.family.members[entry["member"]]
        for w in S.vectors():
            y[entry["position"]] ^= x[point_index(code, tuple(f.add(r, c) for r, c in zip(entry["rep"], w)))]
    return y


def oracle_plan(code, requests):
    """Recursive backtracking over the oracle's candidates, in sorted
    request order and candidate order."""
    requests = sorted(requests)
    candidates = {idx: oracle_recovery_sets(code, idx) for idx in set(requests)}
    chosen = []
    used = set()

    def backtrack(t):
        if t == len(requests):
            return True
        idx = requests[t]
        for cand in candidates[idx]:
            if used & cand:
                continue
            rule = "direct" if cand == frozenset({idx}) else "parity_xor"
            chosen.append(RecoveryEntry(idx, cand, rule))
            used.update(cand)
            if backtrack(t + 1):
                return True
            used.difference_update(cand)
            chosen.pop()
        return False

    return RecoveryPlan(tuple(chosen)) if backtrack(0) else None


# small spreads: k in {1, 2}, q in {2, 3, 4, 5}
BATCH_GRID = [(1, 3, 2), (1, 3, 3), (1, 3, 4), (1, 3, 5), (1, 4, 3), (2, 5, 2), (2, 5, 3), (2, 5, 4)]


@pytest.fixture(scope="module")
def code(four_line_family):
    return BatchCode(four_line_family)


def test_length_formulas(code):
    # K = 2^3 and one parity per coset of each of the 4 members
    assert code.K == 8
    assert code.cosets_per_member == 4
    assert code.N == 8 + 4 * 4 == 24
    assert code.L_aad == 1
    assert batch_s(4, 1) == 4


def test_encode_zero(code):
    assert code.encode([0] * 8) == [0] * 24


def test_encode_single_bit_flips_one_parity_per_member(code):
    for idx in range(8):
        x = [0] * 8
        x[idx] = 1
        y = code.encode(x)
        assert sum(y[8:]) == len(code.family)


def test_encode_validates_input(code):
    with pytest.raises(ValueError):
        code.encode([0] * 7)
    with pytest.raises(ValueError):
        code.encode([0] * 7 + [3])


def test_parity_positions_cover_exactly_once(code):
    layout = code.parity_layout()
    positions = [entry["position"] for entry in layout]
    assert sorted(positions) == list(range(code.K, code.N))
    # ordered by (member, coset rep lexicographic)
    keys = [(e["member"], tuple(e["rep"])) for e in layout]
    assert keys == sorted(keys)


def test_layout_json(code):
    obj = code.layout_json()
    assert obj["K"] == 8 and obj["N"] == 24
    assert len(obj["parities"]) == 16


def test_recovery_candidates(code):
    for idx in range(code.K):
        cands = code.recovery_sets_for(idx)
        assert len(cands) == 1 + len(code.family) == 5
        assert cands[0] == frozenset({idx})
        # non-singleton candidates: parity + the q^k - 1 other coset points
        for c in cands[1:]:
            assert len(c) == 2  # q^k = 2
            assert idx not in c
        for a, b in itertools.combinations(cands, 2):
            assert not (a & b)
    with pytest.raises(ValueError):
        code.recovery_sets_for(code.K)


def test_decode_consistency_random(code):
    rng = random.Random(123)
    for _ in range(1000):
        x = [rng.randrange(2) for _ in range(code.K)]
        y = code.encode(x)
        idx = rng.randrange(code.K)
        for cand in code.recovery_sets_for(idx):
            assert code.recover(y, cand) == x[idx]


def test_plan_recovery_disjoint(code):
    plan = code.plan_recovery([0, 0, 3, 5])
    assert plan is not None
    positions = [e.positions for e in plan.entries]
    assert sum(map(len, positions)) == len(frozenset().union(*positions))
    assert {e.request for e in plan.entries} == {0, 3, 5}
    rules = {e.rule for e in plan.entries}
    assert rules <= {"direct", "parity_xor"}


def test_verify_batch_exhaustive_s4(code):
    total = sum(1 for _ in itertools.combinations_with_replacement(range(8), 4))
    assert total == 330
    ok, ce = verify_batch(code, 4, mode="exhaustive")
    assert ok and ce is None


def test_verify_batch_monotone(code):
    for s in (1, 2, 3):
        ok, _ = verify_batch(code, s, mode="exhaustive")
        assert ok


def test_verify_batch_s1_trivial(code):
    ok, _ = verify_batch(code, 1, mode="exhaustive")
    assert ok


def test_verify_batch_counterexample(code):
    # six copies of one bit exceed its five candidate sets
    ok, ce = verify_batch(code, 6, mode="exhaustive")
    assert not ok
    assert ce == (0,) * 6


def test_verify_batch_sampled_deterministic(code):
    a = verify_batch(code, 4, mode="sampled", trials=50, seed=7)
    b = verify_batch(code, 4, mode="sampled", trials=50, seed=7)
    assert a == b == (True, None)


def test_verify_batch_sampled_counterexample(code):
    # ten requests exceed the five candidates of a bit drawn three times
    assert verify_batch(code, 10, mode="sampled", trials=50, seed=1) == (False, (1, 1, 1, 2, 3, 4, 6, 7, 7, 7))


def test_verify_batch_validates(code):
    with pytest.raises(ValueError):
        verify_batch(code, 0)
    with pytest.raises(ValueError):
        verify_batch(code, 2, mode="bogus")
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_batch(code, 2, mode="sampled", trials=trials)


def test_recovery_search_budget(code):
    # six copies of one bit exceed its five candidates; proving it takes
    # over 1,000 candidate tests, but under 3,000
    assert verify_batch(code, 6, guard=3000) == (False, (0,) * 6)
    with pytest.raises(SizeGuardError, match="batch recovery search needs 1001 candidate tests, over the guard 1000"):
        verify_batch(code, 6, guard=1000)
    # plans take no budget
    assert code.plan_recovery([0] * 6) is None


def test_batch_code_ternary_field():
    fam = build_rs_family(3, 1, make_field(3))
    c = BatchCode(fam)
    assert c.K == 27
    assert c.N == 27 + 3 * 9 == 54
    # coset size q^k = 3: parity plus two other information bits
    cands = c.recovery_sets_for(5)
    assert all(len(s) == 3 for s in cands[1:])
    rng = random.Random(9)
    for _ in range(50):
        x = [rng.randrange(2) for _ in range(27)]
        y = c.encode(x)
        idx = rng.randrange(27)
        for cand in c.recovery_sets_for(idx):
            assert c.recover(y, cand) == x[idx]
    s = batch_s(len(fam), c.L_aad)
    assert s == 3
    ok, _ = verify_batch(c, s, mode="sampled", trials=300, seed=1)
    assert ok


# ---------------------------------------------------------------------------
# Coset tables against the slow oracle
# ---------------------------------------------------------------------------


@DIFFERENTIAL
@given(families(BATCH_GRID), st.randoms(use_true_random=False))
def test_tables_match_oracle(fam, rng):
    code = BatchCode(fam)
    for idx in range(code.K):
        assert code.recovery_sets_for(idx) == oracle_recovery_sets(code, idx)
    # one code encodes every vector, so all but the first reuse its words
    vectors = [[0] * code.K, [1] * code.K] + [[rng.randrange(2) for _ in range(code.K)] for _ in range(5)]
    for x in vectors:
        assert code.encode(x) == oracle_encode(code, x)


@DIFFERENTIAL
@given(families(BATCH_GRID), st.data())
def test_plan_matches_oracle(fam, data):
    code = BatchCode(fam)
    # a small pool makes repeated indices common; one code plans every
    # multiset twice, so later plans read the direct entries earlier ones
    # cached
    pool = data.draw(st.lists(st.integers(0, code.K - 1), min_size=1, max_size=4))
    for _ in range(4):
        requests = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=len(fam) + 2))
        expected = oracle_plan(code, requests)
        assert code.plan_recovery(requests) == expected
        assert code.plan_recovery(requests[::-1]) == expected
    assert set(code._direct) <= set(pool)


@DIFFERENTIAL
@given(families(BATCH_GRID), st.data())
def test_repeat_free_plan_matches_oracle(fam, data):
    # drawn from every index, so lists longer than any small pool occur
    code = BatchCode(fam)
    requests = data.draw(st.lists(st.integers(0, code.K - 1), unique=True, max_size=len(fam) + 2))
    assert code.plan_recovery(requests) == oracle_plan(code, requests)


@pytest.fixture(scope="module")
def rs_code(f3):
    return BatchCode(build_rs_family(3, 1, f3))


@pytest.fixture(params=["code", "rs_code"])
def edge_code(request):
    return request.getfixturevalue(request.param)


def test_plan_validates_every_index(edge_code):
    code = edge_code
    for requests in ([0, code.K], [-1]):
        with pytest.raises(ValueError):
            code.plan_recovery(requests)
    # the plan for the valid part fails before the bad index is reached
    requests = [0] * (len(code.family) + 2) + [code.K]
    assert code.plan_recovery(requests[:-1]) is None
    with pytest.raises(ValueError):
        code.plan_recovery(requests)


@pytest.mark.parametrize("requests", [[1.5], [True, 2], [2.0, 2.0]])
def test_plan_refuses_non_int_index(rs_code, requests):
    # a float or bool index once reached the plan or a list lookup
    with pytest.raises(TypeError, match="expected an integer"):
        rs_code.plan_recovery(requests)


@pytest.mark.parametrize("idx", [1.5, True])
def test_recovery_sets_refuse_non_int_index(rs_code, idx):
    with pytest.raises(TypeError, match="expected an integer"):
        rs_code.recovery_sets_for(idx)


@pytest.mark.parametrize("symbol", [1.0, "1"])
def test_encode_refuses_non_int_symbol(rs_code, symbol):
    x = [0] * rs_code.K
    x[4] = symbol
    with pytest.raises(TypeError):
        rs_code.encode(x)


def test_encode_reads_bool_symbols_as_int_bits(rs_code):
    x = [0] * rs_code.K
    x[4] = 1
    y = rs_code.encode([bool(b) for b in x])
    assert y == rs_code.encode(x)
    assert {type(b) for b in y} == {int}


def test_plan_uses_every_candidate(edge_code):
    code = edge_code
    requests = [1] * (1 + len(code.family))
    plan = code.plan_recovery(requests)
    assert plan is not None and plan == oracle_plan(code, requests)
    assert [e.positions for e in plan.entries] == code.recovery_sets_for(1)
    assert [e.rule for e in plan.entries] == ["direct"] + ["parity_xor"] * len(code.family)


def test_plan_past_candidate_count_fails(edge_code):
    code = edge_code
    requests = [1] * (2 + len(code.family))
    assert code.plan_recovery(requests) is None
    assert oracle_plan(code, requests) is None


def test_plan_empty_request(edge_code):
    assert edge_code.plan_recovery([]) == oracle_plan(edge_code, []) == RecoveryPlan(())


def test_plan_builds_only_tested_candidates(edge_code, monkeypatch):
    # a fresh code: the module's codes may hold direct entries already
    code = BatchCode(edge_code.family)
    built = []
    candidate = BatchCode._candidate

    def counted(self, idx, a):
        built.append((idx, a))
        return candidate(self, idx, a)

    monkeypatch.setattr(BatchCode, "_candidate", counted)
    requests = list(range(0, code.K, 2))[: len(code.family)]
    plan = code.plan_recovery(requests)
    assert [e.rule for e in plan.entries] == ["direct"] * len(requests)
    assert built == [(idx, 0) for idx in requests]
    # the same plan again reads the cached direct entries
    built.clear()
    assert code.plan_recovery(requests[::-1]) == plan
    assert built == []


def test_repeat_free_plans_share_direct_entries(edge_code):
    code = BatchCode(edge_code.family)
    first = code.plan_recovery([3, 1])
    second = code.plan_recovery([1, 2])
    assert first.entries[0] is second.entries[0]  # index 1
    assert first.entries[0] == RecoveryEntry(1, frozenset({1}), "direct")
    # only repeat-free plans fill the cache, one entry per index
    assert code.plan_recovery([1, 1]).entries[0] == first.entries[0]
    assert code.plan_recovery([4, 4]) is not None
    assert sorted(code._direct) == [1, 2, 3]


def test_plans_leave_no_cyclic_garbage():
    code = BatchCode(build_rs_family(4, 1, make_field(5)))
    s = batch_s(len(code.family), code.L_aad)
    rng = random.Random(3)
    requests = [[rng.randrange(code.K) for _ in range(s)] for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for req in requests:
            assert code.plan_recovery(req) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Exhaustive verification by translation classes against the full sweep
# ---------------------------------------------------------------------------


def full_sweep(code, s):
    """Every multiset of s requests in lexicographic order, each planned."""
    for multiset in itertools.combinations_with_replacement(range(code.K), s):
        if code.plan_recovery(multiset) is None:
            return False, multiset
    return True, None


def translate(code, requests, t):
    """The requests moved by point t, through field addition of coordinates."""
    f = code.family.field
    shift = index_point(code, t)
    return [point_index(code, tuple(f.add(x, y) for x, y in zip(index_point(code, idx), shift))) for idx in requests]


# k = 1 spreads whose full sweeps stay small
K1_GRID = [(1, 3, 2), (1, 3, 3), (1, 4, 2)]
FULL_SWEEP_LIMIT = 6435  # C(15, 8): every s up to |F| + 2 over GF(2)^3


def test_exhaustive_matches_full_sweep_on_fixed_codes(edge_code):
    code = edge_code
    for s in range(1, len(code.family) + 3):
        assert verify_batch(code, s, "exhaustive") == full_sweep(code, s)


@DIFFERENTIAL
@given(families(K1_GRID), st.data())
def test_exhaustive_matches_full_sweep(fam, data):
    code = BatchCode(fam)
    s = data.draw(st.integers(1, len(fam) + 2))
    # past |F| + 1 requests the full sweep stops at its first multiset
    assume(s == len(fam) + 2 or math.comb(code.K + s - 1, s) <= FULL_SWEEP_LIMIT)
    assert verify_batch(code, s, "exhaustive") == full_sweep(code, s)


@DIFFERENTIAL
@given(families(BATCH_GRID), st.data())
def test_translation_preserves_servability(fam, data):
    code = BatchCode(fam)
    # a small pool makes repeated indices, and so failures, common
    pool = data.draw(st.lists(st.integers(0, code.K - 1), min_size=1, max_size=3))
    requests = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(fam) + 2))
    t = data.draw(st.integers(0, code.K - 1))
    moved = translate(code, requests, t)
    assert (code.plan_recovery(requests) is None) == (code.plan_recovery(moved) is None)


def test_exhaustive_checks_one_multiset_per_translation_class(code, monkeypatch):
    visited, searched = [], []
    multisets, assign = batch._request_multisets, BatchCode._assign

    def recorded(*args):
        for multiset in multisets(*args):
            visited.append(multiset)
            yield multiset

    def counted(self, requests):
        searched.append(requests)
        return assign(self, requests)

    monkeypatch.setattr(batch, "_request_multisets", recorded)
    monkeypatch.setattr(BatchCode, "_assign", counted)
    assert verify_batch(code, 4, "exhaustive") == (True, None)
    # C(10, 3) multisets 0 + rest, in lexicographic order, against C(11, 4) = 330
    assert visited == [(0,) + rest for rest in itertools.combinations_with_replacement(range(8), 3)]
    assert len(visited) == 120
    # only those that repeat an index enter the recovery search
    assert searched == [m for m in visited if len(set(m)) < 4]


def randrange_multisets(K, s, trials, seed):
    """The sampled request multisets as randrange draws them."""
    rng = random.Random(seed)
    return [tuple(sorted(rng.randrange(K) for _ in range(s))) for _ in range(trials)]


@given(
    st.one_of(st.integers(2, 5000), st.integers(2, 70).flatmap(lambda m: st.sampled_from([2**m - 1, 2**m, 2**m + 1]))),
    st.integers(1, 12),
    st.integers(1, 30),
    st.integers(0, 2**64),
)
def test_sampled_multisets_are_the_randrange_stream(K, s, trials, seed):
    assert list(batch._request_multisets(K, s, "sampled", trials, seed)) == randrange_multisets(K, s, trials, seed)


def _assign_every_multiset(code, s, mode, trials=1000, seed=0):
    """verify_batch as a loop that runs the recovery search on every
    multiset, repeat-free ones included."""
    if mode == "exhaustive":
        multisets = ((0,) + rest for rest in itertools.combinations_with_replacement(range(code.K), s - 1))
    else:
        multisets = randrange_multisets(code.K, s, trials, seed)
    for multiset in multisets:
        if code._assign(multiset) is None:
            return False, multiset
    return True, None


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_verify_batch_matches_assigning_every_multiset(edge_code, s):
    # exhaustive: four lines hold for s <= 4; RS(3,1,3), with 27 bits,
    # only up to s = 4 (s = 5, 6 take the sampled cases below)
    if s <= 4 or len(edge_code.family) == 4:
        assert verify_batch(edge_code, s, "exhaustive") == _assign_every_multiset(edge_code, s, "exhaustive")
    for seed in range(3):
        for size in (s, 2 * s, 4 * s):
            expected = _assign_every_multiset(edge_code, size, "sampled", trials=200, seed=seed)
            assert verify_batch(edge_code, size, "sampled", trials=200, seed=seed) == expected


def test_verify_batch_builds_no_plans(edge_code, monkeypatch):
    def refuse(*args):
        raise AssertionError("verification built a plan object")

    monkeypatch.setattr(batch, "RecoveryPlan", refuse)
    monkeypatch.setattr(batch, "RecoveryEntry", refuse)
    code = edge_code
    s = len(code.family)
    assert verify_batch(code, s, "exhaustive") == (True, None)
    assert verify_batch(code, s, "sampled", trials=50, seed=1) == (True, None)
    assert verify_batch(code, s + 2, "exhaustive") == (False, (0,) * (s + 2))
    with pytest.raises(AssertionError):
        code.plan_recovery([0])
