import functools
import gc
import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from subspace_forge import family, search
from subspace_forge.gf import field_from_order, make_field
from subspace_forge.family import (
    DEFAULT_AS_ENUM_GUARD,
    Family,
    NotAPartialSpread,
    _quotient_point_counts,
    check_partial_spread,
    compute_L_aad,
    count_L_aad,
)
from subspace_forge.constructions import max_family_size_bound
from subspace_forge.subspace import Subspace, enumerate_subspaces
from subspace_forge.search import _Chosen, _feasible, exhaustive_max_family, greedy_max_family


def test_exhaustive_optimum_q2(f2):
    res = exhaustive_max_family(f2, 3, 1, 1)
    assert res.size == 4
    assert res.optimality_proven
    assert res.bound == max_family_size_bound(3, 1, 1, 2) == 4
    fam = res.family
    assert len(fam) == 4
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1


def test_exhaustive_L0_forces_singleton(f2):
    res = exhaustive_max_family(f2, 3, 1, 0)
    assert res.size == 1
    assert res.optimality_proven
    assert res.bound == 1


def test_exhaustive_optimum_q3(f3):
    res = exhaustive_max_family(f3, 3, 1, 1)
    # artifact-generated ground truth: optimum 4, strictly below the bound 5
    assert res.size == 4
    assert res.optimality_proven
    assert res.bound == 5
    assert res.size <= res.bound


def test_symmetry_break_preserves_optimum(f2, f3):
    for field in (f2, f3):
        on = exhaustive_max_family(field, 3, 1, 1, symmetry_break=True)
        off = exhaustive_max_family(field, 3, 1, 1, symmetry_break=False)
        assert on.size == off.size
        assert on.optimality_proven and off.optimality_proven


def test_incumbent_always_feasible(f2):
    res = exhaustive_max_family(f2, 4, 1, 1)
    fam = res.family
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1
    assert res.size <= res.bound


def test_budget_exhaustion_returns_incumbent(f3):
    res = exhaustive_max_family(f3, 3, 1, 1, node_budget=3)
    assert not res.optimality_proven
    assert res.size >= 1
    assert check_partial_spread(res.family)[0]


def test_exhaustive_space_limit():
    # the library guards no candidates, as in greedy search: the CLI
    # checks their count, and the node budget bounds the run
    f25 = make_field(5, 2)
    res = exhaustive_max_family(f25, 4, 1, 1, node_budget=50)  # 16276 lines
    assert (res.optimality_proven, res.nodes) == (False, 51)
    default = inspect.signature(exhaustive_max_family).parameters["node_budget"].default
    assert default == DEFAULT_AS_ENUM_GUARD


def test_parameter_validation(f2):
    with pytest.raises(ValueError):
        exhaustive_max_family(f2, 4, 2, 1)  # 2k = n
    with pytest.raises(ValueError):
        exhaustive_max_family(f2, 3, 1, -1)
    with pytest.raises(ValueError):
        exhaustive_max_family(f2, 3, 1, 1, node_budget=0)
    with pytest.raises(ValueError):
        greedy_max_family(f2, 4, 2, 1, seed=0)  # 2k = n
    with pytest.raises(ValueError):
        greedy_max_family(f2, 3, 1, -1, seed=0)


def test_greedy_takes_no_exhaustive_options(f2):
    # greedy search runs no branch-and-bound, so it has nothing to read them
    for option in ({"node_budget": 1}, {"symmetry_break": False}):
        with pytest.raises(TypeError):
            greedy_max_family(f2, 3, 1, 1, seed=0, **option)


def test_greedy_feasible_and_reproducible(f2):
    fam = greedy_max_family(f2, 3, 1, 1, seed=5)
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1
    fam2 = greedy_max_family(f2, 3, 1, 1, seed=5)
    assert fam.to_json() == fam2.to_json()


def test_greedy_never_beats_exhaustive(f2, f3):
    for field in (f2, f3):
        opt = exhaustive_max_family(field, 3, 1, 1).size
        for seed in range(5):
            g = greedy_max_family(field, 3, 1, 1, seed)
            assert len(g) <= opt


def test_certificate_json(f2):
    res = exhaustive_max_family(f2, 3, 1, 1)
    cert = res.to_json()
    assert cert["optimum"] == 4
    assert cert["bound"] == 4
    assert cert["proven"] is True
    assert cert["nodes"] >= 1
    assert cert["q"] == 2
    assert "family" in cert and len(cert["family"]["members"]) == 4
    assert "provenance" in cert


def test_search_needs_no_spread_scan(f2, monkeypatch):
    # _feasible keeps every family a partial spread, so the verifier's own
    # loop never meets a fault and the pairwise scan is never needed
    def run():
        exhaustive = exhaustive_max_family(f2, 4, 1, 1).to_json()
        greedy = greedy_max_family(f2, 4, 1, 1, seed=3)
        return exhaustive, greedy.to_json()

    expected = run()

    def scan(fam):
        raise AssertionError("search ran the pairwise spread scan")

    monkeypatch.setattr(family, "check_partial_spread", scan)
    assert run() == expected


def test_exhaustive_search_leaves_no_cyclic_garbage(f2):
    # the candidate list and the tallies die with the call, not at the
    # next full collection: exhaustive k = 2 with and without a budget
    # hit, and greedy k = 2
    runs = [
        lambda: exhaustive_max_family(f2, 5, 2, 1),
        lambda: exhaustive_max_family(f2, 5, 2, 3, node_budget=2000),
        lambda: greedy_max_family(f2, 6, 2, 2, seed=1),
    ]
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_feasible_is_called_once_per_node_after_the_first(f2, monkeypatch):
    # the symmetry-broken search places its first member untested and
    # tests every later node's candidate once, through search._feasible
    calls = 0
    feasible = search._feasible

    def counted(*args):
        nonlocal calls
        calls += 1
        return feasible(*args)

    monkeypatch.setattr(search, "_feasible", counted)
    res = exhaustive_max_family(f2, 5, 2, 1)
    assert res.nodes == 8092 and res.optimality_proven
    assert calls == res.nodes - 1


def _limited_count_feasible(field, n, k, L, members):
    """The old test of a candidate: the AAD count of the new family, at
    most L, where a family that is not a partial spread fails."""
    fam = Family(field, n, k, tuple(members))
    try:
        return count_L_aad(fam)[0] <= L
    except NotAPartialSpread:
        return False


def _chosen(field, k, L, members):
    """Search state built fresh by pushing members in order."""
    chosen = _Chosen(k, L)
    for S in members:
        chosen.push(S)
    return chosen


def _tallies(chosen):
    # dicts, not Counters: a key left at count 0 must make them differ
    return [dict(counts) for _, _, counts in chosen.tallies]


def _draw(rng, field, n, k):
    """A uniform-ish random k-subspace of GF(q)^n."""
    q = field.q
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if any(map(any, rows)):
            S = Subspace.from_generators(field, n, rows)
            if S.k == k:
                return S


# (n, q) for k = 1, with the extension fields GF(4), GF(8) and GF(9)
LINE_SEARCH_GRID = [(3, 2), (3, 3), (3, 4), (3, 5), (3, 8), (3, 9), (4, 2), (4, 3), (4, 4)]
# (n, q) for k = 2, where a candidate may meet a chosen member
PLANE_SEARCH_GRID = [(5, 2), (5, 3), (5, 4)]
# (n, k, q) for the k >= 2 tallies: the planes above and a k = 3 space
TALLY_SEARCH_GRID = [(n, 2, q) for n, q in PLANE_SEARCH_GRID] + [(7, 3, 2)]


@functools.cache
def _lines(n, q):
    return tuple(enumerate_subspaces(field_from_order(q), n, 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LINE_SEARCH_GRID), st.integers(1, 3), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_k1_feasible_tests_the_planes_through_the_candidate(space, L, tries, seed):
    # chosen is grown feasible by the old test, as both searches grow it;
    # then every candidate outside it gets the same answer from both tests
    n, q = space
    field = field_from_order(q)
    points = _lines(n, q)
    order = random.Random(seed).sample(points, len(points))
    chosen = []
    for cand in order[:tries]:
        if _limited_count_feasible(field, n, 1, L, chosen + [cand]):
            chosen.append(cand)
    state = _chosen(field, 1, L, chosen)
    for cand in order[tries : tries + 12]:
        assert _feasible(state, cand) == _limited_count_feasible(field, n, 1, L, chosen + [cand])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PLANE_SEARCH_GRID), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_k2_feasible_is_the_limited_count(space, L, seed):
    n, q = space
    field = field_from_order(q)
    rng = random.Random(seed)
    chosen = []
    for _ in range(12):
        cand = _draw(rng, field, n, 2)
        if any(cand.key() == S.key() for S in chosen):
            continue
        expected = _limited_count_feasible(field, n, 2, L, chosen + [cand])
        assert _feasible(_chosen(field, 2, L, chosen), cand) == expected
        if expected:
            chosen.append(cand)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TALLY_SEARCH_GRID), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_tallies_follow_tests_pushes_and_pops(space, L, seed):
    # a random run of tests, accepts and backtracks on one state: every
    # answer is the full count's, every push leaves each member's tally
    # equal to the AAD count's, and every pop leaves the state a fresh
    # build from the remaining members would have
    n, k, q = space
    field = field_from_order(q)
    rng = random.Random(seed)
    chosen = _Chosen(k, L)
    for _ in range(30):
        if chosen.members and rng.random() < 0.3:
            chosen.pop()
            fresh = _chosen(field, k, L, chosen.members)
            assert chosen.members == fresh.members
            assert _tallies(chosen) == _tallies(fresh)
            continue
        cand = _draw(rng, field, n, k)
        if any(cand.key() == S.key() for S in chosen.members):
            continue
        ok = _feasible(chosen, cand)
        assert ok == _limited_count_feasible(field, n, k, L, chosen.members + [cand])
        if ok and rng.random() < 0.8:
            chosen.push(cand)
            fam = Family(field, n, k, tuple(chosen.members))
            assert _tallies(chosen) == list(map(dict, _quotient_point_counts(fam)))
