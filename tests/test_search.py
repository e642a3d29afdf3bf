import pytest

from subspace_forge import family
from subspace_forge.gf import make_field
from subspace_forge.family import check_partial_spread, compute_L_aad
from subspace_forge.constructions import max_family_size_bound
from subspace_forge.search import (
    SearchConfig,
    exhaustive_max_family,
    greedy_max_family,
)


def test_exhaustive_optimum_q2(f2):
    cfg = SearchConfig(f2, 3, 1, 1)
    res = exhaustive_max_family(cfg)
    assert res.size == 4
    assert res.optimality_proven
    assert res.bound == max_family_size_bound(3, 1, 1, 2) == 4
    fam = res.family
    assert len(fam) == 4
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1


def test_exhaustive_L0_forces_singleton(f2):
    res = exhaustive_max_family(SearchConfig(f2, 3, 1, 0))
    assert res.size == 1
    assert res.optimality_proven
    assert res.bound == 1


def test_exhaustive_optimum_q3(f3):
    res = exhaustive_max_family(SearchConfig(f3, 3, 1, 1))
    # artifact-generated ground truth: optimum 4, strictly below the bound 5
    assert res.size == 4
    assert res.optimality_proven
    assert res.bound == 5
    assert res.size <= res.bound


def test_symmetry_break_preserves_optimum(f2, f3):
    for field in (f2, f3):
        on = exhaustive_max_family(SearchConfig(field, 3, 1, 1, symmetry_break=True))
        off = exhaustive_max_family(SearchConfig(field, 3, 1, 1, symmetry_break=False))
        assert on.size == off.size
        assert on.optimality_proven and off.optimality_proven


def test_incumbent_always_feasible(f2):
    res = exhaustive_max_family(SearchConfig(f2, 4, 1, 1))
    fam = res.family
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1
    assert res.size <= res.bound


def test_budget_exhaustion_returns_incumbent(f3):
    res = exhaustive_max_family(SearchConfig(f3, 3, 1, 1, node_budget=3))
    assert not res.optimality_proven
    assert res.size >= 1
    assert check_partial_spread(res.family)[0]


def test_exhaustive_space_limit():
    f25 = make_field(5, 2)
    with pytest.raises(ValueError):
        SearchConfig(f25, 4, 1, 1)  # 16276 lines > 10^4


def test_config_validation(f2):
    with pytest.raises(ValueError):
        SearchConfig(f2, 4, 2, 1)  # 2k = n
    with pytest.raises(ValueError):
        SearchConfig(f2, 3, 1, 1, mode="magic")
    with pytest.raises(ValueError):
        SearchConfig(f2, 3, 1, -1)


def test_greedy_feasible_and_reproducible(f2):
    cfg = SearchConfig(f2, 3, 1, 1, mode="greedy")
    fam = greedy_max_family(cfg, seed=5)
    assert check_partial_spread(fam)[0]
    assert compute_L_aad(fam)[0] <= 1
    fam2 = greedy_max_family(cfg, seed=5)
    assert fam.to_json() == fam2.to_json()


def test_greedy_never_beats_exhaustive(f2, f3):
    for field in (f2, f3):
        opt = exhaustive_max_family(SearchConfig(field, 3, 1, 1)).size
        for seed in range(5):
            g = greedy_max_family(SearchConfig(field, 3, 1, 1, mode="greedy"), seed)
            assert len(g) <= opt


def test_certificate_json(f2):
    res = exhaustive_max_family(SearchConfig(f2, 3, 1, 1))
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
        exhaustive = exhaustive_max_family(SearchConfig(f2, 4, 1, 1)).to_json()
        greedy = greedy_max_family(SearchConfig(f2, 4, 1, 1, mode="greedy"), seed=3)
        return exhaustive, greedy.to_json()

    expected = run()

    def scan(fam):
        raise AssertionError("search ran the pairwise spread scan")

    monkeypatch.setattr(family, "check_partial_spread", scan)
    assert run() == expected
