"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every assertion is exact; runtime ceilings are the
stated per-case budgets.
"""

import itertools
import random
import time

import pytest

from subspace_forge.gf import field_from_order, make_field
from subspace_forge.subspace import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
)
from subspace_forge.family import (
    Family,
    check_partial_spread,
    check_relations,
    compute_L_aad,
    compute_L_as,
    coset_hits,
    coset_hits_bruteforce,
    VerificationReport,
)
from subspace_forge.constructions import (
    max_family_size_bound,
    build_code_based_family,
    build_random_family,
    build_rs_family,
    random_sample_size,
    rs_guaranteed_L,
    vandermonde_matrix,
)
from subspace_forge.search import exhaustive_max_family, greedy_max_family
from subspace_forge.batch import BatchCode, batch_s, verify_batch
from test_subspace import all_vectors


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared builds (timed once, reused by the compliance criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rs_k1():
    out = {}
    for n, q in [(3, 5), (3, 7), (3, 8), (4, 5), (4, 7), (5, 7)]:
        t0 = time.perf_counter()
        fam = build_rs_family(n, 1, field_from_order(q))
        spread_ok, _ = check_partial_spread(fam)
        L, witness = compute_L_aad(fam)
        dt = time.perf_counter() - t0
        out[(n, q)] = {"family": fam, "spread": spread_ok, "L": L, "seconds": dt}
    return out


@pytest.fixture(scope="module")
def rs_k2():
    out = {}
    for n, q in [(5, 11), (5, 13)]:
        t0 = time.perf_counter()
        fam = build_rs_family(n, 2, field_from_order(q))
        spread_ok, _ = check_partial_spread(fam)
        L, _ = compute_L_aad(fam)
        dt = time.perf_counter() - t0
        out[(n, q)] = {"family": fam, "spread": spread_ok, "L": L, "seconds": dt}
    return out


@pytest.fixture(scope="module")
def rs_k3():
    t0 = time.perf_counter()
    fam = build_rs_family(7, 3, field_from_order(23))
    spread_ok, _ = check_partial_spread(fam)
    dt = time.perf_counter() - t0
    return {"family": fam, "spread": spread_ok, "seconds": dt}


@pytest.fixture(scope="module")
def code_based():
    out = {}
    for q in (5, 7):
        t0 = time.perf_counter()
        field = field_from_order(q)
        fam = build_code_based_family(field, vandermonde_matrix(field, 3), 1)
        L, _ = compute_L_aad(fam)
        dt = time.perf_counter() - t0
        out[q] = {"family": fam, "L": L, "seconds": dt}
    return out


@pytest.fixture(scope="module")
def search_q2():
    t0 = time.perf_counter()
    res = exhaustive_max_family(make_field(2), 3, 1, 1)
    dt = time.perf_counter() - t0
    return {"result": res, "seconds": dt}


@pytest.fixture(scope="module")
def random_run():
    field = make_field(5)
    a = build_random_family(5, 1, 7, field, seed=1)
    b = build_random_family(5, 1, 7, field, seed=1)
    return {"first": a, "second": b}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_rs_k1(rs_k1):
    details = []
    ok = True
    for (n, q), r in rs_k1.items():
        good = r["spread"] and r["L"] <= n - 1 and r["seconds"] < 10.0
        ok = ok and good
        details.append(f"({n},{q}): L={r['L']}<=n-1={n - 1} {r['seconds']:.2f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_02_rs_k2(rs_k2):
    guarantee = rs_guaranteed_L(5, 2)
    details = []
    ok = guarantee == 31
    for (n, q), r in rs_k2.items():
        good = r["spread"] and r["L"] <= guarantee and r["seconds"] < 60.0
        ok = ok and good
        details.append(f"({n},{q}): L={r['L']}<=31 {r['seconds']:.2f}s")
    _report(2, ok, "; ".join(details))


def test_criterion_03_rs_k3_spread(rs_k3):
    fam = rs_k3["family"]
    ok = len(fam) == 23 and rs_k3["spread"] and rs_k3["seconds"] < 5.0
    _report(3, ok, f"(7,23): m={len(fam)} spread={rs_k3['spread']} {rs_k3['seconds']:.2f}s")


def test_criterion_04_search_attains_size_bound(search_q2):
    res = search_q2["result"]
    bound = max_family_size_bound(3, 1, 1, 2)
    ok = (
        res.size == 4
        and res.optimality_proven
        and bound == 4
        and res.size == bound
        and search_q2["seconds"] < 1.0
    )
    _report(
        4,
        ok,
        f"exhaustive (3,1,L=1,q=2): size={res.size} proven={res.optimality_proven} "
        f"bound={bound} {search_q2['seconds']:.3f}s",
    )


def test_criterion_05_size_bound_compliance(rs_k1, rs_k2, rs_k3, code_based, search_q2, random_run):
    families = []
    for r in rs_k1.values():
        families.append((r["family"], r["L"]))
    for r in rs_k2.values():
        families.append((r["family"], r["L"]))
    k3 = rs_k3["family"]
    families.append((k3, compute_L_aad(k3)[0]))
    for r in code_based.values():
        families.append((r["family"], r["L"]))
    searched = search_q2["result"].family
    families.append((searched, compute_L_aad(searched)[0]))
    greedy = greedy_max_family(make_field(3), 3, 1, 1, seed=5)
    families.append((greedy, compute_L_aad(greedy)[0]))
    rnd = random_run["first"].family
    families.append((rnd, compute_L_aad(rnd)[0]))

    failures = [
        (len(fam), fam.n, fam.k, fam.field.q)
        for fam, L in families
        if len(fam) > max_family_size_bound(fam.n, fam.k, L, fam.field.q)
    ]
    _report(
        5,
        not failures,
        f"{len(families)} families from all builders and search comply with the size bound"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_06_relation_suite(rs_k1, four_line_family):
    # families with full AS enumeration at (n,q) in {(3,2),(3,3),(3,5),(4,3)}
    points = {}
    points[(3, 2)] = four_line_family
    points[(3, 3)] = build_rs_family(3, 1, make_field(3))
    points[(3, 5)] = rs_k1[(3, 5)]["family"]
    points[(4, 3)] = greedy_max_family(make_field(3), 4, 1, 2, seed=11)

    ok = True
    details = []
    for (n, q), fam in points.items():
        L_aad, _ = compute_L_aad(fam)
        L_as, _ = compute_L_as(fam)
        report = VerificationReport(L_aad=L_aad, L_as=L_as)
        rel_ok, _ = check_relations(fam, report)
        eq_ok = L_as == L_aad + 1  # k=1 equality
        ok = ok and rel_ok and eq_ok
        details.append(f"({n},{q}): L_aad={L_aad} L_as={L_as}")
    _report(6, ok, "L_aad<=L_as-1 and k=1 equality L_as=L_aad+1 at " + "; ".join(details))


def test_criterion_07_code_based(code_based):
    ok = True
    details = []
    for q, r in code_based.items():
        good = r["L"] <= 1 and r["seconds"] < 1.0
        ok = ok and good
        details.append(f"F_{q}: m={len(r['family'])} L_aad={r['L']} {r['seconds']:.2f}s")
    _report(7, ok, "3xq Vandermonde, k=1: " + "; ".join(details))


def test_criterion_08_batch(four_line_family):
    t0 = time.perf_counter()
    code = BatchCode(four_line_family)
    s = batch_s(len(four_line_family), code.L_aad)
    multisets = sum(1 for _ in itertools.combinations_with_replacement(range(code.K), s))
    verified, counterexample = verify_batch(code, s, mode="exhaustive")
    dt = time.perf_counter() - t0
    ok = (
        code.N == 24
        and s == 4
        and multisets == 330
        and verified
        and counterexample is None
        and dt < 5.0
    )
    _report(8, ok, f"N={code.N} s={s} multisets={multisets} verified={verified} {dt:.2f}s")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(20200613)
    fields = {2: make_field(2), 3: make_field(3)}
    mismatches = 0
    pairs_checked = 0
    for trial in range(100):
        q = [2, 3][trial % 2]
        n = [3, 4][(trial // 2) % 2]
        field = fields[q]
        lines = {}
        size = rng.randrange(2, 5)
        while len(lines) < size:
            v = tuple(rng.randrange(q) for _ in range(n))
            if any(v):
                S = Subspace.from_generators(field, n, [v])
                lines[S.key()] = S
        fam = Family(field, n, 1, tuple(lines.values()))
        for i in range(len(fam)):
            for u in all_vectors(field, n):
                if fam.members[i].contains(u):
                    continue
                if coset_hits(fam, i, u) != coset_hits_bruteforce(fam, i, u):
                    mismatches += 1
                pairs_checked += 1
    _report(
        9,
        mismatches == 0,
        f"100 seeded families, {pairs_checked} (member, coset) pairs, {mismatches} mismatches",
    )


def test_criterion_10_enumeration_counts():
    checked = 0
    bad = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_from_order(q)
        for n in range(1, 7):
            for k in range(1, n + 1):
                expected = gaussian_binomial(n, k, q)
                if expected > 10**4:
                    continue
                observed = sum(1 for _ in enumerate_subspaces(field, n, k))
                if observed != expected:
                    bad.append((q, n, k, observed, expected))
                checked += 1
    _report(
        10,
        not bad,
        f"{checked} (q,n,k) points with count <= 10^4 match the closed form"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_11_random_construction(random_run):
    res = random_run["first"]
    fam = res.family
    spread_ok, _ = check_partial_spread(fam)
    L_as, _ = compute_L_as(fam)
    deterministic = res.family.to_json() == random_run["second"].family.to_json()
    ok = (
        res.sampled == 25
        and random_sample_size(5, 1, 7, 5) == 25
        and spread_ok
        and L_as <= 7
        and deterministic
    )
    _report(
        11,
        ok,
        f"(5,1,L=7,q=5) seed=1: M={res.sampled} kept={len(fam)} spread={spread_ok} "
        f"L_as={L_as}<=7 deterministic={deterministic}",
    )
