import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subspace_forge import constructions
from subspace_forge.gf import SizeGuardError, check_guard, field_from_order, make_field
from subspace_forge.matgf import kernel_basis, rank_of_stack, rref
from subspace_forge.subspace import (
    Subspace,
    checked_gaussian_binomial,
    enumerate_subspaces,
    gaussian_binomial,
)


def all_vectors(field, n):
    """All q^n vectors of GF(q)^n in lexicographic code order."""
    return itertools.product(field.elements(), repeat=n)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_from_generators_scales_to_pivot_one(f5):
    S = Subspace.from_generators(f5, 3, [(2, 4, 0)])
    assert S.row_list() == [(1, 2, 0)]
    assert S.k == 1


def test_from_generators_reduces(f2):
    S = Subspace.from_generators(f2, 3, [(1, 0, 0), (1, 1, 0)])
    assert S.row_list() == [(1, 0, 0), (0, 1, 0)]
    assert S.k == 2


def test_from_generators_parallel_vectors(f5):
    S = Subspace.from_generators(f5, 3, [(1, 2, 0), (2, 4, 0)])
    assert S.k == 1


def test_from_generators_rejects_zero_span(f5):
    with pytest.raises(ValueError):
        Subspace.from_generators(f5, 3, [(0, 0, 0)])
    with pytest.raises(ValueError):
        Subspace.from_generators(f5, 3, [])


@pytest.mark.parametrize("x", [1.7, 2.0, "3", True])
def test_from_generators_refuses_non_int_coordinates(f5, x):
    # the rule of the JSON readers: no coordinate is coerced to an int
    with pytest.raises(TypeError, match="expected an integer"):
        Subspace.from_generators(f5, 2, [(x, 0)])


@pytest.mark.parametrize(
    "n, k, entries", [(3, 1, (1.0, 2, 3)), (3, 1, (True, 2, 3)), (3.0, 1, (1, 2, 3)), (3, True, (1, 2, 3))]
)
def test_direct_constructor_refuses_non_int_input(f5, n, k, entries):
    # the rule of from_json: 1.0 and True would be written to the JSON
    with pytest.raises(TypeError, match="expected an integer"):
        Subspace(f5, n, k, entries)


def test_direct_constructor_rejects_non_canonical(f5):
    with pytest.raises(ValueError):
        Subspace(f5, 3, 1, (2, 4, 0))  # not RREF
    with pytest.raises(ValueError):
        Subspace(f5, 3, 2, (1, 0, 0, 1, 0, 0))  # rank 1


def test_subspace_checks_its_entries(f3):
    with pytest.raises(ValueError, match="entry out of field range"):
        Subspace(f3, 2, 1, (1, 3))
    with pytest.raises(ValueError, match="entry out of field range"):
        Subspace.from_generators(f3, 2, [(1, -1)])
    with pytest.raises(ValueError, match=r"basis shape does not match \(k, n\)"):
        Subspace(f3, 2, 1, (1, 0, 0))
    # four entries are k * n, but as two rows of two, not one row of four
    with pytest.raises(ValueError, match=r"basis shape does not match \(k, n\)"):
        Subspace.from_json(f3, {"n": 4, "k": 1, "basis": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="ragged rows"):
        Subspace.from_json(f3, {"n": 2, "k": 2, "basis": [[1, 0], [1]]})


@st.composite
def near_canonical_matrices(draw):
    """A k x n matrix over a small field: random, or the RREF of a random
    matrix with up to two entries redrawn, so that many are canonical
    rank-k RREF and many miss by one entry."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    field = field_from_order(q)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
    if draw(st.booleans()):
        entries = [x for row in rref(field, [entries[i : i + n] for i in range(0, k * n, n)])[0] for x in row]
        for _ in range(draw(st.integers(0, 2))):
            entries[draw(st.integers(0, k * n - 1))] = draw(st.integers(0, q - 1))
    return field, n, k, tuple(entries)


@settings(max_examples=400, deadline=None)
@given(near_canonical_matrices())
def test_canonical_check_matches_rref_oracle(M):
    field, n, k, entries = M
    R, rk, pivots = rref(field, [entries[i : i + n] for i in range(0, k * n, n)])
    canonical = tuple(x for row in R for x in row) == entries and rk == k
    try:
        S = Subspace(field, n, k, entries)
    except ValueError as exc:
        assert not canonical
        assert str(exc) == "basis is not a canonical rank-k RREF matrix"
    else:
        assert canonical
        assert S.pivots == pivots


def test_canonicality_fixed_point(f3):
    # rebuilding any enumerated subspace from its own basis is the identity
    for S in itertools.islice(enumerate_subspaces(f3, 4, 2), 50):
        assert Subspace.from_generators(f3, 4, S.row_list()) == S


# ---------------------------------------------------------------------------
# membership / intersection / sums
# ---------------------------------------------------------------------------


def test_contains_basics(f5):
    S = Subspace.from_generators(f5, 3, [(1, 0, 0)])
    assert S.contains((0, 0, 0))
    assert S.contains((1, 0, 0))
    assert S.contains((3, 0, 0))
    assert not S.contains((0, 0, 1))


def test_trivially_intersects_vandermonde_lines(f5):
    A = Subspace.from_generators(f5, 3, [(1, 1, 1)])
    B = Subspace.from_generators(f5, 3, [(1, 2, 4)])
    assert A.trivially_intersects(B)


def test_trivially_intersects_self_false(f5):
    A = Subspace.from_generators(f5, 3, [(1, 1, 1)])
    assert not A.trivially_intersects(A)


def test_two_planes_in_dim3_always_meet(f5):
    planes = list(enumerate_subspaces(f5, 3, 2))
    A = planes[0]
    for B in planes[1:10]:
        assert not A.trivially_intersects(B)


def test_trivially_intersects_matches_kernel_route():
    # 500 random pairs: trivial intersection iff the kernel-computed
    # intersection dimension is zero
    rng = random.Random(99)
    fields = [make_field(2), make_field(3), make_field(5)]
    for _ in range(500):
        field = rng.choice(fields)
        n = rng.randrange(2, 6)
        ka = rng.randrange(1, n)
        kb = rng.randrange(1, n)
        A = _random_subspace(field, n, ka, rng)
        B = _random_subspace(field, n, kb, rng)
        KA, KB = kernel_basis(field, A.row_list(), n), kernel_basis(field, B.row_list(), n)
        dim_int = len(kernel_basis(field, KA + KB, n))
        assert A.trivially_intersects(B) == (dim_int == 0)


def _random_subspace(field, n, k, rng):
    while True:
        vecs = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        if any(any(v) for v in vecs):
            S = Subspace.from_generators(field, n, [v for v in vecs if any(v)])
            return S


def test_sum_idempotent(f2):
    A = Subspace.from_generators(f2, 4, [(1, 0, 1, 0), (0, 1, 0, 0)])
    assert A.sum(A) == A


def test_sum_of_disjoint_lines(f3):
    A = Subspace.from_generators(f3, 3, [(1, 0, 0)])
    B = Subspace.from_generators(f3, 3, [(0, 1, 0)])
    assert A.sum(B).k == 2


def test_sum_dimension_formula():
    rng = random.Random(17)
    field = make_field(3)
    for _ in range(100):
        n = rng.randrange(2, 6)
        A = _random_subspace(field, n, rng.randrange(1, n + 1), rng)
        B = _random_subspace(field, n, rng.randrange(1, n + 1), rng)
        dim_int = A.k + B.k - rank_of_stack(field, A.row_list(), B.row_list())
        assert A.sum(B).k == A.k + B.k - dim_int


def test_vectors_enumerates_whole_subspace(f3):
    S = Subspace.from_generators(f3, 3, [(1, 0, 2), (0, 1, 1)])
    pts = set(S.vectors())
    assert len(pts) == 3**2
    assert all(S.contains(p) for p in pts)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_lines_f2_3(f2):
    subs = list(enumerate_subspaces(f2, 3, 1))
    assert len(subs) == 7 == gaussian_binomial(3, 1, 2)


def test_enumerate_planes_f5_4(f5):
    count = sum(1 for _ in enumerate_subspaces(f5, 4, 2))
    assert count == 806 == gaussian_binomial(4, 2, 5)


def test_enumerate_full_space(f3):
    subs = list(enumerate_subspaces(f3, 3, 3))
    assert len(subs) == 1
    assert subs[0].entries == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_enumerate_no_duplicates_and_deterministic(f3):
    first = [S.key() for S in enumerate_subspaces(f3, 4, 2)]
    second = [S.key() for S in enumerate_subspaces(f3, 4, 2)]
    assert first == second
    assert len(first) == len(set(first)) == gaussian_binomial(4, 2, 3)


def test_enumerate_counts_match_gaussian_binomial():
    # every q <= 5, n <= 5, k <= 3
    for field in [make_field(2), make_field(3), make_field(2, 2), make_field(5)]:
        for n in range(1, 6):
            for k in range(1, min(n, 3) + 1):
                expected = gaussian_binomial(n, k, field.q)
                assert sum(1 for _ in enumerate_subspaces(field, n, k)) == expected


@pytest.mark.parametrize(
    "n, k, q", [(3, 1, 2), (5, 1, 3), (4, 2, 2), (5, 2, 2), (4, 2, 3), (3, 2, 5), (4, 3, 4), (5, 3, 2)]
)
def test_enumerated_subspaces_equal_checked_construction(n, k, q):
    # the enumerator, from_generators and the random builder's sampler skip
    # the rref check; the checked constructor must accept each basis and
    # agree on every attribute, pivots included
    field = field_from_order(q)
    enumerated = list(enumerate_subspaces(field, n, k))
    assert len(enumerated) == gaussian_binomial(n, k, q)
    rng = random.Random(100 * n + 10 * k + q)
    generated = []
    while len(generated) < 30:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        c = rng.randrange(q)
        # a dependent generator c*rows[0] + rows[-1] and a repeated one
        dependent = [field.add(field.mul(c, x), y) for x, y in zip(rows[0], rows[-1])]
        if any(map(any, rows)):
            generated.append(Subspace.from_generators(field, n, rows + [dependent, rows[0]]))
    sampled = [constructions._random_subspace(field, n, k, rng) for _ in range(30)]
    for S in enumerated + generated + sampled:
        checked = Subspace(S.field, S.n, S.k, S.entries)
        assert S == checked and hash(S) == hash(checked)
        assert S.pivots == checked.pivots
        assert vars(S) == vars(checked)


def test_enumerate_rejects_bad_k(f2):
    with pytest.raises(ValueError):
        list(enumerate_subspaces(f2, 3, 0))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(f2, 3, 4))


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 5) == 806
    assert gaussian_binomial(5, 2, 5) == gaussian_binomial(5, 3, 5)  # symmetry
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def _refusal(check, *args):
    try:
        return check(*args)
    except SizeGuardError as exc:
        return str(exc)


@given(
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 23, 128, 257]),
    st.integers(3, 200),
    st.data(),
    st.sampled_from([None, -1, 0, 1, 10**4, 200_000, 10**99, 10**150]),
)
def test_checked_gaussian_binomial_is_check_guard_on_the_exact_count(q, n, data, guard):
    # the same count or the same message, whether or not the float
    # estimate refused before the count was formed
    k = data.draw(st.integers(1, (n - 1) // 2))
    count = gaussian_binomial(n, k, q)
    expected = _refusal(check_guard, "work", count, "k-subspaces", guard)
    assert _refusal(checked_gaussian_binomial, "work", n, k, q, guard) == (count if expected is None else expected)
    # a guard at the count admits it, one below refuses it
    assert checked_gaussian_binomial("work", n, k, q, count) == count
    below = _refusal(check_guard, "work", count, "k-subspaces", count - 1)
    assert _refusal(checked_gaussian_binomial, "work", n, k, q, count - 1) == below


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


def test_coset_rep_of_subspace_itself_is_zero(f5):
    S = Subspace.from_generators(f5, 3, [(1, 2, 0)])
    assert S.reduce((0, 0, 0)) == (0, 0, 0)
    # any member of S represents the same (zero) coset
    assert S.reduce((3, 1, 0)) == (0, 0, 0)


@pytest.mark.parametrize("v", [(1.7, 0), ("3", 0), (True, 2.9), (0, 2.0)])
def test_reduce_and_contains_refuse_non_int_coordinates(f5, v):
    # int() would read (1.7, 0) and ("3", 0) as members of span(e_0), and
    # (True, 2.9) as (1, 2), whose residue is (0, 2)
    S = Subspace.from_generators(f5, 2, [(1, 0)])
    for call in (S.reduce, S.contains):
        with pytest.raises(TypeError, match="expected an integer"):
            call(v)


@pytest.mark.parametrize("q, v", [(5, (0, 7)), (5, (5, 0)), (4, (1, -1, 0)), (4, (0, 0, 4))])
def test_reduce_and_contains_refuse_codes_outside_the_field(q, v):
    # a code outside [0, q) would index past a table row, or read -1 as
    # the last entry, code 3 of GF(4)
    f = field_from_order(q)
    S = Subspace.from_generators(f, len(v), [(1,) + (0,) * (len(v) - 1)])
    for call in (S.reduce, S.contains):
        with pytest.raises(ValueError, match="entry out of field range"):
            call(v)


def _shifted(field, u, S):
    """Every point of the coset u + S."""
    return [tuple(field.add(a, b) for a, b in zip(u, v)) for v in S.vectors()]


def test_coset_rep_independent_of_representative(f3):
    S = Subspace.from_generators(f3, 4, [(1, 0, 2, 1), (0, 1, 1, 1)])
    reps = {S.reduce(v) for v in _shifted(f3, (0, 0, 1, 2), S)}
    assert len(reps) == 1


def test_coset_rep_is_lex_smallest_member(f3):
    S = Subspace.from_generators(f3, 3, [(1, 1, 2)])
    u = (0, 2, 1)
    assert S.reduce(u) == min(_shifted(f3, u, S))


def test_coset_count_is_q_to_n_minus_k(f3):
    S = Subspace.from_generators(f3, 3, [(1, 0, 1)])
    reps = {S.reduce(v) for v in all_vectors(f3, 3)}
    assert len(reps) == 3**2


def test_coset_equality(f2):
    # two vectors lie in the same coset exactly when their residues agree
    S = Subspace.from_generators(f2, 3, [(1, 0, 0)])
    a, b, c = (0, 1, 0), (1, 1, 0), (0, 0, 1)  # b = a + a member
    assert S.reduce(a) == S.reduce(b)
    assert S.reduce(a) != S.reduce(c)


@settings(max_examples=60)
@given(st.integers(0, 2**12 - 1), st.integers(2, 4))
def test_reduce_idempotent_and_kills_membership(seed, n):
    rng = random.Random(seed)
    f = make_field(3)
    S = _random_subspace(f, n, rng.randrange(1, n + 1), rng)
    v = tuple(rng.randrange(3) for _ in range(n))
    r = S.reduce(v)
    assert S.reduce(r) == r
    assert S.contains(v) == (not any(r))
    # v - r lies in S
    diff = tuple(f.add(a, f.neg(b)) for a, b in zip(v, r))
    assert S.contains(diff)


def _raw_residue(S, v):
    """reduce's elimination in the field's raw polynomial arithmetic."""
    f = S.field
    r = list(v)
    for row, p in zip(S.row_list(), S.pivots):
        c = r[p]
        r = [f._add_raw(x, f._neg_raw(f._mul_raw(c, b))) for x, b in zip(r, row)]
    return tuple(r)


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (3, 2), (2, 10)])
def test_reduce_reads_tables_like_raw_arithmetic(p, m):
    field = make_field(p, m)
    rng = random.Random(field.q)
    for _ in range(30):
        n = rng.randrange(2, 6)
        S = _random_subspace(field, n, rng.randrange(1, n + 1), rng)
        v = tuple(rng.randrange(field.q) for _ in range(n))
        r = _raw_residue(S, v)
        assert S.reduce(v) == r
        assert S.contains(v) == (not any(r))
        inside = S.row_list()[0]
        assert S.contains(inside) and not any(S.reduce(inside))


def test_json_roundtrip(f5):
    S = Subspace.from_generators(f5, 4, [(1, 2, 3, 4), (0, 0, 1, 1)])
    assert Subspace.from_json(f5, S.to_json()) == S
