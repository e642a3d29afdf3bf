import functools
import itertools
import operator
import random
import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from subspace_forge.gf import SizeGuardError, field_from_order, make_field
from subspace_forge.matgf import rank_of_stack
from subspace_forge.subspace import Subspace, enumerate_subspaces
from subspace_forge import family as family_mod
from subspace_forge.family import (
    _byte_tables,
    _hyperplane_count,
    _hyperplane_lanes,
    _leading_one_bytes,
    _leading_one_combinations,
    _lex_smallest_outside,
    _line_point_counts,
    _packed_line_point_counts,
    _packed_quotient_point_counts,
    _quotient_point_counts,
    Family,
    NotAPartialSpread,
    VerificationReport,
    build_report,
    check_partial_spread,
    check_relations,
    compute_L_aad,
    compute_L_as,
    coset_hits,
    count_L_aad,
    coset_hits_bruteforce,
)
from test_subspace import all_vectors


def line(field, v):
    return Subspace.from_generators(field, len(v), [v])


def random_line_family(field, n, size, rng):
    """Distinct random lines; k=1 distinct lines always form a partial spread."""
    lines = {}
    while len(lines) < size:
        v = tuple(rng.randrange(field.q) for _ in range(n))
        if any(v):
            S = line(field, v)
            lines[S.key()] = S
    return Family(field, n, 1, tuple(lines.values()))


def exhaustive_L_aad_oracle(fam):
    """Independent reference: max brute-force coset hit count over every
    member and every vector outside it."""
    best = 0
    for i, S in enumerate(fam.members):
        for u in all_vectors(fam.field, fam.n):
            if not S.contains(u):
                best = max(best, coset_hits_bruteforce(fam, i, u))
    return best


def exhaustive_L_as_oracle(fam):
    """Independent reference: rank-based count over all (k+1)-subspaces."""
    best = 0
    for V in enumerate_subspaces(fam.field, fam.n, fam.k + 1):
        hits = sum(
            1
            for S in fam.members
            if rank_of_stack(V.field, V.row_list(), S.row_list()) < V.k + S.k
        )
        best = max(best, hits)
    return best


FIELDS = {q: field_from_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 81, 128, 131, 243, 256)}

# Families come from a drawn seed, which has no simpler neighbour, and each
# shrink step reruns an exhaustive oracle: report the first failure as found.
DIFFERENTIAL = settings(
    max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)

# (k, n, q) points small enough for the exhaustive oracles
AAD_GRID = [
    (1, 3, 2), (1, 3, 3), (1, 3, 4), (1, 3, 5), (1, 3, 9), (1, 4, 3),
    (2, 5, 2), (2, 5, 3), (3, 7, 2),
]
AS_GRID = [(k, n, q) for k, n, q in AAD_GRID if k <= 2]
# distinct lines always meet trivially, so only k >= 2 can fail to be a spread
NON_SPREAD_GRID = [(k, n, q) for k, n, q in AAD_GRID if k >= 2]
# with extension fields, where leads other than 1 have inverses other than
# themselves, for the comparison with the point-by-point reference count
REFERENCE_GRID = AAD_GRID + [
    (1, 3, 8), (1, 4, 4), (2, 5, 4), (2, 5, 8), (2, 5, 9), (3, 7, 4), (2, 5, 16), (3, 7, 16), (2, 5, 32),
]
REFERENCE_NON_SPREAD_GRID = [(k, n, q) for k, n, q in REFERENCE_GRID if k >= 2]
# k >= 2 points for the byte path of the AAD count, which packs a point's
# n - k coordinates a byte each: n - k > k + 1 at k = 2, n = 6 and
# k = 3, n = 8, two-byte log lanes at q = 131, and three and four
# residue rows per pair at k = 3 and 4
PACKED_GRID = [(k, 2 * k + 1, q) for k in (2, 3) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 32)] + [
    (2, 6, 2), (2, 6, 3), (2, 6, 4), (2, 6, 5), (3, 8, 2), (3, 8, 4), (2, 5, 131), (4, 9, 2),
]
# n = 2k + 1 points for the hyperplane kernel of the AAD count, called
# outside its selection (q >= 16)
HYPERPLANE_GRID = [(k, 2 * k + 1, q) for k in (3, 4) for q in (2, 3, 4, 5, 8, 9)]
# k = 1 points for the early-stopping AS count
LINE_GRID = [
    (1, 3, 2), (1, 4, 2), (1, 5, 2), (1, 3, 3), (1, 4, 3), (1, 3, 4),
    (1, 3, 5), (1, 4, 5), (1, 3, 7), (1, 4, 7),
]


@st.composite
def families(draw, grid, spread=True, coordinate_pair=False):
    """Distinct k-subspaces kept from up to six uniform random draws.
    With spread=True, a draw is kept only if it meets every kept one
    trivially.  With spread=False and k >= 2, three families in four get
    one more member, spanned by a point of a kept member and k-1 random
    rows, so that most are not spreads.  With coordinate_pair=True and
    n = 2k + 1, one family in two starts with _coordinate_pair(field, k)."""
    k, n, q = draw(st.sampled_from(grid))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    field = FIELDS[q]
    members = []

    def keep(rows):
        if not any(any(r) for r in rows):
            return
        S = Subspace.from_generators(field, n, rows)
        if S.k != k or any(S.key() == T.key() for T in members):
            return
        if spread and not all(S.trivially_intersects(T) for T in members):
            return
        members.append(S)

    if coordinate_pair and draw(st.booleans()):
        for S in _coordinate_pair(field, k):
            keep(S.row_list())
    for _ in range(draw(st.integers(1, 6))):
        keep([[rng.randrange(q) for _ in range(n)] for _ in range(k)])
    assume(members)
    if not spread and k >= 2 and draw(st.integers(0, 3)):
        points = [v for v in members[rng.randrange(len(members))].vectors() if any(v)]
        shared = points[rng.randrange(len(points))]
        keep([shared] + [[rng.randrange(q) for _ in range(n)] for _ in range(k - 1)])
    return Family(field, n, k, tuple(members))


# ---------------------------------------------------------------------------
# Family invariants
# ---------------------------------------------------------------------------


def test_family_rejects_duplicates(f2):
    a = line(f2, (1, 0, 0))
    b = Subspace.from_generators(f2, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        Family(f2, 3, 1, (a, b))


def test_family_rejects_ambient_violation(f2):
    a = Subspace.from_generators(f2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace.from_generators(f2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError):  # 2k = n
        Family(f2, 4, 2, (a, b))


def test_family_rejects_empty(f2):
    with pytest.raises(ValueError):
        Family(f2, 3, 1, ())


@pytest.mark.parametrize("n, k", [(3.0, 1), (3, 1.0), (3, True)])
def test_family_refuses_non_int_n_and_k(f5, n, k):
    # the rule of from_json: "n": 3.0 would be written to the JSON
    with pytest.raises(TypeError, match="expected an integer"):
        Family(f5, n, k, (line(f5, (1, 2, 3)),))


def test_family_rejects_mismatched_member(f2, f3):
    a = line(f2, (1, 0, 0))
    b = line(f3, (1, 0, 0))
    with pytest.raises(ValueError):
        Family(f2, 3, 1, (a, b))


# ---------------------------------------------------------------------------
# partial spread
# ---------------------------------------------------------------------------


def test_four_lines_are_a_spread(four_line_family):
    ok, witness = check_partial_spread(four_line_family)
    assert ok and witness is None


def test_spread_witness_first_pair(f2):
    e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    A = Subspace.from_generators(f2, 5, [e[0], e[1]])
    B = Subspace.from_generators(f2, 5, [e[1], e[2]])
    C = Subspace.from_generators(f2, 5, [e[3], e[4]])
    fam = Family(f2, 5, 2, (A, B, C))
    ok, witness = check_partial_spread(fam)
    assert not ok
    assert witness == (0, 1)


# ---------------------------------------------------------------------------
# coset hits (criterion route vs brute force)
# ---------------------------------------------------------------------------


def test_coset_hits_examples(four_line_family):
    fam = four_line_family
    # coset e2 + span(e1) = {e2, e1+e2}; only the e2 direction is in the family
    assert coset_hits(fam, 0, (0, 1, 0)) == 1
    assert coset_hits_bruteforce(fam, 0, (0, 1, 0)) == 1
    # coset (0,1,1) + span(e1) = {(0,1,1), (1,1,1)}; only (1,1,1) is a member
    assert coset_hits(fam, 0, (0, 1, 1)) == 1
    assert coset_hits_bruteforce(fam, 0, (0, 1, 1)) == 1


def test_coset_hits_single_member(f2):
    fam = Family(f2, 3, 1, (line(f2, (1, 0, 0)),))
    for u in [(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)]:
        assert coset_hits(fam, 0, u) == 0


def test_coset_hits_rejects_inside_vector(four_line_family):
    with pytest.raises(ValueError):
        coset_hits(four_line_family, 0, (1, 0, 0))
    with pytest.raises(ValueError):
        coset_hits_bruteforce(four_line_family, 0, (0, 0, 0))


@pytest.mark.parametrize(
    "u, error",
    [
        ((0, 1.0, 0), TypeError),
        ((0, "1", 0), TypeError),
        ((0, True, 0), TypeError),
        ((0, 2, 0), ValueError),
        ((0, -1, 0), ValueError),
    ],
)
def test_coset_hits_refuse_a_coordinate_that_is_no_code(four_line_family, u, error):
    # over GF(2), int() would read each of these but 2 as (0, 1, 0)
    for count in (coset_hits, coset_hits_bruteforce):
        with pytest.raises(error):
            count(four_line_family, 0, u)


def test_oracle_equivalence_seeded_families():
    # criterion route == brute force on random k=1 families (q <= 3, n <= 4)
    rng = random.Random(4242)
    fields = {2: make_field(2), 3: make_field(3)}
    for trial in range(30):
        q = [2, 3][trial % 2]
        n = [3, 4][(trial // 2) % 2]
        field = fields[q]
        fam = random_line_family(field, n, rng.randrange(2, 5), rng)
        for i in range(len(fam)):
            checked = 0
            for u in all_vectors(field, n):
                if fam.members[i].contains(u):
                    continue
                assert coset_hits(fam, i, u) == coset_hits_bruteforce(fam, i, u)
                checked += 1
                if checked >= 6:
                    break


# ---------------------------------------------------------------------------
# exact L computation
# ---------------------------------------------------------------------------


def _reference_L_aad(fam):
    """The AAD count point by point: a dict of normalized quotient points
    and the first raw combination that reached each, in member order and
    first-insertion order.  compute_L_aad must match its value, witness
    and NotAPartialSpread pair exactly."""
    f = fam.field
    members = fam.members
    if len(members) <= 1:
        u = _lex_smallest_outside(members[0])
        return 0, (0, u)

    def unproject(i, free_cols, key):
        u = [0] * fam.n
        for c, val in zip(free_cols, key):
            u[c] = val
        return i, tuple(u)

    add, mul, inv = f.add_table, f.mul_table, f.inv_table
    member_rows = [T.row_list() for T in members]
    best = 0
    best_witness = None
    for i, S in enumerate(members):
        pivot_set = set(S.pivots)
        free_cols = [c for c in range(fam.n) if c not in pivot_set]
        project = operator.itemgetter(*free_cols)
        counts = {}
        first = {}  # point -> first combination
        for j, rows in enumerate(member_rows):
            if j == i:
                continue
            proj = [project(w) for w in map(S.reduce, rows)]
            for v in _leading_one_combinations(proj, add, mul):
                for lead in v:
                    if lead:
                        break
                else:
                    raise NotAPartialSpread((i, j))
                key = v if lead == 1 else tuple(map(mul[inv[lead]].__getitem__, v))
                cnt = counts.get(key, 0) + 1
                counts[key] = cnt
                if cnt == 1:
                    first[key] = v
        for key, cnt in counts.items():
            if cnt > best:
                best = cnt
                best_witness = (i, free_cols, first[key])

    assert best_witness is not None
    return best, unproject(*best_witness)


@settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(families(REFERENCE_GRID), families(REFERENCE_NON_SPREAD_GRID, spread=False)))
def test_L_aad_matches_reference_loop(fam):
    try:
        expected = _reference_L_aad(fam)
    except NotAPartialSpread as exc:
        with pytest.raises(NotAPartialSpread) as got:
            compute_L_aad(fam)
        assert got.value.pair == exc.pair
        return
    assert compute_L_aad(fam) == expected


@settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(families(REFERENCE_GRID), families(REFERENCE_NON_SPREAD_GRID, spread=False)))
def test_count_L_aad_is_the_value_of_compute_L_aad(fam):
    # the count without the witness walk: the same value, witness member
    # and NotAPartialSpread pair
    try:
        L, (i, _) = compute_L_aad(fam)
    except NotAPartialSpread as exc:
        with pytest.raises(NotAPartialSpread) as got:
            count_L_aad(fam)
        assert got.value.pair == exc.pair
        return
    assert count_L_aad(fam)[:2] == (L, i)


def _member_tallies(per_member):
    """The tallies a per-member count yields, and the pair its
    NotAPartialSpread names (None when the count ends)."""
    tallies = []
    try:
        for counts in per_member:
            tallies.append(counts)
    except NotAPartialSpread as exc:
        return tallies, exc.pair
    return tallies, None


def _unpacked(counts, d):
    """A byte path's Counter keyed by coordinate tuples: coordinate t of
    a point is byte d - 1 - t of its key."""
    return Counter({tuple(key.to_bytes(8, sys.byteorder)[d - 1 :: -1]): cnt for key, cnt in counts.items()})


@settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(families(PACKED_GRID), families(PACKED_GRID, spread=False)))
def test_packed_counts_match_quotient_point_counts(fam):
    # member by member, the byte path tallies the general path's points,
    # and a non-spread raises at the same pair
    packed, pair = _member_tallies(_packed_quotient_point_counts(fam))
    unpacked = [_unpacked(counts, fam.n - fam.k) for counts in packed]
    assert (unpacked, pair) == _member_tallies(_quotient_point_counts(fam))


def _count_of(tallies):
    """count_L_aad's (L, i, attaining) read off per-member tallies keyed
    by coordinate tuples."""
    best, best_i, attaining = 0, 0, set()
    for i, counts in enumerate(tallies):
        top = max(counts.values(), default=0)
        if top > best:
            best, best_i, attaining = top, i, {key for key, cnt in counts.items() if cnt == top}
    return best, best_i, attaining


@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    st.one_of(
        families(HYPERPLANE_GRID, coordinate_pair=True),
        families(HYPERPLANE_GRID, spread=False, coordinate_pair=True),
    )
)
def test_hyperplane_count_matches_quotient_point_counts(fam):
    # the kernel outside its selection, at q < 16 and m < q: the tally's
    # value, member and attaining points, the reference's value and
    # member, and the same NotAPartialSpread pair
    try:
        L, (i, _) = _reference_L_aad(fam)
    except NotAPartialSpread as exc:
        with pytest.raises(NotAPartialSpread) as got:
            _hyperplane_count(fam)
        assert got.value.pair == exc.pair == _member_tallies(_quotient_point_counts(fam))[1]
        return
    expected = _count_of(_quotient_point_counts(fam))
    assert _hyperplane_count(fam) == expected
    assert expected[:2] == (L, i)


def _random_spread(field, n, k, size, seed, start=()):
    """A partial spread of `size` k-subspaces: the members `start`, then
    uniform random draws, each kept if it meets every kept one trivially."""
    rng = random.Random(seed)
    members = list(start)
    while len(members) < size:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        S = Subspace.from_generators(field, n, rows)
        if S.k == k and all(S.trivially_intersects(T) for T in members):
            members.append(S)
    return Family(field, n, k, tuple(members))


def _coordinate_pair(field, k):
    """span(e_0, ..., e_{k-1}) and span(e_{k+1}, ..., e_{2k}) of
    GF(q)^(2k+1): over the first, (S_0 + S_1)/S_0 is the hyperplane
    x_0 = 0, whose normal has last coordinate 0."""
    n = 2 * k + 1
    units = [[int(c == r) for c in range(n)] for r in range(n)]
    return [Subspace.from_generators(field, n, units[first : first + k]) for first in (0, k + 1)]


@pytest.mark.parametrize(
    "q, m, pair",
    # m - 1 graphs per member: one full group of 15, one and a bit, two
    # full groups, two and a bit; at even q every v is in a pair, at odd q
    # the last v takes its own pass; the coordinate pair adds a normal with
    # a[k] = 0 to both nibble lanes and to the last pass
    [(q, m, False) for q in (4, 5) for m in (16, 17, 31, 32)] + [(5, 32, True)],
)
def test_hyperplane_count_over_full_nibble_groups(q, m, pair):
    start = _coordinate_pair(FIELDS[q], 3) if pair else ()
    fam = _random_spread(FIELDS[q], 7, 3, m, seed=q * m, start=start)
    assert _hyperplane_count(fam) == _count_of(_quotient_point_counts(fam))


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("size", [15, 16, 30, 31])
def test_hyperplane_lanes_count_every_point(q, size):
    # every lane against the count of its point, normal by normal: half the
    # normals are one graph, which fills its nibbles in the first group,
    # and one in four of the rest has a[k] = 0
    field, k = FIELDS[q], 3
    rng = random.Random(size)
    normals = [[1, 2, 3, 1]] * (size // 2)
    while len(normals) < size:
        a = [rng.randrange(q) for _ in range(k)] + [rng.randrange(q) if rng.randrange(4) else 0]
        if any(a):
            normals.append(a)
    add, mul = field.add_table, field.mul_table

    def count(point):
        hits = 0
        for a in normals:
            dot = 0
            for x, y in zip(a, point):
                dot = add[dot][mul[x][y]]
            hits += dot == 0
        return hits

    # the lanes list the points in the order of the unit rows' combinations
    units = [tuple(int(r == s) for s in range(k)) for r in range(k)]
    cells = list(_leading_one_combinations(units, add, mul))
    expected = [bytes(count(x + (v,)) for x in cells) for v in range(q)]
    expected.append(bytes([count((0,) * k + (1,))]))
    assert list(_hyperplane_lanes(field, k, normals, _byte_tables(field))) == expected


@st.composite
def row_sets(draw):
    """(q, sets): one to four sets of k = 1..4 rows of length 1..3 over
    GF(q), with at most q^3 combinations per set."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 131, 256]))
    k = draw(st.integers(1, 4 if q < 10 else 2))
    length = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, q - 1), min_size=length, max_size=length).map(tuple)
    sets = draw(st.lists(st.lists(row, min_size=k, max_size=k), min_size=1, max_size=4))
    return q, sets


@settings(max_examples=150, deadline=None)
@given(row_sets())
def test_leading_one_bytes_match_leading_one_combinations(case):
    # layer k-1 first, each layer row set by row set, and each row set's
    # layer in the tuple path's order; the identity needs no independence
    q, sets = case
    f, k = FIELDS[q], len(sets[0])
    combos = [list(_leading_one_combinations(rows, f.add_table, f.mul_table)) for rows in sets]
    expected = []
    for p in range(k - 1, -1, -1):
        start, size = (q ** (k - 1 - p) - 1) // (q - 1), q ** (k - 1 - p)
        for layers in combos:
            expected += layers[start : start + size]
    tables = _byte_tables(f)
    columns = [
        _leading_one_bytes([bytes(rows[s][t] for rows in sets) for s in range(k)], tables)
        for t in range(len(sets[0][0]))
    ]
    assert list(zip(*columns)) == expected


def _refuse(*args):
    raise AssertionError("the count took the other path")


@pytest.mark.parametrize(
    "n, k, q, other_path",
    [
        # q <= 256 and n - k <= 8: the byte path
        (5, 2, 256, "_quotient_point_counts"),
        # a code above 255 does not fit a byte
        (5, 2, 257, "_packed_quotient_point_counts"),
        # nine coordinates do not fit one 8-byte word
        (11, 2, 2, "_packed_quotient_point_counts"),
        # k = 3: eight coordinates fit the word, nine do not
        (11, 3, 2, "_quotient_point_counts"),
        (12, 3, 2, "_packed_quotient_point_counts"),
        # k = 1: the same limit, with two-byte log lanes above q = 128
        (3, 1, 128, "_line_point_counts"),
        (3, 1, 131, "_line_point_counts"),
        (3, 1, 256, "_line_point_counts"),
        (9, 1, 2, "_line_point_counts"),
        (3, 1, 257, "_packed_line_point_counts"),
        (10, 1, 2, "_packed_line_point_counts"),
    ],
)
def test_count_path_at_the_byte_limits(monkeypatch, n, k, q, other_path):
    fam = _random_spread(field_from_order(q), n, k, 4, seed=q + n)
    expected = _reference_L_aad(fam)
    monkeypatch.setattr(family_mod, other_path, _refuse)
    assert compute_L_aad(fam) == expected


@pytest.mark.parametrize(
    "n, k, q, m, path",
    [
        # n = 2k + 1, k >= 3 and 16 <= q <= m <= 256: the hyperplane kernel
        (7, 3, 16, 16, "_hyperplane_count"),
        (9, 4, 16, 16, "_hyperplane_count"),
        (7, 3, 16, 256, "_hyperplane_count"),
        (7, 3, 256, 256, "_hyperplane_count"),
        # fewer members than field elements: outside the selection
        (7, 3, 16, 15, "_packed_quotient_point_counts"),
        # the two-member GF(256) family of the memory bound below
        (7, 3, 256, 2, "_packed_quotient_point_counts"),
        # below q = 16: outside the selection
        (7, 3, 13, 13, "_packed_quotient_point_counts"),
        # a count of 256 does not fit a byte lane
        (7, 3, 16, 257, "_packed_quotient_point_counts"),
        # (S_i + S_j)/S_i is no hyperplane, or k < 3
        (8, 3, 16, 16, "_packed_quotient_point_counts"),
        (5, 2, 16, 16, "_packed_quotient_point_counts"),
        # a code above 255 does not fit a byte
        (7, 3, 257, 257, "_quotient_point_counts"),
    ],
)
def test_count_selects_the_hyperplane_kernel(monkeypatch, n, k, q, m, path):
    # the selection reads only (n, k, q, m): the first m subspaces in
    # enumeration order, not a spread, and no count runs
    field = FIELDS.get(q) or field_from_order(q)
    fam = Family(field, n, k, tuple(itertools.islice(enumerate_subspaces(field, n, k), m)))
    taken = []
    stubs = {"_hyperplane_count": (0, 0, set()), "_packed_quotient_point_counts": [], "_quotient_point_counts": []}
    for name, result in stubs.items():
        monkeypatch.setattr(family_mod, name, lambda fam, name=name, result=result: taken.append(name) or result)
    assert count_L_aad(fam) == (0, 0, set())
    assert taken == [path]


@pytest.mark.parametrize("q, L", [(23, 6), (25, 8), (27, 6), (29, 7), (31, 7), (32, 7)])
def test_rs_7_3_exact_L_aad(q, L):
    # the exact L_aad of the atlas rows for (7, 3) up to q = 32; 31 and 32
    # members give the kernel two full nibble groups and a remainder
    from subspace_forge.constructions import build_rs_family

    assert count_L_aad(build_rs_family(7, 3, field_from_order(q)))[:2] == (L, 0)


def test_rs_5_1_11_count_budget():
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(5, 1, field_from_order(11))
    t0 = time.perf_counter()
    L, i, _ = count_L_aad(fam)
    dt = time.perf_counter() - t0
    assert (L, i) == (3, 0)
    assert dt < 0.6, f"count_L_aad on RS(5,1,11) took {dt:.2f}s"


def test_rs_6_2_13_count_budget():
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(6, 2, field_from_order(13))
    t0 = time.perf_counter()
    L, i, _ = count_L_aad(fam)
    dt = time.perf_counter() - t0
    assert (L, i) == (10, 6)
    assert dt < 0.35, f"count_L_aad on RS(6,2,13) took {dt:.2f}s"


def test_rs_7_3_23_counts_on_the_byte_path(monkeypatch):
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(7, 3, field_from_order(23))
    monkeypatch.setattr(family_mod, "_quotient_point_counts", _refuse)
    L, i, _ = count_L_aad(fam)
    assert (L, i) == (6, 0)


def test_two_member_k3_count_builds_no_span_tables():
    # a count with few pairs allocates no table whose size grows with q^2:
    # at q = 256, (q + 1) q^2 bytes is 16.8 MB, over the bound, for one pair
    fam = _random_spread(field_from_order(256), 7, 3, 2, seed=1)
    tracemalloc.start()
    try:
        count_L_aad(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"count_L_aad peaked at {peak / 2**20:.1f} MB"


@functools.cache
def _points(n, q):
    return tuple(enumerate_subspaces(FIELDS[q], n, 1))


# projective spaces with 15 to 91 points, for families of 10 to 40 of them
DENSE_LINE_SPACES = [(4, 2), (3, 4), (3, 5), (4, 3), (3, 7), (3, 8), (3, 9)]


@st.composite
def dense_lines(draw):
    n, q = draw(st.sampled_from(DENSE_LINE_SPACES))
    size, seed = draw(st.integers(10, 40)), draw(st.integers(0, 2**32 - 1))
    points = _points(n, q)
    members = random.Random(seed).sample(points, min(size, len(points)))
    return Family(FIELDS[q], n, 1, tuple(members))


@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(dense_lines())
def test_L_aad_matches_reference_loop_on_dense_line_families(fam):
    # Dense k = 1 families have many maximal planes, often with different
    # first lines: the ties on which the count's one visit per unordered
    # pair must keep the full count's witness.
    expected = _reference_L_aad(fam)
    assert compute_L_aad(fam) == expected
    assert count_L_aad(fam)[0] == expected[0]


# fields of the k = 1 byte path, q <= 256, with extension fields whose
# logs wrap in the doubled exp table, and two-byte lanes above q = 128
PACKED_LINE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 81, 128, 131, 243, 256]


@st.composite
def few_lines(draw):
    """One to three distinct lines of GF(q)^n, n <= 9, q <= 256."""
    q = draw(st.sampled_from(PACKED_LINE_FIELDS))
    n = draw(st.integers(3, 9))
    vectors = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=1, max_size=3))
    lines = {S.key(): S for S in (line(FIELDS[q], v) for v in vectors if any(v))}
    assume(lines)
    return Family(FIELDS[q], n, 1, tuple(lines.values()))


@settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(few_lines(), dense_lines()))
def test_packed_line_counts_match_line_point_counts(fam):
    # member by member, the k = 1 byte path tallies the same points of the
    # later lines as the table pass
    expected = _line_point_counts(fam.members)
    assert [_unpacked(counts, fam.n - 1) for counts in _packed_line_point_counts(fam)] == list(expected)


@pytest.mark.parametrize("lanes", [1, 7])
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(fam=st.one_of(few_lines(), dense_lines()))
def test_packed_line_counts_match_in_small_blocks(lanes, fam):
    # blocks that end after every line, inside a group of lines with one
    # pivot, after the last line with later lines and at the last line
    expected = _line_point_counts(fam.members)
    with mock.patch.object(family_mod, "_BLOCK_LANES", lanes):
        assert [_unpacked(counts, fam.n - 1) for counts in _packed_line_point_counts(fam)] == list(expected)


def test_rs_5_1_11_count_memory():
    # the k = 1 blocks hold a few thousand pairs at a time, not the 885,115
    # pairs of RS(5,1,11) at once (28.8 MB in one pass)
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(5, 1, field_from_order(11))
    tracemalloc.start()
    try:
        assert count_L_aad(fam)[:2] == (3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"count_L_aad peaked at {peak / 2**10:.0f} KB"


def test_L_aad_four_line_family(four_line_family):
    L, (i, u) = compute_L_aad(four_line_family)
    assert L == 1
    assert coset_hits(four_line_family, i, u) == L
    assert L == exhaustive_L_aad_oracle(four_line_family)


def test_L_aad_single_member(f2):
    fam = Family(f2, 3, 1, (line(f2, (1, 0, 0)),))
    L, (i, u) = compute_L_aad(fam)
    assert L == 0
    assert coset_hits(fam, i, u) == 0


@st.composite
def proper_subspaces(draw):
    """A proper subspace of GF(q)^n, q <= 5, n <= 5: random generators,
    or the span of the last unit vectors with random rows added."""
    field = FIELDS[draw(st.sampled_from([2, 3, 4, 5]))]
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * n)
    tail = [tuple(int(c == i) for c in range(n)) for i in range(n - draw(st.integers(0, k)), n)]
    gens = tail + draw(st.lists(vector, min_size=k - len(tail), max_size=k - len(tail)))
    assume(any(map(any, gens)))
    S = Subspace.from_generators(field, n, gens)
    assume(S.k < n)
    return S


@settings(max_examples=300, deadline=None)
@given(proper_subspaces())
def test_lex_smallest_outside_matches_the_walk(S):
    # the walk over all_vectors that it replaced: q^k steps for a tail span
    walk = next(tuple(v) for v in all_vectors(S.field, S.n) if not S.contains(v))
    assert _lex_smallest_outside(S) == walk


def test_L_aad_requires_spread(f2):
    e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    A = Subspace.from_generators(f2, 5, [e[0], e[1]])
    B = Subspace.from_generators(f2, 5, [e[1], e[2]])
    fam = Family(f2, 5, 2, (A, B))
    for verify in (compute_L_aad, compute_L_as):
        with pytest.raises(NotAPartialSpread) as exc:
            verify(fam)
        assert exc.value.pair == (0, 1)


def test_L_aad_matches_exhaustive_oracle_random():
    rng = random.Random(777)
    for q, n in [(2, 3), (2, 4), (3, 3)]:
        field = make_field(q)
        for _ in range(5):
            fam = random_line_family(field, n, rng.randrange(2, 5), rng)
            L, (i, u) = compute_L_aad(fam)
            assert L == exhaustive_L_aad_oracle(fam)
            assert coset_hits(fam, i, u) == L


def test_L_aad_k2_matches_exhaustive_oracle(f2):
    # handmade spread of two planes in GF(2)^5
    A = Subspace.from_generators(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    B = Subspace.from_generators(f2, 5, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    C = Subspace.from_generators(f2, 5, [(1, 0, 1, 0, 1), (0, 1, 0, 1, 1)])
    fam = Family(f2, 5, 2, (A, B, C))
    assert check_partial_spread(fam)[0]
    L, (i, u) = compute_L_aad(fam)
    assert L == exhaustive_L_aad_oracle(fam)
    assert coset_hits(fam, i, u) == L


@DIFFERENTIAL
@given(families(AAD_GRID))
def test_L_aad_differential(fam):
    L, (i, u) = compute_L_aad(fam)
    assert L == exhaustive_L_aad_oracle(fam)
    assert coset_hits(fam, i, u) == L
    assert count_L_aad(fam)[0] == L


@DIFFERENTIAL
@given(families(AS_GRID))
def test_L_as_differential(fam):
    L, V = compute_L_as(fam)
    assert L == exhaustive_L_as_oracle(fam)
    assert L == sum(1 for S in fam.members if rank_of_stack(V.field, V.row_list(), S.row_list()) < V.k + S.k)


@DIFFERENTIAL
@given(families(LINE_GRID))
def test_L_as_early_stop_matches_full_enumeration(fam):
    # k = 1: L_as = L_aad + 1, and stopping at the first plane that reaches
    # it returns the full enumeration's value and witness
    full = compute_L_as(fam)
    L_aad = compute_L_aad(fam)[0]
    assert compute_L_as(fam, L_aad=L_aad) == full
    assert full[0] == L_aad + 1
    # an L_aad that no plane reaches L_aad + 1 for gives the full maximum
    assert compute_L_as(fam, L_aad=full[0]) == full


def test_report_draws_74_planes_on_rs_5_1_7(monkeypatch):
    # the full AS enumeration on RS(5,1,7) draws all 140,050 planes; the
    # all-properties report stops at the first one holding L_aad + 1 lines,
    # the 74th (index 73)
    from subspace_forge import family as family_mod
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(5, 1, FIELDS[7])
    drawn = 0

    def counting(*args):
        nonlocal drawn
        for V in enumerate_subspaces(*args):
            drawn += 1
            yield V

    monkeypatch.setattr(family_mod, "enumerate_subspaces", counting)
    report = build_report(fam)
    assert drawn == 74
    assert (report.L_aad, report.L_as, report.relations_ok) == (3, 4, True)
    assert report.as_witness.row_list() == [(1, 0, 0, 0, 0), (0, 1, 1, 3, 3)]


def test_as_only_report_runs_no_aad_count(monkeypatch):
    # without aad, bound or relations there is no L_aad to stop at: the AS
    # count enumerates every plane and the AAD count does not run
    from subspace_forge import family as family_mod
    from subspace_forge.constructions import build_rs_family

    fam = build_rs_family(3, 1, FIELDS[5])
    full = compute_L_as(fam)

    def no_aad(*args, **kwargs):
        raise AssertionError("AAD count run for an as-only report")

    monkeypatch.setattr(family_mod, "compute_L_aad", no_aad)
    report = build_report(fam, ("as",))
    assert (report.L_aad, report.L_as, report.as_witness) == (None, *full)


def test_L_aad_is_ignored_above_k_1(f2):
    # for k >= 2 L_as - 1 may exceed L_aad, so L_aad gives no stop
    A = Subspace.from_generators(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    B = Subspace.from_generators(f2, 5, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    fam = Family(f2, 5, 2, (A, B))
    full = compute_L_as(fam)
    assert full[0] == 2
    assert compute_L_as(fam, L_aad=0) == full


@DIFFERENTIAL
@given(families(NON_SPREAD_GRID, spread=False))
def test_verifiers_detect_non_spread(fam):
    ok, witness = check_partial_spread(fam)
    message = f"family is not a partial spread (members {witness})"
    verifiers = [compute_L_aad] + ([compute_L_as] if fam.k <= 2 else [])
    for verify in verifiers:
        if ok:
            verify(fam)
        else:
            with pytest.raises(NotAPartialSpread) as exc:
                verify(fam)
            assert str(exc.value) == message
            assert exc.value.pair == witness
    # the count without the witness walk fails in the same loop
    try:
        count_L_aad(fam)
    except ValueError as exc:
        assert not ok and str(exc) == message
    else:
        assert ok


def test_L_as_four_line_family(four_line_family):
    L, V = compute_L_as(four_line_family)
    assert L == 2
    assert L == exhaustive_L_as_oracle(four_line_family)
    hits = sum(
        1
        for S in four_line_family.members
        if rank_of_stack(V.field, V.row_list(), S.row_list()) < V.k + S.k
    )
    assert hits == L


def test_L_as_single_member(f2):
    fam = Family(f2, 3, 1, (line(f2, (1, 0, 0)),))
    L, V = compute_L_as(fam)
    assert L == 1


def test_L_as_fast_path_matches_generic_oracle():
    rng = random.Random(31337)
    for q, n in [(2, 3), (3, 3), (2, 4)]:
        field = make_field(q)
        for _ in range(4):
            fam = random_line_family(field, n, rng.randrange(2, 5), rng)
            L, _ = compute_L_as(fam)
            assert L == exhaustive_L_as_oracle(fam)


def test_L_as_k2_generic_path(f2):
    A = Subspace.from_generators(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    B = Subspace.from_generators(f2, 5, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    fam = Family(f2, 5, 2, (A, B))
    L, V = compute_L_as(fam)
    assert L == exhaustive_L_as_oracle(fam)


def test_L_as_size_guard(four_line_family):
    with pytest.raises(SizeGuardError):
        compute_L_as(four_line_family, enum_guard=3)


def test_monotonicity_under_member_removal(four_line_family):
    L_full, _ = compute_L_aad(four_line_family)
    Las_full, _ = compute_L_as(four_line_family)
    for drop in range(len(four_line_family)):
        members = tuple(S for i, S in enumerate(four_line_family.members) if i != drop)
        sub = Family(four_line_family.field, 3, 1, members)
        assert compute_L_aad(sub)[0] <= L_full
        assert compute_L_as(sub)[0] <= Las_full


def test_invariance_under_basis_change_and_shuffle(f5):
    # scaled generators and a permuted member order give the same L values
    vs = [(1, 0, 0), (1, 1, 1), (1, 2, 4), (1, 3, 4), (0, 1, 2)]
    fam = Family(f5, 3, 1, tuple(line(f5, v) for v in vs))
    rng = random.Random(5)
    scaled = []
    for v in vs:
        c = rng.randrange(1, 5)
        scaled.append(tuple(f5.mul(c, x) for x in v))
    rng.shuffle(scaled)
    fam2 = Family(f5, 3, 1, tuple(line(f5, v) for v in scaled))
    assert compute_L_aad(fam)[0] == compute_L_aad(fam2)[0]
    assert compute_L_as(fam)[0] == compute_L_as(fam2)[0]


# ---------------------------------------------------------------------------
# relations and bound
# ---------------------------------------------------------------------------


def test_relations_four_line_family(four_line_family):
    report = VerificationReport(L_aad=1, L_as=2)
    ok, msgs = check_relations(four_line_family, report)
    assert ok and not msgs


def test_relations_single_member(f2):
    fam = Family(f2, 3, 1, (line(f2, (1, 0, 0)),))
    report = VerificationReport(L_aad=0, L_as=1)
    ok, _ = check_relations(fam, report)
    assert ok


def test_relations_flag_violations(four_line_family):
    bad = VerificationReport(L_aad=3, L_as=2)
    ok, msgs = check_relations(four_line_family, bad)
    assert not ok and msgs


def test_relations_require_both_values(four_line_family):
    with pytest.raises(ValueError):
        check_relations(four_line_family, VerificationReport(L_aad=1))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_build_report_full(four_line_family):
    report = build_report(four_line_family)
    assert report.is_partial_spread is True
    assert report.L_aad == 1
    assert report.L_as == 2
    assert report.size_bound == 4
    assert report.bound_satisfied is True
    assert report.relations_ok is True
    # witnesses re-evaluate to the reported counts
    i, u = report.aad_witness
    assert coset_hits(four_line_family, i, u) == report.L_aad
    V = report.as_witness
    hits = sum(
        1
        for S in four_line_family.members
        if rank_of_stack(V.field, V.row_list(), S.row_list()) < V.k + S.k
    )
    assert hits == report.L_as
    obj = report.to_json()
    assert obj["L_aad"] == 1 and obj["size_bound"] == 4


def test_build_report_skips_on_non_spread(f2):
    e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    A = Subspace.from_generators(f2, 5, [e[0], e[1]])
    B = Subspace.from_generators(f2, 5, [e[1], e[2]])
    fam = Family(f2, 5, 2, (A, B))
    report = build_report(fam, ("spread", "aad"))
    assert report.is_partial_spread is False
    assert report.spread_witness == (0, 1)
    assert report.L_aad is None
    assert report.diagnostics


PROPERTIES = ("spread", "aad", "as", "bound", "relations")
PROPERTY_SUBSETS = [s for r in range(1, 6) for s in itertools.combinations(PROPERTIES, r)]
SKIPPED = "not a partial spread; AAD/AS parameters are undefined"


@DIFFERENTIAL
@given(st.one_of(families(AAD_GRID), families(NON_SPREAD_GRID, spread=False)))
def test_report_spread_fields_match_pairwise_scan(fam):
    # a report that runs the AAD count takes its spread fields from the
    # count's own failure, not from the scan: they must agree on every subset.
    # Spreads for k = 1, 2, 3 come from the first strategy, mostly
    # non-spreads for k = 2, 3 from the second.
    ok, witness = check_partial_spread(fam)
    if not ok:
        with pytest.raises(NotAPartialSpread) as exc:
            compute_L_aad(fam)
        assert exc.value.pair == witness
    for props in PROPERTY_SUBSETS:
        report = build_report(fam, props)
        assert (report.is_partial_spread, report.spread_witness) == (ok, witness), props
        skipped = not ok and props != ("spread",)
        assert report.diagnostics == ([SKIPPED] if skipped else []), props


def test_pairwise_scan_runs_only_without_the_aad_count(four_line_family, monkeypatch):
    from subspace_forge import family as family_mod

    scan = family_mod.check_partial_spread
    calls = 0

    def counting(fam):
        nonlocal calls
        calls += 1
        return scan(fam)

    monkeypatch.setattr(family_mod, "check_partial_spread", counting)
    for props, expected in ((PROPERTIES, 0), (("spread",), 1), (("as",), 1)):
        calls = 0
        report = build_report(four_line_family, props)
        assert report.is_partial_spread is True
        assert calls == expected, props


def test_build_report_rejects_unknown_property(four_line_family):
    with pytest.raises(ValueError):
        build_report(four_line_family, ("spread", "nonsense"))


def test_family_json_roundtrip(four_line_family):
    obj = four_line_family.to_json()
    back = Family.from_json(obj)
    assert back == four_line_family
