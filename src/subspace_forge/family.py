"""Families of subspaces: partial-spread checking and the exact AAD / AS
verifiers with witnesses.

Terminology (matching the standard definitions):

* A family of k-dimensional subspaces of GF(q)^n is a *partial k-spread*
  when all pairwise intersections are trivial.
* Its exact AAD parameter L is the largest number of family members met
  by any affine coset u + S with S in the family and u outside S.  S
  itself can never be met by such a coset (u outside S makes them
  disjoint), so it is never counted.
* Its exact AS parameter L is the largest number of family members that
  any (k+1)-dimensional subspace meets non-trivially.

Both verifiers count projective points, the 1-dimensional subspaces of
GF(q)^n.  Two subspaces meet non-trivially exactly when they share a
point, which gives the AS count of a (k+1)-subspace.  A coset u + S_i
meets S_j exactly when the point of u in the quotient by S_i lies in
(S_i + S_j)/S_i, which gives the AAD count.  A point is enumerated once,
as the combination of a basis whose first nonzero coefficient is 1, and
keyed by its normalized form, the vector scaled to a leading 1, and
collections.Counter tallies the keys in C; only the member that names
the witness is walked again point by point, and count_L_aad, for callers
that read only the value, walks none.  For k = 1 the quotient point of
S_j over S_i is the plane S_i + S_j, and L_aad is the most family lines
on one plane, minus one: the count visits each unordered pair i < j
once, at its first member.  The byte path forms the residues of all
other members in one pass per member, with the translate tables of
_byte_tables; for k >= 2 _leading_one_bytes, the bytes form of
_leading_one_combinations, lists their points as bytes columns, and
_packed_point_keys scales them to a leading 1 in log lanes and keys
each by one int that packs its coordinates a byte each; for k = 1 the
residues of consecutive lines share one scaling pass, in blocks of
about _BLOCK_LANES pairs.  The tuple path brings each residue basis to
RREF, whose combinations are already normalized, and keys the points
by tuples of codes.  Where each (S_i + S_j)/S_i is a hyperplane of the
quotient, _hyperplane_count tallies no points and sums the counts from
the hyperplanes' normals in the byte lanes of Python ints, two values
of the last coordinate per pass, one in each nibble of a byte, over
the points in _leading_one_bytes' order.  count_L_aad states which inputs take which path.

The partial-spread check is the precondition of both verifiers.  Each
finds a non-spread family in its own loop, at residues of rank below k
or a point with two owners, and raises NotAPartialSpread with the pair
that check_partial_spread names; a partial spread pays for no pairwise
scan, so build_report runs none on a report that runs the AAD count.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass, field as dc_field
from itertools import repeat

from .gf import Field, _json_int
from .matgf import _rref_rows
from .subspace import Subspace, checked_gaussian_binomial, enumerate_subspaces, span_step

# compute_L_as enumerates every (k+1)-subspace; refuse above this count
# unless the caller overrides the guard.
DEFAULT_AS_ENUM_GUARD = 200_000

# _packed_line_point_counts scales the residues of consecutive lines
# together, in blocks of at least this many pairs (or up to the last line)
_BLOCK_LANES = 4096


@dataclass(frozen=True)
class Family:
    """An ordered collection of distinct k-subspaces sharing (field, n, k)."""

    field: Field
    n: int
    k: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        if 2 * _json_int(self.k) >= _json_int(self.n):
            raise ValueError(f"need 2k < n, got k={self.k}, n={self.n}")
        if not self.members:
            raise ValueError("family must have at least one member")
        seen = set()
        for i, S in enumerate(self.members):
            if S.field != self.field or S.n != self.n or S.k != self.k:
                raise ValueError(f"member {i} has mismatched parameters")
            if S.key() in seen:
                raise ValueError(f"member {i} duplicates an earlier member")
            seen.add(S.key())

    def __len__(self):
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "k": self.k,
            "members": [S.to_json() for S in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Family":
        fld = Field.from_json(obj["field"])
        members = tuple(Subspace.from_json(fld, s) for s in obj["members"])
        return cls(fld, obj["n"], obj["k"], members)


@dataclass
class VerificationReport:
    """Exact verification results; fields are None until computed."""

    is_partial_spread: bool | None = None
    spread_witness: tuple[int, int] | None = None
    L_aad: int | None = None
    aad_witness: tuple[int, tuple[int, ...]] | None = None
    L_as: int | None = None
    as_witness: Subspace | None = None
    size_bound: int | None = None
    bound_satisfied: bool | None = None
    relations_ok: bool | None = None
    diagnostics: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "is_partial_spread": self.is_partial_spread,
            "spread_witness": list(self.spread_witness) if self.spread_witness else None,
            "L_aad": self.L_aad,
            "aad_witness": (
                {"member": self.aad_witness[0], "u": list(self.aad_witness[1])}
                if self.aad_witness
                else None
            ),
            "L_as": self.L_as,
            "as_witness": self.as_witness.to_json() if self.as_witness else None,
            "size_bound": self.size_bound,
            "bound_satisfied": self.bound_satisfied,
            "relations_ok": self.relations_ok,
            "diagnostics": list(self.diagnostics),
        }


def check_partial_spread(fam: Family) -> tuple[bool, tuple[int, int] | None]:
    """True iff all member pairs intersect trivially.

    On failure returns the first violating pair (i, j), i < j, in member
    order.
    """
    members = fam.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not members[i].trivially_intersects(members[j]):
                return False, (i, j)
    return True, None


def coset_hits(fam: Family, i: int, u) -> int:
    """Number of members S_j (j != i) met by the affine coset u + S_i.

    Uses the membership criterion: (u + S_i) meets S_j exactly when
    u lies in S_i + S_j.  S_i itself is never counted; u outside S_i
    makes the coset disjoint from S_i, so there is nothing to count.
    """
    u = tuple(u)
    S = fam.members[i]
    if S.contains(u):
        raise ValueError("u must lie outside the member subspace")
    hits = 0
    for j, T in enumerate(fam.members):
        if j == i:
            continue
        if S.sum(T).contains(u):
            hits += 1
    return hits


def coset_hits_bruteforce(fam: Family, i: int, u) -> int:
    """Independent oracle for coset_hits: enumerate all q^k points of the
    coset u + S_i and test each against every other member directly.
    """
    f = fam.field
    S = fam.members[i]
    u = tuple(u)
    if S.contains(u):
        raise ValueError("u must lie outside the member subspace")
    hit = set()
    for v in S.vectors():
        pt = tuple(f.add(a, b) for a, b in zip(u, v))
        for j, T in enumerate(fam.members):
            if j != i and T.contains(pt):
                hit.add(j)
    return len(hit)


def _lex_smallest_outside(S: Subspace) -> tuple[int, ...]:
    """The lexicographically first vector of GF(q)^n outside S: the unit
    vector e_c for the largest c with e_c not in S.  Every vector before
    e_c in lex order lies in span(e_{c+1}, ..., e_{n-1}), which S
    contains."""
    for c in range(S.n - 1, -1, -1):
        e = tuple(int(i == c) for i in range(S.n))
        if not S.contains(e):
            return e
    raise AssertionError("subspace covers the whole space")


def _leading_one_combinations(rows, add, mul):
    """Yield sum(c_t * rows[t]) over the coefficient vectors c whose first
    nonzero entry is 1, in itertools.product order of c.  `add` and `mul`
    are the field's operation tables.

    For independent rows this is one vector per projective point of their
    span.  For RREF rows each vector is that point's normalized form.
    """
    for p in range(len(rows) - 1, -1, -1):
        layer = [rows[p]]
        for r in rows[p + 1 :]:
            layer = span_step(layer, r, add, mul)
        yield from layer


_ByteTables = namedtuple("_ByteTables", "q add mul log nonzero exp")


def _byte_tables(f: Field) -> _ByteTables:
    """The bytes.translate tables of f, q <= 256, 256 entries each, read
    off its add, mul, exp and log tables: add[a] maps code x < q to a + x
    and mul[a] maps it to a*x; log maps a code to its log to base gamma
    (0 for code 0), nonzero maps it to 0xff if nonzero else 0, and exp
    maps e in [1, 2q - 3] to gamma^e, with entry 0 for the masked zero
    lanes of _packed_point_keys.  Each byte kernel builds them once."""
    pad = bytes(256 - f.q)
    return _ByteTables(
        f.q,
        [bytes(row) + pad for row in f.add_table],
        [bytes(row) + pad for row in f.mul_table],
        bytes(f.log_table) + pad,
        bytes(1) + b"\xff" * (f.q - 1) + pad,
        bytes([0, *f.exp_table[1:256]]).ljust(256, b"\0"),
    )


def _leading_one_bytes(columns, tables: _ByteTables) -> bytes:
    """The bytes form of _leading_one_combinations over many row sets of
    k = len(columns) rows r_0, ..., r_{k-1} each: byte j of columns[s] is
    one coordinate of r_s in row set j, and byte c of the result is that
    coordinate of combination c.  Layer k-1 comes first, then k-2, ...,
    0, and each layer holds row set by row set; within a row set the
    combinations come in _leading_one_combinations' order.

    Layer p, the combinations whose first nonzero coefficient is on r_p,
    is r_p plus the span of r_{p+1}, ..., r_{k-1}.  The span of r_{k-1}
    is the mul-table row of r_{k-1}, bytes.translate with the add-table
    row of r_p shifts a span to layer p, and the span of r_p, ..., r_{k-1}
    joins the q translates of the span of r_{p+1}, ... by the multiples
    of r_p, one row set at a time.

    For independent rows these combinations are the points of their span,
    each once.  The map from coefficient vectors to the span is then
    injective, and the vectors whose first nonzero entry is 1 hold one
    scalar multiple of each nonzero vector of GF(q)^k, so their images
    hold one multiple of each point of the span.  A zero combination
    exists exactly when the rows are dependent.
    """
    q, add, mul = tables.q, tables.add, tables.mul
    translate, join = bytes.translate, b"".join
    ys = columns[-1]
    layers = [ys]
    spans = [mul[y][:q] for y in ys]
    for p in range(len(columns) - 2, -1, -1):
        xs = columns[p]
        layers.append(join(map(translate, spans, map(add.__getitem__, xs))))
        if p:
            spans = [join([translate(span, add[a]) for a in mul[x][:q]]) for span, x in zip(spans, xs)]
    return join(layers)


class NotAPartialSpread(ValueError):
    """The family is not a partial spread: members `pair` = (i, j), i < j,
    the first pair check_partial_spread finds, meet non-trivially."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"family is not a partial spread (members {pair})")
        self.pair = pair


def _quotient_point_counts(fam: Family):
    """Yield, for each member S_i in order, a Counter of the quotient points
    over S_i keyed by their normalized forms (coordinates in S_i's free
    columns): the count of a point is the number of members S_j, j != i,
    whose residue span (S_i + S_j)/S_i holds it.

    The residues of S_j's basis modulo S_i are brought to RREF, so the
    leading-1 combinations of the RREF rows are already normalized and
    Counter.update tallies them in C.  Rank below k means S_i meets S_j:
    raises NotAPartialSpread.

    count_L_aad takes this path above the byte limits, and the tests take
    it as the oracle of _packed_quotient_point_counts and of
    _hyperplane_count.
    """
    member_rows = [T.row_list() for T in fam.members]
    for i, S in enumerate(fam.members):
        project = operator.itemgetter(*_free_columns(S))
        counts = Counter()
        for j, rows in enumerate(member_rows):
            if j == i:
                continue
            points = _quotient_points(S, project, rows)
            if points is None:
                raise NotAPartialSpread(check_partial_spread(fam)[1])
            counts.update(points)
        yield counts


def _quotient_points(S: Subspace, project, rows):
    """The normalized quotient points over S of the span of `rows`, the
    basis of a subspace T of S's dimension, or None when S meets T.

    `project` is an itemgetter of S's free columns.  The residues of
    `rows` modulo S, projected to those columns, are brought to RREF, so
    their leading-1 combinations are already the points' normalized
    forms; they are yielded lazily.  Rank below len(rows) means S meets
    T.  The general AAD count and the k >= 2 search both tally these
    points.
    """
    f = S.field
    residues = [list(project(w)) for w in map(S._reduce, rows)]
    if _rref_rows(f, residues, S.n - S.k)[0] < len(rows):
        return None
    # tuples: the last row is yielded as it is, and keys must hash
    return _leading_one_combinations(list(map(tuple, residues)), f.add_table, f.mul_table)


def _packed_quotient_point_counts(fam: Family):
    """The byte path of _quotient_point_counts, for k >= 2, q <= 256 and
    n - k <= 8: yields, for each member S_i in order, a Counter of the
    same quotient points, keyed as _packed_point_keys keys them.

    One pass per member covers every other member at once, with no
    per-pair reduce or RREF: _packed_residues forms the residues of all
    pairs (S_i, S_j) together, a bytes column each, and
    _leading_one_bytes builds the leading-1 combinations of every pair's
    k residue rows, unreduced, one call per free coordinate.  For
    independent rows they are the points, each once; a zero combination
    exists exactly when S_i meets S_j, and then check_partial_spread names
    the pair that NotAPartialSpread carries.  The points come in another
    order than _quotient_points yields them, which no count depends on.
    """
    d = fam.n - fam.k
    tables = _byte_tables(fam.field)
    for residues in _packed_residues(fam, tables):
        points = [_leading_one_bytes([res[t] for res in residues], tables) for t in range(d)]
        keys = _packed_point_keys(points, tables)
        if keys is None:
            raise NotAPartialSpread(check_partial_spread(fam)[1])
        yield Counter(keys)


def _packed_residues(fam: Family, tables: _ByteTables):
    """Yield, for each member S_i in order, residues[s][t]: free column t
    of the residues modulo S_i of basis row s of every S_j, j != i, one
    byte per pair in member order.  `tables` is _byte_tables of the
    family's field.

    One pass per member covers every other member at once, with no
    per-pair reduce or RREF: the column is formed over all j together
    from the columns of the members' basis rows, as x[t] - sum_p
    x[c_p]*b_p[t] over S_i's pivots c_p and basis rows b_p; where x[c_p]
    is the same in every member, as when all members share their pivots,
    a term is one translate.
    """
    n, k, m = fam.n, fam.k, len(fam.members)
    add, mul, neg = fam.field.add_table, fam.field.mul_table, fam.field.neg_table
    translate, getitem = bytes.translate, operator.getitem
    columns = [bytes(col) for col in zip(*(T.entries for T in fam.members))]
    # the value of each basis entry that is the same in every member, else
    # None; all pivot columns are constant where the members share pivots
    constant = [col[0] if col == col[:1] * m else None for col in columns]
    for i, S in enumerate(fam.members):
        b, pivots, free = S.entries, S.pivots, _free_columns(S)
        residues = []
        for s in range(k):
            rows = [col[:i] + col[i + 1 :] for col in columns[s * n : s * n + n]]
            res = []
            for t in free:
                acc = rows[t]
                for p, c in enumerate(pivots):
                    minus_b = neg[b[p * n + t]]
                    if not minus_b:
                        continue
                    x = constant[s * n + c]
                    if x is None:
                        acc = bytes(map(getitem, map(add.__getitem__, acc), translate(rows[c], tables.mul[minus_b])))
                    elif x:
                        acc = translate(acc, tables.add[mul[minus_b][x]])
                res.append(acc)
            residues.append(res)
        yield residues


def _packed_point_keys(columns, tables: _ByteTables) -> memoryview | None:
    """The keys of the points whose coordinate t is byte s of columns[t],
    s = 0, 1, ..., in that order, as a memoryview of 8-byte words: each
    point scaled to a leading 1 and keyed by one int that packs its d =
    len(columns) <= 8 coordinates a byte each, or None when a point is
    zero.  Coordinate t is byte d - 1 - t in native byte
    order, so key.to_bytes(8, sys.byteorder)[d - 1 :: -1] gives them
    back.  The low byte, which picks a key's dict slot on a little-endian
    host, is then the last coordinate rather than the first, which is
    mostly the leading 1.

    Points are scaled in the log lanes of ints, one lane per point: the
    lead's log is picked lane by lane in column order, and each lane of
    log_t + (q-1) - lead lies in [1, 2q-3], so no lane borrows.  For
    q <= 128 a lane is one byte and carries nothing.  For q > 128 lanes
    are two bytes wide, and each is brought to [1, q-1], inside the
    256-entry exp table, by subtracting q - 1 where it is at least q,
    read off the lane's top bit after adding 2^15 - q.  The exp table of
    _byte_tables, whose entry 0 takes the masked zero lanes, maps the
    lanes back to codes.  A Counter of the words, or of a slice of them,
    tallies the keys in C.
    """
    q, log, nonzero, exp = tables.q, tables.log, tables.nonzero, tables.exp
    d, size = len(columns), len(columns[0])
    w = 1 if q <= 128 else 2  # bytes per log lane
    ones = int.from_bytes((b"\x01" + bytes(w - 1)) * size, "little")
    lanes, lead, found = [], 0, 0
    for col in columns:
        if w == 2:  # each code in the low byte of its lane
            wide = bytearray(2 * size)
            wide[::2] = col
            col = wide
        lg = int.from_bytes(col.translate(log), "little")
        nz = int.from_bytes(col.translate(nonzero), "little")
        lead |= lg & nz & ~found
        found |= nz
        lanes.append((lg, nz))
    if found != 255 * ones:
        return None
    shift, high = (q - 1) * ones - lead, (2**15 - q) * ones
    packed = bytearray(8 * size)
    for t, (lg, nz) in enumerate(lanes):
        v = lg + shift
        if w == 2:
            v -= (q - 1) * (((v + high) >> 15) & ones)
        packed[d - 1 - t :: 8] = (v & nz).to_bytes(w * size, "little")[::w].translate(exp)
    return memoryview(packed).cast("Q")


def _hyperplane_count(fam: Family) -> tuple[int, int, set]:
    """count_L_aad for n = 2k + 1, q <= 256 and m <= 256, by the normals
    of the hyperplanes W_j = (S_i + S_j)/S_i: returns the same (L, i,
    attaining), with no Counter.

    Proof that W_j is a hyperplane: S_i meets S_j trivially, so
    dim(S_i + S_j) = 2k = n - 1, and W_j has dimension k in the
    (k+1)-dimensional quotient by S_i.  So W_j is the kernel of one
    normal a_j, and the count of a quotient point x is the number of
    j != i with a_j . x = 0.  _packed_residues forms every pair's k
    residue rows, and _rref_rows brings them to RREF: its one free
    column c gives a_j[c] = 1 and a_j[c_r] = -R[r][c] at the pivot c_r
    of row r.  Rank below k means S_i meets S_j, and NotAPartialSpread
    carries check_partial_spread's pair.

    On the chart x_0 = 1 of PG(k, q), point (1, y, v) lies on W_j
    exactly when a_j[k] v = -(a_j[0] + a_j[1:k] . y).  Where a_j[k] != 0,
    W_j is the graph v = F_j(y) of an affine function, and the count of
    (1, y, v) is the number of graphs through it, plus the normals with
    a_j[k] = 0 whose affine part vanishes at y, which hold (1, y, v) for
    every v.  The part x_0 = 0 is the same count one dimension down, and
    so on to the chart of PG(1, q) and the point e_k, which lies on W_j
    exactly when a_j[k] = 0.  _hyperplane_lanes sums these counts in the
    byte lanes of Python ints, the values v and v + 1 in one pass over
    the graphs, in the two nibbles of each byte; a count is at most
    m - 1 <= 255, so no lane carries.

    A first pass keeps, member by member, the largest lane above the best
    so far, read from what is left of the lanes after bytes.translate
    deletes every count at or below it.  The winning member's lanes are
    summed again, and the lanes equal to L are its attaining points:
    coordinate s of the point x in lane c is byte c of _leading_one_bytes
    on the unit rows e_0, ..., e_{k-1} of GF(q)^k, which lists the points
    in the lanes' order.
    """
    f, k = fam.field, fam.k
    neg = f.neg_table
    tables = _byte_tables(f)
    best, best_i, best_normals = 0, 0, []
    for i, residues in enumerate(_packed_residues(fam, tables)):
        normals = []
        # one pair's k residue rows, each of the k + 1 free coordinates
        for pair in zip(*(zip(*res) for res in residues)):
            rows = list(map(list, pair))
            rank, pivots = _rref_rows(f, rows, k + 1)
            if rank < k:
                raise NotAPartialSpread(check_partial_spread(fam)[1])
            c = next(c for c in range(k + 1) if c not in pivots)
            a = [0] * (k + 1)
            a[c] = 1
            for row, p in zip(rows, pivots):
                a[p] = neg[row[c]]
            normals.append(a)
        top = best
        for lanes in _hyperplane_lanes(f, k, normals, tables):
            above = lanes.translate(None, bytes(range(top + 1)))
            if above:
                top = max(above)
        if top > best:
            best, best_i, best_normals = top, i, normals
    attaining = set()
    if best:
        units = [_leading_one_bytes([bytes([r == s]) for r in range(k)], tables) for s in range(k)]
        for v, lanes in enumerate(_hyperplane_lanes(f, k, best_normals, tables)):
            c = lanes.find(best)
            while c >= 0:
                attaining.add(tuple(x[c] for x in units) + (v,) if v < f.q else (0,) * k + (1,))
                c = lanes.find(best, c + 1)
    return best, best_i, attaining


def _hyperplane_lanes(f: Field, k: int, normals, tables: _ByteTables):
    """Yield, for v = 0, 1, ..., q-1, the counts of the points (x, v) of
    PG(k, q) as bytes, lane c the count of the point x of PG(k-1, q) that
    _leading_one_bytes lists c-th, then the count of e_k as one byte.
    The count of a point is the number of `normals` a with a . (x, v) = 0.

    Each normal with a[k] != 0 is scaled to a[k] = -1, so that it holds
    (x, v) exactly when v = a[:k] . x, whose values over the points x are
    _leading_one_bytes of one row set of k one-byte rows a[0], ...,
    a[k-1]; a normal with a[k] = 0 holds (x, v) for every v where
    a[:k] . x = 0, and those indicators are summed once.  The values v
    and v + 1 share one pass: a string is translated to the indicator of
    v in the low nibble of each byte and that of v + 1 in the high
    nibble, and summed as an int in groups of at most 15 strings.  A
    group adds at most 15 ones to a nibble, so no nibble carries into the
    next, and one mask and one shift-and-mask split the group's sum into
    the byte lanes of v and of v + 1.  For odd q the last pass has no
    value v + 1, and its high lanes are dropped.  Only the strings,
    (m-1)(q^k-1)/(q-1) bytes, and two sums are held.
    """
    q, mul, inv = f.q, f.mul_table, f.inv_table
    graphs, every_v = [], 0
    for a in normals:
        if a[k]:
            scale = mul[f.neg_table[inv[a[k]]]]
            graphs.append(_leading_one_bytes([bytes([scale[x]]) for x in a[:k]], tables))
        else:
            zero = _leading_one_bytes([bytes([x]) for x in a[:k]], tables).translate(b"\x01" + bytes(255))
            every_v += int.from_bytes(zero, "little")
    cells = (q**k - 1) // (q - 1)
    groups = [graphs[g : g + 15] for g in range(0, len(graphs), 15)]
    nibbles = int.from_bytes(b"\x0f" * cells, "little")
    translate, from_bytes = bytes.translate, int.from_bytes
    for v in range(0, q, 2):
        pair = bytes(v) + b"\x01\x10" + bytes(254 - v)
        low = high = every_v
        for group in groups:
            both = sum(map(from_bytes, map(translate, group, repeat(pair)), repeat("little")))
            low += both & nibbles
            high += both >> 4 & nibbles
        yield low.to_bytes(cells, "little")
        if v + 1 < q:
            yield high.to_bytes(cells, "little")
    yield bytes([len(normals) - len(graphs)])


def _packed_line_point_counts(fam: Family):
    """The byte path of _line_point_counts, for q <= 256 and n <= 9: the
    same Counters, keyed as _packed_point_keys keys them.

    Line S_i = <b> with pivot c takes the later lines <x> in groups of
    equal x[c] = a, built once per pivot column as ascending indices and
    one bytes column per coordinate; residue column t of a group,
    x[t] - a*b[t], is one translate by an add row of _byte_tables.
    Distinct lines never meet, so no residue is zero.

    The residue columns of consecutive lines are joined into one block
    until it holds _BLOCK_LANES pairs, or up to the last line, and
    _packed_point_keys scales the whole block at once, so its set-up is
    paid once per block; each line's Counter tallies its slice of the
    block's keys.
    """
    f = fam.field
    q, mul, neg = f.q, f.mul_table, f.neg_table
    tables = _byte_tables(f)
    entries = [T.entries for T in fam.members]
    groups = {}
    for c in {T.pivots[0] for T in fam.members}:
        by_value = [[] for _ in range(q)]
        for j, x in enumerate(entries):
            by_value[x[c]].append(j)
        groups[c] = [
            (a, js, [bytes(col) for col in zip(*map(entries.__getitem__, js))])
            for a, js in enumerate(by_value)
            if js
        ]
    last = len(entries) - 1
    block, ends = [[] for _ in range(fam.n - 1)], []
    for i, (S, b) in enumerate(zip(fam.members, entries)):
        free = _free_columns(S)
        lanes = ends[-1] if ends else 0
        for a, js, cols in groups[S.pivots[0]]:
            s = bisect_right(js, i)
            if s < len(js):
                lanes += len(js) - s
                for out, t in zip(block, free):
                    out.append(cols[t][s:].translate(tables.add[neg[mul[a][b[t]]]]))
        ends.append(lanes)
        if lanes >= _BLOCK_LANES or i == last:
            keys = _packed_point_keys(list(map(b"".join, block)), tables)
            for start, end in zip([0, *ends], ends):
                yield Counter(keys[start:end])
            block, ends = [[] for _ in block], []


def _line_point_counts(lines):
    """The AAD count for k = 1 over a sequence of distinct lines, in one
    batched pass: yields, for each line S_i in order, a Counter of the
    quotient points over S_i of the later lines S_j, j > i.

    Each unordered pair is counted once, at its earlier line, and the
    value, witness member and attaining keys are those of the count over
    all j != i.  Proof: line S_i's full count of the quotient point of
    S_j is the number of family lines on the plane P = S_i + S_j other
    than S_i, |F on P| - 1, the same from each line on P.  Counting only
    j > i gives P its full count at its first line and less at every
    later one.  So the largest count is the same, L, and line i reaches
    it exactly at the maximal planes (those holding L + 1 lines) whose
    first line is i.  Let i0 be the least first line of a maximal plane.
    In the full count, line i reaches L exactly when it lies on a maximal
    plane, and the least such line is i0.  Every maximal plane through i0
    has its first line at or before i0, and no maximal plane has its
    first line before i0, so at i0 both counts attain L at the same keys.

    Line S_i = <b> has pivot c and b[c] = 1, so the residue of line <x>
    is x - x[c]*b.  The pass works a coordinate column at a time over all
    later lines at once: free coordinate t of the residues reads the add
    table and the row of b[t] in the mul table at -x[c], and each residue
    is scaled to a leading 1 by the row of 1/lead in the mul table.
    Distinct lines never meet, so every residue has a lead.

    count_L_aad takes this pass above the byte limits, and the tests take
    it as _packed_line_point_counts' oracle.  search._feasible keeps it:
    on a node's 3 to 30 lines the byte path's set-up costs more than it
    saves.
    """
    f = lines[0].field
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    entries = [T.entries for T in lines]
    # lists, not tuples: the per-member slices then raise peak RSS less
    columns = [list(col) for col in zip(*entries)]
    getitem = operator.getitem
    for i, (S, b) in enumerate(zip(lines, entries)):
        later = [col[i + 1 :] for col in columns]
        minus_a = list(map(neg.__getitem__, later[S.pivots[0]]))
        residues = [
            list(map(getitem, map(add.__getitem__, later[t]), map(mul[b[t]].__getitem__, minus_a)))
            for t in _free_columns(S)
        ]
        leads = map(next, map(filter, repeat(None), zip(*residues)))
        scales = list(map(mul.__getitem__, map(inv.__getitem__, leads)))
        yield Counter(zip(*[map(getitem, scales, r) for r in residues]))


def _free_columns(S: Subspace) -> list[int]:
    """The n-k non-pivot columns of S.  Residues modulo S vanish on the
    pivot columns, so the AAD count keys points by the free coordinates
    only; 2k < n leaves at least two, so an itemgetter of them returns a
    tuple."""
    pivot_set = set(S.pivots)
    return [c for c in range(S.n) if c not in pivot_set]


def _first_attaining_coset(fam: Family, i: int, attaining: set):
    """The witness (i, u) of compute_L_aad: walks S_i's residue
    combinations in raw order (every j != i in member order, then
    _leading_one_combinations of the unreduced residues) and returns the
    first combination u whose normalized point is in `attaining`, lifted
    to GF(q)^n with zeros in S_i's pivot columns."""
    f = fam.field
    add, mul, inv = f.add_table, f.mul_table, f.inv_table
    S = fam.members[i]
    free_cols = _free_columns(S)
    project = operator.itemgetter(*free_cols)
    for j, T in enumerate(fam.members):
        if j == i:
            continue
        proj = [project(w) for w in map(S._reduce, T.row_list())]
        for v in _leading_one_combinations(proj, add, mul):
            lead = next(filter(None, v))
            key = v if lead == 1 else tuple(map(mul[inv[lead]].__getitem__, v))
            if key in attaining:
                u = [0] * fam.n
                for c, val in zip(free_cols, v):
                    u[c] = val
                return i, tuple(u)
    raise AssertionError("no quotient point attains the member's maximum")


def count_L_aad(fam: Family) -> tuple[int, int, set]:
    """The AAD count of compute_L_aad without the witness walk: returns
    (L, i, attaining), where S_i is the first member whose largest count
    is L and `attaining` is the set of S_i's normalized quotient points
    with that count.  A one-member family returns (0, 0, set()).  Every
    pair is visited, so a return certifies that the family is a partial
    spread; otherwise NotAPartialSpread is raised.

    For n = 2k + 1, k >= 3 and 16 <= q <= m <= 256, m the number of
    members, _hyperplane_count sums the counts in byte lanes with no
    Counter; above m = 256 a count does not fit its byte.  The bounds on
    q and m mark where the Counter beat a kernel with one pass per value
    v: below q = 16, and from q = 64 at small m < q.  With two values
    per pass the kernel also wins at q = 11 and 13 with m = q and at
    (q, m) = (64, 8), and ties at q = 8 and at (128, 8); no workload
    counts such inputs, so the bounds stay until one does.  Elsewhere,
    within the byte limits q <= 256 and n - k <= 8, the points are
    tallied by _packed_line_point_counts (k = 1) or
    _packed_quotient_point_counts (every k >= 2, its points built by
    _leading_one_bytes, as are the hyperplane kernel's), one pass per
    member with no per-pair reduce or RREF, keyed by packed ints; only
    the attaining keys of S_i are turned back into tuples.  Above the byte
    limits a code or a point does not fit its byte or word, and
    _line_point_counts or _quotient_point_counts tallies tuples.
    """
    q, m = fam.field.q, len(fam.members)
    if fam.n == 2 * fam.k + 1 and fam.k >= 3 and 16 <= q <= m <= 256:
        return _hyperplane_count(fam)
    d = fam.n - fam.k
    packed = q <= 256 and d <= 8
    if fam.k == 1 and packed:
        per_member = _packed_line_point_counts(fam)
    elif fam.k == 1:
        per_member = _line_point_counts(fam.members)
    elif packed:
        per_member = _packed_quotient_point_counts(fam)
    else:
        per_member = _quotient_point_counts(fam)
    best, best_i, attaining = 0, 0, set()
    for i, counts in enumerate(per_member):
        # for k = 1 the last line has no later line to count
        top = max(counts.values(), default=0)
        if top > best:
            best, best_i = top, i
            attaining = {key for key, cnt in counts.items() if cnt == top}
    if packed:
        attaining = {tuple(key.to_bytes(8, sys.byteorder)[d - 1 :: -1]) for key in attaining}
    return best, best_i, attaining


def compute_L_aad(fam: Family) -> tuple[int, tuple[int, tuple[int, ...]]]:
    """Exact AAD parameter with an attaining witness (member index, u).

    For each member S_i, the coset u + S_i meets S_j exactly when the
    point of u in the quotient by S_i lies in (S_i + S_j)/S_i, the span
    of the residues of S_j's basis modulo S_i.  Counting, over all j, the
    points of those spans finds the quotient point that the most members
    reach.  count_L_aad is this count alone, for callers that need no
    witness, and its docstring states which path counts which input.
    For k = 1 the point of S_j over S_i is the plane S_i + S_j, whose
    count is the same from each of its lines, so S_i counts only the
    later lines j > i, and each unordered pair once (_line_point_counts
    proves that the value and witness are unchanged).

    The witness is the first member S_i, in member order, whose largest
    count is the maximum.  Only that member is walked again, over every
    S_j, j != i, in the raw order of the residue combinations, and u is
    the first combination whose point has the maximal count: the point
    first inserted among those that attain it, reached by the combination
    that first reached it.  The walk costs about 1/m of the count.

    Residues of rank below k mean S_i meets S_j: raises
    NotAPartialSpread (distinct lines never meet, so for k = 1 nothing is
    raised).  Every pair is visited, so a return certifies that the
    family is a partial spread.
    """
    members = fam.members
    if len(members) <= 1:
        u = _lex_smallest_outside(members[0])
        return 0, (0, u)
    best, best_i, attaining = count_L_aad(fam)
    return best, _first_attaining_coset(fam, best_i, attaining)


def check_as_guard(n: int, k: int, q: int, enum_guard: int | None) -> None:
    """Raise SizeGuardError when the AS count on k-subspaces of GF(q)^n
    would enumerate more than enum_guard (k+1)-subspaces (None: no guard)."""
    checked_gaussian_binomial("AS verification", n, k + 1, q, enum_guard, "(k+1)-subspaces")


def compute_L_as(
    fam: Family, enum_guard: int | None = DEFAULT_AS_ENUM_GUARD, *, L_aad: int | None = None
) -> tuple[int, Subspace]:
    """Exact AS parameter with an attaining (k+1)-subspace witness.

    Enumerates every (k+1)-subspace V.  V meets a member non-trivially
    exactly when it holds one of the member's projective points, so the
    count for V is the number of distinct owners among V's points, read
    from a map of every member point to its member.  In a partial spread
    each point has at most one owner; after the enumeration guard, a
    second owner met while the map is built raises NotAPartialSpread.

    The witness is the first V, in enumeration order, with the largest
    count.  For k = 1 a plane that meets a line contains it, so
    L_as = L_aad + 1 exactly: given the family's L_aad, the enumeration
    stops at the first plane whose count reaches L_aad + 1, which is that
    witness.  If no plane reaches it, the full maximum is returned and
    check_relations reports the breach; a too small L_aad is not caught
    here.  For k >= 2, or with L_aad=None, every V is enumerated.
    """
    check_as_guard(fam.n, fam.k, fam.field.q, enum_guard)
    f = fam.field
    add, mul = f.add_table, f.mul_table
    owner = {}
    for idx, S in enumerate(fam.members):
        for pt in _leading_one_combinations(S.row_list(), add, mul):
            if owner.setdefault(pt, idx) != idx:
                raise NotAPartialSpread(check_partial_spread(fam)[1])
    m = len(fam.members)
    # no V meets more than all m members
    enough = m if fam.k != 1 or L_aad is None else min(L_aad + 1, m)
    best = -1
    best_V = None
    for V in enumerate_subspaces(f, fam.n, fam.k + 1):
        met = {owner.get(pt) for pt in _leading_one_combinations(V.row_list(), add, mul)}
        hits = len(met) - (None in met)
        if hits > best:
            best, best_V = hits, V
            if best >= enough:
                break
    assert best_V is not None
    return best, best_V


def check_relations(fam: Family, report: VerificationReport) -> tuple[bool, list[str]]:
    """Cross-checks between the exact AAD and AS parameters.

    Any family: L_aad <= L_as - 1 (a coset hitting t members yields a
    (k+1)-subspace meeting t+1).  For k=1 also L_as <= L_aad + 1 (a
    plane meeting a line contains it), hence equality.

    For k=1, build_report's AS count stops at the first plane reaching
    L_aad + 1, so L_as is no longer an independent count there: an L_aad
    that is too large still shows as L_aad > L_as - 1, but one that is too
    small yields L_as = L_aad + 1 and passes.  The second clause is then
    guarded by the tests that compare both verifiers with the full
    enumeration and exhaustive oracles, not at run time.
    """
    if report.L_aad is None or report.L_as is None:
        raise ValueError("report must hold computed L_aad and L_as")
    msgs = []
    if report.L_aad > report.L_as - 1:
        msgs.append(f"L_aad={report.L_aad} exceeds L_as-1={report.L_as - 1}")
    if fam.k == 1 and report.L_as > report.L_aad + 1:
        msgs.append(f"k=1 but L_as={report.L_as} exceeds L_aad+1={report.L_aad + 1}")
    return not msgs, msgs


def build_report(
    fam: Family,
    properties=("spread", "aad", "as", "bound", "relations"),
    as_enum_guard: int | None = DEFAULT_AS_ENUM_GUARD,
) -> VerificationReport:
    """Run the requested verifications and collect exact results.

    Properties depending on the partial-spread precondition are skipped
    (left None, with a diagnostic) when the family is not a spread.

    A report that runs the AAD count (aad, bound or relations) takes its
    spread fields from the count: a count that returns certifies the
    spread, and NotAPartialSpread carries check_partial_spread's pair.
    Spread-only and `as`-only reports run check_partial_spread once,
    before any AS count.

    For k = 1, when the AAD count has run, the AS count stops at the
    first plane that attains L_aad + 1; an `as`-only report runs the full
    enumeration and no AAD count.
    """
    properties = set(properties)
    unknown = properties - {"spread", "aad", "as", "bound", "relations"}
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    report = VerificationReport()
    if not properties:
        return report
    if properties & {"aad", "bound", "relations"}:
        try:
            report.L_aad, report.aad_witness = compute_L_aad(fam)
        except NotAPartialSpread as exc:
            witness = exc.pair
        else:
            witness = None
    else:
        witness = check_partial_spread(fam)[1]
    report.is_partial_spread = witness is None
    report.spread_witness = witness
    if witness is not None and properties != {"spread"}:
        report.diagnostics.append("not a partial spread; AAD/AS parameters are undefined")
        return report
    if properties & {"as", "relations"}:
        report.L_as, report.as_witness = compute_L_as(fam, as_enum_guard, L_aad=report.L_aad)
    if "bound" in properties:
        from .constructions import max_family_size_bound

        report.size_bound = max_family_size_bound(fam.n, fam.k, report.L_aad, fam.field.q)
        report.bound_satisfied = len(fam) <= report.size_bound
    if "relations" in properties:
        ok, msgs = check_relations(fam, report)
        report.relations_ok = ok
        report.diagnostics.extend(msgs)
    return report
