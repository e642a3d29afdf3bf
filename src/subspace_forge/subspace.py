"""Canonical subspaces of GF(q)^n and exhaustive subspace enumeration.

A Subspace is stored as the row-major entries of its unique RREF basis,
so equality is plain entry-wise comparison and the entries tuple can
serve as a dict key.  The enumeration iterates pivot-column patterns in
lexicographic order and fills the free cells row-major with codes
counted lexicographically, which pins a reproducible canonical order
used by the search and test layers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .gf import Field, _json_int, check_guard
from .matgf import rank_of_stack, rref


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    assert num % den == 0
    return num // den


def checked_gaussian_binomial(work: str, n: int, k: int, q: int, guard: int | None, units: str = "k-subspaces") -> int:
    """gaussian_binomial(n, k, q), for 1 <= k < n, once check_guard admits
    it as the `units` that `work` needs.  A count far past 10^100 and the
    guard is refused unformed, by its log10 summed over the factors in
    floats: for large k, forming it takes minutes."""
    # factor i is (q^(n-i) - 1) / (q^(k-i) - 1): q^(n-k) times a ratio near 1
    log10 = sum((n - k) * math.log10(q) + math.log10((1 - q ** (i - n)) / (1 - q ** (i - k))) for i in range(k))
    if guard is not None and log10 > max(100, math.log10(max(guard, 1))) + 1:
        check_guard(work, None, units, guard, log10)
    count = gaussian_binomial(n, k, q)
    check_guard(work, count, units, guard)
    return count


def span_step(layer, row, add, mul) -> list[tuple[int, ...]]:
    """e + c*row for each e in layer and then c = 0, 1, ..., q-1, built one
    coordinate column at a time from the rows of the add and mul tables."""
    return [v for e in layer for v in zip(*[map(add[a].__getitem__, mul[b]) for a, b in zip(e, row)])]


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of GF(q)^n, held as the k x n row-major
    entries of its canonical RREF basis."""

    field: Field
    n: int
    k: int
    entries: tuple[int, ...]

    def __post_init__(self):
        # 1.0 and True would pass the checks below and reach the JSON
        for x in (self.n, self.k, *self.entries):
            _json_int(x)
        q = self.field.q
        if any(not 0 <= e < q for e in self.entries):
            raise ValueError("entry out of field range")
        if len(self.entries) != self.k * self.n:
            raise ValueError("basis shape does not match (k, n)")
        if self.k < 1 or self.k > self.n:
            raise ValueError(f"subspace dimension must be in [1, n], got k={self.k}")
        # canonical rank-k RREF: each row's first nonzero entry is a 1, the
        # pivots strictly increase, and every other row is 0 in each pivot
        rows = self.row_list()
        pivots = tuple(next(filter(row.__getitem__, range(self.n)), self.n) for row in rows)
        if not (
            all(map(operator.lt, pivots, pivots[1:]))
            and pivots[-1] < self.n
            and all(row[p] == (r == s) for s, row in enumerate(rows) for r, p in enumerate(pivots))
        ):
            raise ValueError("basis is not a canonical rank-k RREF matrix")
        object.__setattr__(self, "_pivots", pivots)

    @classmethod
    def _trusted(cls, field: Field, n: int, k: int, entries: tuple[int, ...], pivots: tuple[int, ...]) -> "Subspace":
        """A subspace whose entries are already its canonical RREF basis
        with the given pivot columns.  Skips the checks of __post_init__,
        so only callers that build the canonical form themselves may use it."""
        S = object.__new__(cls)
        for name, value in (("field", field), ("n", n), ("k", k), ("entries", entries), ("_pivots", pivots)):
            object.__setattr__(S, name, value)
        return S

    @classmethod
    def from_generators(cls, field: Field, n: int, vectors) -> "Subspace":
        """Canonical subspace spanned by the given vectors.  A coordinate
        must be an int: 1.7, "3" and True raise TypeError, as in from_json,
        instead of reading as 1, 3 and 1."""
        vectors = [tuple(map(_json_int, v)) for v in vectors]
        if not vectors:
            raise ValueError("empty generator set")
        if any(len(v) != n for v in vectors):
            raise ValueError("generator length does not match ambient dimension")
        if any(not 0 <= x < field.q for v in vectors for x in v):
            raise ValueError("entry out of field range")
        R, rk, pivots = rref(field, vectors)
        if rk == 0:
            raise ValueError("generators span only the zero space")
        return cls._trusted(field, n, rk, tuple(x for row in R[:rk] for x in row), pivots)

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def row_list(self) -> list[tuple[int, ...]]:
        """The k basis rows."""
        n, e = self.n, self.entries
        return [e[i : i + n] for i in range(0, self.k * n, n)]

    def reduce(self, v) -> tuple[int, ...]:
        """Residue of v modulo this subspace: the unique coset member with
        zeros in all pivot coordinates.  It is also the lexicographically
        smallest member of v + S, hence the coset's canonical representative.

        A coordinate must be an int in [0, q): 1.7, "3" and True raise
        TypeError, and -1 or q raise ValueError, instead of reading as codes.
        """
        r = tuple(map(_json_int, v))
        if len(r) != self.n:
            raise ValueError("vector length mismatch")
        if any(not 0 <= x < self.field.q for x in r):
            raise ValueError("entry out of field range")
        return self._reduce(r)

    def _reduce(self, r) -> tuple[int, ...]:
        """reduce without its checks, for a vector r of n codes in [0, q),
        such as a basis row of a subspace over the same field.

        Subtracting c times a basis row reads rows of the field's add, mul
        and neg tables.
        """
        f = self.field
        n = self.n
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        entries = self.entries
        for row_idx, p in enumerate(self._pivots):
            c = r[p]
            if c:
                brow = entries[row_idx * n : row_idx * n + n]
                scaled = mul[neg[c]]  # b -> -c*b
                r = [add[x][scaled[b]] for x, b in zip(r, brow)]
        return tuple(r)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def trivially_intersects(self, other: "Subspace") -> bool:
        """True iff the two subspaces meet only in the zero vector."""
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient space mismatch")
        return rank_of_stack(self.field, self.row_list(), other.row_list()) == self.k + other.k

    def sum(self, other: "Subspace") -> "Subspace":
        """Canonical span of the union of both subspaces."""
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient space mismatch")
        return Subspace.from_generators(self.field, self.n, self.row_list() + other.row_list())

    def vectors(self) -> list[tuple[int, ...]]:
        """All q^k vectors sum(c_t * row_t) of the subspace, in
        itertools.product order of the coefficient vectors c."""
        f = self.field
        layer = [(0,) * self.n]
        for row in self.row_list():
            layer = span_step(layer, row, f.add_table, f.mul_table)
        return layer

    def key(self) -> tuple[int, ...]:
        """Hashable identity of the subspace (its RREF basis entries)."""
        return self.entries

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "basis": [list(r) for r in self.row_list()]}

    @classmethod
    def from_json(cls, field: Field, obj: dict) -> "Subspace":
        rows = [tuple(map(_json_int, row)) for row in obj["basis"]]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        n = _json_int(obj["n"])
        # rows of length n make the entry count k * n only for k rows
        if rows and len(rows[0]) != n:
            raise ValueError("basis shape does not match (k, n)")
        return cls(field, n, obj["k"], tuple(x for row in rows for x in row))


def enumerate_subspaces(field: Field, n: int, k: int):
    """Yield every k-dimensional subspace of GF(q)^n exactly once.

    Order: pivot-column patterns lexicographically, then free entries
    row-major in lexicographic code order.  Total count equals
    gaussian_binomial(n, k, q).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    q = field.q
    for pattern in itertools.combinations(range(n), k):
        pivot_set = set(pattern)
        free_cells = [r * n + c for r in range(k) for c in range(n) if c not in pivot_set and c > pattern[r]]
        base = [0] * (k * n)
        for r, p in enumerate(pattern):
            base[r * n + p] = 1
        for assignment in itertools.product(range(q), repeat=len(free_cells)):
            entries = base[:]
            for i, val in zip(free_cells, assignment):
                entries[i] = val
            # unit pivots, zeros in other pivot columns and left of each
            # pivot: the basis is canonical RREF by construction
            yield Subspace._trusted(field, n, k, tuple(entries), pattern)
