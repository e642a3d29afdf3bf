"""Dense exact linear algebra over GF(q).

Matrices are immutable row-major tuples of element codes.  Ambient
dimensions stay tiny (n <= 8 in practice), so everything is plain
Gauss-Jordan elimination; the RREF is the canonical form that the
subspace layer relies on for equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Field, _json_int


@dataclass(frozen=True)
class MatrixGF:
    field: Field
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        q = self.field.q
        if any(not 0 <= e < q for e in self.entries):
            raise ValueError("entry out of field range")

    @classmethod
    def from_rows(cls, field: Field, rows) -> "MatrixGF":
        rows = [tuple(int(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, tuple(x for r in rows for x in r))

    def entry(self, r: int, c: int) -> int:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(r) for r in range(self.rows)]

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": list(self.entries)}

    @classmethod
    def from_json(cls, field: Field, obj: dict) -> "MatrixGF":
        return cls(field, _json_int(obj["rows"]), _json_int(obj["cols"]), tuple(map(_json_int, obj["entries"])))


def _rref_rows(field: Field, rows: list[list[int]], ncols: int):
    """In-place Gauss-Jordan; returns (rank, pivot columns).

    Scaling and elimination read rows of the field's add, mul, neg and inv
    tables.
    """
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = list(map(mul[inv[lead]].__getitem__, rows[r]))
        rr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                scaled = mul[neg[f]]  # y -> -f*y
                rows[i] = [add[x][scaled[y]] for x, y in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots)


def rref(M: MatrixGF) -> tuple[MatrixGF, int, tuple[int, ...]]:
    """Reduced row echelon form of M.

    Returns (R, rank, pivots): R has the same shape as M with zero rows
    at the bottom, rank is the number of nonzero rows, and pivots is the
    strictly increasing tuple of pivot column indices.
    """
    rows = [list(M.row(r)) for r in range(M.rows)]
    rank, pivots = _rref_rows(M.field, rows, M.cols)
    R = MatrixGF(M.field, M.rows, M.cols, tuple(x for r in rows for x in r))
    return R, rank, pivots


def kernel_basis(M: MatrixGF) -> MatrixGF:
    """Canonical basis of the right null space {v : M v^T = 0}.

    The output has cols(M) - rank(M) rows and is itself in RREF, so two
    equal kernels compare equal entry-wise.
    """
    field = M.field
    R, rk, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    gens = []
    for fc in free:
        v = [0] * M.cols
        v[fc] = 1
        for r_idx, pc in enumerate(pivots):
            v[pc] = field.neg(R.entry(r_idx, fc))
        gens.append(v)
    if not gens:
        return MatrixGF(field, 0, M.cols, ())
    nrank, _ = _rref_rows(field, gens, M.cols)
    assert nrank == len(free)
    return MatrixGF(field, len(gens), M.cols, tuple(x for r in gens for x in r))


def rank_of_stack(A: MatrixGF, B: MatrixGF) -> int:
    """Rank of the vertical concatenation of A and B."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    if A.cols != B.cols:
        raise ValueError("column count mismatch")
    rows = [list(A.row(r)) for r in range(A.rows)]
    rows += [list(B.row(r)) for r in range(B.rows)]
    r, _ = _rref_rows(A.field, rows, A.cols)
    return r
