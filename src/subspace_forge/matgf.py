"""Dense exact linear algebra over GF(q).

A matrix is a list of rows of element codes, all of one length.  The
codes are trusted: the subspace layer and the CLI check them on input.
Ambient dimensions stay tiny (n <= 8 in practice), so everything is
plain Gauss-Jordan elimination; the RREF is the canonical form that the
subspace layer relies on for equality.
"""

from __future__ import annotations

from .gf import Field


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


def rref(field: Field, rows) -> tuple[list[tuple[int, ...]], int, tuple[int, ...]]:
    """Reduced row echelon form of the matrix with these rows.

    Returns (R, rank, pivots): R has as many rows, with the zero rows at
    the bottom, rank is the number of nonzero rows, and pivots is the
    strictly increasing tuple of pivot column indices.
    """
    R = [list(r) for r in rows]
    rank, pivots = _rref_rows(field, R, len(R[0]) if R else 0)
    return list(map(tuple, R)), rank, pivots


def kernel_basis(field: Field, rows, ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the right null space {v : M v^T = 0} of the
    matrix M with these rows and ncols columns.

    The output has ncols - rank(M) rows and is itself in RREF, so two
    equal kernels compare equal row by row.
    """
    R, _, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    gens = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r_idx, pc in enumerate(pivots):
            v[pc] = field.neg(R[r_idx][fc])
        gens.append(v)
    nrank, _ = _rref_rows(field, gens, ncols)
    assert nrank == len(free)
    return list(map(tuple, gens))


def rank_of_stack(field: Field, A, B) -> int:
    """Rank of the vertical concatenation of the row lists A and B."""
    if A and B and len(A[0]) != len(B[0]):
        raise ValueError("column count mismatch")
    rows = [list(r) for r in A]
    rows += [list(r) for r in B]
    r, _ = _rref_rows(field, rows, len(rows[0]) if rows else 0)
    return r
