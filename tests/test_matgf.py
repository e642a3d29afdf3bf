import random

import pytest

from subspace_forge.gf import make_field
from subspace_forge.matgf import kernel_basis, rank_of_stack, rref

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


def random_matrix(field, rows, cols, rng):
    return [tuple(rng.randrange(field.q) for _ in range(cols)) for _ in range(rows)]


def identity(n):
    return [tuple(int(r == c) for c in range(n)) for r in range(n)]


def mat_vec(f, M, v):
    """M v^T over the field f, one field operation at a time."""
    out = []
    for row in M:
        acc = 0
        for x, y in zip(row, v):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_identity(f5):
    I = identity(3)
    R, rk, piv = rref(f5, I)
    assert R == I
    assert rk == 3
    assert piv == (0, 1, 2)


def test_rref_zero(f5):
    Z = [(0,) * 4] * 2
    R, rk, piv = rref(f5, Z)
    assert R == Z
    assert rk == 0
    assert piv == ()


def test_rref_vandermonde_rank(f5):
    # nodes 1, 2, 3: determinant (2-1)(3-1)(3-2) = 2 != 0 mod 5
    V = [[1, 1, 1], [1, 2, 4], [1, 3, 4]]
    _, rk, _ = rref(f5, V)
    assert rk == 3


def test_rref_idempotent():
    rng = random.Random(42)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            R, rk, piv = rref(field, M)
            R2, rk2, piv2 = rref(field, R)
            assert (R2, rk2, piv2) == (R, rk, piv)


def test_rref_pivots_strictly_increasing():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            _, rk, piv = rref(field, M)
            assert len(piv) == rk
            assert all(a < b for a, b in zip(piv, piv[1:]))


def _raw_rref(f, M):
    """Gauss-Jordan in the field's raw polynomial arithmetic: (R, rank,
    pivots) as rref returns them."""

    def mul(a, b):
        return f._mul_raw(a, b)

    def inv(a):
        out, e = 1, f.q - 2
        while e:
            if e & 1:
                out = mul(out, a)
            a, e = mul(a, a), e >> 1
        return out

    rows = list(M)
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = inv(rows[r][c])
        rows[r] = tuple(mul(s, x) for x in rows[r])
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = tuple(f._add_raw(x, f._neg_raw(mul(g, y))) for x, y in zip(rows[i], rows[r]))
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def _random_rank_deficient_matrix(field, rng):
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
    M = random_matrix(field, rows, cols, rng)
    if rows > 1 and rng.randrange(2):
        # append a combination of the rows, so that ranks below rows occur
        c = [rng.randrange(field.q) for _ in range(rows)]
        extra = [0] * cols
        for ci, row in zip(c, M):
            extra = [field.add(x, field.mul(ci, y)) for x, y in zip(extra, row)]
        M.append(tuple(extra))
    return M


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (3, 2), (2, 10)])
def test_rref_reads_tables_like_raw_arithmetic(p, m):
    field = make_field(p, m)
    rng = random.Random(field.q)
    for _ in range(30):
        A = _random_rank_deficient_matrix(field, rng)
        assert rref(field, A) == _raw_rref(field, A)
        B = random_matrix(field, rng.randrange(1, 4), len(A[0]), rng)
        assert rank_of_stack(field, A, B) == _raw_rref(field, A + B)[1]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_of_sum_row(f5):
    K = kernel_basis(f5, [[1, 1]], 2)
    assert K == [(1, 4)]  # (1, -1) canonicalized


def test_kernel_of_full_rank_square(f5):
    K = kernel_basis(f5, identity(3), 3)
    assert K == []


def test_kernel_of_empty_matrix_is_identity(f5):
    # no constraints: kernel is the whole space, canonical basis I
    K = kernel_basis(f5, [], 3)
    assert K == identity(3)


def test_kernel_rows_annihilate():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 6), rng)
            K = kernel_basis(field, M, len(M[0]))
            for row in K:
                assert mat_vec(field, M, row) == (0,) * len(M)


def test_rank_nullity():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(40):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            assert rref(field, M)[1] + len(kernel_basis(field, M, len(M[0]))) == len(M[0])


def test_kernel_is_canonical():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(20):
            M = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 5), rng)
            K = kernel_basis(field, M, len(M[0]))
            if K:
                R, rk, _ = rref(field, K)
                assert R == K and rk == len(K)


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------


def test_rank_of_stack_self(f5):
    M = [(1, 2, 0), (0, 0, 1)]
    assert rank_of_stack(f5, M, M) == rref(f5, M)[1] == 2


def test_rank_of_stack_disjoint_lines(f2):
    assert rank_of_stack(f2, [(1, 0, 0)], [(0, 1, 0)]) == 2


def test_rank_of_stack_vandermonde_rows(f5):
    # rows (1, t, t^2) for distinct t have full rank
    assert rank_of_stack(f5, [(1, 1, 1), (1, 2, 4)], [(1, 3, 4)]) == 3


def test_rank_of_stack_mismatch(f2):
    with pytest.raises(ValueError, match="column count mismatch"):
        rank_of_stack(f2, [(1, 0)], [(1, 0, 0)])


def test_dimension_formula_random_spaces():
    # dim A + dim B == dim(A+B) + dim(A cap B), with the intersection
    # computed through the orthogonal-kernel route: A cap B is the kernel
    # of the stacked kernels of A and B.
    rng = random.Random(2024)
    fields = {2: make_field(2), 3: make_field(3), 4: make_field(2, 2), 5: make_field(5)}
    trials = 0
    while trials < 200:
        q = rng.choice([2, 3, 4, 5])
        field = fields[q]
        n = rng.randrange(2, 7)
        A = random_matrix(field, rng.randrange(1, n + 1), n, rng)
        B = random_matrix(field, rng.randrange(1, n + 1), n, rng)
        ra, rb = rref(field, A)[1], rref(field, B)[1]
        if ra == 0 or rb == 0:
            continue
        dim_sum = rank_of_stack(field, A, B)
        KA, KB = kernel_basis(field, A, n), kernel_basis(field, B, n)
        dim_int = len(kernel_basis(field, KA + KB, n))
        assert ra + rb == dim_sum + dim_int
        trials += 1
