import random

import pytest

from subspace_forge.gf import make_field
from subspace_forge.matgf import MatrixGF, kernel_basis, rank_of_stack, rref

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


def random_matrix(field, rows, cols, rng):
    return MatrixGF(field, rows, cols, tuple(rng.randrange(field.q) for _ in range(rows * cols)))


def identity(field, n):
    return MatrixGF.from_rows(field, [[int(r == c) for c in range(n)] for r in range(n)])


def mat_vec(M, v):
    """M v^T, one field operation at a time."""
    f = M.field
    out = []
    for row in M.row_list():
        acc = 0
        for x, y in zip(row, v):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_identity(f5):
    I = identity(f5, 3)
    R, rk, piv = rref(I)
    assert R == I
    assert rk == 3
    assert piv == (0, 1, 2)


def test_rref_zero(f5):
    Z = MatrixGF(f5, 2, 4, (0,) * 8)
    R, rk, piv = rref(Z)
    assert R == Z
    assert rk == 0
    assert piv == ()


def test_rref_vandermonde_rank(f5):
    # nodes 1, 2, 3: determinant (2-1)(3-1)(3-2) = 2 != 0 mod 5
    V = MatrixGF.from_rows(f5, [[1, 1, 1], [1, 2, 4], [1, 3, 4]])
    _, rk, _ = rref(V)
    assert rk == 3


def test_rref_idempotent():
    rng = random.Random(42)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            R, rk, piv = rref(M)
            R2, rk2, piv2 = rref(R)
            assert (R2, rk2, piv2) == (R, rk, piv)


def test_rref_pivots_strictly_increasing():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            _, rk, piv = rref(M)
            assert len(piv) == rk
            assert all(a < b for a, b in zip(piv, piv[1:]))


def _raw_rref(M):
    """Gauss-Jordan in the field's raw polynomial arithmetic: (R, rank,
    pivots) as rref returns them."""
    f = M.field

    def mul(a, b):
        return f._mul_raw(a, b)

    def inv(a):
        out, e = 1, f.q - 2
        while e:
            if e & 1:
                out = mul(out, a)
            a, e = mul(a, a), e >> 1
        return out

    rows = M.row_list()
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        pr = next((i for i in range(r, M.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = inv(rows[r][c])
        rows[r] = tuple(mul(s, x) for x in rows[r])
        for i in range(M.rows):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = tuple(f._add_raw(x, f._neg_raw(mul(g, y))) for x, y in zip(rows[i], rows[r]))
        pivots.append(c)
    R = MatrixGF(f, M.rows, M.cols, tuple(x for row in rows for x in row))
    return R, len(pivots), tuple(pivots)


def _random_rank_deficient_matrix(field, rng):
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
    M = random_matrix(field, rows, cols, rng)
    if rows > 1 and rng.randrange(2):
        # append a combination of the rows, so that ranks below rows occur
        c = [rng.randrange(field.q) for _ in range(rows)]
        extra = [0] * cols
        for ci, row in zip(c, M.row_list()):
            extra = [field.add(x, field.mul(ci, y)) for x, y in zip(extra, row)]
        M = MatrixGF.from_rows(field, M.row_list() + [extra])
    return M


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (3, 2), (2, 10)])
def test_rref_reads_tables_like_raw_arithmetic(p, m):
    field = make_field(p, m)
    rng = random.Random(field.q)
    for _ in range(30):
        A = _random_rank_deficient_matrix(field, rng)
        assert rref(A) == _raw_rref(A)
        B = random_matrix(field, rng.randrange(1, 4), A.cols, rng)
        assert rank_of_stack(A, B) == _raw_rref(MatrixGF.from_rows(field, A.row_list() + B.row_list()))[1]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_of_sum_row(f5):
    K = kernel_basis(MatrixGF.from_rows(f5, [[1, 1]]))
    assert K.row_list() == [(1, 4)]  # (1, -1) canonicalized


def test_kernel_of_full_rank_square(f5):
    K = kernel_basis(identity(f5, 3))
    assert K.rows == 0


def test_kernel_of_empty_matrix_is_identity(f5):
    # no constraints: kernel is the whole space, canonical basis I
    K = kernel_basis(MatrixGF(f5, 0, 3, ()))
    assert K == identity(f5, 3)


def test_kernel_rows_annihilate():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(25):
            M = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 6), rng)
            K = kernel_basis(M)
            for r in range(K.rows):
                assert mat_vec(M, K.row(r)) == (0,) * M.rows


def test_rank_nullity():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(40):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            assert rref(M)[1] + kernel_basis(M).rows == M.cols


def test_kernel_is_canonical():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(20):
            M = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 5), rng)
            K = kernel_basis(M)
            if K.rows:
                R, rk, _ = rref(K)
                assert R == K and rk == K.rows


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------


def test_rank_of_stack_self(f5):
    M = MatrixGF.from_rows(f5, [[1, 2, 0], [0, 0, 1]])
    assert rank_of_stack(M, M) == rref(M)[1] == 2


def test_rank_of_stack_disjoint_lines(f2):
    A = MatrixGF.from_rows(f2, [[1, 0, 0]])
    B = MatrixGF.from_rows(f2, [[0, 1, 0]])
    assert rank_of_stack(A, B) == 2


def test_rank_of_stack_vandermonde_rows(f5):
    # rows (1, t, t^2) for distinct t have full rank
    A = MatrixGF.from_rows(f5, [[1, 1, 1], [1, 2, 4]])
    B = MatrixGF.from_rows(f5, [[1, 3, 4]])
    assert rank_of_stack(A, B) == 3


def test_rank_of_stack_mismatch(f2, f5):
    A = MatrixGF.from_rows(f2, [[1, 0]])
    B = MatrixGF.from_rows(f5, [[1, 0]])
    with pytest.raises(ValueError):
        rank_of_stack(A, B)
    C = MatrixGF.from_rows(f2, [[1, 0, 0]])
    with pytest.raises(ValueError):
        rank_of_stack(A, C)


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
        ra, rb = rref(A)[1], rref(B)[1]
        if ra == 0 or rb == 0:
            continue
        dim_sum = rank_of_stack(A, B)
        KA, KB = kernel_basis(A), kernel_basis(B)
        if KA.rows == 0 and KB.rows == 0:
            dim_int = n
        else:
            dim_int = kernel_basis(MatrixGF.from_rows(field, KA.row_list() + KB.row_list())).rows
        assert ra + rb == dim_sum + dim_int
        trials += 1


def test_matrix_validation(f3):
    with pytest.raises(ValueError):
        MatrixGF(f3, 2, 2, (0, 1, 2))  # wrong entry count
    with pytest.raises(ValueError):
        MatrixGF(f3, 1, 2, (0, 3))  # out of range
    with pytest.raises(ValueError):
        MatrixGF.from_rows(f3, [[0, 1], [2]])  # ragged


def test_json_roundtrip(f5):
    M = MatrixGF.from_rows(f5, [[1, 2, 3], [0, 4, 1]])
    obj = M.to_json()
    assert MatrixGF.from_json(f5, obj) == M
