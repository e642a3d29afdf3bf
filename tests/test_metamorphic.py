"""Metamorphic checks at RS scale: the same invertible map applied to
every member keeps L_aad, L_as and the spread verdict, and so does a
reordering of the members.

The maps are a seeded random g in GL(n, q), acting on row vectors, and
the Frobenius map x -> x^2 applied to each coordinate.  The witness
moves, but coset_hits of the new witness must equal the pinned value.
No slow oracle is needed, so these reach families far outside the
hypothesis differentials.  RS members share their pivots; after a
random map some do not, which runs the k >= 2 kernel's per-pivot `map`
branch and the k = 1 kernel's multi-pivot groups at RS scale.
"""

import functools
import random

import pytest

from subspace_forge.constructions import build_rs_family
from subspace_forge.family import (
    Family,
    NotAPartialSpread,
    compute_L_aad,
    compute_L_as,
    coset_hits,
)
from subspace_forge.gf import field_from_order
from subspace_forge.matgf import rref
from subspace_forge.subspace import Subspace


@functools.lru_cache(maxsize=None)
def rs(n, k, q):
    return build_rs_family(n, k, field_from_order(q))


def random_invertible(field, n, rng):
    """The rows of a uniform n x n matrix over the field with rank n."""
    while True:
        g = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n)]
        if rref(field, g)[1] == n:
            return g


def linear_map(field, g):
    """v -> v g, the sum of v_i times row i of g."""
    add, mul = field.add_table, field.mul_table

    def image(v):
        out = [0] * len(g)
        for c, row in zip(v, g):
            if c:
                out = [add[x][mul[c][y]] for x, y in zip(out, row)]
        return out

    return image


def frobenius(field):
    """x -> x^2 on each coordinate: additive and multiplicative, so it
    maps a subspace to a subspace of the same dimension."""
    return lambda v: [field.mul(x, x) for x in v]


def mapped(fam, image, rng):
    """The images of fam's members, in a seeded random order, with the
    new position of each old member."""
    order = list(range(len(fam)))
    rng.shuffle(order)
    members = tuple(
        Subspace.from_generators(fam.field, fam.n, [image(r) for r in fam.members[i].row_list()])
        for i in order
    )
    position = {old: new for new, old in enumerate(order)}
    return Family(fam.field, fam.n, fam.k, members), position


# (n, k, q, L_aad of RS(n, k, q), members of the images at seeds 1 and 2
# whose pivots are not 0..k-1; every RS member's are)
RS_CASES = [(5, 1, 11, 3, (143, 132)), (6, 2, 13, 10, (7, 12)), (7, 3, 23, 6, (0, 0)), (5, 2, 64, 4, (0, 1))]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, k, q, L, moved", RS_CASES)
def test_gl_image_keeps_L_aad(n, k, q, L, moved, seed):
    fam = rs(n, k, q)
    rng = random.Random(seed)
    image, _ = mapped(fam, linear_map(fam.field, random_invertible(fam.field, n, rng)), rng)
    first = tuple(range(k))
    assert {S.pivots for S in fam.members} == {first}
    assert sum(S.pivots != first for S in image.members) == moved[seed - 1]
    value, (i, u) = compute_L_aad(image)
    assert value == L
    assert coset_hits(image, i, u) == L


def test_frobenius_image_keeps_L_aad():
    fam = rs(6, 2, 16)
    image, _ = mapped(fam, frobenius(fam.field), random.Random(1))
    assert {S.key() for S in image.members} != {S.key() for S in fam.members}
    value, (i, u) = compute_L_aad(image)
    assert value == 10
    assert coset_hits(image, i, u) == 10


@pytest.mark.parametrize("seed", [1, 2])
def test_gl_image_keeps_L_as_of_lines(seed):
    # RS(4,1,7): 49 lines with L_aad 2, so L_as 3; every one of the 2,850
    # planes is enumerated
    fam = rs(4, 1, 7)
    rng = random.Random(seed)
    image, _ = mapped(fam, linear_map(fam.field, random_invertible(fam.field, 4, rng)), rng)
    L_as, V = compute_L_as(image)
    assert L_as == 3
    assert sum(not V.trivially_intersects(S) for S in image.members) == 3


@pytest.mark.parametrize("seed", [1, 2])
def test_gl_image_names_the_mapped_meeting_pair(seed):
    # RS(6,2,13) and one more plane, spanned by a row of member 3 and a
    # row of member 7, so it meets both; the first pair named after the
    # map is the first of the images of those meeting pairs
    fam = rs(6, 2, 13)
    f = fam.field
    extra = Subspace.from_generators(f, 6, [fam.members[3].row_list()[0], fam.members[7].row_list()[1]])
    spoiled = Family(f, 6, 2, fam.members + (extra,))
    x = len(fam)
    met = [j for j in range(x) if not fam.members[j].trivially_intersects(extra)]
    assert 3 in met and 7 in met
    rng = random.Random(seed)
    image, position = mapped(spoiled, linear_map(f, random_invertible(f, 6, rng)), rng)
    expected = min(tuple(sorted((position[j], position[x]))) for j in met)
    with pytest.raises(NotAPartialSpread) as exc:
        compute_L_aad(image)
    assert exc.value.pair == expected
