import functools
import hashlib
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from subspace_forge.gf import (
    Field,
    SizeGuardError,
    check_guard,
    factor_order,
    field_from_order,
    is_prime,
    make_field,
)


def exhaustive_order(f, a):
    """Multiplicative order by repeated multiplication (test oracle)."""
    x, o = a, 1
    while x != 1:
        x = f.mul(x, a)
        o += 1
    return o


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_field_gf5_gamma():
    f = make_field(5)
    assert f.q == 5
    # oracle: 2 is the smallest element of order 4 in GF(5)*
    assert [a for a in range(1, 5) if exhaustive_order(f, a) == 4] == [2, 3]
    assert f.gamma == 2


def test_make_field_gf4_modulus_and_gamma():
    f = make_field(2, 2)
    # x^2 + x + 1 is the only irreducible monic quadratic over GF(2)
    assert f.modulus == (1, 1, 1)
    assert f.gamma == 2  # the polynomial x
    assert exhaustive_order(f, 2) == 3


def test_make_field_gf7_gamma():
    f = make_field(7)
    # 2^3 = 1 mod 7 disqualifies 2; 3 is primitive
    assert exhaustive_order(f, 2) == 3
    assert exhaustive_order(f, 3) == 6
    assert f.gamma == 3


def test_make_field_gf8_modulus():
    f = make_field(2, 3)
    # smallest monic irreducible cubic over GF(2), low-degree-first order:
    # x^3, x^3+x^2, x^3+x, x^3+x^2+x, x^3+1 all factor; x^3+x^2+1 does not
    assert f.modulus == (1, 0, 1, 1)
    assert f.gamma == 2


def test_make_field_gf2_gamma_is_one():
    f = make_field(2)
    assert f.gamma == 1
    assert f.q == 2


def test_make_field_rejects_non_prime():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(1)


def test_make_field_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_size_guard():
    with pytest.raises(SizeGuardError):
        make_field(2, 11)  # (2^11)^2 table entries > 2^20
    # overridable
    f = make_field(2, 11, size_guard=None)
    assert f.q == 2**11


def test_check_guard_admits_counts_up_to_the_guard():
    check_guard("work", 10, "units", 10)
    check_guard("work", 10**5000, "units", None)
    with pytest.raises(SizeGuardError, match=r"^work needs 11 units, over the guard 10$"):
        check_guard("work", 11, "units", 10)


def test_check_guard_names_a_count_of_100_digits_by_its_size():
    with pytest.raises(SizeGuardError) as exc:
        check_guard("work", 10**100 - 1, "units", 1)
    assert str(exc.value) == f"work needs {'9' * 100} units, over the guard 1"
    for exponent in (100, 9000):
        with pytest.raises(SizeGuardError) as exc:
            check_guard("work", 10**exponent + 1, "units", 1)
        assert str(exc.value) == f"work needs about 10^{exponent} units, over the guard 1"


def test_check_guard_names_a_guard_of_100_digits_by_its_size():
    # a guard past Python's 4300-digit limit refuses without printing it
    with pytest.raises(SizeGuardError) as exc:
        check_guard("w", 10**5000 + 1, "units", 10**5000)
    assert str(exc.value) == "w needs about 10^5000 units, over the guard about 10^5000"
    with pytest.raises(SizeGuardError) as exc:
        check_guard("w", 10**100 + 1, "units", 10**99)
    assert str(exc.value) == f"w needs about 10^100 units, over the guard {10**99}"


def test_make_field_deterministic():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a == b
    assert a.to_json() == b.to_json()


def test_field_from_order():
    assert field_from_order(8).q == 8
    assert field_from_order(9).q == 9
    assert field_from_order(7).q == 7
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_factor_order():
    assert [factor_order(q) for q in (2, 7, 8, 9, 1024)] == [(2, 1), (7, 1), (2, 3), (3, 2), (2, 10)]
    for q in (1, 6, 12):
        with pytest.raises(ValueError):
            factor_order(q)
    # checked on q before the trial division, as for field_from_order
    with pytest.raises(SizeGuardError):
        factor_order(2**31 - 1)
    # without a guard, trial division to sqrt(q): milliseconds, not minutes
    t0 = time.perf_counter()
    assert factor_order(2**31 - 1, size_guard=None) == (2**31 - 1, 1)
    assert time.perf_counter() - t0 < 1


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_mul_examples():
    f5 = make_field(5)
    assert f5.mul(2, 3) == 1  # 6 mod 5
    f4 = make_field(2, 2)
    # x * x = x + 1 under x^2 + x + 1
    assert f4.mul(2, 2) == 3


def test_pow_lagrange():
    for q_params in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        f = make_field(*q_params)
        assert f.pow(f.gamma, f.q - 1) == 1


def test_gamma_generates_whole_group():
    for q_params in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
        f = make_field(*q_params)
        powers = {f.pow(f.gamma, i) for i in range(f.q - 1)}
        assert len(powers) == f.q - 1


@pytest.mark.parametrize("q_params", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(q_params):
    f = make_field(*q_params)
    elems = list(f.elements())
    assert elems == list(range(f.q))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("q_params", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1), (2, 6)])
def test_distributivity_exhaustive(q_params):
    f = make_field(*q_params)
    for a in f.elements():
        for b in f.elements():
            ab = f.mul(a, b)
            for c in f.elements():
                assert f.mul(a, f.add(b, c)) == f.add(ab, f.mul(a, c))


def test_associativity_exhaustive_small():
    for q_params in [(2, 2), (5, 1), (2, 3)]:
        f = make_field(*q_params)
        for a in f.elements():
            for b in f.elements():
                for c in f.elements():
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_inv_of_zero_raises():
    f = make_field(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_negative_exponent():
    f = make_field(7)
    for a in range(1, 7):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, -2) == f.inv(f.mul(a, a))


def test_large_field_no_tables():
    # a prime field above the default guard, against integer arithmetic
    f = make_field(1021, size_guard=None)
    assert f.mul(1000, 1000) == 1000 * 1000 % 1021
    assert f.mul(f.inv(937), 937) == 1


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_properties(a, b, c):
    f = make_field(3, 2)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(f.add(a, b), f.neg(b)) == a


def test_json_roundtrip():
    f = make_field(3, 2)
    blob = json.dumps(f.to_json())
    g = Field.from_json(json.loads(blob))
    assert f == g
    assert g.mul(4, 4) == f.mul(4, 4)


def test_from_json_rejects_bad_gamma():
    f = make_field(5)
    obj = f.to_json()
    obj["gamma"] = 4  # order 2, not primitive
    with pytest.raises(ValueError):
        Field.from_json(obj)


def test_from_json_gamma_by_prime_factor_test():
    # 3 is the other primitive element of GF(5); 0 and q are not elements of GF(5)*
    obj = make_field(5).to_json()
    assert Field.from_json({**obj, "gamma": 3}).gamma == 3
    for gamma in (0, 5):
        with pytest.raises(ValueError):
            Field.from_json({**obj, "gamma": gamma})


@pytest.mark.parametrize("modulus", [(2, 3), (-2, 1), (0, 3)])
def test_field_rejects_modulus_coefficients_outside_gf_p(modulus):
    # each reduces mod 2 to x, the modulus of GF(2)
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
        Field(2, 1, modulus)
    with pytest.raises(ValueError):
        Field.from_json({"p": 2, "m": 1, "modulus": list(modulus), "gamma": 1})


@pytest.mark.parametrize(
    "args",
    [(5.0, 1, (3, 1)), (5, True, (3, 1)), (3, 2, (2, 2, 1.0)), (5, 1, (3, 1), 2.7), (5, 1, (3, 1), 2.0)],
)
def test_field_refuses_non_int_input(args):
    # the rule of from_json: gamma 2.7 would read as 2, and a float
    # coefficient would reach to_json, whose output from_json refuses
    with pytest.raises(TypeError, match="expected an integer"):
        Field(*args)


def test_from_json_rejects_reducible_modulus():
    obj = {"p": 2, "m": 2, "modulus": [0, 0, 1], "gamma": 2}  # x^2 factors
    with pytest.raises(ValueError):
        Field.from_json(obj)


def test_encode_decode_roundtrip():
    f = make_field(3, 2)
    for a in f.elements():
        assert f.encode(f.decode(a)) == a


# ---------------------------------------------------------------------------
# tables built from exp/log/Zech seeds, against the raw polynomial routines
# ---------------------------------------------------------------------------

PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
TABLE_ORDERS = [49, 64, 81, 121, 125, 243, 256, 343, 512]


@functools.lru_cache(maxsize=None)
def _field(q):
    return field_from_order(q)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_tables_match_raw_all_pairs(q):
    f = _field(q)
    for a in range(q):
        assert f.neg(a) == f._neg_raw(a)
        if a:
            assert f._mul_raw(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f._add_raw(a, b)
            assert f.mul(a, b) == f._mul_raw(a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_ORDERS), st.data())
def test_tables_match_raw_sampled_pairs(q, data):
    f = _field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f._add_raw(a, b)
    assert f.mul(a, b) == f._mul_raw(a, b)


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_neg_inv_rows_match_raw(q):
    f = _field(q)
    assert [f.neg(a) for a in range(q)] == [f._neg_raw(a) for a in range(q)]
    assert all(f._mul_raw(a, f.inv(a)) == 1 for a in range(1, q))
    assert f.inv_table[0] == 0
    assert all(f._mul_raw(a, f.inv_table[a]) == 1 for a in range(1, q))


def test_lazy_tables_above_table_max_q_match_raw():
    # GF(729) rows against the raw routines
    f = field_from_order(729)
    rows = [0, 1, f.gamma, 364, 728]
    inv, add, mul = f.inv_table, f.add_table, f.mul_table
    for a in rows:
        assert add[a] == [f._add_raw(a, b) for b in range(729)]
        assert mul[a] == [f._mul_raw(a, b) for b in range(729)]
    assert f.neg_table == [f._neg_raw(a) for a in range(729)]
    assert all(f._mul_raw(a, f.inv(a)) == 1 == f._mul_raw(a, inv[a]) for a in range(1, 729))


@pytest.mark.parametrize("q", [2, 3, 243, 256, 343])
def test_build_tables_linear_raw_calls(q, monkeypatch):
    f = _field(q)
    calls = []

    def counted(raw):
        def wrapper(self, *args):
            calls.append(raw.__name__)
            return raw(self, *args)

        return wrapper

    for name in ("_add_raw", "_mul_raw", "_neg_raw"):
        monkeypatch.setattr(Field, name, counted(getattr(Field, name)))
    f._build_tables()
    # q-2 powers of gamma, q-1 Zech logarithms, q negations
    assert len(calls) == 3 * q - 3


# sha256 of every table of field_from_order(q), pinned when the tables were
# still filled by q^2 raw polynomial products
FIELD_DIGESTS = {
    243: (3, "8d09dedf9e1acbcadf96486ff788098902eb7df64a9028aa51268506f250395b"),
    256: (6, "b17753666e02d0cc419be2b5b91ba07b5c6f907a228e987880f18fc0e8339d9e"),
    343: (9, "65b654faee96e06b9a8ce8bff6b6d8ca8da568254fd3f3df6e7d11cf7a07889f"),
    512: (7, "36315edb6375470c650c078c74bfabd56414e5cc37f998c9ea326296a5d89b5a"),
}


@pytest.mark.parametrize("q", sorted(FIELD_DIGESTS))
def test_field_tables_golden_digest(q):
    f = _field(q)
    blob = json.dumps(
        {
            "modulus": list(f.modulus),
            "gamma": f.gamma,
            "add": f.add_table,
            "mul": f.mul_table,
            "neg": [f.neg(a) for a in range(q)],
            "inv": [f.inv(a) for a in range(1, q)],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert (f.gamma, hashlib.sha256(blob.encode()).hexdigest()) == FIELD_DIGESTS[q]


def test_field_512_build_budget():
    t0 = time.perf_counter()
    f = field_from_order(512)
    dt = time.perf_counter() - t0
    assert f.q == 512
    assert dt < 1.0, f"field_from_order(512) took {dt:.2f}s"


def test_field_1024_build_budget():
    # the largest field the default guard admits: 2^20 table entries
    t0 = time.perf_counter()
    f = field_from_order(1024)
    dt = time.perf_counter() - t0
    assert f.q == 1024 and len(f.add_table) == len(f.mul_table[1023]) == 1024
    assert dt < 1.0, f"field_from_order(1024) took {dt:.2f}s"
