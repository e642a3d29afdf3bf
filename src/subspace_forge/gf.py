"""Exact arithmetic in finite fields GF(p^m).

Field elements are plain integers ("codes") in [0, q).  The code of the
polynomial a_0 + a_1 x + ... + a_{m-1} x^{m-1} over GF(p) is the packed
base-p integer sum(a_i * p^i).  Ints are hashable and cheap to store in
the hot verifier loops; all structure lives in the Field object: the
modulus, the primitive element and the operation tables.

Field construction is deterministic: the modulus is the
lexicographically smallest monic irreducible polynomial of degree m
(coefficients compared low-degree-first) and gamma is the smallest code
of multiplicative order q-1.

The operation tables come from the powers of gamma (Lidl & Niederreiter,
*Finite Fields*, ch. 10).  Raw polynomial arithmetic computes only the
O(q) seeds: the antilog list exp[i] = gamma^i, its inverse log, and the
Zech logarithms z[i] = log(1 + gamma^i).  Then
gamma^a * gamma^b = gamma^(a+b) and
gamma^a + gamma^b = gamma^(a + z[b-a]), so every table entry is a lookup.
Every operation reads the tables; the raw routines are only the seeds,
the primitive-element search that precedes them, and the test oracle.

The tables hold about 2q^2 entries, so the size guard of make_field,
factor_order and field_from_order bounds q^2, not q.
"""

from __future__ import annotations

import itertools
import math

DEFAULT_SIZE_GUARD = 1 << 20


class SizeGuardError(RuntimeError):
    """A requested computation exceeds the configured size guard."""


def check_guard(work: str, count: int | None, units: str, guard: int | None, log10: float = 0.0) -> None:
    """Raise SizeGuardError when `work` needs `count` `units`, over `guard`
    (None disables).  A count or guard of 100 or more digits is named
    about 10^N: Python prints no int of over 4300 digits.  A count known
    to be such, and over the guard, may be passed as None and its log10."""
    if count is not None and (guard is None or count <= guard):
        return
    count = f"about 10^{log10:.0f}" if count is None else _named(count)
    raise SizeGuardError(f"{work} needs {count} {units}, over the guard {_named(guard)}")


def _named(x: int) -> int | str:
    """x, or about 10^N when it has 100 or more digits."""
    return f"about 10^{math.log10(x):.0f}" if x >= 10**100 else x


def _json_int(x) -> int:
    """x when it is an int: JSON input is not coerced, so 2.5, true and
    "3" raise TypeError instead of reading as 2, 1 and 3."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def _poly_divides(div: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    """True iff the monic polynomial `div` divides `poly` over GF(p).

    Polynomials are coefficient tuples, low degree first, leading
    coefficient nonzero.
    """
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        lead = rem[-1]  # div is monic, so the quotient coefficient is lead
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(rem)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        # monic candidates of degree d: coefficients c_0..c_{d-1} free
        for low in itertools.product(range(p), repeat=d):
            if _poly_divides(low + (1,), poly, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Coefficient tuples (a_0, ..., a_{m-1}, 1) are compared low-degree-first.
    """
    # itertools.product varies the last coefficient fastest
    return next(low + (1,) for low in itertools.product(range(p), repeat=m) if _is_irreducible(low + (1,), p))


def _power(a: int, e: int, mul) -> int:
    """a**e for e >= 0 by square-and-multiply with the product `mul`."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Field:
    """The finite field GF(p^m) with a designated primitive element.

    Elements are integer codes in [0, q); code 0 is the additive and
    code 1 the multiplicative identity.  Construction builds the q x q
    add_table and mul_table and the neg_table and inv_table rows
    (inv_table[0] is 0), in O(q^2) time and memory.  It checks no size
    guard: make_field and field_from_order do, and a caller that builds
    a Field from untrusted input (Field.from_json) runs check_order_guard
    first.  Instances are immutable after construction and safe to share
    across threads.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "gamma", "add_table", "mul_table", "neg_table", "inv_table", "exp_table", "log_table"
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], gamma: int | None = None):
        if not is_prime(_json_int(p)):
            raise ValueError(f"p must be prime, got {p}")
        if _json_int(m) < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        modulus = tuple(map(_json_int, modulus))
        if not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus coefficients must lie in [0, {p}), got {list(modulus)}")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be a monic polynomial of degree m")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible over GF(p)")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        # gamma comes first, on the raw routines: the tables are built from it
        if gamma is None:
            gamma = self._find_primitive()
        else:
            if not self._is_primitive(_json_int(gamma)):
                raise ValueError(f"gamma={gamma} does not have order q-1")
        self.gamma = gamma
        self._build_tables()

    # -- encoding ------------------------------------------------------

    def decode(self, a: int) -> tuple[int, ...]:
        """Base-p digits (a_0, ..., a_{m-1}) of the code a."""
        digits = []
        for _ in range(self.m):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def encode(self, digits) -> int:
        code = 0
        for d in reversed(tuple(digits)):
            code = code * self.p + d % self.p
        return code

    # -- raw polynomial arithmetic (gamma search, table seeds, oracle) ---

    def _add_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode((x + y) % self.p for x, y in zip(da, db))

    def _neg_raw(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return self.encode(-x % self.p for x in self.decode(a))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, self.m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.m):
                    prod[i - self.m + j] = (prod[i - self.m + j] - c * self.modulus[j]) % self.p
        return self.encode(prod[: self.m])

    def _build_tables(self):
        """Build the add/mul tables and the neg/inv rows from gamma, and
        keep their seeds: exp_table[i] = gamma^i for i < 2(q-1), 0 from
        there on, and log_table[a], the log of a to base gamma (0 for 0).

        Raw arithmetic is used O(q) times: q-2 products for the powers of
        gamma, q-1 sums for the Zech logarithms and q negations.  Every
        other entry is a lookup in those seeds.
        """
        q, n, gamma = self.q, self.q - 1, self.gamma
        exp = [1] * n
        for i in range(1, n):
            exp[i] = self._mul_raw(exp[i - 1], gamma)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        # zech[i] = log(1 + gamma^i); the marker 2n, where 1 + gamma^i = 0,
        # lands in the zero block of exp below for every log a < n
        zech = [log[c] if c else 2 * n for c in (self._add_raw(1, a) for a in exp)]
        zech += zech  # zech[lb - la + n] needs no reduction mod n
        exp += exp + [0] * n  # exp[i] = gamma^i for i < 2n, 0 from the marker on
        logs = log[1:]  # log b for b = 1, ..., q-1
        self.mul_table = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
        self.add_table = [list(range(q))] + [
            [a] + [exp[la + zech[lb - la + n]] for lb in logs] for a, la in enumerate(logs, 1)
        ]
        self.neg_table = [self._neg_raw(a) for a in range(q)]
        self.inv_table = [0] + [exp[n - la] for la in logs]
        self.exp_table, self.log_table = exp, log

    # -- public operations ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e inverts first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        return _power(a, e, self.mul)

    def elements(self) -> range:
        """All q element codes in increasing order."""
        return range(self.q)

    def _is_primitive(self, a: int) -> bool:
        """True iff a has multiplicative order q-1: a^((q-1)/f) != 1 for
        every prime f dividing q-1."""
        if not 0 < a < self.q:
            return False
        # runs before the tables exist, so it multiplies raw
        return all(_power(a, (self.q - 1) // f, self._mul_raw) != 1 for f in _prime_factors(self.q - 1))

    def _find_primitive(self) -> int:
        for cand in range(1, self.q):
            if self._is_primitive(cand):
                return cand
        raise AssertionError("no primitive element found")

    # -- identity / serialization ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
            and self.gamma == other.gamma
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.gamma))

    def __repr__(self):
        if self.m == 1:
            return f"Field(GF({self.p}))"
        return f"Field(GF({self.p}^{self.m}), modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus), "gamma": self.gamma}

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        # gamma is required here: None would pick the canonical one
        return cls(obj["p"], obj["m"], obj["modulus"], _json_int(obj["gamma"]))


def make_field(p: int, m: int = 1, size_guard: int | None = DEFAULT_SIZE_GUARD) -> Field:
    """Build GF(p^m) with the canonical modulus and primitive element.

    Deterministic: identical inputs yield identical Field values.  The
    guard rejects fields whose q^2 table entries exceed `size_guard`
    (default 2^20, which admits q <= 1024) to prevent accidental blowup;
    pass None to disable.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    check_order_guard(p, m, size_guard)
    return Field(p, m, _smallest_irreducible(p, m))


def check_order_guard(p: int, m: int, size_guard: int | None = DEFAULT_SIZE_GUARD) -> None:
    """Raise SizeGuardError when the q^2 table entries of GF(p^m), the
    work and memory of building it, exceed `size_guard` (None disables).
    The exponent is capped at the guard's bit length, so a huge m costs
    nothing."""
    if size_guard is None or p < 2 or m < 1:
        return
    # 2^b > size_guard for b = its bit length, so p^(2m) > size_guard once m >= b
    if p ** (2 * min(m, max(size_guard, 1).bit_length())) > size_guard:
        raise SizeGuardError(
            f"q = {p}^{m} needs {p}^{2 * m} table entries, over the size guard {size_guard}"
        )


def factor_order(q: int, size_guard: int | None = DEFAULT_SIZE_GUARD) -> tuple[int, int]:
    """(p, m) with q = p^m for a prime power q, checking the guard first.

    The guard is checked on q before the factoring, a trial division up
    to sqrt(q).  No field is built, so a caller that only validates q
    pays nothing for GF(q)'s tables.
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    check_order_guard(q, 1, size_guard)
    factors = _prime_factors(q)
    if len(factors) > 1:
        raise ValueError(f"{q} is not a prime power")
    m, t = 0, q
    while t > 1:
        t //= factors[0]
        m += 1
    return factors[0], m


def field_from_order(q: int, size_guard: int | None = DEFAULT_SIZE_GUARD) -> Field:
    """Build GF(q) for a prime power q, factored by factor_order."""
    return make_field(*factor_order(q, size_guard), size_guard)
