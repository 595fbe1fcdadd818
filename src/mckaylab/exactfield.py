"""Exact arithmetic foundation.

Small finite fields with deterministic defining polynomials (GF(p)[x]
arithmetic from sympy's galoistools), the one power-walking order routine,
l-part/l'-part splitting and orders of general linear and unitary groups.
Everything is plain integer arithmetic; nothing here is approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from sympy import factorint, isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

FIELD_SIZE_LIMIT = 2**20

# Fields at least this small precompute full addition, negation,
# multiplication and inverse tables.
_TABLE_LIMIT = 128


class ExactFieldError(ValueError):
    """Raised for invalid field, order, or torus parameters."""


class CertificateError(AssertionError):
    """A certificate that must hold by theory failed.

    Raised explicitly, never by `assert`, so it still fires under python -O.
    """


# ---------------------------------------------------------------------------
# signed prime powers


@dataclass(frozen=True)
class SignedPrimePower:
    """A prime power q = p**m together with a sign eps in {+1, -1}.

    The sign selects the linear (+1) or unitary (-1) twist: group and torus
    order formulas below are polynomial identities in eps*q.  Construction
    validates all three and stores q and eq = eps*q once.
    """

    eps: int
    p: int
    m: int
    q: int = field(init=False, compare=False, repr=False)
    eq: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isprime(self.p):
            raise ExactFieldError(f"{self.p} is not prime")
        if self.m < 1:
            raise ExactFieldError(f"exponent {self.m} must be >= 1")
        if self.eps not in (1, -1):
            raise ExactFieldError(f"sign {self.eps} must be +1 or -1")
        object.__setattr__(self, "q", self.p**self.m)
        object.__setattr__(self, "eq", self.eps * self.q)


def spp(eps: int, q: int) -> SignedPrimePower:
    """Build a SignedPrimePower from a sign and a prime power given as int."""
    fac = factorint(q)
    if len(fac) != 1:
        raise ExactFieldError(f"{q} is not a prime power")
    ((p, m),) = fac.items()
    return SignedPrimePower(eps, p, m)


@cache
def factor_field(k: int, sp: SignedPrimePower) -> SignedPrimePower:
    """The signed field of the degree-k extension: eps^k and q^k."""
    return spp(sp.eps**k, sp.q**k)


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """GF(p**k) with elements encoded as integers 0 .. p**k - 1.

    The encoding is base-p positional: the integer sum(c_i * p**i) stands for
    the residue class of sum(c_i * x**i) modulo the defining polynomial.
    Zero is 0 and one is 1 under any modulus, so prime subfield elements keep
    their usual names.

    Up to _TABLE_LIMIT elements, every operation is a read of a table built
    at construction: add_table[a][b], neg_table[a], mul_table[a][b] and
    inv_table[a].  Past the limit the tables are None and each operation is
    computed on the base-p digits.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p**k
        self.add_table: list[tuple[int, ...]] | None = None
        self.neg_table: list[int] | None = None
        self.mul_table: list[tuple[int, ...]] | None = None
        self.inv_table: list[int] | None = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, k={self.k}, modulus={self.modulus})"

    # encoding ------------------------------------------------------------

    def _dec(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        while a:
            out.append(a % p)
            a //= p
        return tuple(out)

    def _enc(self, coeffs: tuple[int, ...]) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    # arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        if self.neg_table is not None:
            return self.neg_table[a]
        return self._neg_raw(a)

    def sub(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][self.neg_table[b]]
        return self._add_raw(a, self._neg_raw(b))

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return self._mul_raw(a, b)

    # digit arithmetic: builds the tables, and serves fields past the limit

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        ca, cb = self._dec(a), self._dec(b)
        n = max(len(ca), len(cb))
        ca += (0,) * (n - len(ca))
        cb += (0,) * (n - len(cb))
        return self._enc(tuple((x + y) % p for x, y in zip(ca, cb)))

    def _neg_raw(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        return self._enc(tuple((-c) % p for c in self._dec(a)))

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a * b) % p
        # sympy's dense GF(p)[x] lists are big-endian
        prod = gf_mul(self._dec(a)[::-1], self._dec(b)[::-1], p, ZZ)
        rem = gf_rem(prod, self.modulus[::-1], p, ZZ)
        return self._enc(tuple(int(c) for c in reversed(rem)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.inv_table is not None:
            return self.inv_table[a]
        return self.pow(a, self.size - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        """The p-power map, a field automorphism of order k."""
        return self.pow(a, self.p)

    def _build_tables(self) -> None:
        n = self.size
        self.add_table = [tuple(self._add_raw(a, b) for b in range(n)) for a in range(n)]
        self.neg_table = [self._neg_raw(a) for a in range(n)]
        self.mul_table = [tuple(self._mul_raw(a, b) for b in range(n)) for a in range(n)]
        inv = [0] * n
        for a in range(1, n):
            inv[a] = self.mul_table[a].index(1)
        self.inv_table = inv

    # structure -----------------------------------------------------------

    def units(self) -> range:
        return range(1, self.size)

    def multiplicative_generator(self) -> int:
        target = self.size - 1
        for a in self.units():
            if self.element_order(a) == target:
                return a
        raise ExactFieldError("no generator found")  # pragma: no cover

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ExactFieldError("0 has no multiplicative order")
        return element_order(a, self.mul, 1)


@cache
def build_field(p: int, k: int) -> FiniteField:
    """GF(p**k) with the lexicographically least irreducible monic modulus.

    Moduli are ordered by the base-p integer encoding of their lower
    coefficients, so the choice is deterministic; GF(p) gets modulus x.
    """
    if not isprime(p):
        raise ExactFieldError(f"{p} is not prime")
    if k < 1:
        raise ExactFieldError("k must be >= 1")
    if p**k > FIELD_SIZE_LIMIT:
        raise ExactFieldError(f"field size {p**k} exceeds limit {FIELD_SIZE_LIMIT}")
    for code in range(p**k):
        lower = []
        c = code
        for _ in range(k):
            lower.append(c % p)
            c //= p
        poly = tuple(lower) + (1,)
        if gf_irreducible_p(poly[::-1], p, ZZ):
            return FiniteField(p, k, poly)
    raise ExactFieldError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------
# orders and valuations


def element_order(g, mul, identity) -> int:
    """Multiplicative order of g, by walking its powers up to the identity."""
    n, x = 1, g
    while x != identity:
        x = mul(x, g)
        n += 1
    return n


def mult_order(a: int, modulus: int) -> int:
    """Multiplicative order of a modulo modulus (a may be negative)."""
    if modulus < 1:
        raise ExactFieldError(f"modulus {modulus} must be >= 1")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ExactFieldError(f"{a} is not invertible mod {modulus}")
    return element_order(a, lambda x, y: x * y % modulus, 1)


def ell_part(x: int, ell: int) -> tuple[int, int]:
    """Split |x| as (l-part, l'-part); x must be nonzero, ell prime."""
    if x == 0:
        raise ExactFieldError("0 has no l-part")
    if not isprime(ell):
        raise ExactFieldError(f"{ell} is not prime")
    x = abs(x)
    lp = 1
    while x % ell == 0:
        x //= ell
        lp *= ell
    return lp, x


def ell_val(x: int, ell: int) -> int:
    """The exponent of ell in |x|."""
    v = 0
    x = abs(x)
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def order_for_ell(x: int, ell: int) -> int:
    """Order of x mod ell, with the usual modulus-4 convention at ell = 2."""
    return mult_order(x, 4 if ell == 2 else ell)


def group_order(n: int, sp: SignedPrimePower) -> int:
    """|GL_n(q)| for eps=+1, |GU_n(q)| for eps=-1; n = 0 gives 1."""
    if n < 0:
        raise ExactFieldError("n must be >= 0")
    q, eq = sp.q, sp.eq
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= abs(eq**i - 1)
    return out


def sl_group_order(n: int, sp: SignedPrimePower) -> int:
    """|SL_n(q)| or |SU_n(q)|; 1 for n < 1."""
    return group_order(n, sp) // (sp.q - sp.eps) if n >= 1 else 1
