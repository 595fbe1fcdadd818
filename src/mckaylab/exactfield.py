"""Exact arithmetic foundation.

Primality, prime powers and prime factors of integers; small finite
fields with deterministic defining polynomials and their GF(p)[x]
remainder and irreducibility routines; the one power-walking order
routine, the one cycle walker, l-part/l'-part splitting and orders of
general linear and unitary groups.  Everything is plain integer
arithmetic; nothing here is approximate or probabilistic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

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
# primes

# Miller-Rabin with the first 13 primes as bases decides every n below
# _MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def isprime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin.

    Exact below _MR_BOUND (about 3.3e24); at or past it there is no proof
    and ExactFieldError is raised instead of a probable answer.
    """
    if n >= _MR_BOUND:
        raise ExactFieldError(f"{n} is past the proven primality bound {_MR_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by integer Newton steps."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p**m and p prime, or None when q is no prime power.

    The largest k with q a perfect k-th power gives a base that is no
    perfect power itself, so q is a prime power exactly when that base is
    prime.
    """
    for k in range(q.bit_length() - 1, 1, -1):
        r = _iroot(q, k)
        if r**k == q:
            return (r, k) if isprime(r) else None
    return (q, 1) if isprime(q) else None


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    if n < 1:
        raise ExactFieldError(f"{n} must be >= 1")
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# signed prime powers


class SignedPrimePower(namedtuple("SignedPrimePower", "eps p m q eq")):
    """A prime power q = p**m together with a sign eps in {+1, -1}.

    The sign selects the linear (+1) or unitary (-1) twist: group and torus
    order formulas below are polynomial identities in eps*q.  Construction
    validates all three and stores q and eq = eps*q once; a named tuple
    hashes and compares in C, and pickles by (eps, p, m).
    """

    __slots__ = ()

    def __new__(cls, eps: int, p: int, m: int) -> SignedPrimePower:
        if not isprime(p):
            raise ExactFieldError(f"{p} is not prime")
        if m < 1:
            raise ExactFieldError(f"exponent {m} must be >= 1")
        if eps not in (1, -1):
            raise ExactFieldError(f"sign {eps} must be +1 or -1")
        q = p**m
        return super().__new__(cls, eps, p, m, q, eps * q)

    def __getnewargs__(self) -> tuple[int, int, int]:
        return self[:3]

    def __repr__(self) -> str:
        return f"SignedPrimePower(eps={self.eps}, p={self.p}, m={self.m})"


def spp(eps: int, q: int) -> SignedPrimePower:
    """Build a SignedPrimePower from a sign and a prime power given as int."""
    pm = prime_power(q)
    if pm is None:
        raise ExactFieldError(f"{q} is not a prime power")
    return SignedPrimePower(eps, *pm)


@cache
def factor_field(k: int, sp: SignedPrimePower) -> SignedPrimePower:
    """The signed field of the degree-k extension: eps^k and q^k."""
    return spp(sp.eps**k, sp.q**k)


# ---------------------------------------------------------------------------
# GF(p)[x], as little-endian coefficient sequences


def _monic(code: int, k: int, p: int) -> tuple[int, ...]:
    """The monic degree-k polynomial whose lower coefficients are the k
    base-p digits of code."""
    lower = []
    for _ in range(k):
        lower.append(code % p)
        code //= p
    return tuple(lower) + (1,)


def _poly_rem(a, m, p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic m over GF(p), len(m) - 1 coefficients."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm):
                a[i - dm + j] -= c * m[j]
    return tuple(x % p for x in a[:dm])


def _irreducible(poly, p: int) -> bool:
    """Whether the monic poly of degree k >= 1 is irreducible over GF(p):
    no monic polynomial of degree 1 .. k // 2 divides it."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            if not any(_poly_rem(poly, _monic(code, d, p), p)):
                return False
    return True


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """GF(p**k) with elements encoded as integers 0 .. p**k - 1.

    The encoding is base-p positional: the integer sum(c_i * p**i) stands for
    the residue class of sum(c_i * x**i) modulo the defining polynomial.
    Zero is 0 and one is 1 under any modulus, so prime subfield elements keep
    their usual names.

    Up to _TABLE_LIMIT elements, every operation is a read of a table built
    at construction: add_table[a][b], neg_table[a], mul_table[a][b],
    inv_table[a] and frob_table[a] = a^p.  Past the limit the tables are
    None and each operation is computed on the base-p digits.
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
        self.frob_table: list[int] | None = None
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
        if not (a and b):
            return 0
        da, db = self._dec(a), self._dec(b)
        prod = [0] * (len(da) + len(db) - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self._enc(_poly_rem(prod, self.modulus, p))

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
        if self.frob_table is not None:
            return self.frob_table[a]
        return self.pow(a, self.p)

    def _build_tables(self) -> None:
        n, p = self.size, self.p
        # Addition is digitwise: the table on the lowest j+1 digits is the
        # table on the lowest j digits, shifted by the sum of the top digits.
        add = [tuple((a + b) % p for b in range(p)) for a in range(p)]
        w = p
        while w < n:
            add = [tuple(x + (hi + bh) % p * w for bh in range(p) for x in add[lo])
                   for hi in range(p) for lo in range(w)]
            w *= p
        self.add_table = add
        self.neg_table = [row.index(0) for row in add]
        # Multiplication through discrete logarithms to the least primitive
        # element g, found on the digit arithmetic; powers[e] = g^e.
        g = self.multiplicative_generator()
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = self._mul_raw(x, g)
        log = [0] * n
        for e, x in enumerate(powers):
            log[x] = e
        exp = powers * 2
        unit_logs = log[1:]
        self.mul_table = [(0,) * n] + [
            (0,) + tuple(exp[log[a] + e] for e in unit_logs) for a in range(1, n)]
        self.inv_table = [0] + [powers[-log[a]] for a in range(1, n)]
        self.frob_table = [self.pow(a, p) for a in range(n)]

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
        poly = _monic(code, k, p)
        if _irreducible(poly, p):
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


def cycles(n: int, step, period: int):
    """Yield the cycles of step on range(n), each walked once from its least
    member and listed in walk order, ordered by least member.

    Raises CertificateError unless every walk closes within period >= 1
    steps with a length dividing period, which makes step a permutation.
    """
    done = bytearray(n)
    for start in range(n):
        if done[start]:
            continue
        cycle, x = [start], step(start)
        while x != start and len(cycle) <= period:
            cycle.append(x)
            done[x] = 1
            x = step(x)
        if period % len(cycle):   # a walk that never closes stops at period + 1
            raise CertificateError(f"{start} does not return to itself "
                                   f"after {period} steps")
        yield cycle


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
    """The exponent of ell in |x|; x must be nonzero and ell at least 2."""
    if x == 0 or ell < 2:
        raise ExactFieldError(f"no exponent of {ell} in {x}")
    v = 0
    x = abs(x)
    while x % ell == 0:
        x //= ell
        v += 1
    return v


@cache
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
