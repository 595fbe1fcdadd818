"""Semisimple conjugacy classes of GL_n(q) and GU_n(q), combinatorially.

A semisimple class is a multiset of eigenvalue orbits.  Writing eq for
the signed field size (q in the linear case, -q in the unitary case),
the eigenvalues of degree k live in a cyclic group of order
M_k = |q^k - eps^k| = |eq^k - 1|, encoded as Z/M_k, and the Frobenius
acts by multiplication by eq.  A label (k, e) is an orbit of size
exactly k, named by its minimal member.  Since j | k forces M_j | M_k,
smaller-degree labels embed via e -> e * (M_k / M_j), and "size exactly
k" excludes the embedded ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .exactfield import CertificateError, SignedPrimePower, factor_field, group_order

Label = tuple[int, int]


@dataclass(frozen=True, order=True)
class SSClass:
    """Multiset of eigenvalue orbits: sorted ((k, e), multiplicity) pairs."""

    factors: tuple


def eigen_modulus(k: int, sp: SignedPrimePower) -> int:
    return abs(sp.q**k - sp.eps**k)


@dataclass(frozen=True)
class PowerOrbits:
    """Orbits of x -> base * x on Z/m: rep[x] is the least member, size[x] the length."""

    rep: tuple
    size: tuple


@cache
def power_orbits(m: int, base: int) -> PowerOrbits:
    """The orbit table of multiplication by base on Z/m, walked once."""
    rep = [-1] * m
    size = [0] * m
    for x in range(m):
        if rep[x] >= 0:
            continue
        orbit = [x]
        y = x * base % m
        while y != x:
            orbit.append(y)
            y = y * base % m
        for y in orbit:
            rep[y] = x
            size[y] = len(orbit)
    return PowerOrbits(tuple(rep), tuple(size))


def eq_orbits(m: int, sp: SignedPrimePower) -> PowerOrbits:
    """Orbits of the eq-power (Frobenius) map on Z/m."""
    return power_orbits(m, sp.eq % m)


def canonical_label(k: int, e: int, sp: SignedPrimePower) -> Label:
    """Minimal member of the multiplication-by-eq orbit of e in Z/M_k."""
    m = eigen_modulus(k, sp)
    return (k, eq_orbits(m, sp).rep[e % m])


@cache
def labels_of_degree(k: int, sp: SignedPrimePower) -> tuple:
    """Canonical representatives of the orbits of size exactly k."""
    m = eigen_modulus(k, sp)
    orbits = eq_orbits(m, sp)
    return tuple(e for e in range(m)
                 if orbits.rep[e] == e and orbits.size[e] == k)


@cache
def enumerate_ss_classes(n: int, sp: SignedPrimePower) -> tuple:
    """All semisimple classes of the rank-n group, canonically sorted."""
    labels = [(k, e) for k in range(1, n + 1) for e in labels_of_degree(k, sp)]
    out = []
    # (next label index, remaining rank, chosen factors); labels ascend in k
    stack = [(0, n, ())]
    while stack:
        i, budget, chosen = stack.pop()
        if budget == 0:
            out.append(SSClass(chosen))
            continue
        for j in range(i, len(labels)):
            k = labels[j][0]
            if k > budget:
                break
            for m in range(1, budget // k + 1):
                stack.append((j + 1, budget - m * k, chosen + ((labels[j], m),)))
    return tuple(sorted(out))


def centralizer_type(cls: SSClass) -> tuple:
    """The sorted (orbit degree, multiplicity) pairs of the class.

    The centralizer of a semisimple element with a degree-k eigenvalue
    orbit of multiplicity m contributes a rank-m general linear or
    unitary group over the degree-k extension, with sign eps^k; so these
    pairs fix the centralizer up to isomorphism.
    """
    return tuple(sorted((k, m) for (k, _), m in cls.factors))


def centralizer_order(ctype: tuple, sp: SignedPrimePower) -> int:
    """Order of the centralizer of centralizer type ctype."""
    out = 1
    for k, m in ctype:
        out *= group_order(m, factor_field(k, sp))
    return out


def norm_exponent(cls: SSClass, sp: SignedPrimePower) -> int:
    """Determinant of the class as an exponent in Z/M_1.

    A degree-k orbit through e has determinant e * (1 + eq + ... +
    eq^(k-1)) in eigenvalue exponents, which lands in Z/M_1 as
    eps^(k+1) * e.  Translating the whole class by z shifts the result
    by rank * z, the determinant shift law.
    """
    m1 = eigen_modulus(1, sp)
    out = 0
    for (k, e), m in cls.factors:
        sign = sp.eps ** (k + 1)
        out += m * sign * e
    return out % m1


def zhat_translate(cls: SSClass, sp: SignedPrimePower, z: int) -> SSClass:
    """Multiply the class by the central eigenvalue with exponent z."""
    m1 = eigen_modulus(1, sp)
    new = []
    for (k, e), m in cls.factors:
        mk = eigen_modulus(k, sp)
        new.append((canonical_label(k, e + z * (mk // m1), sp), m))
    return SSClass(tuple(sorted(new)))


def pgl_ss_classes(n: int, sp: SignedPrimePower) -> tuple:
    """Orbits of the central translation action on semisimple classes.

    Each orbit is the parameter of one semisimple class of the adjoint
    group; returned as sorted tuples with the minimal class first.  Each is
    walked as a cycle of translation by 1, which must close within M_1 steps
    with a length dividing M_1, or CertificateError is raised.
    """
    m1 = eigen_modulus(1, sp)
    seen: set = set()
    orbits = []
    for cls in enumerate_ss_classes(n, sp):
        if cls in seen:
            continue
        orbit, x = [cls], zhat_translate(cls, sp, 1)
        while x != cls and len(orbit) <= m1:
            orbit.append(x)
            x = zhat_translate(x, sp, 1)
        if m1 % len(orbit):   # a walk that never closes stops at M_1 + 1 classes
            raise CertificateError(f"class {cls} does not return to itself "
                                   f"after {m1} translates by 1")
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)
