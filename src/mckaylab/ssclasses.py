"""Semisimple conjugacy classes of GL_n(q) and GU_n(q), combinatorially.

A semisimple class is a multiset of eigenvalue orbits, held as the sorted
tuple of its ((k, e), multiplicity) pairs.  Writing eq for
the signed field size (q in the linear case, -q in the unitary case),
the eigenvalues of degree k live in a cyclic group of order
M_k = |q^k - eps^k| = |eq^k - 1|, encoded as Z/M_k, and the Frobenius
acts by multiplication by eq.  A label (k, e) is an orbit of size
exactly k, named by its minimal member.  Since j | k forces M_j | M_k,
smaller-degree labels embed via e -> e * (M_k / M_j), and "size exactly
k" excludes the embedded ones.
"""

from __future__ import annotations

from functools import cache

from .exactfield import SignedPrimePower, cycles, factor_field, group_order


@cache
def eigen_modulus(k: int, sp: SignedPrimePower) -> int:
    return abs(sp.q**k - sp.eps**k)


@cache
def eq_orbits(k: int, sp: SignedPrimePower) -> tuple:
    """Orbits of the eq-power (Frobenius) map on Z/M_k, as (least, size):
    least[x] is the least member of the orbit of x, and size[r] is the
    length of the orbit whose least member is r (0 at other members).

    eq^k = 1 modulo M_k, so cycles certifies every length to divide k.
    """
    m = eigen_modulus(k, sp)
    eq = sp.eq % m
    least = [0] * m
    size = [0] * m
    for cycle in cycles(m, lambda x: x * eq % m, k):
        r = cycle[0]
        for x in cycle:
            least[x] = r
        size[r] = len(cycle)
    return tuple(least), tuple(size)


def canonical_label(k: int, e: int, sp: SignedPrimePower) -> tuple:
    """Minimal member of the multiplication-by-eq orbit of e in Z/M_k."""
    least, _ = eq_orbits(k, sp)
    return (k, least[e % len(least)])


@cache
def labels_of_degree(k: int, sp: SignedPrimePower) -> tuple:
    """Canonical representatives of the orbits of size exactly k."""
    least, size = eq_orbits(k, sp)
    return tuple(e for e in range(len(least)) if least[e] == e and size[e] == k)


def multisets(items, weights, budget: int) -> list:
    """The multisets of distinct items whose multiplicities times weights sum
    to budget, each a tuple of (item, multiplicity) pairs in item order.

    Weights must not decrease along items.  A stack walk that pops the last
    item first and its multiplicity 1 first, so the multisets come in
    depth-first recursive order.
    """
    out = []
    stack = [(0, budget, ())]   # (next item index, remaining budget, chosen pairs)
    while stack:
        i, left, chosen = stack.pop()
        if left == 0:
            out.append(chosen)
            continue
        for j in range(i, len(items)):
            w = weights[j]
            if w > left:
                break
            for m in range(left // w, 0, -1):
                stack.append((j + 1, left - m * w, chosen + ((items[j], m),)))
    return out


@cache
def enumerate_ss_classes(n: int, sp: SignedPrimePower) -> tuple:
    """All semisimple classes of the rank-n group, canonically sorted: the
    multisets of labels whose degrees times multiplicities sum to n."""
    labels = [(k, e) for k in range(1, n + 1) for e in labels_of_degree(k, sp)]
    return tuple(sorted(multisets(labels, [k for k, _ in labels], n)))


def centralizer_type(cls: tuple) -> tuple:
    """The sorted (orbit degree, multiplicity) pairs of the class.

    The centralizer of a semisimple element with a degree-k eigenvalue
    orbit of multiplicity m contributes a rank-m general linear or
    unitary group over the degree-k extension, with sign eps^k; so these
    pairs fix the centralizer up to isomorphism.
    """
    return tuple(sorted((k, m) for (k, _), m in cls))


def centralizer_order(ctype: tuple, sp: SignedPrimePower) -> int:
    """Order of the centralizer of centralizer type ctype."""
    out = 1
    for k, m in ctype:
        out *= group_order(m, factor_field(k, sp))
    return out


def norm_exponent(cls: tuple, sp: SignedPrimePower) -> int:
    """Determinant of the class as an exponent in Z/M_1.

    A degree-k orbit through e has determinant e * (1 + eq + ... +
    eq^(k-1)) in eigenvalue exponents, which lands in Z/M_1 as
    eps^(k+1) * e.  Translating the whole class by z shifts the result
    by rank * z, the determinant shift law.
    """
    m1 = eigen_modulus(1, sp)
    out = 0
    for (k, e), m in cls:
        sign = sp.eps ** (k + 1)
        out += m * sign * e
    return out % m1


def zhat_translate(factors, sp: SignedPrimePower, z: int) -> tuple:
    """The ((k, e), x) factors with each label multiplied by the central
    eigenvalue with exponent z, sorted: a class goes to its translate.
    Translation permutes the distinct labels of a class, so the sort never
    compares two x."""
    m1 = eigen_modulus(1, sp)
    new = []
    for (k, e), x in factors:
        new.append((canonical_label(k, e + z * (eigen_modulus(k, sp) // m1), sp), x))
    new.sort()
    return tuple(new)


def pgl_ss_classes(n: int, sp: SignedPrimePower) -> tuple:
    """Orbits of the central translation action on semisimple classes.

    Each orbit is the parameter of one semisimple class of the adjoint
    group; returned as sorted tuples with the minimal class first.  Each is
    one of the cycles of translation by 1, with period M_1.
    """
    classes = enumerate_ss_classes(n, sp)
    index = {cls: i for i, cls in enumerate(classes)}
    step = lambda i: index[zhat_translate(classes[i], sp, 1)]
    return tuple(tuple(classes[i] for i in sorted(cycle))
                 for cycle in cycles(len(classes), step, eigen_modulus(1, sp)))
