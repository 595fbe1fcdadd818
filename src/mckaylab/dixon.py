"""Exact character tables of small finite groups.

The table is computed by the classical modular method: the class-sum
matrices of the centre of the group algebra are simultaneously
diagonalized over a prime field ``F_r`` with ``r = 1 (mod exp G)``, the
resulting central characters are converted to character values mod ``r``,
and those are lifted to the cyclotomic field ``Q(zeta_N)`` through the
discrete Fourier transform of the eigenvalue multiplicities.  Every step
is exact integer arithmetic and fully deterministic: no floating point,
no randomness, and a canonical sort of the finished characters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from sympy import Poly, Symbol, cyclotomic_poly, factorint, isprime

from .exactfield import CertificateError


class CycContext:
    """Arithmetic in Z[zeta_N] modulo the N-th cyclotomic polynomial.

    Elements are coefficient tuples of length ``deg = phi(N)`` in the
    power basis ``1, zeta, ..., zeta^(deg-1)``, little endian.  The power
    basis is an integral basis, so coefficientwise integer divisibility
    is meaningful for algebraic integers.
    """

    def __init__(self, N: int):
        x = Symbol("x")
        coeffs = [int(c) for c in Poly(cyclotomic_poly(N, x), x).all_coeffs()]
        if coeffs[0] != 1:
            raise CertificateError("cyclotomic polynomial is not monic")
        self.N = N
        self.deg = len(coeffs) - 1
        # little-endian coefficients of Phi_N minus the leading term
        self.phi = tuple(reversed(coeffs[1:]))
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)
        pows = [self.one]
        for _ in range(N - 1):
            pows.append(self._mul_zeta(pows[-1]))
        self.zeta_pow = tuple(pows)
        if self._mul_zeta(self.zeta_pow[-1]) != self.one:
            raise CertificateError(f"zeta^{N} is not one")

    def _mul_zeta(self, a: tuple) -> tuple:
        top = a[-1]
        out = [0] + list(a[:-1])
        if top:
            for i in range(self.deg):
                out[i] -= top * self.phi[i]
        return tuple(out)

    def from_int(self, c: int) -> tuple:
        return (c,) + (0,) * (self.deg - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def scal(self, c: int, a: tuple) -> tuple:
        return tuple(c * x for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[: self.deg] + [0] * (self.deg - min(self.deg, len(prod)))
        for i in range(self.deg, len(prod)):
            c = prod[i]
            if c:
                zp = self.zeta_pow[i % self.N]
                for t in range(self.deg):
                    out[t] += c * zp[t]
        return tuple(out)

    def galois(self, a: tuple, t: int) -> tuple:
        """Apply zeta -> zeta^t; a field automorphism when gcd(t, N) = 1."""
        out = [0] * self.deg
        for i, c in enumerate(a):
            if c:
                zp = self.zeta_pow[(i * t) % self.N]
                for s in range(self.deg):
                    out[s] += c * zp[s]
        return tuple(out)

    def conj(self, a: tuple) -> tuple:
        return self.galois(a, self.N - 1)

    def root_of_unity(self, j: int) -> tuple:
        return self.zeta_pow[j % self.N]

    def is_rational(self, a: tuple) -> bool:
        return all(c == 0 for c in a[1:])

    def as_int(self, a: tuple) -> int:
        if not self.is_rational(a):
            raise CertificateError("value is not rational")
        return a[0]

    def divide_int(self, a: tuple, n: int) -> tuple:
        out = []
        for c in a:
            q, rem = divmod(c, n)
            if rem:
                raise CertificateError("inexact division of a cyclotomic integer")
            out.append(q)
        return tuple(out)


@dataclass(frozen=True)
class ClassFunction:
    """An exact cyclotomic-valued class function on a GroupView."""

    view: object
    part: object
    ctx: CycContext
    values: tuple

    @property
    def degree(self) -> int:
        return self.ctx.as_int(self.values[0])

    def at(self, g) -> tuple:
        return self.values[self.part.class_map[g]]


@dataclass(frozen=True)
class CharacterTable:
    view: object
    part: object
    ctx: CycContext
    chars: tuple

    @property
    def degrees(self) -> tuple:
        return tuple(c.degree for c in self.chars)


# ---------------------------------------------------------------------------
# linear algebra over F_r

def _reduce(vecs, r):
    """Echelon basis (rows, pivot columns) of the span, in insertion order.

    Each row is normalized at its pivot and cleared at every other pivot;
    vectors already in the span of the earlier ones are dropped.
    """
    rows, pivots = [], []
    for v in vecs:
        v = [x % r for x in v]
        for p, prow in zip(pivots, rows):
            c = v[p]
            if c:
                for t in range(len(v)):
                    v[t] = (v[t] - c * prow[t]) % r
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        inv = pow(v[p], -1, r)
        v = [x * inv % r for x in v]
        for prow in rows:
            c = prow[p]
            if c:
                for t in range(len(v)):
                    prow[t] = (prow[t] - c * v[t]) % r
        rows.append(v)
        pivots.append(p)
    return rows, pivots


def _rref(vecs, r):
    """Reduced row echelon basis (rows, pivot columns) of the span."""
    rows, pivots = _reduce(vecs, r)
    if len(rows) != len(vecs):
        raise CertificateError("dependent vector in eigenbasis")
    order = sorted(range(len(rows)), key=lambda i: pivots[i])
    return [rows[i] for i in order], [pivots[i] for i in order]


def _express(v, rows, pivots, r):
    """Coordinates of v in an RREF basis; v must lie in the span."""
    v = [x % r for x in v]
    coords = []
    for p, prow in zip(pivots, rows):
        c = v[p]
        coords.append(c)
        if c:
            for t in range(len(v)):
                v[t] = (v[t] - c * prow[t]) % r
    if any(v):
        raise CertificateError("vector escapes the invariant subspace")
    return coords


def _matvec(m, v, r):
    return [sum(mi[j] * v[j] for j in range(len(v)) if v[j]) % r for mi in m]


def _charpoly(a, r):
    """Monic characteristic polynomial coefficients c1..cm, Faddeev-LeVerrier."""
    m = len(a)
    cur = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    coeffs = []
    for k in range(1, m + 1):
        cols = tuple(zip(*cur))
        am = [[sum(map(operator.mul, row, col)) % r for col in cols] for row in a]
        c = (-sum(am[i][i] for i in range(m)) * pow(k, -1, r)) % r
        coeffs.append(c)
        if k < m:
            cur = [
                [(am[i][j] + (c if i == j else 0)) % r for j in range(m)]
                for i in range(m)
            ]
    return coeffs


def _eigenvalues(a, r):
    """All roots in F_r of the characteristic polynomial, ascending."""
    m = len(a)
    if m == 1:
        return [a[0][0] % r]
    coeffs = _charpoly(a, r)
    roots = []
    for lam in range(r):
        acc = 1
        for c in coeffs:
            acc = (acc * lam + c) % r
        if acc == 0:
            roots.append(lam)
            if len(roots) == m:
                break
    return roots


def _nullspace(a, lam, r):
    """Basis of ker(a - lam) in coordinates, via RREF free columns."""
    m = len(a)
    rows, pivots = _reduce(
        [[a[i][j] - (lam if i == j else 0) for j in range(m)] for i in range(m)], r)
    basis = []
    for f in range(m):
        if f in pivots:
            continue
        v = [0] * m
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = (-row[f]) % r
        basis.append(v)
    return basis


def _split_common_eigenspaces(mats, r):
    """Common one-dimensional eigenvectors of commuting matrices over F_r."""
    size = len(mats)
    start = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    spaces = [(start, list(range(size)))]
    for m in mats:
        refined = []
        for rows, pivots in spaces:
            dim = len(rows)
            if dim == 1:
                refined.append((rows, pivots))
                continue
            images = [_matvec(m, b, r) for b in rows]
            coords = [_express(img, rows, pivots, r) for img in images]
            # restricted matrix: column j = coords of image of basis row j
            a = [[coords[j][i] for j in range(dim)] for i in range(dim)]
            found = 0
            for lam in _eigenvalues(a, r):
                nb = _nullspace(a, lam, r)
                found += len(nb)
                vecs = [
                    [sum(c[i] * rows[i][t] for i in range(dim)) % r for t in range(size)]
                    for c in nb
                ]
                refined.append(_rref(vecs, r))
            if found != dim:
                raise CertificateError("class matrix failed to split over F_r")
        spaces = refined
    if any(len(rows) != 1 for rows, _ in spaces):
        raise CertificateError("common eigenspace not 1-dim")
    return [rows[0] for rows, _ in spaces]


# ---------------------------------------------------------------------------
# the table itself

def _find_prime(N: int, order: int, n_classes: int) -> int:
    bound = max(2 * math.isqrt(order) + 1, n_classes + 1, N + 1)
    r = N + 1
    while True:
        if r > bound and isprime(r) and order % r != 0:
            return r
        r += N


def _root_of_unity_mod(N: int, r: int) -> int:
    primes = list(factorint(N))
    for g in range(2, r):
        w = pow(g, (r - 1) // N, r)
        if pow(w, N, r) == 1 and all(pow(w, N // p, r) != 1 for p in primes):
            return w
    raise CertificateError("no element of the required order mod r")


def _class_matrices(view, part):
    n = part.count
    mats = []
    for i in range(n):
        m = [[0] * n for _ in range(n)]
        for x in part.members[i]:
            xi = view.inv(x)
            for k, z in enumerate(part.reps):
                m[part.class_map[view.mul(xi, z)]][k] += 1
        mats.append(m)
    return mats


def character_table(view) -> CharacterTable:
    """The full table of irreducible characters, exactly, in canonical order.

    Verifies internally that the degrees satisfy the sum-of-squares
    identity and that every produced character has norm one.
    """
    part = view.conjugacy_classes()
    n_classes = part.count
    order = view.order
    if part.reps[0] != view.identity:
        raise CertificateError("the first class is not the identity")

    N = view.exponent()
    ctx = CycContext(N)
    r = _find_prime(N, order, n_classes)

    spaces = _split_common_eigenspaces(_class_matrices(view, part), r)
    if len(spaces) != n_classes:
        raise CertificateError("fewer common eigenspaces than classes")

    omegas = []
    for v in spaces:
        inv0 = pow(v[0] % r, -1, r)
        omegas.append(tuple(x * inv0 % r for x in v))

    inv_class = tuple(part.class_map[view.inv(g)] for g in part.reps)
    size_inv = tuple(pow(s, -1, r) for s in part.sizes)

    chars_mod, degrees = [], []
    for w in omegas:
        s = sum(w[k] * w[inv_class[k]] * size_inv[k] for k in range(n_classes)) % r
        dd = order * pow(s, -1, r) % r
        d = next(
            (c for c in range(1, math.isqrt(order) + 1) if c * c % r == dd), None
        )
        if d is None:
            raise CertificateError("no degree below sqrt(|G|) matches")
        degrees.append(d)
        chars_mod.append(tuple(d * w[k] * size_inv[k] % r for k in range(n_classes)))
    if sum(d * d for d in degrees) != order:
        raise CertificateError("sum of squared degrees is off")

    # shared lift tables: element order, power-map classes, root powers
    w_root = _root_of_unity_mod(N, r)
    lift_data = []
    for k, z in enumerate(part.reps):
        n_k = view.element_order(z)
        power_class = []
        x = view.identity
        for _ in range(n_k):
            power_class.append(part.class_map[x])
            x = view.mul(x, z)
        wk = pow(w_root, N // n_k, r)
        wk_pows = [1]
        for _ in range(n_k - 1):
            wk_pows.append(wk_pows[-1] * wk % r)
        lift_data.append((n_k, power_class, wk_pows, pow(n_k, -1, r)))

    chars = []
    for vals, d in zip(chars_mod, degrees):
        row = []
        for k in range(n_classes):
            n_k, power_class, wk_pows, inv_n = lift_data[k]
            acc = ctx.zero
            total = 0
            for j in range(n_k):
                m = (
                    sum(vals[power_class[t]] * wk_pows[(-j * t) % n_k] for t in range(n_k))
                    * inv_n
                    % r
                )
                if m:
                    total += m
                    acc = ctx.add(acc, ctx.scal(m, ctx.zeta_pow[j * (N // n_k) % N]))
            if total != d:
                raise CertificateError("eigenvalue multiplicities do not sum to the degree")
            row.append(acc)
        chars.append(tuple(row))

    if len(set(chars)) != n_classes:
        raise CertificateError("lifted characters are not distinct")
    out = []
    for row in chars:
        norm = ctx.zero
        for k in range(n_classes):
            norm = ctx.add(norm, ctx.scal(part.sizes[k], ctx.mul(row[k], row[inv_class[k]])))
        if norm != ctx.from_int(order):
            raise CertificateError("character norm is not one")
        out.append(ClassFunction(view, part, ctx, row))
    out.sort(key=lambda c: (c.degree, c.values))
    return CharacterTable(view, part, ctx, tuple(out))


# ---------------------------------------------------------------------------
# operations on class functions

def trivial_character(view, ctx: CycContext = None, part=None) -> ClassFunction:
    part = part if part is not None else view.conjugacy_classes()
    ctx = ctx if ctx is not None else CycContext(1)
    return ClassFunction(view, part, ctx, tuple(ctx.one for _ in range(part.count)))


def inner(f: ClassFunction, g: ClassFunction) -> int:
    """Exact inner product; the result must be a rational integer."""
    if f.part is not g.part or f.ctx is not g.ctx:
        raise CertificateError("class functions on different class lists")
    ctx, part = f.ctx, f.part
    s = ctx.zero
    for k in range(part.count):
        s = ctx.add(s, ctx.scal(part.sizes[k], ctx.mul(f.values[k], ctx.conj(g.values[k]))))
    q, rem = divmod(ctx.as_int(s), sum(part.sizes))
    if rem:
        raise CertificateError("inner product is not an integer")
    return q


def induce(sub_cf: ClassFunction, amb_view, amb_part=None) -> ClassFunction:
    """Induction to an ambient group containing the subgroup elementwise."""
    amb_part = amb_part if amb_part is not None else amb_view.conjugacy_classes()
    ctx = sub_cf.ctx
    sub_order = sum(sub_cf.part.sizes)
    acc = [ctx.zero] * amb_part.count
    for rep, size, val in zip(sub_cf.part.reps, sub_cf.part.sizes, sub_cf.values):
        k = amb_part.class_map[rep]
        acc[k] = ctx.add(acc[k], ctx.scal(size, val))
    amb_order = amb_view.order
    values = tuple(
        ctx.divide_int(ctx.scal(amb_order // amb_part.sizes[k], acc[k]), sub_order)
        for k in range(amb_part.count)
    )
    return ClassFunction(amb_view, amb_part, ctx, values)


def restrict(cf: ClassFunction, sub_view, sub_part=None) -> ClassFunction:
    sub_part = sub_part if sub_part is not None else sub_view.conjugacy_classes()
    values = tuple(cf.values[cf.part.class_map[rep]] for rep in sub_part.reps)
    return ClassFunction(sub_view, sub_part, cf.ctx, values)


def irr_ellprime(table: CharacterTable, ell: int) -> tuple:
    """The irreducible characters of degree prime to ell."""
    return tuple(c for c in table.chars if c.degree % ell != 0)
