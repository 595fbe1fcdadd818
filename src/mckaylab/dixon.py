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
from functools import cache
from itertools import repeat

from .exactfield import CertificateError, isprime, prime_factors


@cache
def _cyclotomic(N: int) -> tuple:
    """Little-endian integer coefficients of the N-th cyclotomic polynomial.

    x^N - 1 is divided by Phi_d for every proper divisor d of N; each
    division must be exact, or CertificateError is raised.
    """
    if N < 1:
        raise CertificateError(f"no cyclotomic polynomial of order {N}")
    rem = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d:
            continue
        phi = _cyclotomic(d)
        deg = len(phi) - 1
        quot = [0] * (len(rem) - deg)
        for i in range(len(rem) - 1, deg - 1, -1):
            c = quot[i - deg] = rem[i]
            if c:
                for j in range(deg + 1):
                    rem[i - deg + j] -= c * phi[j]
        if any(rem[:deg]):
            raise CertificateError(f"Phi_{d} does not divide x^{N} - 1")
        rem = quot
    return tuple(rem)


class CycContext:
    """Arithmetic in Z[zeta_N] modulo the N-th cyclotomic polynomial.

    Elements are coefficient tuples of length ``deg = phi(N)`` in the
    power basis ``1, zeta, ..., zeta^(deg-1)``, little endian.  The power
    basis is an integral basis, so coefficientwise integer divisibility
    is meaningful for algebraic integers.
    """

    def __init__(self, N: int):
        coeffs = _cyclotomic(N)
        if coeffs[-1] != 1:
            raise CertificateError("cyclotomic polynomial is not monic")
        self.N = N
        self.deg = len(coeffs) - 1
        # little-endian coefficients of Phi_N minus the leading term
        self.phi = coeffs[:-1]
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
        return tuple(map(operator.add, a, b))

    def scal(self, c: int, a: tuple) -> tuple:
        return tuple(map(operator.mul, repeat(c), a))

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
    """m.v mod r, reading only the entries of m's rows where v is nonzero."""
    nz = [j for j, x in enumerate(v) if x]
    vals = [v[j] for j in nz]
    return [sum(map(operator.mul, map(mi.__getitem__, nz), vals)) % r for mi in m]


def _charpoly(a, r):
    """Monic characteristic polynomial coefficients c1..cm of a over F_r.

    a is brought to upper Hessenberg form h by similarity: for each column,
    a row with a nonzero entry below the subdiagonal is swapped up (with
    its column) and clears the entries under it.  The characteristic
    polynomials p_k of the leading k x k blocks of h then satisfy
    p_k = (x - h_kk) p_(k-1) - sum_i h_ik (h_(i+1)i ... h_k(k-1)) p_(i-1),
    O(m^3) operations in all (Cohen, "A Course in Computational Algebraic
    Number Theory", Alg. 2.2.9).
    """
    m = len(a)
    h = [[x % r for x in row] for row in a]
    for j in range(m - 2):
        piv = next((i for i in range(j + 1, m) if h[i][j]), None)
        if piv is None:
            continue
        s = j + 1
        if piv != s:
            h[piv], h[s] = h[s], h[piv]
            for row in h:
                row[piv], row[s] = row[s], row[piv]
        hs, inv = h[s], pow(h[s][j], -1, r)
        for i in range(j + 2, m):
            u = h[i][j] * inv % r
            if u:
                hi = h[i]
                for t in range(j, m):
                    hi[t] = (hi[t] - u * hs[t]) % r
                for row in h:
                    row[s] = (row[s] + u * row[i]) % r
    # polys[k]: little-endian characteristic polynomial of the leading k x k block
    polys = [[1]]
    for k in range(m):
        new = [0] + polys[k]
        hkk = h[k][k]
        for t, c in enumerate(polys[k]):
            new[t] = (new[t] - hkk * c) % r
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % r
            if not sub:
                break
            c = h[i][k] * sub % r
            if c:
                for t, x in enumerate(polys[i]):
                    new[t] = (new[t] - c * x) % r
        polys.append(new)
    return polys[m][-2::-1]


def _eigenvalues(a, r):
    """All roots in F_r of the characteristic polynomial, ascending."""
    m = len(a)
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
            if all(a[i][j] == (a[0][0] if i == j else 0)
                   for i in range(dim) for j in range(dim)):
                # m acts as a scalar: the space is one eigenspace already
                refined.append((rows, pivots))
                continue
            cols = tuple(zip(*rows))
            found = 0
            for lam in _eigenvalues(a, r):
                nb = _nullspace(a, lam, r)
                found += len(nb)
                vecs = [[sum(map(operator.mul, c, col)) % r for col in cols]
                        for c in nb]
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
    primes = prime_factors(N)
    for g in range(2, r):
        w = pow(g, (r - 1) // N, r)
        if pow(w, N, r) == 1 and all(pow(w, N // p, r) != 1 for p in primes):
            return w
    raise CertificateError("no element of the required order mod r")


def _class_matrices(view, part):
    """Class-sum matrices: entry [i][j][k] counts x in class i with x^-1.z_k
    in class j, for the representative z_k of class k.

    Each element is inverted once; each representative gets one
    right-multiplication map, applied to every inverse.
    """
    n = part.count
    class_map = part.class_map
    inverses = [(i, view.inv(x)) for i in range(n) for x in part.members[i]]
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k, z in enumerate(part.reps):
        times_z = view.right(z)
        for i, xi in inverses:
            mats[i][class_map[times_z(xi)]][k] += 1
    return mats


def character_table(view) -> CharacterTable:
    """The full table of irreducible characters, exactly, in canonical order.

    Verifies internally that the degrees satisfy the sum-of-squares
    identity and that every produced character has norm one.  The table is
    built once per view and kept on it, like its conjugacy classes.
    """
    if view._table is None:
        view._table = _build_table(view)
    return view._table


def _build_table(view) -> CharacterTable:
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

    # per class: the classes of its powers, the inverse-DFT rows mod r that
    # turn the values on them into eigenvalue multiplicities, and the n_k-th
    # roots of unity those multiplicities weigh
    w_root = _root_of_unity_mod(N, r)
    lift_data = []
    for z in part.reps:
        n_k = view.element_order(z)
        power_class = []
        x = view.identity
        for _ in range(n_k):
            power_class.append(part.class_map[x])
            x = view.mul(x, z)
        wk, inv_n = pow(w_root, N // n_k, r), pow(n_k, -1, r)
        scaled = [pow(wk, -t, r) * inv_n % r for t in range(n_k)]
        idft = tuple(tuple(scaled[j * t % n_k] for t in range(n_k)) for j in range(n_k))
        lift_data.append((power_class, idft, ctx.zeta_pow[::N // n_k]))

    chars = []
    for vals, d in zip(chars_mod, degrees):
        row = []
        for power_class, idft, roots in lift_data:
            col = [vals[c] for c in power_class]
            acc = ctx.zero
            total = 0
            for idft_row, root in zip(idft, roots):
                m = sum(map(operator.mul, col, idft_row)) % r
                if m:
                    total += m
                    acc = ctx.add(acc, ctx.scal(m, root))
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


def irr_ellprime(table: CharacterTable, ell: int) -> tuple:
    """The irreducible characters of degree prime to ell."""
    return tuple(c for c in table.chars if c.degree % ell != 0)
