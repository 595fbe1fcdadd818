"""Exact character tables of small finite groups.

The table is computed by Dixon's modular method (Numer. Math. 10, 1967):
the class-sum matrices of the centre of the group algebra, each read
through its nonzero column entries, are simultaneously diagonalized over a
prime field ``F_r`` with ``r = 1 (mod exp G)``, and a space's own
coordinates tell which matrices act on it as scalars (Schneider,
J. Symb. Comput. 9, 1990).  The resulting central characters are
converted to character values mod ``r`` and lifted to ``Q(zeta_N)``, in
one arithmetic context per ``N``, through the discrete Fourier transform
of the eigenvalue multiplicities.  Every step is exact integer arithmetic
and fully deterministic: no floating point, no randomness, and a
canonical sort of the finished characters.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cache
from itertools import compress, repeat
from typing import NamedTuple

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
        for _ in range(N):
            pows.append(self.reduce([0, *pows[-1]]))
        if pows.pop() != self.one:
            raise CertificateError(f"zeta^{N} is not one")
        self.zeta_pow = tuple(pows)

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
        return self.reduce(prod)

    def from_powers(self, terms) -> tuple:
        """sum c.zeta^e over (e, c) pairs: the image of an element of Z[C_N]."""
        out = [0] * self.deg
        for e, c in terms:
            if e < self.deg:   # zeta^e is a basis element
                out[e] += c
            elif c:
                for i, z in enumerate(self.zeta_pow[e]):
                    out[i] += c * z
        return tuple(out)

    def reduce(self, coeffs: list) -> tuple:
        """The image in Z[zeta_N] of the polynomial with little-endian
        coefficients coeffs, divided by Phi_N in place from the top."""
        deg, phi = self.deg, self.phi
        for i in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[i]
            if c:
                for j, x in enumerate(phi, i - deg):
                    coeffs[j] -= c * x
        return tuple(coeffs[:deg])

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


_context = cache(CycContext)   # one context per N, built on first use


class ClassFunction(NamedTuple):
    """An exact cyclotomic-valued class function on a GroupView."""

    view: object
    part: object
    ctx: CycContext
    values: tuple

    @property
    def degree(self) -> int:
        return self.ctx.as_int(self.values[0])


class CharacterTable(NamedTuple):
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
                v = [(x - c * y) % r for x, y in zip(v, prow)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        inv = pow(v[p], -1, r)
        v = [x * inv % r for x in v]
        for i, prow in enumerate(rows):
            c = prow[p]
            if c:
                rows[i] = [(x - c * y) % r for x, y in zip(prow, v)]
        rows.append(v)
        pivots.append(p)
    return rows, pivots


def _express(v, rows, pivots, r):
    """Coordinates of v, with entries in [0, r), in a basis whose rows are 1
    at their own pivot and 0 at the others; v must lie in the span."""
    coords = [v[p] for p in pivots]
    for c, prow in zip(coords, rows):
        if c:
            v = [x - c * y for x, y in zip(v, prow)]
    if any(x % r for x in v):
        raise CertificateError("vector escapes the invariant subspace")
    return coords


def _matvec(cols, v, r):
    """m.v mod r, from the (row, entry) pairs of m's nonzero column entries."""
    out = [0] * len(v)
    for x, col in zip(v, cols):
        if x:
            for j, c in col:
                out[j] += c * x
    return [y % r for y in out]


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
    """Basis of ker(a - lam) in coordinates, via RREF free columns, and those
    columns: each basis vector is 1 at its own free column, 0 at the others."""
    m = len(a)
    rows, pivots = _reduce(
        [[a[i][j] - (lam if i == j else 0) for j in range(m)] for i in range(m)], r)
    free = [f for f in range(m) if f not in pivots]
    basis = []
    for f in free:
        v = [0] * m
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = (-row[f]) % r
        basis.append(v)
    return basis, free


def _split_common_eigenspaces(mats, r):
    """Common one-dimensional eigenvectors of commuting matrices over F_r.

    A space is (rows, pivots), each row 1 at its own pivot and 0 at the
    others.  Row 0 of mats[l] is the unit vector at l, so mats[l] has the
    eigenvalue v[l]/v[0] on a common eigenvector v.  A space whose rows b
    all have b[l] = lam.b[0] is kept once mats[l].b = lam.b on every row;
    any other is split through its restricted matrix, on the start space
    (the identity basis) mats[l] itself.
    """
    size = len(mats)
    start = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    spaces = [(start, list(range(size)))]
    for l, m in enumerate(mats):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        cols = [list(compress(enumerate(col), col)) for col in zip(*m)]
        refined = []
        for rows, pivots in spaces:
            if len(rows) == 1:
                refined.append((rows, pivots))
                continue
            b = next((b for b in rows if b[0]), None)
            if b is None:
                raise CertificateError("eigenspace vanishes at the identity class")
            lam = b[l] * pow(b[0], -1, r) % r
            if all((row[l] - lam * row[0]) % r == 0 for row in rows):
                # m acts as the scalar lam: the space is one eigenspace already
                if any(_matvec(cols, row, r) != [lam * x % r for x in row]
                       for row in rows):
                    raise CertificateError("vector escapes the invariant subspace")
                refined.append((rows, pivots))
                continue
            if rows is start:
                a, basis = m, None
            else:
                # restricted matrix: column j = coords of the image of row j
                a = list(zip(*(_express(_matvec(cols, row, r), rows, pivots, r)
                               for row in rows)))
                basis = tuple(zip(*rows))
            found = 0
            for lam in _eigenvalues(a, r):
                nb, free = _nullspace(a, lam, r)
                found += len(nb)
                vecs = nb if basis is None else [
                    [sum(map(operator.mul, c, col)) % r for col in basis] for c in nb]
                # null vector f is 1 at pivots[f] and 0 at the others
                refined.append((vecs, [pivots[f] for f in free]))
            if found != len(rows):
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
    """Class-sum matrices, entry [i][j][k] the number of x in class i with
    x^-1.z_k in class j for the representative z_k of class k, and each
    class's power walk, both read off z_k's right-regular permutation.

    x runs over class i exactly when y = x^-1 runs over its inverse class
    i*, so no element is inverted: the permutation is read at every
    position y, counting towards row class(y.z_k) of matrix class(y)*.  The
    walk follows the identity's cycle: the classes of z_k^0 .. z_k^(o-1),
    so its length is the order of z_k and its last entry the class i* of
    z_k^-1.  Class 0 must be the identity's.
    """
    n = part.count
    class_of = part.class_of
    root = view.index[view.identity]
    # counts[c][j][k]: the y in class c with y.z_k in class j
    counts = [[[0] * n for _ in range(n)] for _ in range(n)]
    walks = [None] * n
    # the pair (c, j) is encoded as the integer c * n + j
    row_base = [c * n for c in class_of]
    for z, perm in view.right_perms(part.reps):
        k = class_of[view.index[z]]
        pairs = Counter(map(operator.add, row_base, map(class_of.__getitem__, perm)))
        for cj, count in pairs.items():
            c, j = divmod(cj, n)
            counts[c][j][k] += count
        walk, x = [0], perm[root]
        while x != root:
            walk.append(class_of[x])
            x = perm[x]
        walks[k] = walk
    return [counts[walk[-1]] for walk in walks], walks


def _spectrum(col, idft, step: int, r: int) -> list:
    """(exponent of zeta_N, multiplicity) of each eigenvalue of a class
    representative: the inverse DFT mod r of the values col on its powers."""
    spectrum = []
    for j, idft_row in enumerate(idft):
        m = sum(map(operator.mul, col, idft_row)) % r
        if m:
            spectrum.append((j * step, m))
    return spectrum


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

    mats, power_classes = _class_matrices(view, part)
    N = math.lcm(*map(len, power_classes))
    ctx = _context(N)
    r = _find_prime(N, order, n_classes)

    inv_class = tuple(walk[-1] for walk in power_classes)
    spaces = _split_common_eigenspaces(mats, r)
    if len(spaces) != n_classes:
        raise CertificateError("fewer common eigenspaces than classes")

    omegas = []
    for v in spaces:
        inv0 = pow(v[0] % r, -1, r)
        omegas.append(tuple(x * inv0 % r for x in v))

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

    # per class k, the inverse-DFT rows mod r that turn the values on its
    # powers into the multiplicities of the zeta_N^(j N/n_k); or, if its walk
    # is an earlier class z's read at a unit t, z and t: z's spectrum times t
    w_root = _root_of_unity_mod(N, r)
    sources, dft, rational = [], {}, {}
    for k, walk in enumerate(power_classes):
        n_k = len(walk)
        z, t = rational.get(k, (k, 1))
        if z != k and len(power_classes[z]) == n_k and all(
                walk[s] == power_classes[z][t * s % n_k] for s in range(n_k)):
            sources.append((z, t))
            continue
        sources.append((k, 1))
        wk, inv_n = pow(w_root, N // n_k, r), pow(n_k, -1, r)
        scaled = [pow(wk, -t, r) * inv_n % r for t in range(n_k)]
        idft = tuple(tuple(scaled[j * t % n_k] for t in range(n_k)) for j in range(n_k))
        dft[k] = (walk, idft, N // n_k)
        for t in range(1, n_k):
            if math.gcd(t, n_k) == 1:
                rational.setdefault(walk[t], (k, t))

    chars = []
    for vals, d in zip(chars_mod, degrees):
        row, spectra = [], []
        for k, (z, t) in enumerate(sources):
            if z == k:
                walk, idft, step = dft[k]
                spectrum = _spectrum([vals[c] for c in walk], idft, step, r)
            else:
                spectrum = [(e * t % N, m) for e, m in spectra[z]]
            if sum(m for _, m in spectrum) != d:
                raise CertificateError("eigenvalue multiplicities do not sum to the degree")
            row.append(ctx.from_powers(spectrum))
            spectra.append(spectrum)
        # sum_k |C_k| chi(z_k) chi(z_k*) in Z[C_N], mapped to Z[zeta_N] once
        coeffs = [0] * N
        for size, spectrum, k_inv in zip(part.sizes, spectra, inv_class):
            for e, m in spectrum:
                for e_inv, m_inv in spectra[k_inv]:
                    coeffs[(e + e_inv) % N] += size * m * m_inv
        if ctx.reduce(coeffs) != ctx.from_int(order):
            raise CertificateError("character norm is not one")
        chars.append(tuple(row))

    if len(set(chars)) != n_classes:
        raise CertificateError("lifted characters are not distinct")
    out = [ClassFunction(view, part, ctx, row) for row in chars]
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


def induce(sub_cf: ClassFunction, amb_view) -> ClassFunction:
    """Induction to an ambient group containing the subgroup elementwise."""
    amb_part = amb_view.conjugacy_classes()
    ctx = sub_cf.ctx
    sub_order = sum(sub_cf.part.sizes)
    acc = [ctx.zero] * amb_part.count
    for rep, size, val in zip(sub_cf.part.reps, sub_cf.part.sizes, sub_cf.values):
        k = amb_part.class_of[amb_view.index[rep]]
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
