"""Brute-force matrix groups over small finite fields.

Builds GL/SL over GF(q) and GU/SU inside GL_n(q^2) by closure from explicit
generators, with conjugacy classes, centralizer orders, Sylow subgroups,
normalizers, and the two standard outer maps (entrywise p-power Frobenius and
the inverse-transpose twist gamma).  Elements are tuples of row tuples of
field-encoded ints, so they hash and sort deterministically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product

from .exactfield import (
    FiniteField,
    SignedPrimePower,
    build_field,
    ell_part,
    element_order,
    group_order,
    sl_group_order,
    spp,
)

Matrix = tuple[tuple[int, ...], ...]

GROUP_SIZE_LIMIT = 25000


class OracleError(ValueError):
    """Raised for unsupported or oversized oracle requests."""


# ---------------------------------------------------------------------------
# matrix arithmetic


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _row_kernel(b: Matrix, F: FiniteField):
    """The map row -> row.b for one fixed right factor b.

    Prime fields sum integer products and reduce once per entry; tabled
    extension fields read the addition and multiplication tables; larger
    fields use F.add and F.mul.
    """
    bt = tuple(zip(*b))
    if F.k == 1:
        p, prod = F.p, operator.mul

        def prime_kernel(row):
            out = []
            for col in bt:
                out.append(sum(map(prod, row, col)) % p)
            return tuple(out)

        return prime_kernel
    if F.add_table is not None:
        add_table, mul_table = F.add_table, F.mul_table

        def table_kernel(row):
            out = []
            for col in bt:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = add_table[acc][mul_table[x][y]]
                out.append(acc)
            return tuple(out)

        return table_kernel
    mul, add = F.mul, F.add

    def kernel(row):
        out = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return tuple(out)

    return kernel


def mat_mul(a: Matrix, b: Matrix, F: FiniteField) -> Matrix:
    """The product a.b."""
    return tuple(map(_row_kernel(b, F), a))


class _Images(dict):
    """Arguments mapped to their images under one function, filled on demand."""

    __slots__ = ("function",)

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, x):
        image = self[x] = self.function(x)
        return image


def right_mul(b: Matrix, F: FiniteField):
    """The map a -> a.b for one fixed b.

    Row i of a.b depends only on row i of a, so each distinct row is
    multiplied once and its image kept for as long as the map lives.
    """
    images = _Images(_row_kernel(b, F))
    return lambda a: tuple(map(images.__getitem__, a))


def left_mul(b: Matrix, F: FiniteField):
    """The map a -> b.a for one fixed b, as right_mul(b^T) on transposes."""
    times_bt = right_mul(tuple(zip(*b)), F)
    return lambda a: tuple(zip(*times_bt(tuple(zip(*a)))))


def _gauss_jordan(rows: list, ncols: int, F: FiniteField) -> tuple[int, int]:
    """Gauss-Jordan reduction of rows in place, pivoting on the first ncols.

    Returns (rank, det): det is the determinant of the leading square block,
    0 when that block is singular.  Tabled fields scale and subtract rows by
    reading the multiplication and addition tables; larger fields use
    F.mul and F.add.
    """
    if F.mul_table is not None:
        add_table, mul_table = F.add_table, F.mul_table

        def scaled(c, row):
            times_c = mul_table[c]
            return [times_c[x] for x in row]

        def plus_scaled(row, c, other):
            times_c = mul_table[c]
            return [add_table[x][times_c[y]] for x, y in zip(row, other)]
    else:
        mul, add = F.mul, F.add

        def scaled(c, row):
            return [mul(c, x) for x in row]

        def plus_scaled(row, c, other):
            return [add(x, mul(c, y)) for x, y in zip(row, other)]

    rank, det = 0, 1
    for col in range(ncols):
        for pivot in range(rank, len(rows)):
            if rows[pivot][col]:
                break
        else:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = F.neg(det)
        lead = rows[rank][col]
        det = F.mul(det, lead)
        if lead != 1:
            rows[rank] = scaled(F.inv(lead), rows[rank])
        pivot_row = rows[rank]
        for r, row in enumerate(rows):
            if row[col] and r != rank:
                rows[r] = plus_scaled(row, F.neg(row[col]), pivot_row)
        rank += 1
    return rank, det


def mat_inv(a: Matrix, F: FiniteField) -> Matrix:
    n = len(a)
    aug = [list(row) + [0] * n for row in a]
    for i in range(n):
        aug[i][n + i] = 1
    if _gauss_jordan(aug, n, F)[0] < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def mat_det(a: Matrix, F: FiniteField) -> int:
    return _gauss_jordan([list(row) for row in a], len(a), F)[1]


def mat_rank(a: Matrix, F: FiniteField) -> int:
    return _gauss_jordan([list(row) for row in a], len(a), F)[0]


def conj_transpose(a: Matrix, F: FiniteField, q: int) -> Matrix:
    """Transpose with entrywise q-power (the order-2 automorphism of GF(q^2))."""
    n = len(a)
    return tuple(tuple(F.pow(a[j][i], q) for j in range(n)) for i in range(n))


def form_matrix(n: int, F: FiniteField) -> Matrix:
    """The fixed antidiagonal form v0 with (k, n+1-k) entry (-1)^(k+1)."""
    one = 1
    rows = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        entry = one if k % 2 == 1 else F.neg(one)
        rows[k - 1][n - k] = entry
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# group views


@dataclass
class GroupView:
    """A finite group given by an explicit element list and multiplication.

    `right(b)` and `left(b)` return the maps a -> a.b and a -> b.a for one
    fixed factor b; a loop that reuses one factor makes its map once.  Used
    both for full matrix groups and for subgroups; conjugacy data and
    the character table are computed lazily and cached on the instance.
    `_subgroups` maps sorted element tuples to views; a view and every
    subgroup view made from it share one such registry.
    """

    elements: tuple
    generators: tuple
    identity: object
    mul: object
    inv: object
    right: object
    left: object
    _index: dict = field(default=None, repr=False)
    _classes: object = field(default=None, repr=False)
    _table: object = field(default=None, repr=False, compare=False)
    _subgroups: dict = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        return self._index

    def __contains__(self, g) -> bool:
        return g in self.index

    def conjugacy_classes(self) -> "ConjugacyPartition":
        if self._classes is None:
            self._classes = conjugacy_partition(self)
        return self._classes

    def element_order(self, g) -> int:
        return element_order(g, self.mul, self.identity)


@dataclass
class ConjugacyPartition:
    reps: tuple
    sizes: tuple[int, ...]
    class_map: dict
    members: tuple

    @property
    def count(self) -> int:
        return len(self.reps)


def _orbit(start, maps, limit: int) -> set:
    """The orbit of start under the maps, by depth-first walk.

    OracleError is raised once the orbit would grow past limit elements.
    """
    orbit = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for f in maps:
            y = f(x)
            if y not in orbit:
                if len(orbit) >= limit:
                    raise OracleError(f"orbit exceeded limit {limit}")
                orbit.add(y)
                frontier.append(y)
    return orbit


def conjugacy_partition(view: GroupView) -> ConjugacyPartition:
    """Orbits under conjugation by the view's generators.

    Classes are ordered identity first, then by (size, minimal member), and
    each representative is the minimal member, so the result is deterministic.
    """
    conjugators = [lambda x, a=view.left(g), b=view.right(view.inv(g)): a(b(x))
                   for g in view.generators]
    seen: set = set()
    classes = []
    for start in view.elements:
        if start not in seen:
            orbit = _orbit(start, conjugators, view.order)
            seen.update(orbit)
            classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: (cls[0] != view.identity, len(cls), cls[0]))
    class_map = {x: k for k, cls in enumerate(classes) for x in cls}
    return ConjugacyPartition(
        reps=tuple(cls[0] for cls in classes),
        sizes=tuple(len(cls) for cls in classes),
        class_map=class_map,
        members=tuple(classes),
    )


def closure(gens, right, identity, limit: int) -> tuple:
    """The group generated by gens, as a sorted tuple of elements.

    `right(g)` is the map x -> x.g, made once per generator; OracleError is
    raised past limit elements.
    """
    steps = [right(g) for g in sorted({g for g in gens if g != identity})]
    return tuple(sorted(_orbit(identity, steps, limit)))


def find_generators(candidates, right, identity, order: int) -> tuple[tuple, tuple]:
    """Greedy generators of a group of known order, and its sorted elements.

    Keeps each candidate outside the closure so far and stops once the
    closure has `order` elements; `order` is also the closure limit, so a
    candidate outside the intended group raises OracleError.
    """
    gens: list = []
    elements = (identity,)
    members = {identity}
    for x in candidates:
        if x in members:
            continue
        gens.append(x)
        elements = closure(gens, right, identity, limit=order)
        if len(elements) == order:
            break
        members = set(elements)
    return tuple(gens), elements


def subgroup_view(parent: GroupView, elements, generators=None) -> GroupView:
    """The one view of the subgroup with these elements.

    Returns parent itself when the elements are all of parent, and otherwise
    the view already registered for them, so every fact cached on a view is
    computed once per distinct subgroup; any generating set gives the same
    classes and table, so later generators are not kept.
    """
    if parent._subgroups is None:
        parent._subgroups = {parent.elements: parent}
    elements = tuple(sorted(elements))
    view = parent._subgroups.get(elements)
    if view is None:
        if generators is None:
            generators = find_generators(elements, parent.right, parent.identity,
                                         len(elements))[0]
        view = parent._subgroups[elements] = GroupView(
            elements=elements,
            generators=tuple(generators),
            identity=parent.identity,
            mul=parent.mul,
            inv=parent.inv,
            right=parent.right,
            left=parent.left,
            _subgroups=parent._subgroups,
        )
    return view


def subgroup_closure(parent: GroupView, gens) -> GroupView:
    elems = closure(list(gens), parent.right, parent.identity, limit=parent.order)
    return subgroup_view(parent, elems, generators=tuple(gens))


# ---------------------------------------------------------------------------
# matrix groups


@dataclass
class MatrixGroup(GroupView):
    kind: str = ""
    n: int = 0
    sp: SignedPrimePower = None
    F: FiniteField = None
    v0: Matrix = None


def _candidates(n: int, F: FiniteField):
    """Candidate generators of every matrix group of degree n over F.

    In order: adjacent transvections over an additive basis of F, a diagonal
    matrix with a primitive entry, every monomial matrix, then every upper
    and every lower unitriangular matrix.  The monomial and unitriangular
    matrices contain a BN-pair of each of GL, SL, GU and SU, so the stream
    filtered to any of them generates it; the transvections come first so
    that GL and SL close after a few candidates.
    """

    def identity_with(entries) -> Matrix:
        m = [list(row) for row in identity_matrix(n)]
        for (i, j), t in entries:
            m[i][j] = t
        return tuple(map(tuple, m))

    # base-p encoding: the monomial x^j is the integer p^j
    for i in range(n - 1):
        for t in (F.p**j for j in range(F.k)):
            yield identity_with([((i, i + 1), t)])
            yield identity_with([((i + 1, i), t)])
    if F.size > 2:
        yield identity_with([((0, 0), F.multiplicative_generator())])
    units = list(F.units())
    for perm in permutations(range(n)):
        for entries in product(units, repeat=n):
            yield tuple(tuple(entries[c] if perm[c] == r else 0 for c in range(n))
                        for r in range(n))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for positions in (upper, [(j, i) for i, j in upper]):
        for entries in product(range(F.size), repeat=len(positions)):
            yield identity_with(zip(positions, entries))


def build_group(kind: str, n: int, q: int) -> MatrixGroup:
    """Construct GL/SL/GU/SU of degree n over the field with q elements.

    GU/SU live inside GL_n(q^2) cut out by the antidiagonal Hermitian form.
    The generators are the members of the candidate stream kept greedily
    until the closure reaches the order formula; the element count is
    checked against it.  OracleError is raised past GROUP_SIZE_LIMIT, read
    on every call in front of the memo.
    """
    if kind not in ("GL", "SL", "GU", "SU"):
        raise OracleError(f"unknown kind {kind}")
    if n < 1:
        raise OracleError(f"n={n} must be >= 1")
    sp = spp(-1 if kind in ("GU", "SU") else 1, q)
    expected = sl_group_order(n, sp) if kind in ("SL", "SU") else group_order(n, sp)
    if expected > GROUP_SIZE_LIMIT:
        raise OracleError(f"group order {expected} exceeds limit {GROUP_SIZE_LIMIT}")
    return _build_group(kind, n, sp, expected)


@cache
def _build_group(kind: str, n: int, sp: SignedPrimePower, expected: int) -> MatrixGroup:
    """The memo behind build_group, reached only with kind and size checked."""
    unitary = sp.eps == -1
    special = kind in ("SL", "SU")
    F = build_field(sp.p, (2 if unitary else 1) * sp.m)
    v0 = form_matrix(n, F)
    mul = lambda a, b: mat_mul(a, b, F)
    right = lambda b: right_mul(b, F)

    def member(g: Matrix) -> bool:
        if unitary and mul(mul(conj_transpose(g, F, sp.q), v0), g) != v0:
            return False
        return not special or mat_det(g, F) == 1

    gens, elements = find_generators(filter(member, _candidates(n, F)), right,
                                     identity_matrix(n), expected)
    if len(elements) != expected:
        raise OracleError(
            f"built {len(elements)} elements of {kind}_{n}({sp.q}), expected {expected}"
        )
    return MatrixGroup(
        elements=elements,
        generators=gens,
        identity=identity_matrix(n),
        mul=mul,
        inv=lambda a: mat_inv(a, F),
        right=right,
        left=lambda b: left_mul(b, F),
        kind=kind,
        n=n,
        sp=sp,
        F=F,
        v0=v0,
    )


build_group.cache_clear = _build_group.cache_clear


# ---------------------------------------------------------------------------
# automorphisms


def frobenius_twist(g: Matrix, F: FiniteField) -> Matrix:
    """Entrywise p-power Frobenius."""
    frobenius = F.frobenius
    return tuple(tuple(map(frobenius, row)) for row in g)


def gamma_twist(g: Matrix, F: FiniteField) -> Matrix:
    """The twist gamma(g) = v0 . (g^T)^(-1) . v0^(-1) for v0 = form_matrix.

    v0 is antidiagonal with entries (-1)^i in row i, so with h = (g^T)^(-1)
    the twist is the signed reversal (-1)^(i+j) h[n-1-i][n-1-j].
    """
    neg = F.neg
    return tuple(
        tuple(x if (i + j) % 2 == 0 else neg(x) for j, x in enumerate(reversed(row)))
        for i, row in enumerate(reversed(mat_inv(tuple(zip(*g)), F))))


def frobenius_map(G: MatrixGroup, g: Matrix) -> Matrix:
    """frobenius_twist on G, checked to stay inside G."""
    out = frobenius_twist(g, G.F)
    if out not in G.index:
        raise OracleError("Frobenius image left the group")
    return out


def gamma_map(G: MatrixGroup, g: Matrix) -> Matrix:
    """gamma_twist on G, checked to stay inside G."""
    out = gamma_twist(g, G.F)
    if out not in G.index:
        raise OracleError("gamma image left the group")
    return out


# ---------------------------------------------------------------------------
# subgroup machinery


def normalizer(view: GroupView, sub: GroupView) -> GroupView:
    """N_view(sub) by orbit-stabilizer; sub must be a subgroup of view.

    The conjugates of sub under the generators of view are enumerated,
    keyed by their sorted elements, each conjugate T = t.sub.t^-1 with its
    transversal element t and t^-1 (t' = g.t has t'^-1 = t^-1.g^-1).  The
    normalizer has order |view| / |orbit| and is closed greedily from the
    Schreier generators t'^-1.g.t, one for each generator g and conjugate T
    whose image g.T.g^-1 = t'.sub.t'^-1 was reached before.  OracleError is
    raised unless that closure has exactly this order and every kept
    generator conjugates each generator of sub into sub.  Element
    conjugations are kept for the call; conjugates share most elements.
    """
    steps = []
    for g in view.generators:
        g_times, times_gi = view.left(g), view.right(view.inv(g))
        steps.append((g, g_times, times_gi,
                      _Images(lambda x, a=g_times, b=times_gi: a(b(x)))))
    transversal = {sub.elements: (view.identity, view.identity)}
    edges = []
    frontier = [sub.elements]
    while frontier:
        conj = frontier.pop()
        t, t_inv = transversal[conj]
        for g, g_times, times_gi, conjugate in steps:
            image = tuple(sorted(map(conjugate.__getitem__, conj)))
            if image not in transversal:
                transversal[image] = (g_times(t), times_gi(t_inv))
                frontier.append(image)
            else:
                edges.append((image, g, t))
    if len(transversal) == 1:
        return view
    order, rem = divmod(view.order, len(transversal))
    if rem:
        raise OracleError(f"orbit of {len(transversal)} conjugates does not "
                          f"divide |G| = {view.order}")
    mul, inv = view.mul, view.inv
    schreier = (mul(transversal[image][1], mul(g, t)) for image, g, t in edges)
    kept, elements = find_generators(schreier, view.right, view.identity, order)
    sub_set = set(sub.elements)
    if len(elements) != order:
        raise OracleError(f"Schreier closure has {len(elements)} elements, "
                          f"expected |G| / |orbit| = {order}")
    if not all(mul(mul(n, s), n_inv) in sub_set
               for n, n_inv in zip(kept, map(inv, kept))
               for s in sub.generators):
        raise OracleError("a Schreier generator does not normalize the subgroup")
    return subgroup_view(view, elements, kept)


def sylow_subgroup(view: GroupView, ell: int) -> GroupView:
    """Deterministic Sylow ell-subgroup by normalizer climbing.

    Each step adds to P the first ell-element y of N(P) outside P.  As y
    normalizes P, P<y> = P.<y> is an ell-group, so the climb ends at order
    |view|_ell; OracleError is raised if a step gives anything else.
    """
    target, _ = ell_part(view.order, ell)
    current = subgroup_view(view, [view.identity], generators=())
    while current.order < target:
        members = set(current.elements)
        y = next(y for y in normalizer(view, current).elements
                 if y not in members and ell_part(view.element_order(y), ell)[1] == 1)
        current = subgroup_closure(view, current.generators + (y,))
        if ell_part(current.order, ell)[1] != 1:
            raise OracleError(f"a Sylow step gave order {current.order}, "
                              f"not a power of {ell}")
    return current
