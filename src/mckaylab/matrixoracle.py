"""Brute-force matrix groups over small finite fields.

Builds GL/SL over GF(q) and GU/SU inside GL_n(q^2) by closure from explicit
generators, with conjugacy classes, centralizer orders, Sylow subgroups,
normalizers, and the two standard outer maps (entrywise p-power Frobenius and
the inverse-transpose twist gamma).  Elements are tuples of row tuples of
field-encoded ints, so they hash and sort deterministically.
"""

from __future__ import annotations

import math
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
    0 when that block is singular.
    """
    rank, det = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = F.neg(det)
        det = F.mul(det, rows[rank][col])
        inv_p = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv_p, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank, det


def mat_inv(a: Matrix, F: FiniteField) -> Matrix:
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
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

    def exponent(self) -> int:
        out = 1
        for rep in self.conjugacy_classes().reps:
            out = math.lcm(out, self.element_order(rep))
        return out


@dataclass
class ConjugacyPartition:
    reps: tuple
    sizes: tuple[int, ...]
    class_map: dict
    members: tuple

    @property
    def count(self) -> int:
        return len(self.reps)


def conjugacy_partition(view: GroupView) -> ConjugacyPartition:
    """Orbit BFS under conjugation by the view's generators.

    Classes are ordered identity first, then by (size, minimal member), and
    each representative is the minimal member, so the result is deterministic.
    """
    gens = view.generators or view.elements
    conjugators = [(view.left(g), view.right(view.inv(g))) for g in gens]
    assigned: dict = {}
    raw_classes = []
    for start in view.elements:
        if start in assigned:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g_times, times_gi in conjugators:
                y = g_times(times_gi(x))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        idx = len(raw_classes)
        for x in orbit:
            assigned[x] = idx
        raw_classes.append(tuple(sorted(orbit)))
    order = sorted(
        range(len(raw_classes)),
        key=lambda i: (
            raw_classes[i][0] != view.identity,
            len(raw_classes[i]),
            raw_classes[i][0],
        ),
    )
    classes = [raw_classes[i] for i in order]
    class_map = {x: k for k, cls in enumerate(classes) for x in cls}
    return ConjugacyPartition(
        reps=tuple(cls[0] for cls in classes),
        sizes=tuple(len(cls) for cls in classes),
        class_map=class_map,
        members=tuple(classes),
    )


def closure(gens, right, identity, limit: int = GROUP_SIZE_LIMIT) -> tuple:
    """BFS closure of a generator list; sorted tuple of elements.

    `right(g)` is the map x -> x.g, made once per generator.
    """
    elements = {identity}
    frontier = [identity]
    steps = [right(g) for g in sorted({g for g in gens if g != identity})]
    while frontier:
        x = frontier.pop()
        for times_g in steps:
            y = times_g(x)
            if y not in elements:
                if len(elements) >= limit:
                    raise OracleError(f"closure exceeded limit {limit}")
                elements.add(y)
                frontier.append(y)
    return tuple(sorted(elements))


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


@cache
def build_group(kind: str, n: int, q: int, limit: int = GROUP_SIZE_LIMIT) -> MatrixGroup:
    """Construct GL/SL/GU/SU of degree n over the field with q elements.

    GU/SU live inside GL_n(q^2) cut out by the antidiagonal Hermitian form.
    The generators are the members of the candidate stream kept greedily
    until the closure reaches the order formula; the element count is
    checked against it.
    """
    if kind not in ("GL", "SL", "GU", "SU"):
        raise OracleError(f"unknown kind {kind}")
    if n < 1:
        raise OracleError(f"n={n} must be >= 1")
    unitary = kind in ("GU", "SU")
    special = kind in ("SL", "SU")
    sp = spp(-1 if unitary else 1, q)
    expected = sl_group_order(n, sp) if special else group_order(n, sp)
    if expected > limit:
        raise OracleError(f"group order {expected} exceeds limit {limit}")

    F = build_field(sp.p, (2 if unitary else 1) * sp.m)
    v0 = form_matrix(n, F)
    mul = lambda a, b: mat_mul(a, b, F)
    right = lambda b: right_mul(b, F)
    inverses: dict = {}

    def inv(a: Matrix) -> Matrix:
        out = inverses.get(a)
        if out is None:
            out = inverses[a] = mat_inv(a, F)
            inverses[out] = a
        return out

    def member(g: Matrix) -> bool:
        if unitary and mul(mul(conj_transpose(g, F, q), v0), g) != v0:
            return False
        return not special or mat_det(g, F) == 1

    gens, elements = find_generators(filter(member, _candidates(n, F)), right,
                                     identity_matrix(n), expected)
    if len(elements) != expected:
        raise OracleError(
            f"built {len(elements)} elements of {kind}_{n}({q}), expected {expected}"
        )
    return MatrixGroup(
        elements=elements,
        generators=gens,
        identity=identity_matrix(n),
        mul=mul,
        inv=inv,
        right=right,
        left=lambda b: left_mul(b, F),
        kind=kind,
        n=n,
        sp=sp,
        F=F,
        v0=v0,
    )


# ---------------------------------------------------------------------------
# automorphisms


def frobenius_twist(g: Matrix, F: FiniteField) -> Matrix:
    """Entrywise p-power Frobenius."""
    return tuple(tuple(F.frobenius(x) for x in row) for row in g)


def gamma_twist(g: Matrix, F: FiniteField, v0: Matrix) -> Matrix:
    """The twist gamma(g) = v0 . (g^T)^(-1) . v0^(-1)."""
    gt = tuple(zip(*g))
    return mat_mul(mat_mul(v0, mat_inv(gt, F), F), _form_inverse(v0, F), F)


@cache
def _form_inverse(v0: Matrix, F: FiniteField) -> Matrix:
    return mat_inv(v0, F)


def frobenius_map(G: MatrixGroup, g: Matrix) -> Matrix:
    """frobenius_twist on G, checked to stay inside G."""
    out = frobenius_twist(g, G.F)
    if out not in G.index:
        raise OracleError("Frobenius image left the group")
    return out


def gamma_map(G: MatrixGroup, g: Matrix) -> Matrix:
    """gamma_twist on G with its form v0, checked to stay inside G."""
    out = gamma_twist(g, G.F, G.v0)
    if out not in G.index:
        raise OracleError("gamma image left the group")
    return out


# ---------------------------------------------------------------------------
# subgroup machinery


def normalizer(view: GroupView, sub: GroupView) -> GroupView:
    """N_view(sub) by orbit-stabilizer; sub must be a subgroup of view.

    The conjugates of sub under the generators of view are enumerated,
    keyed by their sorted elements, each conjugate T = t.sub.t^-1 with its
    transversal element t.  The normalizer has order |view| / |orbit| and
    is closed greedily from the Schreier generators t'^-1.g.t, one for each
    generator g and conjugate T whose image g.T.g^-1 = t'.sub.t'^-1 was
    reached before.  OracleError is raised unless that closure has exactly
    this order and every kept generator conjugates each generator of sub
    into sub.  The element conjugations are kept for the call, since
    conjugates share most of their elements.
    """
    gens = view.generators or view.elements
    steps = []
    for g in gens:
        g_times, times_gi = view.left(g), view.right(view.inv(g))
        steps.append((g, g_times, _Images(lambda x, a=g_times, b=times_gi: a(b(x)))))
    transversal = {sub.elements: view.identity}
    edges = []
    frontier = [sub.elements]
    while frontier:
        conj = frontier.pop()
        t = transversal[conj]
        for g, g_times, conjugate in steps:
            image = tuple(sorted(map(conjugate.__getitem__, conj)))
            if image not in transversal:
                transversal[image] = g_times(t)
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
    schreier = (mul(inv(transversal[image]), mul(g, t)) for image, g, t in edges)
    kept, elements = find_generators(schreier, view.right, view.identity, order)
    sub_set = set(sub.elements)
    if len(elements) != order:
        raise OracleError(f"Schreier closure has {len(elements)} elements, "
                          f"expected |G| / |orbit| = {order}")
    if not all(mul(mul(n, s), inv(n)) in sub_set
               for n in kept for s in sub.generators or sub.elements):
        raise OracleError("a Schreier generator does not normalize the subgroup")
    return subgroup_view(view, elements, kept)


def sylow_subgroup(view: GroupView, ell: int) -> GroupView:
    """Deterministic Sylow ell-subgroup by normalizer climbing."""
    target, _ = ell_part(view.order, ell)
    if target == 1:
        return subgroup_view(view, [view.identity], generators=())
    current = subgroup_view(view, [view.identity], generators=())
    while current.order < target:
        norm = normalizer(view, current)
        grown = False
        cur_set = set(current.elements)
        for y in norm.elements:
            if y in cur_set:
                continue
            o = view.element_order(y)
            if ell_part(o, ell)[1] != 1:
                continue
            try:
                cand = closure(
                    tuple(current.generators) + (y,), view.right, view.identity, limit=target
                )
            except OracleError:
                continue
            if ell_part(len(cand), ell)[0] == len(cand):
                current = subgroup_view(view, cand, tuple(current.generators) + (y,))
                grown = True
                break
        if not grown:
            raise OracleError("Sylow climbing stalled")  # pragma: no cover
    return current
