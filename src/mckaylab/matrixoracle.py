"""Brute-force matrix groups over small finite fields.

Builds GL/SL over GF(q) and GU/SU inside GL_n(q^2) by closure from explicit
generators, with conjugacy classes, centralizer orders, Sylow subgroups,
normalizers, and the two standard outer maps (entrywise p-power Frobenius and
the inverse-transpose twist gamma).  Elements are tuples of row tuples of
field-encoded ints, so they hash and sort deterministically.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property
from itertools import islice, permutations, product
from typing import NamedTuple

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
    """Rank of a matrix of any shape, pivoting over all of its columns."""
    return _gauss_jordan([list(row) for row in a], len(a[0]) if a else 0, F)[0]


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


class GroupView:
    """A finite group given by an explicit element list and multiplication.

    `right(b)` returns the map a -> a.b for one fixed factor b; a loop that
    reuses one factor makes its map once.  Used for groups and subgroups;
    `perms`, the generators' right-regular permutations, come from the walk
    that built the view, and conjugacy data, the character table, the
    generators' inverses and the tree of words with the position maps read
    off it are made lazily and kept.  Elements are sorted, so positions order them.
    `_subgroups` maps sorted element tuples to views; a view and every
    subgroup view made from it share one such registry.  A view equals only
    itself and hashes by identity: each subgroup has one registered view,
    and no caller compares two views by value.
    """

    def __init__(self, elements: tuple, generators: tuple, identity, mul, inv,
                 right, perms: tuple, _subgroups: dict | None = None) -> None:
        self.elements, self.generators, self.identity = elements, generators, identity
        self.mul, self.inv, self.right, self.perms = mul, inv, right, perms
        self._index = self._classes = self._table = None
        self._subgroups = _subgroups

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

    @cached_property
    def inverses(self) -> tuple:
        """The inverse of each generator, computed once per view."""
        return tuple(map(self.inv, self.generators))

    @cached_property
    def regular(self) -> dict:
        """The _orbit tree from the identity of the generators' right-regular
        permutations self.perms, a tree of words.  OracleError is raised
        unless the tree reaches every element, so the generators generate."""
        tree = _orbit(self.index[self.identity],
                      [perm.__getitem__ for perm in self.perms], self.order)
        if len(tree) != self.order:
            raise OracleError(f"generators reach {len(tree)} of {self.order}")
        return tree

    @cached_property
    def generator_maps(self) -> tuple:
        """Per generator g, the position maps (left, right_inv, conj) of
        x -> g.x, x -> x.g^-1 and x -> g.x.g^-1, read off the regular
        representation with no matrix product: along each tree edge
        x = y.g_k, g.x = (g.y).g_k, and right_inv inverts g's permutation."""
        perms, tree = self.perms, self.regular
        maps = []
        for perm in perms:
            left = [perm[self.index[self.identity]]] * self.order   # the root is g
            for x, (y, k) in islice(tree.items(), 1, None):   # parents first
                left[x] = perms[k][left[y]]
            # the inverse of perm, holding the index's own position ints
            right_inv = sorted(self.index.values(), key=perm.__getitem__)
            maps.append((tuple(left), tuple(right_inv),
                         tuple(map(right_inv.__getitem__, left))))
        return tuple(maps)

    def right_perms(self, targets):
        """Yield (g, perm) for each target g, perm[i] the position of elements[i].g.

        Each perm is composed from the regular representation along its
        tree by a depth-first walk over the targets' paths.
        """
        index = self.index
        perms, tree = self.perms, self.regular
        root = index[self.identity]
        wanted = {index[g]: g for g in targets}
        children: dict = {}   # the targets' paths, as parent -> children
        for x in wanted:
            while x != root and x not in children.setdefault(tree[x][0], set()):
                children[tree[x][0]].add(x)
                x = tree[x][0]
        stack = [(root, None)]   # each node with its parent's permutation
        while stack:
            x, above = stack.pop()
            perm = (list(range(self.order)) if above is None
                    else list(map(perms[tree[x][1]].__getitem__, above)))
            if x in wanted:
                yield wanted[x], perm
            stack.extend((y, perm) for y in children.get(x, ()))


class ConjugacyPartition(NamedTuple):
    reps: tuple
    sizes: tuple[int, ...]
    class_of: tuple   # the class of each element position

    @property
    def count(self) -> int:
        return len(self.reps)


def _orbit(start, maps, limit: int) -> dict:
    """The breadth-first tree of the orbit of start under the maps.

    Maps each point reached, in the order reached, to (parent, k) with
    maps[k](parent) the point; start maps to (start, None).  OracleError is
    raised once the orbit has grown past limit points, checked after each
    point's images.
    """
    tree = {start: (start, None)}
    frontier = [start]
    steps = list(enumerate(maps))
    for x in frontier:
        for k, f in steps:
            y = f(x)
            if y not in tree:
                tree[y] = (x, k)
                frontier.append(y)
        if len(frontier) > limit:
            raise OracleError(f"orbit exceeded limit {limit}")
    return tree


def conjugacy_partition(view: GroupView) -> ConjugacyPartition:
    """Orbits under conjugation by the view's generators, walked on element
    positions with the view's conjugation maps.

    Classes are ordered identity first, then by (size, minimal member), and
    each representative is the minimal member, so the result is deterministic.
    """
    conjugators = [conj.__getitem__ for _, _, conj in view.generator_maps]
    seen: set = set()
    classes = []
    for start in range(view.order):
        if start not in seen:
            orbit = _orbit(start, conjugators, view.order)
            seen.update(orbit)
            classes.append(sorted(orbit))
    classes.sort(key=lambda cls: (view.elements[cls[0]] != view.identity, len(cls), cls[0]))
    owner = {x: k for k, cls in enumerate(classes) for x in cls}
    class_of = tuple(map(owner.__getitem__, range(view.order)))
    return ConjugacyPartition(
        reps=tuple(view.elements[cls[0]] for cls in classes),
        sizes=tuple(map(len, classes)),
        class_of=class_of,
    )


def closure(gens, right, identity, limit: int) -> tuple[tuple, tuple, tuple]:
    """(kept, elements, perms): the group generated by the stream gens.

    One walk from the identity (Dimino's algorithm without cosets) keeps each
    generator g outside the points reached so far and closes them at once:
    old points get their image under x -> x.g = right(g)(x), new points
    their images under every kept generator, so each product is made once.
    It stops at limit points and raises OracleError past limit, checked after
    each point.  elements are sorted; perms[k][i] is the position of
    elements[i].kept[k].
    """
    points, ids = [identity], {identity: 0}
    kept, walks = [], []   # per kept generator, (its map, the image ids)
    for g in gens:
        if g in ids:
            continue
        kept.append(g)
        walks.append((right(g), []))
        reached = len(points)
        for x, point in enumerate(points):   # points grows as the walk goes
            for step, images in (walks[-1:] if x < reached else walks):
                y = step(point)
                i = ids.get(y)
                if i is None:
                    i = ids[y] = len(points)
                    points.append(y)
                images.append(i)
            if len(points) > limit:
                raise OracleError(f"closure exceeded limit {limit}")
        if len(points) == limit:
            break
    ids_sorted = sorted(range(len(points)), key=points.__getitem__)
    position = sorted(range(len(points)), key=ids_sorted.__getitem__)   # the inverse
    perms = tuple(tuple(map(position.__getitem__, map(images.__getitem__, ids_sorted)))
                  for _, images in walks)
    return tuple(kept), tuple(map(points.__getitem__, ids_sorted)), perms


def find_generators(candidates, right, identity, order: int) -> tuple:
    """The closure of the candidate stream with order as its limit, the
    greedy generators of a group of known order; OracleError is raised
    unless it reaches exactly order elements."""
    kept, elements, perms = closure(candidates, right, identity, order)
    if len(elements) != order:
        raise OracleError(f"generators reach {len(elements)} of {order} elements")
    return kept, elements, perms


def subgroup_view(parent: GroupView, generators, elements, perms) -> GroupView:
    """The one view of the subgroup with these sorted elements.

    Returns parent itself when the elements are all of parent, and otherwise
    the view already registered for them, so every fact cached on a view is
    computed once per distinct subgroup; any generating set gives the same
    classes and table, so later generators are not kept.
    """
    if parent._subgroups is None:
        parent._subgroups = {parent.elements: parent}
    view = parent._subgroups.get(elements)
    if view is None:
        view = parent._subgroups[elements] = GroupView(
            elements=elements, generators=generators, identity=parent.identity,
            mul=parent.mul, inv=parent.inv, right=parent.right, perms=perms,
            _subgroups=parent._subgroups)
    return view


def subgroup_closure(parent: GroupView, gens) -> GroupView:
    """The view of the subgroup of parent generated by the stream gens."""
    return subgroup_view(parent, *closure(gens, parent.right, parent.identity,
                                          parent.order))


# ---------------------------------------------------------------------------
# matrix groups


class MatrixGroup(GroupView):
    """The view of the group kind (GL, SL, GU or SU) of degree n at sp, with
    its entries in F and v0 the form of the unitary kinds."""

    def __init__(self, kind: str, n: int, sp: SignedPrimePower, F: FiniteField,
                 v0: Matrix, **view) -> None:
        super().__init__(**view)
        self.kind, self.n, self.sp, self.F, self.v0 = kind, n, sp, F, v0


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
    check_order_limit(expected)
    return _build_group(kind, n, sp, expected)


def check_order_limit(order: int) -> None:
    """Raise OracleError for a group order past GROUP_SIZE_LIMIT."""
    if order > GROUP_SIZE_LIMIT:
        raise OracleError(f"group order {order} exceeds limit {GROUP_SIZE_LIMIT}")


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

    gens, elements, perms = find_generators(filter(member, _candidates(n, F)), right,
                                            identity_matrix(n), expected)
    return MatrixGroup(
        elements=elements,
        generators=gens,
        identity=identity_matrix(n),
        mul=mul,
        inv=lambda a: mat_inv(a, F),
        right=right,
        perms=perms,
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


def signed_reversal(h: Matrix, F: FiniteField) -> Matrix:
    """v0 . h . v0^(-1) = (-1)^(i+j) h[n-1-i][n-1-j] for the antidiagonal
    v0 = form_matrix, with entries (-1)^i in row i."""
    neg = F.neg
    return tuple(
        tuple(x if (i + j) % 2 == 0 else neg(x) for j, x in enumerate(reversed(row)))
        for i, row in enumerate(reversed(h)))


def gamma_twist(g: Matrix, F: FiniteField) -> Matrix:
    """gamma(g) = v0 . (g^T)^(-1) . v0^(-1), the signed reversal of (g^T)^(-1)."""
    return signed_reversal(mat_inv(tuple(zip(*g)), F), F)


def frobenius_map(G: MatrixGroup, g: Matrix) -> Matrix:
    """frobenius_twist on G, checked to stay inside G."""
    out = frobenius_twist(g, G.F)
    if out not in G.index:
        raise OracleError("Frobenius image left the group")
    return out


# ---------------------------------------------------------------------------
# subgroup machinery


def normalizer(view: GroupView, sub: GroupView) -> GroupView:
    """N_view(sub) by orbit-stabilizer; sub must be a subgroup of view.

    The conjugates of sub under the generators of view are the _orbit of
    its sorted element positions under the view's conjugation maps.  Along
    the tree each conjugate T = t.sub.t^-1 reached from T0 by g gets the
    positions of t = g.t0 and t^-1 = t0^-1.g^-1, read from g's position
    maps.  The normalizer has order |view| / |orbit| and is closed greedily
    from the Schreier generators t'^-1.g.t, one matrix product each, for
    each generator g and conjugate T whose image g.T.g^-1 = t'.sub.t'^-1 is
    not a tree edge, made as they are needed.
    OracleError is raised if sub leaves view, and unless that closure has
    exactly this order and is generated by elements that conjugate each
    generator of sub into sub.
    """
    try:
        start = tuple(sorted(map(view.index.__getitem__, sub.elements)))
    except KeyError:
        raise OracleError("the subgroup has an element outside the group") from None
    maps = view.generator_maps
    conjugates = [lambda conj, f=conj.__getitem__: tuple(sorted(map(f, conj)))
                  for _, _, conj in maps]
    tree = _orbit(start, conjugates, view.order)
    if len(tree) == 1:
        return view
    order, rem = divmod(view.order, len(tree))
    if rem:
        raise OracleError(f"orbit of {len(tree)} conjugates does not "
                          f"divide |G| = {view.order}")
    root = view.index[view.identity]
    transversal = {start: (root, root)}   # conjugate -> positions of (t, t^-1)
    for conj, (parent, k) in islice(tree.items(), 1, None):
        left, right_inv, _ = maps[k]
        t, t_inv = transversal[parent]
        transversal[conj] = (left[t], right_inv[t_inv])
    at, mul = view.elements.__getitem__, view.mul

    def schreier():
        for conj, (t, _) in transversal.items():
            for k, (conjugate, (left, _, _)) in enumerate(zip(conjugates, maps)):
                image = conjugate(conj)
                if tree[image] != (conj, k):
                    yield mul(at(transversal[image][1]), at(left[t]))

    found = subgroup_view(view, *find_generators(schreier(), view.right,
                                                 view.identity, order))
    sub_set = set(sub.elements)
    if not all(mul(mul(n, s), n_inv) in sub_set
               for n, n_inv in zip(found.generators, found.inverses)
               for s in sub.generators):
        raise OracleError("a Schreier generator does not normalize the subgroup")
    return found


def sylow_subgroup(view: GroupView, ell: int) -> GroupView:
    """Deterministic Sylow ell-subgroup by normalizer climbing.

    Each step adds to P the first ell-element y of N(P) outside P.  As y
    normalizes P, P<y> = P.<y> is an ell-group, so the climb ends at order
    |view|_ell; OracleError is raised if a step gives anything else.
    """
    target, _ = ell_part(view.order, ell)
    current = subgroup_closure(view, ())
    while current.order < target:
        members = set(current.elements)
        y = next(y for y in normalizer(view, current).elements
                 if y not in members and ell_part(view.element_order(y), ell)[1] == 1)
        current = subgroup_closure(view, current.generators + (y,))
        if ell_part(current.order, ell)[1] != 1:
            raise OracleError(f"a Sylow step gave order {current.order}, "
                              f"not a power of {ell}")
    return current
