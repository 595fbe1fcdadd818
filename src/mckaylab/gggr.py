"""Generalized Gelfand-Graev constructions attached to unipotent classes.

For a partition lam of n, the associated cocharacter weights the standard
basis with the multiset h(lam) = union over parts s of {s-1, s-3, ..., 1-s}.
Sorting the basis by weight grades the matrix positions by level
h_i - h_j; the subgroup U_2 collects the levels >= 2, and a distinguished
representative u with Jordan type lam lives on the exact level-2 positions.
The linear character psi_u of U_2^F induces the generalized Gelfand-Graev
character after dividing by q^(e_1/2), where e_1 counts level-1 positions.

Everything here is exact: characters take values in Z[zeta], multiplicities
come out of integer divisions that assert their own exactness.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import mul

from .exactfield import CertificateError, build_field, sl_group_order, spp
from .partitions import partitions
from .ssclasses import enumerate_ss_classes
from . import dixon
from .bijection import oracle_table
from .matrixoracle import (
    OracleError,
    _gauss_jordan,
    _orbit,
    _row_kernel,
    check_order_limit,
    frobenius_twist,
    gamma_twist,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_rank,
    signed_reversal,
    subgroup_closure,
    unitriangular_inv,
)

HOM_EXHAUSTIVE_LIMIT = 1000
U2_SIZE_LIMIT = 10**5


# ---------------------------------------------------------------------------
# combinatorics of the weighting


def weight_multiset(lam: tuple) -> tuple:
    """All basis weights, ascending, with ties ordered by Jordan block."""
    return tuple(sorted(((h, block) for block, size in enumerate(lam)
                         for h in range(1 - size, size, 2)), key=lambda t: t[0]))


def weight_counts(lam: tuple) -> list:
    """Multiplicity of each basis weight h, at index h + n - 1.

    The weights of a partition of n lie in 1-n .. n-1, so the list has
    2n - 1 entries and weight 0 sits in the middle.
    """
    n = sum(lam)
    counts = [0] * (2 * n - 1)
    for size in lam:
        for i in range(n - size, n + size - 1, 2):
            counts[i] += 1
    return counts


def level_count(counts: list, level: int) -> int:
    """Number of matrix positions of the given weight level."""
    return sum(map(mul, counts, counts[level:]))


def e1_count(lam: tuple) -> int:
    return level_count(weight_counts(lam), 1)


def parity_ok(counts: list) -> bool:
    return level_count(counts, 1) % 2 == 0


def symmetry_ok(counts: list) -> bool:
    return counts == counts[::-1]


def sweep_parity_symmetry(nmax: int) -> int:
    """Check both properties for every partition of every n <= nmax.

    Walks each largest part t's partitions on a stack, adding or removing one
    part's strip of weight_counts(lam) less its n-t end zeros (which change
    neither property).  Returns the number checked; raises on any failure.
    """
    checked = 0
    for t in range(1, nmax + 1):
        counts, parts, s = [0] * (2 * t - 1), [], t
        while s:
            for i in range(t - s, t + s - 1, 2):
                counts[i] += 1
            parts.append(s)
            if not parity_ok(counts):
                raise CertificateError(f"odd e_1 at {tuple(parts)}")
            if not symmetry_ok(counts):
                raise CertificateError(f"asymmetric weights at {tuple(parts)}")
            checked += 1
            s = min(s, nmax - sum(parts))
            while not s and len(parts) > 1:   # lower the last part above 1
                s = parts.pop()
                for i in range(t - s, t + s - 1, 2):
                    counts[i] -= 1
                s -= 1
    return checked


def _positions(lam: tuple, at_least: int, exact: bool = False) -> tuple:
    h = [w for w, _ in weight_multiset(lam)]
    return tuple((i, j) for i, hi in enumerate(h) for j, hj in enumerate(h)
                 if (hi - hj == at_least if exact else hi - hj >= at_least))


def u2_positions(lam: tuple) -> tuple:
    return _positions(lam, 2)


def exact2_positions(lam: tuple) -> tuple:
    return _positions(lam, 2, exact=True)


# ---------------------------------------------------------------------------
# the distinguished representative and its character


def rep_unipotent(lam: tuple) -> tuple:
    """I plus the chain edges of each Jordan block, entries 0/1.

    The edge for weight h inside a block points from the basis vector of
    weight h to the one of weight h+2, so every nonzero off-diagonal entry
    sits at an exact level-2 position.
    """
    index = {hb: i for i, hb in enumerate(weight_multiset(lam))}
    n = len(index)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for block, size in enumerate(lam):
        for h in range(1 - size, size - 2, 2):
            m[index[(h + 2, block)]][index[(h, block)]] = 1
    return tuple(tuple(row) for row in m)


def jordan_type(u, F) -> tuple:
    """Partition of Jordan block sizes of the unipotent matrix u."""
    n = len(u)
    nil = tuple(tuple(F.sub(u[i][j], int(i == j)) for j in range(n))
                for i in range(n))
    ranks = [n]
    powm = identity_matrix(n)
    while ranks[-1] > 0:
        powm = mat_mul(powm, nil, F)
        ranks.append(mat_rank(powm, F))
    # ge[k - 1] = rank(N^(k-1)) - rank(N^k) counts the blocks of size >= k
    ge = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return tuple(size for size in range(len(ranks) - 1, 0, -1)
                 for _ in range(ge[size - 1] - ge[size]))


def field_trace(F, x: int) -> int:
    """Absolute trace to the prime field, returned as an integer mod p."""
    acc, y = 0, x
    for _ in range(F.k):
        acc = F.add(acc, y)
        y = F.frobenius(y)
    if acc >= F.p:
        raise CertificateError("trace left the prime subfield")
    return acc


@cache
def _traces(F) -> tuple:
    """field_trace of every element of F, indexed by the element."""
    return tuple(field_trace(F, x) for x in range(F.size))


def psi_exponent(F, exact2: tuple, u_mat, g) -> int:
    """Exponent of the additive character at g, for the representative u_mat."""
    traces, mul = _traces(F), F.mul
    return -sum(traces[mul(g[i][j], u_mat[i][j])] for i, j in exact2
                if u_mat[i][j]) % F.p


def _free_columns(lam: tuple) -> list:
    """The columns of each row's level >= 2 positions, ascending."""
    pos = u2_positions(lam)
    return [[j for a, j in pos if a == i] for i in range(sum(lam))]


def _row_images(h, i: int, cols: list, F) -> tuple:
    """h_i + sum x_c h_c = (e_i + sum x_c e_c).h for x over GF(q)^cols in
    product order: R_i for h = I, its images for any h.  Each column of the
    result grows by one scaled entry of h per free column c of row i."""
    add_table, mul_table, field = F.add_table, F.mul_table, range(F.size)
    out = []
    for j, first in enumerate(h[i]):
        col = [first]
        for c in cols:
            if not (y := h[c][j]):
                col = [v for v in col for _ in field]
            elif add_table is None:   # past the table limit
                col = [F.add(v, F.mul(x, y)) for v in col for x in field]
            else:
                col = [a[m] for a in map(add_table.__getitem__, col)
                       for m in mul_table[y]]
        out.append(col)
    return tuple(zip(*out))


def u2_rows(lam: tuple, F) -> tuple:
    """The rows of U_2 at each row position, in the lexicographic order of
    their entries at u2_positions(lam).  U_2, every I + X with X supported
    on the level >= 2 positions, is their product, and a group: products
    only spill into higher levels."""
    free = _free_columns(lam)
    if F.size ** sum(map(len, free)) > U2_SIZE_LIMIT:
        raise OracleError("U_2 too large to enumerate")
    one = identity_matrix(len(free))
    return tuple(_row_images(one, i, cols, F) for i, cols in enumerate(free))


def u2_elements(lam: tuple, F) -> tuple:
    """Every element of U_2 in the lexicographic order of its entries at
    u2_positions(lam); elements with an equal row share that row's tuple."""
    return tuple(product(*u2_rows(lam, F)))


def u2_generators(lam: tuple, F) -> tuple:
    """I + p^t E_ij for every level >= 2 position (i, j) and t < k.

    The p^t encode the powers of the field generator, a basis of GF(q) over
    GF(p), so these elements generate U_2.
    """
    n = sum(lam)
    return tuple(tuple(tuple(F.p**t if (a, b) == (i, j) else int(a == b)
                             for b in range(n)) for a in range(n))
                 for i, j in u2_positions(lam) for t in range(F.k))


# ---------------------------------------------------------------------------
# certificates


def check_representative(lam: tuple, q: int) -> bool:
    """The chain representative really has Jordan type lam."""
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    return jordan_type(rep_unipotent(lam), F) == tuple(sorted(lam, reverse=True))


def _row_exponents(row_sets: tuple, exact2: tuple, v, F) -> list:
    """e_i(r) for each row r of each R_i; psi_v(g) sums e_i over g's rows."""
    p, traces, mul = F.p, _traces(F), F.mul
    return [[-sum(traces[mul(row[j], v[i][j])]
                  for a, j in exact2 if a == i and v[i][j]) % p for row in rows]
            for i, rows in enumerate(row_sets)]


def check_homomorphism(lam: tuple, q: int) -> int:
    """psi_u is multiplicative on U_2^F; returns |U_2| times the number of
    partners h.

    U_2 is the product of its row sets R_i, psi_u the sum of row exponents
    e_i (checked against psi_exponent on every element), and row i of g.h
    is row_i(g).h, which _row_images gives for all of R_i.  So g.h lies in
    U_2 with psi(g.h) = psi(g) + psi(h) for every g exactly when h maps
    each R_i into R_i with e_i(r.h) - e_i(r) one constant c_i, and the c_i
    sum to psi(h): a sum over a product set is constant only when each
    summand is.  The partners are all of U_2 up to HOM_EXHAUSTIVE_LIMIT
    elements, else the one-position generators of u2_generators, whose
    _orbit from the identity, on tuples of row ids, must be all of U_2.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    row_sets, free = u2_rows(lam, F), _free_columns(lam)
    els = tuple(product(*row_sets))
    u, exact2, p = rep_unipotent(lam), exact2_positions(lam), F.p
    row_exps = _row_exponents(row_sets, exact2, u, F)
    if ([psi_exponent(F, exact2, u, g) for g in els]
            != [sum(es) % p for es in product(*row_exps)]):
        raise CertificateError(f"psi_u is not the sum of its rows at {lam}, q={q}")
    row_ids = [{row: k for k, row in enumerate(rows)} for rows in row_sets]
    walk, maps = len(els) > HOM_EXHAUSTIVE_LIMIT, []
    partners = u2_generators(lam, F) if walk else els
    for h in partners:
        ids = list(map(dict.get, row_ids, h))
        if None in ids:
            raise CertificateError(f"a partner lies outside U_2 at {lam}, q={q}")
        images = []
        excess = sum(map(list.__getitem__, row_exps, ids))   # psi(h) - sum c_i
        for i, (index, es) in enumerate(zip(row_ids, row_exps)):
            image = list(map(index.get, _row_images(h, i, free[i], F)))
            if None in image:
                raise CertificateError(f"a product leaves U_2 at {lam}, q={q}")
            shifts = {(es[t] - e) % p for t, e in zip(image, es)}
            if len(shifts) > 1:
                break
            excess -= shifts.pop()
            if walk:
                images.append(image)
        if len(shifts) > 1 or excess % p:
            raise CertificateError(f"psi_u not multiplicative at {lam}, q={q}")
        if walk:
            maps.append(lambda g, images=images: tuple(map(list.__getitem__, images, g)))
    # elements as tuples of row ids; the identity's rows come first
    if walk and len(_orbit((0,) * len(row_sets), maps, len(els))) != len(els):
        raise CertificateError(f"the partners do not generate U_2 at {lam}, q={q}")
    return len(els) * len(partners)


def check_equivariance(lam: tuple, q: int) -> int:
    """psi_u(g) = psi_{sigma(u)}(sigma(g)) for the field and graph twists.

    Each twisted element must lie in U_2 again, read as row ids (Frobenius
    twists each R_i once), and psi sums _row_exponents.  One unitriangular
    inversion serves each pair g, g^-1: with h = (g^T)^-1 = (g^-1)^T, gamma(g)
    is the signed reversal of h and gamma(g^-1) that of g^T.  Returns 2 |U_2|.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    row_sets = u2_rows(lam, F)
    row_ids = [{row: k for k, row in enumerate(rows)} for rows in row_sets]
    u, exact2, p = rep_unipotent(lam), exact2_positions(lam), F.p
    els = tuple(product(*row_sets))
    gammas, ids_of = {}, lambda m: tuple(map(dict.get, row_ids, m))
    for g in els:
        if g not in gammas:
            gt = tuple(zip(*g))
            h = unitriangular_inv(gt, F)
            gammas[g] = ids_of(signed_reversal(h, F))
            if (g_inv := tuple(zip(*h))) != g:
                gammas[g_inv] = ids_of(signed_reversal(gt, F))
    exps = [sum(es) % p for es in product(*_row_exponents(row_sets, exact2, u, F))]
    frob = product(*(map(index.get, frobenius_twist(rows, F))
                     for rows, index in zip(row_sets, row_ids)))
    for tu, twisted in ((frobenius_twist(u, F), frob),
                        (gamma_twist(u, F), map(gammas.__getitem__, els))):
        twisted_exps = _row_exponents(row_sets, exact2, tu, F)
        for e, ids in zip(exps, twisted):
            if None in ids:
                raise CertificateError(f"a twist leaves U_2 at {lam}, q={q}")
            if sum(map(list.__getitem__, twisted_exps, ids)) % p != e:
                raise CertificateError(f"equivariance fails at {lam}, q={q}")
    return 2 * len(els)


def check_gamma_conjugacy(lam: tuple, q: int):
    """The first g of the sorted SL_n(q) with g.u = gamma(u).g.  Raises
    OracleError past the oracle limit, and CertificateError if there is
    none; that would contradict the rationality of the twisted class.

    SL_n(q) is not built.  Reduced over its unknowns in reverse row-major
    order, the system X.u = gamma(u).X gives one null vector per free
    unknown, with its 1 there and nonzeros only at later pivots: a reduced
    echelon basis, so coefficients in lexicographic order list the
    solutions in lexicographic order.  Row r of X depends only on the
    coefficients with their 1 in rows 0..r; an exhaustive depth-first walk
    picks those a row at a time and drops prefixes of dependent rows.
    """
    n, sp = sum(lam), spp(1, q)
    check_order_limit(sl_group_order(n, sp))
    F = build_field(sp.p, sp.m)
    u = rep_unipotent(lam)
    target = gamma_twist(u, F)
    if mat_det(u, F) != 1 or mat_det(target, F) != 1:
        raise CertificateError("representative or its twist is not in SL")
    # equation (i, j) of X.u - target.X = 0; unknown X[a][b] in reverse order
    eqs = [[F.sub(u[b][j] * (a == i), target[i][a] * (b == j))
            for a in reversed(range(n)) for b in reversed(range(n))]
           for i in range(n) for j in range(n)]
    rank = _gauss_jordan(eqs, n * n, F)[0]
    pivot_eq = {eq.index(1): eq for eq in eqs[:rank]}
    basis = [[F.neg(pivot_eq[c][free]) if c in pivot_eq else int(c == free)
              for c in reversed(range(n * n))]
             for free in reversed(range(n * n)) if free not in pivot_eq]
    # the first ends[r] coefficients fix rows 0..r of X; rows_of[r] gives row r
    ends = [sum(vec.index(1) < (r + 1) * n for vec in basis) for r in range(n)]
    rows_of = [_row_kernel([vec[r * n:(r + 1) * n] for vec in basis[:ends[r]]], F)
               for r in range(n)]

    def walk(rows: tuple, coeffs: tuple):
        r = len(rows)
        if r == n:
            if mat_det(rows, F) == 1:
                yield rows
            return
        for new in product(range(F.size), repeat=ends[r] - len(coeffs)):
            prefix = rows + (rows_of[r](coeffs + new),)
            if mat_rank(prefix, F) > r:
                yield from walk(prefix, coeffs + new)

    g = next(walk((), ()), None)
    if g is None:
        raise CertificateError(f"no gamma-conjugating witness for {lam}, q={q}")
    if mat_mul(g, u, F) != mat_mul(target, g, F):
        raise CertificateError(f"the witness does not conjugate at {lam}, q={q}")
    return u, g


@cache
def gggr_multiplicities(n: int, q: int, lam: tuple) -> tuple:
    """Exact multiplicity of each Irr(GL_n(q)) character in Gamma_lam.

    Induces psi_u from U_2 and divides by q^(e_1/2); both the induction
    and the division are exact or they raise.
    """
    G, table = oracle_table("GL", n, q)
    F = G.F
    els = u2_elements(lam, F)
    view = subgroup_closure(G, sorted(els))
    sub_part = view.conjugacy_classes()
    ctx = table.ctx
    u, exact2 = rep_unipotent(lam), exact2_positions(lam)
    step = ctx.N // F.p
    values = tuple(ctx.root_of_unity(psi_exponent(F, exact2, u, rep) * step)
                   for rep in sub_part.reps)
    psi = dixon.ClassFunction(view=view, part=sub_part, ctx=ctx, values=values)
    ind = dixon.induce(psi, G)
    e1 = e1_count(lam)
    if e1 % 2 or ind.degree != G.order // len(els):
        raise CertificateError(f"odd e_1 or wrong induced degree at {lam}, q={q}")
    scale = q ** (e1 // 2)
    mults, rems = zip(*(divmod(dixon.inner(ind, chi), scale) for chi in table.chars))
    if any(rems):
        raise CertificateError(f"inexact multiplicity at {lam}, q={q}")
    degree = sum(m * chi.degree for m, chi in zip(mults, table.chars))
    if degree != G.order // len(els) // scale:
        raise CertificateError(f"multiplicities miss the degree at {lam}, q={q}")
    return mults


def check_multiplicity_one(n: int, q: int) -> dict:
    """Every irreducible of GL_n(q) has multiplicity one in some Gamma_lam.

    Also certifies the two boundary cases: the regular class gives the
    multiplicity-free classical construction with one constituent per
    semisimple class, and the trivial class gives the regular character.
    """
    G, table = oracle_table("GL", n, q)
    by_lam = {lam: gggr_multiplicities(n, q, lam) for lam in partitions(n)}

    covered = tuple(1 in ms for ms in zip(*by_lam.values()))
    regular = by_lam[(n,)]
    return {
        "n": n,
        "q": q,
        "all_covered": all(covered),
        "covered": covered,
        "multiplicities": by_lam,
        "regular_multfree": all(m <= 1 for m in regular),
        "regular_constituents": sum(1 for m in regular if m),
        "n_ss_classes": len(enumerate_ss_classes(n, spp(1, q))),
        "trivial_gives_regular_rep": all(
            m == chi.degree for m, chi in zip(by_lam[(1,) * n], table.chars)),
    }
