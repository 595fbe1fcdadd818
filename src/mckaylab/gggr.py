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
from itertools import chain, product
from operator import mul

from .exactfield import CertificateError, build_field, spp
from .partitions import partitions
from .ssclasses import enumerate_ss_classes
from . import dixon
from .bijection import oracle_table
from .matrixoracle import (
    OracleError,
    _row_kernel,
    build_group,
    frobenius_twist,
    gamma_map,
    gamma_twist,
    identity_matrix,
    mat_mul,
    mat_rank,
    subgroup_view,
)

HOM_EXHAUSTIVE_LIMIT = 1000
U2_SIZE_LIMIT = 10**5


# ---------------------------------------------------------------------------
# combinatorics of the weighting


def weight_multiset(lam: tuple) -> tuple:
    """All basis weights, ascending, with ties ordered by Jordan block."""
    items = []
    for block, size in enumerate(lam):
        for h in range(1 - size, size, 2):
            items.append((h, block))
    items.sort(key=lambda t: t[0])
    return tuple(items)


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

    Returns the number of partitions checked; raises on any failure.
    """
    checked = 0
    for n in range(1, nmax + 1):
        for lam in partitions(n):
            counts = weight_counts(lam)
            if not parity_ok(counts):
                raise CertificateError(f"odd e_1 at {lam}")
            if not symmetry_ok(counts):
                raise CertificateError(f"asymmetric weights at {lam}")
            checked += 1
    return checked


def _positions(lam: tuple, at_least: int, exact: bool = False) -> tuple:
    basis = weight_multiset(lam)
    n = len(basis)
    out = []
    for i in range(n):
        for j in range(n):
            lev = basis[i][0] - basis[j][0]
            if (lev == at_least) if exact else (lev >= at_least):
                out.append((i, j))
    return tuple(out)


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
    basis = weight_multiset(lam)
    index = {hb: i for i, hb in enumerate(basis)}
    n = len(basis)
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
    # rank(N^(k-1)) - rank(N^k) counts the Jordan blocks of size >= k
    ge = {k: ranks[k - 1] - ranks[k] for k in range(1, len(ranks))}
    sizes = []
    for size in range(len(ranks) - 1, 0, -1):
        sizes.extend([size] * (ge.get(size, 0) - ge.get(size + 1, 0)))
    return tuple(sizes)


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
    s = 0
    for i, j in exact2:
        c = u_mat[i][j]
        if c:
            s += _traces(F)[F.mul(g[i][j], c)]
    return (-s) % F.p


def u2_elements(lam: tuple, F) -> tuple:
    """Every I + X with X supported on the level >= 2 positions, in the
    lexicographic order of the entries at u2_positions(lam).

    This set is already a group: products only spill into higher levels.
    The positions run row by row, so the set is the product of its rows'
    sets, and elements with an equal row share that row's tuple.
    """
    pos = u2_positions(lam)
    n = sum(lam)
    if F.size ** len(pos) > U2_SIZE_LIMIT:
        raise OracleError("U_2 too large to enumerate")
    row_sets = []
    for i in range(n):
        cols = [j for a, j in pos if a == i]
        row_set = []
        for vals in product(range(F.size), repeat=len(cols)):
            row = [int(i == j) for j in range(n)]
            for j, v in zip(cols, vals):
                row[j] = v
            row_set.append(tuple(row))
        row_sets.append(row_set)
    return tuple(product(*row_sets))


def u2_generators(lam: tuple, F) -> tuple:
    """I + p^t E_ij for every level >= 2 position (i, j) and t < k.

    The p^t encode the powers of the field generator, a basis of GF(q) over
    GF(p), so these elements generate U_2.
    """
    n = sum(lam)
    out = []
    for (i, j) in u2_positions(lam):
        for t in range(F.k):
            m = [[int(a == b) for b in range(n)] for a in range(n)]
            m[i][j] = F.p**t
            out.append(tuple(tuple(row) for row in m))
    return tuple(out)


# ---------------------------------------------------------------------------
# certificates


def check_representative(lam: tuple, q: int) -> bool:
    """The chain representative really has Jordan type lam."""
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    return jordan_type(rep_unipotent(lam), F) == tuple(sorted(lam, reverse=True))


def check_homomorphism(lam: tuple, q: int) -> int:
    """psi_u is multiplicative on U_2^F; returns the number of pairs checked.

    The partners h are all of U_2 when |U_2| <= HOM_EXHAUSTIVE_LIMIT, and
    otherwise the one-position generators of u2_generators.  A breadth-first
    walk from the identity checks g.h for every partner h at every element g
    it reaches, and every element must be reached: so the partners generate
    U_2, and the identity holds on all of U_2 by induction on word length.
    A product outside U_2 also fails the certificate.

    Elements are handled as tuples of row ids.  Row i of g.h depends only
    on row i of g, so each partner maps every distinct row once, and a
    product is the tuple of its rows' images.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    els = u2_elements(lam, F)
    u = rep_unipotent(lam)
    exact2 = exact2_positions(lam)
    rows = list(dict.fromkeys(chain.from_iterable(els)))
    row_id = {row: k for k, row in enumerate(rows)}
    ids = [tuple(map(row_id.__getitem__, g)) for g in els]
    index = {g: k for k, g in enumerate(ids)}
    exps = [psi_exponent(F, exact2, u, g) for g in els]
    partners = els if len(els) <= HOM_EXHAUSTIVE_LIMIT else u2_generators(lam, F)
    images = []
    for h in partners:
        k = index.get(tuple(row_id.get(row, -1) for row in h))
        if k is None:
            raise CertificateError(f"a partner lies outside U_2 at {lam}, q={q}")
        kernel = _row_kernel(h, F)
        image = [row_id.get(kernel(row), -1) for row in rows]
        images.append((image.__getitem__, exps[k]))
    p = F.p
    start = index[tuple(row_id[row] for row in identity_matrix(sum(lam)))]
    seen, layer = {start}, [start]
    while layer:
        # the layer's row ids by row position, and its psi exponents
        columns = list(zip(*map(ids.__getitem__, layer)))
        layer_exps = list(map(exps.__getitem__, layer))
        fresh = set()
        for image, e_h in images:
            # g.h for every g in the layer, as an index into els
            prods = list(map(index.get, zip(*[map(image, col) for col in columns])))
            if None in prods:
                raise CertificateError(f"a product leaves U_2 at {lam}, q={q}")
            if (list(map(exps.__getitem__, prods))
                    != [(e + e_h) % p for e in layer_exps]):
                raise CertificateError(f"psi_u not multiplicative at {lam}, q={q}")
            fresh.update(prods)
        layer = list(fresh - seen)
        seen.update(layer)
    if len(seen) != len(els):
        raise CertificateError(f"the partners do not generate U_2 at {lam}, q={q}")
    return len(seen) * len(partners)


def check_equivariance(lam: tuple, q: int) -> int:
    """psi_u(g) = psi_{sigma(u)}(sigma(g)) for the field and graph twists.

    Each twisted element must lie in U_2 again.  Returns the number of
    (sigma, g) evaluations certified.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    els = u2_elements(lam, F)
    u = rep_unipotent(lam)
    exact2 = exact2_positions(lam)
    exps = {g: psi_exponent(F, exact2, u, g) for g in els}
    twists = [
        (lambda g: frobenius_twist(g, F)),
        (lambda g: gamma_twist(g, F)),
    ]
    checked = 0
    for twist in twists:
        tu = twist(u)
        for g, e in exps.items():
            tg = twist(g)
            if tg not in exps:
                raise CertificateError(f"a twist leaves U_2 at {lam}, q={q}")
            if psi_exponent(F, exact2, tu, tg) != e:
                raise CertificateError(f"equivariance fails at {lam}, q={q}")
            checked += 1
    return checked


def check_gamma_conjugacy(lam: tuple, q: int):
    """A witness g in SL_n(q) conjugating u to its graph twist.

    Raises OracleError if SL_n(q) is past the oracle limit, and
    CertificateError if no witness exists; that would contradict the
    rationality of the twisted class.
    """
    n = sum(lam)
    S = build_group("SL", n, q)
    u = rep_unipotent(lam)
    if u not in S.index:
        raise CertificateError("representative is not in SL")
    times_u, target_times = S.right(u), S.left(gamma_map(S, u))
    for g in S.elements:
        if times_u(g) == target_times(g):
            return u, g
    raise CertificateError(f"no gamma-conjugating witness for {lam}, q={q}")


@cache
def gggr_multiplicities(n: int, q: int, lam: tuple) -> tuple:
    """Exact multiplicity of each Irr(GL_n(q)) character in Gamma_lam.

    Induces psi_u from U_2 and divides by q^(e_1/2); both the induction
    and the division are exact or they raise.
    """
    G, table = oracle_table("GL", n, q)
    F = G.F
    els = u2_elements(lam, F)
    view = subgroup_view(G, els)
    sub_part = view.conjugacy_classes()
    ctx = table.ctx
    u = rep_unipotent(lam)
    exact2 = exact2_positions(lam)
    step = ctx.N // F.p
    values = tuple(
        ctx.root_of_unity(psi_exponent(F, exact2, u, rep) * step)
        for rep in sub_part.reps
    )
    psi = dixon.ClassFunction(view=view, part=sub_part, ctx=ctx, values=values)
    ind = dixon.induce(psi, G)
    e1 = e1_count(lam)
    if e1 % 2 or ind.degree != G.order // len(els):
        raise CertificateError(f"odd e_1 or wrong induced degree at {lam}, q={q}")
    scale = q ** (e1 // 2)
    mults = []
    for chi in table.chars:
        raw = dixon.inner(ind, chi)
        m, rem = divmod(raw, scale)
        if rem:
            raise CertificateError(f"inexact multiplicity at {lam}, q={q}")
        mults.append(m)
    expected_deg = (G.order // len(els)) // scale
    if sum(m * chi.degree for m, chi in zip(mults, table.chars)) != expected_deg:
        raise CertificateError(f"multiplicities miss the degree at {lam}, q={q}")
    return tuple(mults)


def check_multiplicity_one(n: int, q: int) -> dict:
    """Every irreducible of GL_n(q) has multiplicity one in some Gamma_lam.

    Also certifies the two boundary cases: the regular class gives the
    multiplicity-free classical construction with one constituent per
    semisimple class, and the trivial class gives the regular character.
    """
    G, table = oracle_table("GL", n, q)
    lams = partitions(n)
    by_lam = {lam: gggr_multiplicities(n, q, lam) for lam in lams}

    covered = []
    for idx in range(len(table.chars)):
        covered.append(any(by_lam[lam][idx] == 1 for lam in lams))

    regular = by_lam[(n,)]
    regular_multfree = all(m <= 1 for m in regular)
    n_ss = len(enumerate_ss_classes(n, spp(1, q)))
    trivial_lam = by_lam[tuple([1] * n)]
    regular_rep = all(m == chi.degree
                      for m, chi in zip(trivial_lam, table.chars))
    return {
        "n": n,
        "q": q,
        "all_covered": all(covered),
        "covered": tuple(covered),
        "multiplicities": {lam: by_lam[lam] for lam in lams},
        "regular_multfree": regular_multfree,
        "regular_constituents": sum(1 for m in regular if m),
        "n_ss_classes": n_ss,
        "trivial_gives_regular_rep": regular_rep,
    }
