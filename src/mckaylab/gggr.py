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

from collections import Counter
from functools import cache
from itertools import product

from .exactfield import CertificateError, build_field, spp
from .partitions import partitions
from .ssclasses import enumerate_ss_classes
from . import dixon
from .bijection import oracle_table
from .matrixoracle import (
    OracleError,
    build_group,
    form_matrix,
    frobenius_twist,
    gamma_map,
    gamma_twist,
    identity_matrix,
    mat_mul,
    mat_rank,
    right_mul,
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


def weight_counts(lam: tuple) -> Counter:
    """Multiplicity of each basis weight."""
    return Counter(h for size in lam for h in range(1 - size, size, 2))


def level_count(counts: Counter, level: int) -> int:
    """Number of matrix positions of the given weight level."""
    return sum(c * counts.get(v + level, 0) for v, c in counts.items())


def e1_count(lam: tuple) -> int:
    return level_count(weight_counts(lam), 1)


def parity_ok(counts: Counter) -> bool:
    return level_count(counts, 1) % 2 == 0


def symmetry_ok(counts: Counter) -> bool:
    return counts == Counter({-v: c for v, c in counts.items()})


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
        y = F.pow(y, F.p)
    if acc >= F.p:
        raise CertificateError("trace left the prime subfield")
    return acc


def psi_exponent(F, exact2: tuple, u_mat, g) -> int:
    """Exponent of the additive character at g, for the representative u_mat."""
    s = 0
    for i, j in exact2:
        c = u_mat[i][j]
        if c:
            s = (s + field_trace(F, F.mul(g[i][j], c))) % F.p
    return (-s) % F.p


def u2_elements(lam: tuple, F) -> tuple:
    """Every I + X with X supported on the level >= 2 positions.

    This set is already a group: products only spill into higher levels.
    """
    pos = u2_positions(lam)
    n = sum(lam)
    if F.size ** len(pos) > U2_SIZE_LIMIT:
        raise OracleError("U_2 too large to enumerate")
    out = []
    for vals in product(range(F.size), repeat=len(pos)):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(pos, vals):
            m[i][j] = v
        out.append(tuple(tuple(row) for row in m))
    return tuple(out)


# ---------------------------------------------------------------------------
# certificates


def check_representative(lam: tuple, q: int) -> bool:
    """The chain representative really has Jordan type lam."""
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    return jordan_type(rep_unipotent(lam), F) == tuple(sorted(lam, reverse=True))


def check_homomorphism(lam: tuple, q: int,
                       pair_limit: int = HOM_EXHAUSTIVE_LIMIT) -> int:
    """psi_u is multiplicative on U_2^F; returns the number of pairs checked.

    All pairs when |U_2| <= pair_limit; otherwise every element against a
    one-position generating set, which certifies the identity by induction
    on word length.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    els = u2_elements(lam, F)
    u = rep_unipotent(lam)
    exact2 = exact2_positions(lam)
    exps = {g: psi_exponent(F, exact2, u, g) for g in els}
    if len(els) <= pair_limit:
        partners = els
    else:
        n = sum(lam)
        partners = []
        for (i, j) in u2_positions(lam):
            for t in range(F.k):
                m = [[int(a == b) for b in range(n)] for a in range(n)]
                m[i][j] = F.p**t
                partners.append(tuple(tuple(row) for row in m))
    checked = 0
    for h in partners:
        times_h = right_mul(h, F)
        for g in els:
            if exps[times_h(g)] != (exps[g] + exps[h]) % F.p:
                raise CertificateError(f"psi_u not multiplicative at {lam}, q={q}")
            checked += 1
    return checked


def check_equivariance(lam: tuple, q: int) -> int:
    """psi_u(g) = psi_{sigma(u)}(sigma(g)) for the field and graph twists.

    Returns the number of (sigma, g) evaluations certified.
    """
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    n = sum(lam)
    v0 = form_matrix(n, F)
    els = u2_elements(lam, F)
    u = rep_unipotent(lam)
    exact2 = exact2_positions(lam)
    twists = [
        (lambda g: frobenius_twist(g, F)),
        (lambda g: gamma_twist(g, F, v0)),
    ]
    checked = 0
    for twist in twists:
        tu = twist(u)
        for g in els:
            lhs = psi_exponent(F, exact2, u, g)
            rhs = psi_exponent(F, exact2, tu, twist(g))
            if lhs != rhs:
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
