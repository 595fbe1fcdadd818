"""Cell-level verification of the global/local character correspondence.

A *cell* is a tuple (n, eps, q, ell) with ell not dividing q.  For each cell
the checker pairs every relevant global character of GL_n(eps q) with its
local counterpart on the torus-normalizer side, then certifies:

  * the pairing is a bijection onto the relevant local characters,
  * central characters agree across each pair,
  * the pairing commutes with tensoring by linear characters (zhat),
  * constituent degrees satisfy the +/- congruence mod ell,
  * the two prime-to-ell degree criteria match their structural forms,
  * parameter counts for the SL/SU-descent agree,
  * sum-of-squares mass checks on both sides,
  * where the groups are small enough, everything against exact character
    tables of explicitly constructed matrix groups.

Reports are plain dicts with stable keys so the CLI can serialize them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, permutations, product

from .exactfield import (
    SignedPrimePower,
    ell_part,
    ell_val,
    group_order,
    isprime,
    spp,
)
from .charparams import (
    GlobalChar,
    LabelTable,
    char_type,
    count_ellprime,
    count_irr_sl,
    count_jordan_params,
    ellprime_structural,
    group_table,
    index_order,
    to_params,
)
from .localside import (
    LocalChar,
    TransportError,
    enumerate_ellprime_params,
    local_ellprime_structural,
    local_order,
    local_table,
    torus_data,
    transport,
)
from .ssclasses import centralizer_type
from . import dixon
from .matrixoracle import (
    OracleError,
    build_group,
    conj_transpose,
    mat_inv,
    mat_mul,
    normalizer,
    subgroup_closure,
    subgroup_view,
    sylow_subgroup,
)

ORACLE_ORDER_LIMIT = 750
MAX_WITNESSES = 3   # failure witnesses kept per cell report

GRID_N = (2, 3, 4)
GRID_Q = (2, 3, 4, 5, 7)
GRID_ELL = (2, 3, 5, 7)


@dataclass(frozen=True, order=True)
class Cell:
    """One verification unit: the group GL_n(eps q) at the prime ell.

    Construction rejects cells on which the certificates are undefined:
    n >= 1, eps in {+1, -1}, q a prime power and ell a prime not dividing q,
    else ValueError.
    """

    n: int
    eps: int
    q: int
    ell: int
    sp: SignedPrimePower = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.eps not in (1, -1):
            raise ValueError(f"eps={self.eps} must be +1 or -1")
        sp = spp(self.eps, self.q)
        if not isprime(self.ell):
            raise ValueError(f"ell={self.ell} is not prime")
        if sp.p == self.ell:
            raise ValueError(
                f"ell={self.ell} divides q={self.q}: the cell is undefined")
        object.__setattr__(self, "sp", sp)

    @property
    def kind(self) -> str:
        return "GL" if self.eps == 1 else "GU"

    def label(self) -> str:
        return f"{self.kind}({self.n},{self.q}) ell={self.ell}"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "q": self.q,
                "eps": self.eps, "ell": self.ell}


def default_grid() -> tuple[Cell, ...]:
    """All cells with n in 2..4, q in {2,3,4,5,7}, both signs, ell prime to q."""
    cells = []
    for n, q, eps, ell in product(GRID_N, GRID_Q, (1, -1), GRID_ELL):
        if spp(eps, q).p == ell:
            continue
        cells.append(Cell(n, eps, q, ell))
    return tuple(sorted(cells))


def local_to_params(psi: LocalChar) -> dict:
    return {
        "chi_m": to_params(psi.chi_m),
        "blocks": [[rep, mult] for rep, mult in psi.blocks],
        "etas": [[list(map(list, eta))] for eta in psi.etas],
    }


# ---------------------------------------------------------------------------
# per-cell label data, computed once


@dataclass(frozen=True, eq=False)
class CellData:
    """Label-level facts of one cell, computed once and read by every check.

    group and local are the label tables of G and of the local N.  pairs
    holds (i, j) when relevant global character i transports to local
    character j; transport_errors holds (i, message) for the relevant global
    characters without a local image.
    """

    cell: Cell
    group: LabelTable
    local: LabelTable
    pairs: tuple
    transport_errors: tuple


def cell_data(cell: Cell) -> CellData:
    n, sp, ell = cell.n, cell.sp, cell.ell
    group = group_table(n, sp)
    local = local_table(n, sp, ell)
    pairs, errors = [], []
    for i in group.relevant(ell):
        try:
            j = local.index.get(transport(group.chars[i], n, sp, ell))
        except TransportError as exc:
            errors.append((i, str(exc)))
            continue
        if j is None:
            errors.append((i, "image is not a local character"))
        else:
            pairs.append((i, j))
    return CellData(cell=cell, group=group, local=local, pairs=tuple(pairs),
                    transport_errors=tuple(errors))


# ---------------------------------------------------------------------------
# the checks: functions of the cell data; each returns its verdict and
# reports every failure through note(check, **payload)


def check_bijective(data: CellData, note) -> bool:
    """The pairing is a bijection onto the relevant local characters."""
    for i, error in data.transport_errors:
        note("transport", global_char=to_params(data.group.chars[i]),
             error=error)
    images = [j for _, j in data.pairs]
    relevant = data.local.relevant(data.cell.ell)
    ok = (not data.transport_errors and len(set(images)) == len(images)
          and set(images) == set(relevant))
    if not ok and not data.transport_errors:
        note("bijective", n_pairs=len(data.pairs), n_local=len(relevant))
    return ok


def check_central(data: CellData, note) -> bool:
    """Paired characters have the same central character."""
    ok = True
    for i, j in data.pairs:
        if data.group.centrals[i] != data.local.centrals[j]:
            ok = False
            note("central", global_char=to_params(data.group.chars[i]),
                 local_char=local_to_params(data.local.chars[j]))
    return ok


def check_zhat(data: CellData, note) -> bool:
    """transport(zhat_act(chi, 1)) == local_zhat_act(transport(chi), 1).

    Z/M_1 is cyclic, so equivariance under its generator 1 is equivariance
    under every z.  The left side is read from the stored pairs: relevance
    depends only on degree and stabilizer order, which translation keeps,
    so a translate with no stored image is a failure.
    """
    g = data.group
    image = dict(data.pairs)
    ok = True
    for i, j in data.pairs:
        if image.get(g.shift[i]) != data.local.shift[j]:
            ok = False
            note("zhat", z=1, global_char=to_params(g.chars[i]))
    return ok


def check_in_congruence(data: CellData, note) -> bool:
    """Constituent degrees satisfy r = +/- r' (mod ell) across each pair."""
    g, loc, ell = data.group, data.local, data.cell.ell
    ok = True
    for i, j in data.pairs:
        r = g.degrees[i] // g.stabs[i]
        rp = loc.degrees[j] // loc.stabs[j]
        if (r - rp) % ell != 0 and (r + rp) % ell != 0:
            ok = False
            note("in_congruence", r=r, r_prime=rp,
                 global_char=to_params(g.chars[i]))
    return ok


def _jordan_ellprime(chi: GlobalChar, deg: int, n: int, sp: SignedPrimePower,
                     ell: int) -> bool:
    """ell-prime test via the Jordan factorization deg = index_{p'} * unipotent."""
    idx = index_order(centralizer_type(chi.cls), n, sp)
    unip = deg // ell_part(idx, sp.p)[1]
    return ell_val(idx, ell) == 0 and ell_val(unip, ell) == 0


def check_ellprime(data: CellData, note) -> tuple[bool, int, int]:
    """Direct, structural and Jordan ell-prime tests agree on both sides,
    and the direct global count agrees with enumerate_ellprime_params, which
    builds the ell-prime characters from cores and quotients without degrees.

    The structural test reads a character only through its type, so it runs
    once per type; the Jordan test once per type and table degree, so a
    wrong degree still gets its own evaluation; the direct test reads every
    character's own degree.  Returns the verdict and the ell-prime counts of
    the global and local sides.
    """
    cell, g = data.cell, data.group
    n, sp, ell = cell.n, cell.sp, cell.ell
    ok = True
    prime = set(g.ellprime(ell))
    structural, jordan = {}, {}   # by type, and by (type, table degree)
    for i, (chi, deg) in enumerate(zip(g.chars, g.degrees)):
        t = char_type(chi)
        if t not in structural:
            structural[t] = ellprime_structural(chi, n, sp, ell)
        if (t, deg) not in jordan:
            jordan[t, deg] = _jordan_ellprime(chi, deg, n, sp, ell)
        direct = i in prime
        if direct != structural[t] or direct != jordan[t, deg]:
            ok = False
            note("ellprime_equiv", side="global", global_char=to_params(chi))
    lprime = set(data.local.ellprime(ell))
    for j, psi in enumerate(data.local.chars):
        if (j in lprime) != local_ellprime_structural(psi, n, sp, ell):
            ok = False
            note("ellprime_equiv", side="local",
                 local_char=local_to_params(psi))
    combinatorial = len(enumerate_ellprime_params(n, sp, ell))
    if len(prime) != combinatorial:
        ok = False
        note("ellprime_count", direct=len(prime), combinatorial=combinatorial)
    return ok, len(prime), len(lprime)


def check_sum_squares(data: CellData, note) -> bool:
    """Squared degrees sum to the group orders on both sides."""
    cell = data.cell
    sum_global = sum(d * d for d in data.group.degrees)
    sum_local = sum(d * d for d in data.local.degrees)
    ok = (sum_global == group_order(cell.n, cell.sp)
          and sum_local == local_order(cell.n, cell.sp, cell.ell))
    if not ok:
        note("sum_squares", global_sum=sum_global, local_sum=sum_local)
    return ok


# ---------------------------------------------------------------------------
# the pairing


def omega_tilde(cell: Cell) -> tuple:
    """Pair each relevant global character with its local image.

    Returns ((chi, psi), ...) in the order of enumerate_irr.  Raises if the
    images fail to exhaust the relevant local characters bijectively;
    callers that want a soft failure should use check_cell instead.
    """
    data = cell_data(cell)
    if not check_bijective(data, lambda check, **payload: None):
        raise TransportError(f"pairing is not bijective on {cell.label()}")
    return tuple((data.group.chars[i], data.local.chars[j])
                 for i, j in data.pairs)


def check_cell(cell: Cell, oracle_limit: int = ORACLE_ORDER_LIMIT,
               with_oracle: bool = True) -> dict:
    """Run every per-cell certificate and return a report dict.

    Report schema (stable keys):
      cell, degenerate, counts{global, local, ellprime_global,
      ellprime_local, per_nu}, checks{bijective, central, zhat,
      in_congruence, mckay, ellprime_equiv, jordan_eq, sum_squares, oracle},
      witnesses, ms, status.
    """
    t0 = time.perf_counter()
    n, sp = cell.n, cell.sp

    witnesses: list[dict] = []

    def note(kind: str, **payload) -> None:
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append({"check": kind, **payload})

    data = cell_data(cell)
    bijective = check_bijective(data, note)
    central = check_central(data, note)
    zhat = check_zhat(data, note)
    in_congruence = check_in_congruence(data, note)

    per_nu: dict[str, int] = {}
    for i, _ in data.pairs:
        key = str(data.group.centrals[i])
        per_nu[key] = per_nu.get(key, 0) + 1

    ellprime_equiv, n_ellprime_global, n_ellprime_local = check_ellprime(
        data, note)

    mckay = n_ellprime_global == n_ellprime_local
    if not mckay:
        note("mckay", global_count=n_ellprime_global,
             local_count=n_ellprime_local)

    irr_sl, jordan = count_irr_sl(n, sp), count_jordan_params(n, sp)
    jordan_eq = irr_sl == jordan
    if not jordan_eq:
        note("jordan_eq", irr_sl=irr_sl, jordan=jordan)

    sum_squares = check_sum_squares(data, note)

    oracle = None
    oracle_detail = None
    if with_oracle and group_order(n, sp) <= oracle_limit:
        oracle_detail = verify_vs_oracle(cell, oracle_limit)
        oracle = oracle_detail["ok"]
        if oracle is False:
            note("oracle", detail=oracle_detail)

    checks = {
        "bijective": bijective,
        "central": central,
        "zhat": zhat,
        "in_congruence": in_congruence,
        "mckay": mckay,
        "ellprime_equiv": ellprime_equiv,
        "jordan_eq": jordan_eq,
        "sum_squares": sum_squares,
        "oracle": oracle,
    }
    status = "ok" if all(v is not False for v in checks.values()) else "fail"
    return {
        "cell": cell.as_dict(),
        "degenerate": torus_data(n, sp, cell.ell).a == 0,
        "counts": {
            "global": len(data.pairs),
            "local": len(data.local.relevant(cell.ell)),
            "ellprime_global": n_ellprime_global,
            "ellprime_local": n_ellprime_local,
            "per_nu": dict(sorted(per_nu.items())),
        },
        "checks": checks,
        "witnesses": witnesses,
        "ms": int((time.perf_counter() - t0) * 1000),
        "status": status,
    }


# ---------------------------------------------------------------------------
# the explicit torus for the oracle route


def _unit_basis(G):
    """A matrix P with P^* h P = I for the form h of G; the identity for GL.

    h is v0, or delta.v0 with conj(delta) = -delta when v0 is skew (even n,
    odd p); both define G.  Gram-Schmidt on a spanning set of the complement:
    a member or a sum v + t.w has H(x, x) != 0 (the form is nondegenerate and
    the trace onto GF(q) is onto) and is scaled by a lambda of norm 1/H(x, x).
    """
    if G.sp.eps == 1:
        return G.identity
    F, q, h = G.F, G.sp.q, G.v0
    if conj_transpose(h, F, q) != h:
        delta = next(x for x in F.units() if F.pow(x, q) == F.neg(x))
        h = tuple(tuple(F.mul(delta, x) for x in row) for row in h)
    form = lambda x, y: mat_mul(mat_mul(
        (tuple(F.pow(t, q) for t in x),), h, F), tuple(zip(y)), F)[0][0]
    axpy = lambda t, x, y: tuple(F.add(b, F.mul(t, a)) for a, b in zip(x, y))
    span, columns = list(G.identity), []
    for _ in range(G.n):
        sums = (axpy(t, w, v) for v, w in permutations(span, 2)
                for t in F.units())
        x = next(v for v in chain(span, sums) if form(v, v))
        c = form(x, x)
        lam = next(t for t in F.units() if F.mul(F.pow(t, q + 1), c) == 1)
        u = tuple(F.mul(lam, t) for t in x)
        columns.append(u)
        span = [axpy(F.neg(form(u, w)), u, w) for w in span]
    return tuple(zip(*columns))


def explicit_torus(G, ell: int):
    """The Sylow torus C_Q^a of G whose normalizer realizes the local side.

    Generator i is b on diagonal block i, in bases where the forms are the
    identity; b is the first class representative of order Q and class size
    |H| / Q, a regular element generating a cyclic maximal torus, of the
    degree-d0 group H of G's kind (G itself when d0 == n).  Trivial when ell
    does not divide |G|.  Raises OracleError unless the generators are
    commuting elements of G of exponent dividing Q that close to order Q^a.
    """
    td = torus_data(G.n, G.sp, ell)
    if td.a == 0:
        return subgroup_view(G, (G.identity,), (G.identity,))
    d0, Q, F = td.d0, td.Q, G.F
    H = G if d0 == G.n else build_group(G.kind, d0, G.sp.q)
    classes = H.conjugacy_classes()
    b = next((x for x, size in zip(classes.reps, classes.sizes)
              if size * Q == H.order and H.element_order(x) == Q), None)
    if b is None:
        raise OracleError(f"no regular element of order {Q} in degree {d0}")
    P0, P = _unit_basis(H), _unit_basis(G)
    block = mat_mul(mat_mul(mat_inv(P0, F), b, F), P0, F)
    gens = []
    for i in range(0, td.a * d0, d0):
        D = [list(row) for row in G.identity]
        for r, c in product(range(d0), repeat=2):
            D[i + r][i + c] = block[r][c]
        gens.append(mat_mul(mat_mul(P, D, F), mat_inv(P, F), F))
    if not all(g in G and Q % G.element_order(g) == 0
               and all(G.mul(g, h) == G.mul(h, g) for h in gens) for g in gens):
        raise OracleError(f"the torus generators are not commuting elements "
                          f"of G of exponent dividing {Q}")
    torus = subgroup_closure(G, gens)
    if torus.order != Q**td.a:
        raise OracleError(f"torus closure has order {torus.order}, not {Q}^{td.a}")
    return torus


# ---------------------------------------------------------------------------
# oracle cross-validation


@cache
def oracle_table(kind: str, n: int, q: int):
    G = build_group(kind, n, q)
    return G, dixon.character_table(G)


def verify_vs_oracle(cell: Cell, oracle_limit: int = ORACLE_ORDER_LIMIT) -> dict:
    """Compare combinatorial predictions against exact character tables.

    Checks, for an oracle-buildable cell:
      * global degree multiset and the ell-prime count,
      * |Irr_ell'(N(P))| for a Sylow ell-subgroup P equals the local count,
      * the normalizer of the explicit torus has the predicted order, class
        count, degree multiset, and ell-prime count,
      * SL/SU class count equals the descent parameter count when buildable.
    """
    n, sp, ell = cell.n, cell.sp, cell.ell
    out: dict = {"ok": True}

    def record(key: str, good: bool, **info) -> None:
        out[key] = {"ok": good, **info}
        if not good:
            out["ok"] = False

    if group_order(n, sp) > oracle_limit:
        return {"ok": None, "reason": "group order exceeds oracle limit"}

    G, table = oracle_table(cell.kind, n, cell.q)
    want_deg = sorted(group_table(n, sp).degrees)
    got_deg = sorted(table.degrees)
    record("global_degrees", want_deg == got_deg,
           expected=want_deg, got=got_deg)
    got_lp = len(dixon.irr_ellprime(table, ell))
    want_lp = count_ellprime(n, sp, ell)
    record("global_ellprime", got_lp == want_lp,
           oracle=got_lp, combinatorial=want_lp)

    local = local_table(n, sp, ell)
    want_local_deg = sorted(local.degrees)
    want_local_lp = len(local.ellprime(ell))

    P = sylow_subgroup(G, ell)
    NP = normalizer(G, P)
    np_table = dixon.character_table(NP)
    got_np_lp = len(dixon.irr_ellprime(np_table, ell))
    record("sylow_normalizer_ellprime", got_np_lp == want_local_lp,
           oracle=got_np_lp, combinatorial=want_local_lp,
           normalizer_order=NP.order)

    S0 = explicit_torus(G, ell)
    NT = normalizer(G, S0)
    record("torus_normalizer_order", NT.order == local_order(n, sp, ell),
           oracle=NT.order, combinatorial=local_order(n, sp, ell))
    nt_table = dixon.character_table(NT)
    got_nt_deg = sorted(nt_table.degrees)
    record("torus_normalizer_degrees", got_nt_deg == want_local_deg,
           expected=want_local_deg, got=got_nt_deg)
    record("torus_normalizer_count", len(nt_table.chars) == len(local.chars),
           oracle=len(nt_table.chars), combinatorial=len(local.chars))
    got_nt_lp = len(dixon.irr_ellprime(nt_table, ell))
    record("torus_normalizer_ellprime", got_nt_lp == want_local_lp,
           oracle=got_nt_lp, combinatorial=want_local_lp)

    S = build_group("SL" if sp.eps == 1 else "SU", n, cell.q)
    got_classes = S.conjugacy_classes().count
    record("sl_class_count", got_classes == count_irr_sl(n, sp),
           oracle=got_classes, combinatorial=count_irr_sl(n, sp))

    return out


# ---------------------------------------------------------------------------
# grid driver


def run_cell(cell: Cell, oracle_limit: int = ORACLE_ORDER_LIMIT,
             with_oracle: bool = True) -> dict:
    """check_cell, with a ValueError or OracleError turned into an error report."""
    try:
        return check_cell(cell, oracle_limit, with_oracle)
    except (ValueError, OracleError) as exc:
        return {
            "cell": cell.as_dict(),
            "degenerate": None,
            "counts": {},
            "checks": {},
            "witnesses": [{"check": "error", "error": str(exc)}],
            "ms": 0,
            "status": "error",
        }


def run_grid(cells=None, oracle_limit: int = ORACLE_ORDER_LIMIT,
             with_oracle: bool = True) -> list[dict]:
    """Check every cell; per-cell failures are collected, not raised."""
    if cells is None:
        cells = default_grid()
    return [run_cell(cell, oracle_limit, with_oracle) for cell in sorted(cells)]


def all_ok(reports) -> bool:
    return all(r["status"] == "ok" for r in reports)
