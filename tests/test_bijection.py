"""Cell reports: schema, pairing, oracle cross-validation."""

import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mckaylab import (
    bijection,
    charparams,
    dixon,
    localside,
    matrixoracle,
    ssclasses,
)
from mckaylab.bijection import (
    Cell,
    all_ok,
    cell_data,
    check_bijective,
    check_cell,
    check_central,
    check_ellprime,
    check_in_congruence,
    check_sum_squares,
    check_zhat,
    default_grid,
    explicit_torus,
    omega_tilde,
    run_grid,
    verify_vs_oracle,
)
from mckaylab.exactfield import (
    build_field,
    ell_val,
    factor_field,
    group_order,
    spp,
)
from mckaylab.charparams import (
    char_type,
    degree,
    ellprime_structural,
    enumerate_irr,
    group_table,
    index_order,
    to_params,
)
from mckaylab.ssclasses import centralizer_type
from mckaylab.localside import local_degree, local_order, torus_data
from mckaylab.matrixoracle import (
    OracleError,
    build_group,
    conj_transpose,
    form_matrix,
    identity_matrix,
    mat_mul,
    mat_rank,
    normalizer,
)

REPORT_KEYS = {"cell", "degenerate", "counts", "checks", "witnesses", "ms",
               "status"}
COUNT_KEYS = {"global", "local", "ellprime_global", "ellprime_local",
              "per_nu"}
CHECK_KEYS = {"bijective", "central", "zhat", "in_congruence", "mckay",
              "ellprime_equiv", "jordan_eq", "sum_squares", "oracle"}


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 90
    assert all(cell.sp.p != cell.ell for cell in grid)
    assert list(grid) == sorted(grid)


def test_report_schema():
    rep = check_cell(Cell(2, 1, 3, 2))
    assert set(rep) == REPORT_KEYS
    assert set(rep["counts"]) == COUNT_KEYS
    assert set(rep["checks"]) == CHECK_KEYS
    assert rep["status"] == "ok"
    assert rep["degenerate"] is False
    assert isinstance(rep["ms"], int)


def test_rank_two_cell_counts():
    rep = check_cell(Cell(2, 1, 3, 2))
    assert rep["counts"]["global"] == 5
    assert rep["counts"]["local"] == 5
    assert rep["counts"]["ellprime_global"] == 4
    assert rep["counts"]["ellprime_local"] == 4
    assert rep["counts"]["per_nu"] == {"0": 5}
    assert all(v is not False for v in rep["checks"].values())
    assert rep["checks"]["oracle"] is True


def test_unitary_cell_counts():
    rep = check_cell(Cell(2, -1, 2, 3))
    assert rep["counts"]["global"] == 9
    assert rep["counts"]["per_nu"] == {"0": 3, "1": 3, "2": 3}
    assert rep["status"] == "ok"


def test_degenerate_cell_is_flagged_and_passes():
    rep = check_cell(Cell(2, 1, 3, 13))
    assert rep["degenerate"] is True
    assert rep["status"] == "ok"
    assert rep["checks"]["oracle"] is True


def test_omega_tilde_pairs_degrees():
    cell = Cell(2, 1, 3, 2)
    pairs = omega_tilde(cell)
    assert len(pairs) == 5
    n, sp, ell = cell.n, cell.sp, cell.ell
    got = sorted((degree(chi, n, sp), local_degree(psi, n, sp, ell))
                 for chi, psi in pairs)
    assert got == [(1, 1), (1, 1), (2, 2), (3, 1), (3, 1)]


@pytest.mark.parametrize("args", [
    (2, 1, 3, 2), (3, 1, 2, 7), (2, -1, 2, 3), (2, 1, 2, 3), (3, -1, 2, 3),
    (2, -1, 5, 2), (2, 1, 4, 3), (2, -1, 4, 3),
])
def test_oracle_cross_validation(args):
    frag = verify_vs_oracle(Cell(*args))
    assert frag["ok"] is True


def test_oracle_skips_large_groups():
    frag = verify_vs_oracle(Cell(4, 1, 7, 2))
    assert frag["ok"] is None


def _check_torus(G, ell, order):
    torus = explicit_torus(G, ell)
    assert torus.order == order
    assert all(G.mul(g, h) == G.mul(h, g)
               for g in torus.elements for h in torus.generators)
    reps = torus.conjugacy_classes().reps
    assert torus_data(G.n, G.sp, ell).Q % math.lcm(*map(torus.element_order, reps)) == 0
    assert normalizer(G, torus).order == local_order(G.n, G.sp, ell)


def test_explicit_torus_orders(monkeypatch):
    # GU(4,2) has order 77760, past the default GROUP_SIZE_LIMIT
    monkeypatch.setattr(matrixoracle, "GROUP_SIZE_LIMIT", 77760)
    cases = [
        ("GL", 2, 3, 2, 8),      # d0 = 2: one cyclic block of order 8
        ("GU", 2, 2, 3, 9),      # d0 = 1: two norm-one blocks
        ("GU", 2, 5, 2, 24),     # cyclic of order q^2 - 1
        ("GL", 2, 4, 3, 9),      # diagonal units over a non-prime field
        ("GU", 2, 4, 3, 15),     # cyclic of order q^2 - 1
        ("GU", 3, 2, 3, 27),     # d0 = 1: three norm-one blocks
        ("GU", 2, 7, 3, 48),     # cyclic of order q^2 - 1
        ("GU", 4, 2, 3, 81),     # C_3^4: no regular element of G
    ]
    for kind, n, q, ell, order in cases:
        _check_torus(build_group(kind, n, q), ell, order)


@pytest.mark.frontier
def test_explicit_torus_past_the_oracle_cap(monkeypatch):
    # GU(3,4) has order 312000
    monkeypatch.setattr(matrixoracle, "GROUP_SIZE_LIMIT", 312000)
    t0 = time.perf_counter()
    _check_torus(build_group("GU", 4, 2), 5, 15)      # d0 = n
    _check_torus(build_group("GU", 3, 4), 3, 15)      # m = 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"past-cap tori took {elapsed:.1f}s"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_unit_basis_makes_the_unitary_form_scalar(q):
    sp = spp(-1, q)
    F = build_field(sp.p, 2 * sp.m)
    for n in range(1, 5):
        G = SimpleNamespace(n=n, sp=sp, F=F, v0=form_matrix(n, F),
                            identity=identity_matrix(n))
        P = bijection._unit_basis(G)
        assert mat_rank(P, F) == n
        gram = mat_mul(mat_mul(conj_transpose(P, F, q), G.v0, F), P, F)
        s = gram[0][0]
        assert gram == tuple(tuple(s if i == j else 0 for j in range(n))
                             for i in range(n)), (n, q)
        # h = v0 when v0 is Hermitian; otherwise h = delta.v0 with
        # conj(delta) = -delta, and P^* v0 P = delta^-1.I
        if conj_transpose(G.v0, F, q) == G.v0:
            assert s == 1, (n, q)
        else:
            assert F.pow(s, q) == F.neg(s) != s, (n, q)


def test_explicit_torus_rejects_a_wrong_basis(monkeypatch):
    G = build_group("GU", 3, 2)
    monkeypatch.setattr(bijection, "_unit_basis", lambda G: G.identity)
    with pytest.raises(OracleError, match="not commuting elements of G"):
        explicit_torus(G, 3)


def test_run_grid_collects_cell_errors(monkeypatch):
    def broken(*args):
        raise ValueError("ell divides q")

    monkeypatch.setattr(bijection, "torus_data", broken)
    reports = run_grid([Cell(2, 1, 3, 2)])
    assert reports[0]["status"] == "error"
    assert reports[0]["witnesses"] == [{"check": "error",
                                        "error": "ell divides q"}]
    assert not all_ok(reports)


def test_run_grid_ok_on_small_sample():
    reports = run_grid([Cell(2, 1, 3, 2), Cell(2, -1, 2, 3)],
                       with_oracle=False)
    assert all_ok(reports)
    assert [r["cell"]["kind"] for r in reports] == ["GU", "GL"]


INVALID_CELLS = {   # each row with the message of its first fault
    (2, 1, 3, 4): "ell=4 is not prime",       # composite ell
    (3, 1, 5, 9): "ell=9 is not prime",       # a prime power, not a prime
    (2, 1, 3, 3): "ell=3 divides q=3",
    (2, 1, 6, 5): "6 is not a prime power",
    (2, 0, 3, 2): "eps=0 must be",            # eps not a sign
    (0, 1, 3, 2): "n=0 must be",              # empty rank
}


@pytest.mark.parametrize("args", list(INVALID_CELLS))
def test_cell_rejects_invalid_parameters(args):
    # Cell(*row) itself refuses the row, before any attribute is read
    with pytest.raises(ValueError, match=INVALID_CELLS[args]):
        Cell(*args)


def test_cell_record_semantics():
    grid = default_grid()
    assert list(grid) == sorted(grid, key=lambda c: (c.n, c.eps, c.q, c.ell))
    assert repr(Cell(2, 1, 3, 2)) == "Cell(n=2, eps=1, q=3, ell=2)"
    a, b = Cell(2, -1, 4, 5), Cell(2, -1, 4, 5)
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != Cell(2, -1, 4, 3) and a < Cell(2, 1, 2, 3)
    back = pickle.loads(pickle.dumps(grid))
    assert back == grid
    assert [c.sp for c in back] == [c.sp for c in grid] \
        == [spp(c.eps, c.q) for c in grid]


@st.composite
def small_valid_cells(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    ell = draw(st.sampled_from([l for l in (2, 3, 5, 7, 11, 13) if q % l]))
    return Cell(draw(st.integers(1, 3)), draw(st.sampled_from((1, -1))), q, ell)


@settings(max_examples=25, deadline=None)
@given(small_valid_cells())
def test_random_small_valid_cells_are_ok(cell):
    rep = check_cell(cell, with_oracle=False)
    assert rep["status"] == "ok", (cell, rep["checks"])


# ---------------------------------------------------------------------------
# every check must notice one wrong table entry


def _set(entries: tuple, k: int, value) -> tuple:
    return entries[:k] + (value,) + entries[k + 1:]


def replace(record, **changes):
    """A new record of the slotted type of record, with its fields and
    changes over them."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def _wrong_image(data):
    (i, _), (_, j) = data.pairs[0], data.pairs[1]
    return replace(data, pairs=_set(data.pairs, 0, (i, j)))


def _wrong_translate(data):
    i, j = data.pairs[0]
    image = dict(data.pairs)
    wrong = next(k for k, jk in image.items() if jk != data.local.shift[j])
    group = replace(data.group, shift=_set(data.group.shift, i, wrong))
    return replace(data, group=group)


def _wrong_local(data, field, j, value):
    entries = getattr(data.local, field)
    local = replace(data.local, **{field: _set(entries, j, value)})
    return replace(data, local=local)


def _wrong_local_translate(data):
    _, j = data.pairs[0]
    shift = data.local.shift
    return _wrong_local(data, "shift", j, shift[shift[j]])


def _wrong_degree(data):
    i, _ = data.pairs[0]
    degrees = data.group.degrees
    group = replace(data.group, degrees=_set(degrees, i,
                                             degrees[i] * data.cell.ell))
    return replace(data, group=group)


def _wrong_local_degree(data):
    _, j = data.pairs[0]
    return _wrong_local(data, "degrees", j,
                        data.local.degrees[j] * data.cell.ell)


def _wrong_central(data):
    _, j = data.pairs[0]
    return _wrong_local(data, "centrals", j, (data.local.centrals[j] + 1) % 3)


def _ok(check, data, note):
    verdict = check(data, note)
    return verdict[0] if isinstance(verdict, tuple) else verdict


@pytest.mark.parametrize("corrupt,check", [
    (_wrong_image, check_bijective),
    (_wrong_image, check_zhat),
    (_wrong_translate, check_zhat),
    (_wrong_local_translate, check_zhat),
    (_wrong_degree, check_in_congruence),
    (_wrong_degree, check_ellprime),
    (_wrong_degree, check_sum_squares),
    (_wrong_local_degree, check_ellprime),
    (_wrong_local_degree, check_sum_squares),
    (_wrong_central, check_central),
])
def test_checks_fail_on_one_wrong_table_entry(corrupt, check):
    data = cell_data(Cell(2, -1, 2, 3))   # M_1 = 3, nine pairs
    witnesses = []

    def note(kind, **payload):
        witnesses.append(kind)

    assert _ok(check, data, note) is True
    assert witnesses == []
    assert _ok(check, corrupt(data), note) is False
    assert witnesses


def test_ellprime_equiv_fails_on_a_wrong_degree_past_the_first_of_its_type():
    # The structural test runs once per type and the Jordan test once per
    # (type, table degree): a wrong degree on a character whose type was met
    # before still fails against them and is named in the witness.
    cell = Cell(3, 1, 5, 3)
    data = cell_data(cell)
    seen, i = set(), None
    for k, (chi, deg) in enumerate(zip(data.group.chars, data.group.degrees)):
        t = char_type(chi)
        if t in seen and ell_val(deg, cell.ell) == 0:
            i = k
            break
        seen.add(t)
    assert i is not None
    group = replace(data.group, degrees=_set(
        data.group.degrees, i, data.group.degrees[i] * cell.ell))
    witnesses = []
    ok, _, _ = check_ellprime(replace(data, group=group),
                              lambda kind, **payload: witnesses.append(
                                  (kind, payload)))
    assert ok is False
    assert ("ellprime_equiv", {"side": "global",
                               "global_char": to_params(data.group.chars[i])}) \
        in witnesses


def test_a_degree_the_index_does_not_divide_fails_ellprime_equiv(monkeypatch):
    # GU(2,3) ell=5 with its first and last global degrees swapped: the
    # Jordan test meets a degree its p'-index does not divide.
    cell = Cell(2, -1, 3, 5)
    data = cell_data(cell)
    degrees = data.group.degrees
    swapped = replace(data, group=replace(
        data.group, degrees=degrees[-1:] + degrees[1:-1] + degrees[:1]))
    monkeypatch.setattr(bijection, "cell_data", lambda c: swapped)
    rep = bijection.run_cell(cell, with_oracle=False)
    assert rep["status"] == "fail"
    assert rep["checks"]["ellprime_equiv"] is False
    assert any(w["check"] == "ellprime_equiv" for w in rep["witnesses"])


TYPE_GROUPS = [(n, eps, q) for n in (1, 2, 3) for eps in (1, -1)
               for q in (2, 3, 4, 5)] + [(4, 1, 3)]


@pytest.mark.parametrize("n,eps,q", TYPE_GROUPS)
def test_type_level_columns_equal_the_per_character_routines(n, eps, q):
    """The table degree (degree on the first character of the type), the
    index memoised by centralizer type, and the ell-prime tests that
    check_ellprime evaluates once per type and once per (type, degree)
    equal the routines evaluated on every character itself."""
    sp = spp(eps, q)
    table = group_table(n, sp)
    first = {}
    for chi, deg in zip(table.chars, table.degrees):
        rep = first.setdefault(char_type(chi), chi)
        assert deg == degree(chi, n, sp)
        centralizer = 1
        for (k, _), m in chi.cls:
            centralizer *= group_order(m, factor_field(k, sp))
        assert index_order(centralizer_type(chi.cls), n, sp) \
            == group_order(n, sp) // centralizer
        for ell in (2, 3, 5, 7):
            if ell == sp.p:
                continue
            assert ellprime_structural(rep, n, sp, ell) \
                == ellprime_structural(chi, n, sp, ell)
            assert bijection._jordan_ellprime(rep, deg, n, sp, ell) \
                == bijection._jordan_ellprime(chi, deg, n, sp, ell)


def test_ellprime_count_does_not_read_the_degree_table(monkeypatch):
    # One ell-prime degree made divisible by ell, in the cell's table and in
    # the memoised one: a count read off the same table would agree with it.
    cell = Cell(2, -1, 2, 3)
    table = charparams.group_table(cell.n, cell.sp)
    i = next(i for i, d in enumerate(table.degrees) if ell_val(d, cell.ell) == 0)
    wrong = replace(table, degrees=_set(table.degrees, i,
                                        table.degrees[i] * cell.ell))
    original = charparams.group_table
    monkeypatch.setattr(
        charparams, "group_table",
        lambda n, sp: wrong if (n, sp) == (cell.n, cell.sp) else original(n, sp))
    witnesses = []
    ok, _, _ = check_ellprime(replace(cell_data(cell), group=wrong),
                              lambda kind, **payload: witnesses.append(kind))
    assert ok is False
    assert "ellprime_count" in witnesses


# ---------------------------------------------------------------------------
# no repeated work


def _count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call to fn, wherever it is bound."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mckaylab"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_cell_pickles_with_its_signed_prime_power():
    # the --workers pool ships cells to its processes by pickle
    cell = Cell(2, -1, 4, 5)
    back = pickle.loads(pickle.dumps(cell))
    assert back == cell and back.sp == cell.sp == spp(-1, 4)


def _clear_local_tables():
    for fn in (localside.local_table, localside.enumerate_local_irr,
               localside.theta_orbits):
        fn.cache_clear()


def test_trivial_torus_reads_no_orbit_table(monkeypatch):
    """GL_2(5) at ell = 7 has d0 = 6 > n, so a = 0 and no label reads the
    eq-power orbits on Z/M_6; GL_3(7) at ell = 2 has a = 1 and reads them."""
    cell = Cell(2, 1, 5, 7)
    trivial = torus_data(2, cell.sp, 7)
    assert (trivial.d0, trivial.a) == (6, 0)
    before = check_cell(cell)
    eq_orbits, read = localside.eq_orbits, []

    def guarded(k, sp):
        if k == 6:
            raise AssertionError("orbit table read on a trivial torus")
        read.append((k, sp))
        return eq_orbits(k, sp)

    monkeypatch.setattr(localside, "eq_orbits", guarded)
    _clear_local_tables()
    assert localside.local_table(2, cell.sp, 7).chars
    assert cell_data(cell).pairs
    after = check_cell(cell)
    del before["ms"], after["ms"]
    assert after == before and after["status"] == "ok"

    wide = Cell(3, 1, 7, 2)
    td = torus_data(3, wide.sp, 2)
    assert td.a == 1
    _clear_local_tables()
    assert check_cell(wide, with_oracle=False)["status"] == "ok"
    assert (td.d0, wide.sp) in read


def test_check_cell_computes_each_degree_and_transport_once(monkeypatch):
    """degree runs exactly once per type of each group built: GL_3(5) and
    the GL_1(5) factor of the local side."""
    charparams.group_table.cache_clear()
    degrees = _count_calls(monkeypatch, charparams.degree)
    transports = _count_calls(monkeypatch, localside.transport)
    cell = Cell(3, 1, 5, 3)
    rep = check_cell(cell, with_oracle=False)
    assert rep["status"] == "ok"
    ranks = {n for _, n, _ in degrees}
    assert ranks == {cell.n, torus_data(cell.n, cell.sp, cell.ell).m}
    types = {(n, char_type(chi)) for n in ranks
             for chi in enumerate_irr(n, cell.sp)}
    assert sorted((n, char_type(chi)) for chi, n, _ in degrees) \
        == sorted(types)
    assert len(set(transports)) == len(transports) == rep["counts"]["global"]


def test_jordan_count_runs_once_per_group(monkeypatch):
    charparams.count_jordan_params.cache_clear()
    walks = _count_calls(monkeypatch, ssclasses.pgl_ss_classes)
    for ell in (2, 3):
        assert check_cell(Cell(2, 1, 5, ell), with_oracle=False)["checks"][
            "jordan_eq"] is True
    assert len(walks) == 1


def test_oracle_check_cell_computes_each_local_degree_once(monkeypatch):
    localside.local_table.cache_clear()
    local_degrees = _count_calls(monkeypatch, localside.local_degree)
    rep = check_cell(Cell(2, 1, 3, 2))
    assert rep["checks"]["oracle"] is True
    assert local_degrees and len(set(local_degrees)) == len(local_degrees)


def test_oracle_builds_each_table_once(monkeypatch):
    """ell = 5 does not divide |GL_2(3)| = 48, so the Sylow and torus
    normalizers are all of G and share its one table."""
    build_group.cache_clear()
    bijection.oracle_table.cache_clear()
    tables = _count_calls(monkeypatch, dixon._build_table)
    assert verify_vs_oracle(Cell(2, 1, 3, 5))["ok"] is True
    assert len(tables) == 1


def test_sylow_and_torus_normalizers_share_one_table(monkeypatch):
    """P is taken inside N_G(S0), so on GL(2,5) ell=3 its normalizer is the
    torus normalizer's view: G and NT = NP are the only tables."""
    build_group.cache_clear()
    bijection.oracle_table.cache_clear()
    tables = _count_calls(monkeypatch, dixon._build_table)
    assert verify_vs_oracle(Cell(2, 1, 5, 3))["ok"] is True
    assert len(tables) == 2


@pytest.mark.frontier
def test_a_sylow_normalizer_smaller_than_the_torus_normalizer_gets_its_table(
        monkeypatch):
    """On GU(3,3) ell=2, |N_G(P)| = 128 and |N_G(S0)| = 384: G, NT and NP
    each build a table.  |G| = 24192 is past the default oracle limit, so
    this runs with the frontier tests."""
    build_group.cache_clear()
    bijection.oracle_table.cache_clear()
    tables = _count_calls(monkeypatch, dixon._build_table)
    out = verify_vs_oracle(Cell(3, -1, 3, 2), oracle_limit=25000)
    assert out["ok"] is True
    assert out["sylow_normalizer_ellprime"]["normalizer_order"] == 128
    assert out["torus_normalizer_order"]["oracle"] == 384
    assert sorted(view.order for view, in tables) == [128, 384, 24192]


def test_a_sylow_subgroup_short_of_the_ell_part_is_an_error(monkeypatch):
    sylow = bijection.sylow_subgroup
    cell = Cell(2, 1, 3, 2)

    def first_generator_only(view, ell):
        return matrixoracle.subgroup_closure(view, sylow(view, ell).generators[:1])

    monkeypatch.setattr(bijection, "sylow_subgroup", first_generator_only)
    G = build_group("GL", 2, 3)
    assert 1 < first_generator_only(G, 2).order < 16
    with pytest.raises(OracleError, match="holds no Sylow 2-subgroup"):
        verify_vs_oracle(cell)
    rep = bijection.run_cell(cell)
    assert rep["status"] == "error"
    assert "holds no Sylow 2-subgroup" in rep["witnesses"][0]["error"]


def test_character_table_inverts_no_element_beyond_generators_and_classes(monkeypatch):
    """The class matrices read inverse classes, so a fresh view of GL_2(3)
    inverts its generators (for the conjugacy classes) and its class
    representatives, not its 48 elements."""
    build_group.cache_clear()
    G = build_group("GL", 2, 3)
    inversions = _count_calls(monkeypatch, matrixoracle.mat_inv)
    dixon.character_table(G)
    assert len(inversions) <= G.conjugacy_classes().count + len(G.generators)


def test_certificates_run_under_optimize():
    code = (
        "from mckaylab.bijection import Cell, check_cell\n"
        "from mckaylab.exactfield import CertificateError, spp\n"
        "from mckaylab.localside import LocalChar, wreath_index\n"
        "from mckaylab.charparams import enumerate_irr, label_table\n"
        "from mckaylab.dixon import CycContext\n"
        "print(check_cell(Cell(2, 1, 3, 2), with_oracle=False)['status'])\n"
        "bad = LocalChar(enumerate_irr(0, spp(1, 3))[0], ((1, 3),), (((1,),),))\n"
        "try:\n"
        "    wreath_index(bad, 2, spp(1, 3), 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "from mckaylab import gggr\n"
        "gens = gggr.u2_generators   # without the level-2 position (1, 0)\n"
        "gggr.u2_generators = lambda lam, F: gens(lam, F)[1:]\n"
        "limit, gggr.HOM_EXHAUSTIVE_LIMIT = gggr.HOM_EXHAUSTIVE_LIMIT, 0\n"
        "try:   # the partners are the generators\n"
        "    gggr.check_homomorphism((3, 1), 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "gggr.HOM_EXHAUSTIVE_LIMIT = limit\n"
        "gggr.frobenius_twist = lambda g, F: ((g[0][0], 1),) + g[1:]\n"
        "try:\n"
        "    gggr.check_equivariance((2,), 3)   # the twist leaves U_2\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "gggr.psi_exponent = lambda F, exact2, u, g: 1   # not additive\n"
        "try:\n"
        "    gggr.check_homomorphism((2,), 3)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "try:\n"
        "    label_table(('a', 'b'), len, len, lambda c: 'a', 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "ctx = CycContext(12)\n"
        "try:\n"
        "    ctx.divide_int(ctx.from_int(3), 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "from itertools import islice\n"
        "from mckaylab import dixon, matrixoracle as mo\n"
        "G = mo.build_group('GL', 2, 3)\n"
        "def fresh(G):   # a new view from G's fields, with nothing G computed\n"
        "    return mo.MatrixGroup(G.kind, G.n, G.sp, G.F, G.v0,\n"
        "        elements=G.elements, generators=G.generators, identity=G.identity,\n"
        "        mul=G.mul, inv=G.inv, right=G.right, perms=G.perms)\n"
        "P = mo.sylow_subgroup(G, 2)\n"
        "charpoly = dixon._charpoly\n"
        "dixon._charpoly = lambda a, r: [c + 1 for c in charpoly(a, r)]\n"
        "try:\n"
        "    dixon.character_table(fresh(G))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "dixon._charpoly = charpoly\n"
        "mats, walks = dixon._class_matrices(G, G.conjugacy_classes())\n"
        "mats[0][1][0] += 1   # the identity's, kept by the ratio test\n"
        "dixon._class_matrices = lambda view, part: (mats, walks)\n"
        "try:\n"
        "    dixon.character_table(fresh(G))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "walk = mo.closure\n"
        "mo.closure = lambda c, *rest: walk(islice(c, 1), *rest)\n"
        "try:   # the Schreier closure falls short of |N|\n"
        "    mo.normalizer(G, P)\n"
        "except mo.OracleError:\n"
        "    print('raised')\n"
        "trivial = mo.subgroup_closure(G, ())\n"
        "mo.subgroup_closure = lambda parent, gens: parent if gens else trivial\n"
        "try:\n"
        "    mo.sylow_subgroup(G, 3)\n"
        "except mo.OracleError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["ok"] + ["raised"] * 10
