"""Cell reports: schema, pairing, oracle cross-validation."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mckaylab import bijection, charparams, dixon, localside, matrixoracle
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
from mckaylab.exactfield import ell_val, spp
from mckaylab.charparams import degree
from mckaylab.localside import local_degree, local_order, torus_data
from mckaylab.matrixoracle import build_group, normalizer

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


def test_explicit_torus_orders():
    cases = [
        ("GL", 2, 3, 2, 8),    # companion block of a primitive quadratic
        ("GU", 2, 2, 3, 9),    # full norm-one torus
        ("GU", 2, 5, 2, 24),   # cyclic of order q^2 - 1
        ("GL", 2, 4, 3, 9),    # diagonal units over a non-prime field
        ("GU", 2, 4, 3, 15),   # cyclic of order q^2 - 1
        ("GU", 3, 2, 3, 27),   # full norm-one torus
        ("GU", 2, 7, 3, 48),   # cyclic of order q^2 - 1
    ]
    for kind, n, q, ell, order in cases:
        G = build_group(kind, n, q)
        torus = explicit_torus(G, ell)
        assert torus.order == order
        assert all(G.mul(g, h) == G.mul(h, g)
                   for g in torus.elements for h in torus.generators)
        assert torus_data(n, G.sp, ell).Q % torus.exponent() == 0
        assert normalizer(G, torus).order == local_order(n, G.sp, ell)


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


@pytest.mark.parametrize("args", [
    (2, 1, 3, 4),   # composite ell
    (3, 1, 5, 9),   # ell a prime power, not a prime
    (2, 1, 3, 3),   # ell divides q
    (2, 1, 6, 5),   # q not a prime power
    (2, 0, 3, 2),   # eps not a sign
    (0, 1, 3, 2),   # empty rank
])
def test_cell_rejects_invalid_parameters(args):
    with pytest.raises(ValueError):
        Cell(*args)


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


def _wrong_image(data):
    (i, _), (_, j) = data.pairs[0], data.pairs[1]
    return replace(data, pairs=_set(data.pairs, 0, (i, j)))


def _wrong_translate(data):
    i, j = data.pairs[0]
    image = dict(data.pairs)
    wrong = next(k for k, jk in image.items()
                 if jk != data.local.translates[j][1])
    row = _set(data.group.translates[i], 1, wrong)
    group = replace(data.group, translates=_set(data.group.translates, i, row))
    return replace(data, group=group)


def _wrong_local(data, field, j, value):
    entries = getattr(data.local, field)
    local = replace(data.local, **{field: _set(entries, j, value)})
    return replace(data, local=local)


def _wrong_local_translate(data):
    _, j = data.pairs[0]
    row = data.local.translates[j]
    return _wrong_local(data, "translates", j, _set(row, 1, row[2]))


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


def test_check_cell_computes_each_degree_and_transport_once(monkeypatch):
    charparams.group_table.cache_clear()
    degrees = _count_calls(monkeypatch, charparams.degree)
    transports = _count_calls(monkeypatch, localside.transport)
    rep = check_cell(Cell(3, 1, 5, 3), with_oracle=False)
    assert rep["status"] == "ok"
    assert degrees and len(set(degrees)) == len(degrees)
    assert len(set(transports)) == len(transports) == rep["counts"]["global"]


def test_oracle_check_cell_computes_each_local_degree_once(monkeypatch):
    localside.local_table.cache_clear()
    local_degrees = _count_calls(monkeypatch, localside.local_degree)
    rep = check_cell(Cell(2, 1, 3, 2))
    assert rep["checks"]["oracle"] is True
    assert local_degrees and len(set(local_degrees)) == len(local_degrees)


def test_oracle_builds_each_table_and_inverse_once(monkeypatch):
    """ell = 5 does not divide |GL_2(3)| = 48, so the Sylow and torus
    normalizers are all of G and share its one table and its inverses."""
    build_group.cache_clear()
    bijection.oracle_table.cache_clear()
    tables = _count_calls(monkeypatch, dixon._build_table)
    inversions = _count_calls(monkeypatch, matrixoracle.mat_inv)
    assert verify_vs_oracle(Cell(2, 1, 3, 5))["ok"] is True
    assert len(tables) == 1
    assert len(inversions) <= build_group("GL", 2, 3).order


def test_certificates_run_under_optimize():
    code = (
        "from mckaylab.bijection import Cell, check_cell\n"
        "from mckaylab.exactfield import CertificateError, spp\n"
        "from mckaylab.localside import LocalChar, wreath_index\n"
        "from mckaylab.charparams import enumerate_irr\n"
        "from mckaylab.dixon import CycContext\n"
        "print(check_cell(Cell(2, 1, 3, 2), with_oracle=False)['status'])\n"
        "bad = LocalChar(enumerate_irr(0, spp(1, 3))[0], ((1, 3),), (((1,),),))\n"
        "try:\n"
        "    wreath_index(bad, 2, spp(1, 3), 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "from mckaylab import gggr\n"
        "gggr.psi_exponent = lambda F, exact2, u, g: 1   # not additive\n"
        "try:\n"
        "    gggr.check_homomorphism((2,), 3)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "ctx = CycContext(12)\n"
        "try:\n"
        "    ctx.divide_int(ctx.from_int(3), 2)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "import dataclasses\n"
        "from itertools import islice\n"
        "from mckaylab import dixon, matrixoracle as mo\n"
        "G = mo.build_group('GL', 2, 3)\n"
        "P = mo.sylow_subgroup(G, 2)\n"
        "charpoly = dixon._charpoly\n"
        "dixon._charpoly = lambda a, r: [c + 1 for c in charpoly(a, r)]\n"
        "try:\n"
        "    dixon.character_table(dataclasses.replace(G, _table=None))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "greedy = mo.find_generators\n"
        "mo.find_generators = lambda c, *rest: greedy(islice(c, 1), *rest)\n"
        "try:\n"
        "    mo.normalizer(G, P)\n"
        "except mo.OracleError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["ok"] + ["raised"] * 5
