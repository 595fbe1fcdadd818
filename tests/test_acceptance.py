"""Acceptance gate: the eight certificates, one pass/fail line each.

Criteria 3, 4, 6 and 8 share the session-scoped full-grid run from
conftest; its wall time is charged to criterion 3.  The frontier test,
which confronts every default-grid cell with |G| <= 25000 with the oracle,
carries the `frontier` marker: the default options deselect it, and
`pytest -m frontier` runs it.
"""

import time

import pytest

from mckaylab import dixon, gggr
from mckaylab.bijection import (
    Cell,
    default_grid,
    oracle_table,
    run_grid,
    verify_vs_oracle,
)
from mckaylab.charparams import count_irr_sl, count_jordan_params
from mckaylab.exactfield import spp
from mckaylab.matrixoracle import build_group
from mckaylab.partitions import partitions


ACCEPTANCE_LINES: list[str] = []


def report(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(f"\n{line}")


def test_criterion_1_oracle_sanity():
    t0 = time.perf_counter()
    expectations = [
        ("SL", 2, 3, 7, [1, 1, 1, 2, 2, 2, 3]),
        ("GL", 2, 3, 8, [1, 1, 2, 2, 2, 3, 3, 4]),
        ("GL", 3, 2, 6, None),
        ("GU", 2, 2, 9, None),
    ]
    for kind, n, q, n_classes, degrees in expectations:
        _, table = oracle_table(kind, n, q)
        assert table.part.count == n_classes, f"{kind}_{n}({q}) class count"
        if degrees is not None:
            assert sorted(table.degrees) == degrees, f"{kind}_{n}({q}) degrees"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle sanity took {elapsed:.1f}s"
    report(f"criterion 1: PASS - exact tables for SL_2(3), GL_2(3), "
           f"GL_3(2), GU_2(2) in {elapsed:.2f}s")


def test_criterion_2_mckay_counts_vs_oracle():
    t0 = time.perf_counter()
    cases = [
        (Cell(2, 1, 3, 2), 4),
        (Cell(3, 1, 2, 7), 5),
        (Cell(2, -1, 2, 3), 9),
        (Cell(2, 1, 5, 3), 18),
    ]
    for cell, expected in cases:
        frag = verify_vs_oracle(cell)
        assert frag["ok"] is True, f"{cell.label()}: {frag}"
        leg = frag["global_ellprime"]
        assert leg["oracle"] == leg["combinatorial"] == expected, cell.label()
        sylow = frag["sylow_normalizer_ellprime"]
        assert sylow["oracle"] == sylow["combinatorial"] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"mckay-count check took {elapsed:.1f}s"
    report(f"criterion 2: PASS - oracle and combinatorial counts agree "
           f"(4, 5, 9, 18) on both routes in {elapsed:.2f}s")


def test_criterion_3_bijection_on_grid(grid_run):
    reports = grid_run["reports"]
    assert len(reports) == 90
    for rep in reports:
        assert rep["status"] == "ok", rep
        for key in ("bijective", "central", "zhat"):
            assert rep["checks"][key] is True, (rep["cell"], key)
        assert rep["counts"]["global"] == rep["counts"]["local"]
    elapsed = grid_run["elapsed"]
    assert elapsed < 600.0, f"grid run took {elapsed:.1f}s"
    n_pairs = sum(rep["counts"]["global"] for rep in reports)
    report(f"criterion 3: PASS - bijective, central-block and "
           f"translation-equivariant on 90 cells / {n_pairs} pairs "
           f"in {elapsed:.1f}s")


def test_criterion_4_degree_congruence(grid_run):
    for rep in grid_run["reports"]:
        assert rep["checks"]["in_congruence"] is True, rep["cell"]
    report("criterion 4: PASS - constituent degrees satisfy r = +/- r' "
           "mod ell for every pair on every cell")


def test_criterion_5_descent_parameter_counts(grid_run):
    seen = set()
    for rep in grid_run["reports"]:
        c = rep["cell"]
        key = (c["n"], c["eps"], c["q"])
        if key in seen:
            continue
        seen.add(key)
        sp = spp(c["eps"], c["q"])
        assert count_jordan_params(c["n"], sp) == count_irr_sl(c["n"], sp), key
    assert count_irr_sl(2, spp(1, 3)) == 7 \
        == build_group("SL", 2, 3).conjugacy_classes().count
    assert count_irr_sl(3, spp(1, 2)) == 6 \
        == build_group("SL", 3, 2).conjugacy_classes().count
    report(f"criterion 5: PASS - Jordan-style and orbit-style descent "
           f"counts agree on {len(seen)} group shapes; SL_2(3)=7 and "
           f"SL_3(2)=6 match the oracle")


def test_criterion_6_sum_of_squares(grid_run):
    for rep in grid_run["reports"]:
        assert rep["checks"]["sum_squares"] is True, rep["cell"]
    report("criterion 6: PASS - degree mass equals the group order on "
           "both sides of every cell")


def test_criterion_7_gelfand_graev():
    t0 = time.perf_counter()

    t_sweep = time.perf_counter()
    n_checked = gggr.sweep_parity_symmetry(30)
    sweep_s = time.perf_counter() - t_sweep
    assert sweep_s < 5.0, f"parity sweep took {sweep_s:.1f}s"

    n_pairs = 0
    n_twists = 0
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5):
            for lam in partitions(n):
                if q ** len(gggr.u2_positions(lam)) > gggr.U2_SIZE_LIMIT:
                    continue
                assert gggr.check_representative(lam, q), (lam, q)
                n_pairs += gggr.check_homomorphism(lam, q)
                n_twists += gggr.check_equivariance(lam, q)

    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        for lam in partitions(n):
            gggr.check_gamma_conjugacy(lam, q)

    for n, q in [(2, 2), (2, 3), (3, 2)]:
        res = gggr.check_multiplicity_one(n, q)
        assert res["all_covered"], (n, q)
        assert res["regular_multfree"], (n, q)
        assert res["trivial_gives_regular_rep"], (n, q)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"gelfand-graev checks took {elapsed:.1f}s"
    report(f"criterion 7: PASS - {n_checked} partitions swept, {n_pairs} "
           f"multiplicativity pairs, {n_twists} twist evaluations, "
           f"conjugating witnesses on 5 special groups, multiplicity one "
           f"on 3 oracle groups in {elapsed:.1f}s")


def test_criterion_8_ellprime_criteria(grid_run):
    for rep in grid_run["reports"]:
        assert rep["checks"]["ellprime_equiv"] is True, rep["cell"]
        assert rep["checks"]["mckay"] is True, rep["cell"]
    report("criterion 8: PASS - direct, factorization and structural "
           "prime-to-ell tests agree for every character on every cell")


@pytest.mark.frontier
def test_oracle_frontier_at_25000():
    t0 = time.perf_counter()
    reports = run_grid(default_grid(), oracle_limit=25000, with_oracle=True)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 90
    bad = [rep["cell"] for rep in reports if rep["status"] != "ok"]
    assert not bad, bad
    n_oracle = sum(rep["checks"]["oracle"] is True for rep in reports)
    assert n_oracle == 45
    assert elapsed < 40.0, f"oracle frontier took {elapsed:.1f}s"
    report(f"frontier: PASS - 90 cells ok, {n_oracle} confronted with the "
           f"oracle at |G| <= 25000 in {elapsed:.1f}s")
