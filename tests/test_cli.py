"""Command-line interface: exit codes, formats, determinism."""

import concurrent.futures
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from sympy import isprime, primefactors

from mckaylab import bijection, cli, gggr
from mckaylab.bijection import explicit_torus
from mckaylab.cli import main
from mckaylab.exactfield import _MR_BOUND, CertificateError
from mckaylab.matrixoracle import GROUP_SIZE_LIMIT, OracleError


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_verify_single_cell_table():
    res = run("verify", "--n", "2", "--q", "3", "--eps", "+1", "--ell", "2")
    assert res.exit_code == 0
    assert "ellprime=4/4" in res.output
    assert "pairs=5/5" in res.output


def test_verify_rejects_ell_dividing_q():
    res = run("verify", "--n", "2", "--q", "3", "--ell", "3")
    assert res.exit_code == 2
    assert "divides" in res.output


def test_verify_requires_cell_or_grid():
    res = run("verify", "--n", "2")
    assert res.exit_code == 2


def test_verify_json_schema_and_determinism():
    args = ("verify", "--n", "2", "--q", "2", "--eps", "-1", "--ell", "3",
            "--format", "json")
    out1 = run(*args)
    out2 = run(*args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    reports = json.loads(out1.output)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["cell"] == {"kind": "GU", "n": 2, "q": 2, "eps": -1, "ell": 3}
    assert rep["ms"] is None
    assert rep["checks"]["bijective"] is True


def test_verify_grid_file(tmp_path):
    grid = tmp_path / "cells.json"
    grid.write_text(json.dumps([[2, 1, 3, 2], [2, -1, 2, 3]]))
    res = run("verify", "--grid", str(grid), "--no-oracle")
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 2


DATA = Path(__file__).resolve().parent / "data"


def test_verify_json_report_is_byte_identical_to_the_golden_file():
    """golden_cells.json: both signs, M_1 = 1, 2, 3, 4, 5, 6, 7, 8, the
    oracle on the four cells with |G| <= 750, and nontrivial A(s) on GL(2,3),
    GU(2,3), GL(3,7) and GU(2,7).  Any change to a verdict, count or key
    shows here."""
    res = run("verify", "--grid", str(DATA / "golden_cells.json"),
              "--format", "json")
    assert res.exit_code == 0
    assert res.stdout_bytes == (DATA / "golden_report.json").read_bytes()


def test_verify_bad_grid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    res = run("verify", "--grid", str(bad))
    assert res.exit_code == 2


def test_oracle_command():
    res = run("oracle", "--kind", "SL", "--n", "2", "--q", "3")
    assert res.exit_code == 0
    assert "order 24" in res.output
    assert "classes 7" in res.output
    assert "1 1 1 2 2 2 3" in res.output


def test_oracle_json_with_ellprime():
    res = run("oracle", "--kind", "GL", "--n", "2", "--q", "3",
              "--ell", "2", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["order"] == 48
    assert payload["ellprime"] == 4


def test_oracle_usage_errors():
    assert run("oracle", "--kind", "GL", "--n", "4", "--q", "7").exit_code == 2
    assert run("oracle", "--kind", "GL", "--n", "2", "--q", "3",
               "--ell", "3").exit_code == 2


def test_oracle_rejects_the_characteristic_as_ell_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a group")

    monkeypatch.setattr(cli, "build_group", refuse)
    res = run("oracle", "--kind", "GU", "--n", "3", "--q", "3", "--ell", "3")
    assert res.exit_code == 2
    assert "ell=3 divides q=3" in res.output


def test_gggr_parity():
    res = run("gggr", "--n", "12", "--check", "parity")
    assert res.exit_code == 0
    assert "12" in res.output


def test_gggr_gamma_conj_single_lambda():
    res = run("gggr", "--n", "2", "--q", "3", "--lambda", "2",
              "--check", "gamma-conj")
    assert res.exit_code == 0
    assert "witness found" in res.output


def test_gggr_needs_q_for_group_checks():
    res = run("gggr", "--n", "2", "--check", "gamma-conj")
    assert res.exit_code == 2


def test_gggr_rejects_bad_lambda():
    res = run("gggr", "--n", "3", "--q", "2", "--lambda", "2,2",
              "--check", "gamma-conj")
    assert res.exit_code == 2


def test_gggr_lam_is_rejected_by_the_all_partition_checks():
    for which in ("parity", "mult-one"):
        res = run("gggr", "--n", "2", "--q", "3", "--lam", "1,1",
                  "--check", which)
        assert res.exit_code == 2, which
        assert "takes no --lam" in res.output


def test_gggr_parity_rejects_q():
    for q in ("3", "6"):
        res = run("gggr", "--check", "parity", "--n", "3", "--q", q)
        assert res.exit_code == 2, q
        assert "takes no --q" in res.output


def test_verify_grid_rejects_cell_options():
    for extra in (["--n", "2"], ["--q", "3"], ["--ell", "2"],
                  ["--n", "2", "--q", "3", "--ell", "2"]):
        res = run("verify", *extra, "--grid", "default", "--no-oracle")
        assert res.exit_code == 2, extra
        assert "--grid takes no" in res.output


def test_gggr_mult_one_json():
    res = run("gggr", "--n", "2", "--q", "2", "--check", "mult-one",
              "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["all_covered"] is True
    assert payload["multiplicities"]["2"] == [1, 0, 1]
    assert payload["status"] == "ok"


def test_gggr_hom_check():
    res = run("gggr", "--n", "2", "--q", "2", "--lambda", "2",
              "--check", "hom")
    assert res.exit_code == 0
    assert "pairs" in res.output


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    res = run("verify", "--n", "2", "--q", "3", "--eps", "+1", "--ell", "2",
              "--format", "json", "--out", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text())[0]["status"] == "ok"


@pytest.mark.parametrize("args", [
    ("verify", "--n", "2", "--q", "3", "--ell", "2", "--out", "MISSING"),
    ("oracle", "--kind", "GL", "--n", "2", "--q", "3", "--out", "MISSING"),
    ("gggr", "--check", "parity", "--n", "3", "--out", "MISSING"),
    ("gggr", "--check", "mult-one", "--n", "2", "--q", "3", "--out", "DIR"),
    ("verify", "--n", "2", "--q", "3", "--ell", "2", "--workers", "0"),
    ("verify", "--n", "2", "--q", "3", "--ell", "2", "--workers", "-1"),
], ids=["verify-out", "oracle-out", "gggr-out", "gggr-out-dir",
        "workers-0", "workers-neg"])
def test_bad_out_or_workers_is_a_usage_error_before_any_work(
        args, tmp_path, monkeypatch):
    def no_work(*_):
        raise AssertionError("work started before the usage check")

    for owner, name in ((cli, "run_grid"), (cli, "build_group"),
                        (gggr, "sweep_parity_symmetry"),
                        (gggr, "check_multiplicity_one")):
        monkeypatch.setattr(owner, name, no_work)
    paths = {"MISSING": str(tmp_path / "missing" / "x.json"),
             "DIR": str(tmp_path)}
    args = [paths.get(a, a) for a in args]
    res = run(*args)
    assert res.exit_code == 2
    assert (args[-1] if args[-2] == "--out" else "--workers") in res.output


def test_out_probe_creates_and_truncates_nothing(tmp_path):
    old = tmp_path / "old.txt"
    old.write_text("kept\n")
    new = tmp_path / "new.txt"
    # both commands stop at a usage error after --out is checked
    assert run("verify", "--n", "2", "--out", str(old)).exit_code == 2
    assert run("verify", "--n", "2", "--out", str(new)).exit_code == 2
    assert old.read_text() == "kept\n"
    assert not new.exists()


def test_verify_rejects_invalid_cells():
    for n, q, eps, ell in (("2", "3", "+1", "4"), ("3", "5", "+1", "9"),
                           ("2", "6", "+1", "5"), ("0", "3", "+1", "2")):
        res = run("verify", "--n", n, "--q", q, "--eps", eps, "--ell", ell)
        assert res.exit_code == 2, (n, q, ell)


def test_verify_rejects_invalid_grid_rows(tmp_path):
    for row in ([2, 1, 3, 4], [2, 0, 3, 2], [2, 1, 3.7, 2], [2, 1, 3.0, 2],
                [True, 1, 3, 2], ["2", 1, 3, 2], [2, 1, 3]):
        grid = tmp_path / "cells.json"
        grid.write_text(json.dumps([row]))
        assert run("verify", "--grid", str(grid)).exit_code == 2, row


def test_verify_workers_report_cell_errors_like_one_worker(tmp_path,
                                                          monkeypatch):
    # The unitary cell's torus raises OracleError inside check_cell; forked
    # workers inherit the patch.
    def torus(G, ell):
        if G.kind == "GU":
            raise OracleError("no torus")
        return explicit_torus(G, ell)

    monkeypatch.setattr(bijection, "explicit_torus", torus)
    grid = tmp_path / "cells.json"
    grid.write_text(json.dumps([[2, -1, 2, 3], [2, 1, 3, 2]]))
    args = ("verify", "--grid", str(grid), "--format", "json")
    one = run(*args, "--workers", "1")
    two = run(*args, "--workers", "2")
    assert one.exit_code == two.exit_code == 1
    assert one.output == two.output
    reports = json.loads(one.output)
    assert [r["status"] for r in reports] == ["error", "ok"]
    assert reports[0]["witnesses"] == [{"check": "error", "error": "no torus"}]


def test_verify_reports_a_failed_certificate_as_a_failing_cell(tmp_path,
                                                                monkeypatch):
    # A CertificateError on one cell fails that cell; the other cell still
    # gets its verdict, with one worker or two (forked workers inherit the
    # patch).
    def torus(G, ell):
        if G.kind == "GU":
            raise CertificateError("torus order mismatch")
        return explicit_torus(G, ell)

    monkeypatch.setattr(bijection, "explicit_torus", torus)
    grid = tmp_path / "cells.json"
    grid.write_text(json.dumps([[2, -1, 2, 3], [2, 1, 3, 2]]))
    args = ("verify", "--grid", str(grid), "--format", "json")
    one = run(*args, "--workers", "1")
    two = run(*args, "--workers", "2")
    assert one.exit_code == two.exit_code == 1
    assert one.output == two.output
    reports = json.loads(one.output)
    assert [r["status"] for r in reports] == ["fail", "ok"]
    assert reports[0]["witnesses"] == [
        {"check": "certificate", "error": "torus order mismatch"}]
    table = run("verify", "--grid", str(grid))
    assert table.exit_code == 1
    assert "FAIL" in table.output.splitlines()[0]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and runs nothing."""

    def __init__(self, made: list, max_workers: int):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return []


def _record_pools(monkeypatch) -> list:
    # verify imports the pool from concurrent.futures when it starts one
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(made, max_workers))
    return made


def test_verify_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    made = _record_pools(monkeypatch)
    grid = tmp_path / "cells.json"
    grid.write_text(json.dumps([[2, 1, 3, 2], [2, -1, 2, 3]]))
    run("verify", "--grid", str(grid), "--no-oracle", "--workers", "64")
    assert made == [2]


def test_verify_empty_grid_is_a_usage_error_before_any_pool(tmp_path,
                                                            monkeypatch):
    made = _record_pools(monkeypatch)
    grid = tmp_path / "cells.json"
    grid.write_text("[]")
    for workers in ("1", "4"):
        res = run("verify", "--grid", str(grid), "--workers", workers)
        assert res.exit_code == 2
        assert "the grid names no cell" in res.output
    assert made == []


def test_verify_rejects_limits_past_the_oracle_cap():
    for limit in ("-1", "0", str(GROUP_SIZE_LIMIT + 1), "400000"):
        res = run("verify", "--n", "3", "--q", "4", "--ell", "3",
                  "--limit", limit)
        assert res.exit_code == 2, limit
        assert "--limit" in res.output, limit


def test_oracle_rejects_empty_rank():
    res = run("oracle", "--kind", "GL", "--n", "0", "--q", "3")
    assert res.exit_code == 2
    assert "n=0" in res.output


def test_gggr_mult_one_rejects_groups_over_the_limit():
    res = run("gggr", "--check", "mult-one", "--n", "4", "--q", "3")
    assert res.exit_code == 2
    assert "exceeds limit" in res.output


def test_gggr_group_checks_reject_invalid_groups():
    for check in ("hom", "gamma-conj", "mult-one"):
        res = run("gggr", "--check", check, "--n", "2", "--q", "6")
        assert res.exit_code == 2, check
        assert "not a prime power" in res.output
        res = run("gggr", "--check", check, "--n", "2", "--q", "1048583")
        assert res.exit_code == 2, check
        assert "exceeds limit" in res.output
        assert run("gggr", "--check", check, "--n", "0",
                   "--q", "2").exit_code == 2, check


def test_gggr_parity_rejects_nonpositive_n():
    for n in ("0", "-3"):
        res = run("gggr", "--check", "parity", "--n", n)
        assert res.exit_code == 2, n
        assert f"n={n} must be >= 1" in res.output


def test_oracle_rejects_composite_ell():
    res = run("oracle", "--kind", "GL", "--n", "2", "--q", "3", "--ell", "4")
    assert res.exit_code == 2
    assert "not prime" in res.output


def test_verify_rejects_a_product_of_two_large_primes_quickly():
    t0 = time.perf_counter()
    res = run("verify", "--n", "2", "--q", str(1000003 * 1000033), "--ell", "2")
    assert res.exit_code == 2
    assert "not a prime power" in res.output
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("args", [
    ("verify", "--n", "2", "--q", "3", "--ell", str(_MR_BOUND)),
    ("verify", "--n", "2", "--q", "3", "--ell", str(_MR_BOUND + 2)),
    ("verify", "--n", "2", "--q", str(_MR_BOUND), "--ell", "2"),
    ("oracle", "--kind", "GL", "--n", "2", "--q", "3", "--ell", str(_MR_BOUND)),
])
def test_numbers_past_the_primality_bound_are_usage_errors(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "primality bound" in res.output


def test_gggr_gamma_conj_rejects_groups_over_the_limit():
    res = run("gggr", "--check", "gamma-conj", "--n", "4", "--q", "3")
    assert res.exit_code == 2
    assert "exceeds limit" in res.output
    assert "FAIL" not in res.output


def test_gggr_gamma_conj_reports_a_missing_witness_as_a_failure(monkeypatch):
    def no_witness(lam, q):
        raise CertificateError(f"no gamma-conjugating witness for {lam}")

    monkeypatch.setattr(gggr, "check_gamma_conjugacy", no_witness)
    res = run("gggr", "--check", "gamma-conj", "--n", "2", "--q", "3")
    assert res.exit_code == 1
    assert "FAIL no gamma-conjugating witness" in res.output


def test_gggr_mult_one_reports_a_failed_certificate_as_a_failure(monkeypatch):
    def inexact(n, q):
        raise CertificateError(f"inexact multiplicity at (2,), q={q}")

    monkeypatch.setattr(gggr, "check_multiplicity_one", inexact)
    res = run("gggr", "--check", "mult-one", "--n", "2", "--q", "3")
    assert res.exit_code == 1
    assert "FAIL inexact multiplicity" in res.output
    res = run("gggr", "--check", "mult-one", "--n", "2", "--q", "3",
              "--format", "json")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["status"] == "fail"
    assert payload["failures"] == [
        {"lambda": None, "error": "inexact multiplicity at (2,), q=3"}]


@pytest.mark.parametrize("check,name", [("gamma-conj", "check_gamma_conjugacy"),
                                        ("hom", "check_equivariance")])
def test_gggr_json_lists_every_failure(monkeypatch, check, name):
    real = getattr(gggr, name)

    def fails_at_two(lam, q):
        if lam == (2,):
            raise CertificateError(f"broken at {lam}")
        return real(lam, q)

    monkeypatch.setattr(gggr, name, fails_at_two)
    res = run("gggr", "--check", check, "--n", "2", "--q", "3",
              "--format", "json")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["status"] == "fail"
    assert payload["failures"] == [{"lambda": [2], "error": "broken at (2,)"}]
    kept = payload["witnesses" if check == "gamma-conj" else "results"]
    assert [entry["lambda"] for entry in kept] == [[1, 1]]


def test_gggr_json_lists_no_failure_when_every_certificate_holds():
    for check in ("gamma-conj", "hom", "mult-one"):
        res = run("gggr", "--check", check, "--n", "2", "--q", "2",
                  "--format", "json")
        assert res.exit_code == 0, check
        assert json.loads(res.output)["failures"] == [], check


@st.composite
def invalid_grid_rows(draw):
    """A valid row [n, eps, q, ell] with one parameter made invalid."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    row = {"n": draw(st.integers(1, 3)), "eps": draw(st.sampled_from((1, -1))),
           "q": q, "ell": draw(st.sampled_from([l for l in (2, 3, 5, 7) if q % l]))}
    defect = draw(st.sampled_from(("ell composite", "ell = p", "eps", "n", "q")))
    if defect == "ell composite":
        row["ell"] = draw(st.integers(4, 60).filter(lambda x: not isprime(x)))
    elif defect == "ell = p":
        row["ell"] = primefactors(q)[0]
    elif defect == "eps":
        row["eps"] = draw(st.integers(-5, 5).filter(lambda e: e not in (1, -1)))
    elif defect == "n":
        row["n"] = draw(st.integers(-3, 0))
    else:
        row["q"] = draw(st.integers(0, 60).filter(
            lambda x: len(primefactors(x)) != 1))
    return [row["n"], row["eps"], row["q"], row["ell"]]


@settings(max_examples=40, deadline=None)
@given(invalid_grid_rows())
def test_verify_grid_rejects_random_invalid_rows(row):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("cells.json").write_text(json.dumps([[2, 1, 3, 2], row]))
        res = runner.invoke(main, ["verify", "--grid", "cells.json"],
                            catch_exceptions=False)
    assert res.exit_code == 2, (row, res.output)


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "mckaylab", "--help"], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert "verify" in out.stdout and "gggr" in out.stdout
