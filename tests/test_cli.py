"""Command-line interface: exit codes, formats, determinism."""

import json
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from sympy import isprime, primefactors

from mckaylab import gggr
from mckaylab.cli import main
from mckaylab.exactfield import CertificateError


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


def test_verify_rejects_invalid_cells():
    for n, q, eps, ell in (("2", "3", "+1", "4"), ("3", "5", "+1", "9"),
                           ("2", "6", "+1", "5"), ("0", "3", "+1", "2")):
        res = run("verify", "--n", n, "--q", q, "--eps", eps, "--ell", ell)
        assert res.exit_code == 2, (n, q, ell)


def test_verify_rejects_invalid_grid_rows(tmp_path):
    for row in ([2, 1, 3, 4], [2, 0, 3, 2]):
        grid = tmp_path / "cells.json"
        grid.write_text(json.dumps([row]))
        assert run("verify", "--grid", str(grid)).exit_code == 2, row


def test_verify_workers_report_cell_errors_like_one_worker(tmp_path):
    # GL(3,4) passes the order cap of 200000 but not build_group's limit of
    # 25000, so its oracle raises OracleError inside check_cell.
    grid = tmp_path / "cells.json"
    grid.write_text(json.dumps([[3, 1, 4, 3], [2, 1, 3, 2]]))
    args = ("verify", "--grid", str(grid), "--limit", "200000",
            "--format", "json")
    one = run(*args, "--workers", "1")
    two = run(*args, "--workers", "2")
    assert one.exit_code == two.exit_code == 1
    assert one.output == two.output
    statuses = [r["status"] for r in json.loads(one.output)]
    assert statuses == ["ok", "error"]


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
