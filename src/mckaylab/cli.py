"""Command-line front end.

Three subcommands:

  verify  -- run the per-cell certificate suite (one cell or a grid)
  oracle  -- build a matrix group and print its exact character data
  gggr    -- generalized Gelfand-Graev checks

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
Output is deterministic; timings are suppressed unless --timings is given.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import click
from sympy import isprime

from . import dixon, gggr
from .bijection import (
    ORACLE_ORDER_LIMIT,
    Cell,
    all_ok,
    default_grid,
    run_cell,
    run_grid,
)
from .exactfield import CertificateError, spp
from .matrixoracle import OracleError, build_group
from .partitions import partitions


def _parse_eps(eps: str) -> int:
    if eps in ("+1", "1", "+"):
        return 1
    if eps in ("-1", "-"):
        return -1
    raise click.UsageError(f"bad --eps {eps!r}: expected +1 or -1")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _scrub(report: dict, timings: bool) -> dict:
    if not timings:
        report = dict(report)
        report["ms"] = None
    return report


def _render_table(reports: list[dict], timings: bool) -> str:
    lines = []
    for rep in reports:
        c = rep["cell"]
        name = f"{c['kind']}({c['n']},{c['q']}) ell={c['ell']}"
        counts = rep.get("counts") or {}
        failing = [k for k, v in (rep.get("checks") or {}).items()
                   if v is False]
        cols = [
            f"{name:<18}",
            f"pairs={counts.get('global', '-')}/{counts.get('local', '-')}",
            f"ellprime={counts.get('ellprime_global', '-')}"
            f"/{counts.get('ellprime_local', '-')}",
            rep["status"].upper() if rep["status"] != "ok" else "ok",
        ]
        if failing:
            cols.append("failing: " + ",".join(sorted(failing)))
        if timings:
            cols.append(f"{rep['ms']}ms")
        lines.append("  ".join(cols))
    return "\n".join(lines)


@click.group()
def main() -> None:
    """Character-count verification laboratory."""


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--eps", default="+1", show_default=True)
@click.option("--ell", type=int, default=None)
@click.option("--grid", default=None,
              help="'default' for the built-in grid, or a JSON file of "
                   "[n, eps, q, ell] rows.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--limit", type=int, default=ORACLE_ORDER_LIMIT,
              show_default=True, help="oracle group-order cap")
@click.option("--oracle/--no-oracle", "with_oracle", default=True,
              show_default=True)
@click.option("--timings", is_flag=True, default=False)
def verify(n, q, eps, ell, grid, out, fmt, workers, limit, with_oracle,
           timings) -> None:
    """Certify the global/local correspondence on one cell or a grid."""
    if grid is not None:
        if grid == "default":
            cells = list(default_grid())
        else:
            try:
                with open(grid) as fh:
                    rows = json.load(fh)
                cells = [Cell(int(a), int(b), int(c), int(d))
                         for a, b, c, d in rows]
            except (OSError, ValueError, TypeError) as exc:
                raise click.UsageError(f"cannot read grid file: {exc}")
    else:
        if n is None or q is None or ell is None:
            raise click.UsageError("need --n, --q and --ell (or --grid)")
        try:
            cells = [Cell(n, _parse_eps(eps), q, ell)]
        except ValueError as exc:
            raise click.UsageError(str(exc))

    cells = sorted(cells)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_cell, cells, repeat(limit),
                                    repeat(with_oracle)))
    else:
        reports = run_grid(cells, limit, with_oracle)
    reports = [_scrub(r, timings) for r in reports]

    if fmt == "json":
        _emit(json.dumps(reports, indent=2, sort_keys=True), out)
    else:
        _emit(_render_table(reports, timings), out)
    raise SystemExit(0 if all_ok(reports) else 1)


@main.command()
@click.option("--kind", type=click.Choice(["GL", "SL", "GU", "SU"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--ell", type=int, default=None,
              help="also report the count of ell-prime degrees")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def oracle(kind, n, q, ell, out, fmt) -> None:
    """Exact conjugacy and character data for one finite matrix group."""
    if ell is not None and not isprime(ell):
        raise click.UsageError(f"ell={ell} is not prime")
    try:
        group = build_group(kind, n, q)
    except ValueError as exc:   # OracleError, or q not a prime power
        raise click.UsageError(str(exc))
    if ell is not None and group.sp.p == ell:
        raise click.UsageError(f"ell={ell} divides q={q}")
    table = dixon.character_table(group)
    payload = {
        "group": f"{kind}_{n}({q})",
        "order": group.order,
        "classes": table.part.count,
        "degrees": list(table.degrees),
    }
    if ell is not None:
        payload["ellprime"] = len(dixon.irr_ellprime(table, ell))
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), out)
    else:
        lines = [
            f"group {payload['group']}  order {payload['order']}  "
            f"classes {payload['classes']}",
            "degrees " + " ".join(map(str, payload["degrees"])),
        ]
        if ell is not None:
            lines.append(f"ellprime({ell}) {payload['ellprime']}")
        _emit("\n".join(lines), out)
    raise SystemExit(0)


def _parse_lambda(text: str, n: int | None) -> tuple:
    try:
        lam = tuple(sorted((int(x) for x in text.split(",")), reverse=True))
    except ValueError:
        raise click.UsageError(f"bad --lam {text!r}: expected e.g. 2,1")
    if any(x <= 0 for x in lam):
        raise click.UsageError("partition parts must be positive")
    if n is not None and sum(lam) != n:
        raise click.UsageError(f"{lam} is not a partition of {n}")
    return lam


@main.command("gggr")
@click.option("--check", "which",
              type=click.Choice(["parity", "gamma-conj", "mult-one", "hom"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, default=None)
@click.option("--lam", "--lambda", "lam_text", default=None,
              help="one partition as comma-separated parts, e.g. 3,1")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def gggr_cmd(which, n, q, lam_text, out, fmt) -> None:
    """Generalized Gelfand-Graev certificates."""
    lines: list[str] = []
    payload: dict = {"check": which, "n": n}
    failed = False
    if n < 1:
        raise click.UsageError(f"n={n} must be >= 1")

    if which == "parity":
        count = gggr.sweep_parity_symmetry(n)
        payload["partitions_checked"] = count
        lines.append(f"parity and weight symmetry hold for all {count} "
                     f"partitions of 1..{n}")
    else:
        if q is None:
            raise click.UsageError(f"--check {which} needs --q")
        try:
            spp(1, q)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        lams = [_parse_lambda(lam_text, n)] if lam_text else list(partitions(n))
        payload["q"] = q
        if which == "gamma-conj":
            witnesses = []
            for lam in lams:
                try:
                    _, g = gggr.check_gamma_conjugacy(lam, q)
                except OracleError as exc:
                    raise click.UsageError(str(exc))
                except CertificateError as exc:
                    failed = True
                    lines.append(f"lambda={lam}: FAIL {exc}")
                    continue
                witnesses.append({"lambda": list(lam),
                                  "witness": [list(r) for r in g]})
                lines.append(f"lambda={lam}: witness found")
            payload["witnesses"] = witnesses
        elif which == "hom":
            results = []
            for lam in lams:
                try:
                    pairs = gggr.check_homomorphism(lam, q)
                    evals = gggr.check_equivariance(lam, q)
                except OracleError as exc:
                    raise click.UsageError(str(exc))
                except AssertionError as exc:
                    failed = True
                    lines.append(f"lambda={lam}: FAIL {exc}")
                    continue
                results.append({"lambda": list(lam), "pairs": pairs,
                                "twist_evals": evals})
                lines.append(f"lambda={lam}: {pairs} pairs, "
                             f"{evals} twisted evaluations")
            payload["results"] = results
        else:
            try:
                res = gggr.check_multiplicity_one(n, q)
            except OracleError as exc:
                raise click.UsageError(str(exc))
            payload["all_covered"] = res["all_covered"]
            payload["regular_multfree"] = res["regular_multfree"]
            payload["multiplicities"] = {
                ",".join(map(str, lam)): list(m)
                for lam, m in res["multiplicities"].items()}
            failed = not (res["all_covered"] and res["regular_multfree"]
                          and res["trivial_gives_regular_rep"])
            lines.append(f"GL_{n}({q}): every irreducible covered with "
                         f"multiplicity one: {res['all_covered']}")
            for lam, m in res["multiplicities"].items():
                lines.append(f"  lambda={lam}: {list(m)}")

    payload["status"] = "fail" if failed else "ok"
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), out)
    else:
        _emit("\n".join(lines), out)
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
