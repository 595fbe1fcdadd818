"""Frozen item lists of the three workloads and the code that runs them.

Every list is written out here rather than derived from package constants
(`default_grid()`, `ORACLE_ORDER_LIMIT`, `U2_SIZE_LIMIT`), so a change to
those constants does not change the work measured.  Each item yields a
JSON-ready verdict keyed by a stable item id; `run.py` compares those
verdicts with the files in `expected/`.
"""

from __future__ import annotations

import random

ORACLE_LIMIT = 750
GRID_ELLS = (2, 3, 5, 7)


def _cells(groups) -> tuple:
    """(n, eps, q, ell) for every ell in GRID_ELLS prime to q."""
    return tuple((n, eps, q, ell) for n, eps, q in groups
                 for ell in GRID_ELLS if q % ell)


# Label level: every n=2 group, n=3 up to q=5 plus GL(3,7), n=4 up to q=3.
# The GU(4,7)-type cells are left out because one of them alone costs more
# than a whole repetition of this list.
LABELS_CELLS = _cells(
    [(2, eps, q) for eps in (1, -1) for q in (2, 3, 4, 5, 7)]
    + [(3, eps, q) for eps in (1, -1) for q in (2, 3, 4, 5)]
    + [(3, 1, 7)]
    + [(4, eps, q) for eps in (1, -1) for q in (2, 3)]
)

# Oracle cells: groups of order <= 750 whose table builds stay under a second.
# GL(2,4), GU(2,2) and GU(2,3) keep the non-prime field arithmetic (GF(4),
# GF(9)) on the path; GU(2,4), GU(2,5) and GU(3,2) are left out because
# GU(3,2) alone takes as long as this whole list.
ORACLE_CELLS = _cells(
    [(2, 1, q) for q in (2, 3, 4, 5)]
    + [(3, 1, 2), (2, -1, 2), (2, -1, 3)]
)

_PARTITIONS = {
    2: ((2,), (1, 1)),
    3: ((3,), (2, 1), (1, 1, 1)),
    4: ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
}

# Gelfand-Graev certificates.  For n=4 the items with the largest U_2
# (q=3 lam=(4,); q=4 lam=(4,),(2,2); q=5 lam=(4,),(2,2)) are left out: each
# takes 2-9 s, longer than a whole repetition of this list.  The remaining
# q=5 items (about 1 s together) are left out to keep a repetition near 3 s.
_GGGR_N4 = (
    [(lam, 2) for lam in _PARTITIONS[4]]
    + [(lam, 3) for lam in _PARTITIONS[4][1:]]
    + [(lam, 4) for lam in ((3, 1), (2, 1, 1), (1, 1, 1, 1))]
)
_GGGR_LAM_Q = (
    [(lam, q) for n in (2, 3) for q in (2, 3, 4, 5) for lam in _PARTITIONS[n]]
    + _GGGR_N4
)
GGGR_ITEMS = tuple(
    [("sweep", 24)]
    + [(kind, lam, q) for lam, q in _GGGR_LAM_Q for kind in ("rep", "hom", "eqv")]
    + [("gamma", lam, q) for n, q in ((2, 2), (2, 3), (3, 2), (3, 3))
       for lam in _PARTITIONS[n]]
    + [("mult1", n, q) for n, q in ((2, 2), (2, 3), (3, 2))]
)

WORKLOADS = ("labels", "oracle", "gggr")


def _cell_id(n, eps, q, ell) -> str:
    return f"{'GL' if eps == 1 else 'GU'}({n},{q}) ell={ell}"


def _item_id(item) -> str:
    return ":".join(
        ".".join(map(str, part)) if isinstance(part, tuple) else str(part)
        for part in item)


def _run_grid_items(cells, with_oracle: bool) -> dict:
    from mckaylab.bijection import Cell, run_grid
    reports = run_grid([Cell(*c) for c in cells], oracle_limit=ORACLE_LIMIT,
                       with_oracle=with_oracle)
    out = {}
    for rep in reports:
        c = rep["cell"]
        out[_cell_id(c["n"], c["eps"], c["q"], c["ell"])] = {
            "status": rep["status"],
            "checks": rep["checks"],
            "counts": rep["counts"],
        }
    return out


def _gggr_verdict(item):
    from mckaylab import gggr
    kind = item[0]
    if kind == "sweep":
        return {"count": gggr.sweep_parity_symmetry(item[1])}
    if kind == "rep":
        return {"ok": gggr.check_representative(item[1], item[2])}
    if kind == "hom":
        return {"pairs": gggr.check_homomorphism(item[1], item[2])}
    if kind == "eqv":
        return {"twists": gggr.check_equivariance(item[1], item[2])}
    if kind == "gamma":
        gggr.check_gamma_conjugacy(item[1], item[2])  # raises if none exists
        return {"witness": True}
    res = gggr.check_multiplicity_one(item[1], item[2])
    return {
        "all_covered": res["all_covered"],
        "covered": list(res["covered"]),
        "multiplicities": {".".join(map(str, lam)): list(m)
                           for lam, m in res["multiplicities"].items()},
        "regular_multfree": res["regular_multfree"],
        "regular_constituents": res["regular_constituents"],
        "n_ss_classes": res["n_ss_classes"],
        "trivial_gives_regular_rep": res["trivial_gives_regular_rep"],
    }


def run(workload: str, seed: int, rep: int) -> dict:
    """Run one pass of `workload`; returns {item id: verdict}.

    The seed and repetition number permute the item order.  `run_grid`
    sorts its cells, so for `labels` and `oracle` the order has no effect.
    """
    rng = random.Random(f"{workload}:{seed}:{rep}")
    if workload in ("labels", "oracle"):
        cells = list(LABELS_CELLS if workload == "labels" else ORACLE_CELLS)
        rng.shuffle(cells)
        return _run_grid_items(cells, with_oracle=workload == "oracle")
    items = list(GGGR_ITEMS)
    rng.shuffle(items)
    out = {}
    for item in items:
        try:
            out[_item_id(item)] = _gggr_verdict(item)
        except Exception as exc:  # a failed certificate is a verdict, not a crash
            out[_item_id(item)] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def verdict_ok(workload: str, verdict: dict) -> bool:
    """The verdict's own pass flags, independent of the expected file."""
    if "error" in verdict:
        return False
    if workload in ("labels", "oracle"):
        if verdict["status"] != "ok":
            return False
        # a null oracle check means the oracle was skipped
        return workload == "labels" or verdict["checks"]["oracle"] is True
    if "ok" in verdict:
        return verdict["ok"] is True
    if "witness" in verdict:
        return verdict["witness"] is True
    if "all_covered" in verdict:
        return (verdict["all_covered"] and verdict["regular_multfree"]
                and verdict["trivial_gives_regular_rep"])
    return True
