"""Every module-level function in the package has a caller in the package.

A function counts as called when its name is read somewhere in src/ outside
its own definition. The names below have no such caller and stay on purpose.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mckaylab"

ALLOWED = {
    "omega_tilde": "package API, exported by __init__",
    "verify": "CLI command, registered by its click decorator",
    "gggr_cmd": "CLI command, registered by its click decorator",
    "global_relevant": "timed by benchmarks/tracer.py; cell_data reads "
                       "LabelTable.relevant directly",
    "local_relevant": "timed by benchmarks/tracer.py; cell_data reads "
                      "LabelTable.relevant directly",
    "is_ellprime": "timed by benchmarks/tracer.py; count_ellprime reads "
                   "LabelTable.ellprime directly",
    "sl_relevant": "independent relevance route, tested against "
                   "global_relevant",
    "from_core_quotient": "inverse of e_core_quotient, tested as a round trip",
    "wreath_irr": "wreath-product mass formula, tested",
    "restrict": "class-function restriction, used by the Frobenius "
                "reciprocity tests",
    "trivial_character": "used by the Frobenius reciprocity tests",
    "frobenius_map": "Frobenius on a built group with its membership check, "
                     "tested as an automorphism",
    "check_representative": "Jordan-type certificate of acceptance criterion "
                            "7 and the gggr benchmark",
    "weighted_dynkin": "frozen weighted Dynkin diagrams, tested",
    "from_params": "inverse of to_params, tested as a round trip",
    "identity_class": "semisimple-class fixture of the ssclasses tests",
    "is_central": "semisimple-class predicate of the ssclasses tests",
}


def _functions_and_reads():
    """Module-level functions (name -> file), all names read in src/, and
    the reads of each function's name inside its own definition."""
    defs, reads, own = {}, Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = path.name
                own[node.name] += _reads(node)[node.name]
        reads.update(_reads(tree))
    return defs, reads, own


def _reads(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_every_function_has_a_caller_in_src():
    defs, reads, own = _functions_and_reads()
    dead = sorted(f"{defs[name]}: {name}" for name in defs
                  if reads[name] == own[name] and name not in ALLOWED)
    assert dead == []


def test_allowlist_names_exist_and_are_uncalled():
    defs, reads, own = _functions_and_reads()
    stale = sorted(name for name in ALLOWED
                   if name not in defs or reads[name] > own[name])
    assert stale == []
