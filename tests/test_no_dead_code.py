"""Every function and class member in the package has a caller in the package.

A module-level function counts as called when its name is read somewhere in
src/ outside its own definition. The names in ALLOWED have no such caller
and stay on purpose, each for the reason given.

A method or property of a module-level class (dunders excluded) counts as
read when its name is read somewhere in src/ outside its own body. The check
goes by name only, so a dead member whose name is also read for something
else stays hidden: `CycContext.sub` and `CycContext.neg` (read as
`FiniteField.sub`/`neg`) were found by hand. No member is allowlisted.
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
    "frobenius_map": "Frobenius on a built group with its membership check, "
                     "tested as an automorphism; its caller comes with the "
                     "automorphism-equivariance checks",
    "check_representative": "Jordan-type certificate of acceptance criterion "
                            "7 and the gggr benchmark",
}


def _definitions():
    """Module-level functions (name -> file), class members ("file:
    Class.name" -> (name, reads of the name in its own body)), and all
    names read in src/ with the reads inside each function's own body."""
    defs, members, reads, own = {}, {}, Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = path.name
                own[node.name] += _reads(node)[node.name]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__"))):
                        members[f"{path.name}: {node.name}.{item.name}"] = (
                            item.name, _reads(item)[item.name])
        reads.update(_reads(tree))
    return defs, members, reads, own


def _reads(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_every_function_has_a_caller_in_src():
    defs, _, reads, own = _definitions()
    dead = sorted(f"{defs[name]}: {name}" for name in defs
                  if reads[name] == own[name] and name not in ALLOWED)
    assert dead == []


def test_every_class_member_is_read_in_src():
    _, members, reads, _ = _definitions()
    dead = sorted(label for label, (name, own) in members.items()
                  if reads[name] == own)
    assert dead == []


def test_allowlist_names_exist_and_are_uncalled():
    defs, _, reads, own = _definitions()
    stale = sorted(name for name in ALLOWED
                   if name not in defs or reads[name] > own[name])
    assert stale == []
