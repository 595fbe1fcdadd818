"""What a cold `mckaylab` process imports.

sympy is a test-only dependency: importing it used to take most of a cold
process.  dataclasses pulls in inspect, ast, dis and tokenize and execs the
methods of every decorated class, about a quarter of the package's own
import; the package's records are named tuples and plain classes instead.
concurrent.futures (with multiprocessing and logging) is imported by
`verify` only when it starts a pool.  These tests pin the import graph and
the source.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = {"sympy", "dataclasses"}   # never imported by a module in src/


def _loaded_after(imports: str, names) -> dict:
    """{name: whether it is in sys.modules} after the imports, in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import sys, {imports}; "
            f"print(*[m in sys.modules for m in {sorted(names)!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return dict(zip(sorted(names), (w == "True" for w in out.stdout.split())))


def test_importing_the_package_leaves_sympy_unloaded():
    assert _loaded_after("mckaylab, mckaylab.gggr, mckaylab.cli",
                         ["sympy"]) == {"sympy": False}


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    assert _loaded_after("mckaylab, mckaylab.gggr",
                         ["dataclasses", "inspect"]) \
        == {"dataclasses": False, "inspect": False}


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # click itself imports inspect, so only the pool is pinned here
    assert _loaded_after("mckaylab.cli", ["concurrent.futures"]) \
        == {"concurrent.futures": False}


def test_no_module_in_src_imports_a_forbidden_module():
    offenders = []
    for path in sorted((SRC / "mckaylab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] in FORBIDDEN]
    assert offenders == []
