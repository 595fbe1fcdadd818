"""sympy is a test-only dependency: the package never imports it.

Importing sympy used to take most of a cold `mckaylab` process, so these
tests pin that neither the import graph nor the source names it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_package_leaves_sympy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, mckaylab, mckaylab.gggr, mckaylab.cli; "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_no_module_in_src_imports_sympy():
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
                          if name.split(".")[0] == "sympy"]
    assert offenders == []
