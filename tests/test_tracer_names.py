"""The benchmark tracer's function lists name real package functions.

benchmarks/tracer.py looks every listed name up with getattr and no
default, so a renamed or deleted function would only surface as an
AttributeError under `--trace 1`.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_constant(name: str):
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


def test_timed_names_are_module_level_functions():
    missing = []
    for home, names in _tracer_constant("TIMED").items():
        module = importlib.import_module(f"mckaylab.{home}")
        for name in names:
            fn = getattr(module, name, None)
            fn = inspect.unwrap(fn) if callable(fn) else None
            if not (inspect.isfunction(fn) and fn.__qualname__ == name
                    and fn.__module__ == module.__name__):
                missing.append(f"{home}.{name}")
    assert missing == []


def test_cached_names_have_cache_info():
    missing = []
    for key in _tracer_constant("CACHED"):
        home, name = key.split(".")
        fn = getattr(importlib.import_module(f"mckaylab.{home}"), name, None)
        if not hasattr(fn, "cache_info"):
            missing.append(key)
    assert missing == []


def test_listed_keys_are_timed_keys():
    # the tracer reads these keys from `originals`, which holds only TIMED names
    timed = {f"{home}.{name}" for home, names in _tracer_constant("TIMED").items()
             for name in names}
    for constant in ("DISTINCT", "CACHED", "PROFILE_CHECKED"):
        assert set(_tracer_constant(constant)) <= timed, constant


def test_profile_checked_names_are_plain_functions():
    # cProfile entries are matched through __code__, which a memo wrapper lacks
    missing = []
    for key in _tracer_constant("PROFILE_CHECKED"):
        home, name = key.split(".")
        fn = getattr(importlib.import_module(f"mckaylab.{home}"), name, None)
        if not hasattr(fn, "__code__"):
            missing.append(key)
    assert missing == []
