"""Per-layer tracer that wraps the package's functions from outside.

Each listed function is replaced, in its home module and in every loaded
`mckaylab` module that bound it with `from ... import`, by a wrapper that
counts calls and records self time: the span's duration minus the time
covered by traced spans it caused.  `FiniteField.add` and `FiniteField.mul`
are only counted; reading the clock on every field operation would cost
more than the operation.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# home module -> functions traced with calls and self time
TIMED = {
    "exactfield": ("spp", "build_field"),
    "matrixoracle": ("mat_mul", "mat_inv", "build_group", "closure",
                     "find_generators", "conjugacy_partition",
                     "sylow_subgroup", "normalizer"),
    "dixon": ("character_table", "induce", "inner", "irr_ellprime"),
    "partitions": ("partitions", "generic_degree", "e_core_quotient",
                   "wreath_labels"),
    "ssclasses": ("enumerate_ss_classes", "canonical_label",
                  "labels_of_degree", "zhat_translate"),
    "charparams": ("enumerate_irr", "degree", "zhat_act", "global_relevant",
                   "is_ellprime", "ellprime_structural", "count_ellprime",
                   "count_irr_sl", "count_jordan_params"),
    "localside": ("enumerate_local_irr", "transport", "local_zhat_act",
                  "local_degree", "canonical_theta", "local_relevant",
                  "local_ellprime_structural"),
    "bijection": ("check_cell", "run_grid", "verify_vs_oracle",
                  "explicit_torus", "oracle_table"),
    "gggr": ("check_homomorphism", "check_equivariance",
             "check_gamma_conjugacy", "gggr_multiplicities",
             "check_multiplicity_one", "u2_elements", "psi_exponent",
             "field_trace"),
}
# functions whose distinct argument tuples are counted
DISTINCT = ("exactfield.spp", "charparams.degree")
# memoised functions whose cache_info() hit ratio is reported
CACHED = ("charparams.enumerate_irr", "bijection.oracle_table")
COUNTED_METHODS = ("add", "mul")

# functions whose tracer counts are checked against cProfile
PROFILE_CHECKED = ("exactfield.spp", "charparams.degree", "localside.transport",
                   "matrixoracle.mat_mul", "dixon.character_table")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.args = defaultdict(set)
        self.table_classes = 0
        self.table_elements = 0
        self.originals = {}
        self._stack = [0.0]

    def _timed(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        seen = self.args[key] if key in DISTINCT else None
        on_table = key == "dixon.character_table"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if seen is not None:
                seen.add(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
            if on_table:
                self.table_classes += result.part.count
                self.table_elements += result.view.order
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; call once, before any package call."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mckaylab"
                                         or name.startswith("mckaylab."))]
        for home, names in TIMED.items():
            home_mod = sys.modules[f"mckaylab.{home}"]
            for name in names:
                key = f"{home}.{name}"
                fn = getattr(home_mod, name)
                self.originals[key] = fn
                wrapper = self._timed(key, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
        field_cls = sys.modules["mckaylab.exactfield"].FiniteField
        for name in COUNTED_METHODS:
            setattr(field_cls, name,
                    self._counted(f"exactfield.FiniteField.{name}",
                                  getattr(field_cls, name)))

    def _counted(self, key: str, method):
        calls = self.calls

        def wrapper(field, a, b):
            calls[key] += 1
            return method(field, a, b)

        return wrapper

    def layers(self) -> dict:
        """Flat per-layer metrics: calls, self time, ratios and rollups."""
        out = {}
        for home, names in TIMED.items():
            total = 0.0
            for name in names:
                key = f"{home}.{name}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
                total += self.self_s[key]
            out[f"{home}.self_s"] = total
        for key in DISTINCT:
            calls = self.calls[key]
            out[f"{key}.distinct_ratio"] = len(self.args[key]) / calls if calls else 0.0
        for key in CACHED:
            info = self.originals[key].cache_info()
            looked_up = info.hits + info.misses
            out[f"{key}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        for name in COUNTED_METHODS:
            key = f"exactfield.FiniteField.{name}"
            out[f"{key}.calls"] = self.calls[key]
        out["dixon.character_table.classes"] = self.table_classes
        out["dixon.character_table.elements"] = self.table_elements
        return out

    def profile_mismatches(self, profiler) -> dict:
        """{function: (tracer calls, cProfile ncalls)} where the two differ."""
        import pstats
        stats = pstats.Stats(profiler).stats
        out = {}
        for key in PROFILE_CHECKED:
            code = self.originals[key].__code__
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            ncalls = entry[1] if entry else 0
            if ncalls != self.calls[key]:
                out[key] = (self.calls[key], ncalls)
        return out
