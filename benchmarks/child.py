"""One cold repetition of a workload, in a fresh interpreter.

    python3 benchmarks/child.py <checkout root> <mode> <workload> <seed> <rep>

mode is `plain`, `traced` (per-layer tracer installed), `profiled` (tracer
and cProfile) or `micro` (FiniteField microbench only).  Prints one JSON
object on stdout.  Exits 2, printing nothing on stdout, when the package
would be imported from anywhere but `<checkout root>/src` or when running
under `python -O`, which strips the package's certificate asserts.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _microbench(seed: int) -> dict:
    """ns per call of FiniteField.add/mul through the public bound methods."""
    import random
    from mckaylab.exactfield import build_field

    out = {}
    for label, (p, k) in (("gf7", (7, 1)), ("gf25", (5, 2))):
        F = build_field(p, k)
        rng = random.Random(f"micro:{seed}:{label}")
        pairs = [(rng.randrange(F.size), rng.randrange(F.size)) for _ in range(20000)]
        for op in ("add", "mul"):
            fn = getattr(F, op)
            samples = []
            for _ in range(7):
                t0 = time.perf_counter()
                for a, b in pairs:
                    fn(a, b)
                samples.append((time.perf_counter() - t0) / len(pairs) * 1e9)
            samples.sort()
            out[f"exactfield.ff_{op}_ns.{label}"] = samples[len(samples) // 2]
    return out


def main() -> int:
    root, mode, workload, seed, rep = sys.argv[1:6]
    seed, rep = int(seed), int(rep)
    if sys.flags.optimize:
        print("refusing to run under python -O: certificate asserts are stripped",
              file=sys.stderr)
        return 2
    src = os.path.join(os.path.realpath(root), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import mckaylab
        import mckaylab.gggr  # noqa: F401  (not imported by the package root)
    except ImportError as exc:
        print(f"cannot import mckaylab from {src}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - t0
    pkg_file = os.path.realpath(mckaylab.__file__)
    if not pkg_file.startswith(src + os.sep):
        print(f"mckaylab imported from {pkg_file}, not from {src}", file=sys.stderr)
        return 2

    if mode == "micro":
        print_json({"micro": _microbench(seed)})
        return 0

    import workloads
    tracer = profiler = None
    if mode in ("traced", "profiled"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if mode == "profiled":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()

    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    verdicts = workloads.run(workload, seed, rep)
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0

    if profiler is not None:
        profiler.disable()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": verdicts,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
    if profiler is not None:
        result["profile_mismatches"] = tracer.profile_mismatches(profiler)
    print_json(result)
    return 0


def print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


if __name__ == "__main__":
    sys.exit(main())
