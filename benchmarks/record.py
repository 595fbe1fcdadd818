"""Record the expected verdicts of every workload from the current code.

    python3 benchmarks/record.py

Writes `expected/<workload>.json`.  Refuses to record a workload whose
verdicts do not all pass on their own flags (status ok, oracle run, every
certificate true).
"""

import json
import sys
import time

from run import HERE, RUN_LIMIT_S, spawn
import workloads


def main() -> int:
    for w in workloads.WORKLOADS:
        verdicts = spawn("plain", w, 0, 0, time.monotonic() + RUN_LIMIT_S)["verdicts"]
        bad = [i for i, v in verdicts.items() if not workloads.verdict_ok(w, v)]
        if bad:
            print(f"{w}: not recording, failing items {bad}", file=sys.stderr)
            return 1
        path = HERE / "expected" / f"{w}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(dict(sorted(verdicts.items())), indent=1) + "\n")
        print(f"{w}: {len(verdicts)} items -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
