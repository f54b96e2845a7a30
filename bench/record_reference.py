"""Record bench/reference/<workload>.json from the current sources.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed and stores its gap traces
(and, for workloads that record it, every throughput row). Re-record
only when a change is meant to move the numbers, and say why in
CHANGES.md: the benchmark compares every run with these files.
"""

from __future__ import annotations

import json
import os
import sys

from run import OUT_ROOT, PINNED_ENV, spawn
from workloads import (
    DEFAULT_SEED,
    REFERENCE_DIR,
    WORKLOADS,
    check_outputs,
    make_reference,
    reference_path,
)


def main(names: list[str]) -> int:
    os.environ.update(PINNED_ENV)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        out = OUT_ROOT / "record" / name
        res = spawn(w, DEFAULT_SEED, out)
        bad = check_outputs(w, out, res["failures"])
        if bad:
            print(f"{name}: {len(bad)} bad cell(s), not recorded",
                  file=sys.stderr)
            return 1
        doc = make_reference(w, out, DEFAULT_SEED)
        reference_path(name).write_text(json.dumps(doc, indent=0) + "\n",
                                        encoding="ascii")
        print(f"{name}: {res['cells']} cells, run_s {res['run_s']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
