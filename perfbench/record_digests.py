"""Record the sha256 digest of every output on the default seed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json, which the benchmark's output checks compare
against on the default seed.  Re-record only when an output is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ops  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402
from worker import DIGESTS  # noqa: E402


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        recorded[workload] = {}
        for case in generate(workload, DEFAULT_SEED):
            out = ops.run(workload, ops.prepare(workload, case), lambda _name, fn, *args: fn(*args))
            recorded[workload][case.label] = ops.digest(out)
            print(f"{workload:<13} {case.label:<40} {recorded[workload][case.label]}")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
