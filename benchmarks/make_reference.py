"""Regenerate ``reference.json``, the closed_form_expr correctness reference.

The reference interval is the mean of the endpoints of ``RUNS`` independent
n=2e6 percentile runs on the exact scipy kernels, i.e. an estimate from
RUNS * 2e6 draws in all. The standard deviation of those endpoints is the
Monte-Carlo standard error at n=2e6 that the workload's tolerance is a
multiple of. Run it from the repository root:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

RUNS = 24
# seeds disjoint from any the benchmark draws: op seeds are 63-bit values
# from random.Random, these are small integers
SEEDS = range(1, RUNS + 1)


def main():
    workload = workloads.all_workloads()["closed_form_expr"]
    lows, upps = [], []
    for seed in SEEDS:
        low, upp = workload.run(seed, workloads.nproc()).fingerprint
        lows.append(low)
        upps.append(upp)
        print(f"seed {seed}: ({low!r}, {upp!r})", file=sys.stderr)
    ref = {
        "workload": workload.name,
        "n": workload.n,
        "runs": RUNS,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "interval": [statistics.fmean(lows), statistics.fmean(upps)],
        "se_at_n": [statistics.stdev(lows), statistics.stdev(upps)],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref))


if __name__ == "__main__":
    main()
