"""Run one workload of the rollpe benchmark and print its metrics.

    python3 perfbench/run.py --workload attend-long --seed 1 --seconds 30 --trace 0

Workloads: attend-long, attend-short-axial, invariant-sweep (see
``harness.WORKLOADS`` for their shapes and why each was chosen).  The
library is imported from ``src/`` of the checkout this file sits in.

Standard output holds a JSON report (workload record, provenance,
per-kind medians with tail percentiles and sample counts, the plain NumPy
floor, failures), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end timings are scaled to a fixed reference speed (see
``calibration``); the report keeps the raw wall times beside them.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before NumPy loads, so
# timings do not depend on how busy the machine's other CPUs are.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    library = Path(__file__).resolve().parent.parent / "src" / "rollpe" / "__init__.py"
    if not library.is_file():
        print(f"error: library source not found at {library}", file=sys.stderr)
        return 2
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    result, report = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
