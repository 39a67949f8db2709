"""Measure one set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Times ``import rollpe`` plus the first call of each encoding kind and
invariant check of the workload, each scaled by the reference unit timed
beside it (see ``calibration``), and prints {"setup_s": scaled seconds,
"wall_s": seconds} as JSON.  The harness runs this several times per run and reports the
median.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rollpe  # noqa: F401

    import_s = time.perf_counter() - start
    import calibration
    import harness

    workload, seed = sys.argv[1], int(sys.argv[2])
    session = harness.first_round(workload, seed)
    # the import is scaled by the first burst, taken right after it
    scaled_s = import_s * calibration.REFERENCE_S / session.levels[0] + session.scaled["round"][0]
    wall_s = import_s + session.samples["round"][0]
    print(json.dumps({"setup_s": scaled_s, "wall_s": wall_s}))
