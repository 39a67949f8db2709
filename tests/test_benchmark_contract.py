"""The benchmark runs end to end and its dense oracles agree with the library.

``perfbench/test_perfbench.py`` is outside the tier-1 test paths, so this
runs the benchmark command itself, briefly, on the one workload whose
positions repeat: the one where attend's kept position tables are used.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_attend_short_axial_runs_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attend-short-axial",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
