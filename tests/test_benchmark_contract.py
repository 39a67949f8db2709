"""The benchmark runs end to end and its dense oracles agree with the library.

``perfbench/test_perfbench.py`` is outside the tier-1 test paths, so this
runs the benchmark command itself, briefly, on every workload:
``attend-long``, whose t = 1024 softmax the harness checks against its
dense oracle and for rows that sum to 1; ``attend-short-axial``, whose
positions repeat, so attend's kept position tables are used; and
``invariant-sweep``, which runs the CLI commands, the regularizer and
generator diagnostics through the package's exports.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("attend-long", "attend-short-axial", "invariant-sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_readme_names_every_workload_run_here():
    """The README's ``## Tests`` paragraph on this module names exactly the workloads it runs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    paragraph = next(p for p in section.split("\n\n") if "test_benchmark_contract.py" in p)
    # workload names are lowercase words joined by hyphens; file paths hold a "/" or a "."
    assert sorted(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", paragraph)) == sorted(WORKLOADS)
