"""The README's code and its floating-point policy agree with the library.

The Python block under ``## Library quick start`` runs as written, under
a caller that raises on every floating-point flag and turns every warning
into an error.  The ``## Floating-point policy`` section names, in its
"Under the policy:" paragraph, exactly the functions decorated with
``@_raising()``, and, at the head of its bullets, exactly the exempt
functions of ``test_imports._UNRAISING``.
"""

import re
import warnings
from pathlib import Path

import numpy as np

from test_imports import _UNRAISING, MODULES, _raising_functions

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    """The README text under ``## title``, up to the next section."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_runs():
    block = _section("Library quick start").split("```python\n", 1)[1].split("\n```", 1)[0]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {})


def test_policy_section_names_the_decorated_and_the_exempt_functions():
    section = _section("Floating-point policy")
    paragraph = section.split("\nUnder the policy: ", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(
        set().union(*map(_raising_functions, MODULES))
    )
    # each bullet that lists exemptions opens with their names
    heads = re.findall(r"^- ((?:`\w+`(?:,\s+|\s+and\s+)?)+)\s", section, re.MULTILINE)
    exempt = [name for head in heads for name in re.findall(r"`(\w+)`", head)]
    assert sorted(exempt) == sorted(_UNRAISING)
