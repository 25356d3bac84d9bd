"""README.md's library example, run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_gives_the_values_its_comments_state():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert names["profile"].mean_shift == pytest.approx(75.29, abs=0.005)
    assert names["profile"].mu_star == pytest.approx(108.47, abs=0.005)
    assert names["design"].epsilon == pytest.approx(0.0980, abs=0.00005)
    assert names["design"].predicted_impact == 33.18 + 76.82
