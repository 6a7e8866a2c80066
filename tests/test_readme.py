"""README's Python code blocks run as written, so its examples cannot go stale."""

import pathlib
import re

import pytest

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README.read_text(), flags=re.S | re.M)


def test_readme_has_the_quick_start_and_the_hand_built_set():
    assert len(_BLOCKS) == 2
    assert "build_samplet_basis" in _BLOCKS[0] and "FunctionalSet(" in _BLOCKS[1]


@pytest.mark.parametrize("k", range(len(_BLOCKS)))
def test_python_block_runs(k):
    exec(compile(_BLOCKS[k], f"README.md python block {k}", "exec"), {})
