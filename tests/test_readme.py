"""README's Python code blocks and its command-line example run as written, so
its examples cannot go stale."""

import pathlib
import re
import shlex

import pytest

from samplets.cli import main

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_TEXT = _README.read_text()
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _TEXT, flags=re.S | re.M)
# the `samplets ...` commands of the sh blocks, continuation lines joined
_COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", _TEXT, flags=re.S | re.M)
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("samplets ")]


def test_readme_has_the_quick_start_and_the_hand_built_set():
    assert len(_BLOCKS) == 2
    assert "build_samplet_basis" in _BLOCKS[0] and "FunctionalSet(" in _BLOCKS[1]


@pytest.mark.parametrize("k", range(len(_BLOCKS)))
def test_python_block_runs(k):
    exec(compile(_BLOCKS[k], f"README.md python block {k}", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # the commands build on each other's outputs, so they run in order in one directory
    assert [shlex.split(c)[1] for c in _COMMANDS] == [
        "example", "build", "transform", "inverse", "compress", "report"]
    monkeypatch.chdir(tmp_path)
    for command in _COMMANDS:
        code = main(shlex.split(command)[1:])
        assert code == 0, f"{command!r} exited {code}: {capsys.readouterr().err}"
    assert (tmp_path / "run" / "matrix.npz").exists()
