"""tools/linecov.py, the line tracer, on a toy module (it never traces the
suite here)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"

TOY = '''\
def pick(flag):
    if flag:
        return "yes"
    return "no"


def declared():
    raise NotImplementedError
'''


@pytest.fixture(scope="module")
def linecov():
    spec = importlib.util.spec_from_file_location("linecov_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_module_never_run_lines_and_allow_list(linecov, tmp_path,
                                                   capsys):
    root = tmp_path / "toy"
    root.mkdir()
    (root / "branches.py").write_text(TOY)
    script = tmp_path / "drive.py"
    script.write_text("import toy.branches\ntoy.branches.pick(True)\n")
    allow = tmp_path / "allow.txt"
    allow.write_text("# comment\n"
                     "*.py | raise NotImplementedError | abstract\n"
                     "other.py | def pick( | names another module\n")

    hits = linecov.run([sys.executable, str(script)], root, tmp_path)
    entries = linecov.parse_allow_list(allow.read_text())
    report, excused = linecov.account(root, hits, entries)
    # line 4 is the branch not taken, line 8 the allowed declaration
    assert report == {"branches.py": (6, [4])}
    assert excused == {0: {"branches.py": [8]}, 1: {}}

    code = linecov.main(["--root", str(root), "--allow", str(allow), "--",
                         sys.executable, str(script)])
    out = capsys.readouterr().out
    assert code == 1
    assert "branches.py: 6 executable, 1 never run: 4" in out
    assert "names another module]: STALE" in out


def test_spans_and_a_malformed_allow_list(linecov):
    assert linecov.spans([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"
    with pytest.raises(ValueError, match="allow-list line 1"):
        linecov.parse_allow_list("*.py | no reason\n")
