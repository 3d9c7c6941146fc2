"""Line coverage of ``src/expforge`` under the Tier-1 suite, stdlib only.

Usage::

    python tools/linecov.py                     # trace the Tier-1 command
    python tools/linecov.py -- pytest args...   # trace another command

The command runs with a generated ``sitecustomize.py`` first on
``PYTHONPATH``. Every Python process that starts, the test runner and each
``LocalConnector`` child executor alike, installs ``sys.settrace`` and
``threading.settrace`` for files under the measured root and writes one hit
file when it exits. A process killed by a signal writes none.

A module's executable lines are the line numbers of its code objects
(``co_lines``, recursing through ``co_consts``). The report lists, per
module, the executable lines that no process ran, minus the lines that
``tools/linecov_allow.txt`` allows. Each allow-list line reads
``<module glob> | <source line prefix> | <reason>``: it allows every
statement whose first line, stripped, starts with the prefix, through the
statement's last line. The report prints the lines each entry allowed; an
entry that allows no never-run line is stale. The exit status is 0 when no
never-run line is left outside the allow-list and no entry is stale.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tools!r})
import linecov
del sys.path[0]
linecov.record({root!r}, {out!r})
"""


def record(root: str, out_dir: str) -> None:
    """Trace every line this process runs under ``root`` (all threads) and
    write the hits to one JSON file in ``out_dir`` at exit."""
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    def dump() -> None:
        sys.settrace(None)
        with tempfile.NamedTemporaryFile("w", dir=out_dir, suffix=".json",
                                         delete=False) as handle:
            json.dump({name: sorted(lines) for name, lines in hits.items()},
                      handle)

    atexit.register(dump)
    threading.settrace(enter)
    sys.settrace(enter)


def run(command: list[str], root: Path, cwd: Path) -> dict[str, set[int]]:
    """Run ``command`` traced; return the lines each file under ``root``
    ran, merged over every process the command started."""
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            tools=str(Path(__file__).resolve().parent),
            root=str(root.resolve()) + os.sep, out=str(out)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(site), str(REPO / "src"), env.get("PYTHONPATH"))))
        subprocess.run(command, cwd=cwd, env=env, check=False)
        hits: dict[str, set[int]] = {}
        for path in out.glob("*.json"):
            for name, lines in json.loads(path.read_text()).items():
                hits.setdefault(name, set()).update(lines)
        return hits


def executable_lines(source: str, filename: str) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def parse_allow_list(text: str) -> list[tuple[str, str, str]]:
    """``(module glob, line prefix, reason)`` per non-comment line."""
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3 or not all(parts):
            raise ValueError(f"allow-list line {number}: want "
                             f"'<module glob> | <line prefix> | <reason>'")
        entries.append((parts[0], parts[1], parts[2]))
    return entries


def allowed_lines(source: str, module: str,
                  entries: list[tuple[str, str, str]]) -> dict[int, set[int]]:
    """For each entry (by index) that matches ``module``, the lines of every
    statement whose first line starts with the entry's prefix."""
    source_lines = source.splitlines()
    statements = [node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.stmt)]
    allowed: dict[int, set[int]] = {}
    for index, (glob, prefix, _) in enumerate(entries):
        if not fnmatch.fnmatch(module, glob):
            continue
        for node in statements:
            if source_lines[node.lineno - 1].strip().startswith(prefix):
                allowed.setdefault(index, set()).update(
                    range(node.lineno, node.end_lineno + 1))
    return allowed


def account(root: Path, hits: dict[str, set[int]],
            entries: list[tuple[str, str, str]]):
    """Per module, its executable count and the never-run lines outside
    the allow-list; per entry index, the never-run lines it allows, by
    module. An entry that allows none is stale."""
    report: dict[str, tuple[int, list[int]]] = {}
    excused: dict[int, dict[str, list[int]]] = {
        index: {} for index in range(len(entries))}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        source = path.read_text()
        executable = executable_lines(source, str(path))
        missed = executable - hits.get(str(path.resolve()), set())
        for index, lines in allowed_lines(source, module, entries).items():
            if lines & missed:
                excused[index][module] = sorted(lines & missed)
            missed -= lines
        report[module] = (len(executable), sorted(missed))
    return report, excused


def spans(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    out: list[str] = []
    for line in lines:
        if out and int(out[-1].rpartition("-")[2]) == line - 1:
            out[-1] = f"{out[-1].partition('-')[0]}-{line}"
        else:
            out.append(str(line))
    return ", ".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO / "src" / "expforge")
    parser.add_argument("--allow", type=Path,
                        default=REPO / "tools" / "linecov_allow.txt")
    parser.add_argument("command", nargs="*", help="default: Tier-1")
    args = parser.parse_args(argv)
    entries = parse_allow_list(args.allow.read_text())
    hits = run(args.command or TIER1, args.root, REPO)
    report, excused = account(args.root, hits, entries)
    for module, (executable, missed) in report.items():
        print(f"{module}: {executable} executable, {len(missed)} never run"
              + (f": {spans(missed)}" if missed else ""))
    total = sum(len(missed) for _, missed in report.values())
    print(f"total: {sum(e for e, _ in report.values())} executable, "
          f"{total} never run outside the allow-list")
    for index, modules in excused.items():
        where = "; ".join(f"{module} {spans(lines)}"
                          for module, lines in modules.items())
        print(f"allowed [{' | '.join(entries[index])}]: {where or 'STALE'}")
    return 1 if total or not all(excused.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
