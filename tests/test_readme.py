"""README.md's examples, run as written.

Every `$ oja …` line of a ```sh block runs through `oja.cli.main`, and its
printed lines must match the lines shown under it, up to a `...` line that
ends the comparison.  A trailing `; echo $?` pins the exit code; a command
without one must exit 0.  The Library usage block is executed as a script.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from oja.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language: str) -> list[str]:
    return [body for lang, body in _FENCE.findall(README) if lang == language]


def _sessions() -> list[tuple[str, list[str]]]:
    """(command, shown lines) for each `$ oja` prompt; a blank line ends the output."""
    sessions: list[tuple[str, list[str]]] = []
    for body in _blocks("sh"):
        shown = None
        for line in body.splitlines():
            if line.startswith("$ "):
                shown = []
                sessions.append((line[2:], shown))
            elif line and shown is not None:
                shown.append(line)
            else:
                shown = None
    return [(command, shown) for command, shown in sessions if command.startswith("oja ")]


_SESSIONS = _sessions()


def test_the_readme_shows_oja_sessions():
    assert len(_SESSIONS) >= 9
    assert any(command.endswith("echo $?") for command, _ in _SESSIONS)


@pytest.mark.parametrize("command, shown", _SESSIONS, ids=[c for c, _ in _SESSIONS])
def test_readme_command_prints_what_the_readme_shows(command, shown, capsys):
    invocation, _, rest = command.partition(";")
    argv = shlex.split(invocation, comments=True)[1:]
    code = main(argv)
    captured = capsys.readouterr()
    printed = captured.out.splitlines() + captured.err.splitlines()
    if rest.strip() == "echo $?":
        printed.append(str(code))
    else:
        assert not rest.strip(), f"unsupported shell tail {rest!r}"
        assert code == 0
    end = shown.index("...") if "..." in shown else None
    if end is None:
        assert printed == shown
    else:
        assert printed[:end] == shown[:end]
        assert len(printed) > end


def test_library_usage_block_runs(capsys):
    (block,) = [body for body in _blocks("python") if "orbifold_algebra" in body]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["x1^8 + x2^3 + x3^2", "10 0"]
