"""The README's examples: the library snippet line by line against the package
root, and every command-line example through `cli.main`."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from cyclotoric.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_snippet_shows_its_values():
    lines = _block("Library", "python").splitlines()
    scope, shown = {}, 0
    for line, after in zip(lines, lines[1:] + [""]):
        if after.startswith("# "):  # an expression, then the value it shows
            assert repr(eval(line, scope)) == after[2:], line
            shown += 1
        elif line and not line.startswith("#"):
            exec(line, scope)
    assert shown == 2


def test_command_line_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the scan example writes its files here
    commands = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert commands
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "cyclotoric", command
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv[1:])
            except SystemExit as exc:  # argparse rejects an unknown option this way
                code = exc.code
        assert code == 0, command
