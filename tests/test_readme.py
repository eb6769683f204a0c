"""The README's library example, run line by line against the package root."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_shows_its_values():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    lines = re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()
    scope, shown = {}, 0
    for line, after in zip(lines, lines[1:] + [""]):
        if after.startswith("# "):  # an expression, then the value it shows
            assert repr(eval(line, scope)) == after[2:], line
            shown += 1
        elif line and not line.startswith("#"):
            exec(line, scope)
    assert shown == 2
