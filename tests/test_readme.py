"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re

from conftest import REPO


def _library_example() -> str:
    text = (REPO / "README.md").read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    """Each print line's output is the value that opens its `#` comment, so
    a deleted or renamed public name, or a changed result, fails here."""
    source = _library_example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in source.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 5
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + ","), (got, comment)
