"""README.md's "Library use" block runs as written and prints what it
did when it was written, so the library docs cannot drift from the code."""

import contextlib
import io
import pathlib
import re
import warnings

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("## Library use")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block():
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(library_block(), str(README), "exec"), {})
    printed = [float(x) for x in re.findall(r"[-+.\deE]+", out.getvalue())]
    assert printed == pytest.approx(
        [1.6717477703912107, 1.1797817294550959, 2.1637138113273253],
        rel=1e-12, abs=0.0)
