"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "{'s': ('x0',), 't': ('y0', 'y1')}\n"
