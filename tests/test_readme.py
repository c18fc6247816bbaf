"""The README's library example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path


def test_readme_python_example_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "1.414" in out.getvalue()
