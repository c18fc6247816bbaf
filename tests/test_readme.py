"""The README's library example runs and its shell commands parse against the current CLI."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from smoothfix.cli import _build_parser

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "1.414" in out.getvalue()


def test_readme_cli_commands_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("smoothfix ")]
    assert len(commands) >= 7
    for argv in commands:
        args = _build_parser().parse_args(argv[1:])  # parsed, not run
        assert args.command == argv[1]
