"""The README's library example and its shell commands run against the current package."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from smoothfix.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "1.414" in out.getvalue()


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every smoothfix line of the sh blocks, in order, in a directory that
    # holds the README's polya config as polya8.json
    config = re.search(r'^\{"model": \{"type": "polya".*\}$', README, flags=re.M).group(0)
    (tmp_path / "polya8.json").write_text(config)
    blocks = re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("smoothfix ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
