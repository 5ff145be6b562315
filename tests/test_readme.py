"""Every `graphpoly ...` command in the README runs and exits 0."""

import shlex
from pathlib import Path

from graphpoly.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Argument lists of the `graphpoly` lines in the README's sh blocks."""
    commands, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("graphpoly "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    certificates = sorted(tmp_path.glob("*.json"))
    assert certificates
    for cert in certificates:
        assert main(["check", str(cert)]) == 0, cert.name
