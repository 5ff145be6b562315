"""Smoke test: tools/cli_outputs.py prints one canonical line per command, the same on every run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_outputs_lists_every_command_and_repeats_byte_for_byte():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py")], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    commands = [line["command"] for line in lines]
    assert sum(c.startswith("python demos/") for c in commands) == 5
    assert "graphpoly coeff cycle:3 --almost-central" in commands
    checks = [line for line in lines if line["command"].startswith("graphpoly check ")]
    written = [name for line in lines for name in line["files"] if name.endswith(".json")]
    assert len(checks) >= len(written) >= 15 and all(line["rc"] == 0 for line in checks)
    assert "wall_clock_s" not in runs[0].stdout and all(line["stderr"] == "" for line in lines)
