"""Print one canonical line per graphpoly command, to compare the CLI of two trees byte for byte.

    python tools/cli_outputs.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this script); its
``src`` is imported and its commands are run.  The commands are every
``perfbench/workloads.CLI_CASES`` row (read from ROOT, with ``--out`` where the row
writes a certificate), every ``graphpoly`` line of ROOT's README, the fixed
``TRACE_ROWS`` below, ``check`` on each JSON file a command wrote, and the five
demos.  Each line is a JSON object: the command, its exit code, its stdout
without the manifest's ``wall_clock_s``, its stderr and the sha256 of each file
it wrote.  Commands run in one temporary
directory, named ``.`` on their command lines, so paths in the manifests do not
depend on where it is.  Run it on two trees and diff the outputs: the only
difference left is a real one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEED = 7  # the --seed of the stress rows

# Traces that run modulo primes, which no CLI_CASES or README row reaches: stacks of one prime for
# the 210- and 252-row blocks, stacks of 5 to 23 primes, one stack of 786 primes, and a trace
# certificate that check recomputes the same way.  Together they take about 0.4 s.
TRACE_ROWS = [
    "phi cyclepower:10:2 --trace 8",
    "phi cyclepower:8:3 --trace 64",
    "phi cycle:3 --trace 20000",
    "at cyclepower:10:2 --trace 8 --out c10.json",
]


def _strip_wall_clock(text: str) -> str:
    """stdout with the manifest's wall clock dropped from each JSON line; other lines as they are."""
    lines = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(obj, dict) and isinstance(obj.get("manifest"), dict):
            obj["manifest"].pop("wall_clock_s", None)
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines)


def _snapshot(directory: Path) -> dict[str, tuple[int, str]]:
    """(modification time, sha256) of each file, so a file rewritten with the same bytes counts as written."""
    return {p.name: (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(directory.iterdir())}


def _line(what: str, rc: int, out: str, err: str, files: dict[str, str]) -> str:
    return json.dumps({"command": what, "rc": rc, "stdout": _strip_wall_clock(out), "stderr": err,
                       "files": files}, sort_keys=True, separators=(",", ":"))


def cli_commands(root: Path) -> list[list[str]]:
    """Argument lists of the CLI_CASES rows, then the README's graphpoly lines, then TRACE_ROWS."""
    spec = importlib.util.spec_from_file_location("_cli_cases", root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    commands = []
    for i, (template, _, writes) in enumerate(workloads.CLI_CASES):
        argv = template.format(tmp=".", seed=SEED).split()
        commands.append(argv + (["--out", f"cert{i}.json"] if writes else []))
    in_sh = False
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("graphpoly "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands + [row.split() for row in TRACE_ROWS]


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.dont_write_bytecode = True  # leave no bytecode in ROOT's perfbench/ or src/
    sys.path.insert(0, str(root / "src"))
    from graphpoly.cli import main as graphpoly

    def run(args: list[str], tmp: Path) -> tuple[str, dict[str, str]]:
        before = _snapshot(tmp)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = graphpoly(args)
        after = _snapshot(tmp)
        files = {name: stamp[1] for name, stamp in after.items() if before.get(name) != stamp}
        return _line(shlex.join(["graphpoly", *args]), rc, out.getvalue(), err.getvalue(), files), files

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        os.chdir(tmp)
        try:
            for args in cli_commands(root):
                line, files = run(args, tmp)
                print(line)
                for written in files:
                    if written.endswith(".json"):
                        print(run(["check", written], tmp)[0])
        finally:
            os.chdir(cwd)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for script in sorted((root / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], cwd=root, env=env, capture_output=True, text=True)
        print(_line(f"python demos/{script.name}", proc.returncode, proc.stdout, proc.stderr, {}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
