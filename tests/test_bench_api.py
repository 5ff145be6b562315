"""The benchmark harness still runs against the package: its tracer wraps public
functions by name, so deleting or renaming one fails here, not only in the benchmark."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphpoly import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["transfer", "coeff", "certify_check"])
def test_traced_tiny_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_every_benchmark_cli_row_is_accepted(tmp_path, monkeypatch):
    """Each CLI_CASES row, with --out where it writes, gets past the parser and its mode checks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")

    class Parsed(Exception):
        pass

    def stop(args):  # main builds its run from the parsed arguments before it runs anything
        raise Parsed

    monkeypatch.setattr(cli, "_Run", stop)
    for template, _, writes in workloads.CLI_CASES:
        argv = template.format(tmp=tmp_path, seed=1).split() + ["--out", str(tmp_path / "x.json")] * writes
        with pytest.raises(Parsed):
            cli.main(argv)
    assert not list(tmp_path.iterdir())
