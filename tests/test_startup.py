"""Start-up: numpy loads on first use, so pure-Python commands run without it.

Each test runs a fresh interpreter, since this process has numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# Runs argv lists through cli.main and prints one JSON line: the numpy submodules loaded
# after the numpy-free commands, the thread count then, and coeff's stdout without its clock.
NUMPY_FREE = """
import contextlib, io, json, sys
{prelude}
import graphpoly
import graphpoly.cli as cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()

cert = sys.argv[1]
for argv in (["gen", "cycle", "5"], ["at", "petersen", "--orient", "--out", cert], ["check", cert],
             ["orient", "--box", "2,2"]):
    run(*argv)
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
try:
    with open("/proc/self/status") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
except OSError:
    threads = None
result = json.loads(run("coeff", "cycle:3", "--exponent", "2,1,0"))
del result["manifest"]["wall_clock_s"]
print(json.dumps({{"loaded": loaded, "threads": threads, "coeff": result}}))
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV, capture_output=True,
                          text=True, timeout=120)


def test_pure_python_commands_load_no_numpy_and_start_no_thread(tmp_path):
    lazy = _run(NUMPY_FREE.format(prelude=""), str(tmp_path / "a.json"))
    assert lazy.returncode == 0, lazy.stderr
    lazy = json.loads(lazy.stdout)
    assert lazy["loaded"] == []
    if sys.platform.startswith("linux"):
        assert lazy["threads"] == "1"
    # with numpy imported first, graphpoly uses that very module, and coeff answers the same
    eager = _run(NUMPY_FREE.format(prelude="import numpy"), str(tmp_path / "b.json"))
    assert eager.returncode == 0, eager.stderr
    assert json.loads(eager.stdout)["coeff"] == lazy["coeff"]
    same = _run("import numpy, graphpoly; assert graphpoly.coefficients.np is numpy")
    assert same.returncode == 0, same.stderr


def test_a_missing_numpy_still_fails_at_import():
    proc = _run("import sys; sys.modules['numpy'] = None; import graphpoly")
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ModuleNotFoundError") and "numpy" in last, proc.stderr
    assert "AttributeError" not in proc.stderr


def test_python_dash_m_runs_the_cli_without_numpy():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "graphpoly", "orient", "--box", "2,2"],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["outdegrees"] == [1, 1, 1, 1]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "graphpoly.cli" in imported
    assert not [name for name in imported if name.startswith("numpy.")]
