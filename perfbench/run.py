#!/usr/bin/env python3
"""graphpoly benchmark harness.

    python3 perfbench/run.py --workload {transfer,coeff,certify_check} \\
        --seed N --seconds S --trace {0,1} [--tiny]

Runs one workload in this process, a closed loop of jobs one after
another, with BLAS/OpenMP threads capped at the core count before numpy
loads.  graphpoly is imported from ``src/`` of the checkout that holds
this directory; without it the harness exits non-zero and prints no
result.

``--trace 0`` repeats whole passes over the job list, at least
``MIN_PASSES`` of them and then until the next pass would end after
``--seconds``.  Every job time it reports is in reference seconds: the
measured time scaled by how fast the host ran a fixed calibration kernel
around it (see ``SpeedGauge``), so that the host's drift, which moves
raw times by up to 1.5x between stretches of seconds, cancels.  Each job
counts with its median over the passes (a job under 10 ms is the fastest
of 5 back-to-back repeats in each pass).  ``wall_s`` sums these medians
over all jobs, ``certify_s`` and ``check_s`` over the prover and the
verifier jobs.  ``setup_s`` is the CPU time of a fresh interpreter that
imports graphpoly and builds the inputs, scaled the same way by a
reference probe that imports only numpy and the standard library (see
``measure_setup``).  The report lines also give the raw, unscaled
figures.

``--trace 1`` runs untraced passes for half of ``--seconds`` and then
one traced pass, and reports the per-layer metrics of the traced pass
plus the tracing overhead against the last untraced pass.

Every job's answer is compared with the frozen truth in
``expected.json``; a wrong answer makes ``correct`` false and the exit
code 1.  The defects recorded there as the seed state (forged
certificates that ``check`` accepts, a coefficient over its budget) are
reported, not fatal.  ``--tiny`` keeps only the cheap jobs; the
self-test uses it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with the machine details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh-interpreter setup probes per run, each followed by a reference
# probe; the median is reported.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 120
# The reference probe: a fresh interpreter that imports numpy and some of
# the standard library, and nothing of graphpoly.
REF_PROBE = ("import time, argparse, dataclasses, fractions, hashlib, itertools, json, numpy, "
             "random, subprocess, tempfile; print(time.process_time(), 0.0)")
# Reference seconds of setup are CPU seconds on a host where the
# reference probe takes this much CPU time.
REF_PROBE_S = 0.2
# Jobs shorter than this are timed as the fastest of several repeats.
SHORT_JOB_S = 0.01
SHORT_JOB_REPEATS = 5
# Every job is timed in at least this many passes of a --trace 0 run.
MIN_PASSES = 3
# Reference seconds are seconds on a host that runs the calibration
# kernel in this time.
REF_KERNEL_S = 0.01
# The kernel is timed as the fastest of this many back-to-back runs.
KERNEL_REPEATS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "certify_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}


def prepare_environment() -> dict[str, str]:
    """Cap native threads and put this checkout's graphpoly first on the path.

    Must run before numpy is imported.  Returns the thread caps.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    if not (SRC / "graphpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: graphpoly sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in THREAD_VARS}


class SpeedGauge:
    """Gauges the host's current speed with a fixed calibration kernel.

    The kernel mixes the kinds of work graphpoly does (dict and small-int
    interpreter work, big-integer products, an int64 matmul) and calls
    nothing of graphpoly, so a change to the program cannot move it.  On
    a shared host both the kernel and the jobs slow down together, and a
    job's time over the kernel's time around it stays put where the raw
    time drifts.  Needs numpy, so construct it after prepare_environment.
    """

    def __init__(self) -> None:
        import numpy

        self._matrix = numpy.arange(96 * 96, dtype=numpy.int64).reshape(96, 96) % 7
        self._big = 3 ** 4000
        self.kernel()  # warm up

    def kernel(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(20000):
            key = i & 511
            table[key] = table.get(key, 0) + i * i
            acc += i % 7
        for _ in range(4):
            self._matrix @ self._matrix
        x, modulus = self._big, self._big + 12345
        for _ in range(20):
            x = x * self._big % modulus

    def sample(self) -> float:
        """Seconds the kernel takes now: the fastest of KERNEL_REPEATS runs."""
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        return best


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def probe_setup(workload: str, seed: int, tiny: bool) -> None:
    """Body of one setup probe: import graphpoly and build the inputs, in a
    fresh interpreter; prints the CPU seconds this interpreter has used,
    its start included, and the wall seconds since this function began."""
    t0 = time.perf_counter()
    prepare_environment()
    import workloads

    workloads.build(workload, seed, load_expected(), tiny=tiny)
    print(time.process_time(), time.perf_counter() - t0)


def run_probe(code: str) -> tuple[float, float]:
    """CPU and wall seconds printed by a fresh interpreter running code."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    cpu_s, wall_s = map(float, proc.stdout.strip().splitlines()[-1].split())
    return cpu_s, wall_s


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float, float]:
    """setup_s in reference seconds, and the raw medians of its CPU and
    wall times.

    Setup probes alternate with reference probes, and each setup probe's
    CPU time is scaled by REF_PROBE_S over the mean CPU time of the
    reference probes just before and just after it.  Import work tracks
    the host's speed worse than the calibration kernel does: over eighteen
    stretches of 12 probe pairs, the median raw CPU time of the setup
    spread by 20% (IQR over median), scaled by the kernel by 12%, and
    scaled by the reference probe by 5%.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"run.probe_setup({workload!r}, {seed}, {tiny})"
    )
    ref, cpu, wall = [], [], []
    ref_before = run_probe(REF_PROBE)[0]
    for _ in range(SETUP_PROBES):
        cpu_s, wall_s = run_probe(code)
        ref_after = run_probe(REF_PROBE)[0]
        cpu.append(cpu_s)
        wall.append(wall_s)
        ref.append(cpu_s * REF_PROBE_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(ref), statistics.median(cpu), statistics.median(wall)


def classify(job, answer, exc, expected: dict) -> str:
    """ok, wrong, error, budget or false_accept."""
    from graphpoly.errors import BudgetExceededError

    if isinstance(exc, BudgetExceededError):
        return "budget"
    if exc is not None:
        return "error"
    if job.forged:
        return "false_accept" if answer else "ok"
    if isinstance(answer, dict) and answer.get("rc") == 3:  # CLI budget exit
        return "budget"
    truth = True if job.key == "accepted" else expected[job.key]
    return "ok" if json.loads(json.dumps(answer)) == truth else "wrong"


class Pass:
    """Times and outcomes of one pass over the jobs of a workload.

    ``ctx`` carries the run's scratch directory and the certificates
    that verifier jobs check; it outlives the pass.  With a gauge, the
    kernel is timed before the first job and after every job, and
    ``ref_s`` holds each job's time in reference seconds, scaled by the
    mean of the kernel times just before and just after it; a job that
    took less than SHORT_JOB_S then runs SHORT_JOB_REPEATS times back to
    back and its fastest time counts, as timeit does; its first answer is
    the one checked.
    """

    def __init__(self, wl, expected: dict, ctx: dict, gauge: Optional[SpeedGauge] = None) -> None:
        self.job_s: dict[int, float] = {}
        self.ref_s: dict[int, float] = {}
        self.outcomes: list[tuple] = []
        section = expected[wl.name]
        self.start = time.perf_counter()
        kernel_before = gauge.sample() if gauge else None
        for i, job in enumerate(wl.jobs):
            t0 = time.perf_counter()
            answer, exc = None, None
            try:
                answer = job.run(ctx)
            except Exception as e:  # a raising job is a counted outcome, not a crash
                exc = e
                # the frames would keep the failed job's working set alive
                exc.__traceback__ = None
            seconds = time.perf_counter() - t0
            if gauge and exc is None and seconds < SHORT_JOB_S:
                for _ in range(SHORT_JOB_REPEATS - 1):
                    t0 = time.perf_counter()
                    job.run(ctx)
                    seconds = min(seconds, time.perf_counter() - t0)
            self.job_s[i] = seconds
            if gauge:
                kernel_after = gauge.sample()
                self.ref_s[i] = seconds * REF_KERNEL_S / ((kernel_before + kernel_after) / 2)
                kernel_before = kernel_after
            self.outcomes.append((job, classify(job, answer, exc, section), answer, exc))
        self.end = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def job_seconds(wl, passes: list[Pass], roles: tuple[str, ...], times: str) -> float:
    """Sum over the jobs of the given roles of that job's median time over
    the passes; ``times`` is "ref_s" or "job_s"."""
    return sum(statistics.median(getattr(p, times)[i] for p in passes)
               for i, job in enumerate(wl.jobs) if job.role in roles)


def summarize(p: Pass, seed_state: dict) -> dict:
    """Failure counts of a pass.  ``unexpected`` excludes the recorded seed
    state; ``fatal`` lists wrong answers, errors and new false accepts."""
    failed = [(job, out) for job, out, _, _ in p.outcomes if out != "ok"]
    unexpected = [(job, out) for job, out in failed if seed_state.get(job.name) != out]
    return {
        "attempted": len(p.outcomes),
        "failed": len(failed),
        "unexpected": len(unexpected),
        "false_accepts": sum(out == "false_accept" for _, out in failed),
        "fatal": [(job, out) for job, out in unexpected if out != "budget"],
    }


def report_failures(passes: list[Pass], seed_state: dict) -> None:
    seen = set()
    for job, out, answer, exc in (o for p in passes for o in p.outcomes):
        if out == "ok" or (job.name, out) in seen:
            continue
        seen.add((job.name, out))
        tag = "seed state" if seed_state.get(job.name) == out else "UNEXPECTED"
        detail = repr(exc) if exc is not None else f"answer {json.dumps(answer, default=str)[:300]}"
        print(f"# job {job.name}: {out} ({tag}) {detail}", file=sys.stderr)


def run_passes(wl, expected: dict, ctx: dict, seconds: float, *, min_passes: int,
               gauge: Optional[SpeedGauge] = None) -> list[Pass]:
    """At least min_passes passes, then more until the next one, as long
    as the last, would end after `seconds`."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        gc.collect()  # each pass starts from the same heap
        passes.append(Pass(wl, expected, ctx, gauge))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + passes[-1].wall_s > seconds:
            return passes


def write_inputs(wl, tmp: str) -> None:
    import graphpoly.graphio as graphio

    for name, cert in wl.files.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(graphio.canonical_json(cert) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("transfer", "coeff", "certify_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cheap jobs only (self-test scale)")
    args = parser.parse_args(argv)

    caps = prepare_environment()
    import numpy

    import graphpoly
    import workloads
    from spans import Tracer, per_layer_units

    if Path(graphpoly.__file__).resolve().parent != SRC / "graphpoly":
        raise SystemExit(f"error: imported graphpoly from {graphpoly.__file__}, not {SRC}")
    expected = load_expected()
    seed_state = expected["seed_state"].get(args.workload, {})
    env = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": caps,
    }
    print(f"# graphpoly benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    ctx = {"tmp": tmp}
    try:
        if args.trace:
            wl = workloads.build(args.workload, args.seed, expected, tiny=args.tiny)
            write_inputs(wl, tmp)
            # the last of these untraced passes is the warm baseline for the overhead
            passes = run_passes(wl, expected, ctx, args.seconds / 2, min_passes=1)
            untraced = passes[-1]
            gc.collect()
            with Tracer() as tracer:
                wl = workloads.build(args.workload, args.seed, expected, tiny=args.tiny)
                main_pass = Pass(wl, expected, ctx)
            values = tracer.layer_metrics((main_pass.start, main_pass.end))
            passes.append(main_pass)
        else:
            setup_s, setup_raw_s, setup_wall_s = measure_setup(args.workload, args.seed, args.tiny)
            wl = workloads.build(args.workload, args.seed, expected, tiny=args.tiny)
            write_inputs(wl, tmp)
            passes = run_passes(wl, expected, ctx, args.seconds, min_passes=MIN_PASSES,
                                gauge=SpeedGauge())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report_failures(passes, seed_state)
    sums = [summarize(p, seed_state) for p in passes]
    s = sums[-1] if args.trace else sums[0]  # a pass with every job
    fatal = [f for summ in sums for f in summ["fatal"]]
    if args.trace:
        values.update({
            "ops_attempted": s["attempted"],
            "ops_failed": s["failed"] / s["attempted"],
            "ops_failed_count": s["failed"],
            "false_accepts": s["false_accepts"],
            "trace.wall_s": main_pass.wall_s,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.overhead": main_pass.wall_s / untraced.wall_s - 1.0,
        })
        units = per_layer_units()
    else:
        roles = {
            "wall_s": (workloads.CERTIFY, workloads.CHECK),
            "certify_s": (workloads.CERTIFY,),
            "check_s": (workloads.CHECK,),
        }
        values = {name: job_seconds(wl, passes, r, "ref_s") for name, r in roles.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = {name: job_seconds(wl, passes, r, "job_s") for name, r in roles.items()}
        raw["setup_s"] = setup_raw_s
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"# passes={len(passes)} jobs/pass={s['attempted']} "
          f"median pass={statistics.median(p.wall_s for p in passes):.6g} s "
          f"known seed-state failures={len(seed_state)}")
    if not args.trace:
        for name, m in metrics.items():
            unscaled = f"  (raw {raw[name]:.6g} s)" if name in raw else ""
            print(f"# {name} = {m['value']:.6g} {m['unit']}{unscaled}")
        print(f"# setup wall time = {setup_wall_s:.6g} s (raw median over the probes)")
    print(f"# ops_failed = {s['failed'] / s['attempted']:.6g} share "
          f"({s['failed']} of {s['attempted']} jobs)")
    print(f"# false_accepts = {s['false_accepts']} count")
    if args.trace:
        print(f"# tracing overhead = {values['trace.overhead']:+.2%} of untraced wall_s; "
              f"top-level spans cover {values['trace.top_level_coverage']:.1%} of traced wall_s")
    result = {
        "correct": not fatal,
        "attempted": sum(summ["attempted"] for summ in sums),
        "failed": sum(summ["unexpected"] for summ in sums),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=False))
    return 0 if not fatal else 1


if __name__ == "__main__":
    sys.exit(main())
