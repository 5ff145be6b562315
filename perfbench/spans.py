"""Spans around calls into graphpoly's public functions, and the per-layer
metrics derived from them.

The tracer replaces each listed function by a wrapper in its defining
module and in every graphpoly module (the package itself, ``cli`` and the
other engines) that imported the same object, so calls made through any
of those names are recorded.  Calls between functions of one module go
through the module globals and are recorded too.  Nothing inside the
engines is instrumented: counts come from arguments and return values.

A span is (name, parent, start, end).  A layer's ``busy_s`` sums the
spans of one name that have no ancestor of the same name; ``self_s``
subtracts the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from graphpoly.errors import BudgetExceededError

# Counters filled by the recording hooks below, with their units.
COUNTERS = {
    "transfer.build_phi.scan_entries": "count",
    "transfer.phi.nnz": "count",
    "transfer.phi.max_block_dim": "count",
    "transfer.trace_power.matmul_ops_computed": "count",
    "transfer.trace_power.result_bits": "bits",
    "coefficients.support.entries": "count",
    "coefficients.budget_exceeded": "count",
    "orientations.check_window_conditions.subsets_checked": "count",
    "choosability.random_list_stress.trials": "count",
    "doubling.epsilon_search.tries": "count",
    "verify.verdict.ok": "count",
    "verify.verdict.fail": "count",
}

CERTIFICATE_KINDS = ("coefficient", "trace", "orientation", "prop_cover", "fplan", "chain")

# Notes by which check_certificate says that it accepted without recomputing.
_UNRECOMPUTED_MARKERS = ("not recomputed", "skipped", "structural")


def _phi_stats(tr: "Tracer", args, kwargs, phi) -> None:
    tr.counts["transfer.build_phi.scan_entries"] += len(phi.scan)
    tr.counts["transfer.phi.nnz"] += phi.nnz()
    dim = max((len(rows) for rows in phi.blocks.values()), default=0)
    tr.counts["transfer.phi.max_block_dim"] = max(tr.counts["transfer.phi.max_block_dim"], dim)


def _trace_stats(tr: "Tracer", args, kwargs, value) -> None:
    phi = args[0] if args else kwargs["phi"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    half = k // 2
    # binary powering to Phi^(k/2): one dense d^3 product per squaring and
    # per extra multiply, for every non-empty block
    products = (half.bit_length() - 1) + (bin(half).count("1") - 1)
    for rows in phi.blocks.values():
        if any(rows):
            tr.counts["transfer.trace_power.matmul_ops_computed"] += products * len(rows) ** 3
    tr.counts["transfer.trace_power.result_bits"] += abs(value).bit_length()


def _support_stats(tr: "Tracer", args, kwargs, sup) -> None:
    tr.counts["coefficients.support.entries"] += len(sup)


def _window_stats(tr: "Tracer", args, kwargs, report) -> None:
    tr.counts["orientations.check_window_conditions.subsets_checked"] += report.subsets_checked


def _stress_stats(tr: "Tracer", args, kwargs, report) -> None:
    tr.counts["choosability.random_list_stress.trials"] += report["trials"]


def _epsilon_stats(tr: "Tracer", args, kwargs, cert) -> None:
    # lexicographic rank of the chosen signs ('+' before '-') plus one
    bits = cert["epsilon"].replace("+", "0").replace("-", "1")
    tr.counts["doubling.epsilon_search.tries"] += int(bits or "0", 2) + 1


def _verdict_stats(tr: "Tracer", args, kwargs, result) -> None:
    if not result.ok:
        tr.counts["verify.verdict.fail"] += 1
        return
    tr.counts["verify.verdict.ok"] += 1
    if not any(m in note for note in result.notes for m in _UNRECOMPUTED_MARKERS):
        tr.witnesses_recomputed += 1


def _verify_name(args, kwargs) -> str:
    cert = args[0] if args else kwargs["cert"]
    kind = cert.get("kind") if isinstance(cert, dict) else None
    return f"verify.check.{kind}"


# module -> {function: result hook}; every function gets a span.
TRACED = {
    "coefficients": {
        "coefficient": None,
        "support": _support_stats,
        "almost_central_scan": None,
        "alon_tarsi_number_exact": None,
    },
    "transfer": {
        "build_phi": _phi_stats,
        "trace_power": _trace_stats,
        "even_cycle_certificate": None,
    },
    "orientations": {
        "odd_cycle_product_orientation": None,
        "orient_with_bounds": None,
        "check_window_conditions": _window_stats,
        "orientation_certificate": None,
        "has_odd_directed_cycle": None,
        "cycle_product_chain": None,
    },
    "choosability": {
        "random_list_stress": _stress_stats,
        "coefficient_choosability_certificate": None,
        "at_certificate_exact": None,
    },
    "doubling": {
        "cycle_cover_certificate": None,
        "build_plan": None,
        "epsilon_search": _epsilon_stats,
    },
    "verify": {"verify": None},
    "certificates": {
        "finalize_certificate": None,
        "check_certificate": _verdict_stats,
    },
    "cli": {"main": None},
    "graphio": {"parse_graph_spec": None},
    "graphs": {"cartesian_product": None},
}

# Span names reported as "<name>.busy_s" (and ".calls" where listed).
BUSY = (
    "transfer.build_phi",
    "transfer.trace_power",
    "coefficients.coefficient",
    "coefficients.support",
    "coefficients.almost_central_scan",
    "coefficients.alon_tarsi_number_exact",
    "orientations.odd_cycle_product_orientation",
    "orientations.orient_with_bounds",
    "orientations.check_window_conditions",
    "orientations.orientation_certificate",
    "orientations.has_odd_directed_cycle",
    "orientations.cycle_product_chain",
    "choosability.random_list_stress",
    "choosability.coefficient_choosability_certificate",
    "choosability.at_certificate_exact",
    "doubling.cycle_cover_certificate",
    "doubling.build_plan",
    "doubling.epsilon_search",
    *(f"verify.check.{kind}" for kind in CERTIFICATE_KINDS),
    "graphio.parse_graph_spec",
    "certificates.finalize_certificate",
    "graphs.cartesian_product",
)
CALLS = (
    "transfer.build_phi",
    "transfer.trace_power",
    "coefficients.coefficient",
    "coefficients.support",
    "coefficients.almost_central_scan",
    "coefficients.alon_tarsi_number_exact",
    "cli.main",
)

# Metrics that the traced run adds about itself and about the job outcomes.
RUN_METRICS = (
    ("ops_attempted", "count"),
    ("ops_failed", "share"),
    ("ops_failed_count", "count"),
    ("false_accepts", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "share"),
    ("trace.top_level_coverage", "share"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in BUSY:
        units[f"{name}.busy_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    units["cli.main.self_s"] = "s"
    units.update(COUNTERS)
    units["verify.recomputed_ratio"] = "share"
    for name, unit in RUN_METRICS:
        units[name] = unit
    return units


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.witnesses_recomputed = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, namer: Optional[Callable], hook: Optional[Callable]) -> Callable:
        is_coeff = name.startswith("coefficients.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            parent = self.stack[-1] if self.stack else -1
            span = [label, parent, time.perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                # counted once, where it leaves the coefficients layer
                if is_coeff and (parent < 0 or not self.spans[parent][0].startswith("coefficients.")):
                    self.counts["coefficients.budget_exceeded"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        homes = {name: importlib.import_module(f"graphpoly.{name}") for name in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "graphpoly" or n.startswith("graphpoly.")]
        for mod_name, functions in TRACED.items():
            home = homes[mod_name]
            for fn_name, hook in functions.items():
                original = getattr(home, fn_name)
                namer = _verify_name if (mod_name, fn_name) == ("verify", "verify") else None
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original, namer, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self, window: tuple[float, float]) -> dict[str, float]:
        """Per-layer values over all spans, and top-level coverage of window."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                busy[name] += end - start
            if parent < 0 and start >= window[0] and end <= window[1]:
                covered += end - start
        out: dict[str, float] = {}
        for name in BUSY:
            out[f"{name}.busy_s"] = busy[name]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        out["cli.main.self_s"] = self_s["cli.main"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        accepted = self.counts["verify.verdict.ok"]
        out["verify.recomputed_ratio"] = self.witnesses_recomputed / accepted if accepted else 0.0
        out["trace.top_level_coverage"] = covered / (window[1] - window[0])
        return out

