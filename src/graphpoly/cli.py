"""Command-line front end with reproducible, machine-readable output.

Subcommands: gen, coeff, at, phi, orient, choosable, check.  Every run
emits a manifest (command, graph digest, parameters, seed, budgets,
wall-clock); certificates are canonical JSON, so identical inputs and
seed produce byte-identical certificate files.  Exit codes: 0 success or
pass, 1 no-certificate / infeasible / failed check (a valid mathematical
answer), 2 usage error, 3 budget exceeded, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional

from . import __version__
from .certificates import check_certificate, encode_int
from .choosability import (
    at_certificate_exact,
    coefficient_choosability_certificate,
    f_choosable_exhaustive,
    list_coloring_exists,
    random_list_stress,
)
from .coefficients import almost_central_scan, coefficient, support
from .doubling import build_plan, cycle_cover_certificate, epsilon_search
from .errors import BudgetExceededError, GraphPolyError, InvariantViolationError
from .graphio import (
    canonical_json,
    graph_digest,
    load_graph,
    parse_graph_spec,
    save_graph,
    to_json_obj,
)
from .graphs import coloring_number
from .limits import DEFAULT_BUDGET, SUBSET_VERTEX_CAP
from .orientations import (
    acyclic_orientation,
    box_orientation,
    check_window_conditions,
    has_odd_directed_cycle,
    odd_cycle_product_orientation,
    orientation_certificate,
    orient_with_bounds,
)
from .transfer import build_phi, check_trace_request, even_cycle_certificate, trace_power

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


class _Run:
    """Collects the manifest and prints the result in the chosen format."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.manifest = {
            "command": args.command,
            "version": __version__,
            "parameters": {},
            "seed": getattr(args, "seed", None),
            "budget": getattr(args, "budget", None),
            "outputs": [],
        }

    def param(self, **kwargs):
        self.manifest["parameters"].update(kwargs)

    def graph(self, g):
        self.manifest["graph_digest"] = graph_digest(g)

    def emit(self, result: dict, certificate: Optional[dict] = None) -> None:
        self.manifest["wall_clock_s"] = round(time.monotonic() - self.t0, 6)
        out_path = getattr(self.args, "out", None)
        if certificate is not None:
            if out_path:
                with open(out_path, "w") as fh:
                    fh.write(canonical_json(certificate) + "\n")
                self.manifest["outputs"].append(out_path)
            else:
                result = dict(result)
                result["certificate"] = certificate
        payload = {"manifest": self.manifest, "result": result}
        if self.args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for key, value in result.items():
                print(f"{key}: {value if not isinstance(value, dict) else json.dumps(value)}")
            print(f"[{self.manifest['command']}: {self.manifest['wall_clock_s']}s]")


def _cmd_gen(args, run: _Run) -> int:
    spec = ":".join([args.family] + args.params)
    g = parse_graph_spec(spec)
    run.graph(g)
    run.param(spec=spec)
    if args.out:
        save_graph(g, args.out, fmt="json" if args.json else "edgelist")
        run.manifest["outputs"].append(args.out)
        run.emit({"n": g.n, "edges": g.num_edges, "written": args.out})
    else:
        run.emit({"n": g.n, "edges": g.num_edges, "graph": to_json_obj(g)})
    return EXIT_OK


def _cmd_coeff(args, run: _Run) -> int:
    g = load_graph(args.graph)
    run.graph(g)
    if args.exponent is not None:
        xi = args.exponent
        run.param(exponent=list(xi), method=args.method)
        value = coefficient(g, xi, method=args.method, budget=args.budget)
        result = {"exponent": list(xi), "coefficient": encode_int(value)}
        if sum(xi) != g.num_edges:
            result["advisory"] = (
                f"total degree {sum(xi)} != edge count {g.num_edges}; "
                "the polynomial is homogeneous, so the coefficient is 0"
            )
        run.emit(result)
        return EXIT_OK
    if args.almost_central or args.support is not None:
        if args.almost_central:
            sup = almost_central_scan(g, budget=args.budget)
            run.param(window="almost-central")
        else:
            sup = support(g, args.support, budget=args.budget)
            run.param(cap=list(args.support))
        run.emit({"entries": [{"exponent": list(k), "coefficient": encode_int(v)}
                              for k, v in sup.sorted_items()],
                  "count": len(sup)})
        return EXIT_OK
    print("coeff: need --exponent, --almost-central, or --support", file=sys.stderr)
    return EXIT_USAGE


def _cmd_at(args, run: _Run) -> int:
    modes = [args.exact, args.trace is not None, args.orient, args.prop6, args.fplan is not None]
    if sum(bool(m) for m in modes) != 1:
        print("at: choose exactly one of --exact, --trace K, --orient, --prop6, --fplan TAU",
              file=sys.stderr)
        return EXIT_USAGE
    g = load_graph(args.graph)
    run.graph(g)
    if args.exact:
        cert = at_certificate_exact(g, budget=args.budget)
        run.param(mode="exact")
        run.emit({"alon_tarsi_number": cert["at_bound"],
                  "witness_exponent": cert["witness_exponent"]}, cert)
        return EXIT_OK
    if args.trace is not None:
        run.param(mode="trace", k=args.trace)
        cert = even_cycle_certificate(g, args.trace, budget=args.budget)
        if cert is None:
            run.emit({"certificate": None,
                      "reason": "empty almost-central window (not a disproof)"})
            return EXIT_NO_CERTIFICATE
        run.emit({"at_bound_for_product": cert["at_bound"], "k": args.trace,
                  "trace_value": cert["trace_value"]}, cert)
        return EXIT_OK
    if args.orient:
        run.param(mode="orient")
        ori = acyclic_orientation(g)
        cert = orientation_certificate(ori)
        run.emit({"at_bound": cert["at_bound"],
                  "outdegrees": cert["outdegrees"]}, cert)
        return EXIT_OK
    if args.prop6:
        run.param(mode="prop6")
        cert = cycle_cover_certificate(g, budget=args.budget)
        if cert is None:
            run.emit({"certificate": None,
                      "reason": "no vertex-disjoint cycle cover of the maximum-degree vertices"})
            return EXIT_NO_CERTIFICATE
        run.emit({"at_bound_for_product": cert["at_bound"],
                  "cover_cycles": cert["cover_cycles"]}, cert)
        return EXIT_OK
    run.param(mode="fplan", tau=list(args.fplan))
    plan = build_plan(g, args.fplan, budget=args.budget)
    cert = epsilon_search(plan, budget=args.budget)
    run.emit({"f": cert["f"], "epsilon": cert["epsilon"],
              "witness_exponent": cert["witness_exponent"]}, cert)
    return EXIT_OK


def _cmd_phi(args, run: _Run) -> int:
    g = load_graph(args.graph)
    run.graph(g)
    if args.trace is not None:
        check_trace_request(g.n, args.trace)
    phi = build_phi(g, budget=args.budget)
    result = {
        "n": phi.n,
        "half_degrees": list(phi.a),
        "symmetry": "symmetric" if phi.sigma == 1 else "skew-symmetric",
        "nonzero_entries": phi.nnz(),
        "block_nonzeros": {str(s): c for s, c in phi.block_nnz().items() if c},
    }
    if args.trace is not None:
        result["k"] = args.trace
        result["trace_value"] = encode_int(trace_power(phi, args.trace))
        run.param(k=args.trace)
    run.emit(result)
    return EXIT_OK


def _cmd_orient(args, run: _Run) -> int:
    modes = [args.lower is not None or args.upper is not None,
             args.box is not None, args.odd_product is not None]
    if sum(bool(m) for m in modes) != 1:
        print("orient: choose --lower/--upper, --box KS, or --odd-product KS",
              file=sys.stderr)
        return EXIT_USAGE
    builder = None if modes[0] else "--box" if args.box is not None else "--odd-product"
    conflict = None
    if builder and args.graph is not None:
        conflict = f"{builder} builds its own graph; drop the graph {args.graph!r}"
    elif builder and args.check_conditions:
        conflict = f"--check-conditions applies to --lower/--upper, not to {builder}"
    elif not builder and args.graph is None:
        conflict = "--lower/--upper need a graph"
    if conflict:
        print(f"orient: {conflict}", file=sys.stderr)
        return EXIT_USAGE
    if args.box is not None:
        run.param(box=list(args.box))
        ori = box_orientation(args.box)
        if ori is None:
            run.emit({"feasible": False})
            return EXIT_NO_CERTIFICATE
        run.graph(ori.graph)
        run.emit({"feasible": True, "directions": ori.bitstring(),
                  "outdegrees": list(ori.outdegree_vector())})
        return EXIT_OK
    if args.odd_product is not None:
        run.param(odd_product=list(args.odd_product))
        ori = odd_cycle_product_orientation(args.odd_product)
        run.graph(ori.graph)
        cert = orientation_certificate(ori)
        run.emit({"outdegrees_range": sorted(set(ori.outdegree_vector())),
                  "odd_directed_cycle": has_odd_directed_cycle(ori),
                  "at_bound": cert["at_bound"]}, cert)
        return EXIT_OK
    g = load_graph(args.graph)
    run.graph(g)
    lower = args.lower if args.lower is not None else (0,) * g.n
    upper = args.upper if args.upper is not None else tuple(g.degree_vector())
    run.param(lower=list(lower), upper=list(upper))
    if args.check_conditions:
        report = check_window_conditions(g, lower, upper)
        run.emit({
            "all_subsets_pass": report.ok,
            "failing_subset": list(report.failing_subset) if report.failing_subset else None,
            "condition": report.condition,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "subsets_checked": report.subsets_checked,
        })
        return EXIT_OK if report.ok else EXIT_NO_CERTIFICATE
    ori = orient_with_bounds(g, lower, upper)
    if ori is None:
        report = check_window_conditions(g, lower, upper) if g.n <= SUBSET_VERTEX_CAP else None
        result = {"feasible": False}
        if report is not None and not report.ok:
            result["violating_subset"] = list(report.failing_subset)
            result["condition"] = report.condition
        run.emit(result)
        return EXIT_NO_CERTIFICATE
    run.emit({"feasible": True, "directions": ori.bitstring(),
              "outdegrees": list(ori.outdegree_vector()),
              "odd_directed_cycle": has_odd_directed_cycle(ori)})
    return EXIT_OK


def _cmd_choosable(args, run: _Run) -> int:
    g = load_graph(args.graph)
    run.graph(g)
    f = args.f if args.f is not None else (coloring_number(g),) * g.n
    if len(f) == 1:
        f = f * g.n
    run.param(f=list(f), universe=args.universe)
    if args.certificate:
        cert = coefficient_choosability_certificate(g, f, budget=args.budget)
        if cert is None:
            run.emit({"certificate": None,
                      "reason": "no support element fits below f (not a disproof)"})
            return EXIT_NO_CERTIFICATE
        run.emit({"f": list(f), "witness_exponent": cert["witness_exponent"]}, cert)
        return EXIT_OK
    if args.stress is not None:
        seed = args.seed if args.seed is not None else 0
        report = random_list_stress(g, f, args.stress, seed, args.universe)
        run.emit(report)
        return EXIT_OK if not report["failures"] else EXIT_NO_CERTIFICATE
    if args.exhaustive:
        ok = f_choosable_exhaustive(g, f, args.universe)
        run.emit({"f": list(f), "f_choosable": ok})
        return EXIT_OK if ok else EXIT_NO_CERTIFICATE
    if args.lists:
        with open(args.lists) as fh:
            lists = json.load(fh)
        if not (isinstance(lists, list) and len(lists) == g.n and all(
                isinstance(l, list) and all(type(c) is int for c in l) for l in lists)):
            raise ValueError(f"--lists needs a JSON array of {g.n} arrays of integers")
        ok, coloring = list_coloring_exists(g, lists)
        run.emit({"colorable": ok, "coloring": list(coloring) if coloring else None})
        return EXIT_OK if ok else EXIT_NO_CERTIFICATE
    print("choosable: need --certificate, --stress N, --exhaustive, or --lists FILE",
          file=sys.stderr)
    return EXIT_USAGE


def _cmd_check(args, run: _Run) -> int:
    with open(args.certificate) as fh:
        cert = json.load(fh)
    kind = cert.get("kind") if isinstance(cert, dict) else None
    run.param(certificate=args.certificate, kind=kind)
    try:
        result = check_certificate(cert, budget=args.budget)
    except BudgetExceededError as exc:
        # unverified, not refuted: the manifest says so, and main still exits 3
        run.emit({"kind": kind, "pass": False, "errors": [f"unverified: budget exceeded: {exc}"],
                  "notes": []})
        raise
    run.emit({
        "kind": result.kind,
        "pass": result.ok,
        "errors": result.errors,
        "notes": result.notes,
    })
    return EXIT_OK if result.ok else EXIT_NO_CERTIFICATE


def _add_global_options(parser, *, suppress: bool) -> None:
    # Present on the root parser (with defaults) and on every subparser
    # (defaults suppressed), so flags work before or after the subcommand.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("json", "text"),
                        default=d if suppress else "json")
    parser.add_argument("--budget", type=int, default=d,
                        help=f"DP state budget (default {DEFAULT_BUDGET})")
    parser.add_argument("--seed", type=int, default=d)
    parser.add_argument("--out", default=d, help="write the certificate to this file")


@functools.cache  # parse_args keeps no state in the parser, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpoly",
        description="Exact graph-polynomial coefficients, Alon-Tarsi numbers, "
                    "and choosability certificates.",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, suppress=True)
        return p

    p = add_parser("gen", help="generate a graph file")
    p.add_argument("family", help="cycle|path|complete|cyclepower|digon|petersen|product")
    p.add_argument("params", nargs="*", help="family parameters, e.g. 'gen cycle 5'")
    p.add_argument("--json", action="store_true", help="write JSON instead of edge list")

    p = add_parser("coeff", help="extract coefficients")
    p.add_argument("graph", help="graph file or generator spec like cycle:5")
    p.add_argument("--exponent", type=_parse_vector)
    p.add_argument("--almost-central", action="store_true")
    p.add_argument("--support", type=_parse_vector, metavar="CAP")
    p.add_argument("--method", choices=("dp", "enumerate", "both"), default="dp")

    p = add_parser("at", help="Alon-Tarsi bounds and certificates")
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--trace", type=int, metavar="K")
    p.add_argument("--orient", action="store_true")
    p.add_argument("--prop6", action="store_true")
    p.add_argument("--fplan", type=_parse_vector, metavar="TAU")

    p = add_parser("phi", help="transfer matrix summary and traces")
    p.add_argument("graph")
    p.add_argument("--trace", type=int, metavar="K")

    p = add_parser("orient", help="degree-window orientations")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--lower", type=_parse_vector)
    p.add_argument("--upper", type=_parse_vector)
    p.add_argument("--check-conditions", action="store_true")
    p.add_argument("--box", type=_parse_vector, metavar="KS")
    p.add_argument("--odd-product", type=_parse_vector, metavar="KS")

    p = add_parser("choosable", help="list-coloring oracles")
    p.add_argument("graph")
    p.add_argument("--f", type=_parse_vector)
    p.add_argument("--universe", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--stress", type=int, metavar="TRIALS")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--lists", help="JSON file with one color list per vertex")

    p = add_parser("check", help="re-verify a certificate file")
    p.add_argument("certificate")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "coeff": _cmd_coeff,
    "at": _cmd_at,
    "phi": _cmd_phi,
    "orient": _cmd_orient,
    "choosable": _cmd_choosable,
    "check": _cmd_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    run = _Run(args)
    try:
        return _COMMANDS[args.command](args, run)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # the budget bounds work, not memory: a run can still outgrow the machine
        print("error: out of memory; retry with a smaller input", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (GraphPolyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
