"""Independent re-verification of every certificate kind.

Each verifier rebuilds the claimed objects from the certificate alone and
recomputes the mathematics through the engines' public contracts: digests
first (tamper evidence), then witnesses, bounds and embedded
sub-certificates.  A check stops at its first failed sub-check, which
raises; verify alone turns that, a malformed field or an engine refusal
into the one error of a failed verdict.  A certificate must be a JSON
object and its integer fields JSON integers: a float or a boolean is
refused, never truncated.  Every stated coefficient and trace is
recomputed under the DP budget, its only limit; running out raises
BudgetExceededError.  Claims proved by a theorem instead (orientations,
large chain steps) are named in the notes.
"""

from __future__ import annotations

import functools
from typing import Optional

from .certificates import CheckResult, certificate_digest, decode_int, encode_int
from .coefficients import coefficient
from .doubling import build_plan, plan_polynomial, plan_target_exponent
from .errors import BudgetExceededError, GraphPolyError
from .graphio import _int, canonical_json, from_json_obj, graph_digest
from .graphs import SignedMultigraph, build_cycle, cartesian_product, cover_edge_indices, double_edges
from .limits import TRACE_VERTEX_CAP
from .orientations import at_lower_bound, has_odd_directed_cycle, orientation_from_bitstring, reciprocal_sum_ok
from .transfer import build_phi, check_trace_request, trace_power


class _Refuted(Exception):
    """A sub-check failed; the message is the verdict's error."""


def _load_graph(obj: dict) -> SignedMultigraph:
    """obj["graph"], checked against obj["graph_digest"] where that is stated."""
    try:
        g = from_json_obj(obj["graph"])
    except (LookupError, TypeError, ValueError) as exc:
        raise _Refuted(f"graph does not parse: {exc}") from None
    if "graph_digest" in obj and graph_digest(g) != obj["graph_digest"]:
        raise _Refuted("graph digest mismatch")
    return g


def _check_witness_coefficient(
    g: SignedMultigraph, xi, stated, *, budget: Optional[int], value: Optional[int] = None
) -> None:
    """The witness coefficient, recomputed unless the caller has just done so
    as value, must be nonzero and equal the stated value."""
    xi = tuple(xi)
    if len(xi) != g.n:
        raise _Refuted("witness exponent length mismatch")
    if value is None:
        value = coefficient(g, xi, budget=budget)
    if value == 0:
        raise _Refuted(f"witness exponent {xi} has zero coefficient")
    if stated is not None and decode_int(stated) != value:
        raise _Refuted(f"stated witness value {stated} != recomputed {value}")


def _almost_central(xi: list[int], g: SignedMultigraph) -> bool:
    return len(xi) == g.n and all(abs(2 * x - d) <= 2 for x, d in zip(xi, g.degree_vector()))


def _check_almost_central_witness(g: SignedMultigraph, cert: dict, budget, refusal: str) -> int:
    """The cycle length k of a trace or cover certificate, once its witness is
    shown almost-central in g with the stated nonzero coefficient."""
    k = _int(cert["k"])
    if k < 2 or k % 2:
        raise _Refuted(f"cycle length {k} is not an even integer >= 2")
    xi = _int(cert["witness_exponent"], 1)
    if not _almost_central(xi, g):
        raise _Refuted(refusal)
    _check_witness_coefficient(g, xi, cert.get("witness_value"), budget=budget)
    return k


def _check_trace(g: SignedMultigraph, k: int, stated, budget) -> None:
    """tr(Phi^k) of g, recomputed, must be nonzero and equal the stated value.

    A graph that build_phi or check_trace_request refuses fails the check
    through verify.
    """
    check_trace_request(g.n, k)
    tr = trace_power(build_phi(g, budget=budget), k)
    if tr == 0:
        raise _Refuted("recomputed trace is zero")
    if stated is None or decode_int(stated) != tr:
        raise _Refuted(f"stated trace {stated} != recomputed {encode_int(tr)}")


def verify(cert: dict, *, budget: Optional[int] = None) -> CheckResult:
    result = CheckResult(ok=True, kind="<missing>")
    try:
        if not isinstance(cert, dict):
            raise _Refuted("certificate is not a JSON object")
        result.kind = kind = cert.get("kind", "<missing>")
        if "digest" not in cert:
            raise _Refuted("certificate has no digest")
        if certificate_digest(cert) != cert["digest"]:
            raise _Refuted("digest mismatch (certificate was modified)")
        checker = _CHECKERS.get(kind)
        if checker is None:
            raise _Refuted(f"unknown certificate kind {kind!r}")
        checker(cert, budget, result.notes)
    except _Refuted as exc:
        result.fail(str(exc))
    except BudgetExceededError:
        raise
    except GraphPolyError as exc:
        result.fail(f"verification aborted: {exc}")
    except (LookupError, TypeError, ValueError) as exc:
        result.fail(f"malformed certificate: {exc!r}")
    return result


def _verify_coefficient(cert: dict, budget, notes: list[str]) -> None:
    g = _load_graph(cert)
    xi = _int(cert["witness_exponent"], 1)
    _check_witness_coefficient(g, xi, cert.get("witness_value"), budget=budget)
    f = _int(cert.get("f"), 1, optional=True)
    if f is not None:
        if len(f) != g.n:
            raise _Refuted("list-size vector length mismatch")
        if any(x > fv - 1 for x, fv in zip(xi, f)):
            raise _Refuted("witness exponent exceeds f - 1 somewhere")
    if _int(cert.get("at_bound"), optional=True) != max(xi, default=0) + 1:
        raise _Refuted("at_bound does not match the witness exponent")


def _verify_trace(cert: dict, budget, notes: list[str]) -> None:
    g = _load_graph(cert)
    if not g.has_even_degrees():
        raise _Refuted("trace certificate on a graph with odd degrees")
    k = _check_almost_central_witness(g, cert, budget, "witness exponent is not almost-central")
    if _int(cert.get("at_bound"), optional=True) != g.max_degree() // 2 + 2:
        raise _Refuted("at_bound does not equal max degree / 2 + 2")
    _check_trace(g, k, cert.get("trace_value"), budget)


def _verify_orientation(cert: dict, budget, notes: list[str]) -> None:
    g = _load_graph(cert)
    if "witness_value" in cert:
        raise _Refuted("an orientation certificate states no witness value; the orientation is the witness")
    try:
        ori = orientation_from_bitstring(g, cert["directions"])
    except ValueError as exc:
        raise _Refuted(str(exc)) from None
    d = list(ori.outdegree_vector())
    if d != _int(cert["outdegrees"], 1):
        raise _Refuted("stated outdegrees disagree with the direction bits")
    if d != _int(cert["witness_exponent"], 1):
        raise _Refuted("witness exponent is not the outdegree vector")
    if has_odd_directed_cycle(ori):
        raise _Refuted("orientation contains an odd directed cycle")
    if _int(cert.get("at_bound"), optional=True) != max(d, default=0) + 1:
        raise _Refuted("at_bound does not match the maximum outdegree")
    notes.append(
        "witness structural: no odd directed cycle, so the coefficient at the "
        "outdegrees is nonzero (Alon-Tarsi theorem)"
    )


def _verify_prop_cover(cert: dict, budget, notes: list[str]) -> None:
    g = _load_graph(cert)
    if not g.is_simple():
        raise _Refuted("cover certificate on a non-simple graph")
    deg = g.degree_vector()
    delta = max(deg)
    cycles = _int(cert["cover_cycles"], 2)
    seen: set[int] = set()
    for cyc in cycles:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            raise _Refuted(f"cover entry {tuple(cyc)} is not a simple cycle")
        if seen & set(cyc):
            raise _Refuted("cover cycles are not vertex-disjoint")
        seen |= set(cyc)
    try:
        in_cover = cover_edge_indices(g, cycles)
    except ValueError as exc:
        raise _Refuted(str(exc)) from None
    targets = {v for v in range(1, g.n + 1) if deg[v - 1] == delta}
    if not targets <= seen:
        raise _Refuted("some maximum-degree vertex is uncovered")
    doubled = sorted(_int(cert["doubled_edge_indices"], 1))
    if doubled != sorted(set(range(g.num_edges)) - in_cover):
        raise _Refuted("doubled edges are not exactly the non-cover edges")
    gprime = double_edges(g, doubled)
    if _int(cert.get("at_bound"), optional=True) != delta + 1:
        raise _Refuted("at_bound does not equal max degree + 1")
    k = _check_almost_central_witness(gprime, cert, budget, "witness is not almost-central for the doubled graph")
    if gprime.n <= TRACE_VERTEX_CAP:
        _check_trace(gprime, k, cert.get("trace_value"), budget)
    elif cert.get("trace_value") is not None:
        raise _Refuted(f"trace stated for a doubled graph on more than {TRACE_VERTEX_CAP} vertices")


def _verify_fplan(cert: dict, budget, notes: list[str]) -> None:
    plan_obj = cert["plan"]
    g = _load_graph(plan_obj)
    try:
        plan = build_plan(g, _int(plan_obj["tau"], 1), budget=budget)
    except ValueError as exc:
        raise _Refuted(f"plan does not rebuild: {exc}") from None
    rebuilt = plan.as_json()
    for key in (
        "on_center", "below", "half_below", "above", "half_above",
        "spill_below", "spill_above", "a_side", "b_side", "pairing", "f",
        "tau_value",
    ):
        # as JSON text, where a float or a boolean never equals an integer
        if canonical_json(rebuilt[key]) != canonical_json(plan_obj.get(key)):
            raise _Refuted(f"plan field {key} disagrees with canonical reconstruction")
    if list(plan.f) != _int(cert["f"], 1):
        raise _Refuted("certificate f disagrees with the plan")
    eps = cert["epsilon"]
    if not isinstance(eps, str) or len(eps) != plan.m or set(eps) - {"+", "-"}:
        raise _Refuted("epsilon is not a +/- string of pairing length")
    q = plan_polynomial(plan, eps)
    target = plan_target_exponent(plan)
    if list(target) != _int(cert["witness_exponent"], 1):
        raise _Refuted("witness exponent is not tau plus the a-side multiset")
    if any(d != 2 * fv - 4 for d, fv in zip(q.degree_vector(), plan.f)):
        raise _Refuted("augmented degrees disagree with 2f - 4")
    # with no pairing q is g and the target is tau, whose coefficient
    # build_plan has just recomputed
    known = plan.tau_value if plan.m == 0 else None
    _check_witness_coefficient(q, target, cert.get("witness_value"), budget=budget, value=known)


def _verify_chain(cert: dict, budget, notes: list[str]) -> None:
    odd = _int(cert["odd_factors"], 1)
    evens = _int(cert["even_factors"], 1)
    if any(x < 3 or x % 2 == 0 for x in odd):
        raise _Refuted("odd factor lengths must be odd and >= 3")
    if any(x < 4 or x % 2 for x in evens):
        raise _Refuted("even factor lengths must be even and >= 4")
    # the base is the product of the odd factors, or the first even one
    base_factors, consumed_evens = (odd, evens) if odd else (evens[:1], evens[1:])
    if not base_factors:
        raise _Refuted("a chain needs at least one factor")
    ks = [(x - 1) // 2 for x in odd]
    if ks and not reciprocal_sum_ok(ks):
        raise _Refuted("odd factors violate the reciprocal-sum condition")
    if _int(cert.get("ch_lower"), optional=True) != (3 if odd else 2):
        raise _Refuted("ch_lower is not 3 with an odd factor and 2 without")
    base = verify(cert["base_certificate"], budget=budget)
    if not base.ok:
        raise _Refuted(f"base certificate fails: {base.errors}")
    notes.extend(f"base: {n}" for n in base.notes)
    base_graph = _load_graph(cert["base_certificate"])
    # the base must be exactly the product of the declared factors, not
    # merely some graph with a valid orientation certificate
    expected_base = functools.reduce(cartesian_product, map(build_cycle, base_factors))
    if graph_digest(base_graph) != graph_digest(expected_base):
        raise _Refuted("base certificate graph is not the product of the declared factors")
    # the structural steps need the base witness to be almost-central
    if not _almost_central(_int(cert["base_certificate"]["witness_exponent"], 1), base_graph):
        raise _Refuted("base witness is not almost-central")
    steps = cert["steps"]
    if len(steps) != len(consumed_evens):
        raise _Refuted("one chain step per remaining even factor required")
    current = base_graph
    for step, L in zip(steps, consumed_evens):
        if _int(step["even_length"]) != L:
            raise _Refuted("step factor order disagrees with the even factor list")
        expected = "trace" if current.n <= TRACE_VERTEX_CAP else "structural"
        if step["verification"] != expected:
            raise _Refuted(f"step C_{L} on {current.n} vertices must be {expected}")
        if expected == "trace":
            _check_trace(current, L, step.get("trace_value"), budget)
        elif step.get("trace_value") is not None:
            raise _Refuted(f"step C_{L} on {current.n} vertices states a trace it cannot have")
        elif not current.has_even_degrees():
            raise _Refuted("structural step applied to a graph with odd degrees")
        else:
            notes.append(f"step C_{L}: structural (nonzero almost-central "
                         f"coefficient before it, so Phi != 0 and tr Phi^{L} != 0)")
        current = cartesian_product(current, build_cycle(L))
    if graph_digest(current) != cert["final_graph_digest"]:
        raise _Refuted("final product digest mismatch")
    factors = len(odd) + len(evens)
    if _int(cert.get("at_upper"), optional=True) != (factors + 1 if evens else factors + 2):
        raise _Refuted("at_upper does not match the witness the chain actually holds")
    if _int(cert.get("at_lower", 0)) != at_lower_bound(current)[0]:
        raise _Refuted("at_lower does not match the recomputed lower bound")


_CHECKERS = {
    "coefficient": _verify_coefficient,
    "trace": _verify_trace,
    "orientation": _verify_orientation,
    "prop_cover": _verify_prop_cover,
    "fplan": _verify_fplan,
    "chain": _verify_chain,
}
