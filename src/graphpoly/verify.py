"""Independent re-verification of every certificate kind.

Each verifier rebuilds the claimed objects from the certificate alone and
recomputes the mathematics: digests are checked first (tamper evidence),
then witnesses, bounds, and embedded sub-certificates.  Verification uses
the same engines as production but through their public contracts; a
certificate that merely restates a wrong value fails here.  Every stated
coefficient and trace is recomputed under the DP budget, its only limit;
running out raises BudgetExceededError.  Claims proved by a theorem
instead (orientations, large chain steps) are named in the notes.
"""

from __future__ import annotations

from typing import Optional

from .certificates import CheckResult, certificate_digest, decode_int, encode_int
from .coefficients import coefficient
from .doubling import build_plan, plan_polynomial, plan_target_exponent
from .errors import BudgetExceededError, GraphPolyError
from .graphio import from_json_obj, graph_digest
from .graphs import SignedMultigraph, build_cycle, cartesian_product, cover_edge_indices, double_edges
from .limits import TRACE_VERTEX_CAP
from .orientations import at_lower_bound, has_odd_directed_cycle, orientation_from_bitstring, reciprocal_sum_ok
from .transfer import build_phi, check_trace_request, trace_power


def _load_graph(result: CheckResult, cert: dict) -> Optional[SignedMultigraph]:
    try:
        g = from_json_obj(cert["graph"])
    except Exception as exc:
        result.fail(f"graph does not parse: {exc}")
        return None
    if "graph_digest" in cert and graph_digest(g) != cert["graph_digest"]:
        result.fail("graph digest mismatch")
        return None
    return g


def _check_witness_coefficient(
    result: CheckResult,
    g: SignedMultigraph,
    exponent,
    stated_value,
    *,
    budget: Optional[int],
    value: Optional[int] = None,
) -> None:
    """The witness coefficient must be nonzero and equal the stated value.

    It is recomputed unless the caller has just recomputed it as value.
    """
    xi = tuple(int(x) for x in exponent)
    if len(xi) != g.n:
        result.fail("witness exponent length mismatch")
        return
    if value is None:
        value = coefficient(g, xi, budget=budget)
    if value == 0:
        result.fail(f"witness exponent {xi} has zero coefficient")
        return
    if stated_value is not None and decode_int(stated_value) != value:
        result.fail(
            f"stated witness value {stated_value} != recomputed {value}"
        )


def _check_trace(result: CheckResult, g: SignedMultigraph, k: int, stated, budget) -> None:
    """tr(Phi^k) of g, recomputed, must be nonzero and equal the stated value.

    A graph that build_phi or check_trace_request refuses fails the
    check (through verify).
    """
    check_trace_request(g.n, k)
    tr = trace_power(build_phi(g, budget=budget), k)
    if tr == 0:
        result.fail("recomputed trace is zero")
    elif stated is None or decode_int(stated) != tr:
        result.fail(f"stated trace {stated} != recomputed {encode_int(tr)}")


def verify(cert: dict, *, budget: Optional[int] = None) -> CheckResult:
    kind = cert.get("kind", "<missing>")
    result = CheckResult(ok=True, kind=kind)
    if "digest" not in cert:
        result.fail("certificate has no digest")
        return result
    if certificate_digest(cert) != cert["digest"]:
        result.fail("digest mismatch (certificate was modified)")
        return result
    checker = _CHECKERS.get(kind)
    if checker is None:
        result.fail(f"unknown certificate kind {kind!r}")
        return result
    try:
        checker(result, cert, budget)
    except BudgetExceededError:
        raise
    except GraphPolyError as exc:
        result.fail(f"verification aborted: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        result.fail(f"malformed certificate: {exc!r}")
    return result


def _verify_coefficient(result: CheckResult, cert: dict, budget) -> None:
    g = _load_graph(result, cert)
    if g is None:
        return
    xi = tuple(int(x) for x in cert["witness_exponent"])
    _check_witness_coefficient(result, g, xi, cert.get("witness_value"), budget=budget)
    if not result.ok:
        return
    f = cert.get("f")
    if f is not None:
        if len(f) != g.n:
            result.fail("list-size vector length mismatch")
            return
        if any(x > int(fv) - 1 for x, fv in zip(xi, f)):
            result.fail("witness exponent exceeds f - 1 somewhere")
            return
    if cert.get("at_bound") != max(xi, default=0) + 1:
        result.fail("at_bound does not match the witness exponent")


def _verify_trace(result: CheckResult, cert: dict, budget) -> None:
    g = _load_graph(result, cert)
    if g is None:
        return
    if not g.has_even_degrees():
        result.fail("trace certificate on a graph with odd degrees")
        return
    k = int(cert["k"])
    if k < 2 or k % 2:
        result.fail(f"cycle length {k} is not an even integer >= 2")
        return
    deg = g.degree_vector()
    xi = tuple(int(x) for x in cert["witness_exponent"])
    if len(xi) != g.n or any(abs(2 * x - d) > 2 for x, d in zip(xi, deg)):
        result.fail("witness exponent is not almost-central")
        return
    _check_witness_coefficient(result, g, xi, cert.get("witness_value"), budget=budget)
    if not result.ok:
        return
    if cert.get("at_bound") != max(deg, default=0) // 2 + 2:
        result.fail("at_bound does not equal max degree / 2 + 2")
        return
    _check_trace(result, g, k, cert.get("trace_value"), budget)


def _verify_orientation(result: CheckResult, cert: dict, budget) -> None:
    g = _load_graph(result, cert)
    if g is None:
        return
    if "witness_value" in cert:
        result.fail("an orientation certificate states no witness value; the orientation is the witness")
        return
    try:
        ori = orientation_from_bitstring(g, cert["directions"])
    except ValueError as exc:
        result.fail(str(exc))
        return
    d = ori.outdegree_vector()
    if list(d) != [int(x) for x in cert["outdegrees"]]:
        result.fail("stated outdegrees disagree with the direction bits")
        return
    if list(d) != [int(x) for x in cert["witness_exponent"]]:
        result.fail("witness exponent is not the outdegree vector")
        return
    if has_odd_directed_cycle(ori):
        result.fail("orientation contains an odd directed cycle")
        return
    if cert.get("at_bound") != max(d, default=0) + 1:
        result.fail("at_bound does not match the maximum outdegree")
        return
    result.notes.append(
        "witness structural: no odd directed cycle, so the coefficient at the "
        "outdegrees is nonzero (Alon-Tarsi theorem)"
    )


def _verify_prop_cover(result: CheckResult, cert: dict, budget) -> None:
    g = _load_graph(result, cert)
    if g is None:
        return
    if not g.is_simple():
        result.fail("cover certificate on a non-simple graph")
        return
    deg = g.degree_vector()
    delta = max(deg)
    cycles = [tuple(int(v) for v in c) for c in cert["cover_cycles"]]
    seen: set[int] = set()
    for cyc in cycles:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            result.fail(f"cover entry {cyc} is not a simple cycle")
            return
        if seen & set(cyc):
            result.fail("cover cycles are not vertex-disjoint")
            return
        seen |= set(cyc)
    try:
        in_cover = cover_edge_indices(g, cycles)
    except ValueError as exc:
        result.fail(str(exc))
        return
    targets = {v for v in range(1, g.n + 1) if deg[v - 1] == delta}
    if not targets <= seen:
        result.fail("some maximum-degree vertex is uncovered")
        return
    doubled = sorted(int(i) for i in cert["doubled_edge_indices"])
    if doubled != sorted(set(range(g.num_edges)) - in_cover):
        result.fail("doubled edges are not exactly the non-cover edges")
        return
    gprime = double_edges(g, doubled)
    if cert.get("at_bound") != delta + 1:
        result.fail("at_bound does not equal max degree + 1")
        return
    xi = tuple(int(x) for x in cert["witness_exponent"])
    dprime = gprime.degree_vector()
    if any(abs(2 * x - d) > 2 for x, d in zip(xi, dprime)):
        result.fail("witness is not almost-central for the doubled graph")
        return
    _check_witness_coefficient(result, gprime, xi, cert.get("witness_value"), budget=budget)
    if not result.ok:
        return
    stated = cert.get("trace_value")
    if gprime.n <= TRACE_VERTEX_CAP:
        _check_trace(result, gprime, int(cert["k"]), stated, budget)
    elif stated is not None:
        result.fail(f"trace stated for a doubled graph on more than {TRACE_VERTEX_CAP} vertices")


def _verify_fplan(result: CheckResult, cert: dict, budget) -> None:
    plan_obj = cert["plan"]
    try:
        g = from_json_obj(plan_obj["graph"])
        plan = build_plan(g, plan_obj["tau"], budget=budget)
    except ValueError as exc:
        result.fail(f"plan does not rebuild: {exc}")
        return
    rebuilt = plan.as_json()
    for key in (
        "on_center", "below", "half_below", "above", "half_above",
        "spill_below", "spill_above", "a_side", "b_side", "pairing", "f",
        "tau_value",
    ):
        if rebuilt[key] != plan_obj.get(key):
            result.fail(f"plan field {key} disagrees with canonical reconstruction")
            return
    if list(plan.f) != [int(x) for x in cert["f"]]:
        result.fail("certificate f disagrees with the plan")
        return
    eps = cert["epsilon"]
    if len(eps) != plan.m or set(eps) - {"+", "-"}:
        result.fail("epsilon is not a +/- string of pairing length")
        return
    q = plan_polynomial(plan, eps)
    target = plan_target_exponent(plan)
    if list(target) != [int(x) for x in cert["witness_exponent"]]:
        result.fail("witness exponent is not tau plus the a-side multiset")
        return
    if any(d != 2 * fv - 4 for d, fv in zip(q.degree_vector(), plan.f)):
        result.fail("augmented degrees disagree with 2f - 4")
        return
    # with no pairing q is g and the target is tau, whose coefficient
    # build_plan has just recomputed
    known = plan.tau_value if plan.m == 0 else None
    _check_witness_coefficient(result, q, target, cert.get("witness_value"), budget=budget, value=known)


def _verify_chain(result: CheckResult, cert: dict, budget) -> None:
    odd = [int(x) for x in cert["odd_factors"]]
    evens = [int(x) for x in cert["even_factors"]]
    if any(x < 3 or x % 2 == 0 for x in odd):
        result.fail("odd factor lengths must be odd and >= 3")
        return
    if any(x < 4 or x % 2 for x in evens):
        result.fail("even factor lengths must be even and >= 4")
        return
    ks = [(x - 1) // 2 for x in odd]
    if ks and not reciprocal_sum_ok(ks):
        result.fail("odd factors violate the reciprocal-sum condition")
        return
    if cert.get("ch_lower") != (3 if odd else 2):
        result.fail("ch_lower is not 3 with an odd factor and 2 without")
        return
    base = verify(cert["base_certificate"], budget=budget)
    if not base.ok:
        result.fail(f"base certificate fails: {base.errors}")
        return
    result.notes.extend(f"base: {n}" for n in base.notes)
    base_graph = from_json_obj(cert["base_certificate"]["graph"])
    # the base must be exactly the product of the declared factors, not
    # merely some graph with a valid orientation certificate
    if odd:
        expected_base = build_cycle(odd[0])
        for L in odd[1:]:
            expected_base = cartesian_product(expected_base, build_cycle(L))
        consumed_evens = evens
    else:
        expected_base = build_cycle(evens[0])
        consumed_evens = evens[1:]
    if graph_digest(base_graph) != graph_digest(expected_base):
        result.fail("base certificate graph is not the product of the declared factors")
        return
    # the structural steps need the base witness to be almost-central
    base_deg = base_graph.degree_vector()
    base_xi = [int(x) for x in cert["base_certificate"]["witness_exponent"]]
    if any(abs(2 * x - d) > 2 for x, d in zip(base_xi, base_deg)):
        result.fail("base witness is not almost-central")
        return
    steps = cert["steps"]
    if len(steps) != len(consumed_evens):
        result.fail("one chain step per remaining even factor required")
        return
    current = base_graph
    for step, L in zip(steps, consumed_evens):
        if int(step["even_length"]) != L:
            result.fail("step factor order disagrees with the even factor list")
            return
        expected = "trace" if current.n <= TRACE_VERTEX_CAP else "structural"
        if step["verification"] != expected:
            result.fail(f"step C_{L} on {current.n} vertices must be {expected}")
            return
        if expected == "trace":
            _check_trace(result, current, L, step.get("trace_value"), budget)
            if not result.ok:
                return
        elif step.get("trace_value") is not None:
            result.fail(f"step C_{L} on {current.n} vertices states a trace it cannot have")
            return
        elif not current.has_even_degrees():
            result.fail("structural step applied to a graph with odd degrees")
            return
        else:
            result.notes.append(f"step C_{L}: structural (nonzero almost-central "
                                f"coefficient before it, so Phi != 0 and tr Phi^{L} != 0)")
        current = cartesian_product(current, build_cycle(L))
    if graph_digest(current) != cert["final_graph_digest"]:
        result.fail("final product digest mismatch")
        return
    factors = len(odd) + len(evens)
    expected_upper = factors + 1 if evens else factors + 2
    if cert.get("at_upper") != expected_upper:
        result.fail("at_upper does not match the witness the chain actually holds")
        return
    if int(cert.get("at_lower", 0)) != at_lower_bound(current)[0]:
        result.fail("at_lower does not match the recomputed lower bound")


_CHECKERS = {
    "coefficient": _verify_coefficient,
    "trace": _verify_trace,
    "orientation": _verify_orientation,
    "prop_cover": _verify_prop_cover,
    "fplan": _verify_fplan,
    "chain": _verify_chain,
}
