"""Edge-doubling pipelines and the sign-search choosability plan.

Doubling every edge of G squares its polynomial, and the central
coefficient of the square is a same-sign sum of squared coefficients, so
it can never vanish.  Doubling only the edges missed by a cycle cover of
the maximum-degree vertices keeps the maximum degree at 2*Delta - 2 while
inheriting a nonzero almost-central coefficient, which feeds the
even-cycle transfer argument and yields AT(G x C_even) <= Delta(G) + 1.

For arbitrary graphs and an arbitrary nonzero coefficient tau, a plan
partitions the vertices by how far tau sits from the half-degree point,
pairs up the surplus and deficit into multisets A and B, and searches the
2^m sign choices of extra (x_a +- x_b) factors until the augmented
polynomial has a nonzero almost-central coefficient; the resulting
multigraph certifies f-choosability of G x C_even for the plan's f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .certificates import encode_int, finalize_certificate
from .coefficients import almost_central_scan, central_exponent, coefficient
from .errors import InvariantViolationError
from .graphio import graph_fields, to_json_obj
from .graphs import (
    DIFF,
    SUM,
    SignedMultigraph,
    cover_edge_indices,
    double_edges,
    find_cycle_cover,
    make_graph,
)
from .orientations import acyclic_orientation


def cycle_cover_certificate(
    g: SignedMultigraph,
    *,
    budget: Optional[int] = None,
) -> Optional[dict]:
    """Cover-and-double certificate: AT(G x C_even) <= Delta(G) + 1, all even lengths.

    Finds vertex-disjoint cycles covering every maximum-degree vertex
    (None if no cover exists), doubles all other edges, and takes a
    nonzero coefficient from the doubled graph's almost-central window,
    which proves the bound for every even cycle length at once.  The
    witness is the central exponent unless its coefficient is 0 (odd
    cycles), and then the outdegrees of acyclic_orientation where they are
    almost-central, since an orientation with no odd directed cycle has a
    nonzero coefficient at its outdegrees (Alon and Tarsi): one DP each in
    place of a window that can be exponential.  An empty window would
    contradict the sum-of-squares argument and raises.
    """
    if g.num_edges == 0:
        raise ValueError("edgeless graph has nothing to certify")
    deg = g.degree_vector()
    delta = max(deg)
    targets = [v for v in range(1, g.n + 1) if deg[v - 1] == delta]
    cover = find_cycle_cover(g, targets)
    if cover is None:
        return None
    in_cover = cover_edge_indices(g, cover)
    doubled_idx = sorted(set(range(g.num_edges)) - in_cover)
    gprime = double_edges(g, doubled_idx)
    centre = central_exponent(gprime)
    value = coefficient(gprime, centre, budget=budget)
    out = None if value else acyclic_orientation(gprime).outdegree_vector()
    if value:
        found = centre, value
    elif all(abs(2 * x - d) <= 2 for x, d in zip(out, gprime.degree_vector())):
        found = out, coefficient(gprime, out, budget=budget)
    else:
        found = almost_central_scan(gprime, budget=budget).witness()
    if found is None:
        raise InvariantViolationError(
            "cycle cover exists but the doubled graph has an empty almost-central window"
        )
    witness, value = found
    cert = {
        "kind": "prop_cover",
        **graph_fields(g),
        "cover_cycles": [list(c) for c in cover],
        "doubled_edge_indices": doubled_idx,
        "witness_exponent": list(witness),
        "witness_value": encode_int(value),
        "at_bound": delta + 1,
    }
    return finalize_certificate(cert, g)


# ---------------------------------------------------------------------------
# f-choosability plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChoosabilityPlan:
    """Vertex partition and pairing data for the sign search.

    The parts place tau_v against deg_v/2: exactly on it (on_center), at
    least 1 below/above (below, above), exactly 1/2 below/above
    (half_below, half_above); spill (a subset of the larger of below/above)
    rebalances the multiset sizes.  Multisets a_side and b_side always end
    up equal in size; pairing zips them sorted.
    """

    graph: SignedMultigraph
    tau: tuple[int, ...]
    tau_value: int
    on_center: tuple[int, ...]
    below: tuple[int, ...]
    half_below: tuple[int, ...]
    above: tuple[int, ...]
    half_above: tuple[int, ...]
    spill_below: tuple[int, ...]
    spill_above: tuple[int, ...]
    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]
    f: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.a_side)

    def as_json(self) -> dict:
        parts = {k: [list(p) for p in v] if k == "pairing" else list(v)
                 for k, v in vars(self).items() if isinstance(v, tuple)}
        # check compares the fields in this order and reports the first that disagrees
        return {"graph": to_json_obj(self.graph), **parts, "tau_value": encode_int(self.tau_value)}


def build_plan(
    g: SignedMultigraph, tau: Sequence[int], *, budget: Optional[int] = None
) -> ChoosabilityPlan:
    """Classify vertices by 2*tau - deg and assemble the pairing multisets.

    tau must be a nonzero coefficient of g's polynomial (verified).  The
    spill subsets are the lexicographically smallest choices, and the
    pairing zips the two sorted multisets, so plans are reproducible.
    With kept = (below | above) - spill, v appears |2 tau_v - deg_v| -
    2 [v in kept] times in a_side (2 tau_v < deg_v) or b_side, and its
    list size is f_v = max(tau_v, deg_v - tau_v) + 2 - [v in kept].
    """
    tau = tuple(int(x) for x in tau)
    value = coefficient(g, tau, budget=budget)
    if value == 0:
        raise ValueError(f"tau {tau} has zero coefficient; a plan needs a support element")
    deg = g.degree_vector()
    d2 = [2 * t - d for t, d in zip(tau, deg)]
    on_center, below, half_below, above, half_above = [], [], [], [], []
    for i, x in enumerate(d2, 1):
        if x == 0:
            on_center.append(i)
        elif x <= -2:
            below.append(i)
        elif x == -1:
            half_below.append(i)
        elif x >= 2:
            above.append(i)
        else:
            half_above.append(i)

    spill_below = tuple(below[:max(0, len(below) - len(above))])
    spill_above = tuple(above[:max(0, len(above) - len(below))])
    kept = set(below + above) - set(spill_below + spill_above)
    a_side: list[int] = []
    b_side: list[int] = []
    for i, x in enumerate(d2, 1):
        (a_side if x < 0 else b_side).extend([i] * (abs(x) - 2 * (i in kept)))
    if len(a_side) != len(b_side):
        raise InvariantViolationError(
            f"multiset sizes differ: {len(a_side)} vs {len(b_side)}"
        )
    f = tuple(max(t, d - t) + 2 - (i in kept) for i, (t, d) in enumerate(zip(tau, deg), 1))

    return ChoosabilityPlan(
        graph=g,
        tau=tau,
        tau_value=value,
        on_center=tuple(on_center),
        below=tuple(below),
        half_below=tuple(half_below),
        above=tuple(above),
        half_above=tuple(half_above),
        spill_below=spill_below,
        spill_above=spill_above,
        a_side=tuple(a_side),
        b_side=tuple(b_side),
        pairing=tuple(zip(a_side, b_side)),
        f=f,
    )


def plan_polynomial(plan: ChoosabilityPlan, signs: Sequence[str]) -> SignedMultigraph:
    """The multigraph of F_G * prod (x_a +- x_b) for one sign choice.

    Each '+' pairing adds a SUM edge, each '-' a DIFF edge (the overall
    sign of a DIFF factor written canonically does not affect which
    coefficients vanish).
    """
    # make_graph puts each pair in u < v order
    extra = [(a, b, SUM if s == "+" else DIFF) for (a, b), s in zip(plan.pairing, signs)]
    return make_graph(plan.graph.n, list(plan.graph.edges) + extra)


def plan_target_exponent(plan: ChoosabilityPlan) -> tuple[int, ...]:
    """tau plus one for each occurrence in the a-side multiset."""
    t = list(plan.tau)
    for a in plan.a_side:
        t[a - 1] += 1
    return tuple(t)


def epsilon_search(plan: ChoosabilityPlan, *, budget: Optional[int] = None) -> dict:
    """Find signs making the plan's target coefficient nonzero; certify.

    Every sign vector is tried in lexicographic order ('+' before '-'),
    so the recorded choice is the smallest that works.  The target monomial
    is a linear combination of the augmented polynomials over all sign
    choices, so exhausting them without a hit contradicts tau being a
    support element and raises.  With no pairing (a central plan) the one
    augmented graph is g and the target is tau, so its coefficient is the
    plan's tau_value and no DP runs.
    """
    target = plan_target_exponent(plan)
    for signs in itertools.product("+-", repeat=plan.m):
        q = plan_polynomial(plan, signs)
        if any(d != 2 * fv - 4 for d, fv in zip(q.degree_vector(), plan.f)):
            raise InvariantViolationError("augmented degrees disagree with 2f - 4")
        value = plan.tau_value if plan.m == 0 else coefficient(q, target, budget=budget)
        if value != 0:
            cert = {
                "kind": "fplan",
                "plan": plan.as_json(),
                "epsilon": "".join(signs),
                "witness_exponent": list(target),
                "witness_value": encode_int(value),
                "claim": "f-choosable-product-with-even-cycles",
                "f": list(plan.f),
            }
            return finalize_certificate(cert)
    raise InvariantViolationError(
        "no sign choice produced a nonzero coefficient; this contradicts tau being in the support"
    )
