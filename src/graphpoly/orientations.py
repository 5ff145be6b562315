"""Degree-constrained orientations, box constructions, and AT certificates.

An orientation assigns each edge a direction; True means u -> v for the
canonical edge (u, v) with u < v.  The bridge to coefficients: summing the
signed endpoint choices of the graph polynomial over all orientations with
a fixed outdegree vector d gives [x^d]F_G, and an orientation without odd
directed cycles forces that coefficient to be nonzero.  That turns any
such orientation into a machine-checkable Alon-Tarsi bound.

Degree-window orientations (l_v <= outdeg(v) <= u_v) are found by path
reversal from a greedy start (Hakimi 1965), and where none exists the
failed search returns a vertex set that breaks one of the classical two
counting conditions.  Those conditions over all vertex subsets are an
independent exhaustive checker, which counts each subset's edges and
bounds by subset sums.  The chess construction for odd-cycle products works
on numpy arrays of all edges: box bits and chess colors per endpoint, and
one sorted-key lookup per box shape into that shape's window orientation.
Odd directed cycles are found in linear time: Kosaraju's two passes give
the strongly connected components and 2-colour each by its BFS tree, and
one look at the arcs inside them decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._numpy import np
from .certificates import encode_int, finalize_certificate
from .coefficients import ExponentVector
from .errors import GraphPolyError, InvariantViolationError
from .graphio import graph_digest, graph_fields
from .graphs import (
    SignedMultigraph,
    build_cycle,
    build_path,
    cartesian_product,
    degeneracy_order,
    is_bipartite,
)
from .limits import ORIENT_VERTEX_CAP, SUBSET_VERTEX_CAP, TRACE_VERTEX_CAP
from .transfer import build_phi, nonzero_trace

@dataclass(frozen=True)
class Orientation:
    """A direction per canonical edge of a graph."""

    graph: SignedMultigraph
    directions: tuple[bool, ...]  # True means u -> v

    def __post_init__(self):
        if len(self.directions) != self.graph.num_edges:
            raise ValueError("one direction per edge required")

    def arcs(self) -> list[tuple[int, int]]:
        """(tail, head) per edge, aligned with graph.edges."""
        return [(u, v) if fwd else (v, u) for (u, v, _), fwd in zip(self.graph.edges, self.directions)]

    def outdegree_vector(self) -> ExponentVector:
        d = [0] * (self.graph.n + 1)
        for (u, v, _), fwd in zip(self.graph.edges, self.directions):
            d[u if fwd else v] += 1
        return tuple(d[1:])

    def bitstring(self) -> str:
        return "".join("1" if f else "0" for f in self.directions)


def orientation_from_bitstring(g: SignedMultigraph, bits: str) -> Orientation:
    if not isinstance(bits, str) or len(bits) != g.num_edges or set(bits) - {"0", "1"}:
        raise ValueError("direction bitstring must be 0/1 of edge-count length")
    return Orientation(g, tuple(b == "1" for b in bits))


def _window_bounds(g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]) -> tuple[tuple, tuple]:
    """The bounds as int tuples; ValueError unless one entry per vertex and 0 <= lower <= upper."""
    lower, upper = tuple(int(x) for x in lower), tuple(int(x) for x in upper)
    if len(lower) != g.n or len(upper) != g.n:
        raise ValueError("bound vectors must have one entry per vertex")
    if any(l < 0 for l in lower) or any(l > u for l, u in zip(lower, upper)):
        raise ValueError("need 0 <= lower <= upper componentwise")
    return lower, upper


@dataclass(frozen=True)
class WindowViolation:
    """A vertex set W that breaks one of the two counting conditions.

    Condition 1: lhs = |E(W)| exceeds rhs = the sum of upper over W.
    Condition 2: lhs = the number of edges touching W is below rhs = the
    sum of lower over W.
    """

    subset: tuple[int, ...]
    condition: int  # 1 or 2
    lhs: int
    rhs: int


def _violation(g: SignedMultigraph, subset, condition: int, bound: Sequence[int]) -> WindowViolation:
    """W = subset with its edge count for the condition, recounted, and the bound summed over W."""
    w = set(subset)
    hits = [(u in w) + (v in w) for u, v, _ in g.edges]
    lhs = hits.count(2) if condition == 1 else len(hits) - hits.count(0)
    rhs = sum(bound[x - 1] for x in w)
    if (lhs <= rhs) if condition == 1 else (lhs >= rhs):
        raise InvariantViolationError(f"a reported set breaks no condition {condition}")
    return WindowViolation(tuple(sorted(w)), condition, lhs, rhs)


def window_orientation(
    g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]
) -> Orientation | WindowViolation:
    """Orientation with lower[v] <= outdeg(v) <= upper[v], or a vertex set showing there is none.

    Path reversal (Hakimi 1965): each edge first leaves the endpoint whose
    outdegree so far minus upper bound is smaller (u on ties); then, vertex
    by vertex, a BFS path from a vertex over its upper bound to one below it
    is reversed, and after that a path to a vertex under its lower bound
    from one above it.  A forward search that finds no such path has
    reached a set R that every arc leaving a vertex of R stays inside, so
    |E(R)| is the outdegree sum over R, which exceeds the upper sum:
    condition 1 fails.  A backward search that fails reaches a set whose
    touching edges number its outdegree sum, below the lower sum: condition
    2 fails.  With sum(upper) < |E| or sum(lower) > |E| the set is V.  The
    set is the first one the search reached, not check_window_conditions'
    first in bitmask order.
    """
    lower, upper = _window_bounds(g, lower, upper)
    if sum(upper) < g.num_edges:
        return _violation(g, range(1, g.n + 1), 1, upper)
    if sum(lower) > g.num_edges:
        return _violation(g, range(1, g.n + 1), 2, lower)
    out = [0] * (g.n + 1)
    tails: list[int] = []
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, (u, v, _) in enumerate(g.edges):
        tail = u if out[u] - upper[u - 1] <= out[v] - upper[v - 1] else v
        tails.append(tail)
        out[tail] += 1
        incident[u].append((i, v))
        incident[v].append((i, u))

    def reverse_path(s: int, forward: bool, target) -> Optional[list[int]]:
        """BFS from s along (or against) the arcs to a target vertex and reverse the path
        found; None once reversed, else the vertices the search reached."""
        via: list[Optional[tuple[int, int]]] = [None] * (g.n + 1)
        via[s] = (-1, s)
        queue = [s]
        for x in queue:
            for i, y in incident[x]:
                if via[y] is not None or (tails[i] == x) != forward:
                    continue
                via[y] = (i, x)
                if target(y):
                    out[s] += -1 if forward else 1
                    out[y] += 1 if forward else -1
                    while y != s:
                        i, x = via[y]
                        tails[i] = y if forward else x
                        y = x
                    return None
                queue.append(y)
        return queue

    # A reversal moves one unit of outdegree between the path's ends and never past a bound,
    # so a vertex once inside its bound stays there and one pass over the vertices suffices.
    for v in range(1, g.n + 1):
        while out[v] > upper[v - 1]:
            if (reached := reverse_path(v, True, lambda y: out[y] < upper[y - 1])) is not None:
                return _violation(g, reached, 1, upper)
    for v in range(1, g.n + 1):
        while out[v] < lower[v - 1]:
            if (reached := reverse_path(v, False, lambda y: out[y] > lower[y - 1])) is not None:
                return _violation(g, reached, 2, lower)
    ori = Orientation(g, tuple(t == u for t, (u, _, _) in zip(tails, g.edges)))
    d = ori.outdegree_vector()
    if any(not (l <= x <= u) for x, l, u in zip(d, lower, upper)):
        raise InvariantViolationError("path reversal produced out-of-window outdegrees")
    return ori


def orient_with_bounds(
    g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]
) -> Optional[Orientation]:
    """window_orientation's orientation, or None where it returns a violating set.

    Infeasibility is a value, not an error.
    """
    found = window_orientation(g, lower, upper)
    return found if isinstance(found, Orientation) else None


@dataclass(frozen=True)
class WindowConditionsReport:
    """Exhaustive verdict on the two subset counting conditions.

    For every W: |E(W)| <= sum of upper over W, and the number of edges
    touching W must be >= sum of lower over W.  These are necessary and
    sufficient for a degree-window orientation (Frank's orientation
    theorem); the path-reversal solver realizes it constructively.
    """

    ok: bool
    failing_subset: Optional[tuple[int, ...]]
    condition: Optional[int]  # 1 or 2
    lhs: Optional[int]
    rhs: Optional[int]
    subsets_checked: int


def _subset_sums(weights: Sequence[int], out: np.ndarray) -> np.ndarray:
    """out[L] = the sum of weights[i] over the bits i of L, for every L < 2^len(weights)."""
    out[0] = 0
    for i, w in enumerate(weights):
        np.add(out[:1 << i], w, out=out[1 << i:2 << i])
    return out


def check_window_conditions(
    g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]
) -> WindowConditionsReport:
    """Check both counting conditions on all 2^n subsets (n <= SUBSET_VERTEX_CAP).

    Subsets W (bit i - 1 is vertex i) go in increasing bitmask order.  The first W that
    violates a condition is reported (condition 1 before 2, rhs summed from the bounds as
    given), and subsets_checked counts the subsets up to it.

    Each count is a subset sum over all 2^n sets at once, so the check costs O(2^n): |E(W)|
    is tabulated once, and then each condition's bound sum in turn, through one reused buffer,
    with the bounds capped at m + 1, which keeps every verdict exact.  The edges touching W number
    deg(W) - |E(W)|, so condition 2 fails where |E(W)| exceeds the sum of deg - lower over W.
    Every capped sum lies within (n + 1)(m + 1) of 0, so the arrays are int32 below 2^31 and
    int64 past it.  The first W is recounted in O(m) by _violation, as window_orientation's sets are.
    """
    if g.n > SUBSET_VERTEX_CAP:
        raise GraphPolyError(f"exhaustive subset check refused for n={g.n} > {SUBSET_VERTEX_CAP}")
    lower, upper = _window_bounds(g, lower, upper)
    n, cap, deg = g.n, g.num_edges + 1, g.degree_vector()
    adj = np.zeros((n, n), dtype=np.int32 if (n + 1) * cap < 1 << 31 else np.int64)
    for u, v, _ in g.edges:
        adj[u - 1, v - 1] += 1
        adj[v - 1, u - 1] += 1
    su = [min(x, cap) for x in upper]
    sd = [d - min(x, cap) for d, x in zip(deg, lower)]
    # inside[W] = |E(W)|: adding vertex i to a set W of lower vertices adds its edges into W,
    # a subset sum of row i
    inside = np.zeros(1 << n, dtype=adj.dtype)
    sums, bad = np.empty_like(inside), np.empty(len(inside), dtype=bool)
    for i in range(1, n):
        np.add(inside[:1 << i], _subset_sums(adj[i, :i], sums[:1 << i]), out=inside[1 << i:2 << i])
    w, condition = len(inside), None
    for c, weights in ((1, su), (2, sd)):
        # a violation comes first only before the first one found so far (condition 1 on ties)
        found = np.greater(inside[:w], _subset_sums(weights, sums)[:w], out=bad[:w])
        if found.any():
            w, condition = int(found.argmax()), c
    if condition is None:
        return WindowConditionsReport(True, None, None, None, None, 1 << n)
    subset = (i + 1 for i in range(n) if w >> i & 1)
    violation = _violation(g, subset, condition, upper if condition == 1 else lower)
    return WindowConditionsReport(False, violation.subset, condition, violation.lhs, violation.rhs, w + 1)


# ---------------------------------------------------------------------------
# box products of paths and the chess construction for odd cycles
# ---------------------------------------------------------------------------

def box_orientation(ks: Sequence[int]) -> Optional[Orientation]:
    """Orientation of the box P_k1 x ... x P_kn with all outdegrees in {n-1, n}.

    Feasible exactly when the reciprocals of the side lengths sum to at
    most 1; infeasibility is returned as None (decided by the path-reversal
    solver, not by the reciprocal test).
    """
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("side lengths must be positive integers")
    total = math.prod(ks)
    if total > ORIENT_VERTEX_CAP:
        raise GraphPolyError(f"box with {total} vertices exceeds cap {ORIENT_VERTEX_CAP}")
    n = len(ks)
    g = cartesian_product(*map(build_path, ks))
    return orient_with_bounds(g, [n - 1] * g.n, [n] * g.n)


def reciprocal_sum_ok(ks: Sequence[int]) -> bool:
    return sum(Fraction(1, k) for k in ks) <= 1


def odd_cycle_product_orientation(ks: Sequence[int]) -> Orientation:
    """Orientation of the product of cycles C_(2k_i+1) with no odd directed cycle.

    Requires sum of 1/k_i <= 1.  The torus is split into 2^n boxes by
    cutting each cycle into a low arc (k+1 vertices) and a high arc (k
    vertices); boxes are chess-colored by the parity of their index
    bitmask.  Every box gets a degree-window orientation of its path
    product (reversed in black boxes) and all boundary edges leave black
    boxes, so outdegrees stay in {n-1, n, n+1} and every directed cycle is
    trapped inside one bipartite box.
    """
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("cycle parameters must be positive integers")
    if not reciprocal_sum_ok(ks):
        raise ValueError(
            f"reciprocal sum {sum(Fraction(1, k) for k in ks)} exceeds 1; "
            "the box orientation does not exist"
        )
    n = len(ks)
    lengths = [2 * k + 1 for k in ks]
    total = math.prod(lengths)
    if total > ORIENT_VERTEX_CAP:
        raise GraphPolyError(f"product with {total} vertices exceeds cap {ORIENT_VERTEX_CAP}")
    g = cartesian_product(*map(build_cycle, lengths))

    # per edge and endpoint: 0-based vertex, coordinates, box bitmask and chess color
    ends = np.array([(u, v) for u, v, _ in g.edges], dtype=np.int64) - 1
    coords = np.stack(np.unravel_index(ends, lengths), axis=-1)
    k = np.array(ks)
    high = coords > k  # coordinate on the high arc of its cycle
    bits = high @ (1 << np.arange(n))
    black = high.sum(axis=-1) % 2 == 1
    # boundary edge: the tail is the endpoint in the black box
    tail_is_u = black[:, 0].copy()
    inside = np.flatnonzero(bits[:, 0] == bits[:, 1])
    box = bits[inside, 0]
    shapes, first = np.unique(box, return_index=True)
    for b in shapes[np.argsort(first)]:  # by first edge, so a refused shape is the first one met
        on_high = (b >> np.arange(n) & 1).astype(bool)
        dims = tuple(int(x) for x in np.where(on_high, k, k + 1))  # one shape per bitmask
        ori = box_orientation(dims)
        if ori is None:
            raise InvariantViolationError(f"box shape {dims} unexpectedly infeasible")
        # the box's edges are sorted (u, v) pairs, so their keys u * size + v are sorted too
        size = ori.graph.n
        keys = np.array([(u - 1) * size + v - 1 for u, v, _ in ori.graph.edges])
        sel = inside[box == b]
        local = coords[sel] - np.where(on_high, k + 1, 0)
        local = np.ravel_multi_index(tuple(np.moveaxis(local, -1, 0)), dims)
        # u steps to v by +1 on one axis inside the box, so u keeps the lower local index: a
        # forward box edge leaves u, except in black boxes, which are reversed
        fwd = np.array(ori.directions)[np.searchsorted(keys, local[:, 0] * size + local[:, 1])]
        tail_is_u[sel] = fwd ^ black[sel, 0]

    d = np.bincount(np.where(tail_is_u, ends[:, 0], ends[:, 1]), minlength=total)
    if d.min() < n - 1 or d.max() > n + 1:
        raise InvariantViolationError(f"chess construction left outdegrees {sorted(set(d.tolist()))}")
    return Orientation(g, tuple(tail_is_u.tolist()))


# ---------------------------------------------------------------------------
# odd directed cycles
# ---------------------------------------------------------------------------

def has_odd_directed_cycle(ori: Orientation) -> bool:
    """True iff some directed cycle of odd length exists.

    Criterion: a digraph has an odd directed closed walk (equivalently an
    odd directed cycle) iff the undirected graph of some strongly connected
    component's internal arcs is non-bipartite.  The components come from
    Kosaraju's two passes: a DFS along the arcs lists the vertices by
    finishing time, then a BFS against the arcs from each latest-finished
    unlabelled vertex labels exactly its component.  That BFS tree's arcs
    lie inside the component and 2-colour it by depth parity, so the
    component is bipartite iff no arc inside it joins two vertices of one
    colour.  Both adjacencies come from one pass over the edges, and that
    last look reads the edges, as it does not depend on the arcs' directions.
    """
    g, n = ori.graph, ori.graph.n
    out: list[list[int]] = [[] for _ in range(n + 1)]
    into: list[list[int]] = [[] for _ in range(n + 1)]
    for (u, v, _), fwd in zip(g.edges, ori.directions):
        tail, head = (u, v) if fwd else (v, u)
        out[tail].append(head)
        into[head].append(tail)
    finished: list[int] = []
    seen = [False] * (n + 1)
    for root in range(1, n + 1):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out[root]))]
        while stack:
            v, heads = stack[-1]
            for w in heads:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    comp = [0] * (n + 1)  # the vertex whose BFS labelled v's component
    odd_depth = [False] * (n + 1)
    for root in reversed(finished):
        if comp[root]:
            continue
        comp[root] = root
        queue = [root]
        for x in queue:
            for y in into[x]:
                if not comp[y]:
                    comp[y] = root
                    odd_depth[y] = not odd_depth[x]
                    queue.append(y)
    return any(comp[u] == comp[v] and odd_depth[u] == odd_depth[v] for u, v, _ in g.edges)


def acyclic_orientation(g: SignedMultigraph) -> Orientation:
    """Orient every edge toward the earlier vertex of the degeneracy order.

    Acyclic, with max outdegree = degeneracy, so its certificate recovers
    the greedy coloring bound.
    """
    _, order = degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    # tail = vertex removed earlier (its outdegree counts later vertices)
    return Orientation(g, tuple(pos[u] < pos[v] for u, v, _ in g.edges))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def orientation_certificate(ori: Orientation) -> dict:
    """Certificate that coefficient(G, outdegrees) != 0, so AT(G) <= max+1.

    Rejects orientations with odd directed cycles.  The orientation itself
    is the witness: with no odd directed cycle its even and odd Eulerian
    subgraphs differ in number, so the coefficient at its outdegree vector
    is nonzero (Alon and Tarsi, 1992).  No coefficient value is computed
    or carried.  graph_json(g) serves both digests and any file written.
    """
    if has_odd_directed_cycle(ori):
        raise ValueError("orientation has an odd directed cycle; no certificate")
    g = ori.graph
    d = ori.outdegree_vector()
    cert = {
        "kind": "orientation",
        **graph_fields(g),
        "directions": ori.bitstring(),
        "outdegrees": list(d),
        "at_bound": max(d, default=0) + 1,
        "witness_exponent": list(d),
    }
    return finalize_certificate(cert, g)


def at_lower_bound(g: SignedMultigraph) -> tuple[int, str]:
    """Cheap certified lower bound for the Alon-Tarsi number."""
    if g.num_edges == 0:
        return 1, "edgeless"
    mean = -(-g.num_edges // g.n)  # ceil(|E|/n): some exponent reaches it
    bound = mean + 1
    reason = f"pigeonhole: some variable has exponent >= ceil(|E|/n) = {mean}"
    if not is_bipartite(g) and bound < 3:
        return 3, "contains an odd cycle, so ch >= chi >= 3"
    return bound, reason


def cycle_product_chain(
    odd_ks: Sequence[int],
    even_lengths: Sequence[int],
    *,
    budget: Optional[int] = None,
) -> dict:
    """Certificate chain for a product of odd and even cycles.

    The odd part C_(2k_1+1) x ... x C_(2k_m+1) (requiring sum 1/k_i <= 1)
    is handled by the chess-construction orientation, whose outdegree
    vector is an almost-central witness; with no odd part, the first even
    cycle starts the chain with its rotational orientation (a central
    witness).  Each remaining even cycle factor is absorbed by a
    transfer-matrix step that keeps the central coefficient nonzero.

    With at least one even factor the final witness is the central
    exponent, whose maximum entry is the number of factors, so the bound
    is (factors) + 1 and matches the pigeonhole lower bound exactly.  A
    product of odd cycles only never passes through a trace step; its
    witness is the orientation outdegree vector, whose maximum can reach
    (factors) + 1, so the certified upper bound is one larger there.

    Steps on at most TRACE_VERTEX_CAP vertices record their trace;
    larger ones are structural (Phi != 0, so tr Phi^k != 0).
    """
    odd_ks = [int(k) for k in odd_ks]
    evens = [int(x) for x in even_lengths]
    if any(x < 4 or x % 2 for x in evens):
        raise ValueError("even cycle lengths must be even and >= 4")
    if not odd_ks and not evens:
        raise ValueError("empty product")

    if odd_ks:
        ori = odd_cycle_product_orientation(odd_ks)
    else:
        cyc = build_cycle(evens[0])
        # rim edges forward, the seam edge (1, L) backward
        ori = Orientation(cyc, tuple(u + 1 == v for u, v, _ in cyc.edges))
    base_cert = orientation_certificate(ori)
    current = ori.graph
    steps: list[dict] = []
    for L in evens if odd_ks else evens[1:]:
        step: dict = {"even_length": L}
        if current.n <= TRACE_VERTEX_CAP:
            step["verification"] = "trace"
            step["trace_value"] = encode_int(nonzero_trace(build_phi(current, budget=budget), L, budget=budget))
        else:
            step["verification"] = "structural"
            step["trace_value"] = None
        steps.append(step)
        current = cartesian_product(current, build_cycle(L))

    factors = len(odd_ks) + len(evens)
    if evens:
        at_upper = factors + 1
        upper_reason = "final central coefficient is nonzero; its exponent maxes at the factor count"
    else:
        at_upper = factors + 2
        upper_reason = (
            "orientation witness only; outdegrees reach factor count + 1 "
            "(the tighter bound needs an even cycle factor)"
        )
    lower, lower_reason = at_lower_bound(current)
    cert = {
        "kind": "chain",
        "odd_factors": [2 * k + 1 for k in odd_ks],
        "even_factors": evens,
        "base_certificate": base_cert,
        "steps": steps,
        "final_graph_digest": graph_digest(current),
        "at_upper": at_upper,
        "at_upper_reason": upper_reason,
        "at_lower": lower,
        "at_lower_reason": lower_reason,
        "ch_lower": 3 if odd_ks else 2,
    }
    return finalize_certificate(cert)
