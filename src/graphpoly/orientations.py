"""Degree-constrained orientations, box constructions, and AT certificates.

An orientation assigns each edge a direction; True means u -> v for the
canonical edge (u, v) with u < v.  The bridge to coefficients: summing the
signed endpoint choices of the graph polynomial over all orientations with
a fixed outdegree vector d gives [x^d]F_G, and an orientation without odd
directed cycles forces that coefficient to be nonzero.  That turns any
such orientation into a machine-checkable Alon-Tarsi bound.

Degree-window orientations (l_v <= outdeg(v) <= u_v) are found by path
reversal from a greedy start (Hakimi 1965); the classical two counting
conditions over all vertex subsets are implemented as an independent
exhaustive checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .certificates import encode_int, finalize_certificate
from .coefficients import ExponentVector
from .errors import GraphPolyError, InvariantViolationError
from .graphio import graph_digest, to_json_obj
from .graphs import (
    SignedMultigraph,
    build_cycle,
    build_path,
    cartesian_product,
    degeneracy_order,
    is_bipartite,
)
from .limits import BOX_VERTEX_CAP, ODD_PRODUCT_VERTEX_CAP, SUBSET_VERTEX_CAP, TRACE_VERTEX_CAP

# Subsets per numpy chunk of the window check: of 2^10..2^16, 2^14 ran fastest on C4xC4; under 1 MB live.
_WINDOW_CHUNK = 1 << 14


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
        d = [0] * self.graph.n
        for tail, _ in self.arcs():
            d[tail - 1] += 1
        return tuple(d)

    def reversal_parity(self) -> int:
        """Parity of edges directed against the canonical u -> v direction."""
        return sum(1 for f in self.directions if not f) % 2

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


def orient_with_bounds(
    g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]
) -> Optional[Orientation]:
    """Orientation with lower[v] <= outdeg(v) <= upper[v], or None if infeasible.

    Path reversal (Hakimi 1965): each edge first leaves the endpoint whose
    outdegree so far minus upper bound is smaller (u on ties); then, vertex
    by vertex, a BFS path from a vertex over its upper bound to one below it
    is reversed, and after that a path to a vertex under its lower bound
    from one above it.  A search that finds no such path reaches a vertex
    set that violates one of the two counting conditions, so None is exact.
    Infeasibility is a value, not an error; run check_window_conditions for
    the violating subset.
    """
    lower, upper = _window_bounds(g, lower, upper)
    if sum(lower) > g.num_edges or sum(upper) < g.num_edges:  # the conditions on W = V
        return None
    out = [0] * (g.n + 1)
    tails: list[int] = []
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, (u, v, _) in enumerate(g.edges):
        tail = u if out[u] - upper[u - 1] <= out[v] - upper[v - 1] else v
        tails.append(tail)
        out[tail] += 1
        incident[u].append((i, v))
        incident[v].append((i, u))

    def reverse_path(s: int, forward: bool, target) -> bool:
        """BFS from s along (or against) the arcs to a target vertex; reverse the path found."""
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
                    return True
                queue.append(y)
        return False

    # A reversal moves one unit of outdegree between the path's ends and never past a bound,
    # so a vertex once inside its bound stays there and one pass over the vertices suffices.
    for v in range(1, g.n + 1):
        while out[v] > upper[v - 1]:
            if not reverse_path(v, True, lambda y: out[y] < upper[y - 1]):
                return None
    for v in range(1, g.n + 1):
        while out[v] < lower[v - 1]:
            if not reverse_path(v, False, lambda y: out[y] > lower[y - 1]):
                return None
    ori = Orientation(g, tuple(t == u for t, (u, _, _) in zip(tails, g.edges)))
    d = ori.outdegree_vector()
    if any(not (l <= x <= u) for x, l, u in zip(d, lower, upper)):
        raise InvariantViolationError("path reversal produced out-of-window outdegrees")
    return ori


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


def check_window_conditions(
    g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]
) -> WindowConditionsReport:
    """Check both counting conditions on all 2^n subsets (n <= SUBSET_VERTEX_CAP).

    Subsets W (bit i - 1 is vertex i) go in increasing bitmask order, _WINDOW_CHUNK at a
    time as int64 arrays with the bounds capped at m + 1, which keeps every verdict exact.
    The first W that violates a condition is reported (condition 1 before 2, rhs summed
    from the bounds as given), and subsets_checked counts the subsets up to it.
    """
    if g.n > SUBSET_VERTEX_CAP:
        raise GraphPolyError(f"exhaustive subset check refused for n={g.n} > {SUBSET_VERTEX_CAP}")
    lower, upper = _window_bounds(g, lower, upper)
    masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v, _ in g.edges]
    cap, total = len(masks) + 1, 1 << g.n
    for start in range(0, total, _WINDOW_CHUNK):
        w = np.arange(start, min(start + _WINDOW_CHUNK, total), dtype=np.int64)
        inside, touching, su, sl = (np.zeros_like(w) for _ in range(4))
        for em in masks:
            hit = w & em
            inside += hit == em
            touching += hit != 0
        for i in range(g.n):
            su += min(upper[i], cap) * (bit := w >> i & 1)
            sl += min(lower[i], cap) * bit
        bad = (inside > su) | (touching < sl)
        if bad.any():
            j = int(bad.argmax())
            subset = tuple(i + 1 for i in range(g.n) if (start + j) >> i & 1)
            cond, lhs, bound = (1, inside, upper) if inside[j] > su[j] else (2, touching, lower)
            rhs = sum(bound[v - 1] for v in subset)
            return WindowConditionsReport(False, subset, cond, int(lhs[j]), rhs, start + j + 1)
    return WindowConditionsReport(True, None, None, None, None, total)


# ---------------------------------------------------------------------------
# box products of paths and the chess construction for odd cycles
# ---------------------------------------------------------------------------

def _flat_index(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Row-major 1-based index of 0-based coords, matching cartesian_product."""
    idx = 0
    for c, d in zip(coords, dims):
        idx = idx * d + c
    return idx + 1


def path_product(ks: Sequence[int]) -> SignedMultigraph:
    g = build_path(ks[0])
    for k in ks[1:]:
        g = cartesian_product(g, build_path(k))
    return g


def box_orientation(ks: Sequence[int]) -> Optional[Orientation]:
    """Orientation of the path product with all outdegrees in {n-1, n}.

    Feasible exactly when the reciprocals of the side lengths sum to at
    most 1; infeasibility is returned as None (decided by the path-reversal
    solver, not by the reciprocal test).
    """
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("side lengths must be positive integers")
    total = 1
    for k in ks:
        total *= k
    if total > BOX_VERTEX_CAP:
        raise GraphPolyError(f"box with {total} vertices exceeds cap {BOX_VERTEX_CAP}")
    n = len(ks)
    g = path_product(ks)
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
    total = 1
    for L in lengths:
        total *= L
    if total > ODD_PRODUCT_VERTEX_CAP:
        raise GraphPolyError(f"product with {total} vertices exceeds cap {ODD_PRODUCT_VERTEX_CAP}")

    g = build_cycle(lengths[0]) if n else None
    for L in lengths[1:]:
        g = cartesian_product(g, build_cycle(L))
    assert g is not None

    def coords_of(vertex: int) -> tuple[int, ...]:
        x = vertex - 1
        out = []
        for L in reversed(lengths):
            out.append(x % L)
            x //= L
        return tuple(reversed(out))

    def box_bits(coords: Sequence[int]) -> int:
        return sum(1 << j for j, (c, k) in enumerate(zip(coords, ks)) if c > k)

    # One window orientation per box shape; shapes repeat across boxes.
    shape_cache: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}

    def shape_tails(dims: tuple[int, ...]) -> dict[tuple[int, int], int]:
        if dims not in shape_cache:
            ori = box_orientation(dims)
            if ori is None:
                raise InvariantViolationError(f"box shape {dims} unexpectedly infeasible")
            shape_cache[dims] = {
                (u, v): (u if fwd else v)
                for (u, v, _), fwd in zip(ori.graph.edges, ori.directions)
            }
        return shape_cache[dims]

    directions = []
    for u, v, _ in g.edges:
        cu, cv = coords_of(u), coords_of(v)
        bu, bv = box_bits(cu), box_bits(cv)
        if bu != bv:
            # boundary edge: tail is the endpoint in the black box
            black_u = bin(bu).count("1") % 2 == 1
            tail = u if black_u else v
        else:
            bits = bu
            dims = tuple(k + 1 if not (bits >> j & 1) else k for j, k in enumerate(ks))
            offs = tuple(0 if not (bits >> j & 1) else k + 1 for j, k in enumerate(ks))
            lu = _flat_index([c - o for c, o in zip(cu, offs)], dims)
            lv = _flat_index([c - o for c, o in zip(cv, offs)], dims)
            tails = shape_tails(dims)
            local_tail = tails[(min(lu, lv), max(lu, lv))]
            tail_is_u = (local_tail == lu)
            if bin(bits).count("1") % 2 == 1:  # black: reversed pattern
                tail_is_u = not tail_is_u
            tail = u if tail_is_u else v
        directions.append(tail == u)

    ori = Orientation(g, tuple(directions))
    d = ori.outdegree_vector()
    if any(not (n - 1 <= x <= n + 1) for x in d):
        raise InvariantViolationError(f"chess construction left outdegrees {sorted(set(d))}")
    return ori


# ---------------------------------------------------------------------------
# odd directed cycles
# ---------------------------------------------------------------------------

def _strongly_connected_components(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Iterative Tarjan over vertices 1..n."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in arcs:
        adj[u].append(v)
    index = [0] * (n + 1)
    low = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = itertools.count(1)
    for root in range(1, n + 1):
        if index[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if not index[w]:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
    return comps


def has_odd_directed_cycle(ori: Orientation) -> bool:
    """True iff some directed cycle of odd length exists.

    Criterion: a digraph has an odd directed closed walk (equivalently an
    odd directed cycle) iff the undirected graph of some strongly connected
    component's internal arcs is non-bipartite.
    """
    arcs = ori.arcs()
    comps = _strongly_connected_components(ori.graph.n, arcs)
    comp_id = [0] * (ori.graph.n + 1)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    internal: list[list[tuple[int, int]]] = [[] for _ in comps]
    for u, v in arcs:
        if comp_id[u] == comp_id[v]:
            internal[comp_id[u]].append((u, v))
    for comp, arcs_c in zip(comps, internal):
        if len(comp) < 2 or not arcs_c:
            continue
        color: dict[int, int] = {}
        adj: dict[int, list[int]] = {}
        for u, v in arcs_c:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for s in comp:
            if s in color or s not in adj:
                continue
            color[s] = 1
            queue = [s]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = -color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        return True
    return False


def acyclic_orientation(g: SignedMultigraph) -> Orientation:
    """Orient every edge toward the earlier vertex of the degeneracy order.

    Acyclic, with max outdegree = degeneracy, so its certificate recovers
    the greedy coloring bound.
    """
    _, order = degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    directions = []
    for u, v, _ in g.edges:
        # tail = vertex removed earlier (its outdegree counts later vertices)
        directions.append(pos[u] < pos[v])
    return Orientation(g, tuple(directions))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def orientation_certificate(ori: Orientation) -> dict:
    """Certificate that coefficient(G, outdegrees) != 0, so AT(G) <= max+1.

    Rejects orientations with odd directed cycles.  The orientation itself
    is the witness: with no odd directed cycle its even and odd Eulerian
    subgraphs differ in number, so the coefficient at its outdegree vector
    is nonzero (Alon and Tarsi, 1992).  No coefficient value is computed
    or carried.
    """
    if has_odd_directed_cycle(ori):
        raise ValueError("orientation has an odd directed cycle; no certificate")
    g = ori.graph
    d = ori.outdegree_vector()
    cert = {
        "kind": "orientation",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "directions": ori.bitstring(),
        "outdegrees": list(d),
        "at_bound": max(d, default=0) + 1,
        "witness_exponent": list(d),
    }
    return finalize_certificate(cert)


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
    from .transfer import build_phi, nonzero_trace

    odd_ks = [int(k) for k in odd_ks]
    evens = [int(x) for x in even_lengths]
    if any(k < 1 for k in odd_ks):
        raise ValueError("odd-cycle parameters must be >= 1")
    if any(x < 4 or x % 2 for x in evens):
        raise ValueError("even cycle lengths must be even and >= 4")
    if not odd_ks and not evens:
        raise ValueError("empty product")
    if odd_ks and not reciprocal_sum_ok(odd_ks):
        raise ValueError("reciprocal sum over odd-cycle parameters exceeds 1")

    steps: list[dict] = []
    if odd_ks:
        ori = odd_cycle_product_orientation(odd_ks)
        base_cert = orientation_certificate(ori)
        current = ori.graph
        remaining = list(evens)
    else:
        first = evens[0]
        cyc = build_cycle(first)
        rot = Orientation(
            cyc,
            tuple(
                u + 1 == v  # rim edges forward, the seam edge (1, L) backward
                for u, v, _ in cyc.edges
            ),
        )
        base_cert = orientation_certificate(rot)
        current = cyc
        remaining = list(evens[1:])

    for L in remaining:
        step: dict = {"even_length": L}
        if current.n <= TRACE_VERTEX_CAP:
            step["verification"] = "trace"
            step["trace_value"] = encode_int(nonzero_trace(build_phi(current, budget=budget), L))
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
