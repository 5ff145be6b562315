"""Exact coefficient extraction for graph polynomials.

The polynomial of a SignedMultigraph is the product over edges of
(x_v - x_u) for DIFF tags and (x_v + x_u) for SUM tags, u < v.  Expanding
the product means choosing one endpoint per edge; a monomial's exponent
vector counts how often each vertex was chosen, and the coefficient is the
signed number of ways to realize it (a DIFF edge contributes -1 when its
lower endpoint is chosen).

Two independent engines are provided and must agree:

* one windowed DP kernel, ``_scan``, behind ``coefficient``, ``support``
  and ``almost_central_scan``: it keeps every partial product whose
  exponents can still land in a per-vertex window [floor, cap] (a single
  coefficient is the window floor = cap), walks the edges in a planned
  order, and keys each state by one integer of per-vertex bit fields (a
  mixed-radix key) that holds only the vertices whose count is not yet
  determined; each edge maps a whole layer of states with numpy array
  operations.  A bound is tested only from the edge at which some state
  could break it, and a layer with no repeated key skips the merge, so
  an edge costs about 21-26 us plus 0.06 us per state (least-squares fits
  over the 1,901 edges of a perfbench coeff pass; numpy 2.4, 2 cores).
  A layer of more than DP_PIECE_STATES states is merged one key range at
  a time, so a step's temporaries stay cache-sized and its peak near two
  copies of the layer: on the scans of C3xC5 under caps 3 and of C4xC4's
  almost-central window (up to 9.4*10^6 states) such steps take
  0.065-0.072 us per state, against 0.088-0.136 us merged whole.
  A scan returns its last layer as arrays (a SupportMap) and decodes
  exponent tuples only when a caller asks for them.  ``support`` first
  cuts its window to the exponents that can sum to |E| (the degree-sum
  window), so caps that sum to |E| cost one coefficient;
* a direct depth-first enumeration of per-edge choices with feasibility
  pruning but no state merging.

The factors commute, so the edge order changes the cost of the DP, never
its value.  The planner tries the canonical order, reverse Cuthill-McKee
orders and a greedy order that opens the fewest new vertices, and keeps
the one with the least estimated work.

Arithmetic is exact integer arithmetic; there is no floating point in this
module.  The DP holds keys and coefficients in int64 arrays while a bound
checked at run time rules out overflow (keys of at most 62 bits, and twice
the largest coefficient magnitude below 2^63, since each edge adds at most
two old coefficients), and switches them to arrays of Python integers
before the bound would fail; the enumeration uses Python integers only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, InvariantViolationError
from .graphs import DIFF, SignedMultigraph
from .limits import DEFAULT_BUDGET, DP_PIECE_STATES

ExponentVector = tuple[int, ...]


def _check_exponent(g: SignedMultigraph, xi: Sequence[int]) -> ExponentVector:
    xi = tuple(int(x) for x in xi)
    if len(xi) != g.n:
        raise ValueError(f"exponent length {len(xi)} != vertex count {g.n}")
    if any(x < 0 for x in xi):
        raise ValueError("exponents must be non-negative")
    return xi


def coefficient(
    g: SignedMultigraph,
    xi: Sequence[int],
    *,
    method: str = "dp",
    budget: Optional[int] = None,
) -> int:
    """Exact coefficient of x^xi in the graph polynomial of g.

    Returns 0 when |xi| != |E| (the polynomial is homogeneous of degree
    |E|, so this is the mathematically correct value; callers that care
    can pre-check).  method is "dp", "enumerate", or "both"; "both" runs
    the two independent engines and raises if they ever disagree.
    """
    if method not in ("dp", "enumerate", "both"):
        raise ValueError(f"unknown method {method!r}")
    xi = _check_exponent(g, xi)
    budget = DEFAULT_BUDGET if budget is None else budget
    if sum(xi) != g.num_edges:
        return 0
    deg = g.degree_vector()
    if any(x > d for x, d in zip(xi, deg)):
        return 0
    if method == "enumerate":
        return _coefficient_enumeration(g, xi, budget)
    value = int(_scan(g, xi, xi, budget).coef.sum())  # every count is fixed: at most one entry
    if method == "both":
        other = _coefficient_enumeration(g, xi, budget)
        if value != other:
            raise InvariantViolationError(
                f"engines disagree on {xi}: dp={value}, enumeration={other}"
            )
    return value


def _coefficient_enumeration(g: SignedMultigraph, xi: ExponentVector, budget: int) -> int:
    """Depth-first sum over per-edge endpoint choices (no memoization).

    The search keeps its own stack, so long paths do not hit Python's
    recursion limit; every node entered counts against the budget.
    """
    edges = g.edges
    m = len(edges)
    remaining = [0] * (g.n + 1)
    for u, v, _ in edges:
        remaining[u] += 1
        remaining[v] += 1
    counts = [0] * (g.n + 1)
    target = (0,) + xi  # 1-based
    # (vertex, sign) choices per factor: pick x_v (+1) or x_u (-1 on a DIFF edge)
    choices = [((v, 1), (u, -1 if tag == DIFF else 1)) for u, v, tag in edges]
    endpoints = [(u, v) for u, v, _ in edges]
    nodes = 1
    if nodes > budget:
        raise BudgetExceededError(budget, nodes, "enumeration nodes")
    if m == 0:
        return 1
    total = 0
    tried = [0] * m  # choices of edge i tried so far
    picked = [0] * m  # vertex chosen for edge i on the current path
    sign = [1] * (m + 1)  # sign of the path down to depth i
    i = 0
    remaining[endpoints[0][0]] -= 1
    remaining[endpoints[0][1]] -= 1
    while i >= 0:
        u, v = endpoints[i]
        if tried[i] == 2:  # both choices done: back up to edge i - 1
            remaining[u] += 1
            remaining[v] += 1
            i -= 1
            if i >= 0:
                counts[picked[i]] -= 1
            continue
        w, s = choices[i][tried[i]]
        tried[i] += 1
        counts[w] += 1
        if (counts[w] > target[w] or counts[u] + remaining[u] < target[u]
                or counts[v] + remaining[v] < target[v]):
            counts[w] -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget, nodes, "enumeration nodes")
        if i + 1 == m:
            total += sign[i] * s
            counts[w] -= 1
            continue
        picked[i] = w
        sign[i + 1] = sign[i] * s
        i += 1
        tried[i] = 0
        remaining[endpoints[i][0]] -= 1
        remaining[endpoints[i][1]] -= 1
    return total


# ---------------------------------------------------------------------------
# the DP kernel and its edge-order planner
# ---------------------------------------------------------------------------

def _scan(
    g: SignedMultigraph, floor: ExponentVector, cap: ExponentVector, budget: int
) -> SupportMap:
    """Nonzero coefficients x^xi with floor <= xi <= cap, by one DP pass.

    States are partial products over the edges processed so far, held as
    a sorted array of distinct integer keys and a parallel array of
    coefficients; each edge maps the whole layer with array operations,
    a key range at a time past DP_PIECE_STATES states (_edge_step).  A
    vertex gets a bit field in the state key at its first edge, wide
    enough for min(cap, deg); adding the field's place value counts one
    more choice of that vertex.  A branch dies when a count would pass its
    cap or can no longer reach its floor; each bound is tested only from
    the edge at which some state could break it.  At a vertex's last edge
    a window [floor, cap] of one value fixes its count, so the field is
    cleared (by the same addition) and handed to a later vertex: keys stay
    as wide as the live frontier.  Two expansions are counted per state
    per edge against the budget.

    Both arrays start as int64 and become Python-int object arrays, under
    the same expressions, once a bound checked before each edge no longer
    rules out overflow: keys once their fields span more than 62 bits,
    coefficients once twice the largest magnitude could reach 2^63 (a new
    coefficient is the sum of at most two old ones).  The last layer and
    its field layout are returned as they are, as a SupportMap.
    """
    n = g.n
    edges = g.edges
    deg = (0,) + g.degree_vector()  # 1-based, like lo and hi
    lo = (0,) + floor
    hi = (0,) + tuple(min(c, d) for c, d in zip(cap, deg[1:]))
    feasible = all(lo[t] <= deg[t] for t in range(1, n + 1))

    done = [0] * (n + 1)
    shift = [0] * (n + 1)
    mask = [0] * (n + 1)
    free: dict[int, list[int]] = {}  # field width -> shifts of cleared fields
    top = 0
    keys = np.zeros(int(feasible), dtype=np.int64)
    coef = np.ones(int(feasible), dtype=np.int64)
    bound = 1  # no coefficient exceeds it in magnitude
    expansions = 0

    def field(t: int) -> tuple:
        # (shift, mask, cap, need) of an endpoint, the cap None while no
        # count can pass it and the need None while it is not positive
        need = lo[t] - deg[t] + done[t]
        return shift[t], mask[t], hi[t] if done[t] > hi[t] else None, need if need > 0 else None

    for i in _plan_order(g, floor, cap) if feasible else ():
        u, v, tag = edges[i]
        for t in (u, v):
            if not done[t]:
                width = hi[t].bit_length()
                pool = free.get(width)
                if pool:
                    shift[t] = heappop(pool)
                else:
                    shift[t] = top
                    top += width
                mask[t] = (1 << width) - 1
            done[t] += 1
        d_hi = 1 << shift[v]
        d_lo = 1 << shift[u]
        for t in (u, v):
            if done[t] == deg[t] and lo[t] == hi[t]:
                d_hi -= lo[t] << shift[t]
                d_lo -= lo[t] << shift[t]
                heappush(free.setdefault(hi[t].bit_length(), []), shift[t])

        expansions += 2 * keys.size
        if expansions > budget:
            raise BudgetExceededError(budget, expansions)
        if top > 62 and keys.dtype != object:
            keys = keys.astype(object)
        if 2 * bound >= 1 << 63 and coef.dtype != object:
            bound = int(abs(coef).max())  # |coef| < 2^63, so abs cannot wrap
            if 2 * bound >= 1 << 63:
                coef = coef.astype(object)
        bound *= 2
        keys, coef = _edge_step(keys, coef, field(u), field(v), d_hi, d_lo, tag == DIFF)
        if not keys.size:
            break
    fixed = tuple(lo[t] if lo[t] == hi[t] else None for t in range(1, n + 1))  # one-value windows
    return SupportMap(keys, coef, tuple(shift[1:]), tuple(mask[1:]), fixed)


def _edge_step(keys: np.ndarray, coef: np.ndarray, field_u: tuple, field_v: tuple,
               d_hi: int, d_lo: int, diff: bool) -> tuple[np.ndarray, np.ndarray]:
    """The next sorted layer of the DP for the edge uv.

    field_u and field_v are (shift, mask, cap, need) of the endpoints,
    with None for a bound that no state can break.  A state that chooses
    v moves to key + d_hi, one that chooses u to key + d_lo with its
    coefficient negated on a DIFF edge.  The temporaries die on return,
    before the next edge allocates its own.

    A layer of more than DP_PIECE_STATES states is merged a key range at a
    time.  Both halves are shifts of the same sorted keys, so the output
    keys in [c, c') come from the contiguous input slices keys[c - d_lo <=
    key < c' - d_lo] (choosing u) and keys[c - d_hi <= key < c' - d_hi]
    (choosing v).  Each cut c' is the lesser of the input key P places past
    either slice's start, shifted by its move, so no slice holds more than
    P states; each piece is masked, merged and summed alone, and the pieces
    are concatenated in key order.  The temporaries of a step then stay
    within a few P states, and the layers are those of one whole merge.
    """
    if keys.size > DP_PIECE_STATES:
        return _edge_step_by_pieces(keys, coef, field_u, field_v, d_hi, d_lo, diff)
    su, mu, cap_u, need_u = field_u
    sv, mv, cap_v, need_v = field_v
    up = down = None  # the states that may choose v, and u; None for all of them
    # a field compares as it sits in the key: count << shift against bound << shift
    if cap_v is not None or need_v is not None:
        cv = keys & mv << sv
        if cap_v is not None:
            up = cv < cap_v << sv
        if need_v is not None:
            down = cv >= need_v << sv
    if cap_u is not None or need_u is not None:
        cu = keys & mu << su
        if need_u is not None:
            up = cu >= need_u << su if up is None else up & (cu >= need_u << su)
        if cap_u is not None:
            down = cu < cap_u << su if down is None else down & (cu < cap_u << su)
    up_keys, up_coef = (keys, coef) if up is None else (keys[up], coef[up])
    down_keys, down_coef = (keys, coef) if down is None else (keys[down], coef[down])
    return _merge(up_keys, up_coef, down_keys, down_coef, d_hi, d_lo, diff)


def _edge_step_by_pieces(keys: np.ndarray, coef: np.ndarray, field_u: tuple, field_v: tuple,
                         d_hi: int, d_lo: int, diff: bool) -> tuple[np.ndarray, np.ndarray]:
    """_edge_step on a layer of more than DP_PIECE_STATES states, one key range at a time."""
    n, piece = keys.size, DP_PIECE_STATES
    key_parts, coef_parts = [], []
    down = up = 0  # the starts of the next piece's slices: keys choosing u, and v
    while down < n or up < n:
        cut = min(int(keys[down + piece]) + d_lo if down + piece < n else math.inf,
                  int(keys[up + piece]) + d_hi if up + piece < n else math.inf)
        if cut == math.inf:
            down_end = up_end = n
        else:
            down_end, up_end = (int(np.searchsorted(keys, cut - d)) for d in (d_lo, d_hi))
        up_keys, up_coef = _choosing(keys[up:up_end], coef[up:up_end], field_v, field_u)
        down_keys, down_coef = _choosing(keys[down:down_end], coef[down:down_end], field_u, field_v)
        part_keys, part_coef = _merge(up_keys, up_coef, down_keys, down_coef, d_hi, d_lo, diff)
        if part_keys.size:
            key_parts.append(part_keys)
            coef_parts.append(part_coef)
        down, up = down_end, up_end
    if not key_parts:
        empty = keys[:0].copy()
        return empty, empty
    out = np.concatenate(key_parts)
    del key_parts  # freed before the coefficients are joined
    return out, np.concatenate(coef_parts)


def _choosing(keys: np.ndarray, coef: np.ndarray, chosen: tuple,
              other: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The states of a slice that may choose the endpoint with field chosen: its count below
    its cap, and the other endpoint's count at least its need (fields as in _edge_step)."""
    s, mask, cap, _ = chosen
    s_other, mask_other, _, need = other
    ok = None
    if cap is not None:
        ok = keys & mask << s < cap << s
    if need is not None:
        met = keys & mask_other << s_other >= need << s_other
        ok = met if ok is None else ok & met
    return (keys, coef) if ok is None else (keys[ok], coef[ok])


def _merge(up_keys: np.ndarray, up_coef: np.ndarray, down_keys: np.ndarray, down_coef: np.ndarray,
           d_hi: int, d_lo: int, diff: bool) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of up_keys + d_hi and down_keys + d_lo (each sorted and distinct), with
    the coefficients of a repeated key summed and the zero sums dropped; down_coef enters
    negated on a DIFF edge."""
    # each half stays sorted, so the stable sort only merges two runs
    merged = np.concatenate((up_keys + d_hi, down_keys + d_lo))
    if not merged.size:
        return merged, merged
    order = merged.argsort(kind="stable")
    merged = merged[order]
    values = np.concatenate((up_coef, -down_coef if diff else down_coef))[order]
    # a key occurs at most twice, once from each half; no coefficient is
    # zero, so a layer without a repeated key is already the next one
    head = np.empty(merged.size, dtype=bool)
    head[0] = True
    np.not_equal(merged[1:], merged[:-1], out=head[1:])
    if np.count_nonzero(head) == merged.size:
        return merged, values
    first = head.nonzero()[0]
    values = np.add.reduceat(values, first)
    alive = values != 0
    return merged[first[alive]], values[alive]


def _plan_order(g: SignedMultigraph, floor: ExponentVector, cap: ExponentVector) -> list[int]:
    """The edge order, as indices into g.edges, with the least estimated work.

    Candidates: the canonical order, reverse Cuthill-McKee orders from the
    three lowest-degree vertices, and the greedy order.  Ties keep the
    earlier candidate, so the canonical order wins them.  Needs
    floor <= deg and floor <= cap.
    """
    m = g.num_edges
    windows = _window_sizes(g, floor, cap)
    canonical = list(range(m))
    cost = _estimate(g, canonical, windows)
    # Building and estimating the four other candidates takes about 9 us
    # per edge, what the array DP spends on about 130 states (0.07 us
    # each, over 22 us of fixed cost per edge; numpy 2.4, 2 cores).  The
    # estimate bounds the states from above, and loosely: on the scans of
    # a perfbench coeff pass estimated at 130-400 states per edge,
    # planning would cost 2.2 ms to save 0.2 ms.  So the gate stays at
    # 400, where it also keeps every edge order and expansion count.
    if cost <= 400 * m:
        return canonical
    deg = g.degree_vector()
    starts = sorted((t for t in range(1, g.n + 1) if deg[t - 1]), key=lambda t: deg[t - 1])
    best = canonical
    for order in [_greedy_order(g), *_rcm_orders(g, starts[:3])]:
        c = _estimate(g, order, windows, cost)
        if c < cost:
            best, cost = order, c
    return best


def _window_sizes(g: SignedMultigraph, floor: ExponentVector, cap: ExponentVector) -> list:
    """For each vertex t (from 1), the sizes of its count's window after each
    of its edges: after k of its d edges the count lies in
    [max(0, floor - (d - k)), min(k, cap)].  Entry 0 is 1, before any edge."""
    shared: dict[tuple[int, int, int], list[int]] = {}  # one list per (d, floor, cap)
    sizes: list = [None]
    for d, f, c in zip(g.degree_vector(), floor, cap):
        if (d, f, c) not in shared:
            shared[d, f, c] = [1] + [min(k, c) - max(0, f - d + k) + 1 for k in range(1, d + 1)]
        sizes.append(shared[d, f, c])
    return sizes


def _estimate(g: SignedMultigraph, order: Sequence[int], windows: list, stop: Optional[int] = None) -> int:
    """Estimated DP work of an edge order, or a partial sum once it reaches stop.

    The estimate sums, over the edges, the product of the vertices' window
    sizes (see _window_sizes) after each edge.
    """
    edges = g.edges
    done = [0] * len(windows)
    states = 1
    total = 0
    for i in order:
        u, v, _ = edges[i]
        k = done[u] = done[u] + 1
        states = states // windows[u][k - 1] * windows[u][k]
        k = done[v] = done[v] + 1
        states = states // windows[v][k - 1] * windows[v][k]
        total += states
        if stop is not None and total >= stop:
            break
    return total


def _greedy_order(g: SignedMultigraph) -> list[int]:
    """Edges taken one at a time, each opening the fewest new vertices.

    Ties go to the edge whose earlier-opened endpoint opened first, which
    sweeps the graph breadth first.  An edge's key changes only when one of
    its endpoints opens, which pushes the new key, so a heap that drops
    every entry but an edge's latest keeps this O(m log m).
    """
    edges = g.edges
    incident = g.incident_edges()
    opened = [0] * (g.n + 1)  # step at which a vertex opened, 0 = not yet
    taken = [False] * len(edges)
    # (unopened endpoints, the earliest opening step among the opened ones, edge)
    heap = [(2, 0, i) for i in range(len(edges))]  # sorted, so a heap
    latest = heap[:]
    order = []
    clock = 0
    while heap:
        entry = heappop(heap)
        i = entry[2]
        if taken[i] or entry != latest[i]:
            continue
        taken[i] = True
        order.append(i)
        for t in edges[i][:2]:
            if not opened[t]:
                clock += 1
                opened[t] = clock
                for j in incident[t]:
                    if not taken[j]:
                        a, b = opened[edges[j][0]], opened[edges[j][1]]
                        latest[j] = key = (2 - (a > 0) - (b > 0), min(a or b, b or a), j)
                        heappush(heap, key)
    return order


def _rcm_orders(g: SignedMultigraph, starts: Sequence[int]) -> list[list[int]]:
    """For each start, the edges sorted by their later endpoint in a reverse
    Cuthill-McKee order.

    Breadth-first search from start, neighbours in increasing degree;
    other components start at their lowest-degree vertex.
    """
    deg = (0,) + g.degree_vector()
    neighbours = [sorted(a, key=deg.__getitem__) for a in g.adjacency()]
    by_degree = sorted(range(1, g.n + 1), key=deg.__getitem__)
    orders = []
    for start in starts:
        seen = [False] * (g.n + 1)
        visit: list[int] = []
        for s in [start, *by_degree]:
            if seen[s]:
                continue
            seen[s] = True
            visit.append(s)
            j = len(visit) - 1
            while j < len(visit):
                for y in neighbours[visit[j]]:
                    if not seen[y]:
                        seen[y] = True
                        visit.append(y)
                j += 1
        rank = [0] * (g.n + 1)
        for r, t in enumerate(reversed(visit)):
            rank[t] = r
        # (later rank, earlier rank) as one integer; the stable sort keeps
        # equal keys in edge order
        ranks = ((rank[u], rank[v]) for u, v, _ in g.edges)
        key = [a * g.n + b if a > b else b * g.n + a for a, b in ranks]
        orders.append(sorted(range(g.num_edges), key=key.__getitem__))
    return orders


# ---------------------------------------------------------------------------
# support scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupportMap:
    """Nonzero coefficients inside a per-variable window: the DP's last layer.

    keys are sorted distinct state keys, one per exponent, and coef their
    coefficients (never zero), each int64 or Python ints.  Vertex t's
    exponent (t from 0) is keys >> shift[t] & mask[t], or fixed[t] when its
    window held one value.  Only entries decodes exponent tuples, once.
    """

    keys: np.ndarray
    coef: np.ndarray
    shift: tuple[int, ...]
    mask: tuple[int, ...]
    fixed: tuple[Optional[int], ...]

    def __len__(self) -> int:
        return self.keys.size

    def column(self, t: int, keys: np.ndarray) -> np.ndarray:
        """Vertex t's exponent (t from 0) in each row of keys, a slice of self.keys."""
        x = self.fixed[t]
        return keys >> self.shift[t] & self.mask[t] if x is None else np.full(keys.shape, x)

    def witness(self) -> Optional[tuple[ExponentVector, int]]:
        """(exponent, coefficient) at the lexicographically smallest exponent, or None:
        the rows with vertex 1's least exponent, among them vertex 2's least, and so on."""
        if not self.keys.size:
            return None
        keys, xi = self.keys, []
        for t in range(len(self.shift)):
            col = self.column(t, keys)
            xi.append(int(col.min()))
            keys = keys[col == xi[-1]]
        return tuple(xi), int(self.coef[np.searchsorted(self.keys, keys[0])])

    def at(self, xi: Sequence[int]) -> int:
        """The coefficient at xi where xi lies in the scanned window, 0 elsewhere: an exponent
        off a one-value window or past a field's width has no row, and any other is one key."""
        key = 0
        for x, sh, mask, fixed in zip(xi, self.shift, self.mask, self.fixed):
            if fixed is None and 0 <= x <= mask:
                key += x << sh
            elif x != fixed:
                return 0
        i = int(np.searchsorted(self.keys, key))
        return int(self.coef[i]) if i < self.keys.size and self.keys[i] == key else 0

    @functools.cached_property
    def entries(self) -> dict[ExponentVector, int]:
        """{exponent vector: coefficient}, decoded from the whole layer on first read."""
        out: dict[ExponentVector, int] = {}
        for start in range(0, self.keys.size, 65536):  # bounds the columns held as lists
            chunk = self.keys[start:start + 65536]
            # one list per vertex, zipped into the rows: a list per row would be
            # tracked by the cyclic GC, whose passes then dominate the decode
            columns = [self.column(t, chunk).tolist() for t in range(len(self.shift))]
            rows = zip(*columns) if columns else [()]
            out.update(zip(rows, self.coef[start:start + 65536].tolist()))
        return out

    def sorted_items(self) -> list[tuple[ExponentVector, int]]:
        return sorted(self.entries.items())


def support(
    g: SignedMultigraph,
    cap: Sequence[int],
    *,
    floor: Optional[Sequence[int]] = None,
    budget: Optional[int] = None,
) -> SupportMap:
    """All nonzero coefficients with floor_i <= xi_i <= cap_i, one DP pass.

    Exponents only grow along the scan, so a branch dies as soon as a
    vertex exceeds its cap or can no longer reach its floor.  The scan
    gets the degree-sum window, cut to the exponents that can sum to
    m = |E|: cap to min(cap, deg), floor to cap - (sum cap - m), cap to
    floor + (m - sum floor).  Entries and witness are those of the uncut
    window; caps summing to m leave one exponent, and an empty cut runs no DP.
    """
    cap = _check_exponent(g, cap)
    if floor is None:
        floor_t: ExponentVector = (0,) * g.n
    else:
        floor_t = _check_exponent(g, floor)
    if any(f > c for f, c in zip(floor_t, cap)):
        raise ValueError("floor exceeds cap")
    budget = DEFAULT_BUDGET if budget is None else budget
    cap = tuple(min(c, d) for c, d in zip(cap, g.degree_vector()))
    slack = sum(cap) - g.num_edges
    floor_t = tuple(max(f, c - slack) for f, c in zip(floor_t, cap))
    room = g.num_edges - sum(floor_t)
    if slack < 0 or room < 0:
        empty = np.zeros(0, dtype=np.int64)
        return SupportMap(empty, empty, (0,) * g.n, (0,) * g.n, (None,) * g.n)
    return _scan(g, floor_t, tuple(min(c, f + room) for f, c in zip(floor_t, cap)), budget)


def almost_central_scan(g: SignedMultigraph, *, budget: Optional[int] = None) -> SupportMap:
    """Nonzero coefficients with every exponent within 1 of deg(v)/2.

    Only defined when all degrees are even (the half-degree point must be
    integral); odd-degree input is rejected with the offending vertex.
    """
    deg = g.degree_vector()
    for i, d in enumerate(deg):
        if d % 2:
            raise ValueError(
                f"vertex {i + 1} has odd degree {d}; the half-degree window needs even degrees"
            )
    a = [d // 2 for d in deg]
    cap = tuple(x + 1 for x in a)
    floor = tuple(max(x - 1, 0) for x in a)
    return support(g, cap, floor=floor, budget=budget)


def central_exponent(g: SignedMultigraph) -> ExponentVector:
    deg = g.degree_vector()
    if any(d % 2 for d in deg):
        raise ValueError("central exponent needs all degrees even")
    return tuple(d // 2 for d in deg)


# ---------------------------------------------------------------------------
# Alon-Tarsi numbers and symmetry checks
# ---------------------------------------------------------------------------

def alon_tarsi_number_exact(
    g: SignedMultigraph, *, budget: Optional[int] = None
) -> tuple[int, ExponentVector, int]:
    """Exact Alon-Tarsi number k with a witness exponent and its coefficient (desk scale).

    Scans supports with growing per-variable caps until one is nonempty;
    the answer is (max exponent of the witness) + 1.  The witness is the
    lexicographically smallest qualifying exponent.  An edgeless graph has
    value 1 (the empty product is the constant 1).
    """
    m = g.num_edges
    if m == 0:
        return 1, (0,) * g.n, 1
    deg = g.degree_vector()
    k_min = max(2, -(-m // g.n) + 1)  # need n*(k-1) >= |E|
    k_max = g.max_degree() + 1  # cap = degree always has the full support
    for k in range(k_min, k_max + 1):
        cap = tuple(min(k - 1, d) for d in deg)
        found = support(g, cap, budget=budget).witness()
        if found is not None:
            return (k, *found)
    raise InvariantViolationError("support empty even at cap = degree vector")


def mirror_sign(g: SignedMultigraph) -> int:
    """Sign relating a coefficient to its degree-complement coefficient.

    Flipping the endpoint choice in every factor maps the monomial x^xi to
    x^(deg - xi) and multiplies the term by -1 per DIFF edge, so the two
    coefficients agree up to (-1)^(number of DIFF edges).
    """
    diff_edges = sum(1 for _, _, tag in g.edges if tag == DIFF)
    return -1 if diff_edges % 2 else 1

