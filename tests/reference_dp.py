"""The DP's per-edge step and its edge-order planner in their plain form.

Kept as test oracles for the leaner versions in graphpoly.coefficients:
this step tests every cap and floor on every state and always runs the
duplicate merge, and this planner builds the adjacency once per RCM
order, works out each window size where the estimate needs it and
estimates every candidate in full.  Given the same input, both must
produce identical arrays and identical edge orders.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from graphpoly.coefficients import ExponentVector
from graphpoly.graphs import SignedMultigraph


def _edge_step(keys: np.ndarray, coef: np.ndarray, field_u: tuple, field_v: tuple,
               d_hi: int, d_lo: int, diff: bool) -> tuple[np.ndarray, np.ndarray]:
    """The next sorted layer of the DP for the edge uv.

    field_u and field_v are (shift, mask, cap, need) of the endpoints.  A
    state that chooses v moves to key + d_hi, one that chooses u to
    key + d_lo with its coefficient negated on a DIFF edge.  The
    temporaries die on return, before the next edge allocates its own.
    """
    su, mu, cap_u, need_u = field_u
    sv, mv, cap_v, need_v = field_v
    cu = keys >> su & mu
    cv = keys >> sv & mv
    a = (cv < cap_v) & (cu >= need_u)
    b = (cu < cap_u) & (cv >= need_v)
    # each half stays sorted, so the stable sort only merges two runs
    merged = np.concatenate((keys[a] + d_hi, keys[b] + d_lo))
    if not merged.size:
        return merged, merged
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    values = np.concatenate((coef[a], -coef[b] if diff else coef[b]))[order]
    # a key occurs at most twice, once from each half
    first = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
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
    canonical = list(range(m))
    cost = _estimate(g, canonical, floor, cap)
    # Building and estimating the four other candidates takes about 20 us
    # per edge, what the array DP spends on about 430 states (0.046 us
    # each, over 38 us of fixed cost per edge; numpy 2.4).  The estimate
    # bounds the states from above, so below 400 per edge no order can
    # save what the planning costs.
    if cost <= 400 * m:
        return canonical
    deg = g.degree_vector()
    starts = sorted((t for t in range(1, g.n + 1) if deg[t - 1]), key=lambda t: deg[t - 1])
    best = canonical
    for order in [_greedy_order(g), *(_rcm_order(g, s) for s in starts[:3])]:
        c = _estimate(g, order, floor, cap)
        if c < cost:
            best, cost = order, c
    return best


def _estimate(g: SignedMultigraph, order: Sequence[int], floor: ExponentVector, cap: ExponentVector) -> int:
    """Estimated DP work of an edge order.

    After k of its d edges a vertex's count lies in
    [max(0, floor - (d - k)), min(k, cap)]; the estimate sums, over the
    edges, the product of these window sizes after each edge.
    """
    deg = g.degree_vector()
    done = [0] * g.n
    window = [1] * g.n
    states = 1
    total = 0
    for i in order:
        u, v, _ = g.edges[i]
        for t in (u - 1, v - 1):
            done[t] += 1
            w = min(done[t], cap[t]) - max(0, floor[t] - deg[t] + done[t]) + 1
            states = states // window[t] * w
            window[t] = w
        total += states
    return total


def _greedy_order(g: SignedMultigraph) -> list[int]:
    """Edges taken one at a time, each opening the fewest new vertices.

    Ties go to the edge whose earlier-opened endpoint opened first, which
    sweeps the graph breadth first.  Keys only fall as vertices open, so a
    heap with lazily dropped stale entries keeps this O(m log m).
    """
    edges = g.edges
    incident = g.incident_edges()
    opened = [0] * (g.n + 1)  # step at which a vertex opened, 0 = not yet
    taken = [False] * len(edges)

    def key(i: int) -> tuple[int, int, int]:
        ages = [opened[t] for t in edges[i][:2] if opened[t]]
        return (2 - len(ages), min(ages, default=0), i)

    heap = [(2, 0, i) for i in range(len(edges))]  # sorted, so a heap
    order = []
    clock = 0
    while heap:
        entry = heappop(heap)
        i = entry[2]
        if taken[i] or entry != key(i):
            continue
        taken[i] = True
        order.append(i)
        for t in edges[i][:2]:
            if not opened[t]:
                clock += 1
                opened[t] = clock
                for j in incident[t]:
                    if not taken[j]:
                        heappush(heap, key(j))
    return order


def _rcm_order(g: SignedMultigraph, start: int) -> list[int]:
    """Edges sorted by their later endpoint in a reverse Cuthill-McKee order.

    Breadth-first search from start, neighbours in increasing degree;
    other components start at their lowest-degree vertex.
    """
    deg = (0,) + g.degree_vector()
    adj = g.adjacency()
    seen = [False] * (g.n + 1)
    visit: list[int] = []
    for s in [start, *sorted(range(1, g.n + 1), key=deg.__getitem__)]:
        if seen[s]:
            continue
        seen[s] = True
        visit.append(s)
        j = len(visit) - 1
        while j < len(visit):
            for y in sorted(adj[visit[j]], key=deg.__getitem__):
                if not seen[y]:
                    seen[y] = True
                    visit.append(y)
            j += 1
    rank = [0] * (g.n + 1)
    for r, t in enumerate(reversed(visit)):
        rank[t] = r
    ranks = [sorted((rank[u], rank[v])) for u, v, _ in g.edges]
    return sorted(range(g.num_edges), key=lambda i: (ranks[i][1], ranks[i][0], i))

