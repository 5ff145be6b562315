"""Plain per-element forms of the chess construction, the list-colouring sweeps, the
enumeration engine, the odd-directed-cycle test, the window-condition check, the exact
Alon-Tarsi certificate, the f-plan, its sign search and the degeneracy order.

Kept as test oracles for the versions in graphpoly: this chess construction
walks the edges one by one, the sweep tries every assignment of the
universe with MRV search alone, the greedy colours one assignment at a time, the
stress loop runs MRV on every trial, Floyd's sampler keeps each list in a set,
the enumeration returns how many search nodes it entered, the odd-cycle
test finds strongly connected components by Tarjan's low-links, the
window check tests every edge and vertex against each chunk of subsets, the
exact certificate recomputes its witness coefficient with a second DP,
the plan builds each multiset by one branch per part and its list sizes
in doubled integers, halved at the end, the sign search runs one DP per
sign choice, even where the plan
already holds the coefficient, and the degeneracy order scans every live
vertex for the least (degree, label) at each step.  Given the same input,
each must give the same answer as the package.

Two test helpers that the package does not need end the module: the
central coefficient of a fully doubled graph checked against its sum of
squares, and the exact choice number by exhaustive sweeps.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from graphpoly import choosability
from graphpoly.certificates import encode_int, finalize_certificate
from graphpoly.choosability import _list_sizes, _mrv_coloring, _random_lists
from graphpoly.coefficients import ExponentVector, central_exponent, coefficient, mirror_sign, support
from graphpoly.doubling import ChoosabilityPlan, plan_polynomial, plan_target_exponent
from graphpoly.errors import InvariantViolationError
from graphpoly.graphio import graph_digest, to_json_obj
from graphpoly.graphs import DIFF, SignedMultigraph, build_cycle, cartesian_product, coloring_number, double_edges
from graphpoly.orientations import Orientation, WindowConditionsReport, box_orientation


def _flat_index(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Row-major 1-based index of 0-based coords, matching cartesian_product."""
    idx = 0
    for c, d in zip(coords, dims):
        idx = idx * d + c
    return idx + 1


def odd_cycle_product_orientation(ks: Sequence[int]) -> Orientation:
    """The chess construction edge by edge, for admissible ks."""
    ks = [int(k) for k in ks]
    lengths = [2 * k + 1 for k in ks]
    g = build_cycle(lengths[0])
    for L in lengths[1:]:
        g = cartesian_product(g, build_cycle(L))

    def coords_of(vertex: int) -> tuple[int, ...]:
        x = vertex - 1
        out = []
        for L in reversed(lengths):
            out.append(x % L)
            x //= L
        return tuple(reversed(out))

    def box_bits(coords: Sequence[int]) -> int:
        return sum(1 << j for j, (c, k) in enumerate(zip(coords, ks)) if c > k)

    shape_cache: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}

    def shape_tails(dims: tuple[int, ...]) -> dict[tuple[int, int], int]:
        if dims not in shape_cache:
            ori = box_orientation(dims)
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
            tail = u if bin(bu).count("1") % 2 == 1 else v
        else:
            bits = bu
            dims = tuple(k + 1 if not (bits >> j & 1) else k for j, k in enumerate(ks))
            offs = tuple(0 if not (bits >> j & 1) else k + 1 for j, k in enumerate(ks))
            lu = _flat_index([c - o for c, o in zip(cu, offs)], dims)
            lv = _flat_index([c - o for c, o in zip(cv, offs)], dims)
            local_tail = shape_tails(dims)[(min(lu, lv), max(lu, lv))]
            tail_is_u = local_tail == lu
            if bin(bits).count("1") % 2 == 1:
                tail_is_u = not tail_is_u
            tail = u if tail_is_u else v
        directions.append(tail == u)
    return Orientation(g, tuple(directions))


def find_uncolorable_assignment(
    g: SignedMultigraph, f: Sequence[int], universe_size: Optional[int] = None
) -> Optional[tuple[tuple[int, ...], ...]]:
    """First uncolourable assignment over every list of the universe, by MRV alone."""
    f, u = _list_sizes(g, f, universe_size)
    per_vertex = [list(itertools.combinations(range(1, u + 1), k)) for k in f]
    adj = g.adjacency()
    for assignment in itertools.product(*per_vertex):
        if not _mrv_coloring(adj, assignment)[0]:
            return assignment
    return None


def _greedy_colors(adj: list[list[int]], lists, order: Sequence[int]) -> bool:
    """True if coloring the vertices in the given order, each with its lowest list color that
    no neighbour colored before it holds, colors every vertex; False decides nothing."""
    coloring: list[Optional[int]] = [None] * len(adj)
    for v in order:
        taken = {coloring[w] for w in adj[v]}
        for c in lists[v - 1]:
            if c not in taken:
                coloring[v] = c
                break
        else:
            return False
    return True


def floyd_lists(seed: int, f: Sequence[int], u: int, trials: int) -> Iterator[list[list[int]]]:
    """The stress lists of each trial, by Floyd's algorithm with a set per list, from the
    same draws: t_j uniform in 1..j for j = u - f_v + 1 .. u, row by row."""
    tops = [u - k + 1 + i for k in f for i in range(k)]
    draws = np.random.default_rng(abs(seed)).integers(1, np.array(tops) + 1, size=(trials, len(tops)))
    for row in draws.tolist():
        lists, at = [], 0
        for k in f:
            held: set[int] = set()
            for j, t in zip(range(u - k + 1, u + 1), row[at:at + k]):
                held.add(j if t in held else t)
            lists.append(sorted(held))
            at += k
        yield lists


def random_list_stress(
    g: SignedMultigraph, f: Sequence[int], trials: int, seed: int,
    universe_size: Optional[int] = None,
) -> dict:
    """The stress report with MRV run on every trial of the shared sampler's lists."""
    f, u = _list_sizes(g, f, universe_size)
    adj = g.adjacency()
    ends = list(itertools.accumulate(f))
    failures = []
    for t, row in enumerate(_random_lists(np.random.default_rng(abs(seed)), f, u, trials).tolist()):
        assignment = [row[b - k:b] for k, b in zip(f, ends)]
        if not _mrv_coloring(adj, assignment)[0]:
            failures.append({"trial": t, "lists": assignment})
    return {"graph_digest": graph_digest(g), "f": list(f), "trials": trials,
            "seed": int(seed), "universe": u, "failures": failures}


def enumeration_nodes(g: SignedMultigraph, xi: ExponentVector) -> tuple[int, int]:
    """The coefficient at xi by depth-first enumeration, and the search nodes it entered."""
    edges = g.edges
    m = len(edges)
    remaining = [0] * (g.n + 1)
    for u, v, _ in edges:
        remaining[u] += 1
        remaining[v] += 1
    counts = [0] * (g.n + 1)
    target = (0,) + tuple(xi)
    choices = [((v, 1), (u, -1 if tag == DIFF else 1)) for u, v, tag in edges]
    endpoints = [(u, v) for u, v, _ in edges]
    nodes = 1
    if m == 0:
        return 1, nodes
    total = 0
    tried = [0] * m
    picked = [0] * m
    sign = [1] * (m + 1)
    i = 0
    remaining[endpoints[0][0]] -= 1
    remaining[endpoints[0][1]] -= 1
    while i >= 0:
        u, v = endpoints[i]
        if tried[i] == 2:
            remaining[u] += 1
            remaining[v] += 1
            i -= 1
            if i >= 0:
                counts[picked[i]] -= 1
            continue
        w, s = choices[i][tried[i]]
        tried[i] += 1
        counts[w] += 1
        if counts[w] > target[w] or any(counts[t] + remaining[t] < target[t] for t in (u, v)):
            counts[w] -= 1
            continue
        nodes += 1
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
    return total, nodes


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
    """Tarjan's components, then a dict 2-colouring of each one's internal arcs."""
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


# Subsets per chunk of the oracle's window check.
WINDOW_CHUNK = 1 << 14


def check_window_conditions(g: SignedMultigraph, lower: Sequence[int], upper: Sequence[int]) -> WindowConditionsReport:
    """Both counting conditions on every subset, each edge and vertex tested against a whole
    chunk of WINDOW_CHUNK subsets at once: O((m + n) 2^n) int64 array work, in bitmask order."""
    lower, upper = tuple(int(x) for x in lower), tuple(int(x) for x in upper)
    masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v, _ in g.edges]
    cap, total = len(masks) + 1, 1 << g.n
    for start in range(0, total, WINDOW_CHUNK):
        w = np.arange(start, min(start + WINDOW_CHUNK, total), dtype=np.int64)
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


def at_certificate_exact(g: SignedMultigraph) -> dict:
    """The exact search scan by scan, its witness coefficient then recomputed by a second DP."""
    deg = g.degree_vector()
    if g.num_edges == 0:
        value, witness = 1, (0,) * g.n
    else:
        for value in range(max(2, -(-g.num_edges // g.n) + 1), g.max_degree() + 2):
            found = support(g, tuple(min(value - 1, d) for d in deg)).witness()
            if found is not None:
                witness = found[0]
                break
    return finalize_certificate({
        "kind": "coefficient",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "witness_exponent": list(witness),
        "witness_value": encode_int(coefficient(g, witness)),
        "claim": "alon-tarsi-exact",
        "f": [value] * g.n,
        "at_bound": value,
    })


def build_plan(
    g: SignedMultigraph, tau: Sequence[int], *, budget: Optional[int] = None
) -> ChoosabilityPlan:
    """Classify vertices by 2*tau - deg and assemble the pairing multisets.

    tau must be a nonzero coefficient of g's polynomial (verified).  The
    spill subsets are the lexicographically smallest choices, and the
    pairing zips the two sorted multisets, so plans are reproducible.
    """
    tau = tuple(int(x) for x in tau)
    value = coefficient(g, tau, budget=budget)
    if value == 0:
        raise ValueError(f"tau {tau} has zero coefficient; a plan needs a support element")
    deg = g.degree_vector()
    on_center, below, half_below, above, half_above = [], [], [], [], []
    for i in range(1, g.n + 1):
        d2 = 2 * tau[i - 1] - deg[i - 1]
        if d2 == 0:
            on_center.append(i)
        elif d2 <= -2:
            below.append(i)
        elif d2 == -1:
            half_below.append(i)
        elif d2 >= 2:
            above.append(i)
        else:
            half_above.append(i)

    dist2 = [abs(2 * tau[i] - deg[i]) for i in range(g.n)]  # 0-based
    n_spill_below = max(0, len(below) - len(above))
    n_spill_above = max(0, len(above) - len(below))
    spill_below = tuple(below[:n_spill_below])
    spill_above = tuple(above[:n_spill_above])

    def side(ones: list[int], halves: list[int], spill: tuple[int, ...]) -> list[int]:
        out: list[int] = []
        for i in ones:
            times = dist2[i - 1] if i in spill else dist2[i - 1] - 2
            out.extend([i] * times)
        for i in halves:
            out.extend([i] * dist2[i - 1])
        return sorted(out)

    a_side = side(below, half_below, spill_below)
    b_side = side(above, half_above, spill_above)
    if len(a_side) != len(b_side):
        raise InvariantViolationError(
            f"multiset sizes differ: {len(a_side)} vs {len(b_side)}"
        )

    f2 = []  # doubled list sizes, divided at the end
    for i in range(1, g.n + 1):
        d = deg[i - 1]
        if i in on_center:
            f2.append(d + 4)
        elif (i in below or i in above) and i not in spill_below and i not in spill_above:
            f2.append(d + dist2[i - 1] + 2)
        else:
            f2.append(d + dist2[i - 1] + 4)
    if any(x % 2 for x in f2):
        raise InvariantViolationError("list sizes came out non-integral")
    f = tuple(x // 2 for x in f2)

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


def epsilon_search(plan: ChoosabilityPlan) -> dict:
    """The sign search with the target coefficient of every sign choice from its own DP."""
    target = plan_target_exponent(plan)
    for signs in itertools.product("+-", repeat=plan.m):
        q = plan_polynomial(plan, signs)
        deg_q = q.degree_vector()
        if any(d % 2 for d in deg_q):
            raise InvariantViolationError("augmented multigraph has an odd degree")
        if any(d != 2 * fv - 4 for d, fv in zip(deg_q, plan.f)):
            raise InvariantViolationError("augmented degrees disagree with 2f - 4")
        value = coefficient(q, target)
        if value != 0:
            return finalize_certificate({
                "kind": "fplan",
                "plan": plan.as_json(),
                "epsilon": "".join(signs),
                "witness_exponent": list(target),
                "witness_value": encode_int(value),
                "claim": "f-choosable-product-with-even-cycles",
                "f": list(plan.f),
            })
    raise InvariantViolationError("no sign choice produced a nonzero coefficient")


def squared_central_check(g: SignedMultigraph) -> int:
    """Central coefficient of the all-edges-doubled graph, computed two ways.

    Directly on the doubled multigraph, and independently as
    (+-1) * sum of squared coefficients over the full support of g (the
    sign is the mirror sign of g).  A mismatch is an engine bug and raises.
    """
    doubled = double_edges(g)
    direct = coefficient(doubled, central_exponent(doubled))
    exact = support(g, g.degree_vector()).coef.astype(object)
    via_squares = mirror_sign(g) * int((exact * exact).sum())
    if direct != via_squares:
        raise InvariantViolationError(
            f"squared-central mismatch: direct {direct} vs sum-of-squares {via_squares}"
        )
    return direct


def choice_number_exact(g: SignedMultigraph) -> int:
    """Smallest m with all m-lists colorable (tiny graphs), by the package's sweeps.

    Sweeps m upward; at m = coloring_number the greedy argument already
    guarantees colorability, so the sweep never runs there.
    """
    col = coloring_number(g)
    for m in range(1, col):
        if choosability.find_uncolorable_assignment(g, [m] * g.n) is None:
            return m
    return col


def degeneracy_order(g: SignedMultigraph) -> tuple[int, list[int]]:
    """Repeated minimum-degree removal, lowest label first, each step a min over every live vertex."""
    mult: list[dict[int, int]] = [dict() for _ in range(g.n + 1)]
    for u, v, _ in g.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    deg = [sum(m.values()) for m in mult]
    alive = set(range(1, g.n + 1))
    order: list[int] = []
    degeneracy = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        degeneracy = max(degeneracy, deg[v])
        order.append(v)
        alive.remove(v)
        for w, k in mult[v].items():
            if w in alive:
                deg[w] -= k
    return degeneracy, order
