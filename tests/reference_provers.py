"""Plain per-element forms of the chess construction, the list-colouring sweeps and the
enumeration engine.

Kept as test oracles for the versions in graphpoly: this chess construction
walks the edges one by one, the sweep tries every assignment of the
universe with MRV search alone, the stress loop runs MRV on every trial,
and the enumeration returns how many search nodes it entered.  Given the
same input, each must give the same answer as the package.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from graphpoly.choosability import _list_sizes, _mrv_coloring
from graphpoly.coefficients import ExponentVector
from graphpoly.graphio import graph_digest
from graphpoly.graphs import DIFF, SignedMultigraph, build_cycle, cartesian_product
from graphpoly.orientations import Orientation, box_orientation


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


def random_list_stress(
    g: SignedMultigraph, f: Sequence[int], trials: int, seed: int,
    universe_size: Optional[int] = None,
) -> dict:
    """The stress report with MRV run on every trial."""
    f, u = _list_sizes(g, f, universe_size)
    rng = random.Random(seed)
    colors = list(range(1, u + 1))
    adj = g.adjacency()
    failures = []
    for t in range(trials):
        assignment = tuple(tuple(sorted(rng.sample(colors, k))) for k in f)
        if not _mrv_coloring(adj, assignment)[0]:
            failures.append({"trial": t, "lists": [list(a) for a in assignment]})
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
