"""Signed multigraphs, standard generators, products, and cycle covers.

A graph here is a multigraph on vertices 1..n whose edges carry a factor
tag: a DIFF edge (u, v) stands for the linear factor (x_v - x_u) with
u < v, a SUM edge for (x_v + x_u).  This is the single representation
shared by every engine in the package; plain graphs are just DIFF-only
instances.  The sign convention is fixed once and for all: every DIFF
factor is written with the larger endpoint first, so all coefficient
values produced by the package are comparable bit for bit.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

DIFF = "diff"
SUM = "sum"

Edge = tuple[int, int, str]


@dataclass(frozen=True)
class SignedMultigraph:
    """Immutable multigraph with tagged edges, vertices labeled 1..n.

    Edges are stored sorted as (u, v, tag) with 1 <= u < v <= n; parallel
    edges are repeated entries.  Instances are safe to share between
    threads; all operations in the package treat them as values.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for u, v, tag in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) violates 1 <= u < v <= n={self.n}")
            if tag not in (DIFF, SUM):
                raise ValueError(f"unknown edge tag {tag!r}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree_vector(self) -> tuple[int, ...]:
        return self._degrees

    @functools.cached_property
    def _degrees(self) -> tuple[int, ...]:
        # an immutable value of an immutable graph, so computed once per graph
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return tuple(deg)

    def max_degree(self) -> int:
        return max(self.degree_vector(), default=0)

    def is_diff_only(self) -> bool:
        return all(tag == DIFF for _, _, tag in self.edges)

    def is_simple(self) -> bool:
        pairs = [(u, v) for u, v, _ in self.edges]
        return len(pairs) == len(set(pairs))

    def has_even_degrees(self) -> bool:
        return all(d % 2 == 0 for d in self.degree_vector())

    def adjacency(self) -> list[list[int]]:
        """Simple adjacency lists (sorted, parallel edges collapsed)."""
        nbr: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v, _ in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return [sorted(s) for s in nbr]

    def incident_edges(self) -> list[list[int]]:
        """Edge index lists per vertex (1-based vertices; index 0 unused)."""
        inc: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, (u, v, _) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return inc


def make_graph(n: int, edges: Iterable[Sequence]) -> SignedMultigraph:
    """Canonicalize an edge list into a SignedMultigraph.

    Accepts (u, v) pairs (treated as DIFF) or (u, v, tag) triples; endpoints
    are swapped into u < v order and the list is sorted, so two graphs with
    the same edge multiset compare equal.  SignedMultigraph then checks each
    edge once, refusing self-loops with the rest.
    """
    out: list[Edge] = []
    for e in edges:
        if len(e) == 2:
            u, v = e
            tag = DIFF
        else:
            u, v, tag = e
        u, v = int(u), int(v)
        if u > v:
            u, v = v, u
        out.append((u, v, tag))
    out.sort()
    return SignedMultigraph(n, tuple(out))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def build_path(k: int) -> SignedMultigraph:
    """Path on k vertices (k - 1 edges)."""
    if k < 1:
        raise ValueError(f"path needs at least 1 vertex, got {k}")
    return make_graph(k, [(i, i + 1) for i in range(1, k)])


def build_cycle(n: int) -> SignedMultigraph:
    """Simple cycle on n >= 3 vertices.

    n = 2 is rejected; a digon is a multigraph and must be built explicitly
    with double_edges(build_path(2)).
    """
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def build_complete(n: int) -> SignedMultigraph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return make_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def build_cycle_power(n: int, p: int) -> SignedMultigraph:
    """p-th power of the n-cycle: i ~ j iff their cyclic distance is <= p.

    Requires n >= 2p + 1 so that the adjacency ranges do not collide; the
    result has n*p edges and is 2p-regular.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    if n <= 2 * p:
        raise ValueError(f"need n >= 2p+1, got n={n}, p={p}")
    return make_graph(n, [(i, (i - 1 + d) % n + 1) for i in range(1, n + 1) for d in range(1, p + 1)])


def build_petersen() -> SignedMultigraph:
    """Petersen graph: outer 5-cycle 1..5, inner pentagram 6..10, spokes."""
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    edges += [(i, i + 5) for i in range(1, 6)]
    return make_graph(10, edges)


def cartesian_product(*factors: SignedMultigraph) -> SignedMultigraph:
    """Cartesian product of one or more factors with row-major vertex labeling.

    Vertex (a_1, ..., a_r) of the product maps to the row-major index of the
    0-based coordinates (a_i - 1), plus 1, so the labeling (and hence every
    certificate referring to it) is reproducible, and associative: the
    product of a, b and c equals the product of (a x b) and c.  Every factor
    must be DIFF-only; parallel edges in a factor yield parallel edges in
    the product.  The edges are made in u < v order, so they skip make_graph.
    """
    if not factors:
        raise ValueError("cartesian_product needs at least one factor")
    if not all(f.is_diff_only() for f in factors):
        raise ValueError("cartesian_product is defined for DIFF-only graphs")
    n = math.prod(f.n for f in factors)
    edges: list[Edge] = []
    for i, f in enumerate(factors):
        # each choice of the coordinates before i owns a block of f.n * inner labels, in which
        # vertex u of factor i holds the inner labels after (u - 1) * inner; an edge (u, v) joins
        # those runs label by label, listed by the smaller end so that the sort meets long runs
        inner = math.prod(h.n for h in factors[i + 1:])
        pairs = [((u - 1) * inner, (v - 1) * inner) for u, v, _ in f.edges]
        edges += [(lo + b, hi + b, DIFF) for a in range(0, n, f.n * inner or 1)  # an empty factor: no block
                  for lo, hi in pairs for b in range(a + 1, a + inner + 1)]
    edges.sort()
    return SignedMultigraph(n, tuple(edges))


def double_edges(g: SignedMultigraph, indices: Optional[Iterable[int]] = None) -> SignedMultigraph:
    """Duplicate the selected edges (all of them when indices is None)."""
    if indices is None:
        chosen = set(range(g.num_edges))
    else:
        chosen = set(indices)
        for i in chosen:
            if not (0 <= i < g.num_edges):
                raise ValueError(f"edge index {i} out of range")
    edges = list(g.edges)
    edges.extend(g.edges[i] for i in sorted(chosen))
    return make_graph(g.n, edges)


def build_digon() -> SignedMultigraph:
    """Two vertices joined by a pair of parallel edges."""
    return double_edges(build_path(2))


# ---------------------------------------------------------------------------
# classical bounds and covers
# ---------------------------------------------------------------------------

def degeneracy_order(g: SignedMultigraph) -> tuple[int, list[int]]:
    """Repeated minimum-degree removal (lowest label breaks ties).

    Returns (degeneracy, removal order).  Parallel edges count with
    multiplicity, which is documented behaviour for multigraph input.  A heap
    keyed by (degree, label) gives each next vertex in O(log n); a degree
    change pushes the vertex anew, and stale entries are skipped.
    """
    mult: list[dict[int, int]] = [dict() for _ in range(g.n + 1)]
    for u, v, _ in g.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    deg = [sum(m.values()) for m in mult]
    heap = [(deg[v], v) for v in range(1, g.n + 1)]
    heapq.heapify(heap)
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v]:  # a stale entry, or v is removed
            continue
        degeneracy = max(degeneracy, d)
        order.append(v)
        deg[v] = None
        for w, k in mult[v].items():
            if deg[w] is not None:
                deg[w] -= k
                heapq.heappush(heap, (deg[w], w))
    return degeneracy, order


def coloring_number(g: SignedMultigraph) -> int:
    """Greedy coloring bound: degeneracy + 1."""
    return degeneracy_order(g)[0] + 1


def is_bipartite(g: SignedMultigraph) -> bool:
    color = [0] * (g.n + 1)
    adj = g.adjacency()
    for s in range(1, g.n + 1):
        if color[s]:
            continue
        color[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] == 0:
                    color[w] = -color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def _cycles_through(start: int, adj: list[list[int]], banned: set[int]) -> Iterator[tuple[int, ...]]:
    """Yield simple cycles through `start` avoiding `banned`, in lex path order.

    Each cycle is reported once, as the vertex tuple of the lexicographically
    smallest traversal starting at `start` (second vertex < last vertex).
    """
    path = [start]
    on_path = {start}
    neighbours = [iter(adj[start])]  # one iterator per path vertex
    while neighbours:
        w = next(neighbours[-1], None)
        if w is None:
            neighbours.pop()
            on_path.remove(path.pop())
        elif w == start:
            if len(path) >= 3 and path[1] < path[-1]:
                yield tuple(path)
        elif w not in on_path and w not in banned:
            path.append(w)
            on_path.add(w)
            neighbours.append(iter(adj[w]))


def find_cycle_cover(g: SignedMultigraph, targets: Iterable[int]) -> Optional[tuple[tuple[int, ...], ...]]:
    """Vertex-disjoint cycles of g covering every target vertex, or None.

    Exact backtracking (desk scale): repeatedly takes the smallest uncovered
    target and tries all cycles through it in lexicographic order, so the
    first cover found is the canonical one.  Requires a simple graph.
    """
    if not g.is_simple():
        raise ValueError("cycle cover search expects a simple graph")
    todo = sorted(set(targets))
    for t in todo:
        if not (1 <= t <= g.n):
            raise ValueError(f"target vertex {t} out of range")
    adj = g.adjacency()
    if not todo:
        return ()
    # one frame per cycle of the cover: (targets left before it, the
    # cycles still to try through the smallest of them)
    frames = [(todo, _cycles_through(todo[0], adj, set()))]
    cover: list[tuple[int, ...]] = []
    while frames:
        uncovered, cycles = frames[-1]
        del cover[len(frames) - 1:]
        cyc = next(cycles, None)
        if cyc is None:
            frames.pop()
            continue
        cover.append(cyc)
        used = set().union(*cover)
        rest = [x for x in uncovered if x not in used]
        if not rest:
            return tuple(cover)
        frames.append((rest, _cycles_through(rest[0], adj, used)))
    return None


def cover_edge_indices(g: SignedMultigraph, cycles: Iterable[tuple[int, ...]]) -> set[int]:
    """Indices of g.edges used by the given vertex cycles."""
    index: dict[tuple[int, int], list[int]] = {}
    for i, (u, v, _) in enumerate(g.edges):
        index.setdefault((u, v), []).append(i)
    out: set[int] = set()
    for cyc in cycles:
        m = len(cyc)
        for j in range(m):
            a, b = cyc[j], cyc[(j + 1) % m]
            key = (min(a, b), max(a, b))
            if key not in index:
                raise ValueError(f"cycle edge {key} not in graph")
            out.add(index[key][0])
    return out
