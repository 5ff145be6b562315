"""Ground-truth list coloring, exhaustive choosability, and stress harnesses.

These oracles exist to validate the certificate pipelines at desk scale:
a coefficient certificate claims f-choosability, and this module can
either confirm it against every list assignment from a finite universe
(tiny graphs) or hammer it with seeded random assignments (anything
larger).  The list coloring is MRV backtracking whose remaining-value
counts are updated incrementally, per list color and neighbour, as
vertices are colored and uncolored.  Sweeps and stress trials need only
a yes or no, so they hold their assignments as rows of one integer array,
LIST_COLOR_CAP colors at a time, color them greedily in one vectorised
pass, and run MRV only on the rows where that fails; sweeps skip what color
relabelling makes redundant.  Stress lists come from Floyd's algorithm
on numpy's PCG64 generator seeded with |seed|.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from ._numpy import np
from .certificates import encode_int, finalize_certificate
from .coefficients import alon_tarsi_number_exact, support
from .errors import BudgetExceededError
from .graphs import SignedMultigraph, degeneracy_order
from .graphio import graph_digest, graph_fields
from .limits import DEFAULT_ASSIGNMENT_BUDGET, LIST_COLOR_CAP

ListAssignment = Sequence[Sequence[int]]


def list_coloring_exists(
    g: SignedMultigraph, lists: ListAssignment
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Proper coloring from per-vertex lists, via MRV backtracking.

    Vertices are colored in minimum-remaining-values order with
    lowest-index tie-breaking, colors in ascending order, so the witness
    coloring is deterministic.  The remaining values are kept up to date,
    as in DSATUR: each vertex counts, per list color, its colored
    neighbours holding that color, so coloring or uncoloring a vertex
    updates only its neighbours.
    """
    if len(lists) != g.n:
        raise ValueError("one color list per vertex required")
    lists = [sorted(set(l)) for l in lists]
    if any(not l for l in lists):
        raise ValueError("empty color list")
    return _mrv_coloring(g.adjacency(), lists)


def _mrv_coloring(
    adj: list[list[int]], lists: ListAssignment
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """`list_coloring_exists` on nonempty ascending lists without repeats."""
    n = len(lists)
    held = [{}] + [dict.fromkeys(l, 0) for l in lists]  # list color -> colored neighbours with it
    free = [0] + [len(l) for l in lists]  # list colors no colored neighbour holds
    parked = 1 + max(map(len, lists), default=0)  # added to free[v] while v is colored
    coloring: list[Optional[int]] = [None] * (n + 1)

    def paint(v: int, c: int, step: int) -> None:
        # step 1 colors v with c, step -1 takes c off v again
        for w in adj[v]:
            k = held[w].get(c)
            if k is not None:
                held[w][c] = k + step
                if k == 0 or k + step == 0:  # c became taken or free at w
                    free[w] -= step

    stack: list[tuple[int, Iterator[int]]] = []  # per colored vertex: colors left to try
    while len(stack) < n:
        v = min(range(1, n + 1), key=free.__getitem__)
        stack.append((v, iter([c for c, k in held[v].items() if not k])))
        free[v] += parked
        # the deepest vertex with a color left takes it; exhausted ones are undone
        while stack:
            v, colors = stack[-1]
            if coloring[v] is not None:
                paint(v, coloring[v], -1)
            c = coloring[v] = next(colors, None)
            if c is not None:
                paint(v, c, 1)
                break
            stack.pop()
            free[v] -= parked
        else:
            return False, None
    return True, tuple(coloring[1:])


def _random_lists(rng: np.random.Generator, f: Sequence[int], u: int, trials: int) -> np.ndarray:
    """trials rows of random lists, each vertex's list f_v distinct colors of 1..u, ascending, in
    the row's columns sum(f[:v-1]) to sum(f[:v]) - 1.

    Floyd's algorithm draws list v: for j = u - f_v + 1 .. u it takes t_j uniform in 1..j, and
    keeps it unless the list holds it already, when it keeps j.  Every t is drawn up front, row
    by row, so the stream does not depend on how trials are split.  t_j is held already iff an
    earlier step drew it, or t_j is an earlier j whose t was held; that chain of held t's runs to
    smaller j, and is followed for every column at once by pointer jumping.
    """
    f = np.asarray(f, dtype=np.int64)
    owner = np.repeat(np.arange(f.size), f)  # the vertex, from 0, of each column
    place = np.arange(owner.size) - np.repeat(np.cumsum(f) - f, f)  # the column's place in its list
    low = u - f[owner] + 1  # its list's first j
    top = low + place  # the column's j
    t = rng.integers(1, top + 1, size=(trials, owner.size))
    head = np.arange(t.size).reshape(t.shape) - place  # flat index of each entry's list start
    shift = (np.arange(trials)[:, None] * f.size + owner) * (u + 1)  # sorts by row, list, then color
    key = (shift + t).ravel()
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(t.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    link = (head + np.where((t >= low) & (t < top), t - low, place)).ravel()
    for _ in range(int(f.max() - 1).bit_length()):
        repeat |= repeat[link]
        link = link[link]
    return np.sort(shift + np.where(repeat.reshape(t.shape), top, t), axis=None).reshape(t.shape) - shift


def _greedy_rows(adj: list[list[int]], f: Sequence[int], rows: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Per row of lists laid out as _random_lists lays them: True if coloring the vertices in
    the given order, each with its lowest list color that no neighbour colored before it holds,
    colors every vertex; False decides nothing."""
    color = np.zeros((len(rows), len(adj)), dtype=rows.dtype)  # column v: vertex v's color
    fits = np.ones(len(rows), dtype=bool)
    every = np.arange(len(rows))
    starts = [0, *itertools.accumulate(f)]
    colored = [False] * len(adj)
    for v in order:
        lists = rows[:, starts[v - 1]:starts[v]]
        earlier = [w for w in adj[v] if colored[w]]
        colored[v] = True
        free = (lists[:, :, None] != color[:, None, earlier]).all(axis=2)
        first = free.argmax(axis=1)
        fits &= free[every, first]
        color[:, v] = lists[every, first]
    return fits


def _uncolorable_rows(
    adj: list[list[int]], f: Sequence[int], rows: np.ndarray, order: Sequence[int]
) -> Iterator[tuple[int, list[list[int]]]]:
    """The index and lists of each row, in row order, that admits no coloring: the batched
    greedy colors most rows in the given order, and MRV decides the rest."""
    ends = list(itertools.accumulate(f))
    for i in np.flatnonzero(~_greedy_rows(adj, f, rows, order)).tolist():
        row = rows[i].tolist()
        lists = [row[b - k:b] for k, b in zip(f, ends)]
        if not _mrv_coloring(adj, lists)[0]:
            yield i, lists


def default_universe(f: Sequence[int]) -> int:
    """Default color universe for sweeps: min(sum f, 2 max f).

    A universe of sum(f) colors is exact (any failing assignment can be
    relabeled into it, since only list intersections matter); the smaller
    default is a documented compromise that keeps tiny sweeps tiny and is
    adequate for the standard graphs exercised here.  Confirmations from a
    smaller universe are heuristic; refutations are always sound.
    """
    return min(sum(f), 2 * max(f))


def _list_sizes(g: SignedMultigraph, f: Sequence[int], universe_size: Optional[int]) -> tuple[list[int], int]:
    """f as ints and the universe size, each checked, with the lists' colors under LIST_COLOR_CAP."""
    f = [int(x) for x in f]
    if len(f) != g.n or any(x < 1 for x in f):
        raise ValueError("list sizes must be positive, one per vertex")
    u = default_universe(f) if universe_size is None else int(universe_size)
    if u < max(f):
        raise ValueError("universe smaller than the largest list size")
    if max(u, sum(f)) > LIST_COLOR_CAP:
        raise ValueError(f"lists of {sum(f)} colors from a universe of {u} refused "
                         f"(cap {LIST_COLOR_CAP} colors)")
    return f, u


def find_uncolorable_assignment(
    g: SignedMultigraph,
    f: Sequence[int],
    universe_size: Optional[int] = None,
    *,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """First list assignment with sizes f admitting no proper coloring.

    Walks the assignments with lists drawn from {1..universe} in
    lexicographic order; returns None if all are colorable.  Their number,
    the product of C(u, f_v), is counted against the budget first.  As
    relabelling colors keeps colorability, the first uncolorable assignment
    is least in its orbit: vertex 1 holds 1..f_1, vertex 2 holds 1..j and
    then f_1 + 1 .. f_1 + f_2 - j.  Only such lists are walked there.
    """
    f, u = _list_sizes(g, f, universe_size)
    total = 1
    for k in f:
        # times C(u, i) / C(u, i - 1) >= 1 for i <= u/2: the count so far never falls
        for i in range(1, min(k, u - k) + 1):
            total = total * (u - i + 1) // i
            if total > budget:
                raise BudgetExceededError(budget, total, "list assignments")
    a = f[0]
    lead = [[tuple(range(1, a + 1))]]
    for b in f[1:2]:  # vertex 2: 1..j, then a + 1 .. a + b - j; falling j gives rising lists
        lead.append([tuple(range(1, j + 1)) + tuple(range(a + 1, a + b - j + 1))
                     for j in range(min(a, b), max(0, a + b - u) - 1, -1)])
    per_vertex = [np.array(lists, dtype=np.int64) for lists in
                  lead + [list(itertools.combinations(range(1, u + 1), k)) for k in f[len(lead):]]]
    shape = [len(lists) for lists in per_vertex]
    walked = math.prod(shape)
    adj = g.adjacency()
    order = degeneracy_order(g)[1][::-1]  # smallest-last: few neighbours colored before each vertex
    first, step = 0, 1
    while first < walked:
        # the product's assignments first .. first + step - 1, in order, one row each; chunks
        # double up to LIST_COLOR_CAP colors, so an early refutation builds few rows
        picks = np.unravel_index(np.arange(first, min(first + step, walked)), shape)
        rows = np.concatenate([lists[i] for lists, i in zip(per_vertex, picks)], axis=1)
        for _, lists in _uncolorable_rows(adj, f, rows, order):
            return tuple(map(tuple, lists))
        first, step = first + step, min(2 * step, LIST_COLOR_CAP // sum(f))
    return None


def _coefficient_certificate(
    g: SignedMultigraph, witness: Sequence[int], value: int, claim: str, f: Sequence[int]
) -> dict:
    """The coefficient certificate of a nonzero witness, with at_bound = max(witness) + 1."""
    cert = {
        "kind": "coefficient",
        **graph_fields(g),
        "witness_exponent": list(witness),
        "witness_value": encode_int(value),
        "claim": claim,
        "f": list(f),
        "at_bound": max(witness, default=0) + 1,
    }
    return finalize_certificate(cert, g)


def coefficient_choosability_certificate(
    g: SignedMultigraph,
    f: Sequence[int],
    *,
    budget: Optional[int] = None,
) -> Optional[dict]:
    """Nonzero-coefficient certificate for f-choosability, or None.

    Searches the support for an exponent with d_i <= f_i - 1; by the
    Combinatorial Nullstellensatz such a monomial forces a proper coloring
    from any lists of sizes f.  Where sum(f - 1) < |E| no exponent reaches
    total degree |E|, and support's degree-sum cut answers without a DP.
    """
    f = [int(x) for x in f]
    if len(f) != g.n or any(x < 1 for x in f):
        raise ValueError("list sizes must be positive, one per vertex")
    deg = g.degree_vector()
    cap = tuple(min(x - 1, d) for x, d in zip(f, deg))
    found = support(g, cap, budget=budget).witness()
    if found is None:
        return None
    return _coefficient_certificate(g, *found, "f-choosable", f)


def at_certificate_exact(g: SignedMultigraph, *, budget: Optional[int] = None) -> dict:
    """Exhaustive-scan certificate for the exact Alon-Tarsi number k: its witness's
    largest exponent is k - 1, so at_bound is k."""
    k, witness, value = alon_tarsi_number_exact(g, budget=budget)
    return _coefficient_certificate(g, witness, value, "alon-tarsi-exact", [k] * g.n)


def random_list_stress(
    g: SignedMultigraph,
    f: Sequence[int],
    trials: int,
    seed: int,
    universe_size: Optional[int] = None,
) -> dict:
    """Sample random list assignments and report any uncolorable ones.

    The lists come from Floyd's algorithm on numpy's PCG64 generator seeded with |seed|, and
    the seed is recorded, so a reported failure is replayable; the lists that versions before
    this sampler drew with Python's random module are not.  Trials are drawn and greedily
    colored LIST_COLOR_CAP colors at a time, smallest-last (the reverse of the degeneracy
    order), and MRV decides the trials the greedy misses, in trial order, so the report does
    not depend on the greedy's order.  Against a held coefficient certificate any failure is
    a soundness bug, not a statistical event.
    """
    f, u = _list_sizes(g, f, universe_size)
    trials = int(trials)
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    rng = np.random.default_rng(abs(int(seed)))
    adj = g.adjacency()
    order = degeneracy_order(g)[1][::-1]  # smallest-last: few neighbours colored before each vertex
    step = LIST_COLOR_CAP // sum(f)
    failures = []
    for first in range(0, trials, step):
        rows = _random_lists(rng, f, u, min(step, trials - first))
        failures += [{"trial": first + i, "lists": lists} for i, lists in _uncolorable_rows(adj, f, rows, order)]
    return {
        "graph_digest": graph_digest(g),
        "f": list(f),
        "trials": trials,
        "seed": int(seed),
        "universe": u,
        "failures": failures,
    }
