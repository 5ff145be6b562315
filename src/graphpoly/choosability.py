"""Ground-truth list coloring, exhaustive choosability, and stress harnesses.

These oracles exist to validate the certificate pipelines at desk scale:
a coefficient certificate claims f-choosability, and this module can
either confirm it against every list assignment from a finite universe
(tiny graphs) or hammer it with seeded random assignments (anything
larger).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from .certificates import encode_int, finalize_certificate
from .coefficients import support
from .errors import BudgetExceededError
from .graphs import SignedMultigraph, coloring_number
from .graphio import graph_digest, to_json_obj
from .limits import DEFAULT_ASSIGNMENT_BUDGET

ListAssignment = Sequence[Sequence[int]]


def list_coloring_exists(
    g: SignedMultigraph, lists: ListAssignment
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Proper coloring from per-vertex lists, via MRV backtracking.

    Vertices are colored in minimum-remaining-values order with
    lowest-index tie-breaking, colors in ascending order, so the witness
    coloring is deterministic.
    """
    if len(lists) != g.n:
        raise ValueError("one color list per vertex required")
    lists = [sorted(set(l)) for l in lists]
    if any(not l for l in lists):
        raise ValueError("empty color list")
    adj = g.adjacency()
    coloring: dict[int, int] = {}

    def feasible_colors(v: int) -> list[int]:
        used = {coloring[w] for w in adj[v] if w in coloring}
        return [c for c in lists[v - 1] if c not in used]

    stack: list[tuple[int, Iterator[int]]] = []  # per colored vertex: colors left to try
    while True:
        todo = [v for v in range(1, g.n + 1) if v not in coloring]
        if not todo:
            return True, tuple(coloring[v] for v in range(1, g.n + 1))
        v = min(todo, key=lambda x: (len(feasible_colors(x)), x))
        stack.append((v, iter(feasible_colors(v))))
        # the deepest vertex with a color left takes it; exhausted ones are undone
        while stack:
            v, colors = stack[-1]
            c = next(colors, None)
            if c is not None:
                coloring[v] = c
                break
            stack.pop()
            coloring.pop(v, None)
        else:
            return False, None


def default_universe(f: Sequence[int]) -> int:
    """Default color universe for sweeps: min(sum f, 2 max f).

    A universe of sum(f) colors is exact (any failing assignment can be
    relabeled into it, since only list intersections matter); the smaller
    default is a documented compromise that keeps tiny sweeps tiny and is
    adequate for the standard graphs exercised here.  Confirmations from a
    smaller universe are heuristic; refutations are always sound.
    """
    return min(sum(f), 2 * max(f))


def find_uncolorable_assignment(
    g: SignedMultigraph,
    f: Sequence[int],
    universe_size: Optional[int] = None,
    *,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """First list assignment with sizes f admitting no proper coloring.

    Enumerates every assignment with lists drawn from {1..universe}, in
    lexicographic order; returns None if all are colorable.
    """
    f = [int(x) for x in f]
    if len(f) != g.n or any(x < 1 for x in f):
        raise ValueError("list sizes must be positive, one per vertex")
    u = default_universe(f) if universe_size is None else int(universe_size)
    if u < max(f):
        raise ValueError("universe smaller than the largest list size")
    per_vertex = [list(itertools.combinations(range(1, u + 1), k)) for k in f]
    total = 1
    for choices in per_vertex:
        total *= len(choices)
        if total > budget:
            raise BudgetExceededError(budget, total, "list assignments")
    for assignment in itertools.product(*per_vertex):
        ok, _ = list_coloring_exists(g, assignment)
        if not ok:
            return assignment
    return None


def f_choosable_exhaustive(
    g: SignedMultigraph,
    f: Sequence[int],
    universe_size: Optional[int] = None,
    *,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> bool:
    """True iff every assignment with |lists| = f from the universe is colorable."""
    return find_uncolorable_assignment(g, f, universe_size, budget=budget) is None


def choice_number_exact(g: SignedMultigraph, *, budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> int:
    """Smallest m with all m-lists colorable (tiny graphs).

    Sweeps m upward; at m = coloring_number the greedy argument already
    guarantees colorability, so the sweep never runs there.
    """
    col = coloring_number(g)
    for m in range(1, col):
        if f_choosable_exhaustive(g, [m] * g.n, budget=budget):
            return m
    return col


def coefficient_choosability_certificate(
    g: SignedMultigraph,
    f: Sequence[int],
    *,
    budget: Optional[int] = None,
) -> Optional[dict]:
    """Nonzero-coefficient certificate for f-choosability, or None.

    Searches the support for an exponent with d_i <= f_i - 1; by the
    Combinatorial Nullstellensatz such a monomial forces a proper coloring
    from any lists of sizes f.
    """
    f = [int(x) for x in f]
    if len(f) != g.n or any(x < 1 for x in f):
        raise ValueError("list sizes must be positive, one per vertex")
    if sum(x - 1 for x in f) < g.num_edges:
        return None  # no candidate exponent can reach total degree |E|
    deg = g.degree_vector()
    cap = tuple(min(x - 1, d) for x, d in zip(f, deg))
    sup = support(g, cap, budget=budget)
    if not sup.entries:
        return None
    witness = sup.witness()
    cert = {
        "kind": "coefficient",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "witness_exponent": list(witness),
        "witness_value": encode_int(sup.entries[witness]),
        "claim": "f-choosable",
        "f": list(f),
        "at_bound": max(witness) + 1,
    }
    return finalize_certificate(cert)


def at_certificate_exact(g: SignedMultigraph, *, budget: Optional[int] = None) -> dict:
    """Exhaustive-scan certificate for the exact Alon-Tarsi number."""
    from .coefficients import alon_tarsi_number_exact, coefficient

    value, witness = alon_tarsi_number_exact(g, budget=budget)
    cert = {
        "kind": "coefficient",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "witness_exponent": list(witness),
        "witness_value": encode_int(coefficient(g, witness, budget=budget)),
        "claim": "alon-tarsi-exact",
        "f": [value] * g.n,
        "at_bound": value,
    }
    return finalize_certificate(cert)


def product_choosability_bound(ch_g: int, col_g: int, ch_h: int, col_h: int) -> int:
    """Classical product bound: min(ch(G) + col(H), col(G) + ch(H)) - 1."""
    return min(ch_g + col_h, col_g + ch_h) - 1


def random_list_stress(
    g: SignedMultigraph,
    f: Sequence[int],
    trials: int,
    seed: int,
    universe_size: Optional[int] = None,
) -> dict:
    """Sample random list assignments and report any uncolorable ones.

    The PRNG is seeded and the seed is recorded, so a reported failure is
    replayable.  Against a held coefficient certificate any failure is a
    soundness bug, not a statistical event.
    """
    f = [int(x) for x in f]
    if len(f) != g.n or any(x < 1 for x in f):
        raise ValueError("list sizes must be positive, one per vertex")
    u = default_universe(f) if universe_size is None else int(universe_size)
    if u < max(f):
        raise ValueError("universe smaller than the largest list size")
    rng = random.Random(seed)
    colors = list(range(1, u + 1))
    failures = []
    for t in range(int(trials)):
        assignment = tuple(tuple(sorted(rng.sample(colors, k))) for k in f)
        ok, _ = list_coloring_exists(g, assignment)
        if not ok:
            failures.append({"trial": t, "lists": [list(a) for a in assignment]})
    return {
        "graph_digest": graph_digest(g),
        "f": list(f),
        "trials": int(trials),
        "seed": int(seed),
        "universe": u,
        "failures": failures,
    }
