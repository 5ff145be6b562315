"""Shared fixtures: the naive expansion oracle and the generator zoo.

The oracle below multiplies the linear factors term by term into a plain
dict, with no pruning, no state merging, and no shared code with the
production engines; it is the ground truth every frozen value in the
suite was computed from.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from graphpoly.graphs import (
    DIFF,
    SignedMultigraph,
    build_complete,
    build_cycle,
    build_cycle_power,
    build_digon,
    build_path,
    double_edges,
    make_graph,
)
from graphpoly.graphio import parse_graph_spec


def expand_polynomial(g: SignedMultigraph) -> dict[tuple[int, ...], int]:
    """Full expansion of the graph polynomial (test oracle, <= ~16 edges)."""
    poly: dict[tuple[int, ...], int] = {(0,) * g.n: 1}
    for u, v, tag in g.edges:
        nxt: dict[tuple[int, ...], int] = {}
        for expo, c in poly.items():
            e_hi = list(expo)
            e_hi[v - 1] += 1
            k_hi = tuple(e_hi)
            nxt[k_hi] = nxt.get(k_hi, 0) + c
            e_lo = list(expo)
            e_lo[u - 1] += 1
            k_lo = tuple(e_lo)
            s = -c if tag == DIFF else c
            nxt[k_lo] = nxt.get(k_lo, 0) + s
        poly = {k: c for k, c in nxt.items() if c}
    return poly


def block_entries(s: int, block) -> dict[tuple[int, int], int]:
    """The nonzero entries {(row, col): value} of a transfer-matrix block on
    the subsets of size s, read from its dense form."""
    assert block.s == s
    dense = block.dense()
    rows, cols = np.nonzero(dense)
    return {(i, j): int(dense[i, j]) for i, j in zip(rows.tolist(), cols.tolist())}


def phi_entry(phi, s_mask: int, t_mask: int) -> int:
    """Phi(S, T) = (-1)^|S| [x^(a + 1_T - 1_S)] Q, read from the decoded scan entries."""
    xi = tuple(x + (t_mask >> i & 1) - (s_mask >> i & 1) for i, x in enumerate(phi.a))
    return (-1) ** s_mask.bit_count() * phi.scan.entries.get(xi, 0)


def random_simple_graph(rng: random.Random, n: int, m: int) -> SignedMultigraph:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    return make_graph(n, pairs[:m])


def even_degree_zoo(max_edges: int = 12) -> list[tuple[str, SignedMultigraph]]:
    """Generator-built graphs with all degrees even and <= max_edges edges."""
    zoo: list[tuple[str, SignedMultigraph]] = [("digon", build_digon())]
    for n in range(3, 13):
        g = build_cycle(n)
        if g.num_edges <= max_edges:
            zoo.append((f"C{n}", g))
    for n, p in [(5, 2), (6, 2), (7, 3)]:
        g = build_cycle_power(n, p)
        if g.num_edges <= max_edges:
            zoo.append((f"C{n}^{p}", g))
    for k in range(2, 7):
        g = double_edges(build_path(k))
        if g.num_edges <= max_edges:
            zoo.append((f"2*P{k}", g))
    for n in range(3, 7):
        g = double_edges(build_cycle(n))
        if g.num_edges <= max_edges:
            zoo.append((f"2*C{n}", g))
    k5 = build_complete(5)
    if k5.num_edges <= max_edges:
        zoo.append(("K5", k5))
    # triangle with one edge tripled: degrees (4, 4, 2)
    tri = build_cycle(3)
    zoo.append(("K3+e12x3", make_graph(3, list(tri.edges) + [(1, 2), (1, 2)])))
    zoo.append(("edgeless3", make_graph(3, [])))
    return zoo


def alon_tarsi_zoo() -> list[SignedMultigraph]:
    """even_degree_zoo(12) and four odd-degree graphs, each cheap to search for its exact AT."""
    specs = ("complete:4", "petersen", "product:cycle:3:cycle:3", "cyclepower:7:2")
    return [g for _, g in even_degree_zoo(12)] + [parse_graph_spec(s) for s in specs]


@pytest.fixture(scope="session")
def zoo12():
    return even_degree_zoo(12)


@pytest.fixture(scope="session")
def zoo8():
    return [(name, g) for name, g in even_degree_zoo(8)]
