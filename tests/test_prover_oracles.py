"""The array chess construction, the pruned greedy-first sweep, the batched greedy, Floyd's
sampler and the stress loop, the enumeration engine, the two-pass odd-cycle test and the outdegrees,
the one-scan exact Alon-Tarsi certificate, the f-plan sign search and the heap degeneracy order
against their plain forms in reference_provers."""

import functools
import itertools
import random
from fractions import Fraction
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpoly.choosability as choosability
import graphpoly.doubling as doubling
import reference_provers
from conftest import alon_tarsi_zoo, even_degree_zoo
from graphpoly.coefficients import _coefficient_enumeration, central_exponent, support
from graphpoly.errors import BudgetExceededError
from graphpoly.graphio import canonical_json, parse_graph_spec
from graphpoly.graphs import (
    DIFF, SUM, build_complete, build_cycle, build_path, cartesian_product, degeneracy_order, make_graph,
)
from graphpoly.orientations import (
    Orientation, has_odd_directed_cycle, odd_cycle_product_orientation, orientation_from_bitstring,
)


def _admissible(factors, max_vertices, ordered=True):
    """Every ks with sum 1/k_i <= 1 whose product of cycles has at most max_vertices vertices."""
    def grow(ks, room):
        if len(ks) == factors:
            if sum(Fraction(1, k) for k in ks) <= 1:
                yield tuple(ks)
            return
        k = 1 if ordered or not ks else ks[-1]
        while (2 * k + 1) * 3 ** (factors - len(ks) - 1) <= room:
            yield from grow(ks + [k], room // (2 * k + 1))
            k += 1
    return list(grow([], max_vertices))


# Every ordering up to 300 vertices (and every 3-factor one up to 500), every sorted 3-factor
# one up to 1000, and one product past 10^4 vertices with all eight box shapes.
CHESS_CASES = (_admissible(1, 300) + _admissible(2, 300) + _admissible(3, 500)
               + [ks for ks in _admissible(3, 1000, ordered=False) if prod(2 * k + 1 for k in ks) > 500]
               + [(2, 3, 143)])


def test_chess_cases_cover_every_shape_family():
    assert len(CHESS_CASES) == 149 + 149 + 19 + 30 + 1
    assert {(1,), (2, 2), (3, 3, 3), (2, 3, 6), (2, 4, 4), (2, 3, 7), (4, 4, 4)} <= set(CHESS_CASES)


@pytest.mark.parametrize("ks", CHESS_CASES, ids=lambda ks: ",".join(map(str, ks)))
def test_chess_construction_matches_the_per_edge_scan(ks):
    new = odd_cycle_product_orientation(ks)
    ref = reference_provers.odd_cycle_product_orientation(ks)
    assert new.graph == ref.graph
    assert new.bitstring() == ref.bitstring()


SWEEP_GRAPHS = {
    **{f"C{n}": build_cycle(n) for n in (3, 4, 5, 6)},
    "K4": build_complete(4),
    "C3xC3": cartesian_product(build_cycle(3), build_cycle(3)),
    "P1": build_path(1),
    "P2": build_path(2),
    "P4": build_path(4),
    "K23": make_graph(5, [(a, b) for a in (1, 2) for b in (3, 4, 5)]),
    "K33": make_graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
}


def _sweep_cases():
    """(graph, f, universe) with at most 20,000 assignments, so the unpruned sweep stays cheap."""
    for name, g in SWEEP_GRAPHS.items():
        for f in [(2,) * g.n, (3,) * g.n, (2, 3, 1, 2, 3, 2, 1, 3, 2)[:g.n],
                  (3, 2, 2, 1, 3, 3, 2, 2, 3)[:g.n], (2, 2, 1, 2, 2, 2, 2, 2, 2)[:g.n]]:
            for u in (None, max(f), max(f) + 1, sum(f)):
                count = prod(comb(choosability.default_universe(f) if u is None else u, k) for k in f)
                if count <= 20_000:
                    yield pytest.param(g, f, u, id=f"{name}-{''.join(map(str, f))}-u{u}")


@pytest.mark.parametrize("g, f, u", list(_sweep_cases()))
def test_pruned_sweep_finds_the_first_uncolorable_assignment(g, f, u):
    assert choosability.find_uncolorable_assignment(g, f, u) == reference_provers.find_uncolorable_assignment(g, f, u)


@pytest.mark.parametrize("graph, f, u, lists", [
    ("K33", (2,) * 6, 3, ((1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3))),
    ("K23", (1, 2, 2, 2, 2), 3, ((1,), (2, 3), (1, 2), (1, 2), (1, 3))),  # j = 0
    ("K23", (2, 3, 1, 2, 2), 4, ((1, 2), (1, 3, 4), (1,), (2, 3), (2, 4))),  # j = 1
    ("K23", (3, 3, 1, 1, 2), 4, ((1, 2, 3), (1, 2, 4), (1,), (2,), (3, 4))),  # j = 2 > 0 forced
    ("C4", (2, 2, 1, 2), 3, ((1, 2), (1, 3), (3,), (2, 3))),
])
def test_refutations_found_among_the_pruned_lists_of_vertex_2(graph, f, u, lists):
    g = SWEEP_GRAPHS[graph]
    assert choosability.find_uncolorable_assignment(g, f, u) == lists
    assert not choosability.list_coloring_exists(g, lists)[0]


def test_sweep_without_vertices_refuses_like_the_unpruned_one():
    g = make_graph(0, [])
    for u in (None, 3):
        with pytest.raises(ValueError) as new:
            choosability.find_uncolorable_assignment(g, [], u)
        with pytest.raises(ValueError) as ref:
            reference_provers.find_uncolorable_assignment(g, [], u)
        assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("f, u, walked", [
    ((2, 2, 2, 2), 4, 1 * 3 * 6 * 6),  # vertex 2: (1, 2), (1, 3), (3, 4)
    ((2, 3, 2, 2), 4, 1 * 2 * 6 * 6),  # vertex 2: (1, 2, 3), (1, 3, 4)
    ((3, 2, 2, 2), 3, 1 * 1 * 3 * 3),  # vertex 2: (1, 2) only, as 3 + 2 > 3 + 1
    ((1, 3, 2, 2), 5, 1 * 2 * 10 * 10),  # vertex 2: (1, 2, 3), (2, 3, 4)
])
def test_sweep_walks_only_the_least_lists_of_each_orbit(f, u, walked):
    # C4 is 2-choosable, so these sweeps walk every pruned assignment, each a row of one greedy pass
    g = build_cycle(4)
    with mock.patch.object(choosability, "_greedy_rows", wraps=choosability._greedy_rows) as greedy:
        assert choosability.find_uncolorable_assignment(g, f, u) is None
    assert sum(len(call.args[2]) for call in greedy.call_args_list) == walked


def _rows(f, ends, rows):
    """Each row of a sampler's array as its per-vertex lists."""
    return [[row[b - k:b] for k, b in zip(f, ends)] for row in rows.tolist()]


_AT_ZOO = alon_tarsi_zoo()


@st.composite
def _zoo_lists(draw):
    """A relabelled alon_tarsi_zoo graph, ragged list sizes in 1..4, a universe from max f
    to 3 max f and a sampler seed."""
    g = _AT_ZOO[draw(st.integers(0, len(_AT_ZOO) - 1))]
    perm = draw(st.permutations(range(1, g.n + 1)))
    h = make_graph(g.n, [(perm[u - 1], perm[v - 1], tag) for u, v, tag in g.edges])
    f = draw(st.lists(st.integers(1, 4), min_size=h.n, max_size=h.n))
    return h, f, draw(st.integers(max(f), 3 * max(f))), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_zoo_lists(), st.sampled_from(["label", "smallest-last"]))
def test_batched_greedy_matches_the_one_assignment_greedy(case, order):
    g, f, u, seed = case
    order = range(1, g.n + 1) if order == "label" else reference_provers.degeneracy_order(g)[1][::-1]
    rows = choosability._random_lists(np.random.default_rng(seed), f, u, 40)
    verdicts = choosability._greedy_rows(g.adjacency(), f, rows, order)
    lists = _rows(f, list(itertools.accumulate(f)), rows)
    assert verdicts.tolist() == [reference_provers._greedy_colors(g.adjacency(), a, order) for a in lists]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(0, 20),
       st.integers(0, 2**64), st.integers(0, 30))
def test_sampler_matches_floyd_with_a_set_per_list(f, extra, seed, trials):
    u = max(f) + extra
    rows = choosability._random_lists(np.random.default_rng(seed), f, u, trials)
    assert rows.shape == (trials, sum(f))
    lists = _rows(f, list(itertools.accumulate(f)), rows)
    assert lists == list(reference_provers.floyd_lists(seed, f, u, trials))
    # every list: f_v distinct colors of 1..u, ascending
    assert all(len(l) == k and l == sorted(set(l)) and 1 <= l[0] and l[-1] <= u
               for a in lists for l, k in zip(a, f))


def test_sampler_draws_every_subset_about_equally_often():
    # 10^5 draws of 2 of 5 colors: each of the 10 subsets expects 10^4 (sd 95), kept within 4%
    rows = choosability._random_lists(np.random.default_rng(2024), [2], 5, 10**5)
    subsets, counts = np.unique(rows, axis=0, return_counts=True)
    assert subsets.tolist() == [list(c) for c in itertools.combinations(range(1, 6), 2)]
    assert abs(counts - 10**4).max() <= 400


def test_stress_over_several_chunks_matches_one_chunk():
    # a cap of 40 colors holds two trials of C3xC3 with 2-lists, so 301 trials take 151 chunks
    g = parse_graph_spec("product:cycle:3:cycle:3")
    whole = choosability.random_list_stress(g, [2] * 9, 301, 5)
    with mock.patch.object(choosability, "LIST_COLOR_CAP", 40):
        with mock.patch.object(choosability, "_random_lists", wraps=choosability._random_lists) as drawn:
            chunked = choosability.random_list_stress(g, [2] * 9, 301, 5)
            assert chunked == choosability.random_list_stress(g, [2] * 9, 301, 5)
    assert drawn.call_count == 2 * 151
    assert chunked == whole and whole["failures"]


@pytest.mark.parametrize("spec, f, trials, seed, u", [
    ("product:cycle:3:cycle:3", 2, 500, 1, None),
    ("cycle:3", 2, 300, 11, None),
    ("cycle:3", 3, 1000, 1, None),
    ("cycle:5", 2, 200, 3, 3),
    ("petersen", 3, 300, 2, None),
    ("petersen", 2, 200, 5, 3),
    ("product:cycle:4:cycle:4", 3, 200, 4, None),
    ("complete:4", (3, 3, 4, 2), 300, 7, 5),
])
def test_stress_reports_match_the_mrv_only_loop(spec, f, trials, seed, u):
    g = parse_graph_spec(spec)
    f = [f] * g.n if isinstance(f, int) else list(f)
    report = choosability.random_list_stress(g, f, trials, seed, u)
    assert report == reference_provers.random_list_stress(g, f, trials, seed, u)
    if (spec, seed) == ("product:cycle:3:cycle:3", 1):
        assert len(report["failures"]) == 175
    failed = {r["trial"]: r["lists"] for r in report["failures"]}
    rows = choosability._random_lists(np.random.default_rng(seed), f, report["universe"], trials)
    for t, lists in enumerate(_rows(f, list(itertools.accumulate(f)), rows)):
        assert choosability.list_coloring_exists(g, lists)[0] == (t not in failed)
        assert failed.get(t, lists) == lists


@pytest.mark.parametrize("spec, xi", [
    ("petersen", (0, 1, 1, 2, 2, 2, 1, 2, 2, 2)),
    ("complete:5", None),
    ("product:cycle:3:cycle:3", None),
    ("cyclepower:9:2", None),
    ("cyclepower:10:2", None),
])
def test_enumeration_trips_its_budget_at_the_reference_node_count(spec, xi):
    g = parse_graph_spec(spec)
    xi = central_exponent(g) if xi is None else xi
    value, nodes = reference_provers.enumeration_nodes(g, xi)
    assert _coefficient_enumeration(g, xi, nodes) == value
    with pytest.raises(BudgetExceededError):
        _coefficient_enumeration(g, xi, nodes - 1)


def test_odd_cycle_test_matches_tarjan_on_seeded_orientations_of_the_zoo():
    zoo = [g for _, g in even_degree_zoo(21)]
    rng = random.Random(16)
    answers = []
    for i in range(5000):
        g = zoo[i % len(zoo)]
        ori = Orientation(g, tuple(rng.random() < 0.5 for _ in range(g.num_edges)))
        answers.append(has_odd_directed_cycle(ori))
        assert answers[-1] == reference_provers.has_odd_directed_cycle(ori), (g, ori.bitstring())
    assert 0.2 * len(answers) <= sum(answers) <= 0.8 * len(answers)


@pytest.mark.parametrize("ks", [ks for ks in CHESS_CASES if prod(2 * k + 1 for k in ks) <= 300] + [(12, 12, 12)],
                         ids=lambda ks: ",".join(map(str, ks)))
def test_odd_cycle_test_matches_tarjan_on_chess_orientations(ks):
    ori = odd_cycle_product_orientation(ks)
    assert has_odd_directed_cycle(ori) is reference_provers.has_odd_directed_cycle(ori) is False


_chess = functools.cache(odd_cycle_product_orientation)


@st.composite
def _orientations(draw):
    """An orientation of a random multigraph, with parallel edges and, where the edges miss some
    vertices, several components, or a chess torus with a drawn set of its edges reversed."""
    if draw(st.booleans()):
        ori = _chess(draw(st.sampled_from([ks for ks in CHESS_CASES if prod(2 * k + 1 for k in ks) <= 200])))
        flips = draw(st.sets(st.integers(0, ori.graph.num_edges - 1), max_size=12))
        return Orientation(ori.graph, tuple(d ^ (i in flips) for i, d in enumerate(ori.directions)))
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    g = make_graph(n, draw(st.lists(pairs, min_size=n, max_size=24)) if n > 1 else [])
    return Orientation(g, tuple(draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_orientations())
def test_odd_cycle_test_and_outdegrees_match_their_plain_forms(ori):
    assert has_odd_directed_cycle(ori) == reference_provers.has_odd_directed_cycle(ori)
    tails = [t for t, _ in ori.arcs()]
    assert ori.outdegree_vector() == tuple(tails.count(v) for v in range(1, ori.graph.n + 1))
    assert orientation_from_bitstring(ori.graph, ori.bitstring()) == ori


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))).filter(lambda e: e[0] != e[1])
    return make_graph(n, draw(st.lists(pairs, max_size=30)) if n > 1 else [])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_multigraphs())
def test_degeneracy_order_matches_the_scan_of_every_live_vertex(g):
    assert degeneracy_order(g) == reference_provers.degeneracy_order(g)


def _at_exact_graphs():
    """alon_tarsi_zoo and two seeded relabellings of each graph with random SUM/DIFF tags."""
    graphs = alon_tarsi_zoo()
    rng = random.Random(16)
    for g in list(graphs):
        for _ in range(2):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            graphs.append(make_graph(g.n, [(perm[u - 1], perm[v - 1], rng.choice((SUM, DIFF)))
                                           for u, v, _ in g.edges]))
    return graphs


def test_at_certificate_exact_matches_the_two_dp_certificate_byte_for_byte():
    for g in _at_exact_graphs():
        new = canonical_json(choosability.at_certificate_exact(g))
        assert new == canonical_json(reference_provers.at_certificate_exact(g)), g


def _plan_graphs():
    """even_degree_zoo(10), K4 and seeded multigraphs with SUM/DIFF tags, where odd degrees give half parts."""
    graphs = [g for _, g in even_degree_zoo(10)] + [build_complete(4)]
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(2, 6)
        graphs.append(make_graph(n, [(*rng.sample(range(1, n + 1), 2), rng.choice((SUM, DIFF)))
                                     for _ in range(rng.randint(1, 9))]))
    return graphs


def test_plans_match_the_doubled_size_plan_on_every_support_element():
    parts = set()
    for g in _plan_graphs():
        for tau, _ in support(g, g.degree_vector()).sorted_items():
            new, old = doubling.build_plan(g, tau), reference_provers.build_plan(g, tau)
            assert canonical_json(new.as_json()) == canonical_json(old.as_json()), (g.edges, tau)
            assert doubling.epsilon_search(new)["digest"] == doubling.epsilon_search(old)["digest"]
            parts |= {k for k in ("below", "half_below", "spill_below", "spill_above") if getattr(new, k)}
    assert parts == {"below", "half_below", "spill_below", "spill_above"}


# the coeff workload's central plans, then the CLI rows that pair vertices
_FPLAN_CASES = [(f"product:cycle:{a}:cycle:6", None) for a in (4, 5, 6)] + [
    ("complete:4", (0, 1, 2, 3)),
    ("complete:4", (1, 0, 2, 3)),
    ("petersen", (0, 1, 1, 1, 3, 1, 2, 2, 2, 2)),
    ("cyclepower:7:2", (0, 1, 2, 2, 3, 4, 2)),
]


@pytest.mark.parametrize("spec,tau", _FPLAN_CASES, ids=[f"{s}:{t}" for s, t in _FPLAN_CASES])
def test_fplan_certificates_match_the_one_dp_per_sign_search_byte_for_byte(spec, tau):
    g = parse_graph_spec(spec)
    plan = doubling.build_plan(g, tau or central_exponent(g))
    assert (plan.m == 0) is (tau is None)
    new = canonical_json(doubling.epsilon_search(plan))
    assert new == canonical_json(reference_provers.epsilon_search(plan))


def test_a_central_plan_searches_its_signs_without_a_dp():
    g = parse_graph_spec("product:cycle:4:cycle:6")
    central = doubling.build_plan(g, central_exponent(g))
    paired = doubling.build_plan(build_complete(4), (0, 1, 2, 3))
    with mock.patch.object(doubling, "coefficient", wraps=doubling.coefficient) as spy:
        doubling.epsilon_search(central)
        assert spy.call_count == 0
        doubling.epsilon_search(paired)
        assert spy.call_count >= 1
