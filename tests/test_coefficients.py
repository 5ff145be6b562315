import random
import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpoly.coefficients as coefficients
from graphpoly.coefficients import (
    almost_central_scan,
    alon_tarsi_number_exact,
    central_exponent,
    coefficient,
    mirror_sign,
    support,
)
from graphpoly.errors import BudgetExceededError
from graphpoly.graphs import (
    SUM,
    build_complete,
    build_cycle_power,
    build_cycle,
    build_path,
    cartesian_product,
    double_edges,
    make_graph,
)

from conftest import expand_polynomial, random_simple_graph

# Canonical expansion of the triangle polynomial
# (x2 - x1)(x3 - x2)(x3 - x1), frozen from the naive oracle.
C3_SUPPORT = {
    (0, 1, 2): 1,
    (0, 2, 1): -1,
    (1, 2, 0): 1,
    (2, 1, 0): -1,
    (2, 0, 1): 1,
    (1, 0, 2): -1,
}


def test_single_edge_coefficients():
    e = build_path(2)
    assert coefficient(e, (0, 1), method="both") == 1
    assert coefficient(e, (1, 0), method="both") == -1


def test_triangle_support_matches_oracle():
    c3 = build_cycle(3)
    assert expand_polynomial(c3) == C3_SUPPORT
    assert support(c3, (2, 2, 2)).entries == C3_SUPPORT
    for xi, value in C3_SUPPORT.items():
        assert coefficient(c3, xi, method="both") == value


def test_triangle_central_vanishes():
    assert coefficient(build_cycle(3), (1, 1, 1), method="both") == 0


def test_c4_central_magnitude():
    # two rotational orientations contribute with the same sign
    assert abs(coefficient(build_cycle(4), (1, 1, 1, 1), method="both")) == 2


def test_homogeneity_zero():
    c3 = build_cycle(3)
    assert coefficient(c3, (1, 1, 0)) == 0
    assert coefficient(c3, (2, 2, 2)) == 0


def test_support_respects_caps():
    c3 = build_cycle(3)
    assert support(c3, (1, 1, 1)).entries == {}
    sup = support(c3, (2, 2, 1))
    assert sup.entries == {k: v for k, v in C3_SUPPORT.items() if k[2] <= 1}
    e = build_path(2)
    sup = support(e, (1, 1))
    assert sup.entries == {(0, 1): 1, (1, 0): -1}
    # the two counts sit in adjacent one-bit fields: at never carries (2, 0) into (0, 1)
    assert sup.at((0, 1)) == 1 and sup.at((2, 0)) == 0


def test_engines_agree_on_generator_families():
    graphs = [build_cycle(n) for n in range(3, 8)]
    graphs += [build_path(k) for k in range(2, 8)]
    graphs.append(build_complete(4))
    for g in graphs:
        oracle = expand_polynomial(g)
        deg = g.degree_vector()
        sup = support(g, deg)
        assert sup.entries == oracle
        for xi in oracle:
            assert coefficient(g, xi, method="both") == oracle[xi]


def test_engines_agree_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(10, n * (n - 1) // 2))
        g = random_simple_graph(rng, n, m)
        oracle = expand_polynomial(g)
        sup = support(g, g.degree_vector())
        assert sup.entries == oracle
        for xi in list(oracle)[:8]:
            assert coefficient(g, xi, method="both") == oracle[xi]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_engines_agree_property(data):
    n = data.draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=8)
    )
    tags = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    g = make_graph(n, [(u, v, SUM if t else "diff") for (u, v), t in zip(edges, tags)])
    oracle = expand_polynomial(g)
    assert support(g, g.degree_vector()).entries == oracle


def mirror_coefficient_check(g, xi):
    """[x^xi]F = (-1)^|E| [x^(deg - xi)]F for a DIFF-only graph (test oracle)."""
    assert g.is_diff_only()
    deg = g.degree_vector()
    if any(x > d for x, d in zip(xi, deg)):
        return coefficient(g, xi) == 0
    mirrored = tuple(d - x for d, x in zip(deg, xi))
    sign = -1 if g.num_edges % 2 else 1
    return coefficient(g, xi) == sign * coefficient(g, mirrored)


def test_mirror_symmetry_across_support():
    for g in [build_cycle(3), build_cycle(4), build_cycle(5), build_complete(4)]:
        sign = -1 if g.num_edges % 2 else 1
        oracle = expand_polynomial(g)
        deg = g.degree_vector()
        for xi, c in oracle.items():
            mirrored = tuple(d - x for d, x in zip(deg, xi))
            assert oracle[mirrored] == sign * c
            assert mirror_coefficient_check(g, xi)


def test_mirror_examples():
    c3 = build_cycle(3)
    assert mirror_coefficient_check(c3, (2, 1, 0))
    assert mirror_coefficient_check(build_cycle(4), (1, 1, 1, 1))
    assert mirror_coefficient_check(build_path(2), (1, 0))


def test_mirror_sign_with_sum_tags():
    # complementing all choices flips the sign once per DIFF factor, so the
    # relation holds with a constant +-1 for any mix of tags
    cases = [
        make_graph(3, [(1, 2), (2, 3, SUM), (1, 3)]),
        make_graph(3, [(1, 2, SUM), (2, 3, SUM), (1, 3, SUM)]),
        make_graph(4, [(1, 2), (1, 2, SUM), (2, 3), (3, 4, SUM), (1, 4)]),
        make_graph(2, [(1, 2), (1, 2, SUM)]),
    ]
    for g in cases:
        oracle = expand_polynomial(g)
        sign = mirror_sign(g)
        diff_count = sum(1 for _, _, tag in g.edges if tag != SUM)
        assert sign == (-1) ** diff_count
        deg = g.degree_vector()
        for xi, c in oracle.items():
            assert oracle[tuple(d - x for d, x in zip(deg, xi))] == sign * c


def test_cycle_support_sizes():
    # non-rotational orientations are injective on exponent vectors
    for n in range(3, 9):
        sup = support(build_cycle(n), (2,) * n)
        total = sum(abs(v) for v in sup.entries.values())
        assert total == 2**n - 2 + (2 if n % 2 == 0 else 0)
    assert len(support(build_cycle(3), (2, 2, 2))) == 6


def test_alon_tarsi_exact():
    assert alon_tarsi_number_exact(build_cycle(4)) == (2, (1, 1, 1, 1), -2)
    value, witness, coef = alon_tarsi_number_exact(build_cycle(3))
    assert value == 3 and C3_SUPPORT[witness] == coef
    assert alon_tarsi_number_exact(build_path(2))[0] == 2
    assert alon_tarsi_number_exact(make_graph(3, []))[0] == 1
    for n in (4, 6, 8):
        assert alon_tarsi_number_exact(build_cycle(n))[0] == 2
    for n in (3, 5, 7):
        assert alon_tarsi_number_exact(build_cycle(n))[0] == 3
    assert alon_tarsi_number_exact(build_complete(4))[0] == 4
    assert alon_tarsi_number_exact(build_complete(5))[0] == 5


def test_exact_at_runs_no_dp_below_the_pigeonhole_cap():
    # caps k - 1 summing to less than |E| are answered by support's degree-sum cut, so the
    # scans that run are exactly those at caps summing to at least |E|, up to the answer
    for g in [build_cycle(4), build_cycle(5), build_path(4), build_complete(5),
              cartesian_product(build_cycle(3), build_cycle(3)), make_graph(4, [(1, 2), (1, 2), (1, 3), (3, 4)])]:
        with mock.patch.object(coefficients, "_scan", wraps=coefficients._scan) as scan:
            k = alon_tarsi_number_exact(g)[0]
        deg = g.degree_vector()
        runs = [j for j in range(1, k + 1) if sum(min(j - 1, d) for d in deg) >= g.num_edges]
        assert scan.call_count == len(runs), g.edges
    for n in (0, 3):
        with mock.patch.object(coefficients, "_scan", wraps=coefficients._scan) as scan:
            assert alon_tarsi_number_exact(make_graph(n, [])) == (1, (0,) * n, 1)
        assert scan.call_count == 1


def test_almost_central_scan():
    c3 = build_cycle(3)
    scan = almost_central_scan(c3)
    assert scan.entries == C3_SUPPORT
    assert scan.entries[(2, 1, 0)] == -1
    c4scan = almost_central_scan(build_cycle(4))
    assert abs(c4scan.entries[(1, 1, 1, 1)]) == 2
    with pytest.raises(ValueError):
        almost_central_scan(build_path(2))  # odd degrees


def test_almost_central_window_is_respected():
    scan = almost_central_scan(build_complete(5))
    assert len(scan) == 0  # every support exponent has max 4 > 2 + 1


def test_central_exponent():
    assert central_exponent(build_cycle(4)) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        central_exponent(build_path(3))


def test_budget_guard_raises():
    g = cartesian_product(build_cycle(3), build_cycle(4))
    with pytest.raises(BudgetExceededError):
        coefficient(g, central_exponent(g), budget=50)
    with pytest.raises(BudgetExceededError):
        support(build_complete(5), (4,) * 5, budget=10)


def test_budget_trips_at_the_same_expansion_count():
    g = cartesian_product(build_cycle_power(10, 2), build_cycle(4))
    with pytest.raises(BudgetExceededError) as info:
        coefficient(g, central_exponent(g), budget=10**6)
    assert info.value.explored == 1053970


# 257 states leaves short, uneven pieces; the budget job's largest layer holds 82,384 states,
# so one less leaves that step a one-state last piece
@pytest.mark.parametrize("piece", [257, 82383])
def test_budget_trips_at_the_same_expansion_count_in_pieces(piece):
    g = cartesian_product(build_cycle_power(10, 2), build_cycle(4))
    with mock.patch.object(coefficients, "DP_PIECE_STATES", piece), \
            mock.patch.object(coefficients, "_edge_step", wraps=coefficients._edge_step) as step, \
            mock.patch.object(coefficients, "_merge", wraps=coefficients._merge) as merge, \
            pytest.raises(BudgetExceededError) as info:
        coefficient(g, central_exponent(g), budget=10**6)
    assert info.value.explored == 1053970
    assert merge.call_count > step.call_count  # some step ran as more than one piece


def test_budget_job_peak_memory_stays_near_two_copies_of_its_largest_layer():
    # the layers before the budget trips peak at 82,384 states; a step that held its halves,
    # their concatenation, its sort order and the gathered copies at once peaked at 6.9 MB
    # (84 bytes per state), one merged a key range at a time at 3.3 MB
    g = cartesian_product(build_cycle_power(10, 2), build_cycle(4))
    xi = central_exponent(g)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            coefficient(g, xi, budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_a_window_whose_caps_sum_to_m_is_one_coefficient():
    # C5 x C7 has m = 70 = 35 * 2: only the central exponent, whose coefficient is 0,
    # fits under caps 2; the whole cap-2 window took 1.5 s and 350 MB before it was cut
    g = cartesian_product(build_cycle(5), build_cycle(7))
    assert len(support(g, (2,) * 35, budget=10**6)) == 0
    assert coefficient(g, central_exponent(g), budget=10**6) == 0


def test_coefficients_past_int64_are_exact():
    # C(70, 35) ~ 1.1e20 > 2^63: the DP must leave int64 before it wraps
    digon = make_graph(2, [(1, 2)] * 70)
    assert coefficient(digon, (35, 35)) == -comb(70, 35)
    # x1^i x2^(70-i) has coefficient (-1)^i C(70, i)
    sup = support(digon, (36, 36), floor=(34, 34))
    assert sup.coef.dtype == object
    assert len(sup) == 3 and sup.witness() == ((34, 36), comb(70, 34))
    assert sup.entries == {(i, 70 - i): (-1) ** i * comb(70, i) for i in (34, 35, 36)}


def test_keys_past_62_bits_are_exact():
    # K_{2,40} with leaves 1..40 and hubs 41, 42; 34 leaves take both of their
    # edges and 6 take one, each hub taking 3 of those 6: (-1)^6 C(6, 3)
    g = make_graph(42, [(leaf, hub) for leaf in range(1, 41) for hub in (41, 42)])
    xi = (2,) * 34 + (1,) * 6 + (3, 3)
    assert coefficient(g, xi) == comb(6, 3)

    def hub_first(graph, floor, cap):
        # every leaf field opens before any closes: 34 two-bit and 6 one-bit
        # fields and a two-bit hub field make keys of 76 bits
        return sorted(range(graph.num_edges), key=lambda i: graph.edges[i][1])

    with mock.patch.object(coefficients, "_plan_order", hub_first):
        assert coefficient(g, xi) == comb(6, 3)
        # the same layout with the hubs free in [2, 4]: C(6, h1) at hub counts (h1, 6 - h1)
        sup = support(g, xi[:40] + (4, 4), floor=xi[:40] + (2, 2))
    assert sup.keys.dtype == object
    assert len(sup) == 3 and sup.witness() == (xi[:40] + (2, 4), comb(6, 2))
    assert sup.entries == {xi[:40] + (h, 6 - h): comb(6, h) for h in (2, 3, 4)}
    assert sup.at(xi) == comb(6, 3) and sup.at(xi[:40] + (2, 3)) == 0


def test_doubled_graph_big_coefficients():
    g = double_edges(build_complete(4))
    central = coefficient(g, central_exponent(g), method="both")
    assert central == mirror_sign(build_complete(4)) * sum(
        c * c for c in expand_polynomial(build_complete(4)).values()
    )


def test_exponent_validation():
    c3 = build_cycle(3)
    with pytest.raises(ValueError):
        coefficient(c3, (1, 1))
    with pytest.raises(ValueError):
        coefficient(c3, (-1, 2, 2))


def test_unknown_method_rejected_before_early_returns():
    # (3, 0, 0) exceeds the degree of vertex 1, which returns 0 early
    with pytest.raises(ValueError, match="unknown method"):
        coefficient(build_cycle(3), (3, 0, 0), method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        coefficient(build_cycle(3), (1, 1, 0), method="bogus")


def test_long_path_coefficient():
    # one way only: every factor (x_{i+1} - x_i) picks its larger endpoint
    g = build_path(1500)
    xi = (0,) + (1,) * 1499
    assert coefficient(g, xi) == 1
    assert coefficient(g, xi, method="both") == 1


@st.composite
def small_multigraphs(draw):
    """Random DIFF/SUM multigraphs on 2-6 vertices with at most 10 edges."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10))
    tags = draw(st.lists(st.sampled_from(["diff", SUM]), min_size=len(edges), max_size=len(edges)))
    return make_graph(n, [(u, v, t) for (u, v), t in zip(edges, tags)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_multigraphs(), st.data())
def test_support_windows_match_oracle(g, data):
    deg = g.degree_vector()
    cap = tuple(data.draw(st.integers(0, d + 1)) for d in deg)
    floor = tuple(data.draw(st.integers(0, c)) for c in cap)
    expected = {
        xi: c
        for xi, c in expand_polynomial(g).items()
        if all(f <= x <= k for f, x, k in zip(floor, xi, cap))
    }
    sup = support(g, cap, floor=floor)
    assert sup.entries == expected
    # at reads one row: the window's coefficients, and 0 off the window or off the support
    probes = set(expand_polynomial(g)) | {tuple(data.draw(st.integers(0, d + 1)) for d in deg) for _ in range(5)}
    assert {xi: sup.at(xi) for xi in probes} == {xi: expected.get(xi, 0) for xi in probes}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_multigraphs(), st.data())
def test_support_map_reads_from_its_layer_what_its_entries_hold(g, data):
    # windows with a floor above a degree are empty
    cap = tuple(data.draw(st.integers(0, d + 1)) for d in g.degree_vector())
    floor = tuple(data.draw(st.integers(0, c)) for c in cap)
    sup = support(g, cap, floor=floor)
    found = sup.witness()  # before the decode, which it must not need
    entries = sup.entries
    assert len(sup) == len(entries)
    assert found == ((min(entries), entries[min(entries)]) if entries else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_multigraphs(), st.randoms(use_true_random=False))
def test_coefficient_independent_of_labels_and_edge_order(g, rng):
    oracle = expand_polynomial(g)
    xi, value = rng.choice(sorted(oracle.items()))
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    # relabelling u < v as perm[u] > perm[v] turns x_v - x_u into -(x_u' - x_v')
    flips = sum(1 for u, v, tag in g.edges if tag != SUM and perm[u - 1] > perm[v - 1])
    h = make_graph(g.n, [(perm[u - 1], perm[v - 1], tag) for u, v, tag in g.edges])
    h_xi = [0] * g.n
    for i, x in enumerate(xi):
        h_xi[perm[i] - 1] = x
    assert coefficient(h, h_xi, method="both") == (-1) ** flips * value

    def shuffled(graph, floor, cap):
        order = list(range(graph.num_edges))
        rng.shuffle(order)
        return order

    with mock.patch.object(coefficients, "_plan_order", shuffled):
        assert coefficient(g, xi) == value
        assert support(g, g.degree_vector()).entries == oracle


@pytest.mark.parametrize(
    "g",
    [
        build_path(40),
        build_cycle_power(9, 2),
        cartesian_product(build_cycle(4), build_cycle(6)),
        cartesian_product(build_complete(5), build_cycle(4)),
        make_graph(8, [(1, 2), (1, 2, SUM), (3, 4), (4, 5), (6, 7)]),
    ],
    ids=["P40", "C9^2", "C4xC6", "K5xC4", "forest-with-isolated"],
)
def test_planned_order_is_a_permutation_no_costlier_than_canonical(g):
    starts = [t for t in range(1, g.n + 1) if any(t in e[:2] for e in g.edges)]
    for order in [coefficients._greedy_order(g), *coefficients._rcm_orders(g, starts)]:
        assert sorted(order) == list(range(g.num_edges))
    deg = g.degree_vector()
    for floor, cap in [((0,) * g.n, deg), (tuple(d // 2 for d in deg),) * 2]:
        order = coefficients._plan_order(g, floor, cap)
        assert sorted(order) == list(range(g.num_edges))
        windows = coefficients._window_sizes(g, floor, cap)
        canonical = coefficients._estimate(g, range(g.num_edges), windows)
        assert coefficients._estimate(g, order, windows) <= canonical
