import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoly import coefficients
from graphpoly.certificates import check_certificate
from graphpoly.choosability import (
    _random_lists,
    at_certificate_exact,
    coefficient_choosability_certificate,
    default_universe,
    find_uncolorable_assignment,
    list_coloring_exists,
    random_list_stress,
)
from graphpoly.coefficients import alon_tarsi_number_exact
from graphpoly.errors import BudgetExceededError
from graphpoly.graphs import (
    DIFF,
    SUM,
    build_complete,
    build_cycle,
    build_path,
    cartesian_product,
    coloring_number,
    make_graph,
)

from reference_provers import choice_number_exact


def list_coloring_loop(g, lists):
    """MRV backtracking that recomputes every vertex's feasible colors at
    every step (test oracle for list_coloring_exists)."""
    lists = [sorted(set(l)) for l in lists]
    adj = g.adjacency()
    coloring = {}

    def feasible_colors(v):
        used = {coloring[w] for w in adj[v] if w in coloring}
        return [c for c in lists[v - 1] if c not in used]

    stack = []
    while True:
        todo = [v for v in range(1, g.n + 1) if v not in coloring]
        if not todo:
            return True, tuple(coloring[v] for v in range(1, g.n + 1))
        v = min(todo, key=lambda x: (len(feasible_colors(x)), x))
        stack.append((v, iter(feasible_colors(v))))
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


@st.composite
def multigraph_lists(draw):
    """A multigraph on <= 9 vertices (parallel edges, SUM/DIFF tags) and one
    list per vertex, with repeated colors, from a small palette."""
    n = draw(st.integers(0, 9))
    edges = []
    if n > 1:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        tagged = st.tuples(pair, st.sampled_from([SUM, DIFF]))
        edges = [(u, v, tag) for (u, v), tag in draw(st.lists(tagged, max_size=24))]
    palette = draw(st.integers(1, 5))
    lists = draw(st.lists(st.lists(st.integers(0, palette), min_size=1, max_size=6),
                          min_size=n, max_size=n))
    return make_graph(n, edges), lists


@settings(max_examples=300, deadline=None, derandomize=True)
@given(multigraph_lists())
def test_list_coloring_matches_the_loop(case):
    g, lists = case
    assert list_coloring_exists(g, lists) == list_coloring_loop(g, lists)


# C6 with 2-lists is left out: the oracle alone takes about 5 s over its 6^6 assignments
@pytest.mark.parametrize("n, f", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3)])
def test_uncolorable_assignment_matches_the_loop(n, f):
    g = build_cycle(n)
    choices = list(itertools.combinations(range(1, 5), f))
    first = next((a for a in itertools.product(*[choices] * n) if not list_coloring_loop(g, a)[0]), None)
    assert find_uncolorable_assignment(g, [f] * n, 4) == first


def test_stress_failures_match_the_loop():
    g = cartesian_product(build_cycle(3), build_cycle(3))
    report = random_list_stress(g, [2] * 9, 500, seed=1)
    rows = _random_lists(np.random.default_rng(1), [2] * 9, 4, 500).tolist()
    expected = []
    for t, row in enumerate(rows):
        lists = [row[i:i + 2] for i in range(0, 18, 2)]
        if not list_coloring_loop(g, lists)[0]:
            expected.append({"trial": t, "lists": lists})
    assert report["failures"] == expected
    assert len(expected) == 175  # the recorded seed replays


def test_stress_refuses_a_negative_trial_count():
    with pytest.raises(ValueError, match="non-negative"):
        random_list_stress(build_cycle(3), [3] * 3, -2, seed=0)


def test_list_coloring_basic():
    c4 = build_cycle(4)
    ok, coloring = list_coloring_exists(c4, [[1, 2]] * 4)
    assert ok and coloring == (1, 2, 1, 2)
    ok, coloring = list_coloring_exists(build_cycle(3), [[1, 2]] * 3)
    assert not ok and coloring is None
    ok, coloring = list_coloring_exists(make_graph(1, []), [[7]])
    assert ok and coloring == (7,)


def test_list_coloring_long_path():
    # the backtracking once recursed once per vertex and crashed here
    ok, coloring = list_coloring_exists(build_path(1200), [[1, 2]] * 1200)
    assert ok and coloring == (1, 2) * 600


def test_list_coloring_witness_is_proper():
    g = build_complete(4)
    lists = [[1, 2, 3, 4], [1, 2], [2, 3], [3, 4]]
    ok, coloring = list_coloring_exists(g, lists)
    assert ok
    for u, v, _ in g.edges:
        assert coloring[u - 1] != coloring[v - 1]
    for v, c in enumerate(coloring, start=1):
        assert c in lists[v - 1]


def test_even_cycle_2_choosable():
    assert find_uncolorable_assignment(build_cycle(4), [2] * 4, 4) is None
    assert find_uncolorable_assignment(build_cycle(6), [2] * 6, 4) is None


def test_triangle_not_2_but_3_choosable():
    bad = find_uncolorable_assignment(build_cycle(3), [2] * 3, 4)
    assert bad is not None
    assert len(set(bad)) == 1  # only identical pair-lists defeat a triangle
    assert find_uncolorable_assignment(build_cycle(3), [3] * 3, 6) is None


def test_single_vertex():
    assert find_uncolorable_assignment(make_graph(1, []), [1], 2) is None


def test_choice_numbers():
    assert choice_number_exact(build_cycle(3)) == 3
    assert choice_number_exact(build_cycle(4)) == 2
    assert choice_number_exact(build_cycle(5)) == 3
    assert choice_number_exact(build_path(4)) == 2
    assert choice_number_exact(build_complete(4)) == 4


def test_choice_at_most_alon_tarsi():
    for g in [build_path(2), build_path(4), build_cycle(3), build_cycle(4),
              build_cycle(5), build_cycle(6), build_complete(3), build_complete(4)]:
        assert choice_number_exact(g) <= alon_tarsi_number_exact(g)[0]


def test_monotonicity_in_f():
    g = build_cycle(4)
    assert find_uncolorable_assignment(g, [2] * 4, 4) is None
    assert find_uncolorable_assignment(g, [2, 2, 2, 3], 4) is None
    g3 = build_cycle(3)
    assert find_uncolorable_assignment(g3, [3] * 3, 6) is None
    assert find_uncolorable_assignment(g3, [3, 3, 4], 6) is None


def test_exhaustive_budget_guard():
    with pytest.raises(BudgetExceededError):
        find_uncolorable_assignment(build_complete(4), [4] * 4, 8, budget=1000)


def test_default_universe():
    assert default_universe([2, 2, 2]) == 4
    assert default_universe([3] * 4) == 6


def test_coefficient_certificates():
    cert = coefficient_choosability_certificate(build_cycle(4), [2] * 4)
    assert cert["witness_exponent"] == [1, 1, 1, 1]
    assert check_certificate(cert).ok
    cert = coefficient_choosability_certificate(build_cycle(3), [3] * 3)
    assert cert is not None and max(cert["witness_exponent"]) == 2
    assert check_certificate(cert).ok
    assert coefficient_choosability_certificate(build_cycle(3), [2] * 3) is None


def test_list_sizes_below_the_edge_count_run_no_dp(monkeypatch):
    # sum(f - 1) < |E| leaves no exponent of total degree |E|: support's degree-sum cut answers
    monkeypatch.setattr(coefficients, "_scan", mock.Mock(side_effect=AssertionError("DP ran")))
    assert coefficient_choosability_certificate(build_complete(4), [2] * 4) is None
    assert coefficient_choosability_certificate(build_cycle(5), [2, 2, 2, 2, 1]) is None


def test_certificate_respects_exhaustive_truth():
    # whenever the certificate exists, exhaustion at the same f agrees
    for g, f in [(build_cycle(4), [2] * 4), (build_cycle(3), [3] * 3),
                 (build_path(3), [2] * 3)]:
        cert = coefficient_choosability_certificate(g, f)
        if cert is not None:
            assert find_uncolorable_assignment(g, f) is None


def test_stress_finds_triangle_failure():
    report = random_list_stress(build_cycle(3), [2] * 3, 500, seed=11)
    assert report["failures"]
    first = report["failures"][0]["lists"]
    ok, _ = list_coloring_exists(build_cycle(3), first)
    assert not ok
    assert report["seed"] == 11


def test_stress_zero_trials_empty_report():
    report = random_list_stress(build_cycle(3), [2] * 3, 0, seed=5)
    assert report["failures"] == [] and report["trials"] == 0


def test_stress_is_deterministic():
    a = random_list_stress(build_cycle(5), [2] * 5, 50, seed=3)
    b = random_list_stress(build_cycle(5), [2] * 5, 50, seed=3)
    assert a == b


def test_stress_product_with_certificate():
    g = cartesian_product(build_cycle(5), build_cycle(4))
    report = random_list_stress(g, [3] * g.n, 300, seed=2024)
    assert report["failures"] == []


def test_at_certificate_exact():
    cert = at_certificate_exact(build_cycle(4))
    assert cert["at_bound"] == 2
    assert check_certificate(cert).ok


def test_coloring_number_feeds_bound():
    g = build_cycle(5)
    assert coloring_number(g) == 3
