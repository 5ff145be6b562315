import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpoly.certificates import check_certificate
from graphpoly.coefficients import coefficient
from graphpoly.graphs import (
    DIFF,
    SUM,
    build_complete,
    build_cycle,
    build_path,
    cartesian_product,
    make_graph,
)
from graphpoly.limits import SUBSET_VERTEX_CAP
from graphpoly.orientations import (
    Orientation,
    WindowConditionsReport,
    acyclic_orientation,
    at_lower_bound,
    box_orientation,
    check_window_conditions,
    cycle_product_chain,
    has_odd_directed_cycle,
    odd_cycle_product_orientation,
    orientation_certificate,
    orientation_from_bitstring,
    orient_with_bounds,
    reciprocal_sum_ok,
    window_orientation,
)

import reference_provers
from conftest import random_simple_graph


def all_orientations(g):
    for bits in itertools.product((False, True), repeat=g.num_edges):
        yield Orientation(g, bits)


def directed_cycles_bruteforce(ori):
    """Enumerate simple directed cycles by DFS (test oracle)."""
    arcs = ori.arcs()
    adj = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
    cycles = []
    n = ori.graph.n
    for start in range(1, n + 1):
        path = [start]
        on = {start}

        def dfs(v):
            for w in adj.get(v, []):
                if w == start and len(path) >= 2:
                    cycles.append(tuple(path))
                if w <= start or w in on:
                    continue
                path.append(w)
                on.add(w)
                dfs(w)
                on.remove(w)
                path.pop()

        dfs(start)
    # parallel arcs can give length-2 cycles; the digon check needs them
    for (u, v), (x, y) in itertools.combinations(arcs, 2):
        if (u, v) == (y, x):
            cycles.append((u, v))
    return cycles


# ---------------------------------------------------------------------------
# orient_with_bounds and the subset conditions
# ---------------------------------------------------------------------------

def window_conditions_loop(g, lower, upper):
    """One subset at a time in increasing bitmask order (test oracle for
    check_window_conditions)."""
    masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v, _ in g.edges]
    checked = 0
    for w in range(1 << g.n):
        checked += 1
        inside = 0
        touching = 0
        for em in masks:
            if em & w == em:
                inside += 1
            if em & w:
                touching += 1
        su = sum(upper[i] for i in range(g.n) if w >> i & 1)
        sl = sum(lower[i] for i in range(g.n) if w >> i & 1)
        subset = tuple(i + 1 for i in range(g.n) if w >> i & 1)
        if inside > su:
            return WindowConditionsReport(False, subset, 1, inside, su, checked)
        if touching < sl:
            return WindowConditionsReport(False, subset, 2, touching, sl, checked)
    return WindowConditionsReport(True, None, None, None, None, checked)


@st.composite
def multigraph_windows(draw):
    """A multigraph on <= 9 vertices (parallel edges, SUM/DIFF tags) and a
    window 0 <= lower <= upper around its degrees."""
    n = draw(st.integers(1, 9))
    edges = []
    if n > 1:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        tagged = st.tuples(pair, st.sampled_from([SUM, DIFF]))
        edges = [(u, v, tag) for (u, v), tag in draw(st.lists(tagged, max_size=18))]
    g = make_graph(n, edges)
    lower = [draw(st.integers(0, d + 1)) for d in g.degree_vector()]
    upper = [lo + draw(st.integers(0, 3)) for lo in lower]
    return g, lower, upper


@settings(max_examples=300, deadline=None, derandomize=True)
@given(multigraph_windows())
def test_window_conditions_match_the_loop(window):
    g, lower, upper = window
    report = check_window_conditions(g, lower, upper)
    assert report == window_conditions_loop(g, lower, upper)
    ori = orient_with_bounds(g, lower, upper)
    assert (ori is not None) == report.ok
    if ori is not None:
        assert all(lo <= d <= up for d, lo, up in zip(ori.outdegree_vector(), lower, upper))


def test_window_violation_past_the_first_chunk():
    # C15 plus a second 14-15 edge; only subsets holding both 14 and 15 can
    # break condition 1, the first of them at bitmask 2^13 + 2^14 = 24576.
    g = make_graph(15, list(build_cycle(15).edges) + [(14, 15)])
    upper = list(g.degree_vector())
    upper[13], upper[14] = 1, 0
    report = check_window_conditions(g, [0] * 15, upper)
    assert report == WindowConditionsReport(False, (14, 15), 1, 2, 1, 24577)
    assert report == window_conditions_loop(g, [0] * 15, upper)


def _random_window(rng, n):
    """A multigraph on n vertices with parallel edges and a window at the edge of feasibility:
    tight upper bounds (condition 1 can fail), raised lower bounds (condition 2 can fail) or
    a half-degree window, each with one bound of 10^30."""
    edges = [(*rng.sample(range(1, n + 1), 2), rng.choice([SUM, DIFF])) for _ in range(rng.randint(n, 3 * n))]
    g = make_graph(n, edges)
    deg = g.degree_vector()
    mode = rng.randrange(3)
    lower = [0 if mode == 1 else d // 2 + (mode == 2 and rng.random() < 0.4) for d in deg]
    upper = [max(lo, (d + 1) // 2 - (mode == 1 and rng.random() < 0.4)) for lo, d in zip(lower, deg)]
    i = rng.randrange(n)
    upper[i] = 10**30
    if mode == 0:
        lower[i] = 10**30
    return g, lower, upper


def _chunk_edges():
    """C14 plus a doubled edge 15-16: upper bounds that fail first at the last subset of the
    first chunk, {1..14}, and lower bounds that fail first at the first of the second, {15}."""
    g = make_graph(16, list(build_cycle(14).edges) + [(15, 16), (15, 16)])
    return [
        (g, [0] * 16, [1] * 13 + [0, 1, 1], WindowConditionsReport(False, tuple(range(1, 15)), 1, 14, 13, 1 << 14)),
        (g, [0] * 14 + [10**30, 0], [2] * 14 + [10**30, 2],
         WindowConditionsReport(False, (15,), 2, 2, 10**30, (1 << 14) + 1)),
    ]


def test_window_conditions_match_the_chunked_oracle():
    rng = random.Random(2023)
    cases = [(*_random_window(rng, rng.randint(10, 20)), None) for _ in range(60)] + _chunk_edges()
    outcomes = set()
    for g, lower, upper, expected in cases:
        report = check_window_conditions(g, lower, upper)
        assert report == reference_provers.check_window_conditions(g, lower, upper)
        assert expected is None or report == expected
        outcomes.add((report.condition, report.subsets_checked > reference_provers.WINDOW_CHUNK))
    # both conditions fail and both pass, inside the oracle's first chunk and past it
    assert outcomes == {(c, late) for c in (None, 1, 2) for late in (False, True)}


def _cap_windows():
    """SUBSET_VERTEX_CAP vertices: cycle:20 with its central window, and C16 plus a doubled edge 17-18
    and an edge 19-20, whose first violations lie past 2^16: {17, 18} under upper 0 on both, and {19}
    under lower 2 with upper bounds at the degrees elsewhere."""
    g = make_graph(20, list(build_cycle(16).edges) + [(17, 18), (17, 18), (19, 20)])
    deg = g.degree_vector()
    return [
        (build_cycle(20), [1] * 20, [1] * 20, WindowConditionsReport(True, None, None, None, None, 1 << 20)),
        (g, [0] * 20, [1] * 16 + [0, 0, 1, 1],
         WindowConditionsReport(False, (17, 18), 1, 2, 0, (1 << 16) + (1 << 17) + 1)),
        (g, [0] * 18 + [2, 0], list(deg[:18]) + [2, 1], WindowConditionsReport(False, (19,), 2, 1, 2, (1 << 18) + 1)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_window_conditions_at_the_vertex_cap_match_the_oracle(case):
    g, lower, upper, expected = _cap_windows()[case]
    assert g.n == SUBSET_VERTEX_CAP
    report = check_window_conditions(g, lower, upper)
    assert report == expected
    assert report == reference_provers.check_window_conditions(g, lower, upper)


def test_window_check_at_the_vertex_cap_holds_about_twelve_bytes_per_subset():
    g = build_cycle(SUBSET_VERTEX_CAP)
    tracemalloc.start()
    try:
        assert check_window_conditions(g, [1] * g.n, [1] * g.n).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << SUBSET_VERTEX_CAP, peak


def test_window_conditions_keep_huge_bounds_exact():
    big = 10**30
    report = check_window_conditions(build_path(3), [0, big, 0], [big, big, big])
    assert report == WindowConditionsReport(False, (2,), 2, 2, big, 3)
    assert check_window_conditions(build_path(3), [0] * 3, [big] * 3).ok


@st.composite
def larger_windows(draw):
    """A multigraph on up to 40 vertices, past SUBSET_VERTEX_CAP, with a window near its degrees."""
    n = draw(st.integers(2, 40))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    g = make_graph(n, [tuple(p) for p in draw(st.lists(pair, max_size=3 * n))])
    lower = [max(draw(st.integers(-2, 1)) + d // 2, 0) for d in g.degree_vector()]
    upper = [lo + draw(st.integers(0, 2)) for lo in lower]
    return g, lower, upper


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(multigraph_windows(), larger_windows()))
@example((build_cycle(25), [0] * 25, [0] + [1] * 24))
def test_the_solver_reports_a_set_that_violates_its_condition(window):
    g, lower, upper = window
    found = window_orientation(g, lower, upper)
    if isinstance(found, Orientation):
        assert all(lo <= d <= up for d, lo, up in zip(found.outdegree_vector(), lower, upper))
        return
    w = set(found.subset)
    assert sorted(w) == list(found.subset) and w <= set(range(1, g.n + 1))
    inside = sum(u in w and v in w for u, v, _ in g.edges)
    touching = sum(u in w or v in w for u, v, _ in g.edges)
    if found.condition == 1:
        assert (found.lhs, found.rhs) == (inside, sum(upper[v - 1] for v in w)) and inside > found.rhs
    else:
        assert found.condition == 2
        assert (found.lhs, found.rhs) == (touching, sum(lower[v - 1] for v in w)) and touching < found.rhs
    assert orient_with_bounds(g, lower, upper) is None


def test_orient_cycle_exact_window():
    c4 = build_cycle(4)
    ori = orient_with_bounds(c4, [1] * 4, [1] * 4)
    assert ori is not None
    assert ori.outdegree_vector() == (1, 1, 1, 1)


def test_orient_single_edge_infeasible():
    assert orient_with_bounds(build_path(2), [1, 1], [2, 2]) is None
    report = check_window_conditions(build_path(2), [1, 1], [2, 2])
    assert not report.ok
    assert report.failing_subset == (1, 2)
    assert report.condition == 2 and (report.lhs, report.rhs) == (1, 2)


def test_orient_box_window():
    c4 = build_cycle(4)  # the 2x2 box
    ori = orient_with_bounds(c4, [1] * 4, [2] * 4)
    assert ori is not None
    assert all(1 <= d <= 2 for d in ori.outdegree_vector())
    assert check_window_conditions(c4, [1] * 4, [2] * 4).ok


def test_window_condition_upper_never_fails_at_degree():
    for g in [build_cycle(5), build_complete(4), build_path(4)]:
        deg = g.degree_vector()
        report = check_window_conditions(g, [0] * g.n, deg)
        assert report.ok


def test_flow_agrees_with_subset_conditions_random():
    rng = random.Random(991)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(9, n * (n - 1) // 2))
        g = random_simple_graph(rng, n, m)
        deg = g.degree_vector()
        lower = [rng.randint(0, max(0, deg[i] - 1)) for i in range(n)]
        upper = [min(deg[i], lower[i] + rng.randint(0, 2)) for i in range(n)]
        feasible = orient_with_bounds(g, lower, upper) is not None
        assert feasible == check_window_conditions(g, lower, upper).ok


def test_orient_bounds_validation():
    for solver in (orient_with_bounds, check_window_conditions):
        for lower, upper in [([2, 0], [1, 1]), ([0], [1]), ([0, 0], [1, 1, 1]), ([-1, 0], [1, 1])]:
            with pytest.raises(ValueError):
                solver(build_path(2), lower, upper)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def box_tuples(max_product, max_len=6):
    """Nondecreasing side-length tuples with product <= max_product."""
    out = []

    def rec(prefix, lo, prod):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        k = lo
        while prod * k <= max_product:
            prefix.append(k)
            rec(prefix, k, prod * k)
            prefix.pop()
            k += 1

    rec([], 1, 1)
    return out


def test_box_orientation_iff_reciprocal_condition():
    for ks in box_tuples(200):
        ori = box_orientation(ks)
        expected = sum(Fraction(1, k) for k in ks) <= 1
        assert (ori is not None) == expected, ks
        if ori is not None:
            n = len(ks)
            assert all(n - 1 <= d <= n for d in ori.outdegree_vector()), ks


def test_box_outdegree_sum_inequality():
    # edge-count necessity: (n-1) * prod(k) <= sum_i (k_i - 1) * prod_{j != i} k_j
    for ks in box_tuples(200):
        if box_orientation(ks) is None:
            continue
        n = len(ks)
        prod = 1
        for k in ks:
            prod *= k
        rhs = sum((ks[i] - 1) * prod // ks[i] for i in range(n))
        assert (n - 1) * prod <= rhs, ks


def test_box_examples():
    assert box_orientation((2, 2)) is not None
    assert box_orientation((1, 2)) is None
    assert box_orientation((3, 3, 3)) is not None


def test_path_product_is_grid():
    g = cartesian_product(build_path(2), build_path(3))
    assert g.n == 6 and g.num_edges == 2 * 2 + 3 * 1


# ---------------------------------------------------------------------------
# odd directed cycles
# ---------------------------------------------------------------------------

def test_rotational_cycles():
    c3 = build_cycle(3)
    rot3 = orientation_from_bitstring(c3, "101")  # 1->2, 3->1, 2->3
    assert rot3.outdegree_vector() == (1, 1, 1)
    assert has_odd_directed_cycle(rot3)
    c4 = build_cycle(4)
    rot4 = orientation_from_bitstring(c4, "1011")
    assert rot4.outdegree_vector() == (1, 1, 1, 1)
    assert not has_odd_directed_cycle(rot4)


def test_acyclic_orientations_have_no_directed_cycle():
    for g in [build_cycle(5), build_complete(4), build_path(4)]:
        ori = acyclic_orientation(g)
        assert not has_odd_directed_cycle(ori)
        assert not directed_cycles_bruteforce(ori)


def test_odd_cycle_detector_against_bruteforce():
    rng = random.Random(313)
    cases = []
    for g in [build_cycle(3), build_cycle(4), build_cycle(5), build_complete(4)]:
        cases.extend(all_orientations(g))
    for _ in range(40):
        n = rng.randint(3, 6)
        m = rng.randint(2, min(12, n * (n - 1) // 2))
        g = random_simple_graph(rng, n, m)
        bits = "".join(rng.choice("01") for _ in range(g.num_edges))
        cases.append(orientation_from_bitstring(g, bits))
    # multigraph digon: the 2-cycle is even
    digon_both = Orientation(make_graph(2, [(1, 2), (1, 2)]), (True, False))
    cases.append(digon_both)
    for ori in cases:
        expected = any(len(c) % 2 for c in directed_cycles_bruteforce(ori))
        assert has_odd_directed_cycle(ori) == expected


# ---------------------------------------------------------------------------
# chess construction
# ---------------------------------------------------------------------------

def test_chess_single_triangle():
    ori = odd_cycle_product_orientation([1])
    assert set(ori.outdegree_vector()) <= {0, 1, 2}
    assert not has_odd_directed_cycle(ori)


def test_chess_c5_c5():
    ori = odd_cycle_product_orientation([2, 2])
    assert ori.graph.n == 25 and ori.graph.num_edges == 50
    assert set(ori.outdegree_vector()) <= {1, 2, 3}
    assert not has_odd_directed_cycle(ori)


def test_chess_mixed_sizes():
    ori = odd_cycle_product_orientation([2, 3])  # C5 x C7
    n = 2
    assert set(ori.outdegree_vector()) <= {n - 1, n, n + 1}
    assert not has_odd_directed_cycle(ori)


def test_chess_rejects_bad_reciprocal_sum():
    assert not reciprocal_sum_ok([1, 2])
    with pytest.raises(ValueError):
        odd_cycle_product_orientation([1, 2])


# ---------------------------------------------------------------------------
# Alon-Tarsi soundness and certificates
# ---------------------------------------------------------------------------

def test_alon_tarsi_soundness_exhaustive():
    for g in [build_cycle(3), build_cycle(4), build_cycle(5),
              build_path(4), build_complete(4)]:
        for ori in all_orientations(g):
            if not has_odd_directed_cycle(ori):
                assert coefficient(g, ori.outdegree_vector()) != 0, (
                    g, ori.bitstring()
                )


def test_alon_tarsi_soundness_random():
    rng = random.Random(777)
    checked = 0
    while checked < 2000:
        g = random_simple_graph(rng, rng.randint(5, 7), 8)
        bits = "".join(rng.choice("01") for _ in range(g.num_edges))
        ori = orientation_from_bitstring(g, bits)
        checked += 1
        if not has_odd_directed_cycle(ori):
            assert coefficient(g, ori.outdegree_vector()) != 0


def test_orientation_certificate_cycle():
    c4 = build_cycle(4)
    cert = orientation_certificate(orientation_from_bitstring(c4, "1011"))
    assert cert["at_bound"] == 2
    assert cert["witness_exponent"] == [1, 1, 1, 1]
    assert check_certificate(cert).ok


def test_orientation_certificate_triangle_acyclic():
    c3 = build_cycle(3)
    ori = orientation_from_bitstring(c3, "110")  # 1->2, 1->3, 3->2: outdeg (2,0,1)
    assert ori.outdegree_vector() == (2, 0, 1)
    cert = orientation_certificate(ori)
    assert cert["at_bound"] == 3
    assert check_certificate(cert).ok


def test_orientation_certificate_rejects_odd_cycle():
    c3 = build_cycle(3)
    with pytest.raises(ValueError):
        orientation_certificate(orientation_from_bitstring(c3, "101"))


# ---------------------------------------------------------------------------
# certificate chains for products of cycles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("odd,evens,upper,lower", [
    ([1], [4], 3, 3),     # C3 x C4
    ([2], [4], 3, 3),     # C5 x C4
    ([], [4, 4], 3, 3),   # C4 x C4
    ([1], [4, 6], 4, 4),  # C3 x C4 x C6
])
def test_cycle_product_chains(odd, evens, upper, lower):
    cert = cycle_product_chain(odd, evens)
    assert cert["at_upper"] == upper
    assert cert["at_lower"] == lower
    result = check_certificate(cert)
    assert result.ok, result.errors


def test_pure_odd_chain_keeps_the_honest_bound():
    # with no even factor there is no trace step, so the witness is the
    # orientation outdegree vector and its maximum can hit factors + 1
    cert = cycle_product_chain([2, 2], [])
    assert cert["at_upper"] == 4
    assert cert["at_lower"] == 3
    result = check_certificate(cert)
    assert result.ok, result.errors


def test_chain_matches_trace_value():
    cert = cycle_product_chain([1], [4])
    assert cert["steps"][0]["trace_value"] == "36"
    g = cartesian_product(build_cycle(3), build_cycle(4))
    assert abs(coefficient(g, tuple(d // 2 for d in g.degree_vector()))) == 36


def test_chain_lower_bounds():
    cert = cycle_product_chain([1], [4])
    assert cert["ch_lower"] == 3  # odd factor: non-bipartite
    cert = cycle_product_chain([], [4, 4])
    assert cert["ch_lower"] == 2
    assert cert["at_lower"] == 3  # pigeonhole on mean degree


def test_at_lower_bound_helper():
    assert at_lower_bound(build_cycle(3))[0] == 3
    assert at_lower_bound(make_graph(2, []))[0] == 1
    g = cartesian_product(build_cycle(4), build_cycle(4))
    assert at_lower_bound(g)[0] == 3


def test_chain_validation():
    with pytest.raises(ValueError):
        cycle_product_chain([], [])
    with pytest.raises(ValueError):
        cycle_product_chain([], [3])
    with pytest.raises(ValueError):
        cycle_product_chain([1, 1], [4])  # reciprocal sum 2 > 1


def test_chain_refuses_odd_factors_by_the_chess_construction():
    with pytest.raises(ValueError, match="^cycle parameters must be positive integers$"):
        cycle_product_chain([0], [4])
    with pytest.raises(ValueError, match="^reciprocal sum 2 exceeds 1; the box orientation does not exist$"):
        cycle_product_chain([1, 1], [4])


def test_chain_rejects_swapped_base():
    # a base certificate for some other graph of the right size must not
    # verify, even if every digest is recomputed consistently
    import copy

    from graphpoly.certificates import finalize_certificate
    from graphpoly.graphio import graph_digest, to_json_obj

    cert = cycle_product_chain([1], [4])
    fake_base = orientation_certificate(
        orientation_from_bitstring(build_path(3), "11")
    )
    tampered = copy.deepcopy(cert)
    tampered["base_certificate"] = fake_base
    final = build_path(3)
    final = cartesian_product(final, build_cycle(4))
    tampered["final_graph_digest"] = graph_digest(final)
    finalize_certificate(tampered)
    assert not check_certificate(tampered).ok


def test_orient_with_bounds_is_deterministic():
    g = build_complete(4)
    a = orient_with_bounds(g, [1] * 4, [2] * 4)
    b = orient_with_bounds(g, [1] * 4, [2] * 4)
    assert a is not None and a.bitstring() == b.bitstring()
    ka = odd_cycle_product_orientation([2, 2])
    kb = odd_cycle_product_orientation([2, 2])
    assert ka.bitstring() == kb.bitstring()


def test_chess_three_factors():
    ori = odd_cycle_product_orientation([3, 3, 3])  # C7 x C7 x C7
    n = 3
    assert ori.graph.n == 343
    assert set(ori.outdegree_vector()) <= {n - 1, n, n + 1}
    assert not has_odd_directed_cycle(ori)
