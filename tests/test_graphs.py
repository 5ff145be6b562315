import functools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoly.graphio import graph_digest
from graphpoly.graphs import (
    DIFF,
    SUM,
    build_complete,
    build_cycle,
    build_cycle_power,
    build_digon,
    build_path,
    build_petersen,
    cartesian_product,
    coloring_number,
    cover_edge_indices,
    degeneracy_order,
    double_edges,
    find_cycle_cover,
    is_bipartite,
    make_graph,
)


def test_build_cycle_basic():
    c4 = build_cycle(4)
    assert c4.n == 4
    assert {(u, v) for u, v, _ in c4.edges} == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert build_cycle(3).degree_vector() == (2, 2, 2)


def test_build_cycle_rejects_degenerate():
    with pytest.raises(ValueError):
        build_cycle(2)


def test_build_path():
    assert build_path(1).num_edges == 0
    assert {(u, v) for u, v, _ in build_path(3).edges} == {(1, 2), (2, 3)}
    assert build_path(2).num_edges == 1
    with pytest.raises(ValueError):
        build_path(0)


def test_cycle_power():
    g = build_cycle_power(6, 2)
    assert g.num_edges == 12
    assert g.degree_vector() == (4,) * 6
    assert build_cycle_power(5, 2).edges == build_complete(5).edges
    with pytest.raises(ValueError):
        build_cycle_power(4, 2)


def test_complete_equals_triangle():
    assert build_complete(3).edges == build_cycle(3).edges


def test_cartesian_product_counts():
    g = cartesian_product(build_cycle(3), build_cycle(4))
    assert g.n == 12 and g.num_edges == 3 * 4 + 4 * 3
    k4c3 = cartesian_product(build_complete(4), build_cycle(3))
    assert k4c3.n == 12 and k4c3.num_edges == 4 * 3 + 3 * 6 == 30


def test_product_of_paths_is_cycle():
    g = cartesian_product(build_path(2), build_path(2))
    c4 = build_cycle(4)
    assert g.n == 4 and g.num_edges == 4
    assert sorted(g.degree_vector()) == sorted(c4.degree_vector())


def test_product_commutative_up_to_relabeling():
    for a, b in [(build_cycle(3), build_path(4)), (build_complete(4), build_cycle(5))]:
        ab = cartesian_product(a, b)
        ba = cartesian_product(b, a)
        assert ab.num_edges == ba.num_edges
        assert sorted(ab.degree_vector()) == sorted(ba.degree_vector())


def test_product_rejects_sum_tags():
    sg = make_graph(2, [(1, 2, SUM)])
    with pytest.raises(ValueError):
        cartesian_product(sg, build_path(2))


def plain_binary_product(g, h):
    """G x H edge by edge, (a, b) labelled (a - 1) * h.n + b (test oracle)."""
    edges = [((a - 1) * h.n + u, (a - 1) * h.n + v) for a in range(1, g.n + 1) for u, v, _ in h.edges]
    edges += [((u - 1) * h.n + b, (v - 1) * h.n + b) for u, v, _ in g.edges for b in range(1, h.n + 1)]
    return make_graph(g.n * h.n, edges)


FACTORS = st.one_of(
    st.integers(1, 4).map(build_path),
    st.integers(3, 5).map(build_cycle),
    st.just(build_complete(4)),
    st.just(build_digon()),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(FACTORS, min_size=1, max_size=4))
def test_n_ary_product_equals_the_left_fold(factors):
    product = cartesian_product(*factors)
    for fold in (functools.reduce(cartesian_product, factors), functools.reduce(plain_binary_product, factors)):
        assert product == fold
        assert graph_digest(product) == graph_digest(fold)


@pytest.mark.parametrize("place", [0, 1, 2])
def test_n_ary_product_refuses_a_sum_factor_and_no_factors(place):
    factors = [build_path(2), build_cycle(3)]
    factors.insert(place, make_graph(2, [(1, 2, SUM)]))
    with pytest.raises(ValueError, match="DIFF-only"):
        cartesian_product(*factors)
    with pytest.raises(ValueError, match="at least one factor"):
        cartesian_product()


def test_degree_sum_is_twice_edges():
    for g in [build_cycle(5), build_complete(4), build_petersen(),
              build_cycle_power(7, 2), double_edges(build_cycle(3))]:
        assert sum(g.degree_vector()) == 2 * g.num_edges


def test_double_edges():
    g = double_edges(build_complete(3))
    assert g.num_edges == 6
    assert g.degree_vector() == (4, 4, 4)
    g0 = build_complete(3)
    assert double_edges(g0, []).edges == g0.edges
    e = double_edges(build_path(2), [0])
    assert e.degree_vector() == (2, 2)
    assert build_digon().edges == e.edges
    with pytest.raises(ValueError):
        double_edges(g0, [7])


def test_coloring_number():
    assert coloring_number(build_cycle(5)) == 3
    assert coloring_number(build_path(4)) == 2
    assert coloring_number(build_complete(4)) == 4
    for n in (3, 4, 6):
        assert coloring_number(build_cycle(n)) == 3
    for k in (2, 3, 5):
        assert coloring_number(build_path(k)) == 2
    # never exceeds max degree + 1
    for g in [build_petersen(), build_cycle_power(7, 2)]:
        assert coloring_number(g) - 1 <= g.max_degree()


def test_degeneracy_order_of_ten_thousand_vertices_takes_well_under_a_second():
    # a scan of every live vertex at each step took 6 s on this cycle; the heap takes milliseconds
    start = time.perf_counter()
    degeneracy, order = degeneracy_order(build_cycle(10000))
    assert time.perf_counter() - start < 1
    assert degeneracy == 2 and order[:3] == [1, 2, 3] and sorted(order) == list(range(1, 10001))


def test_coloring_number_multigraph_multiplicity():
    assert coloring_number(build_digon()) == 3  # parallel edges both count


def test_is_bipartite():
    assert is_bipartite(build_cycle(4))
    assert not is_bipartite(build_cycle(5))
    assert is_bipartite(build_path(6))
    assert not is_bipartite(build_petersen())


def test_find_cycle_cover_triangle():
    g = build_cycle(3)
    cover = find_cycle_cover(g, [1, 2, 3])
    assert cover == ((1, 2, 3),)


def test_find_cycle_cover_k4():
    cover = find_cycle_cover(build_complete(4), [1, 2, 3, 4])
    assert cover is not None and len(cover) == 1
    assert sorted(cover[0]) == [1, 2, 3, 4]


def test_find_cycle_cover_tree_fails():
    assert find_cycle_cover(build_path(3), [2]) is None


def test_find_cycle_cover_long_cycle():
    # the cycle search once recursed once per path vertex and crashed here
    assert find_cycle_cover(build_cycle(1500), [1]) == (tuple(range(1, 1501)),)


def test_find_cycle_cover_petersen_two_factor():
    pet = build_petersen()
    cover = find_cycle_cover(pet, range(1, 11))
    assert cover is not None
    seen = set()
    for cyc in cover:
        assert len(cyc) >= 3
        # each consecutive pair (wrapping) is an edge of the graph
        pairs = {(u, v) for u, v, _ in pet.edges}
        m = len(cyc)
        for i in range(m):
            a, b = cyc[i], cyc[(i + 1) % m]
            assert (min(a, b), max(a, b)) in pairs
        assert not (seen & set(cyc))
        seen |= set(cyc)
    assert seen == set(range(1, 11))


def test_cover_edge_indices_triangle():
    g = build_cycle(3)
    assert cover_edge_indices(g, [(1, 2, 3)]) == {0, 1, 2}


def test_make_graph_canonicalizes():
    g = make_graph(3, [(3, 1), (2, 1)])
    assert g.edges == ((1, 2, DIFF), (1, 3, DIFF))
    with pytest.raises(ValueError):
        make_graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(2, [(1, 3)])
