from unittest import mock

import pytest

import graphpoly.doubling as doubling
from graphpoly.certificates import check_certificate
from graphpoly.choosability import random_list_stress
from graphpoly.coefficients import central_exponent, coefficient, mirror_sign
from graphpoly.doubling import (
    build_plan,
    cycle_cover_certificate,
    epsilon_search,
    plan_polynomial,
    plan_target_exponent,
)
from graphpoly.graphs import (
    build_complete,
    build_cycle,
    build_digon,
    build_path,
    build_petersen,
    cartesian_product,
    double_edges,
    make_graph,
)
from graphpoly.limits import TRACE_VERTEX_CAP
from graphpoly.orientations import acyclic_orientation
from graphpoly.transfer import build_phi, trace_power

from conftest import alon_tarsi_zoo, expand_polynomial
from reference_provers import squared_central_check


def test_squared_single_edge():
    # (x2 - x1)^2 has central coefficient -2
    assert squared_central_check(build_path(2)) == -2


def test_squared_triangle():
    assert abs(squared_central_check(build_cycle(3))) == 6


def test_squared_c4():
    value = squared_central_check(build_cycle(4))
    oracle = sum(c * c for c in expand_polynomial(build_cycle(4)).values())
    assert value == oracle  # |E| = 4 even, sign +1


def test_squared_both_ways_on_zoo(zoo8):
    for name, g in zoo8:
        value = squared_central_check(g)
        oracle = mirror_sign(g) * sum(
            c * c for c in expand_polynomial(g).values()
        )
        assert value == oracle, name


def test_squared_both_ways_small_simple_graphs():
    for g in [build_path(4), build_complete(4), build_cycle(5),
              make_graph(4, [(1, 2), (2, 3), (2, 4)])]:
        if g.num_edges <= 8:
            value = squared_central_check(g)
            assert abs(value) == sum(c * c for c in expand_polynomial(g).values())


# ---------------------------------------------------------------------------
# cover-and-double pipeline
# ---------------------------------------------------------------------------

def test_cover_certificate_triangle():
    cert = cycle_cover_certificate(build_cycle(3))
    assert cert["at_bound"] == 3
    assert cert["cover_cycles"] == [[1, 2, 3]]
    assert cert["doubled_edge_indices"] == []
    assert check_certificate(cert).ok


def test_cover_certificate_k4():
    cert = cycle_cover_certificate(build_complete(4))
    assert cert["at_bound"] == 4
    # the two chords get doubled; the doubled graph is 4-regular
    g = build_complete(4)
    doubled = double_edges(g, cert["doubled_edge_indices"])
    assert doubled.degree_vector() == (4, 4, 4, 4)
    assert check_certificate(cert).ok


def test_cover_certificate_petersen():
    cert = cycle_cover_certificate(build_petersen())
    assert cert["at_bound"] == 4  # max degree 3, bound 3 + 1
    result = check_certificate(cert)
    assert result.ok, result.errors


def test_cover_certificate_reads_the_central_coefficient_first():
    # C3 x C4 (12 vertices) and C4 x C4 (16) doubled off their covers are 6-regular: central
    # coefficient nonzero at every size
    for a, b in ((3, 4), (4, 4)):
        g = cartesian_product(build_cycle(a), build_cycle(b))
        with mock.patch.object(doubling, "almost_central_scan", side_effect=AssertionError("scanned")):
            cert = cycle_cover_certificate(g)
        gprime = double_edges(g, cert["doubled_edge_indices"])
        assert cert["witness_exponent"] == list(central_exponent(gprime)) == [3] * g.n
        assert check_certificate(cert).ok
    # an odd cycle is its own cover, and its central coefficient is 0: an acyclic orientation's
    # outdegrees are almost-central with coefficient -1, so no window is scanned either
    for n in (3, 5, 13, 25, 41):
        odd = build_cycle(n)
        assert coefficient(odd, central_exponent(odd)) == 0
        with mock.patch.object(doubling, "almost_central_scan", side_effect=AssertionError("scanned")):
            cert = cycle_cover_certificate(odd)
        assert cert["witness_exponent"] == list(acyclic_orientation(odd).outdegree_vector())
        assert cert["witness_exponent"] == [2] + [1] * (n - 2) + [0] and int(cert["witness_value"]) == -1
        assert check_certificate(cert).ok


def test_cover_certificates_on_the_zoo_have_nonzero_traces():
    # the theorem the cover certificates rest on: a nonzero almost-central coefficient of the
    # doubled graph makes tr Phi^k nonzero for every even k; checked where Phi is small
    traced = 0
    for g in alon_tarsi_zoo():
        if not g.is_simple() or g.num_edges == 0 or g.n > TRACE_VERTEX_CAP:
            continue
        gprime = double_edges(g, cycle_cover_certificate(g)["doubled_edge_indices"])
        for k in (4, 6):
            assert trace_power(build_phi(gprime), k) != 0, (g, k)
        traced += 1
    assert traced == 17  # every simple zoo graph with an edge has a cover


def test_cover_certificate_no_cover():
    assert cycle_cover_certificate(build_path(4)) is None


def test_cover_rejects_multigraph():
    with pytest.raises(ValueError):
        cycle_cover_certificate(double_edges(build_cycle(3)))


def test_cover_refuses_a_multigraph_by_the_cover_search():
    with pytest.raises(ValueError, match="^cycle cover search expects a simple graph$"):
        cycle_cover_certificate(build_digon())


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_plan_triangle():
    plan = build_plan(build_cycle(3), (2, 1, 0))
    assert plan.on_center == (2,)
    assert plan.above == (1,) and plan.below == (3,)
    assert plan.half_above == () and plan.half_below == ()
    assert plan.spill_below == () and plan.spill_above == ()
    assert plan.m == 0
    assert plan.f == (3, 3, 3)


def test_plan_single_edge():
    plan = build_plan(build_path(2), (1, 0))
    assert plan.half_above == (1,) and plan.half_below == (2,)
    assert plan.m == 1
    assert plan.pairing == ((2, 1),)
    assert plan.f == (3, 3)


def test_plan_k4_vandermonde():
    # the complete-graph polynomial is supported exactly on permutations
    # of (0, 1, 2, 3); use one of them as tau
    plan = build_plan(build_complete(4), (0, 1, 2, 3))
    assert plan.below == (1,) and plan.above == (4,)
    assert plan.half_below == (2,) and plan.half_above == (3,)
    assert plan.m == 2
    assert plan.f == (4, 4, 4, 4)


def test_plan_rejects_zero_tau():
    with pytest.raises(ValueError):
        build_plan(build_complete(4), (2, 2, 1, 1))  # not in the support
    with pytest.raises(ValueError):
        build_plan(build_cycle(3), (1, 1, 1))


def test_plan_spill_balances_multisets():
    # path on 3 vertices, tau = (0, 2, 0): both ends sit 1 below center,
    # the middle 1 above, so one end spills and the multisets stay equal
    g = build_path(3)
    plan = build_plan(g, (0, 2, 0))
    assert len(plan.a_side) == len(plan.b_side) == plan.m


# ---------------------------------------------------------------------------
# sign search
# ---------------------------------------------------------------------------

def test_epsilon_search_m0():
    plan = build_plan(build_cycle(3), (2, 1, 0))
    cert = epsilon_search(plan)
    assert cert["epsilon"] == ""
    assert cert["witness_exponent"] == [2, 1, 0]
    assert check_certificate(cert).ok


def test_epsilon_search_single_edge():
    plan = build_plan(build_path(2), (1, 0))
    cert = epsilon_search(plan)
    # (x2 - x1)(x2 + x1) has no x1 x2 term, so '+' fails and '-' wins
    assert cert["epsilon"] == "-"
    assert cert["witness_value"] == "-2"
    assert check_certificate(cert).ok


def test_epsilon_search_k4():
    plan = build_plan(build_complete(4), (0, 1, 2, 3))
    cert = epsilon_search(plan)
    assert len(cert["epsilon"]) == 2
    assert check_certificate(cert).ok
    assert cert["f"] == [4, 4, 4, 4]


def test_plan_polynomial_structure():
    plan = build_plan(build_complete(4), (0, 1, 2, 3))
    for signs in ("++", "+-", "-+", "--"):
        q = plan_polynomial(plan, signs)
        assert q.has_even_degrees()
        assert q.degree_vector() == tuple(2 * fv - 4 for fv in plan.f)
    target = plan_target_exponent(plan)
    assert sum(target) == sum(plan.tau) + plan.m


def test_epsilon_witness_is_almost_central():
    plan = build_plan(build_complete(4), (0, 1, 2, 3))
    cert = epsilon_search(plan)
    q = plan_polynomial(plan, cert["epsilon"])
    a = central_exponent(q)
    assert all(abs(x - h) <= 1 for x, h in zip(cert["witness_exponent"], a))


def test_end_to_end_triangle_plan_stress():
    # plan says f = 3 everywhere works for the triangle producted with C4
    plan = build_plan(build_cycle(3), (2, 1, 0))
    cert = epsilon_search(plan)
    assert cert["f"] == [3, 3, 3]
    g = cartesian_product(build_cycle(3), build_cycle(4))
    report = random_list_stress(g, [3] * g.n, 300, seed=99)
    assert report["failures"] == []
