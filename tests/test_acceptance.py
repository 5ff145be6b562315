"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance here is exact integer equality; there is no floating point
anywhere in the package.
"""

import itertools
import zlib
import random
import time
from fractions import Fraction

from graphpoly.certificates import check_certificate
from graphpoly.choosability import (
    coefficient_choosability_certificate,
    find_uncolorable_assignment,
    random_list_stress,
)
from graphpoly.coefficients import central_exponent, coefficient, mirror_sign
from graphpoly.doubling import (
    build_plan,
    cycle_cover_certificate,
    epsilon_search,
)
from graphpoly.graphs import (
    build_complete,
    build_cycle,
    build_cycle_power,
    build_path,
    cartesian_product,
    coloring_number,
    is_bipartite,
)
from graphpoly.limits import SUBSET_VERTEX_CAP
from graphpoly.orientations import (
    box_orientation,
    check_window_conditions,
    cycle_product_chain,
    has_odd_directed_cycle,
    odd_cycle_product_orientation,
    orientation_from_bitstring,
    orient_with_bounds,
)
from graphpoly.transfer import build_phi, trace_power

from conftest import block_entries, even_degree_zoo, expand_polynomial, random_simple_graph
from reference_provers import squared_central_check


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_trace_vs_direct_product():
    t0 = time.monotonic()
    tr = trace_power(build_phi(build_cycle(3)), 4)
    product = cartesian_product(build_cycle(3), build_cycle(4))
    assert product.n == 12 and product.num_edges == 24
    direct = coefficient(product, central_exponent(product), method="enumerate")
    elapsed = time.monotonic() - t0
    ok = abs(tr) == abs(direct) != 0 and elapsed < 60
    _verdict(1, ok, f"|tr Phi^4| = {abs(tr)} = |direct central| = {abs(direct)} "
                    f"({elapsed:.1f}s)")


def test_criterion_02_torus_alon_tarsi_is_3():
    results = []
    for odd, evens in [([1], [4]), ([2], [4]), ([], [4, 4])]:
        cert = cycle_product_chain(odd, evens)
        assert check_certificate(cert).ok
        lengths = cert["odd_factors"] + cert["even_factors"]
        graph = None
        for L in lengths:
            c = build_cycle(L)
            graph = c if graph is None else cartesian_product(graph, c)
        lower_ok = (not is_bipartite(graph)) if odd else True
        results.append(
            cert["at_upper"] == 3 and cert["at_lower"] == 3 and lower_ok
        )
    _verdict(2, all(results),
             "AT(C3xC4) = AT(C5xC4) = AT(C4xC4) = 3 with verified chains")


def test_criterion_03_complete_graph_times_even_cycle():
    oks = []
    for n in (3, 4):
        cert = cycle_cover_certificate(build_complete(n))
        assert cert is not None and check_certificate(cert).ok
        # upper bound n from the pipeline; lower bound n from ch(K_n) >= n
        lower = coloring_number(build_complete(n))  # = n for complete graphs
        oks.append(cert["at_bound"] == n and lower == n)
    _verdict(3, all(oks), "AT(K_n x C_even) pinned to n for n in {3, 4}")


def test_criterion_04_phi_invariants_over_zoo():
    t0 = time.monotonic()
    zoo = even_degree_zoo(12)
    for name, q in zoo:
        phi = build_phi(q)
        sigma = mirror_sign(q)
        if q.is_diff_only():
            assert sigma == (-1) ** q.num_edges, name
        assert phi.sigma == sigma, name
        for s, block in phi.blocks.items():
            entries = block_entries(s, block)
            for (i, j), val in entries.items():
                assert entries.get((j, i), 0) == sigma * val, name
        nz = phi.nnz() != 0
        assert (trace_power(phi, 2) != 0) == nz, name
        if q.n <= 8:
            assert (trace_power(phi, 4) != 0) == nz, name
        # block structure: sampled cross-size entries vanish by homogeneity
        rng = random.Random(zlib.crc32(name.encode()))
        a = phi.a
        for _ in range(10):
            s_mask = rng.randrange(1 << q.n)
            t_mask = rng.randrange(1 << q.n)
            if bin(s_mask).count("1") == bin(t_mask).count("1"):
                continue
            xi = list(a)
            for i in range(q.n):
                xi[i] += (t_mask >> i & 1) - (s_mask >> i & 1)
            if any(x < 0 for x in xi):
                continue
            assert coefficient(q, tuple(xi)) == 0, name
    elapsed = time.monotonic() - t0
    _verdict(4, elapsed < 120,
             f"(skew-)symmetry, block structure, nonzero-trace law on "
             f"{len(zoo)} even-degree zoo graphs ({elapsed:.1f}s)")


def test_criterion_05_triangle_trace_square():
    t0 = time.monotonic()
    value = trace_power(build_phi(build_cycle(3)), 2)
    elapsed = time.monotonic() - t0
    _verdict(5, value == -12 and elapsed < 1.0,
             f"tr Phi^2 for the triangle = {value} ({elapsed:.2f}s)")


def _box_tuples(max_product, max_len=6):
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


def test_criterion_06_box_orientation_iff():
    t0 = time.monotonic()
    tuples = _box_tuples(200)
    for ks in tuples:
        ori = box_orientation(ks)
        expected = sum(Fraction(1, k) for k in ks) <= 1
        assert (ori is not None) == expected, ks
    # the independent subset checker agrees with the path-reversal solver on every box it can check
    agree = 0
    for ks in tuples:
        prod = 1
        for k in ks:
            prod *= k
        if prod > SUBSET_VERTEX_CAP:
            continue
        n = len(ks)
        g = cartesian_product(*map(build_path, ks))
        solved = orient_with_bounds(g, [n - 1] * g.n, [n] * g.n) is not None
        subsets = check_window_conditions(g, [n - 1] * g.n, [n] * g.n).ok
        assert solved == subsets, ks
        agree += 1
    elapsed = time.monotonic() - t0
    _verdict(6, elapsed < 120,
             f"feasibility iff reciprocal sum <= 1 over {len(tuples)} boxes; "
             f"path reversal and subset checker agree on {agree} boxes of at most "
             f"{SUBSET_VERTEX_CAP} vertices ({elapsed:.1f}s)")


def test_criterion_07_chess_construction_c5_c5():
    t0 = time.monotonic()
    ori = odd_cycle_product_orientation([2, 2])
    outdegs = set(ori.outdegree_vector())
    no_odd = not has_odd_directed_cycle(ori)
    elapsed = time.monotonic() - t0
    _verdict(7, outdegs <= {1, 2, 3} and no_odd and elapsed < 5,
             f"C5 x C5 outdegrees {sorted(outdegs)}, odd directed cycle: {not no_odd} "
             f"({elapsed:.2f}s)")


def test_criterion_08_orientation_soundness():
    t0 = time.monotonic()
    checked = 0
    for g in [build_cycle(3), build_cycle(4), build_cycle(5),
              build_path(4), build_complete(4)]:
        for bits in itertools.product("01", repeat=g.num_edges):
            ori = orientation_from_bitstring(g, "".join(bits))
            checked += 1
            if not has_odd_directed_cycle(ori):
                assert coefficient(g, ori.outdegree_vector()) != 0
    rng = random.Random(20240818)
    for _ in range(10_000):
        g = random_simple_graph(rng, rng.randint(5, 7), 8)
        bits = "".join(rng.choice("01") for _ in range(g.num_edges))
        ori = orientation_from_bitstring(g, bits)
        checked += 1
        if not has_odd_directed_cycle(ori):
            assert coefficient(g, ori.outdegree_vector()) != 0
    elapsed = time.monotonic() - t0
    _verdict(8, elapsed < 120,
             f"no-odd-cycle implies nonzero coefficient on {checked} orientations "
             f"({elapsed:.1f}s)")


def test_criterion_09_choosability_ground_truth():
    t0 = time.monotonic()
    ok_c4 = find_uncolorable_assignment(build_cycle(4), [2] * 4, 4) is None
    ok_c3_not2 = find_uncolorable_assignment(build_cycle(3), [2] * 3, 4) is not None
    ok_c3_3 = find_uncolorable_assignment(build_cycle(3), [3] * 3, 6) is None
    stress_ok = True
    cert_cases = [
        (build_cycle(4), [2] * 4),
        (build_cycle(3), [3] * 3),
        (build_path(4), [2] * 4),
        (cartesian_product(build_cycle(5), build_cycle(4)), [3] * 20),
    ]
    for g, f in cert_cases:
        cert = coefficient_choosability_certificate(g, f)
        assert cert is not None and check_certificate(cert).ok
        report = random_list_stress(g, f, 1000, seed=1729)
        stress_ok = stress_ok and report["failures"] == []
    elapsed = time.monotonic() - t0
    _verdict(9, ok_c4 and ok_c3_not2 and ok_c3_3 and stress_ok and elapsed < 120,
             f"C4 2-choosable, C3 needs 3, all certificates survive 1000 stress "
             f"trials ({elapsed:.1f}s)")


def test_criterion_10_doubling_laws_and_plans():
    t0 = time.monotonic()
    for name, g in even_degree_zoo(8):
        value = squared_central_check(g)  # raises on both-ways mismatch
        oracle = mirror_sign(g) * sum(c * c for c in expand_polynomial(g).values())
        assert value == oracle, name
    for g in [build_path(4), build_complete(4), build_cycle(5)]:
        squared_central_check(g)
    plans = [
        build_plan(build_cycle(3), (2, 1, 0)),
        build_plan(build_path(2), (1, 0)),
        build_plan(build_complete(4), (0, 1, 2, 3)),
    ]
    expected_m = [0, 1, 2]
    for plan, m in zip(plans, expected_m):
        assert plan.m == m
        cert = epsilon_search(plan)
        assert check_certificate(cert).ok
    assert plans[2].f == (4, 4, 4, 4)
    elapsed = time.monotonic() - t0
    _verdict(10, elapsed < 60,
             f"sum-of-squares law on the zoo; sign search succeeds for "
             f"m = 0, 1, 2 with K4 plan f = 4 ({elapsed:.1f}s)")


def test_criterion_11_cycle_power_central():
    t0 = time.monotonic()
    q = build_cycle_power(6, 2)
    central = coefficient(q, central_exponent(q), method="both")
    from graphpoly.transfer import even_cycle_certificate

    cert = even_cycle_certificate(q, 4)
    elapsed = time.monotonic() - t0
    ok = central != 0 and cert is not None and cert["at_bound"] == 4 \
        and check_certificate(cert).ok and elapsed < 60
    _verdict(11, ok,
             f"central coefficient of C6^2 is {central} != 0; "
             f"AT(C6^2 x C_even) <= 4 ({elapsed:.1f}s)")
