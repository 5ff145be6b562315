import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoly.certificates import check_certificate
from graphpoly.coefficients import central_exponent, coefficient, mirror_sign
from graphpoly.errors import GraphPolyError, InvariantViolationError
from graphpoly.graphs import (
    DIFF,
    SUM,
    build_complete,
    build_cycle,
    build_cycle_power,
    build_path,
    cartesian_product,
    double_edges,
    make_graph,
)
from graphpoly.transfer import (
    build_phi,
    check_trace_request,
    cycle_product_graph,
    even_cycle_certificate,
    trace_power,
)

from conftest import block_entries, even_degree_zoo, phi_entry


def bit(i):
    return 1 << (i - 1)


def test_phi_triangle_entries():
    phi = build_phi(build_cycle(3))
    assert phi.sigma == -1  # three DIFF factors: skew-symmetric
    assert phi_entry(phi, 0, 0) == 0  # central coefficient of the triangle is 0
    # Phi({1},{2}) = -[x^(0,2,1)]F = -(-1) = 1 under the canonical sign
    assert phi_entry(phi, bit(1), bit(2)) == 1
    assert phi_entry(phi, bit(2), bit(1)) == -1
    assert phi.nnz() == 12
    assert phi.block_nnz() == {0: 0, 1: 6, 2: 6, 3: 0}
    for s, t in itertools.product(range(8), repeat=2):
        assert abs(phi_entry(phi, s, t)) <= 1


def test_trace_square_triangle_is_minus_12():
    assert trace_power(build_phi(build_cycle(3)), 2) == -12


def test_trace_rejects_odd_k():
    phi = build_phi(build_cycle(3))
    with pytest.raises(ValueError):
        trace_power(phi, 3)
    with pytest.raises(ValueError):
        trace_power(phi, 0)


def test_zero_matrix_trace():
    phi = build_phi(build_complete(5))  # empty almost-central window
    assert phi.nnz() == 0
    assert trace_power(phi, 2) == 0
    assert trace_power(phi, 4) == 0


def test_build_phi_rejects_odd_degrees():
    with pytest.raises(ValueError):
        build_phi(build_path(3))


def test_build_phi_vertex_cap():
    with pytest.raises(GraphPolyError):
        build_phi(build_cycle(21))


def _phi_entry_direct(q, s_mask, t_mask):
    """Independent entry computation straight from the definition."""
    a = central_exponent(q)
    xi = list(a)
    for i in range(q.n):
        if t_mask >> i & 1:
            xi[i] += 1
        if s_mask >> i & 1:
            xi[i] -= 1
    if any(x < 0 for x in xi):
        return 0
    c = coefficient(q, tuple(xi))
    return -c if bin(s_mask).count("1") % 2 else c


def test_phi_invariants_on_zoo(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        sigma = mirror_sign(q)
        assert phi.sigma == sigma, name
        # entrywise (skew-)symmetry within blocks
        for s, block in phi.blocks.items():
            entries = block_entries(s, block)
            for (i, j), val in entries.items():
                assert entries.get((j, i), 0) == sigma * val, name
        # DIFF-only graphs: sigma is (-1)^|E|
        if q.is_diff_only():
            assert sigma == (-1) ** q.num_edges, name


def test_phi_entries_match_direct_definition(zoo8):
    for name, q in zoo8:
        if q.n > 6:
            continue
        phi = build_phi(q)
        for s_mask in range(1 << q.n):
            for t_mask in range(1 << q.n):
                expected = _phi_entry_direct(q, s_mask, t_mask)
                if bin(s_mask).count("1") != bin(t_mask).count("1"):
                    # block structure: coefficient outside homogeneous degree
                    assert expected == 0, name
                    assert phi_entry(phi, s_mask, t_mask) == 0, name
                else:
                    assert phi_entry(phi, s_mask, t_mask) == expected, (name, s_mask, t_mask)


def test_nonzero_trace_law(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        nz = phi.nnz() != 0
        assert (trace_power(phi, 2) != 0) == nz, name
        if q.n <= 8:
            assert (trace_power(phi, 4) != 0) == nz, name


def test_sign_law(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        if phi.nnz() == 0:
            continue
        t2, t4 = trace_power(phi, 2), trace_power(phi, 4)
        if phi.sigma == 1:
            assert t2 > 0 and t4 > 0, name
        else:
            # skew: eigenvalues imaginary, so sign(tr Phi^k) = (-1)^(k/2)
            assert t2 < 0 and t4 > 0, name


@pytest.mark.parametrize("factory", [
    lambda: build_cycle(3),
    lambda: build_cycle(4),
    lambda: build_cycle(5),
    lambda: double_edges(build_cycle(3)),
    lambda: make_graph(3, list(build_cycle(3).edges) + [(1, 2), (1, 2)]),
])
@pytest.mark.parametrize("k", [2, 4])
def test_trace_matches_direct_product_central(factory, k):
    q = factory()
    if not q.is_diff_only():
        pytest.skip("product oracle needs DIFF-only factors")
    tr = trace_power(build_phi(q), k)
    product = cycle_product_graph(q, k)
    direct = coefficient(product, central_exponent(product))
    assert abs(tr) == abs(direct)


def test_even_cycle_certificate_bounds():
    cert = even_cycle_certificate(build_cycle(5), 4)
    assert cert["at_bound"] == 3
    assert check_certificate(cert).ok
    cert = even_cycle_certificate(build_cycle_power(6, 2), 4)
    assert cert["at_bound"] == 4  # power parameter + 2
    assert check_certificate(cert).ok


def test_even_cycle_certificate_edgeless():
    cert = even_cycle_certificate(make_graph(3, []), 6)
    assert cert["witness_exponent"] == [0, 0, 0]
    assert cert["at_bound"] == 2
    assert check_certificate(cert).ok


def test_even_cycle_certificate_empty_window():
    assert even_cycle_certificate(build_complete(5), 4) is None


def test_cycle_power_central_nonzero_when_divisible():
    # power p = 2, length divisible by p + 1
    q = build_cycle_power(6, 2)
    assert coefficient(q, central_exponent(q)) != 0


def test_phi_generalized_polynomial():
    # the sign-search route rests on transfer matrices of polynomials with
    # mixed +/- factors: symmetry flips with the DIFF count, not |E|
    from graphpoly.doubling import build_plan, epsilon_search, plan_polynomial

    plan = build_plan(build_complete(4), (0, 1, 2, 3))
    cert = epsilon_search(plan)
    q = plan_polynomial(plan, cert["epsilon"])
    assert not q.is_diff_only()
    phi = build_phi(q)
    assert phi.sigma == mirror_sign(q)
    for s, block in phi.blocks.items():
        entries = block_entries(s, block)
        for (i, j), val in entries.items():
            assert entries.get((j, i), 0) == phi.sigma * val
    assert phi.nnz() != 0
    assert trace_power(phi, 2) != 0
    assert trace_power(phi, 4) != 0


def _matmul_py(a, b):
    """Sparse big-integer product of dict rows: the reference for trace_power."""
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: x for j, x in acc.items() if x})
    return out


def _oracle_blocks(phi):
    """Dict rows of every block, fanned out entry by entry from phi.scan.

    The reference for build_phi: the subsets of one size rank in
    increasing order of their bitmasks, and each scanned coefficient is
    stored once for every subset of its half-degree positions.
    """
    n, a = phi.n, phi.a
    index, blocks = {}, {}
    for s in range(n + 1):
        masks = [m for m in range(1 << n) if bin(m).count("1") == s]
        index[s] = {m: i for i, m in enumerate(masks)}
        blocks[s] = [dict() for _ in masks]
    for xi, c in phi.scan.entries.items():
        s0 = sum(1 << i for i in range(n) if xi[i] == a[i] - 1)
        t0 = sum(1 << i for i in range(n) if xi[i] == a[i] + 1)
        free = [i for i in range(n) if xi[i] == a[i]]
        for r in range(len(free) + 1):
            for comb in itertools.combinations(free, r):
                x = sum(1 << i for i in comb)
                size = bin(s0 | x).count("1")
                blocks[size][index[size][s0 | x]][index[size][t0 | x]] = -c if size % 2 else c
    return blocks


def _assert_blocks_match_oracle(phi, name):
    oracle = _oracle_blocks(phi)
    assert sorted(phi.blocks) == sorted(oracle), name
    for s, rows in oracle.items():
        assert len(phi.blocks[s]) == len(rows), (name, s)
        expected = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
        assert block_entries(s, phi.blocks[s]) == expected, (name, s)


def test_blocks_match_per_entry_fan_out(zoo12):
    for name, q in zoo12:
        _assert_blocks_match_oracle(build_phi(q), name)
    # entries of 89 bits
    _assert_blocks_match_oracle(build_phi(make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40)), "K3x40")


@st.composite
def even_degree_relabellings(draw):
    """A zoo graph on at most 8 vertices, relabelled, with random SUM/DIFF tags."""
    name, g = draw(st.sampled_from([(n, g) for n, g in even_degree_zoo(8) if g.n <= 8]))
    perm = draw(st.permutations(range(1, g.n + 1)))
    tags = draw(st.lists(st.sampled_from([DIFF, SUM]), min_size=g.num_edges, max_size=g.num_edges))
    edges = [(perm[u - 1], perm[v - 1], tag) for (u, v, _), tag in zip(g.edges, tags)]
    return name, make_graph(g.n, edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(even_degree_relabellings())
def test_blocks_match_per_entry_fan_out_on_relabellings(named):
    name, q = named
    _assert_blocks_match_oracle(build_phi(q), name)


def test_upper_blocks_mirror_the_lower_ones(zoo12):
    # Phi(V \ S, V \ T) = (-1)^n sigma Phi(S, T), and complementing reverses the rank order
    for name, q in zoo12:
        phi = build_phi(q)
        for s in range(q.n + 1):
            last = len(phi.blocks[s]) - 1
            mirrored = {(last - i, last - j): (-1) ** q.n * phi.sigma * v
                        for (i, j), v in block_entries(s, phi.blocks[s]).items()}
            assert block_entries(q.n - s, phi.blocks[q.n - s]) == mirrored, (name, s)


def test_build_phi_checks_the_mirror_law_on_the_scan(monkeypatch):
    from graphpoly import transfer

    q = build_cycle_power(8, 2)
    scan = transfer.almost_central_scan(q)
    # row i holds the i-th decoded exponent; its mirror is another row
    i = next(i for i, x in enumerate(scan.entries) if x != central_exponent(q))
    coef = scan.coef.copy()
    coef[i] *= 2
    altered = dataclasses.replace(scan, coef=coef)
    dropped = dataclasses.replace(scan, keys=np.delete(scan.keys, i), coef=np.delete(scan.coef, i))
    assert altered.entries == {**scan.entries, list(scan.entries)[i]: 2 * scan.coef[i]}
    assert dropped.entries == {x: c for x, c in scan.entries.items() if x != list(scan.entries)[i]}
    # one key moved, still sorted, its coefficient kept: only the keys lose their mirror
    keys = scan.keys.copy()
    keys[next(j for j in range(len(keys) - 1) if keys[j] + 1 < keys[j + 1])] += 1
    moved = dataclasses.replace(scan, keys=keys)
    for forged in (altered, dropped, moved):
        monkeypatch.setattr(transfer, "almost_central_scan", lambda q, budget=None, scan=forged: scan)
        with pytest.raises(InvariantViolationError, match="mirror law"):
            build_phi(q)


def test_nonzero_count_before_the_fan_out_is_the_fan_out(zoo12, monkeypatch):
    # the cap is checked on the count of the key fields; a cap one below the
    # built Phi's nonzeros must refuse, naming exactly that count
    from graphpoly import transfer

    for name, q in zoo12:
        nnz = build_phi(q).nnz()
        with monkeypatch.context() as m:
            m.setattr(transfer, "PHI_NNZ_CAP", nnz - 1)
            with pytest.raises(GraphPolyError, match=rf"of {nnz} nonzeros refused \(cap {nnz - 1}\)$"):
                build_phi(q)


def test_fast_paths_never_decode_the_scan(monkeypatch):
    from graphpoly import coefficients
    from graphpoly.choosability import coefficient_choosability_certificate
    from graphpoly.coefficients import alon_tarsi_number_exact
    from graphpoly.doubling import cycle_cover_certificate

    c3c4 = cartesian_product(build_cycle(3), build_cycle(4))
    runs = [
        lambda: even_cycle_certificate(build_cycle_power(8, 2), 4),
        lambda: check_certificate(even_cycle_certificate(build_cycle_power(8, 2), 4)).ok,
        lambda: coefficient(c3c4, central_exponent(c3c4)),
        lambda: alon_tarsi_number_exact(c3c4),
        lambda: coefficient_choosability_certificate(c3c4, [3] * 12),
        lambda: cycle_cover_certificate(build_complete(4)),
        lambda: cycle_cover_certificate(build_cycle(13)),  # over TRACE_VERTEX_CAP: no Phi
    ]
    expected = [run() for run in runs]

    def refuse(self):
        raise AssertionError("scan decoded")

    monkeypatch.setattr(coefficients.SupportMap, "entries", property(refuse))
    assert [run() for run in runs] == expected
    assert expected[1] is True and None not in expected
    with pytest.raises(AssertionError, match="scan decoded"):
        build_phi(build_cycle(3)).scan.entries


def test_blocks_keep_the_read_contract_of_the_benchmark(zoo12):
    # perfbench/spans.py reads len(block) as the block dimension and
    # any(block) as "the block has a nonzero entry" on phi.blocks.values()
    for name, q in zoo12:
        for s, block in build_phi(q).blocks.items():
            assert len(block) == math.comb(q.n, s), (name, s)
            assert any(block) == bool(block_entries(s, block)), (name, s)
            assert sum(block) == len(block_entries(s, block)), (name, s)


def test_dense_block_cap_admits_14_vertices_and_refuses_16():
    check_trace_request(14, 4)  # C(14, 7) = 3432 rows
    with pytest.raises(GraphPolyError, match="12870x12870"):
        check_trace_request(16, 4)
    with pytest.raises(GraphPolyError, match="dense cap"):
        trace_power(build_phi(make_graph(16, [])), 2)  # Phi is the identity


def _oracle_trace(blocks, k):
    """tr(Phi^k) by sparse big-integer products of oracle dict rows."""
    total = 0
    for rows in blocks.values():
        power = None
        base, e = rows, k // 2
        while e:
            if e & 1:
                power = base if power is None else _matmul_py(power, base)
            e >>= 1
            if e:
                base = _matmul_py(base, base)
        total += sum(v * power[j].get(i, 0) for i, row in enumerate(power) for j, v in row.items())
    return total


def test_trace_power_matches_big_integer_oracle(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        # the oracle squares C11's and C12's dense blocks in 3 s and 13 s
        for k in (2, 4) if q.n <= 10 else (2,):
            assert trace_power(phi, k) == _oracle_trace(_oracle_blocks(phi), k), (name, k)


@pytest.mark.parametrize("q, k", [
    (cartesian_product(build_cycle(3), build_cycle(3)), 24),  # several primes
    (build_cycle_power(8, 3), 64),  # about 26 primes on the largest block
    # entries of 89 bits and a trace of 361 bits: no fixed-width cast survives
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40), 4),
], ids=["C3xC3-k24", "cyclepower8_3-k64", "K3x40-k4"])
def test_trace_power_matches_oracle_on_large_values(q, k):
    phi = build_phi(q)
    assert trace_power(phi, k) == _oracle_trace(_oracle_blocks(phi), k)


def test_trace_power_rejects_prime_beyond_float_bound(monkeypatch):
    from graphpoly import transfer

    # 4 * ((2^31 - 2)/2)^2 is far above 2^53
    monkeypatch.setattr(transfer, "_word_primes", lambda dim: itertools.repeat(2**31 - 1))
    with pytest.raises(InvariantViolationError, match="2\\^53"):
        trace_power(build_phi(build_cycle(4)), 4)


def test_trace_power_spare_prime_catches_bad_residue(monkeypatch):
    from graphpoly import transfer

    exact = transfer._trace_square_power_mod
    calls = []

    def first_residue_off_by_one(a, half, p):
        calls.append(p)
        return (exact(a, half, p) + (len(calls) == 1)) % p

    monkeypatch.setattr(transfer, "_trace_square_power_mod", first_residue_off_by_one)
    with pytest.raises(InvariantViolationError, match="spare prime"):
        trace_power(build_phi(build_cycle(5)), 4)
