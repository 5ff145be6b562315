import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpoly import transfer
from graphpoly.certificates import check_certificate
from graphpoly.coefficients import central_exponent, coefficient, mirror_sign
from graphpoly.errors import BudgetExceededError, GraphPolyError, InvariantViolationError
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


def _assert_counts_match_oracle(phi, name):
    oracle = _oracle_blocks(phi)
    assert phi.block_nnz() == {s: sum(map(len, rows)) for s, rows in oracle.items()}, name
    for s, rows in oracle.items():
        assert any(phi.blocks[s]) == any(rows), (name, s)


@st.composite
def padded_relabellings(draw):
    """A zoo graph on at most 8 vertices or K3 with every edge 40-fold (entries
    of 89 bits), with up to two isolated vertices (fixed scan fields), relabelled,
    with random SUM/DIFF tags."""
    pool = [(n, g) for n, g in even_degree_zoo(8) if g.n <= 8]
    pool.append(("K3x40", make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40)))
    name, g = draw(st.sampled_from(pool))
    n = g.n + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(1, n + 1)))
    tags = draw(st.lists(st.sampled_from([DIFF, SUM]), min_size=g.num_edges, max_size=g.num_edges))
    edges = [(perm[u - 1], perm[v - 1], tag) for (u, v, _), tag in zip(g.edges, tags)]
    return name, make_graph(n, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(padded_relabellings())
@example(("K3x40", make_graph(5, [(2, 5, DIFF), (5, 4, SUM), (2, 4, DIFF)] * 40)))
def test_every_block_and_count_match_the_oracle(named):
    name, q = named
    phi = build_phi(q)
    _assert_blocks_match_oracle(phi, name)
    _assert_counts_match_oracle(phi, name)


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
        lambda: cycle_cover_certificate(build_cycle(13)),  # an orientation's outdegrees
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
    (make_graph(2, [(1, 2)] * 1100), 4),  # entries of 1095 bits, past any float64
], ids=["C3xC3-k24", "cyclepower8_3-k64", "K3x40-k4", "digon1100-k4"])
def test_trace_power_matches_oracle_on_large_values(q, k):
    phi = build_phi(q)
    assert trace_power(phi, k) == _oracle_trace(_oracle_blocks(phi), k)


def _python_trace(phi, k):
    """tr(Phi^k) by square-and-multiply of each dense block in Python ints."""
    total = 0
    for s, block in phi.blocks.items():
        if 2 * s > phi.n or not any(block):
            continue
        base, power, e = block.dense().astype(object), None, k // 2
        while e:
            if e & 1:
                power = base if power is None else power.dot(base)
            e >>= 1
            if e:
                base = base.dot(base)
        total += (1 if 2 * s == phi.n else 2) * int((power * power.T).sum())
    return total


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("k", [1000, 20000])
def test_trace_power_matches_python_int_powers_at_large_k(n, k):
    # thousands of primes in stacks of thousands, and a CRT over all of them
    phi = build_phi(build_cycle(n))
    assert trace_power(phi, k) == _python_trace(phi, k)


def test_word_primes_match_trial_division():
    # the sieve must give, in order, every prime the exactness bound admits
    for dim in (1, 3, 10, 70, 462, 3432):
        bits = dim.bit_length()
        p, expected = math.isqrt((2**53 - 1) >> bits) + 1, []  # the largest p with (p-1)^2 < 2^(53-bits)
        while len(expected) < 200:
            if p % 2 and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
                expected.append(p)
            p -= 1
        got = transfer._word_primes(dim, 200).tolist()
        assert got == expected, dim
        assert dim * (got[0] - 1) ** 2 < 2**53


def test_sym_mod_is_exact_up_to_2_53():
    # the chain hands exact entries of up to 2^53 - 1 to the primes; one truncating division must
    # leave x - p trunc(x/p), in (-p, p), though a rounded quotient q would make q * p pass 2^53
    for dim in (1, 3, 70, 3432):
        for p in transfer._word_primes(dim, 40).tolist():
            ints = list(range(2**53 - 1, 2**53 - p, -(p // 97)))
            ints += [-x for x in ints]
            got = transfer._reduce(np.array(ints, dtype=np.float64), p)
            assert got.tolist() == [x % p if x >= 0 else -(-x % p) for x in ints], p


def _reference_sym_mod(m, p, scratch=None):
    """Entries of m (integers of size below 2^53 - p/2) reduced in place into [-(p-1)/2, (p-1)/2]."""
    q = np.rint(np.divide(m, p, out=scratch), out=scratch)
    m -= np.multiply(q, p, out=q)
    np.subtract(m, p, out=m, where=m > p // 2)
    np.add(m, p, out=m, where=m < -(p // 2))
    return m


def _reference_trace_mod(a, half, p):
    """tr((a^half)^2) mod p by square-and-multiply, reducing after each product."""
    scratch = np.empty_like(a)
    result = None
    while True:
        if half & 1:
            result = a if result is None else _reference_sym_mod(result @ a, p, scratch)
        half >>= 1
        if not half:
            break
        a = _reference_sym_mod(a @ a, p, scratch)
    return int(_reference_sym_mod(np.multiply(result, result.T, out=scratch).sum(axis=1), p).sum()) % p


def _reference_trace_power(phi, k):
    """tr(Phi^k) with every block reduced modulo the CRT primes from the start:
    the reference for the chain that runs exact until its products pass 2^53."""
    width = math.comb(phi.n, phi.n // 2)
    total = 0
    for s, block in phi.blocks.items():
        if 2 * s > phi.n or not any(block):
            continue
        dense = block.dense().astype(object)
        bound = 2 * int((dense**2).sum()) ** (k // 2)
        found, modulus = [], 1
        for p in transfer._word_primes(width, 4096).tolist():
            a = _reference_sym_mod((dense % p).astype(np.float64), p)
            found.append((p, _reference_trace_mod(a, k // 2, p)))
            if modulus > bound:
                break
            modulus *= p
        spare, spare_residue = found.pop()
        tr = sum(r * (modulus // p) * pow(modulus // p, -1, p) for p, r in found) % modulus
        if tr > modulus // 2:
            tr -= modulus
        assert tr % spare == spare_residue
        total += (1 if 2 * s == phi.n else 2) * tr
    return total


@settings(max_examples=80, deadline=None, derandomize=True)
@given(even_degree_relabellings(), st.sampled_from([2, 4, 6, 8, 16, 64]))
def test_trace_power_matches_the_reduce_from_the_start_reference(named, k):
    name, q = named
    phi = build_phi(q)
    assert trace_power(phi, k) == _reference_trace_power(phi, k), (name, k)


def _chain_log(monkeypatch):
    """Record (p, steps given, steps left) of every _chain run."""
    log, run = [], transfer._chain

    def logged(a, r, steps, p=None):
        left, value = run(a, r, steps, p)
        log.append((p, steps, left))
        return left, value

    monkeypatch.setattr(transfer, "_chain", logged)
    return log


@pytest.mark.parametrize("q, k, regime", [
    (build_cycle_power(11, 2), 4, "exact"),
    (build_cycle_power(10, 2), 8, "switch"),  # the trace step of the two largest blocks passes 2^53
    (build_cycle_power(8, 3), 64, "switch"),
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 26), 4, "reduced"),  # int64 entries of 57 bits
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40), 4, "reduced"),  # entries of 89 bits
], ids=["cyclepower11_2-k4", "cyclepower10_2-k8", "cyclepower8_3-k64", "K3x26-k4", "K3x40-k4"])
def test_trace_power_regimes_match_the_reference(monkeypatch, q, k, regime):
    phi = build_phi(q)
    expected = _reference_trace_power(phi, k)
    log = _chain_log(monkeypatch)
    assert trace_power(phi, k) == expected
    exact = [(given, left) for p, given, left in log if p is None]
    modular = [p for p, _, _ in log if p is not None]
    if regime == "exact":
        assert exact and all(left == "" for _, left in exact) and not modular
    elif regime == "switch":  # some block ran exact products, then continued per prime
        assert any("" != left != given for given, left in exact) and modular
    else:  # no product ran unreduced
        assert all(left == given for given, left in exact) and modular


class _LoggedNumpy:
    """numpy, with the operand dtypes of every matmul appended to products."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y, **kwargs):
        self.products.append((x.dtype, y.dtype))
        return np.matmul(x, y, **kwargs)


def _chain_products(monkeypatch):
    """Record (rows, p, steps left, operand dtypes of each product) of every _chain run."""
    numpy, log, run = _LoggedNumpy(), [], transfer._chain

    def logged(a, r, steps, p=None):
        numpy.products = []
        left, value = run(a, r, steps, p)
        log.append((a.shape[-1], p, left, numpy.products))
        return left, value

    monkeypatch.setattr(transfer, "np", numpy)
    monkeypatch.setattr(transfer, "_chain", logged)
    return log


F32, F64 = (np.dtype(np.float32),) * 2, (np.dtype(np.float64),) * 2


def test_the_middle_block_of_cyclepower_11_2_runs_float32_throughout(monkeypatch):
    # its square stays below 4.6 * 10^-4 * 2^24; the trace step sums the squares in float64
    log = _chain_products(monkeypatch)
    trace_power(build_phi(build_cycle_power(11, 2)), 4)
    assert [(p, left, products) for rows, p, left, products in log if rows == 462] == [(None, "", [F32])]


def test_the_largest_block_of_cyclepower_10_2_leaves_float32_before_its_second_square(monkeypatch):
    # B^2 reaches 17 * 2^24 on the second square, and the trace step passes 2^53
    log = _chain_products(monkeypatch)
    trace_power(build_phi(build_cycle_power(10, 2)), 8)
    exact = [(left, products) for rows, p, left, products in log if rows == 252 and p is None]
    assert exact == [("t", [F32, F64])]


@pytest.mark.parametrize("multiplicities, bound", [((1, 5, 5, 5), 0.9537), ((2, 2, 6, 6), 1.0020)],
                         ids=["below", "above"])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_a_block_at_the_float32_bound_gives_the_reference_trace(monkeypatch, multiplicities, bound, k):
    # C4 with parallel edges: block 1 has 4 rows and entries up to 2000 or 2050, so dim max^2 sits
    # just below or just above 2^24, and its first product runs in float32 or float64
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    phi = build_phi(make_graph(4, [e for e, m in zip(edges, multiplicities) for _ in range(m)]))
    dense = phi.blocks[1].dense()
    assert round(4 * int(abs(dense).max()) ** 2 / 2**24, 4) == bound
    log = _chain_products(monkeypatch)
    assert trace_power(phi, k) == _python_trace(phi, k) == _reference_trace_power(phi, k)
    first = [products[0] if products else None for rows, p, _, products in log if rows == 4 and p is None]
    assert first == [(F32 if bound < 1 else F64) if k > 2 else None]


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("k", [4, 6, 10])
def test_skew_symmetric_blocks_give_the_reference_trace(n, k):
    # B^T = -B: tr(B^(2h)) = (-1)^h ||B^h||_F^2, negative at k = 6 and 10
    phi = build_phi(build_cycle(n))
    assert phi.sigma == -1
    assert trace_power(phi, k) == _python_trace(phi, k) == _reference_trace_power(phi, k)


@pytest.mark.parametrize("q, s", [(build_cycle_power(11, 2), 5), (build_cycle_power(10, 2), 3), (build_cycle(5), 2)],
                         ids=["cyclepower11_2-s5", "cyclepower10_2-s3", "C5-s2"])
def test_gather_gives_the_same_block_in_any_window(monkeypatch, q, s):
    phi = build_phi(q)
    values = phi.scan.coef
    ext = np.concatenate(([0], values)).astype(np.float64)
    stack = np.stack([ext, -ext, 2 * ext])
    expected, expected_stack = phi.gather(s, ext), phi.gather(s, stack)
    dim = math.comb(q.n, s)
    assert np.array_equal(expected, phi.blocks[s].dense() * (-1) ** s)
    for cells in (1, dim, dim * dim):  # one row at a time, and the whole block at once
        monkeypatch.setattr(transfer, "TRACE_CHUNK_CELLS", cells)
        assert np.array_equal(phi.gather(s, ext), expected)
        assert np.array_equal(phi.gather(s, stack), expected_stack)


def test_gather_of_the_462_row_block_holds_index_temporaries_of_one_window():
    # an index cell costs 12 bytes (int64 codes, then int32 rows); the block itself is float32
    phi = build_phi(build_cycle_power(11, 2))
    ext = np.concatenate(([0], phi.scan.coef)).astype(np.float32)
    expected = phi.gather(5, ext)  # also builds the cached table of rows
    tracemalloc.start()
    try:
        got = phi.gather(5, ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < got.nbytes + 12 * transfer.TRACE_CHUNK_CELLS + 150_000


@pytest.mark.parametrize("q, k", [
    (build_cycle_power(11, 2), 4),  # exact
    (build_cycle_power(10, 2), 8),  # exact, then primes
    (build_cycle_power(8, 3), 64),
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40), 6),  # reduced from the start
    (build_cycle(5), 1000),
], ids=["cyclepower11_2-k4", "cyclepower10_2-k8", "cyclepower8_3-k64", "K3x40-k6", "C5-k1000"])
def test_trace_charge_bounds_the_cells_the_chains_write(monkeypatch, q, k):
    phi = build_phi(q)
    with pytest.raises(BudgetExceededError, match="trace matrix cells") as info:
        trace_power(phi, k, budget=0)
    charge = info.value.explored
    cells, run = [], transfer._chain

    def counted(a, r, steps, p=None):
        left, value = run(a, r, steps, p)
        cells.append((len(steps) - len(left)) * a.size)
        return left, value

    monkeypatch.setattr(transfer, "_chain", counted)
    assert trace_power(phi, k, budget=charge) == _reference_trace_power(phi, k)
    assert 0 < sum(cells) <= charge


def _modular_stacks(monkeypatch):
    """Record (rows, primes) of every modular _chain run, checking that it runs on a stack of one
    matrix per prime, one prime's included."""
    log, run = [], transfer._chain

    def logged(a, r, steps, p=None):
        if p is not None:
            assert a.ndim == 3 and len(a) == np.size(p)
            log.append((a.shape[-1], np.size(p)))
        return run(a, r, steps, p)

    monkeypatch.setattr(transfer, "_chain", logged)
    return log


@pytest.mark.parametrize("q, k", [
    (build_cycle_power(8, 3), 64),
    (cartesian_product(build_cycle(3), build_cycle(3)), 24),
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40), 4),  # Python-int coefficients
], ids=["cyclepower8_3-k64", "C3xC3-k24", "K3x40-k4"])
@pytest.mark.parametrize("chunk", ["one", "two", "partial"])
def test_trace_power_is_the_same_in_any_chunks(monkeypatch, q, k, chunk):
    phi = build_phi(q)
    expected = _reference_trace_power(phi, k)
    log = _modular_stacks(monkeypatch)
    trace_power(phi, k)
    rows = max(dim for dim, _ in log)
    count = sum(primes for dim, primes in log if dim == rows)  # the largest modular block's primes
    per = {"one": 1, "two": 2, "partial": count - 1}[chunk]
    monkeypatch.setattr(transfer, "TRACE_CHUNK_CELLS", 1 if chunk == "one" else per * rows * rows)
    log.clear()
    assert trace_power(phi, k) == expected
    sizes = [primes for dim, primes in log if dim == rows]
    assert sum(sizes) == count and max(sizes) == per
    if chunk == "one":
        assert all(primes == 1 for _, primes in log)
    elif chunk == "partial":
        assert sizes == [count - 1, 1]


@pytest.mark.parametrize("q, k", [(build_cycle(3), 2000), (build_cycle_power(8, 3), 64)],
                         ids=["C3-k2000", "cyclepower8_3-k64"])
def test_crt_primes_pass_the_lesser_of_the_frobenius_and_row_sum_bounds(monkeypatch, q, k):
    # |tr B^k| <= ||B||_F^k and <= dim ||B||_inf^k: the CRT takes the fewest primes whose product
    # passes twice the lesser bound (one more where the float log sums land within 2^-10 of it),
    # plus the spare
    phi = build_phi(q)
    log = _modular_stacks(monkeypatch)
    assert trace_power(phi, k) == _reference_trace_power(phi, k)
    width = math.comb(phi.n, phi.n // 2)
    blocks = {len(b): b.dense().astype(object)
              for s, b in phi.blocks.items() if 2 * s <= phi.n and any(b)}
    drawn_by_dim = {}
    for dim, primes in log:  # a block's primes may run as several stacks
        drawn_by_dim[dim] = drawn_by_dim.get(dim, 0) + primes
    fewer = 0
    for dim, drawn in drawn_by_dim.items():
        b = blocks[dim]
        frobenius = int((b * b).sum()) ** (k // 2)
        row_sums = dim * int(abs(b).sum(axis=1).max()) ** k
        needed = []
        for bound in (2 * frobenius, 2 * min(frobenius, row_sums)):
            product, count = 1, 0
            for p in transfer._word_primes(width, 4 * drawn).tolist():
                if product > bound:
                    break
                product, count = product * p, count + 1
            needed.append(count)
        assert drawn - 1 in (needed[1], needed[1] + 1)
        fewer += needed[1] < needed[0]
    assert fewer  # some block needs fewer primes than its Frobenius bound asks for


def test_trace_power_rejects_prime_beyond_float_bound(monkeypatch):
    # cyclepower:8:3 at k = 64 passes 2^53 mid-chain; 70 * (2^31 - 2)^2 is far above it
    monkeypatch.setattr(transfer, "_word_primes", lambda dim, count: np.full(count, 2**31 - 1))
    with pytest.raises(InvariantViolationError, match="2\\^53"):
        trace_power(build_phi(build_cycle_power(8, 3)), 64)


def _first_residue_off_by_one(monkeypatch):
    """Add one to the middle residue of the first modular chain; return its primes."""
    exact = transfer._chain
    calls = []

    def chain(a, r, steps, p=None):
        left, value = exact(a, r, steps, p)
        if p is None:
            return left, value
        calls.append(np.ravel(p))
        if len(calls) == 1:
            value, i = np.ravel(value).copy(), calls[0].size // 2
            value[i] = (value[i] + 1) % calls[0][i]
        return left, value

    monkeypatch.setattr(transfer, "_chain", chain)
    return calls


def test_trace_power_spare_prime_catches_bad_residue(monkeypatch):
    calls = _first_residue_off_by_one(monkeypatch)
    with pytest.raises(InvariantViolationError, match="spare prime"):
        trace_power(build_phi(build_cycle_power(8, 3)), 64)
    assert calls[0].size > 2  # the bad residue sits inside a stack


def test_spare_prime_failure_states_a_trace_past_the_int_str_digit_limit(monkeypatch):
    # C5 at k = 10000 has a trace of 7501 digits; Python's default limit is 4300
    _first_residue_off_by_one(monkeypatch)
    with pytest.raises(InvariantViolationError, match="spare prime"):
        trace_power(build_phi(build_cycle(5)), 10000)
