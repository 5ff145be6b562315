import itertools

import pytest

from graphpoly.certificates import check_certificate
from graphpoly.coefficients import central_exponent, coefficient, mirror_sign
from graphpoly.errors import GraphPolyError, InvariantViolationError
from graphpoly.graphs import (
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
    cycle_product_graph,
    even_cycle_certificate,
    product_central_via_trace,
    trace_power,
)


def bit(i):
    return 1 << (i - 1)


def test_phi_triangle_entries():
    phi = build_phi(build_cycle(3))
    assert phi.sigma == -1  # three DIFF factors: skew-symmetric
    assert phi.entry(0, 0) == 0  # central coefficient of the triangle is 0
    # Phi({1},{2}) = -[x^(0,2,1)]F = -(-1) = 1 under the canonical sign
    assert phi.entry(bit(1), bit(2)) == 1
    assert phi.entry(bit(2), bit(1)) == -1
    assert phi.nnz() == 12
    assert phi.block_nnz() == {0: 0, 1: 6, 2: 6, 3: 0}
    for s, t in itertools.product(range(8), repeat=2):
        assert abs(phi.entry(s, t)) <= 1


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
    assert phi.is_zero()
    assert trace_power(phi, 2) == 0
    assert trace_power(phi, 4) == 0


def test_build_phi_rejects_odd_degrees():
    with pytest.raises(ValueError):
        build_phi(build_path(3))


def test_build_phi_vertex_cap():
    with pytest.raises(GraphPolyError):
        build_phi(build_cycle(12), vertex_cap=10)


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
        n = q.n
        # entrywise (skew-)symmetry within blocks
        for s in range(n + 1):
            for i in range(len(phi.subsets[s])):
                row = phi.blocks[s][i]
                for j, val in row.items():
                    assert phi.blocks[s][j].get(i, 0) == sigma * val, name
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
                    assert phi.entry(s_mask, t_mask) == 0, name
                else:
                    assert phi.entry(s_mask, t_mask) == expected, (name, s_mask, t_mask)


def test_nonzero_trace_law(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        nz = not phi.is_zero()
        assert (trace_power(phi, 2) != 0) == nz, name
        if q.n <= 8:
            assert (trace_power(phi, 4) != 0) == nz, name


def test_sign_law(zoo12):
    for name, q in zoo12:
        phi = build_phi(q)
        if phi.is_zero():
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
    tr = product_central_via_trace(q, k)
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
    for s in range(q.n + 1):
        for i in range(len(phi.subsets[s])):
            for j, val in phi.blocks[s][i].items():
                assert phi.blocks[s][j].get(i, 0) == phi.sigma * val
    assert not phi.is_zero()
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


def _oracle_trace(phi, k):
    total = 0
    for rows in phi.blocks.values():
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
            assert trace_power(phi, k) == _oracle_trace(phi, k), (name, k)


@pytest.mark.parametrize("q, k", [
    (cartesian_product(build_cycle(3), build_cycle(3)), 24),  # several primes
    (build_cycle_power(8, 3), 64),  # about 26 primes on the largest block
    # entries of 89 bits and a trace of 361 bits: no fixed-width cast survives
    (make_graph(3, [(1, 2), (2, 3), (1, 3)] * 40), 4),
], ids=["C3xC3-k24", "cyclepower8_3-k64", "K3x40-k4"])
def test_trace_power_matches_oracle_on_large_values(q, k):
    phi = build_phi(q)
    assert trace_power(phi, k) == _oracle_trace(phi, k)


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
