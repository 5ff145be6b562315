"""The lean DP step, edge-order planner and degree-sum window against their plain forms.

reference_dp holds the step that tests every bound on every state and
always merges duplicates, and the planner that estimates every candidate
in full.  The versions in graphpoly.coefficients must return identical
arrays and identical edge orders.  support cuts its window to the
exponents that sum to |E|; the scan of the uncut window must hold the
same entries.
"""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import graphpoly.coefficients as coefficients
import reference_dp
from conftest import alon_tarsi_zoo, even_degree_zoo
from graphpoly.errors import BudgetExceededError
from graphpoly.graphio import parse_graph_spec
from graphpoly.graphs import (
    DIFF,
    SUM,
    build_complete,
    build_cycle,
    build_petersen,
    cartesian_product,
    make_graph,
)
from graphpoly.transfer import build_phi


def _assert_identical(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the step on random layers
# ---------------------------------------------------------------------------

# three-bit fields: u at bit 0, v at bit 3, and two bits of another vertex
SU, SV, MASK = 0, 3, 7


def _layer(rng: random.Random, dtype: str):
    keys = sorted(rng.sample(range(1 << 8), rng.randint(1, 60)))
    coef = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in keys]
    if dtype == "object":
        # past int64 in both arrays: a bit above 2^70 in every key, and
        # coefficients near 2^80
        keys = np.array([k + (1 << 70) for k in keys], dtype=object)
        coef = np.array([c << 80 for c in coef], dtype=object)
        return keys, coef
    return np.array(keys, dtype=np.int64), np.array(coef, dtype=np.int64)


@pytest.mark.parametrize("dtype", ["int64", "object"])
@pytest.mark.parametrize("diff", [True, False], ids=["DIFF", "SUM"])
@pytest.mark.parametrize("collide", [True, False], ids=["colliding", "distinct"])
@pytest.mark.parametrize("active", list(itertools.product([False, True], repeat=4)),
                         ids=lambda a: "".join("ab"[x] for x in a))
def test_step_matches_the_reference_step(dtype, diff, collide, active):
    # the colliding layers run the duplicate merge, the distinct ones never
    assert bool(_check_random_steps(dtype, diff, collide, active, 40)) == collide


def _check_random_steps(dtype, diff, collide, active, layers, piece=None) -> int:
    # active flags, in order: cap_u, need_u, cap_v, need_v; an inactive
    # bound is None for the lean step and a bound no state breaks for the
    # reference (a cap above every field, a need of 0).  piece, if given,
    # sets the piece size from the layer size.  Returns the number of
    # layers whose step summed a repeated key.
    rng = random.Random(repr((dtype, diff, collide, active)))
    # choosing v adds one to v's field; choosing u adds one to u's field,
    # and in the distinct layers also a bit that no key of the up half has
    d_hi = 1 << SV
    d_lo = (1 << SU) + (0 if collide else 1 << 9)
    merges = 0
    for _ in range(layers):
        keys, coef = _layer(rng, dtype)
        bounds = [rng.randint(0, MASK) if on else None for on in active]
        cap_u, need_u, cap_v, need_v = bounds
        size = coefficients.DP_PIECE_STATES if piece is None else piece(keys.size)
        with mock.patch.object(coefficients, "DP_PIECE_STATES", size):
            lean = coefficients._edge_step(keys, coef, (SU, MASK, cap_u, need_u),
                                           (SV, MASK, cap_v, need_v), d_hi, d_lo, diff)
        full = [MASK + 1 if cap_u is None else cap_u, need_u or 0, MASK + 1 if cap_v is None else cap_v,
                need_v or 0]
        expected = reference_dp._edge_step(keys, coef, (SU, MASK, *full[:2]), (SV, MASK, *full[2:]),
                                           d_hi, d_lo, diff)
        _assert_identical(lean, expected)
        cu, cv = [int(k) >> SU & MASK for k in keys], [int(k) >> SV & MASK for k in keys]
        up = sum(y < full[2] and x >= full[1] for x, y in zip(cu, cv))
        down = sum(x < full[0] and y >= full[3] for x, y in zip(cu, cv))
        merges += up + down > expected[0].size
    return merges


# piece sizes forced on the step, from the layer size: 1, 2 and 3 states, and one state less
# than the layer, which leaves a one-state last piece
PIECES = {"1": lambda n: 1, "2": lambda n: 2, "3": lambda n: 3, "less-one": lambda n: max(1, n - 1)}


@pytest.mark.parametrize("dtype", ["int64", "object"])
@pytest.mark.parametrize("collide", [True, False], ids=["colliding", "distinct"])
@pytest.mark.parametrize("piece", PIECES.values(), ids=PIECES.keys())
def test_step_in_pieces_matches_the_reference_step(piece, dtype, collide):
    merges = 0
    with mock.patch.object(coefficients, "_merge", wraps=coefficients._merge) as merge:
        for diff in (True, False):
            for active in itertools.product([False, True], repeat=4):
                merges += _check_random_steps(dtype, diff, collide, active, 5, piece)
    assert bool(merges) == collide
    assert merge.call_count > 2 * 16 * 5  # some step ran as more than one piece


# ---------------------------------------------------------------------------
# the memory of a step in pieces
# ---------------------------------------------------------------------------

def _wide_layer(dtype: str, n: int):
    """n sorted distinct states: u's count (0-6) at bit 0, v's (0-6) at bit 3, and the state's
    index above them; past int64 like _layer in the object dtype."""
    rng = np.random.default_rng(n)
    keys = np.arange(n, dtype=np.int64) << 6 | rng.integers(0, 7, n) << SV | rng.integers(0, 7, n)
    coef = rng.integers(1, 10, n) * rng.choice([-1, 1], n)
    if dtype == "object":
        return keys.astype(object) + (1 << 70), coef.astype(object) << 80
    return keys, coef


@pytest.mark.parametrize("dtype", ["int64", "object"])
@pytest.mark.parametrize("diff", [True, False], ids=["DIFF", "SUM"])
@pytest.mark.parametrize("bounds", [(5, 1, 5, 1), (None,) * 4], ids=["bounded", "unbounded"])
def test_step_in_pieces_peaks_at_its_input_its_output_and_a_few_pieces(dtype, diff, bounds):
    # 120,000 states in pieces of 2^10.  Choosing u also sets a bit above every key, so no two
    # states meet and the output fills the capacity that the masks count.  A step that kept
    # its pieces in a list and then joined them held a second copy of its output keys: it
    # peaked 61 to 121 pieces above input, output and masks on int64 layers, 10 to 20 on
    # object layers; this step peaks under 3 pieces above them.
    n, piece = 120_000, 1 << 10
    cap_u, need_u, cap_v, need_v = bounds
    d_lo = (1 << SU) + (1 << (75 if dtype == "object" else 40))
    _wide_layer(dtype, n)  # numpy's lazy set-up is not the layer's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        keys, coef = _wide_layer(dtype, n)
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with mock.patch.object(coefficients, "DP_PIECE_STATES", piece):
            out = coefficients._edge_step(keys, coef, (SU, MASK, cap_u, need_u), (SV, MASK, cap_v, need_v),
                                          1 << SV, d_lo, diff)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    inputs, outputs = entry - base, current - entry
    masks = 0 if cap_u is None else 2 * n  # a byte a state for each endpoint's mask
    assert peak - base <= inputs + outputs + masks + 4 * piece * inputs // n
    assert out[0].size > n  # both halves reached the output
    for a in out:  # each layer owns a buffer of exactly its size
        assert a.base is None and a.nbytes == a.size * a.itemsize
    full = [MASK + 1 if cap_u is None else cap_u, need_u or 0, MASK + 1 if cap_v is None else cap_v, need_v or 0]
    _assert_identical(out, reference_dp._edge_step(keys, coef, (SU, MASK, *full[:2]), (SV, MASK, *full[2:]),
                                                   1 << SV, d_lo, diff))


# ---------------------------------------------------------------------------
# the step inside whole scans, against the reference step with every bound
# ---------------------------------------------------------------------------

def _scan_cases():
    c3c3 = cartesian_product(build_cycle(3), build_cycle(3))
    c4c4 = cartesian_product(build_cycle(4), build_cycle(4))
    c3c5 = cartesian_product(build_cycle(3), build_cycle(5))
    cases = [("digon70-central", make_graph(2, [(1, 2)] * 70), (35, 35), (35, 35))]  # past int64
    for name, g in [("C3xC3", c3c3), ("C4xC4", c4c4), ("C3xC5", c3c5), ("K5", build_complete(5)),
                    ("petersen", build_petersen())]:
        deg = g.degree_vector()
        half = tuple(d // 2 for d in deg)
        cases.append((f"{name}-central", g, half, half))
        cases.append((f"{name}-cap2", g, (0,) * g.n, tuple(min(2, d) for d in deg)))
        if g.num_edges <= 18:  # the almost-central window of the larger products takes seconds
            cases.append((f"{name}-window", g, tuple(max(0, x - 1) for x in half), tuple(x + 1 for x in half)))
    return cases


@pytest.mark.parametrize("name,g,floor,cap", _scan_cases(), ids=[c[0] for c in _scan_cases()])
def test_scan_layers_match_the_reference_step_with_every_bound(name, g, floor, cap):
    _check_scan_layers(g, floor, cap)


@pytest.mark.parametrize("name,g,floor,cap", _scan_cases(), ids=[c[0] for c in _scan_cases()])
@pytest.mark.parametrize("piece", PIECES.values(), ids=PIECES.keys())
def test_scan_layers_in_pieces_match_the_reference_step(piece, name, g, floor, cap):
    with mock.patch.object(coefficients, "_merge", wraps=coefficients._merge) as merge:
        steps = _check_scan_layers(g, floor, cap, piece)
    assert merge.call_count > steps  # some step ran as more than one piece


def _check_scan_layers(g, floor, cap, piece=None) -> int:
    """Runs the scan with every step checked against the reference; returns the step count.
    piece, if given, sets each step's piece size from its layer size."""
    deg = g.degree_vector()
    hi = [min(c, d) for c, d in zip(cap, deg)]
    order = iter(coefficients._plan_order(g, floor, cap))
    done = [0] * (g.n + 1)
    lean_step = coefficients._edge_step
    steps = 0

    def checked_step(keys, coef, field_u, field_v, d_hi, d_lo, diff):
        # the reference gets the true cap and need of both endpoints
        nonlocal steps
        u, v, _ = g.edges[next(order)]
        full = []
        for t, (shift, mask, _, _) in ((u, field_u), (v, field_v)):
            done[t] += 1
            full.append((shift, mask, hi[t - 1], floor[t - 1] - deg[t - 1] + done[t]))
        size = coefficients.DP_PIECE_STATES if piece is None else piece(keys.size)
        with mock.patch.object(coefficients, "DP_PIECE_STATES", size):
            out = lean_step(keys, coef, field_u, field_v, d_hi, d_lo, diff)
        _assert_identical(out, reference_dp._edge_step(keys, coef, *full, d_hi, d_lo, diff))
        assert all(a.base is None for a in out)  # each layer owns its buffer, and no larger one
        steps += 1
        return out

    with mock.patch.object(coefficients, "_edge_step", checked_step):
        coefficients._scan(g, floor, cap, 10**9)
    assert steps
    return steps


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

def _relabel(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u - 1], perm[v - 1], tag) for u, v, tag in g.edges])


def _windows(g):
    deg = g.degree_vector()
    half = tuple(d // 2 for d in deg)
    yield "central", half, half
    yield "cap", (0,) * g.n, tuple(min(2, d) for d in deg)
    yield "support", (0,) * g.n, deg


def _assert_same_plan(g) -> int:
    """Asserts identical candidates, estimates and plans; returns the number
    of windows whose plan went past the 400 * m gate to the candidates."""
    deg = g.degree_vector()
    starts = sorted((t for t in range(1, g.n + 1) if deg[t - 1]), key=lambda t: deg[t - 1])[:3]
    assert coefficients._greedy_order(g) == reference_dp._greedy_order(g)
    assert coefficients._rcm_orders(g, starts) == [reference_dp._rcm_order(g, s) for s in starts]
    past_gate = 0
    for _, floor, cap in _windows(g):
        assert coefficients._plan_order(g, floor, cap) == reference_dp._plan_order(g, floor, cap)
        windows = coefficients._window_sizes(g, floor, cap)
        for order in (list(range(g.num_edges)), reference_dp._greedy_order(g)):
            full = reference_dp._estimate(g, order, floor, cap)
            assert coefficients._estimate(g, order, windows) == full
            # a stopped estimate is the full one below the stop, at least the stop otherwise
            for stop in (1, full // 2, full, full + 1):
                partial = coefficients._estimate(g, order, windows, stop)
                assert partial == full if full < stop else partial >= stop
        past_gate += reference_dp._estimate(g, range(g.num_edges), floor, cap) > 400 * g.num_edges
    return past_gate


@pytest.mark.parametrize("name,g", even_degree_zoo(12), ids=[name for name, _ in even_degree_zoo(12)])
def test_planner_matches_the_reference_on_the_zoo(name, g):
    _assert_same_plan(g)


@pytest.mark.parametrize("a,b", [(4, 4), (3, 5)], ids=["C4xC4", "C3xC5"])
def test_planner_matches_the_reference_on_relabellings(a, b):
    base = cartesian_product(build_cycle(a), build_cycle(b))
    rng = random.Random(a * 10 + b)
    past_gate = sum(_assert_same_plan(_relabel(base, rng)) for _ in range(50))
    assert past_gate >= 50  # the candidates themselves were compared


# ---------------------------------------------------------------------------
# the degree-sum window against the uncut window
# ---------------------------------------------------------------------------

_AT_ZOO = alon_tarsi_zoo()  # odd degrees included


@st.composite
def _zoo_windows(draw):
    """A relabelled alon_tarsi_zoo graph with random tags and up to two isolated
    vertices, and a window anywhere in [0, deg + 1] or within 1 of an outdegree
    vector, whose entries sum to |E|."""
    g = _AT_ZOO[draw(st.integers(0, len(_AT_ZOO) - 1))]
    n = g.n + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(1, n + 1)))
    tags = draw(st.lists(st.sampled_from((SUM, DIFF)), min_size=g.num_edges, max_size=g.num_edges))
    h = make_graph(n, [(perm[u - 1], perm[v - 1], t) for (u, v, _), t in zip(g.edges, tags)])
    if draw(st.booleans()):
        cap = [draw(st.integers(0, d + 1)) for d in h.degree_vector()]
        floor = [draw(st.integers(0, c)) for c in cap]
    else:
        heads = draw(st.lists(st.booleans(), min_size=h.num_edges, max_size=h.num_edges))
        out = [0] * n
        for (u, v, _), head in zip(h.edges, heads):
            out[(v if head else u) - 1] += 1
        # floor and cap shifted by -1, 0 or +1 each: sums below, at and above |E|
        shifts = [sorted(draw(st.lists(st.integers(-1, 1), min_size=2, max_size=2))) for _ in out]
        floor = [max(0, x + a) for x, (a, _) in zip(out, shifts)]
        cap = [max(f, x + b) for f, x, (_, b) in zip(floor, out, shifts)]
    return h, tuple(floor), tuple(cap)


_C4 = build_cycle(4)
_TRIANGLE_AND_TWO = make_graph(5, [(1, 2), (2, 3), (1, 3)])  # vertices 4 and 5 have degree 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_zoo_windows())
@example((_C4, (0, 0, 0, 0), (1, 1, 1, 0)))  # the caps sum below |E|
@example((_C4, (2, 1, 1, 1), (2, 2, 2, 2)))  # the floors sum above |E|
@example((_C4, (0, 0, 0, 0), (2, 1, 1, 0)))  # the caps sum to |E|: one exponent
@example((_C4, (1, 1, 1, 1), (1, 1, 1, 1)))  # floor = cap everywhere
@example((_TRIANGLE_AND_TWO, (0, 0, 0, 0, 0), (2, 2, 2, 1, 0)))  # a cap above a degree
@example((_TRIANGLE_AND_TWO, (0, 0, 0, 1, 0), (2, 2, 2, 1, 1)))  # a floor above a degree
def test_degree_sum_window_keeps_the_entries_and_witness_of_the_uncut_window(case):
    g, floor, cap = case
    try:
        uncut = coefficients._scan(g, floor, cap, 10**6)
    except BudgetExceededError:
        reject()
    cut = coefficients.support(g, cap, floor=floor)
    assert len(cut) == len(uncut)
    assert cut.witness() == uncut.witness()
    assert cut.entries == uncut.entries


def test_a_window_with_no_exponent_of_degree_m_runs_no_dp():
    with mock.patch.object(coefficients, "_scan", side_effect=AssertionError("a DP ran")):
        for floor, cap in [((0,) * 4, (1, 1, 1, 0)), ((2, 1, 1, 1), (2,) * 4), ((0,) * 4, (0,) * 4)]:
            sup = coefficients.support(_C4, cap, floor=floor)
            assert len(sup) == 0 and sup.witness() is None and sup.entries == {}
    with pytest.raises(ValueError, match="floor exceeds cap"):  # the user's window is still checked
        coefficients.support(_C4, (1, 1, 1, 0), floor=(0, 0, 0, 1))


def _phi_graphs():
    graphs = [(name, g) for name, g in even_degree_zoo(12) if g.num_edges]
    graphs += [(spec, parse_graph_spec(spec)) for spec in (
        "cycle:5", "cyclepower:8:2", "cyclepower:10:2", "cyclepower:11:2", "cyclepower:8:3",
        "product:cycle:3:cycle:3")]
    rng = random.Random(17)
    graphs += [(f"{name}-relabelled", _relabel(g, rng)) for name, g in graphs[-3:]]
    return graphs


@pytest.mark.parametrize("name,g", _phi_graphs(), ids=[name for name, _ in _phi_graphs()])
def test_build_phi_scans_the_same_layer_as_the_uncut_window(name, g):
    half = coefficients.central_exponent(g)
    uncut = coefficients._scan(g, tuple(max(0, x - 1) for x in half), tuple(x + 1 for x in half), 10**8)
    scan = build_phi(g).scan
    _assert_identical((scan.keys, scan.coef), (uncut.keys, uncut.coef))
    assert (scan.shift, scan.mask, scan.fixed) == (uncut.shift, uncut.mask, uncut.fixed)
