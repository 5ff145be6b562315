import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoly.graphio import (
    _int,
    canonical_json,
    from_edge_list,
    from_json_obj,
    graph_digest,
    graph_json,
    load_graph,
    parse_graph_spec,
    save_graph,
    to_edge_list,
    to_json_obj,
)
from graphpoly.graphs import SUM, build_cycle, build_digon, make_graph


def test_edge_list_roundtrip():
    g = make_graph(4, [(1, 2), (2, 4, SUM), (1, 2)])
    text = to_edge_list(g)
    assert text.splitlines()[0] == "n 4"
    assert from_edge_list(text) == g


def test_edge_list_format_exact():
    g = make_graph(3, [(1, 2), (2, 3, SUM)])
    assert to_edge_list(g) == "n 3\n1 2\n2 3 sum\n"


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        from_edge_list("1 2\n")
    with pytest.raises(ValueError):
        from_edge_list("n 3\n1 2 prod\n")


def test_json_roundtrip():
    g = make_graph(3, [(1, 2), (1, 3, SUM)])
    obj = to_json_obj(g)
    assert obj == {"n": 3, "edges": [[1, 2, "diff"], [1, 3, "sum"]]}
    assert from_json_obj(json.loads(json.dumps(obj))) == g


@pytest.mark.parametrize("obj", [
    {"n": 5.7, "edges": [[1, 2.9, "diff", 7]]},  # once read as C_5's edge (1, 2)
    {"n": 3.0, "edges": [[1, 2, "diff"]]},
    {"n": True, "edges": []},
    {"n": "3", "edges": [[1, 2, "diff"]]},
    {"n": 3, "edges": [[1, 2.0, "diff"]]},
    {"n": 3, "edges": [[False, 2, "diff"]]},
    {"n": 3, "edges": [[1, 2]]},
    {"n": 3, "edges": [[1, 2, "diff", 7]]},
    {"n": 3, "edges": [12]},
    {"n": 3, "edges": [[1, 2, "prod"]]},
    {"n": 3, "edges": [[2, 2, "diff"]]},  # a self-loop
    {"n": 3, "edges": [[4, 1, "diff"]]},
    {"n": 3},
    {"edges": []},
    [3, []],
])
def test_json_reader_refuses_anything_but_integers_and_triples(obj):
    with pytest.raises(ValueError) as new:
        from_json_obj(obj)
    with pytest.raises(ValueError) as ref:
        _reference_reading(obj)
    assert str(new.value) == str(ref.value)


def _reference_reading(obj):
    """The reader as a pass of _int over every endpoint, then make_graph's pass and the graph's."""
    try:
        return make_graph(_int(obj["n"]), [(_int(u), _int(v), tag) for u, v, tag in obj["edges"]])
    except (LookupError, TypeError) as exc:
        raise ValueError(str(exc)) from None


_ENDPOINTS = st.integers(-1, 6) | st.sampled_from([1.0, 2.5, True, "2", None])
_BAD_EDGES = st.tuples(_ENDPOINTS, _ENDPOINTS, st.sampled_from(["diff", "sum", "prod"])).map(list) | st.lists(
    st.integers(1, 5), max_size=4)


@st.composite
def _json_graphs(draw):
    """A graph in to_json_obj form with its edges in any order and either orientation, and, half
    the time, one entry anywhere that is not a valid edge, or a count that is not a valid n."""
    n = draw(st.integers(2, 6))
    edge = st.tuples(st.integers(1, n), st.integers(1, n), st.sampled_from(["diff", "sum"]))
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1]).map(list), max_size=8))
    if draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), draw(_BAD_EDGES))
        n = draw(st.integers(-1, 6) | st.sampled_from([n, 3.0, False]))
    return {"n": n, "edges": edges}


def _read(reader, obj):
    try:
        return reader(obj)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_json_graphs())
def test_json_reader_in_one_pass_gives_the_same_graph_or_error(obj):
    assert _read(from_json_obj, obj) == _read(_reference_reading, obj)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(1, n), st.integers(1, n), st.sampled_from(["diff", "sum"])).filter(lambda e: e[0] != e[1]),
    max_size=12))))
def test_graph_json_is_the_canonical_json_of_the_graph(case):
    g = make_graph(*case)
    text = canonical_json(to_json_obj(g))
    assert graph_json(g) == text and graph_json(g) is graph_json(g)
    assert graph_digest(g) == hashlib.sha256(text.encode()).hexdigest()
    assert from_json_obj(json.loads(graph_json(g))) == g


def test_digest_is_stable_and_distinguishes():
    c4 = build_cycle(4)
    assert graph_digest(c4) == graph_digest(build_cycle(4))
    assert graph_digest(c4) != graph_digest(build_cycle(5))


def test_parse_graph_spec():
    assert parse_graph_spec("cycle:5").n == 5
    assert parse_graph_spec("digon") == build_digon()
    g = parse_graph_spec("product:cycle:3:cycle:4")
    assert g.n == 12 and g.num_edges == 24
    g3 = parse_graph_spec("product:cycle:3:cycle:3:cycle:3")
    assert g3.n == 27 and g3.num_edges == 81
    assert parse_graph_spec("cyclepower:6:2").num_edges == 12
    with pytest.raises(ValueError):
        parse_graph_spec("torus:3")


@pytest.mark.parametrize("spec, message", [
    ("cycle", "cycle takes 1 argument(s), got 0"),
    ("cycle:5:7", "cycle takes 1 argument(s), got 2"),
    ("cyclepower:5", "cyclepower takes 2 argument(s), got 1"),
    ("digon:2", "digon takes 0 argument(s), got 1"),
    ("product:cycle", "cycle takes 1 argument(s), got 0"),
    ("product:cycle:3:cyclepower:5", "cyclepower takes 2 argument(s), got 1"),
    ("product:cycle:3:4:cycle:5", "unknown product factor '4'"),
    ("product:cycle:3", "product needs at least two factors"),
])
def test_parse_graph_spec_refuses_a_wrong_argument_count(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_graph_spec(spec)


def test_load_graph_file_and_spec(tmp_path):
    g = build_cycle(6)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    assert load_graph(p) == g
    pj = tmp_path / "g.json"
    save_graph(g, pj, fmt="json")
    assert load_graph(pj) == g
    assert load_graph("cycle:6") == g
