import copy
import json
import random
import sys
from unittest import mock

import pytest

from conftest import alon_tarsi_zoo
from graphpoly.certificates import (
    certificate_digest,
    certificate_json,
    check_certificate,
    decode_int,
    encode_int,
    finalize_certificate,
)
from graphpoly import transfer, verify
from graphpoly.choosability import at_certificate_exact, coefficient_choosability_certificate
from graphpoly.cli import main
from graphpoly.coefficients import central_exponent, coefficient
from graphpoly.doubling import build_plan, cycle_cover_certificate, epsilon_search
from graphpoly.graphio import canonical_json, from_json_obj, graph_digest, parse_graph_spec, to_json_obj
from graphpoly.graphs import build_complete, build_cycle, build_cycle_power, build_path
from graphpoly.orientations import (
    acyclic_orientation,
    cycle_product_chain,
    odd_cycle_product_orientation,
    orientation_certificate,
)
from graphpoly.transfer import even_cycle_certificate


def all_certificates():
    return {
        "trace": even_cycle_certificate(build_cycle(5), 4),
        "trace-power": even_cycle_certificate(build_cycle_power(6, 2), 4),
        "orientation": orientation_certificate(odd_cycle_product_orientation([1])),
        "prop_cover": cycle_cover_certificate(build_complete(4)),
        "fplan": epsilon_search(build_plan(build_complete(4), (0, 1, 2, 3))),
        "coefficient": coefficient_choosability_certificate(build_cycle(4), [2] * 4),
        "at-exact": at_certificate_exact(build_cycle(3)),
        "chain": cycle_product_chain([1], [4]),
    }


@pytest.fixture(scope="module")
def certs():
    return all_certificates()


def test_all_emitted_certificates_verify(certs):
    for name, cert in certs.items():
        result = check_certificate(cert)
        assert result.ok, (name, result.errors)


def test_exact_alon_tarsi_certificates_on_the_zoo_prove_their_lower_bound():
    graphs = alon_tarsi_zoo()
    scanned = 0
    for g in graphs:
        result = check_certificate(at_certificate_exact(g))
        assert result.ok, (g, result.errors)
        scanned += "no nonzero coefficient" in result.notes[-1]
    assert 0 < scanned < len(graphs)  # both the cheap bound and the scan prove some


def test_digest_is_canonical(certs):
    for cert in certs.values():
        assert cert["digest"] == certificate_digest(cert)


def test_certificate_text_joined_around_the_graphs_text_is_its_canonical_json(certs):
    for name, cert in certs.items():
        # the graph a builder passes is the one its graph_fields were made from
        g = from_json_obj(cert["graph"]) if "graph" in cert else build_cycle(3)
        assert certificate_json(cert, g) == canonical_json(cert), name
        assert certificate_digest(cert, g) == cert["digest"], name
    with pytest.raises(TypeError):  # keys that JSON cannot sort are left to canonical_json
        certificate_json({1: 0, "graph": to_json_obj(build_cycle(3))}, build_cycle(3))


def _mutate(value, rng):
    """Produce a different value of a similar shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        if value and value[0] in "-0123456789" and value.lstrip("-").isdigit():
            return str(int(value) + 1)
        if set(value) <= {"0", "1"} and value:
            i = rng.randrange(len(value))
            return value[:i] + ("0" if value[i] == "1" else "1") + value[i + 1:]
        if set(value) <= {"+", "-"} and value:
            i = rng.randrange(len(value))
            return value[:i] + ("+" if value[i] == "-" else "-") + value[i + 1:]
        return value + "x"
    if isinstance(value, list):
        if not value:
            return [0]
        out = copy.deepcopy(value)
        i = rng.randrange(len(out))
        out[i] = _mutate(out[i], rng)
        return out
    if isinstance(value, dict):
        if not value:
            return {"x": 1}
        out = copy.deepcopy(value)
        key = rng.choice(sorted(out, key=str))
        out[key] = _mutate(out[key], rng)
        return out
    if value is None:
        return 0
    return value


def test_single_field_mutations_are_rejected(certs):
    rng = random.Random(424242)
    for name, cert in certs.items():
        for key in cert:
            mutated = copy.deepcopy(cert)
            mutated[key] = _mutate(mutated[key], rng)
            if mutated[key] == cert[key]:
                continue
            result = check_certificate(mutated)
            assert not result.ok, (name, key)


def test_redigested_tampering_fails_semantically(certs):
    # an attacker who fixes up the digest still has to beat the recomputation
    rng = random.Random(7)
    rejected = 0
    for name, cert in certs.items():
        for key in cert:
            if key in ("digest", "kind"):
                continue
            mutated = copy.deepcopy(cert)
            mutated[key] = _mutate(mutated[key], rng)
            if mutated[key] == cert[key]:
                continue
            finalize_certificate(mutated)
            if not check_certificate(mutated).ok:
                rejected += 1
    assert rejected > 20  # the vast majority of semantic fields are pinned


def test_ints_are_written_and_read_at_any_length_under_any_digit_limit():
    values = (0, -1, 10**639, -(10**640), 7**30000, -(3**20001))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(v) for v in values]
        for cap in (640, limit):  # 640 is the lowest limit a process can set
            sys.set_int_max_str_digits(cap)
            assert [encode_int(v) for v in values] == expected
            assert [decode_int(t) for t in expected] == list(values)
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(ValueError, match="not a decimal integer"):
        decode_int("1_" + "0" * 700)


def test_missing_digest_fails(certs):
    cert = copy.deepcopy(certs["trace"])
    del cert["digest"]
    assert not check_certificate(cert).ok


def test_unknown_kind_fails():
    cert = finalize_certificate(
        {"kind": "trace", "graph": {"n": 1, "edges": []}}
    )
    cert["kind"] = "sorcery"
    assert not check_certificate(cert).ok


# ---------------------------------------------------------------------------
# forged certificates: every stated coefficient and trace is recomputed
# ---------------------------------------------------------------------------

def _forged_coefficient(spec, witness, value):
    g = parse_graph_spec(spec)
    return finalize_certificate({
        "kind": "coefficient",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "witness_exponent": list(witness),
        "witness_value": str(value),
        "claim": "f-choosable",
        "f": [max(witness) + 1] * g.n,
        "at_bound": max(witness) + 1,
    })


def test_forged_coefficient_on_many_edges_fails():
    # K5 x C4 has 60 edges and a zero central coefficient
    g = parse_graph_spec("product:complete:5:cycle:4")
    xi = central_exponent(g)
    assert coefficient(g, xi) == 0
    result = check_certificate(_forged_coefficient("product:complete:5:cycle:4", xi, 1))
    assert not result.ok


def test_forged_coefficient_value_off_by_one_fails():
    honest = coefficient_choosability_certificate(parse_graph_spec("product:cycle:4:cycle:4"), [3] * 16)
    forged = _forged_coefficient("product:cycle:4:cycle:4", honest["witness_exponent"],
                                 int(honest["witness_value"]) + 1)
    assert check_certificate(honest).ok
    result = check_certificate(forged)
    assert not result.ok
    assert "recomputed" in result.errors[0]


def test_forged_trace_beyond_the_subset_cap_fails():
    # C21: the witness coefficient is genuine, the trace is made up and
    # build_phi refuses 21 vertices, so nothing vouches for it
    g = build_cycle(21)
    xi = (2, 0) + (1,) * 19
    assert coefficient(g, xi) == 1
    cert = finalize_certificate({
        "kind": "trace",
        "graph": to_json_obj(g),
        "graph_digest": graph_digest(g),
        "k": 4,
        "witness_exponent": list(xi),
        "witness_value": "1",
        "trace_value": "1",
        "at_bound": 3,
    })
    result = check_certificate(cert)
    assert not result.ok
    assert not result.notes


def test_orientation_certificate_with_witness_value_fails():
    cert = orientation_certificate(acyclic_orientation(parse_graph_spec("petersen")))
    assert "witness_value" not in cert
    result = check_certificate(cert)
    assert result.ok, result.errors
    assert any("structural" in n and "Alon-Tarsi" in n for n in result.notes)
    stated = finalize_certificate(dict(cert, witness_value="1"))
    assert not check_certificate(stated).ok


def test_check_out_of_budget_exits_3(tmp_path, capsys):
    # K6 at (3,3,3,3,3,0) has coefficient 0; a budget of 5 cannot show it
    path = tmp_path / "forged_k6.json"
    path.write_text(canonical_json(_forged_coefficient("complete:6", (3, 3, 3, 3, 3, 0), 1)))
    assert main(["check", str(path), "--budget", "5"]) == 3
    out, err = capsys.readouterr()
    assert "budget exceeded" in err
    assert "Traceback" not in err
    # the manifest still comes out, with the verdict unverified
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "check"
    assert payload["manifest"]["budget"] == 5
    message = ("budget of 5 DP states exceeded (explored 6); raise the budget or use a certificate pipeline")
    assert payload["result"] == {"kind": "coefficient", "pass": False,
                                 "errors": [f"unverified: budget exceeded: {message}"], "notes": []}
    assert err == f"budget exceeded: {message}\n"
    assert main(["check", str(path)]) == 1


def _redigested(cert, **changes):
    return finalize_certificate(dict(copy.deepcopy(cert), **changes))


def test_chain_ch_lower_is_pinned():
    cert = cycle_product_chain([1], [4])
    assert not check_certificate(_redigested(cert, ch_lower=7)).ok
    assert not check_certificate(_redigested(cycle_product_chain([], [4, 4]), ch_lower=3)).ok


def test_chain_step_kind_is_pinned():
    cert = cycle_product_chain([1], [4])
    steps = copy.deepcopy(cert["steps"])
    steps[0]["verification"] = "structural"
    assert not check_certificate(_redigested(cert, steps=steps)).ok
    steps[0]["verification"] = "guessed"
    assert not check_certificate(_redigested(cert, steps=steps)).ok


def test_chain_structural_step_needs_an_almost_central_base():
    # C7^3 has 343 vertices, so its one step is structural; an acyclic
    # base orientation of the same graph proves a coefficient far from
    # the centre, which says nothing about Phi
    cert = cycle_product_chain([3, 3, 3], [4])
    assert cert["steps"][0]["verification"] == "structural"
    assert check_certificate(cert).ok
    base = orientation_certificate(acyclic_orientation(odd_cycle_product_orientation([3, 3, 3]).graph))
    assert check_certificate(base).ok
    assert not check_certificate(_redigested(cert, base_certificate=base)).ok
    steps = copy.deepcopy(cert["steps"])
    steps[0]["trace_value"] = "1"
    assert not check_certificate(_redigested(cert, steps=steps)).ok


@pytest.mark.parametrize("odd,evens", [([1], [4]), ([2, 2], [4]), ([], [4, 6])])
def test_chain_base_in_non_canonical_json_still_passes(odd, evens):
    # edges reversed and endpoints swapped: the same graph, so the same verdict
    cert = cycle_product_chain(odd, evens)
    base = cert["base_certificate"]
    graph = dict(base["graph"], edges=[[v, u, tag] for u, v, tag in reversed(base["graph"]["edges"])])
    base = _redigested(base, graph=graph, graph_digest=graph_digest(from_json_obj(graph)))
    assert base["graph"] != cert["base_certificate"]["graph"] and check_certificate(base).ok
    assert check_certificate(_redigested(cert, base_certificate=base)).ok


def _fplan_base_chain(**changes):
    """The chain on C4 alone with its base swapped for an fplan certificate of C4, whose own
    check never reads a graph field, given C4's graph fields and then the changes."""
    base = epsilon_search(build_plan(build_cycle(4), (1, 1, 1, 1)))
    base = _redigested(base, **dict(_graph_fields("cycle:4"), **changes))
    return _redigested(cycle_product_chain([], [4]), base_certificate=base)


def _orientation_base_chain(**changes):
    """The chain on C4 alone with the changes made to its orientation base."""
    cert = cycle_product_chain([], [4])
    return _redigested(cert, base_certificate=_redigested(cert["base_certificate"], **changes))


def test_chain_base_graph_is_checked_against_its_digest_whatever_its_kind():
    # an fplan base proves a coefficient of its plan's graph, so whatever graph it carries it
    # proves nothing about the product; an orientation base is read against its digest
    refusal = ["base certificate kind 'fplan' is not 'orientation'"]
    for changes in ({}, {"graph_digest": "0" * 64}, {"graph": {"n": 4}}):
        assert check_certificate(_fplan_base_chain(**changes)).errors == refusal
    assert check_certificate(_orientation_base_chain()).ok
    assert check_certificate(_orientation_base_chain(graph_digest="0" * 64)).errors == [
        "base certificate fails: ['graph digest mismatch']"]
    assert check_certificate(_orientation_base_chain(graph={"n": 4})).errors == [
        "base certificate fails: [\"graph does not parse: 'edges'\"]"]


# the witness is recomputed, so the note names the theorem without the words perfbench/spans.py
# reads as "accepted without recomputing"
_COVER_NOTE = ("every even cycle length by theorem: the doubled graph has a nonzero almost-central coefficient, "
               "so Phi != 0 and tr Phi^k != 0 for every even k")


_PLAN_KEYS = [k for k in epsilon_search(build_plan(build_complete(4), (0, 1, 2, 3)))["plan"] if k != "graph"]


@pytest.mark.parametrize("key", _PLAN_KEYS)
def test_each_plan_field_is_compared_with_the_rebuilt_plan(certs, key):
    value = certs["fplan"]["plan"][key]
    forged = "2" if key == "tau_value" else value + [value[-1] if value else 1]
    errors = check_certificate(_plan_forgery(**{key: forged})).errors
    if key == "tau":  # the plan is rebuilt from tau, so a forged tau fails the rebuild
        assert errors[0].startswith("plan does not rebuild: ")
    else:
        assert errors == [f"plan field {key} disagrees with canonical reconstruction"]


def test_cover_certificate_states_no_cycle_length_or_trace():
    # one almost-central witness proves every even length, so no k and no trace is stated
    for spec in ("cycle:3", "product:cycle:3:cycle:4", "cycle:13"):
        cert = cycle_cover_certificate(parse_graph_spec(spec))
        assert "k" not in cert and "trace_value" not in cert
        result = check_certificate(cert)
        assert result.ok and result.notes == [_COVER_NOTE], spec
        for key, value in (("k", 4), ("trace_value", None), ("trace_value", "1")):
            assert check_certificate(_redigested(cert, **{key: value})).errors == [
                f"a cover certificate states no {key}; its claim holds for every even cycle length"]


def test_fplan_witness_without_pairing_is_checked():
    # at the central exponent the plan has no pairing, so the witness is
    # tau itself and is compared with the plan's recomputed tau_value
    g = parse_graph_spec("product:cycle:4:cycle:4")
    cert = epsilon_search(build_plan(g, central_exponent(g)))
    assert cert["epsilon"] == ""
    assert check_certificate(cert).ok
    raised = _redigested(cert, witness_value=str(int(cert["witness_value"]) + 1))
    assert not check_certificate(raised).ok


# ---------------------------------------------------------------------------
# one re-digested forgery per refusal branch of verify.py, with its exact text
# ---------------------------------------------------------------------------

def _graph_fields(spec):
    g = parse_graph_spec(spec)
    return {"graph": to_json_obj(g), "graph_digest": graph_digest(g)}


def _plan_forgery(**changes):
    cert = copy.deepcopy(all_certificates()["fplan"])
    cert["plan"].update(changes)
    return finalize_certificate(cert)


def _base_forgery(**changes):
    cert = cycle_product_chain([1], [4])
    return _redigested(cert, base_certificate=_redigested(cert["base_certificate"], **changes))


def _step_forgery(cert, **changes):
    steps = copy.deepcopy(cert["steps"])
    steps[0].update(changes)
    return _redigested(cert, steps=steps)


_C21_REFUSAL = ("verification aborted: trace on 21 vertices refused: a dense 352716x352716 block "
                "takes 995.3 GB (dense cap 3432 rows)")

_REFUSALS = {
    # verify
    "no digest": (lambda c: {k: v for k, v in c["trace"].items() if k != "digest"},
                  "certificate has no digest"),
    "digest": (lambda c: dict(c["trace"], k=6), "digest mismatch (certificate was modified)"),
    "unknown kind": (lambda c: dict(c["trace"], kind="sorcery", digest=certificate_digest(
                         dict(c["trace"], kind="sorcery"))), "unknown certificate kind 'sorcery'"),
    "engine refusal": (lambda c: _redigested(c["trace"], **_graph_fields("cycle:21"),
                                             witness_exponent=[2, 0] + [1] * 19),
                       _C21_REFUSAL),
    # a witness its own DP refutes is refuted before the refusal of Phi
    "engine refusal zero witness": (lambda c: _redigested(c["trace"], **_graph_fields("cycle:21"),
                                                          witness_exponent=[1] * 21),
                                    f"witness exponent {(1,) * 21} has zero coefficient"),
    "missing field": (lambda c: _redigested({k: v for k, v in c["trace"].items() if k != "k"}),
                      "malformed certificate: KeyError('k')"),
    # graphs
    "graph parse": (lambda c: _redigested(c["trace"], graph={"n": -1, "edges": []}),
                    "graph does not parse: vertex count must be non-negative, got -1"),
    "graph digest": (lambda c: _redigested(c["trace"], graph_digest="0" * 64), "graph digest mismatch"),
    # witness coefficients
    "witness length": (lambda c: _redigested(c["coefficient"], witness_exponent=[1, 1, 1]),
                       "witness exponent length mismatch"),
    "zero witness": (lambda c: _redigested(c["coefficient"], witness_exponent=[2, 2, 0, 0]),
                     "witness exponent (2, 2, 0, 0) has zero coefficient"),
    "witness value": (lambda c: _redigested(c["coefficient"], witness_value="3"),
                      "stated witness value 3 != recomputed -2"),
    # coefficient
    "f length": (lambda c: _redigested(c["coefficient"], f=[2, 2, 2]), "list-size vector length mismatch"),
    "f too small": (lambda c: _redigested(c["coefficient"], f=[2, 2, 2, 1]),
                    "witness exponent exceeds f - 1 somewhere"),
    "coefficient at_bound": (lambda c: _redigested(c["coefficient"], at_bound=3),
                             "at_bound does not match the witness exponent"),
    "free-text claim": (lambda c: _redigested(c["coefficient"], claim="anything at all"),
                        "unknown coefficient claim 'anything at all'"),
    "no claim": (lambda c: _redigested({k: v for k, v in c["coefficient"].items() if k != "claim"}),
                 "unknown coefficient claim None"),
    # AT(C4) = 2: a true witness of AT <= 3 claimed exact
    "exactness": (lambda c: _redigested(at_certificate_exact(build_cycle(4)), witness_exponent=[0, 1, 1, 2],
                                        witness_value="1", f=[3] * 4, at_bound=3),
                  "a nonzero coefficient has every exponent <= 1, so AT < 3"),
    # trace
    "odd degrees": (lambda c: _redigested(c["trace"], **_graph_fields("complete:4")),
                    "trace certificate on a graph with odd degrees"),
    "odd k": (lambda c: _redigested(c["trace"], k=3), "cycle length 3 is not an even integer >= 2"),
    "trace witness": (lambda c: _redigested(c["trace"], witness_exponent=[3, 0, 0, 1, 1]),
                      "witness exponent is not almost-central"),
    "trace at_bound": (lambda c: _redigested(c["trace"], at_bound=4),
                       "at_bound does not equal max degree / 2 + 2"),
    "trace value": (lambda c: _redigested(c["trace"], trace_value="4381"), "stated trace 4381 != recomputed 4380"),
    # witnesses read from Phi's scan: C5's central exponent (zero), one past m, a wrong value
    "trace zero witness": (lambda c: _redigested(c["trace"], witness_exponent=[1] * 5),
                           "witness exponent (1, 1, 1, 1, 1) has zero coefficient"),
    "trace witness sum": (lambda c: _redigested(c["trace"], witness_exponent=[2, 2, 1, 1, 1]),
                          "witness exponent (2, 2, 1, 1, 1) has zero coefficient"),
    "trace witness value": (lambda c: _redigested(c["trace"], witness_value="7"),
                            "stated witness value 7 != recomputed 1"),
    # orientation
    "orientation value": (lambda c: _redigested(c["orientation"], witness_value="1"),
                          "an orientation certificate states no witness value; the orientation is the witness"),
    "directions": (lambda c: _redigested(c["orientation"], directions="10"),
                   "direction bitstring must be 0/1 of edge-count length"),
    "directions list": (lambda c: _redigested(c["orientation"], directions=list(c["orientation"]["directions"])),
                        "direction bitstring must be 0/1 of edge-count length"),
    "outdegrees": (lambda c: _redigested(c["orientation"], outdegrees=[0, 1, 2]),
                   "stated outdegrees disagree with the direction bits"),
    "orientation witness": (lambda c: _redigested(c["orientation"], witness_exponent=[0, 1, 2]),
                            "witness exponent is not the outdegree vector"),
    "odd directed cycle": (lambda c: _redigested(c["orientation"], directions="010", outdegrees=[1, 1, 1],
                                                 witness_exponent=[1, 1, 1], at_bound=2),
                           "orientation contains an odd directed cycle"),
    "orientation at_bound": (lambda c: _redigested(c["orientation"], at_bound=4),
                             "at_bound does not match the maximum outdegree"),
    # prop_cover
    "non-simple": (lambda c: _redigested(c["prop_cover"], **_graph_fields("digon")),
                   "cover certificate on a non-simple graph"),
    "cover entry": (lambda c: _redigested(c["prop_cover"], cover_cycles=[[1, 2]]),
                    "cover entry (1, 2) is not a simple cycle"),
    "cover overlap": (lambda c: _redigested(c["prop_cover"], cover_cycles=[[1, 2, 3], [1, 2, 4]]),
                      "cover cycles are not vertex-disjoint"),
    "cover edge": (lambda c: _redigested(c["prop_cover"], **_graph_fields("cycle:4"), cover_cycles=[[1, 2, 3]]),
                   "cycle edge (1, 3) not in graph"),
    "uncovered": (lambda c: _redigested(c["prop_cover"], cover_cycles=[[1, 2, 3]]),
                  "some maximum-degree vertex is uncovered"),
    "doubled": (lambda c: _redigested(c["prop_cover"], doubled_edge_indices=[1]),
                "doubled edges are not exactly the non-cover edges"),
    "cover at_bound": (lambda c: _redigested(c["prop_cover"], at_bound=5), "at_bound does not equal max degree + 1"),
    "cover witness": (lambda c: _redigested(c["prop_cover"], witness_exponent=[0, 2, 3, 3]),
                      "witness is not almost-central for the doubled graph"),
    "cover zero witness": (lambda c: _redigested(c["prop_cover"], witness_exponent=[2] * 4),
                           "witness exponent (2, 2, 2, 2) has zero coefficient"),
    "cover witness value": (lambda c: _redigested(c["prop_cover"], witness_value="-4"),
                            "stated witness value -4 != recomputed 2"),
    "cover k": (lambda c: _redigested(c["prop_cover"], k=4),
                "a cover certificate states no k; its claim holds for every even cycle length"),
    "cover trace": (lambda c: _redigested(c["prop_cover"], trace_value="1"),
                    "a cover certificate states no trace_value; its claim holds for every even cycle length"),
    # fplan
    "plan rebuild": (lambda c: _plan_forgery(tau=[0, 0, 0, 0]),
                     "plan does not rebuild: tau (0, 0, 0, 0) has zero coefficient; a plan needs a support element"),
    "plan field": (lambda c: _plan_forgery(below=[2]), "plan field below disagrees with canonical reconstruction"),
    "plan f": (lambda c: _redigested(c["fplan"], f=[4, 4, 4, 5]), "certificate f disagrees with the plan"),
    "epsilon": (lambda c: _redigested(c["fplan"], epsilon="+"), "epsilon is not a +/- string of pairing length"),
    "epsilon list": (lambda c: _redigested(c["fplan"], epsilon=list(c["fplan"]["epsilon"])),
                     "epsilon is not a +/- string of pairing length"),
    "plan witness": (lambda c: _redigested(c["fplan"], witness_exponent=[1, 2, 3, 2]),
                     "witness exponent is not tau plus the a-side multiset"),
    # chain
    "odd factor": (lambda c: _redigested(c["chain"], odd_factors=[4]), "odd factor lengths must be odd and >= 3"),
    "even factor": (lambda c: _redigested(c["chain"], even_factors=[5]), "even factor lengths must be even and >= 4"),
    "reciprocal sum": (lambda c: _redigested(c["chain"], odd_factors=[3, 3]),
                       "odd factors violate the reciprocal-sum condition"),
    "ch_lower": (lambda c: _redigested(c["chain"], ch_lower=2), "ch_lower is not 3 with an odd factor and 2 without"),
    "base fails": (lambda c: _base_forgery(at_bound=4),
                   "base certificate fails: ['at_bound does not match the maximum outdegree']"),
    # a valid fplan certificate of P4 given C4's graph fields: it proves nothing about C4
    "base kind": (lambda c: _redigested(cycle_product_chain([], [4]), base_certificate=_redigested(
                      epsilon_search(build_plan(build_path(4), (0, 1, 1, 1))), **_graph_fields("cycle:4"))),
                  "base certificate kind 'fplan' is not 'orientation'"),
    "base graph": (lambda c: _redigested(c["chain"], odd_factors=[5]),
                   "base certificate graph is not the product of the declared factors"),
    # a valid base on C25, declared as C5 x C5: as many vertices, other edges
    "base other factors": (lambda c: _redigested(cycle_product_chain([2, 2], [4]), base_certificate=orientation_certificate(
                               odd_cycle_product_orientation([12]))),
                           "base certificate graph is not the product of the declared factors"),
    "base witness": (lambda c: _redigested(cycle_product_chain([2, 2], [4]), base_certificate=orientation_certificate(
                         acyclic_orientation(odd_cycle_product_orientation([2, 2]).graph))),
                     "base witness is not almost-central"),
    "step count": (lambda c: _redigested(c["chain"], steps=[]), "one chain step per remaining even factor required"),
    "step order": (lambda c: _step_forgery(c["chain"], even_length=6),
                   "step factor order disagrees with the even factor list"),
    "step kind": (lambda c: _step_forgery(c["chain"], verification="structural"),
                  "step C_4 on 3 vertices must be trace"),
    "step trace": (lambda c: _step_forgery(c["chain"], trace_value="37"), "stated trace 37 != recomputed 36"),
    "structural trace": (lambda c: _step_forgery(cycle_product_chain([3, 3, 3], [4]), trace_value="1"),
                         "step C_4 on 343 vertices states a trace it cannot have"),
    "final digest": (lambda c: _redigested(c["chain"], final_graph_digest="0" * 64), "final product digest mismatch"),
    "at_upper": (lambda c: _redigested(c["chain"], at_upper=4),
                 "at_upper does not match the witness the chain actually holds"),
    "at_lower": (lambda c: _redigested(c["chain"], at_lower=2), "at_lower does not match the recomputed lower bound"),
    "no factors": (lambda c: _redigested(c["chain"], odd_factors=[], even_factors=[]),
                   "a chain needs at least one factor"),
    "not an object": (lambda c: [c["trace"]], "certificate is not a JSON object"),
}
# Not reachable by a forgery: "augmented degrees disagree with 2f - 4", the claim's
# arithmetic, which build_plan's f makes hold.  verify makes no check of its own that a
# trace is nonzero, since a nonzero almost-central witness forces it (a zero one is an
# engine fault, reached below only by a patched engine), nor that a chain graph has even
# degrees, since every chain graph is a product of cycles.


@pytest.mark.parametrize("name", ["trace", "trace-power", "chain"])
def test_a_zero_trace_after_a_checked_witness_aborts_as_an_engine_fault(certs, monkeypatch, name):
    monkeypatch.setattr(transfer, "_block_trace", lambda *args: 0)  # so trace_power returns 0
    assert check_certificate(certs[name]).errors == [
        "verification aborted: nonzero almost-central window but zero trace; engine bug"]


def test_trace_checks_read_the_witness_from_the_scan(certs, monkeypatch):
    # Phi's scan holds every almost-central coefficient: no witness DP of its own
    monkeypatch.setattr(verify, "coefficient", mock.Mock(side_effect=AssertionError("witness DP")))
    for name in ("trace", "trace-power", "chain"):
        assert check_certificate(certs[name]).ok, name


@pytest.mark.parametrize("spec", ["complete:4", "complete:5", "product:cycle:3:cycle:3", "product:cycle:3:cycle:4"])
def test_cover_certificates_build_no_phi_on_either_side(monkeypatch, spec):
    for module, names in ((transfer, ("build_phi", "trace_power")), (verify, ("build_phi", "nonzero_trace"))):
        for name in names:
            monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
    assert check_certificate(cycle_cover_certificate(parse_graph_spec(spec))).ok


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_refusal_branch_names_its_failure(certs, name):
    forge, message = _REFUSALS[name]
    result = check_certificate(forge(certs))
    assert not result.ok
    assert result.errors == [message]


# ---------------------------------------------------------------------------
# numbers are read, never truncated; malformed input ends as a failed verdict
# ---------------------------------------------------------------------------

def _plan_with(**changes):
    def forge(c):
        return _plan_forgery(**changes)
    return forge


_NON_INTEGERS = {
    "trace k 4.9": (lambda c: _redigested(c["trace"], k=4.9), "malformed certificate: TypeError('expected an integer, got 4.9')"),
    "trace at_bound 3.0": (lambda c: _redigested(c["trace"], at_bound=3.0),
                           "malformed certificate: TypeError('expected an integer, got 3.0')"),
    "witness entry true": (lambda c: _redigested(c["trace"], witness_exponent=[False, 1, 1, 1, 2]),
                           "malformed certificate: TypeError('expected an integer, got False')"),
    "witness value 1.0": (lambda c: _redigested(c["trace"], witness_value=1.0),
                          "malformed certificate: TypeError('expected a decimal string, got 1.0')"),
    "trace value float": (lambda c: _redigested(c["trace"], trace_value=4380.0),
                          "malformed certificate: TypeError('expected a decimal string, got 4380.0')"),
    "graph n 5.0": (lambda c: _redigested(c["trace"], graph=dict(c["trace"]["graph"], n=5.0)),
                    "graph does not parse: expected an integer, got 5.0"),
    "fplan tau float": (_plan_with(tau=[0, 1, 2, 3.5]), "malformed certificate: TypeError('expected an integer, got 3.5')"),
    "fplan field float": (_plan_with(below=[1.0]), "plan field below disagrees with canonical reconstruction"),
    "chain ch_lower 3.0": (lambda c: _redigested(c["chain"], ch_lower=3.0),
                           "malformed certificate: TypeError('expected an integer, got 3.0')"),
}


@pytest.mark.parametrize("name", sorted(_NON_INTEGERS))
def test_non_integer_numbers_are_refused_not_truncated(certs, name):
    forge, message = _NON_INTEGERS[name]
    assert check_certificate(forge(certs)).errors == [message]


def _with_kind(cert, kind):
    """cert under a kind finalize_certificate refuses, digested all the same."""
    cert = dict(cert, kind=kind)
    return dict(cert, digest=certificate_digest(cert))


_MALFORMED = {
    "base not an object": (lambda c: _redigested(c["chain"], base_certificate="x"),
                           "base certificate fails: ['certificate is not a JSON object']"),
    "base kind unhashable": (lambda c: _redigested(c["chain"], base_certificate=_with_kind(
                                 c["chain"]["base_certificate"], [])),
                             "base certificate fails: " + repr(["malformed certificate: TypeError(\"unhashable type: 'list'\")"])),
    "kind unhashable": (lambda c: _with_kind(c["trace"], {}),
                        "malformed certificate: TypeError(\"unhashable type: 'dict'\")"),
    "short plan edge": (lambda c: _plan_forgery(graph={"n": 4, "edges": [[1, 2]]}),
                        "graph does not parse: not enough values to unpack (expected 3, got 2)"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_certificates_fail_without_raising(certs, name):
    forge, message = _MALFORMED[name]
    assert check_certificate(forge(certs)).errors == [message]


@pytest.mark.parametrize("value", [[], "x", 3, None, [{"kind": "trace"}]])
def test_check_of_a_non_object_prints_a_failed_verdict(tmp_path, capsys, value):
    path = tmp_path / "cert.json"
    path.write_text(canonical_json(value))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["manifest"]["parameters"]["kind"] is None
    assert payload["result"]["errors"] == ["certificate is not a JSON object"]
    assert "Traceback" not in captured.err
