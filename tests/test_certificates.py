import copy
import random
import sys

import pytest

from graphpoly.certificates import (
    certificate_digest,
    check_certificate,
    decode_int,
    encode_int,
    finalize_certificate,
)
from graphpoly.choosability import at_certificate_exact, coefficient_choosability_certificate
from graphpoly.cli import main
from graphpoly.coefficients import central_exponent, coefficient
from graphpoly.doubling import build_plan, cycle_cover_certificate, epsilon_search
from graphpoly.graphio import canonical_json, graph_digest, parse_graph_spec, to_json_obj
from graphpoly.graphs import build_complete, build_cycle, build_cycle_power
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


def test_digest_is_canonical(certs):
    for cert in certs.values():
        assert cert["digest"] == certificate_digest(cert)


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
    err = capsys.readouterr().err
    assert "budget exceeded" in err
    assert "Traceback" not in err
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


def test_cover_trace_is_stated_only_where_recorded():
    # the doubled C13 has 13 vertices, one over the trace cap
    cert = cycle_cover_certificate(build_cycle(13))
    assert cert["trace_value"] is None
    assert check_certificate(cert).ok
    assert not check_certificate(_redigested(cert, trace_value="1")).ok


def test_fplan_witness_without_pairing_is_checked():
    # at the central exponent the plan has no pairing, so the witness is
    # tau itself and is compared with the plan's recomputed tau_value
    g = parse_graph_spec("product:cycle:4:cycle:4")
    cert = epsilon_search(build_plan(g, central_exponent(g)))
    assert cert["epsilon"] == ""
    assert check_certificate(cert).ok
    raised = _redigested(cert, witness_value=str(int(cert["witness_value"]) + 1))
    assert not check_certificate(raised).ok
