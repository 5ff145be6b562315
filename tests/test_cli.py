import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoly.certificates import certificate_digest, check_certificate, finalize_certificate
from graphpoly.choosability import coefficient_choosability_certificate, list_coloring_exists
from graphpoly.cli import build_parser, main
from graphpoly.doubling import build_plan, cycle_cover_certificate, epsilon_search
from graphpoly.errors import InvariantViolationError
from graphpoly.graphs import build_complete, build_cycle
from graphpoly.orientations import cycle_product_chain, odd_cycle_product_orientation, orientation_certificate
from graphpoly.transfer import even_cycle_certificate
from graphpoly.graphio import canonical_json, graph_digest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "c5.txt"
    code, payload, _ = run_json(capsys, "gen", "cycle", "5", "--out", str(target))
    assert code == 0
    assert payload["result"]["n"] == 5
    assert target.read_text().splitlines()[0] == "n 5"
    assert str(target) in payload["manifest"]["outputs"]


def test_gen_product(capsys):
    code, payload, _ = run_json(capsys, "gen", "product", "cycle:3", "cycle:4")
    assert code == 0
    assert payload["result"]["n"] == 12 and payload["result"]["edges"] == 24


def test_gen_cyclepower(capsys):
    code, payload, _ = run_json(capsys, "gen", "cyclepower", "6", "2")
    assert code == 0
    assert payload["result"]["edges"] == 12


def test_gen_json_format(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, _, _ = run_json(capsys, "gen", "cycle", "4", "--json", "--out", str(target))
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["n"] == 4 and len(obj["edges"]) == 4


@pytest.mark.parametrize("text", [
    '{"n": 5.7, "edges": [[1, 2.9, "diff", 7]]}',
    '{"n": 3, "edges": [[1, 2]]}',
    '{"n": 3}',
])
def test_malformed_json_graph_file_exits_2(tmp_path, capsys, text):
    target = tmp_path / "g.json"
    target.write_text(text)
    code, out, err = run_cli(capsys, "coeff", str(target), "--almost-central")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_coeff_exponent(capsys):
    code, payload, _ = run_json(
        capsys, "coeff", "cycle:3", "--exponent", "2,1,0", "--method", "both"
    )
    assert code == 0
    assert payload["result"]["coefficient"] == "-1"
    assert "advisory" not in payload["result"]
    assert payload["manifest"]["parameters"]["method"] == "both"
    _, payload, _ = run_json(capsys, "coeff", "cycle:3", "--exponent", "2,1,0")
    assert payload["manifest"]["parameters"]["method"] == "dp"


def test_coeff_mismatched_degree_advisory(capsys):
    code, payload, _ = run_json(capsys, "coeff", "cycle:3", "--exponent", "1,1,0")
    assert code == 0
    assert payload["result"]["coefficient"] == "0"
    assert "advisory" in payload["result"]


def test_coeff_almost_central(capsys):
    code, payload, _ = run_json(capsys, "coeff", "cycle:3", "--almost-central")
    assert code == 0
    assert payload["result"]["count"] == 6
    for entry in payload["result"]["entries"]:
        assert entry["coefficient"] in ("1", "-1")


def test_at_exact(capsys):
    code, payload, _ = run_json(capsys, "at", "cycle:4", "--exact")
    assert code == 0
    assert payload["result"]["alon_tarsi_number"] == 2


def test_at_exact_on_c3xc5_stays_within_360_mb(tmp_path, capsys):
    # the support scan under caps 3 holds layers of up to 9.4*10^6 states; the whole process
    # peaked at 433 MB while a pieced step joined its pieces, and at 322-327 MB once each piece is
    # written into one output (2-core Xeon VM, numpy 2.4.6)
    path = tmp_path / "c3c5.json"
    script = ("import resource, sys\nfrom graphpoly.cli import main\ncode = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\nsys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, "at", "product:cycle:3:cycle:5", "--exact",
                           "--out", str(path)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["alon_tarsi_number"] == 4
    assert int(proc.stderr.split()[-1]) <= 360 * 1024  # ru_maxrss counts kilobytes on Linux
    code, payload, _ = run_json(capsys, "check", str(path))
    assert code == 0 and payload["result"]["pass"]


def test_at_trace(capsys):
    code, payload, _ = run_json(capsys, "at", "cycle:5", "--trace", "4")
    assert code == 0
    assert payload["result"]["at_bound_for_product"] == 3


@pytest.mark.parametrize("k, digits", [(6000, 4501), (10000, 7501)])
def test_traces_past_the_int_str_digit_limit_are_written_and_checked(tmp_path, capsys, k, digits):
    # Python converts at most 4300 digits between int and str by default
    path = tmp_path / "trace.json"
    code, payload, _ = run_json(capsys, "at", "cycle:5", "--trace", str(k), "--out", str(path))
    assert code == 0
    cert = json.loads(path.read_text())
    assert len(cert["trace_value"]) == digits == len(payload["result"]["trace_value"])
    code, payload, _ = run_json(capsys, "check", str(path))
    assert code == 0 and payload["result"]["pass"]
    forged = finalize_certificate(dict(cert, trace_value=cert["trace_value"][:-1] + "1"))
    path.write_text(canonical_json(forged))
    code, payload, _ = run_json(capsys, "check", str(path))
    assert code == 1 and payload["result"]["errors"][0].startswith("stated trace")


def test_at_trace_no_certificate(capsys):
    code, payload, _ = run_json(capsys, "at", "complete:5", "--trace", "4")
    assert code == 1  # empty almost-central window is a clean negative


def test_at_prop6(capsys):
    code, payload, _ = run_json(capsys, "at", "complete:3", "--prop6")
    assert code == 0
    assert payload["result"]["at_bound_for_product"] == 3


def test_at_orient(capsys):
    code, payload, _ = run_json(capsys, "at", "cycle:5", "--orient")
    assert code == 0
    assert payload["result"]["at_bound"] == 3  # degeneracy 2 + 1


def test_at_fplan(capsys):
    code, payload, _ = run_json(capsys, "at", "complete:4", "--fplan", "0,1,2,3")
    assert code == 0
    assert payload["result"]["f"] == [4, 4, 4, 4]


def test_at_mode_required(capsys):
    code, _, err = run_cli(capsys, "at", "cycle:4")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "at cycle:4 --exact --orient",
    "coeff cycle:3",
    "coeff cycle:3 --exponent 2,1,0 --almost-central",
    "choosable cycle:4 --f 2",
    "choosable cycle:4 --f 2 --certificate --exhaustive",
])
def test_modes_are_exclusive_and_required(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "required" in err or "not allowed with" in err
    assert "Traceback" not in err


def test_phi_summary(capsys):
    code, payload, _ = run_json(capsys, "phi", "cycle:3", "--trace", "2")
    assert code == 0
    assert payload["result"]["symmetry"] == "skew-symmetric"
    assert payload["result"]["nonzero_entries"] == 12
    assert payload["result"]["trace_value"] == "-12"


def test_phi_of_odd_degrees_names_the_first_odd_vertex(capsys):
    # central_exponent is the one place that refuses odd degrees
    code, out, err = run_cli(capsys, "phi", "complete:4")
    assert code == 2 and not out
    assert err == "error: vertex 1 has odd degree 3; the half-degree point needs even degrees\n"


def test_phi_trace_over_the_dense_block_cap_is_refused(capsys):
    # C(16, 8) = 12870 rows, 1.3 GB per dense copy: refused before the build
    code, out, err = run_cli(capsys, "phi", "cycle:16", "--trace", "4")
    assert code == 2
    assert "12870x12870" in err and "dense cap" in err
    assert not out


def test_phi_of_16_vertices_counts_its_nonzeros_without_building_them(capsys):
    code, payload, _ = run_json(capsys, "phi", "cycle:16")
    assert code == 0
    # the figures of the coordinate build that the closed-form counts replaced
    assert payload["result"]["nonzero_entries"] == 42981186
    halves = [1, 256, 7120, 82096, 515320, 1988064, 5032664, 8674880, 10380384]
    assert payload["result"]["block_nonzeros"] == {str(s): halves[min(s, 16 - s)] for s in range(17)}


def test_trace_over_budget_exits_3_at_once(tmp_path, capsys):
    # C3 at k = 10^6 would draw some 60,000 primes and a CRT of 1.5 * 10^6 bits
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "phi", "cycle:3", "--trace", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert err.startswith("budget exceeded: budget of 100000000 trace matrix cells exceeded")
    # an honest trace certificate re-digested at k = 10^7
    cert = even_cycle_certificate(build_cycle(3), 4)
    path = tmp_path / "k7.json"
    path.write_text(canonical_json(finalize_certificate(dict(cert, k=10**7))))
    for budget in ((), ("--budget", "1000")):
        start = time.perf_counter()
        code, payload, err = run_json(capsys, "check", str(path), *budget)
        assert time.perf_counter() - start < 1
        assert code == 3 and payload["result"]["pass"] is False
        assert payload["result"]["errors"][0].startswith("unverified: budget exceeded")
        assert "trace matrix cells" in err


def test_out_of_memory_exits_3(capsys, monkeypatch):
    from graphpoly import transfer

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(transfer, "almost_central_scan", exhausted)
    code, out, err = run_cli(capsys, "phi", "cycle:5")
    assert code == 3
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err and not out


_FACTORS = [("cycle:3", 3), ("cycle:4", 4), ("complete:2", 2), ("complete:3", 3),
            ("complete:4", 4), ("path:3", 3), ("digon", 2)]
_SMALL_SPECS = st.one_of(
    st.integers(3, 8).map("cycle:{}".format),
    st.integers(1, 8).map("complete:{}".format),
    st.tuples(st.integers(3, 8), st.integers(1, 3)).map(lambda t: "cyclepower:{}:{}".format(*t)),
    st.sampled_from([f"product:{a}:{b}" for a, m in _FACTORS for b, k in _FACTORS if m * k <= 8]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["phi", "at"]), _SMALL_SPECS, st.integers(-2, 9))
def test_transfer_cli_fuzz_exits_on_a_documented_code(command, spec, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, spec, "--trace", str(k)])
    assert code in range(5), (command, spec, k)
    assert "Traceback" not in err.getvalue()


_ORIENT_SPECS = st.one_of(
    st.integers(3, 8).map(lambda n: (f"cycle:{n}", n)),
    st.integers(1, 8).map(lambda n: (f"complete:{n}", n)),
    st.sampled_from([(f"product:{a}:{b}", m * k) for a, m in _FACTORS for b, k in _FACTORS if m * k <= 8]),
)


def _bound_vector(n):
    """Comma-separated bounds, mostly one per vertex; entries may be negative or huge."""
    entries = st.one_of(st.integers(-1, 5), st.just(10**20))
    length = st.one_of(st.just(n), st.integers(0, 9))
    return length.flatmap(lambda k: st.lists(entries, min_size=k, max_size=k)).map(
        lambda v: ",".join(map(str, v)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), _ORIENT_SPECS, st.booleans())
def test_orient_cli_fuzz_exits_on_a_documented_code(data, spec_n, check_conditions):
    spec, n = spec_n
    lower, upper = data.draw(_bound_vector(n)), data.draw(_bound_vector(n))
    argv = ["orient", spec, f"--lower={lower}", f"--upper={upper}"] + ["--check-conditions"] * check_conditions
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), argv
    assert "Traceback" not in err.getvalue()


_CHOOSABLE_SPECS = st.one_of(
    st.integers(3, 5).map(lambda n: (f"cycle:{n}", n)),
    st.integers(1, 4).map(lambda n: (f"complete:{n}", n)),
    st.sampled_from([("digon", 2), ("path:3", 3), ("product:complete:2:complete:2", 4)]),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.integers(-2, 4), st.floats(-2, 4), st.booleans(), st.none(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=10)


def _color_lists(n):
    """JSON for --lists: mostly one integer list per vertex, else any JSON value."""
    return st.one_of(st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=n, max_size=n),
                     _JSON_VALUES)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), _CHOOSABLE_SPECS, st.integers(-1, 4),
       st.sampled_from(["--stress", "--exhaustive", "--lists", "--certificate"]))
def test_choosable_cli_fuzz_exits_on_a_documented_code(tmp_path_factory, data, spec_n, f, mode):
    spec, n = spec_n
    argv = ["choosable", spec, *(["--f", str(f)] if mode != "--lists" else []), mode]
    trials = data.draw(st.integers(-3, 20))
    if mode == "--stress":
        argv.append(str(trials))
    elif mode == "--lists":
        path = tmp_path_factory.mktemp("lists") / "lists.json"
        path.write_text(json.dumps(data.draw(_color_lists(n))))
        argv.append(str(path))
    # exhaustive sweeps stay small only in small universes
    universe = data.draw(st.integers(-1, 4) if mode == "--exhaustive" else st.none() | st.integers(-1, 8))
    if universe is not None:
        argv += ["--universe", str(universe)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1) and mode == "--stress":  # an answer, so the trial count was valid
        assert json.loads(out.getvalue())["result"]["trials"] == trials >= 0


_ATOM_ARGS = {"cycle": 1, "path": 1, "complete": 1, "cyclepower": 2, "digon": 0, "petersen": 0}


def _atom(name):
    """name and one argument too few, the right count, or one too many."""
    count = _ATOM_ARGS[name]
    args = st.sampled_from(["-1", "0", "1", "2", "3", "5", "x", ""])
    return st.lists(args, min_size=max(count - 1, 0), max_size=count + 1).map(lambda a: [name, *a])


_ATOMS = st.sampled_from(sorted(_ATOM_ARGS)).flatmap(_atom)
_SPEC_PARTS = _ATOMS | st.lists(_ATOMS, min_size=0, max_size=3).map(
    lambda atoms: ["product"] + [part for atom in atoms for part in atom])


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_SPEC_PARTS, st.booleans(), st.lists(st.integers(0, 3), max_size=6))
def test_spec_cli_fuzz_exits_on_a_documented_code(parts, as_gen, exponent):
    spec = ":".join(parts)
    if as_gen:
        argv = ["gen", "--", *parts]
    else:
        argv = ["coeff", spec, "--budget", "100000", f"--exponent={','.join(map(str, exponent))}"]
    code, err = _quiet_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    arity = {len(parts) - 1} if parts[0] in _ATOM_ARGS else set()
    if arity and arity != {_ATOM_ARGS[parts[0]]}:  # a wrong argument count is a usage error
        assert code == 2, argv


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(-3, 30) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@functools.cache
def _honest_certificates():
    return [
        even_cycle_certificate(build_cycle(5), 4),
        orientation_certificate(odd_cycle_product_orientation([1])),
        cycle_cover_certificate(build_complete(4)),
        epsilon_search(build_plan(build_complete(4), (0, 1, 2, 3))),
        coefficient_choosability_certificate(build_cycle(4), [2] * 4),
        cycle_product_chain([1], [4]),
    ]


def _check_cli(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("check") / "cert.json"
    path.write_text(canonical_json(value))
    code, err = _quiet_main(["check", str(path)])
    assert code in (0, 1, 2, 3), value
    assert "Traceback" not in err
    return code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ANY_JSON)
def test_check_cli_fuzz_on_any_json_value(tmp_path_factory, value):
    assert _check_cli(tmp_path_factory, value) == 1  # nothing here carries a valid digest


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 5), _ANY_JSON)
def test_check_cli_fuzz_on_one_field_mutations(tmp_path_factory, data, which, value):
    cert = dict(_honest_certificates()[which])
    key = data.draw(st.sampled_from(sorted(set(cert) - {"digest"})))
    cert[key] = value
    cert["digest"] = certificate_digest(cert)
    _check_cli(tmp_path_factory, cert)


@pytest.mark.parametrize("bounds, message", [
    (["--upper", "1,2"], "one entry per vertex"),
    (["--upper", "1,2,2,2,2,2,2"], "one entry per vertex"),
    (["--lower", "2,0,0,0,0", "--upper", "1,2,2,2,2"], "0 <= lower <= upper"),
])
def test_orient_check_conditions_refuses_malformed_bounds(capsys, bounds, message):
    code, out, err = run_cli(capsys, "orient", "cycle:5", *bounds, "--check-conditions")
    assert code == 2
    assert message in err
    assert "Traceback" not in err and not out


def test_orient_check_conditions_at_the_vertex_cap(capsys):
    upper = ",".join(["0"] + ["1"] * 19)
    code, payload, _ = run_json(capsys, "orient", "cycle:20", "--upper", upper, "--check-conditions")
    assert code == 1
    assert payload["result"] == {"all_subsets_pass": False, "failing_subset": list(range(1, 21)),
                                 "condition": 1, "lhs": 20, "rhs": 19, "subsets_checked": 1 << 20}


def test_orient_window(capsys):
    code, payload, _ = run_json(
        capsys, "orient", "cycle:4", "--lower", "1,1,1,1", "--upper", "1,1,1,1"
    )
    assert code == 0
    assert payload["result"]["outdegrees"] == [1, 1, 1, 1]


def test_orient_infeasible_reports_subset(capsys):
    code, payload, _ = run_json(
        capsys, "orient", "path:2", "--lower", "1,1", "--upper", "2,2"
    )
    assert code == 1
    assert payload["result"]["feasible"] is False
    assert payload["result"]["violating_subset"] == [1, 2]


def test_orient_reports_the_solvers_set_past_the_vertex_cap(capsys):
    # sum of upper is 24 < 25 edges: the whole vertex set breaks condition 1
    upper = ",".join(["0"] + ["1"] * 24)
    code, payload, _ = run_json(capsys, "orient", "cycle:25", "--upper", upper)
    assert code == 1
    assert payload["result"] == {"feasible": False, "violating_subset": list(range(1, 26)), "condition": 1}


def test_orient_odd_product_manifest_digest_is_the_certificates(capsys):
    code, payload, _ = run_json(capsys, "orient", "--odd-product", "2,3,6")
    assert code == 0
    digest = graph_digest(odd_cycle_product_orientation([2, 3, 6]).graph)
    assert payload["manifest"]["graph_digest"] == payload["result"]["certificate"]["graph_digest"] == digest


def test_orient_box(capsys):
    code, payload, _ = run_json(capsys, "orient", "--box", "2,2")
    assert code == 0
    assert payload["result"]["feasible"] is True
    code, payload, _ = run_json(capsys, "orient", "--box", "1,2")
    assert code == 1


def test_orient_odd_product(capsys):
    code, payload, _ = run_json(capsys, "orient", "--odd-product", "2,2")
    assert code == 0
    assert payload["result"]["odd_directed_cycle"] is False
    assert payload["result"]["at_bound"] == 4  # max outdegree 3, plus 1


def test_orient_boxes_and_odd_products_share_one_vertex_cap(capsys):
    # C141 x C141 (19,881 vertices) is cut into boxes of up to 71 x 71 = 5,041 vertices
    code, payload, err = run_json(capsys, "orient", "--odd-product", "70,70")
    assert code == 0 and not err
    assert payload["result"]["at_bound"] == 4
    code, out, err = run_cli(capsys, "orient", "--box", "142,142")
    assert code == 2 and not out
    assert err == "error: box with 20164 vertices exceeds cap 20000\n"


@pytest.mark.parametrize("argv, message", [
    (["cycle:4", "--box", "2,2"], "--box builds its own graph; drop the graph 'cycle:4'"),
    (["cycle:4", "--odd-product", "2,2"], "--odd-product builds its own graph; drop the graph 'cycle:4'"),
    (["--box", "2,2", "--check-conditions"], "--check-conditions applies to --lower/--upper, not to --box"),
    (["--odd-product", "2,2", "--check-conditions"],
     "--check-conditions applies to --lower/--upper, not to --odd-product"),
    (["--lower", "1,1"], "--lower/--upper need a graph"),
    (["--upper", "1,1", "--check-conditions"], "--lower/--upper need a graph"),
])
def test_orient_refuses_arguments_its_mode_ignores(capsys, argv, message):
    code, out, err = run_cli(capsys, "orient", *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err and not out


def test_choosable_exhaustive(capsys):
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:4", "--f", "2", "--exhaustive"
    )
    assert code == 0 and payload["result"]["f_choosable"] is True
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:3", "--f", "2", "--exhaustive"
    )
    assert code == 1 and payload["result"]["f_choosable"] is False


@pytest.mark.parametrize("budget, expected", [(1000, 3), (1296, 0)])
def test_choosable_exhaustive_spends_the_budget_it_is_given(capsys, budget, expected):
    # C4 with 2-lists from 4 colors counts C(4, 2)^4 = 1,296 assignments
    code, out, err = run_cli(capsys, "choosable", "cycle:4", "--f", "2", "--exhaustive", "--budget", str(budget))
    assert code == expected
    if expected == 3:
        assert not out
        assert err.startswith("budget exceeded: budget of 1000 list assignments exceeded (explored 1296)")
    else:
        assert json.loads(out)["result"]["f_choosable"] is True


def test_choosable_exhaustive_names_its_refutation(capsys):
    code, out, _ = run_cli(capsys, "choosable", "cycle:5", "--f", "2", "--exhaustive")
    result = json.loads(out)["result"]
    assert code == 1
    assert result == {"f": [2] * 5, "f_choosable": False, "uncolorable_lists": [[1, 2]] * 5}
    assert not list_coloring_exists(build_cycle(5), result["uncolorable_lists"])[0]
    code, out, _ = run_cli(capsys, "choosable", "cycle:4", "--f", "2", "--exhaustive")
    assert code == 0 and json.loads(out)["result"] == {"f": [2] * 4, "f_choosable": True}


def test_choosable_stress(capsys):
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:3", "--f", "3", "--stress", "50", "--seed", "4"
    )
    assert code == 0
    assert payload["result"]["failures"] == []
    assert payload["result"]["seed"] == 4


@pytest.mark.parametrize("seed", ["-7", "123456789012345678901234567890"])
def test_choosable_stress_takes_any_integer_seed(capsys, seed):
    argv = ["choosable", "cycle:3", "--f", "3", "--stress", "1000", "--seed", seed]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["manifest"]["seed"] == payload["result"]["seed"] == int(seed)
    assert run_json(capsys, *argv)[1]["result"] == payload["result"]
    # with 2-lists the triangle fails; a seed and its negation draw the same lists
    failing = argv[:3] + ["2"] + argv[4:]
    code, payload, _ = run_json(capsys, *failing)
    assert code == 1 and payload["result"]["failures"]
    assert run_json(capsys, *failing)[1]["result"] == payload["result"]
    mirrored = run_json(capsys, *failing[:-1], str(-int(seed)))[1]["result"]
    assert mirrored["failures"] == payload["result"]["failures"]


def test_choosable_stress_memory_does_not_grow_with_the_universe(capsys):
    # a list of the 10^6 colors alone takes 36 MB; the drawn lists take 2000 * 9 colors
    tracemalloc.start()
    try:
        code, payload, _ = run_json(capsys, "choosable", "cycle:3", "--f", "3", "--stress", "2000",
                                    "--universe", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and payload["result"]["trials"] == 2000 and payload["result"]["universe"] == 10**6
    assert peak < 8 * 10**6


def test_choosable_certificate(capsys):
    code, payload, _ = run_json(capsys, "choosable", "cycle:4", "--f", "2", "--certificate")
    assert code == 0
    assert payload["result"]["witness_exponent"] == [1, 1, 1, 1]


def test_check_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_json(
        capsys, "at", "cycle:5", "--trace", "4", "--out", str(cert_path)
    )
    assert code == 0
    code, payload, _ = run_json(capsys, "check", str(cert_path))
    assert code == 0
    assert payload["result"]["pass"] is True


def test_check_rejects_tampered(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run_json(capsys, "at", "cycle:5", "--trace", "4", "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["trace_value"] = "999"
    cert_path.write_text(json.dumps(cert))
    code, payload, _ = run_json(capsys, "check", str(cert_path))
    assert code == 1
    assert payload["result"]["pass"] is False


@pytest.mark.parametrize("spec", ["product:cycle:4:cycle:4", "cycle:40", "cycle:25", "cycle:41"])
def test_cover_certificate_over_the_trace_cap_fits_a_small_budget(tmp_path, capsys, spec):
    # the whole almost-central window of each doubled graph exceeds 10^6 expansions; an odd
    # cycle's central coefficient is 0, and its witness is an acyclic orientation's outdegrees
    path = tmp_path / "cover.json"
    code, _, _ = run_json(capsys, "at", spec, "--prop6", "--budget", "1000000", "--out", str(path))
    assert code == 0
    code, payload, _ = run_json(capsys, "check", str(path), "--budget", "1000000")
    assert code == 0 and payload["result"]["pass"] is True


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding cert.json (a coefficient certificate) and lists.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lists.json").write_text("[[1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]]")
    (tmp_path / "cert.json").write_text(
        canonical_json(coefficient_choosability_certificate(build_cycle(4), [2] * 4)))
    return tmp_path


def _refused(capsys, workdir, argv):
    """Run argv; assert exit 2, no output and no new file; return stderr."""
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert sorted(p.name for p in workdir.iterdir()) == ["cert.json", "lists.json"]
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, option", [
    ("coeff cycle:3 --almost-central --method enumerate", "--method"),
    ("coeff cycle:3 --support 2,2,2 --method dp", "--method"),
    ("choosable cycle:4 --f 3 --universe 9 --certificate", "--universe"),
    ("choosable cycle:4 --f 3 --universe 9 --lists lists.json", "--universe"),
    ("at cycle:4 --orient --budget 1", "--budget"),
    ("orient --box 2,2 --out x.json", "--out"),
    ("orient cycle:4 --upper 2,2,2,2 --out x.json", "--out"),
    ("choosable cycle:3 --f 3 --stress 5 --budget 5", "--budget"),
    ("choosable cycle:3 --f 3 --stress 5 --out x.json", "--out"),
    ("choosable cycle:4 --f 2 --exhaustive --seed 3", "--seed"),
    ("choosable cycle:4 --f 2 --exhaustive --out x.json", "--out"),
    ("choosable cycle:4 --f 2 --certificate --seed 3", "--seed"),
    ("choosable cycle:4 --f 3 --lists lists.json --budget 5", "--budget"),
    ("choosable cycle:4 --f 3 --lists lists.json --seed 3", "--seed"),
    ("choosable cycle:4 --f 3 --lists lists.json --out x.json", "--out"),
    ("choosable cycle:4 --f 3 --lists lists.json", "--f"),
    ("gen cycle 5 --json", "--json"),
])
def test_options_a_mode_never_reads_are_usage_errors(capsys, workdir, argv, option):
    err = _refused(capsys, workdir, argv)
    assert f"error: {argv.split()[0]}: argument {option}: applies only with" in err


@pytest.mark.parametrize("argv, option", [
    ("gen cycle 5 --budget 7", "--budget"),
    ("gen cycle 5 --seed 3", "--seed"),
    ("coeff cycle:3 --exponent 2,1,0 --seed 3", "--seed"),
    ("coeff cycle:3 --exponent 2,1,0 --out x.json", "--out"),
    ("phi cycle:3 --seed 3", "--seed"),
    ("phi cycle:3 --out y.json", "--out"),
    ("check cert.json --seed 3", "--seed"),
    ("check cert.json --out x.json", "--out"),
    ("orient --box 2,2 --budget 1", "--budget"),
    ("orient --box 2,2 --seed 3", "--seed"),
])
def test_options_a_subcommand_never_reads_are_usage_errors(capsys, workdir, argv, option):
    err = _refused(capsys, workdir, argv)
    assert f"error: unrecognized arguments: {option}" in err


@pytest.mark.parametrize("argv", [
    "gen cycle 5", "gen cycle 4 --json", "at cycle:4 --exact", "at cycle:5 --trace 4", "at cycle:4 --orient",
    "at complete:4 --prop6", "at complete:4 --fplan 0,1,2,3", "orient --odd-product 2,2",
    "choosable cycle:4 --f 2 --certificate",
])
def test_every_accepted_out_writes_its_file(capsys, tmp_path, argv):
    path = tmp_path / "out.json"
    code, payload, err = run_json(capsys, *argv.split(), "--out", str(path))
    assert code == 0, err
    assert payload["manifest"]["outputs"] == [str(path)] and path.read_text().strip()
    assert "certificate" not in payload["result"] and "graph" not in payload["result"]


@pytest.mark.parametrize("argv", [
    "coeff cycle:4 --exponent 1,1,1,1", "coeff cycle:4 --almost-central", "coeff cycle:4 --support 2,2,2,2",
    "at cycle:4 --exact", "at cycle:5 --trace 4", "at complete:4 --prop6", "at complete:4 --fplan 0,1,2,3",
    "phi cycle:3", "choosable cycle:4 --f 2 --certificate", "choosable cycle:4 --f 2 --exhaustive",
    "check cert.json",
])
def test_every_accepted_budget_is_spent(capsys, workdir, argv):
    code, _, err = run_cli(capsys, *argv.split(), "--budget", "1")
    assert code == 3 and err.startswith("budget exceeded: budget of 1 "), err


# one mode of each subcommand that declares --budget
_BUDGET_MODES = {
    "coeff": "coeff cycle:4 --almost-central", "at": "at petersen --exact", "phi": "phi cycle:3",
    "choosable": "choosable cycle:4 --f 2 --exhaustive", "check": "check cert.json",
}


def test_budget_modes_cover_every_subcommand_that_declares_budget():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(_BUDGET_MODES) == {name for name, p in subcommands.items() if "--budget" in p._option_string_actions}


@pytest.mark.parametrize("budget", ["-1", "-5", "x"])
@pytest.mark.parametrize("command", sorted(_BUDGET_MODES))
def test_a_budget_below_zero_is_a_usage_error(capsys, workdir, command, budget):
    err = _refused(capsys, workdir, f"{_BUDGET_MODES[command]} --budget {budget}")
    assert f"argument --budget: expected a non-negative integer, got '{budget}'" in err


@pytest.mark.parametrize("trials", [0, 5])
def test_every_accepted_seed_is_read(capsys, trials):
    code, payload, err = run_json(capsys, "choosable", "cycle:3", "--f", "3", "--stress", str(trials), "--seed", "3")
    assert code == 0, err
    assert payload["manifest"]["seed"] == payload["result"]["seed"] == 3
    assert payload["result"]["trials"] == trials


def test_certificate_bytes_are_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_json(capsys, "at", "complete:3", "--prop6", "--out", str(a))
    run_json(capsys, "at", "complete:3", "--prop6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    run_json(capsys, "choosable", "cycle:4", "--f", "2", "--certificate", "--out", str(c))
    run_json(capsys, "choosable", "cycle:4", "--f", "2", "--certificate", "--out", str(d))
    assert c.read_bytes() == d.read_bytes()


def test_coeff_long_path_both_engines(capsys):
    # the enumeration engine once recursed once per edge and crashed here
    exponent = ",".join(["0"] + ["1"] * 1499)
    code, payload, err = run_json(
        capsys, "coeff", "path:1500", "--exponent", exponent, "--method", "both"
    )
    assert code == 0, err
    assert payload["result"]["coefficient"] == "1"


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "product:cycle:3:cycle:4", "--almost-central", "--budget", "10"
    )
    assert code == 3
    assert "budget" in err


def test_a_listing_over_its_cap_exits_2_before_decoding(capsys, monkeypatch):
    def listing():
        code, out, err = run_cli(capsys, "coeff", "cycle:3", "--almost-central")
        manifest = json.loads(out)["manifest"] if out else None
        return code, out.replace(str(manifest and manifest["wall_clock_s"]), "T"), err

    free = listing()
    monkeypatch.setattr("graphpoly.cli.COEFF_LIST_CAP", 6)  # the window holds 6 coefficients
    assert listing() == free and free[0] == 0
    monkeypatch.setattr("graphpoly.cli.COEFF_LIST_CAP", 5)
    code, out, err = listing()
    assert (code, out) == (2, "")
    assert err == "error: 6 coefficients to list exceed the listing cap of 5\n"


def test_usage_exit_code(capsys):
    code, _, _ = run_cli(capsys, "gen", "dodecahedron")
    assert code == 2
    code, _, _ = run_cli(capsys, "coeff", "cycle:3")
    assert code == 2


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "at", "cycle:4", "--exact", "--format", "text")
    assert code == 0
    assert "alon_tarsi_number: 2" in out


def test_parser_reuse_leaks_no_flags(capsys):
    stress = ["choosable", "cycle:3", "--f", "3", "--stress", "5"]
    code, out, _ = run_cli(capsys, "choosable", "--format", "text", "--seed", "9", *stress[1:])
    assert code == 0 and "seed: 9" in out
    code, out, _ = run_cli(capsys, *stress, "--seed", "9", "--format", "text")
    assert code == 0 and "seed: 9" in out
    exhaustive = ["choosable", "cycle:4", "--f", "2", "--exhaustive"]
    code, out, _ = run_cli(capsys, *exhaustive, "--budget", "2000", "--format", "text")
    assert code == 0 and "f_choosable: True" in out
    code, payload, _ = run_json(capsys, *stress)
    assert code == 0
    assert (payload["manifest"]["seed"], payload["manifest"]["budget"]) == (None, None)
    assert payload["result"]["seed"] == 0
    code, out, err = run_cli(capsys, "choosable", "cycle:3", "--stress", "five")
    assert code == 2 and not out and "invalid int value" in err
    code, payload, _ = run_json(capsys, *exhaustive)
    assert code == 0 and payload["result"]["f_choosable"] is True


def test_choosable_lists_refuses_malformed_json(tmp_path, capsys):
    path = tmp_path / "lists.json"
    for text in ["[[[1]],[2],[3]]", "5", "[[1.5,2],[2],[3]]", "[[1],[2]]", "[[true],[2],[3]]"]:
        path.write_text(text)
        code, out, err = run_cli(capsys, "choosable", "cycle:3", "--lists", str(path))
        assert code == 2, text
        assert err == "error: --lists needs a JSON array of 3 arrays of integers\n" and not out
    path.write_text("[[1,2],[2,3],[1,3]]")
    code, payload, _ = run_json(capsys, "choosable", "cycle:3", "--lists", str(path))
    assert code == 0 and payload["result"]["coloring"] == [1, 2, 3]


def test_choosable_lists_reads_only_the_lists(capsys, workdir, monkeypatch):
    import graphpoly.cli

    monkeypatch.setattr(graphpoly.cli, "coloring_number", None)  # --lists never sizes lists
    code, payload, _ = run_json(capsys, "choosable", "cycle:4", "--lists", "lists.json")
    assert code == 0 and payload["result"] == {"colorable": True, "coloring": [1, 2, 1, 2]}
    assert payload["manifest"]["parameters"] == {"universe": None}


def test_choosable_stress_refuses_a_negative_trial_count(capsys):
    code, out, err = run_cli(capsys, "choosable", "cycle:3", "--f", "3", "--stress", "-2")
    assert code == 2 and not out
    assert err == "error: trial count must be non-negative, got -2\n"


@pytest.mark.parametrize("f, mode", [
    ("100000000000", "--stress"),
    ("100000000000000000000", "--stress"),
    ("100000000000", "--exhaustive"),
])
def test_choosable_refuses_lists_it_cannot_hold(capsys, f, mode):
    argv = ["choosable", "cycle:3", "--f", f, mode] + (["1"] if mode == "--stress" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: lists of {3 * int(f)} colors from a universe of {2 * int(f)} refused")
    assert "(cap 1000000 colors)" in err and "Traceback" not in err


def test_choosable_exhaustive_counts_assignments_before_listing_them(capsys):
    # C(60, 30)^3 assignments; the running count stops at C(60, 5) = 5461512
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "choosable", "cycle:3", "--f", "30", "--exhaustive")
    assert time.perf_counter() - start < 1
    assert code == 3 and not out and "Traceback" not in err
    assert err.startswith("budget exceeded: budget of 5000000 list assignments exceeded")


# sha256 of the files these commands wrote when every digest and file serialised the graph anew
_CERTIFICATE_SHA256 = {
    "orient --odd-product 2,2": "f726b54ddc75d3177fe0ba3bb876b84e65ddd3a5b47a83d294c658a6a3c4219f",
    "orient --odd-product 3,3,3": "8a13caebb294d56f09c8b7f1dec275117d0d95bf6df387cacac74449a0942091",
    "at petersen --exact": "3c6ecafc8d3ce09713328b74b76b37e90050ecc9471c845e3f0bd8ea43bc2c7f",
    "at cyclepower:8:2 --trace 4": "8eb7b95b8cee8eda41526bdc82d02b9dfc3f95d0eef99777b2aef94ba62b9d40",
    "choosable product:cycle:4:cycle:4 --f 3 --certificate":
        "2c0aac4ceb33990adb4a909e7888b54faa8892788daee133d38ba7c3f467d51c",
}


@pytest.mark.parametrize("command", _CERTIFICATE_SHA256)
def test_certificate_files_keep_their_bytes(tmp_path, capsys, command):
    path = tmp_path / "cert.json"
    code, payload, _ = run_json(capsys, *command.split(), "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _CERTIFICATE_SHA256[command]
    assert payload["manifest"]["graph_digest"] == json.loads(path.read_text())["graph_digest"]


def _shuffled(graph):
    edges = list(graph["edges"])
    random.Random(5).shuffle(edges)
    return {"n": graph["n"], "edges": edges}


def _swapped(graph):
    return {"n": graph["n"], "edges": [[v, u, t] if i % 2 else [u, v, t] for i, (u, v, t) in enumerate(graph["edges"])]}


def _raw_digest(graph):
    return hashlib.sha256(canonical_json(graph).encode()).hexdigest()


def _with_graph(cert, graph, *, graph_digest_over=None, redigest=True):
    """cert holding graph, its graph digest over graph_digest_over's form where given, and its
    certificate digest recomputed unless redigest is False."""
    cert = dict(cert, graph=graph)
    if graph_digest_over is not None:
        cert["graph_digest"] = _raw_digest(graph_digest_over)
    return finalize_certificate(cert) if redigest else cert


_MISMATCH = [1, ["graph digest mismatch"]]
_STALE = [1, ["digest mismatch (certificate was modified)"]]
# each graph form of a certificate, with the exit code and errors of its check
_GRAPH_FORMS = {
    "as written": (lambda c: c, [0, []]),
    "shuffled edges, canonical graph digest": (lambda c: _with_graph(c, _shuffled(c["graph"])), [0, []]),
    "shuffled edges, raw graph digest": (
        lambda c: _with_graph(c, g := _shuffled(c["graph"]), graph_digest_over=g), _MISMATCH),
    "shuffled edges, stale digest": (lambda c: _with_graph(c, _shuffled(c["graph"]), redigest=False), _STALE),
    "swapped endpoints, canonical graph digest": (lambda c: _with_graph(c, _swapped(c["graph"])), [0, []]),
    "swapped endpoints, raw graph digest": (
        lambda c: _with_graph(c, g := _swapped(c["graph"]), graph_digest_over=g), _MISMATCH),
    "swapped endpoints, stale digest": (lambda c: _with_graph(c, _swapped(c["graph"]), redigest=False), _STALE),
    "keys in another order": (lambda c: _with_graph(c, {"edges": c["graph"]["edges"], "n": c["graph"]["n"]}),
                              [0, []]),
    "an extra key": (lambda c: _with_graph(c, dict(c["graph"], extra=1)), [0, []]),
    "a float endpoint": (
        lambda c: _with_graph(c, {"n": c["graph"]["n"], "edges": [[1.0, 2, "diff"]] + c["graph"]["edges"][1:]}),
        [1, ["graph does not parse: expected an integer, got 1.0"]]),
    "no graph": (lambda c: finalize_certificate({k: v for k, v in c.items() if k != "graph"}),
                 [1, ["graph does not parse: 'graph'"]]),
}


@functools.cache
def _graph_certificates():
    return {
        "orientation": orientation_certificate(odd_cycle_product_orientation([2, 2])),
        "coefficient": coefficient_choosability_certificate(build_cycle(5), [3] * 5),
        "trace": even_cycle_certificate(build_cycle(5), 4),
    }


@pytest.mark.parametrize("form", _GRAPH_FORMS)
@pytest.mark.parametrize("kind", ["orientation", "coefficient", "trace"])
def test_check_verdicts_on_each_graph_form(tmp_path, capsys, kind, form):
    make, expected = _GRAPH_FORMS[form]
    cert = make(copy.deepcopy(_graph_certificates()[kind]))
    path = tmp_path / "cert.json"
    path.write_text(canonical_json(cert))
    code, payload, _ = run_json(capsys, "check", str(path))
    assert [code, payload["result"]["errors"]] == expected
    assert check_certificate(cert).errors == expected[1]


# CLI paths that no other test runs; each ends on its exit code with no traceback

@pytest.mark.parametrize("spec, cap, entries", [
    ("cycle:3", "1,1,1", []),  # x1 x2 x3 has coefficient 0 in the triangle's polynomial
    ("cycle:4", "1,1,1,1", [{"exponent": [1, 1, 1, 1], "coefficient": "-2"}]),
])
def test_coeff_support_lists_the_entries_under_the_caps(capsys, spec, cap, entries):
    code, payload, err = run_json(capsys, "coeff", spec, "--support", cap)
    assert (code, err) == (0, "")
    assert payload["result"] == {"entries": entries, "count": len(entries)}
    assert payload["manifest"]["parameters"] == {"cap": [int(x) for x in cap.split(",")]}


def test_at_prop6_without_a_cover_exits_1_with_its_reason(capsys):
    code, payload, err = run_json(capsys, "at", "path:3", "--prop6")
    assert (code, err) == (1, "")
    assert payload["result"] == {"certificate": None,
                                 "reason": "no vertex-disjoint cycle cover of the maximum-degree vertices"}


def test_orient_without_a_mode_exits_2(capsys):
    assert run_cli(capsys, "orient", "cycle:4") == (
        2, "", "orient: choose --lower/--upper, --box KS, or --odd-product KS\n")


def test_a_vector_that_is_not_integers_exits_2(capsys):
    code, out, err = run_cli(capsys, "choosable", "cycle:3", "--f", "1,x", "--exhaustive")
    assert (code, out) == (2, "")
    assert err.startswith("usage: graphpoly choosable ") and "Traceback" not in err
    assert err.endswith("graphpoly choosable: error: argument --f: expected comma-separated integers, "
                        "got '1,x'\n")


def test_an_invariant_violation_exits_4(monkeypatch, capsys):
    def broken(spec):
        raise InvariantViolationError("forced for the test")

    monkeypatch.setattr("graphpoly.cli.parse_graph_spec", broken)
    assert run_cli(capsys, "gen", "cycle", "5") == (4, "", "internal invariant violation: forced for the test\n")


def test_edge_list_comments_and_blank_lines_are_skipped(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("# a triangle\n\nn 3  # vertices\n1 2\n\n1 3   # the second edge\n2 3\n")
    code, payload, err = run_json(capsys, "coeff", str(path), "--exponent", "2,1,0")
    assert (code, err) == (0, "")
    assert payload["result"]["coefficient"] == "-1"
    assert payload["manifest"]["graph_digest"] == graph_digest(build_cycle(3))


def test_edge_list_without_a_header_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# no header, no edges\n\n")
    assert run_cli(capsys, "coeff", str(path), "--exponent", "") == (2, "", "error: missing header line\n")


def test_an_exponent_past_a_degree_gives_0_with_no_advisory(capsys):
    # the total degree 2 is the edge count, but vertex 1 has degree 1
    code, payload, err = run_json(capsys, "coeff", "path:3", "--exponent", "2,0,0")
    assert (code, err) == (0, "")
    assert payload["result"] == {"exponent": [2, 0, 0], "coefficient": "0"}


# input nested past Python's recursion limit

_NESTED = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize("argv, text", [
    (["check", "{path}"], _NESTED),
    (["choosable", "cycle:3", "--lists", "{path}"], _NESTED),
    (["coeff", "{path}", "--almost-central"], '{"n": ' + _NESTED + "}"),
], ids=["check", "lists", "graph"])
def test_deeply_nested_json_exits_2_without_a_traceback(tmp_path, capsys, argv, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    argv = [a.format(path=path) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", "error: input nested too deeply to read\n")


def test_a_chain_based_on_a_chain_is_refused_before_its_base_is_checked(tmp_path, capsys):
    # 800 chains each re-digested around the last: the check refuses the outermost base by its
    # kind alone, where checking it would recurse through every level
    cert = cycle_product_chain([], [4])
    for _ in range(800):
        cert = {k: v for k, v in cert.items() if k != "digest"}
        cert = finalize_certificate(dict(cert, base_certificate=cert))
    path = tmp_path / "chain.json"
    path.write_text(canonical_json(cert))
    code, payload, err = run_json(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert payload["result"]["errors"] == ["base certificate kind 'chain' is not 'orientation'"]
