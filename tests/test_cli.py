import json

from graphpoly.cli import main


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


def test_coeff_exponent(capsys):
    code, payload, _ = run_json(
        capsys, "coeff", "cycle:3", "--exponent", "2,1,0", "--method", "both"
    )
    assert code == 0
    assert payload["result"]["coefficient"] == "-1"
    assert "advisory" not in payload["result"]


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


def test_at_trace(capsys):
    code, payload, _ = run_json(capsys, "at", "cycle:5", "--trace", "4")
    assert code == 0
    assert payload["result"]["at_bound_for_product"] == 3


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


def test_phi_summary(capsys):
    code, payload, _ = run_json(capsys, "phi", "cycle:3", "--trace", "2")
    assert code == 0
    assert payload["result"]["symmetry"] == "skew-symmetric"
    assert payload["result"]["nonzero_entries"] == 12
    assert payload["result"]["trace_value"] == "-12"


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


def test_choosable_exhaustive(capsys):
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:4", "--f", "2", "--exhaustive"
    )
    assert code == 0 and payload["result"]["f_choosable"] is True
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:3", "--f", "2", "--exhaustive"
    )
    assert code == 1 and payload["result"]["f_choosable"] is False


def test_choosable_stress(capsys):
    code, payload, _ = run_json(
        capsys, "choosable", "cycle:3", "--f", "3", "--stress", "50", "--seed", "4"
    )
    assert code == 0
    assert payload["result"]["failures"] == []
    assert payload["result"]["seed"] == 4


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


def test_certificate_bytes_are_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_json(capsys, "at", "complete:3", "--prop6", "--out", str(a))
    run_json(capsys, "at", "complete:3", "--prop6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    run_json(capsys, "choosable", "cycle:4", "--f", "2", "--certificate", "--out", str(c))
    run_json(capsys, "choosable", "cycle:4", "--f", "2", "--certificate", "--out", str(d))
    assert c.read_bytes() == d.read_bytes()


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "product:cycle:3:cycle:4", "--almost-central", "--budget", "10"
    )
    assert code == 3
    assert "budget" in err


def test_usage_exit_code(capsys):
    code, _, _ = run_cli(capsys, "gen", "dodecahedron")
    assert code == 2
    code, _, _ = run_cli(capsys, "coeff", "cycle:3")
    assert code == 2


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "at", "cycle:4", "--exact")
    assert code == 0
    assert "alon_tarsi_number: 2" in out
