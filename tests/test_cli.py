import json
import os
import re

import pytest

from ndqv import catalog, checks, circuits as circ
from ndqv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gap_json_with_sample_counts(capsys):
    code, out, err = run_cli(
        capsys, "gap", "bell", "--epsilon", "0.02", "--delta", "0.05"
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["nu"] == pytest.approx(0.5, abs=1e-12)
    assert payload["lambda2"] == pytest.approx(0.5, abs=1e-12)
    assert payload["n_exact"] == 299
    assert payload["n_approx"] == 300
    assert len(payload["witness"]) == 4
    assert all(len(pair) == 2 for pair in payload["witness"])


def test_gap_text_format(capsys):
    code, out, _ = run_cli(capsys, "gap", "bell", "--format", "text")
    assert code == 0
    assert "bell_minimal" in out
    assert "nu = 0.5" in out


def test_gap_theta_selector(capsys):
    code, out, _ = run_cli(capsys, "gap", "two_qubit_three", "--theta", "0.7")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == 0.7
    assert payload["nu"] == pytest.approx(payload["analytic_nu"], abs=1e-9)


def test_gap_usage_errors(capsys):
    code, out, err = run_cli(capsys, "gap", "bell", "--epsilon", "0.02")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "gap", "nonsense")
    assert code == 2
    assert "unknown strategy" in err
    code, _, err = run_cli(capsys, "gap", "two_qubit_three")
    assert code == 2
    assert "requires theta" in err


def test_sweep_csv_is_deterministic(capsys):
    argv = (
        "sweep", "two_qubit_three",
        "--theta-min", "0.2", "--theta-max", "0.7", "--steps", "5",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().split("\n")
    assert lines[0] == "theta,nu,lambda2,analytic_nu"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert float(first[1]) == pytest.approx(float(first[3]), abs=1e-9)


def test_sweep_with_sample_counts(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "two_qubit_three",
        "--theta-min", "0.3", "--theta-max", "0.5", "--steps", "3",
        "--epsilon", "0.05", "--delta", "0.1",
    )
    assert code == 0
    header = out.split("\n", 1)[0]
    assert header.endswith("n_exact,n_approx")


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "bell", "--theta-min", "0", "--theta-max", "1"
    )
    assert code == 2
    assert "no theta to sweep" in err
    code, _, err = run_cli(
        capsys,
        "sweep", "two_qubit_three",
        "--theta-min", "0", "--theta-max", "1", "--steps", "1",
    )
    assert code == 2
    assert "at least 2 steps" in err


def test_simulate_clean_pass(capsys):
    code, out, _ = run_cli(capsys, "simulate", "bell", "--n", "50", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["n_pass"] == 50
    assert payload["protocol_kind"] == "strategy"


def test_simulate_sequential_circuit_backend(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "bell", "--sequential", "--backend", "circuit",
        "--n", "30", "--seed", "8", "--mode", "count_frequency",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol_kind"] == "sequential"
    assert payload["fidelity_estimate"]["f_hat"] == 1.0


def test_simulate_failing_source_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "bell",
        "--noise", "random_orthogonal", "--epsilon", "0.4", "--noise-seed", "2",
        "--mode", "count_frequency", "--n", "2000", "--seed", "3",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_simulate_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "bell", "--n", "20", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\n")
    assert len(lines) == 3 and lines[2] == ""
    assert lines[0].startswith("schema,protocol_label")


def test_simulate_reports_are_byte_stable(capsys):
    argv = (
        "simulate", "bell", "--sequential",
        "--noise", "worst_case_orthogonal", "--epsilon", "0.1",
        "--mode", "count_frequency", "--n", "200", "--seed", "12",
    )
    _, out_a, _ = run_cli(capsys, *argv)
    _, out_b, _ = run_cli(capsys, *argv)
    assert out_a == out_b


def test_simulate_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "ghz", "--n", "5")
    assert code == 2
    assert "unknown strategy" in err


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ("gap", "bell", "--epsilon", "0.02", "--delta", "0.05")
    _, expected, _ = run_cli(capsys, *argv)
    path = tmp_path / "gap.json"
    code = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert path.read_text() == expected
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_fidelity_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "fidelity", "bell",
        "--noise", "worst_case_orthogonal", "--epsilon", "0.2",
        "--n", "3000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_run"] == 3000
    assert abs(payload["f_hat"] - 0.8) < 0.03
    assert payload["ci_low"] < payload["f_hat"] < payload["ci_high"]


def test_fidelity_rejects_group_selector(capsys):
    code, _, err = run_cli(capsys, "fidelity", "bell_group", "--n", "10")
    assert code == 2
    assert "no sequential protocol" in err


def test_compile_emits_parseable_blocks(capsys):
    code, out, _ = run_cli(capsys, "compile", "ghz3")
    assert code == 0
    blocks = re.split(r"(?m)^# circuit .*\n", out)
    labels = re.findall(r"(?m)^# circuit (.*)$", out)
    assert labels == ["ghz3_xxx", "ghz3_ziz", "ghz3_zzi"]
    parsed = [circ.parse_circuit(b) for b in blocks[1:]]
    assert [c.n_qubits for c in parsed] == [4, 4, 4]


def test_compile_single_index(capsys):
    code, out, _ = run_cli(
        capsys, "compile", "two_qubit_three", "--theta", "0.5",
        "--variant", "cnot_pair", "--index", "2",
    )
    assert code == 0
    assert out.count("# circuit") == 1
    assert "RULE reject_all_zero" in out
    code, _, err = run_cli(
        capsys, "compile", "two_qubit_three", "--theta", "0.5", "--index", "9"
    )
    assert code == 2
    assert "index must lie" in err


def test_every_sequential_selector_compiles(capsys):
    cases = [("bell", None), ("adaptive_two", 0.5), ("two_qubit_three", 0.5)]
    cases += [(f"ghz{n}", None) for n in range(2, 11)]
    for name, theta in cases:
        assert catalog.has_sequential(name)
        argv = ["compile", name] + ([] if theta is None else ["--theta", str(theta)])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        labels = re.findall(r"(?m)^# circuit (.*)$", out)
        blocks = re.split(r"(?m)^# circuit .*\n", out)[1:]
        protocol = catalog.build_sequential(name, theta)
        assert labels == [c.label for c in protocol.circuits]
        assert len(labels) == len(protocol.settings)
        for block, circuit in zip(blocks, protocol.circuits):
            text = circ.serialize_circuit(circuit)
            assert circ.serialize_circuit(circ.parse_circuit(block)) == text


def test_check_list_and_subset(capsys):
    code, out, _ = run_cli(capsys, "check", "--list")
    assert code == 0
    names = out.strip().split("\n")
    assert "gap_formulas" in names
    code, out, _ = run_cli(capsys, "check", "rng_stream_indexing", "state_catalog")
    assert code == 0
    assert out.count("ok  ") == 2


def test_check_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "check", "sample_complexity_table", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "name": "sample_complexity_table",
            "passed": True,
            "detail": payload[0]["detail"],
        }
    ]
    code, _, err = run_cli(capsys, "check", "unknown_check")
    assert code == 2
    assert "unknown check" in err


def test_check_full_registry_as_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["name"] for r in payload] == checks.check_names()
    assert all(r["passed"] is True for r in payload)
