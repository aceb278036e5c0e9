import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from ndqv import catalog
from ndqv import circuits as circ
from ndqv import linalg
from ndqv import sequential as seq
from ndqv import states, strategies


def test_gate_validation():
    with pytest.raises(ValueError, match="outside"):
        circ.Circuit(2, 1, [circ.Gate("H", (5,))])
    with pytest.raises(ValueError, match="repeats"):
        circ.Circuit(2, 1, [circ.Gate("CNOT", (0, 0))])
    with pytest.raises(ValueError, match="exactly one"):
        circ.Circuit(2, 1, [circ.Gate("H", (0, 1))])
    with pytest.raises(ValueError, match="unknown gate"):
        circ.Circuit(2, 1, [circ.Gate("Q", (0,))])
    with pytest.raises(ValueError, match="not unitary"):
        circ.Circuit(
            2, 1, [circ.Gate("U1Q", (0,), matrix=np.ones((2, 2), dtype=complex))]
        )


def test_mz_only_on_ancillas():
    with pytest.raises(ValueError, match="ancilla"):
        circ.Circuit(2, 2, [circ.Gate("MZ", (0,))])
    circ.Circuit(2, 1, [circ.Gate("MZ", (1,))])  # fine


def test_branch_table_validation():
    stub = circ.Circuit(2, 1, [])
    with pytest.raises(ValueError, match="outcomes 0 and 1"):
        circ.Circuit(2, 1, [circ.Gate("MZ", (1,))], branches={0: stub})
    with pytest.raises(ValueError, match="end in its branch"):
        circ.Circuit(
            2, 1, [circ.Gate("MZ", (1,)), circ.Gate("H", (0,))],
            branches={0: stub, 1: stub},
        )


def test_reject_rule_tail_validation():
    gates = [circ.Gate("MZ", (2,)), circ.Gate("CNOT", (0, 2)), circ.Gate("MZ", (3,))]
    with pytest.raises(ValueError, match="tail"):
        circ.Circuit(4, 2, gates, pass_rule="reject_all_zero")


def test_apply_requires_outcome_source():
    parity = circ.compile_bell()[0]
    vec = circ.fresh_input(parity, states.bell_state().vector)
    with pytest.raises(ValueError, match="supply uniforms"):
        circ.apply(parity, vec)


def test_apply_validates_state_length():
    parity = circ.compile_bell()[0]
    with pytest.raises(ValueError, match="does not match"):
        circ.apply(parity, np.ones(4) / 2.0, forced_outcomes=[0])


def test_forced_impossible_outcome_raises():
    parity = circ.compile_bell()[0]
    vec = circ.fresh_input(parity, states.bell_state().vector)
    with pytest.raises(ValueError, match="probability"):
        circ.apply(parity, vec, forced_outcomes=[1])


def test_uniform_exhaustion_raises():
    ghz = circ.compile_stabilizer(["+XXX"], ["ghz3_xxx"])[0]
    vec = circ.fresh_input(ghz, states.ghz(3).vector)
    with pytest.raises(ValueError, match="ran out"):
        circ.apply(ghz, vec, uniforms=[])


def _unitary_part(circuit):
    gates = [g for g in circuit.gates if g.kind != "MZ"]
    return circ.Circuit(circuit.n_qubits, circuit.n_system, gates)


def test_circuit_unitary_matches_coupling():
    parity = _unitary_part(circ.compile_bell()[0])
    u = circ.circuit_unitary(parity)
    omega = strategies.bell_minimal().settings[0].projector
    setting = seq.build_qnd_setting(omega)
    assert linalg.max_abs(u - setting.unitary) < 1e-12


def test_circuit_unitary_rejects_measurements():
    with pytest.raises(ValueError, match="measurement-free"):
        circ.circuit_unitary(circ.compile_bell()[0])


def test_pass_kraus_bell():
    protocol_strat = strategies.bell_minimal()
    for circuit, setting in zip(circ.compile_bell(), protocol_strat.settings):
        engine = seq.build_qnd_setting(setting.projector)
        assert linalg.max_abs(circ.pass_kraus(circuit) - engine.m_pass) < 1e-12


def test_compile_stabilizer_builds_the_textbook_parity_check():
    (check,) = circ.compile_stabilizer(["+XIZ"], ["xiz"])
    assert (check.n_qubits, check.n_system, check.label) == (4, 3, "xiz")
    assert [(g.kind, g.qubits) for g in check.gates] == [
        ("H", (0,)), ("CNOT", (2, 3)), ("CNOT", (0, 3)), ("H", (0,)), ("MZ", (3,)),
    ]
    with pytest.raises(ValueError, match="1 labels for 2 words"):
        circ.compile_stabilizer(["+XX", "+ZZ"], ["w"])


@pytest.mark.parametrize("word", ["+XYZ", "-XXX", "XXX", "+", "+XQ"])
def test_compile_stabilizer_refuses_words_it_cannot_check(word):
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        circ.compile_stabilizer([word], ["w"])


@pytest.mark.parametrize("n", range(2, 7))
def test_generated_ghz_pass_kraus_matches_the_engine(n):
    protocol = catalog.build_sequential(f"ghz{n}")
    for circuit, setting in zip(protocol.circuits, protocol.settings):
        assert linalg.max_abs(circ.pass_kraus(circuit) - setting.m_pass) < 1e-12


def test_circuits_refuse_writes():
    protocol = catalog.build_sequential("bell")
    circuit = protocol.circuits[0]
    with pytest.raises(AttributeError):
        circuit.gates.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.gates = ()
    branching = circ.compile_adaptive(0.5)
    with pytest.raises(TypeError):
        branching.branches[0] = circuit
    rot = np.eye(2, dtype=complex)
    gate = circ.Gate("U1Q", (0,), matrix=rot)
    rot[0, 0] = -1.0  # the gate holds its own copy
    assert gate.matrix[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[0, 0] = 2.0
    table = {0: circuit, 1: circuit}
    frozen = circ.Circuit(3, 2, [circ.Gate("MZ", (2,))], branches=table)
    table[0] = None
    assert frozen.branches[0] is circuit


def test_apply_collapses_and_normalizes():
    parity = circ.compile_bell()[0]
    plus_plus = np.ones(4, dtype=complex) / 2.0
    vec = circ.fresh_input(parity, plus_plus)
    out, record = circ.apply(parity, vec, forced_outcomes=[0])
    assert record.passed
    assert record.probability == pytest.approx(0.5)
    assert np.linalg.norm(out) == pytest.approx(1.0)
    # surviving component is the even-parity half, ancilla back in |0>
    expected_sys = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    expected = np.kron(expected_sys, np.array([1.0, 0.0]))
    assert linalg.max_abs(out - expected) < 1e-12


def test_reject_rule_needs_fresh_ancillas():
    reject = circ.compile_two_qubit(0.5, "cnot_pair")[1]
    dirty = np.zeros(16, dtype=complex)
    dirty[1] = 1.0  # ancilla q3 already set
    with pytest.raises(ValueError, match="fresh"):
        circ.apply(reject, dirty, forced_outcomes=[0])


def test_reject_rule_records_single_event():
    reject = circ.compile_two_qubit(0.5, "cnot_pair")[1]
    target = states.two_qubit_pure(0.5)
    vec = circ.fresh_input(reject, target.vector)
    out, record = circ.apply(reject, vec, forced_outcomes=[0])
    assert record.passed
    assert len(record.outcomes) == 1
    assert record.probability == pytest.approx(1.0)
    assert linalg.max_abs(out - vec) < 1e-12


def _catalog_circuits():
    protocols = [
        catalog.build_sequential("bell"),
        catalog.build_sequential("ghz2"),
        catalog.build_sequential("ghz3"),
        catalog.build_sequential("ghz4"),
        catalog.build_sequential("two_qubit_three", 0.6),
        catalog.build_sequential("two_qubit_three", 0.6, variant="cnot_pair"),
        catalog.build_sequential("adaptive_two", 0.5),
    ]
    return [c for p in protocols for c in p.circuits]


def _check_p_zero(record):
    assert len(record.p_zero) == len(record.outcomes)
    product = 1.0
    for (_, bit), p0 in zip(record.outcomes, record.p_zero):
        product *= p0 if bit == 0 else 1.0 - p0
    assert abs(product - record.probability) < 1e-9


def test_record_holds_the_outcome_zero_probability_of_every_event():
    gen = np.random.default_rng(8)
    for circuit in _catalog_circuits():
        d = 2**circuit.n_system
        sys_vec = gen.normal(size=d) + 1j * gen.normal(size=d)
        vec = circ.fresh_input(circuit, sys_vec / np.linalg.norm(sys_vec))
        for u in itertools.product([0.01, 0.99], repeat=2):
            _, record = circ.apply(circuit, vec, uniforms=list(u))
            _check_p_zero(record)
            # the uniform rule: outcome 0 exactly when u < p0
            assert [b for _, b in record.outcomes] == [
                int(not x < p0) for x, p0 in zip(u, record.p_zero)
            ]
            n_events = len(record.outcomes)
        for bits in itertools.product([0, 1], repeat=n_events):
            _, record = circ.apply(circuit, vec, forced_outcomes=bits)
            _check_p_zero(record)
            assert [b for _, b in record.outcomes] == list(bits)


def test_adaptive_target_trajectories():
    theta = 0.5
    circuit = circ.compile_adaptive(theta)
    target = states.two_qubit_pure(theta)
    vec = circ.fresh_input(circuit, target.vector)
    for branch_bit in (0, 1):
        out, record = circ.apply(circuit, vec, forced_outcomes=[branch_bit, 0])
        assert record.passed
        assert record.probability == pytest.approx(0.5)
        assert record.pass_bits == [0]
        assert len(record.outcomes) == 2
    with pytest.raises(ValueError, match="probability"):
        circ.apply(circuit, vec, forced_outcomes=[0, 1])


def test_rotated_checks_forced_statistics():
    # on |111> the unrotated product reject check must always pass
    toff = circ.rotated_toffoli_check(3)
    ones = np.zeros(8, dtype=complex)
    ones[-1] = 1.0
    _, record = circ.apply(toff, circ.fresh_input(toff, ones), forced_outcomes=[0])
    assert record.probability == pytest.approx(1.0)
    # while |000> always fails it
    zeros = np.zeros(8, dtype=complex)
    zeros[0] = 1.0
    _, record = circ.apply(toff, circ.fresh_input(toff, zeros), forced_outcomes=[1])
    assert record.probability == pytest.approx(1.0)


def test_gate_matrix_cnot():
    g = circ.Gate("CNOT", (0, 1))
    m = circ.gate_matrix(g, 2)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert linalg.max_abs(m - expected) == 0.0


def test_gate_matrix_ccx_far_control():
    # control 0, target 2, with an idle qubit in between
    g = circ.Gate("CNOT", (0, 2))
    m = circ.gate_matrix(g, 3)
    v = np.zeros(8, dtype=complex)
    v[0b100] = 1.0
    out = m @ v
    assert abs(out[0b101] - 1.0) < 1e-12


def test_tensor_executor_matches_matrix_form():
    gen = np.random.default_rng(17)
    circuit = _unitary_part(circ.compile_two_qubit(0.6, "toffoli")[1])
    u = circ.circuit_unitary(circuit)
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    v /= np.linalg.norm(v)
    out, _ = circ.apply(circuit, v)
    assert linalg.max_abs(out - u @ v) < 1e-12


def test_serialize_parse_roundtrip():
    for circuit in (
        circ.compile_bell()[1],
        circ.compile_two_qubit(0.45, "cnot_pair")[2],
        circ.compile_adaptive(0.45),
        circ.rotated_cnot_checks(2),
    ):
        text = circ.serialize_circuit(circuit)
        parsed = circ.parse_circuit(text)
        assert circ.serialize_circuit(parsed) == text
        assert linalg.max_abs(circ.pass_kraus(parsed) - circ.pass_kraus(circuit)) == 0.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        circ.parse_circuit("HELLO\n")
    with pytest.raises(ValueError, match="line 3"):
        circ.parse_circuit("QUBITS 2\nSYSTEM 1\nH 0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        circ.parse_circuit("QUBITS 2\nSYSTEM 1\nCNOT 0\n")
    # a gate outside the register is reported on its own line
    with pytest.raises(ValueError, match="line 4: gate H touches a qubit outside"):
        circ.parse_circuit("QUBITS 2\nSYSTEM 1\nH 0\nH 5\n")
    with pytest.raises(ValueError, match="undefined section"):
        circ.parse_circuit("QUBITS 2\nSYSTEM 1\nMZ 1\nBRANCH 0 -> a\nBRANCH 1 -> a\n")


def test_parse_rejects_gates_after_branches():
    text = "QUBITS 2\nSYSTEM 1\nMZ 1\nBRANCH 0 -> a\nH 0\n"
    with pytest.raises(ValueError, match="after BRANCH"):
        circ.parse_circuit(text)


def test_parse_comments_and_blanks():
    text = "# header\nQUBITS 2\nSYSTEM 1\n\nH 0  # wash\nMZ 1\n"
    parsed = circ.parse_circuit(text)
    assert [g.kind for g in parsed.gates] == ["H", "MZ"]
