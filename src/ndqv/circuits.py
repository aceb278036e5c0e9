"""Gate-level circuits realizing the nondemolition pass tests.

Circuits act on a register of system qubits followed by ancillas, big-endian.
Gates and circuits are frozen: a circuit holds a tuple of gates and a
read-only branch table, and a U1Q gate a read-only copy of its matrix.
Stabilizer words compile to one-ancilla parity checks (compile_stabilizer);
the two-qubit and adaptive checks are built from local rotations.
Ancillas always start in |0> and are read in the computational basis. A
circuit's verdict comes from its pass rule:

* ``all_zero``: every measured pass bit must read 0. This covers the
  single-ancilla couplings, where the ancilla-0 branch is a genuine Kraus
  operator.
* ``reject_all_zero``: a coherent two-outcome event; the run fails exactly
  when the joint all-zeros projector fires after the unitary part. The pass
  branch is the operator complement (input minus fired component), which is
  only a valid instrument on fresh ancillas; the executor enforces that. The
  recorded bit is an event indicator, not a per-ancilla readout.

A circuit may branch: when the final gate of its list is a measurement and a
branch table is attached, the outcome selects a continuation circuit. Branch
bits do not enter the pass verdict.
"""
from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

import numpy as np

from . import linalg

GATES_1Q = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "S": np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex),
}

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

PASS_RULES = ("all_zero", "reject_all_zero")

# Materializing circuit operators is quadratic in dimension; cap the register.
MAX_MATRIX_QUBITS = 12

_IMPOSSIBLE_CUTOFF = 1e-14


@dataclass(frozen=True)
class Gate:
    """One instruction; qubits holds controls first, target last."""

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.matrix is not None:
            mat = np.array(self.matrix, dtype=complex)
            mat.flags.writeable = False
            object.__setattr__(self, "matrix", mat)


def _check_gate(g: Gate, n_qubits: int, n_system: int) -> None:
    if any(not 0 <= q < n_qubits for q in g.qubits):
        raise ValueError(f"gate {g.kind} touches a qubit outside the register")
    if len(set(g.qubits)) != len(g.qubits):
        raise ValueError(f"gate {g.kind} repeats a qubit")
    if g.kind in GATES_1Q:
        if len(g.qubits) != 1:
            raise ValueError(f"{g.kind} takes exactly one qubit")
    elif g.kind == "U1Q":
        if len(g.qubits) != 1:
            raise ValueError("U1Q takes exactly one qubit")
        if g.matrix is None or g.matrix.shape != (2, 2):
            raise ValueError("U1Q needs a 2x2 matrix")
        if not linalg.is_unitary(g.matrix):
            raise ValueError("U1Q matrix is not unitary")
    elif g.kind == "CNOT":
        if len(g.qubits) != 2:
            raise ValueError("CNOT takes control and target")
    elif g.kind == "CCX":
        if len(g.qubits) < 3:
            raise ValueError("CCX needs at least two controls and a target")
    elif g.kind == "MZ":
        if len(g.qubits) != 1:
            raise ValueError("MZ takes exactly one qubit")
        if g.qubits[0] < n_system:
            raise ValueError("MZ may only read ancilla qubits")
    else:
        raise ValueError(f"unknown gate kind {g.kind!r}")


@dataclass(frozen=True)
class Circuit:
    """Gate tuple over a fixed register, with optional outcome branching."""

    n_qubits: int
    n_system: int
    gates: tuple[Gate, ...]
    branches: types.MappingProxyType | None = None
    pass_rule: str = "all_zero"
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.branches is not None:
            table = types.MappingProxyType(dict(self.branches))
            object.__setattr__(self, "branches", table)
        if not 0 < self.n_system <= self.n_qubits:
            raise ValueError("need at least one system qubit inside the register")
        if self.pass_rule not in PASS_RULES:
            raise ValueError(f"unknown pass rule {self.pass_rule!r}")
        for g in self.gates:
            _check_gate(g, self.n_qubits, self.n_system)
        if self.branches is not None:
            if self.pass_rule != "all_zero":
                raise ValueError("branching circuits must use the all_zero rule")
            if set(self.branches) != {0, 1}:
                raise ValueError("branch table needs exactly outcomes 0 and 1")
            if not self.gates or self.gates[-1].kind != "MZ":
                raise ValueError("a branching circuit must end in its branch MZ")
            for sub in self.branches.values():
                if (sub.n_qubits, sub.n_system) != (self.n_qubits, self.n_system):
                    raise ValueError("branch circuits must share the register")
        if self.pass_rule == "reject_all_zero":
            mz = [i for i, g in enumerate(self.gates) if g.kind == "MZ"]
            if not mz:
                raise ValueError("reject rule needs at least one MZ")
            if mz != list(range(len(self.gates) - len(mz), len(self.gates))):
                raise ValueError("reject rule requires all MZ gates at the tail")

    @property
    def n_ancilla(self) -> int:
        return self.n_qubits - self.n_system

    def measured_qubits(self) -> list[int]:
        return [g.qubits[0] for g in self.gates if g.kind == "MZ"]

    def has_measurements(self) -> bool:
        return bool(self.measured_qubits()) or self.branches is not None


@dataclass
class MeasurementRecord:
    """Outcomes of one circuit run.

    outcomes holds (qubit, bit) per event in order; probability is the Born
    weight of the realized trajectory; pass_bits is the subset of bits that
    enter the verdict (branch selectors excluded). p_zero holds, per event
    in the same order, the probability of outcome 0 that decided it (the
    threshold a uniform is compared with); for a reject-rule event that is
    the pass probability, whose complement is computed separately as the
    fire probability, so the product of p0 or 1 - p0 along the outcomes
    equals probability only to rounding.
    """

    outcomes: list[tuple[int, int]] = field(default_factory=list)
    probability: float = 1.0
    pass_bits: list[int] = field(default_factory=list)
    p_zero: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(b == 0 for b in self.pass_bits)


class _OutcomeSource:
    """Resolves each two-way event from a uniform list or forced bits.

    Convention shared with the matrix backend: with one uniform u per event,
    the probability-p0 outcome 0 happens exactly when u < p0.
    """

    def __init__(self, uniforms, forced):
        if (uniforms is None) == (forced is None):
            raise ValueError("supply exactly one of uniforms, forced_outcomes")
        self._uniforms = iter(uniforms) if uniforms is not None else None
        self._forced = iter(forced) if forced is not None else None

    def decide(self, p_zero: float) -> int:
        if self._forced is not None:
            try:
                bit = int(next(self._forced))
            except StopIteration:
                raise ValueError("ran out of forced outcomes") from None
            p = p_zero if bit == 0 else 1.0 - p_zero
            if p < _IMPOSSIBLE_CUTOFF:
                raise ValueError(f"forced outcome {bit} has probability {p}")
            return bit
        try:
            u = float(next(self._uniforms))
        except StopIteration:
            raise ValueError("ran out of uniforms") from None
        return 0 if u < p_zero else 1


def _apply_1q(tensor: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    moved = np.tensordot(mat, tensor, axes=([1], [q]))
    return np.moveaxis(moved, 0, q)


def _apply_controlled_x(tensor: np.ndarray, controls: tuple[int, ...], target: int) -> np.ndarray:
    out = tensor.copy()
    idx = [slice(None)] * tensor.ndim
    for c in controls:
        idx[c] = 1
    # axes vanish for every fixed control before the target
    shift = sum(1 for c in controls if c < target)
    sub = out[tuple(idx)]
    out[tuple(idx)] = np.flip(sub, axis=target - shift)
    return out


def _gate_1q_matrix(g: Gate) -> np.ndarray:
    return g.matrix if g.kind == "U1Q" else GATES_1Q[g.kind]


def _apply_gate(tensor: np.ndarray, g: Gate) -> np.ndarray:
    """Apply one unitary gate to the register tensor."""
    if g.kind in ("CNOT", "CCX"):
        return _apply_controlled_x(tensor, g.qubits[:-1], g.qubits[-1])
    return _apply_1q(tensor, _gate_1q_matrix(g), g.qubits[0])


def _prob_zero(tensor: np.ndarray, q: int) -> float:
    idx = [slice(None)] * tensor.ndim
    idx[q] = 0
    return float(np.sum(np.abs(tensor[tuple(idx)]) ** 2))


def _project(tensor: np.ndarray, q: int, bit: int, prob: float) -> np.ndarray:
    out = tensor.copy()
    idx = [slice(None)] * tensor.ndim
    idx[q] = 1 - bit
    out[tuple(idx)] = 0.0
    return out / math.sqrt(prob)


def _run_gates(
    circuit: Circuit,
    tensor: np.ndarray,
    source: _OutcomeSource,
    record: MeasurementRecord,
) -> np.ndarray:
    if circuit.pass_rule == "reject_all_zero":
        return _run_reject_rule(circuit, tensor, source, record)
    last = len(circuit.gates) - 1
    for i, g in enumerate(circuit.gates):
        if g.kind == "MZ":
            q = g.qubits[0]
            p0 = _prob_zero(tensor, q)
            bit = source.decide(p0)
            prob = p0 if bit == 0 else 1.0 - p0
            record.outcomes.append((q, bit))
            record.p_zero.append(p0)
            record.probability *= prob
            tensor = _project(tensor, q, bit, prob)
            if circuit.branches is not None and i == last:
                return _run_gates(circuit.branches[bit], tensor, source, record)
            record.pass_bits.append(bit)
        else:
            tensor = _apply_gate(tensor, g)
    return tensor


def _run_reject_rule(
    circuit: Circuit,
    tensor: np.ndarray,
    source: _OutcomeSource,
    record: MeasurementRecord,
) -> np.ndarray:
    original = tensor.copy()
    measured = circuit.measured_qubits()
    for g in circuit.gates:
        if g.kind != "MZ":
            tensor = _apply_gate(tensor, g)
    fired = tensor
    for q in measured:
        idx = [slice(None)] * fired.ndim
        idx[q] = 1
        fired = fired.copy()
        fired[tuple(idx)] = 0.0
    p_fire = float(np.sum(np.abs(fired) ** 2))
    survivor = original - fired
    p_pass = float(np.sum(np.abs(survivor) ** 2))
    if abs(p_fire + p_pass - 1.0) > 1e-9:
        raise ValueError(
            "reject-rule circuit needs fresh measured ancillas in |0>"
        )
    bit = source.decide(p_pass)  # bit 0 is the pass branch
    q_event = measured[0]
    record.outcomes.append((q_event, bit))
    record.p_zero.append(p_pass)
    record.pass_bits.append(bit)
    if bit == 0:
        record.probability *= p_pass
        return survivor / math.sqrt(p_pass)
    record.probability *= p_fire
    return fired / math.sqrt(p_fire)


def apply(
    circuit: Circuit,
    state: np.ndarray,
    uniforms=None,
    forced_outcomes=None,
) -> tuple[np.ndarray, MeasurementRecord]:
    """Run the circuit on a full-register state vector.

    Measurement outcomes come from exactly one source: a list of uniforms
    (one per event, outcome 0 when u < p0) or forced bits.
    Forcing an outcome whose probability is below 1e-14 raises.
    """
    v = linalg.as_vector(state)
    if v.shape[0] != 2**circuit.n_qubits:
        raise ValueError("state length does not match the register")
    record = MeasurementRecord()
    if uniforms is None and forced_outcomes is None:
        if circuit.has_measurements():
            raise ValueError("circuit measures; supply uniforms or forced_outcomes")
        uniforms = []
    source = _OutcomeSource(uniforms, forced_outcomes)
    tensor = v.reshape([2] * circuit.n_qubits)
    out = _run_gates(circuit, tensor, source, record)
    return out.reshape(-1), record


def fresh_input(circuit: Circuit, system_state: np.ndarray) -> np.ndarray:
    """System state tensored with ancillas in |0>."""
    v = linalg.as_vector(system_state)
    if v.shape[0] != 2**circuit.n_system:
        raise ValueError("system state length does not match the system register")
    anc = np.zeros(2**circuit.n_ancilla, dtype=complex)
    anc[0] = 1.0
    return np.kron(v, anc)


# ---------------------------------------------------------------------------
# matrix forms
# ---------------------------------------------------------------------------


def _embedded(n: int, placements: dict[int, np.ndarray]) -> np.ndarray:
    ops = [placements.get(q, np.eye(2, dtype=complex)) for q in range(n)]
    return linalg.kron_all(*ops)


def gate_matrix(g: Gate, n_qubits: int) -> np.ndarray:
    """Full-register matrix of one unitary gate."""
    if n_qubits > MAX_MATRIX_QUBITS:
        raise ValueError(f"matrix form capped at {MAX_MATRIX_QUBITS} qubits")
    if g.kind == "MZ":
        raise ValueError("MZ has no unitary matrix")
    if g.kind in ("CNOT", "CCX"):
        controls, target = g.qubits[:-1], g.qubits[-1]
        placements = {c: _P1 for c in controls}
        placements[target] = GATES_1Q["X"] - np.eye(2, dtype=complex)
        return linalg.identity(2**n_qubits) + _embedded(n_qubits, placements)
    return _embedded(n_qubits, {g.qubits[0]: _gate_1q_matrix(g)})


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the gate matrices; measurement-free circuits only."""
    if circuit.has_measurements():
        raise ValueError("circuit_unitary requires a measurement-free circuit")
    out = linalg.identity(2**circuit.n_qubits)
    for g in circuit.gates:
        out = gate_matrix(g, circuit.n_qubits) @ out
    return out


def pass_kraus(circuit: Circuit) -> np.ndarray:
    """Operator mapping input to the unnormalized pass-branch output.

    For branching circuits this is the sum over pass trajectories; for the
    reject rule it is the complement of the fired branch, valid on fresh
    ancillas.
    """
    n = circuit.n_qubits
    if n > MAX_MATRIX_QUBITS:
        raise ValueError(f"matrix form capped at {MAX_MATRIX_QUBITS} qubits")
    eye = linalg.identity(2**n)
    if circuit.pass_rule == "reject_all_zero":
        u = eye
        proj = eye
        for g in circuit.gates:
            if g.kind == "MZ":
                proj = _embedded(n, {g.qubits[0]: _P0}) @ proj
            else:
                u = gate_matrix(g, n) @ u
        return eye - proj @ u

    def section(c: Circuit) -> np.ndarray:
        op = eye
        last = len(c.gates) - 1
        for i, g in enumerate(c.gates):
            if g.kind == "MZ":
                if c.branches is not None and i == last:
                    q = g.qubits[0]
                    total = np.zeros_like(op)
                    for bit, sub in c.branches.items():
                        sel = _embedded(n, {q: _P0 if bit == 0 else _P1})
                        total += section(sub) @ sel @ op
                    return total
                op = _embedded(n, {g.qubits[0]: _P0}) @ op
            else:
                op = gate_matrix(g, n) @ op
        return op

    return section(circuit)


# ---------------------------------------------------------------------------
# catalog compilers
# ---------------------------------------------------------------------------


def compile_stabilizer(words, labels) -> list[Circuit]:
    """One-ancilla parity check of each signed Pauli word, labelled in order.

    For a ``+`` word over I/X/Z: H on each X qubit, CNOTs from the support
    into one fresh ancilla (highest qubit first), the H gates undone, then
    MZ on the ancilla. The ancilla reads the word's eigenvalue, 0 for +1, so
    the pass branch is (I + S)/2 with the system left in place. A Y letter
    or a minus sign is refused; no catalog word carries either.
    """
    words, labels = list(words), list(labels)
    if len(words) != len(labels):
        raise ValueError(f"{len(labels)} labels for {len(words)} words")
    out = []
    for word, label in zip(words, labels):
        body = word[1:]
        if not word.startswith("+") or not body or set(body) - set("IXZ"):
            raise ValueError(f"compile_stabilizer takes +I/X/Z words, got {word!r}")
        n = len(body)
        wash = [Gate("H", (q,)) for q, p in enumerate(body) if p == "X"]
        parity = [Gate("CNOT", (q, n)) for q in reversed(range(n)) if body[q] != "I"]
        gates = wash + parity + wash + [Gate("MZ", (n,))]
        out.append(Circuit(n_qubits=n + 1, n_system=n, gates=gates, label=label))
    return out


def compile_bell() -> list[Circuit]:
    """Parity-check circuits for the Bell pair: Z basis, then X basis."""
    return compile_stabilizer(("+ZZ", "+XX"), ("bell_parity_z", "bell_parity_x"))


def _rotation_factors(theta: float, which: int) -> tuple[list[str], np.ndarray]:
    """Local rotation for the rank-1 reject checks.

    Returns (first-qubit gate names in application order, second-qubit 2x2).
    """
    c, s = math.cos(theta), math.sin(theta)
    if which == 2:
        return ["H"], np.array([[c, -s], [s, c]], dtype=complex)
    if which == 3:
        return ["H", "X"], np.array([[c, s], [-s, c]], dtype=complex)
    raise ValueError("which must be 2 or 3")


def compile_two_qubit(theta: float, variant: str = "toffoli") -> list[Circuit]:
    """Three pass-test circuits for sin|00> + cos|11>.

    variant 'toffoli' uses one ancilla and a doubly controlled flip per
    rank-1 reject check; 'cnot_pair' trades the Toffoli for two CNOTs, one
    extra ancilla, and a joint reject event.
    """
    if variant not in ("toffoli", "cnot_pair"):
        raise ValueError(f"unknown variant {variant!r}")
    parity = Circuit(
        n_qubits=3 if variant == "toffoli" else 4,
        n_system=2,
        gates=[
            Gate("CNOT", (1, 2)),
            Gate("CNOT", (0, 2)),
            Gate("MZ", (2,)),
        ],
        label="pair_parity",
    )
    out = [parity]
    for which in (2, 3):
        first, second = _rotation_factors(theta, which)
        if variant == "toffoli":
            gates: list[Gate] = []
            gates += [Gate(name, (0,)) for name in first]
            gates.append(Gate("U1Q", (1,), matrix=second))
            gates += [Gate("X", (0,)), Gate("X", (1,))]
            gates.append(Gate("CCX", (0, 1, 2)))
            gates += [Gate("X", (0,)), Gate("X", (1,))]
            gates.append(Gate("U1Q", (1,), matrix=second.conj().T))
            gates += [Gate(name, (0,)) for name in reversed(first)]
            gates.append(Gate("MZ", (2,)))
            out.append(
                Circuit(n_qubits=3, n_system=2, gates=gates, label=f"pair_reject_{which}t")
            )
        else:
            gates = []
            gates += [Gate(name, (0,)) for name in first]
            gates.append(Gate("U1Q", (1,), matrix=second))
            gates.append(Gate("CNOT", (1, 3)))
            gates.append(Gate("CNOT", (0, 2)))
            gates.append(Gate("U1Q", (1,), matrix=second.conj().T))
            gates += [Gate(name, (0,)) for name in reversed(first)]
            gates += [Gate("MZ", (2,)), Gate("MZ", (3,))]
            out.append(
                Circuit(
                    n_qubits=4,
                    n_system=2,
                    gates=gates,
                    pass_rule="reject_all_zero",
                    label=f"pair_reject_{which}b",
                )
            )
    return out


def adaptive_rotations(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-qubit rotations used on the two adaptive branches."""
    c, s = math.cos(theta), math.sin(theta)
    r_plus = np.array([[s, c], [-c, s]], dtype=complex)
    r_minus = np.array([[s, -c], [c, s]], dtype=complex)
    return r_plus, r_minus


def compile_adaptive(theta: float) -> Circuit:
    """Branching circuit measuring the rank-2 adaptive X check.

    The first ancilla reading selects which branch rotation straightens the
    second qubit; the second ancilla is the pass bit. Inverse rotations
    restore the system basis on every branch.
    """
    r_plus, r_minus = adaptive_rotations(theta)

    def branch(rot: np.ndarray, name: str) -> Circuit:
        return Circuit(
            n_qubits=4,
            n_system=2,
            gates=[
                Gate("U1Q", (1,), matrix=rot),
                Gate("CNOT", (1, 3)),
                Gate("MZ", (3,)),
                Gate("U1Q", (1,), matrix=rot.conj().T),
                Gate("H", (0,)),
            ],
            label=name,
        )

    return Circuit(
        n_qubits=4,
        n_system=2,
        gates=[Gate("H", (0,)), Gate("CNOT", (0, 2)), Gate("MZ", (2,))],
        branches={0: branch(r_plus, "branch_plus"), 1: branch(r_minus, "branch_minus")},
        label="adaptive_x",
    )


def _local_rotation_gates(qubit: int, rot: np.ndarray | None, inverse: bool) -> list[Gate]:
    if rot is None:
        return []
    mat = rot.conj().T if inverse else rot
    return [Gate("U1Q", (qubit,), matrix=np.asarray(mat, dtype=complex))]


def rotated_toffoli_check(n: int, rotations: list[np.ndarray] | None = None) -> Circuit:
    """Reject the product state picked out by the local rotations.

    One ancilla; the X-conjugated multi-controlled flip fires it exactly on
    the rotated all-zeros component, so ancilla 0 passes everything
    orthogonal to that product state.
    """
    if n < 1:
        raise ValueError("need at least one system qubit")
    rots = rotations if rotations is not None else [None] * n
    if len(rots) != n:
        raise ValueError("need one rotation (or None) per system qubit")
    gates: list[Gate] = []
    for q in range(n):
        gates += _local_rotation_gates(q, rots[q], inverse=False)
    gates += [Gate("X", (q,)) for q in range(n)]
    if n == 1:
        gates.append(Gate("CNOT", (0, 1)))
    else:
        gates.append(Gate("CCX", tuple(range(n)) + (n,)))
    gates += [Gate("X", (q,)) for q in range(n)]
    for q in range(n):
        gates += _local_rotation_gates(q, rots[q], inverse=True)
    gates.append(Gate("MZ", (n,)))
    return Circuit(n_qubits=n + 1, n_system=n, gates=gates, label=f"reject_product_{n}")


def rotated_cnot_checks(n: int, rotations: list[np.ndarray] | None = None) -> Circuit:
    """Accept only the rotated all-zeros product state, one CNOT per qubit.

    Uses n ancillas; every ancilla must read 0, which witnesses each rotated
    qubit in |0>. The complement of this circuit's pass branch reproduces the
    multi-controlled reject check.
    """
    if n < 1:
        raise ValueError("need at least one system qubit")
    rots = rotations if rotations is not None else [None] * n
    if len(rots) != n:
        raise ValueError("need one rotation (or None) per system qubit")
    gates: list[Gate] = []
    for q in range(n):
        gates += _local_rotation_gates(q, rots[q], inverse=False)
        gates.append(Gate("CNOT", (q, n + q)))
        gates += _local_rotation_gates(q, rots[q], inverse=True)
        gates.append(Gate("MZ", (n + q,)))
    return Circuit(n_qubits=2 * n, n_system=n, gates=gates, label=f"accept_product_{n}")


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    return repr(float(x))


def _gate_line(g: Gate) -> str:
    if g.kind == "U1Q":
        entries = " ".join(
            _format_float(part)
            for z in g.matrix.reshape(-1)
            for part in (z.real, z.imag)
        )
        return f"U1Q {g.qubits[0]} {entries}"
    return f"{g.kind} {' '.join(str(q) for q in g.qubits)}"


def serialize_circuit(circuit: Circuit) -> str:
    """Line-based text form, one gate per line; round-trips exactly."""
    lines = [f"QUBITS {circuit.n_qubits}", f"SYSTEM {circuit.n_system}"]
    sections: list[tuple[str, Circuit]] = []

    def emit(c: Circuit, name: str) -> list[str]:
        body = []
        if c.pass_rule != "all_zero":
            body.append(f"RULE {c.pass_rule}")
        for g in c.gates:
            body.append(_gate_line(g))
        if c.branches is not None:
            for bit in sorted(c.branches):
                child = f"{name}{bit}" if name else f"b{bit}"
                body.append(f"BRANCH {bit} -> {child}")
                sections.append((child, c.branches[bit]))
        return body

    lines += emit(circuit, "")
    i = 0
    while i < len(sections):
        name, sub = sections[i]
        lines.append(f"LABEL {name}")
        lines += emit(sub, name)
        i += 1
    return "\n".join(lines) + "\n"


def _parse_gate(tokens: list[str], lineno: int) -> Gate:
    """Tokens to a Gate; parse_circuit checks it against the register."""
    kind = tokens[0]
    if kind == "U1Q":
        if len(tokens) != 10:
            raise ValueError(f"line {lineno}: U1Q needs a qubit and 8 floats")
        try:
            q = int(tokens[1])
            vals = [float(t) for t in tokens[2:]]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed U1Q numbers") from None
        mat = np.array(
            [
                [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
            ]
        )
        return Gate("U1Q", (q,), matrix=mat)
    try:
        qubits = tuple(int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"line {lineno}: qubit indices must be integers") from None
    return Gate(kind, qubits)


def parse_circuit(text: str) -> Circuit:
    """Parse the text form; errors carry 1-based line numbers."""
    n_qubits = n_system = None
    root_lines: list[tuple[int, str]] = []
    sections: dict[str, list[tuple[int, str]]] = {}
    current = root_lines
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "QUBITS":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ValueError(f"line {lineno}: QUBITS needs one integer")
            n_qubits = int(tokens[1])
        elif head == "SYSTEM":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ValueError(f"line {lineno}: SYSTEM needs one integer")
            n_system = int(tokens[1])
        elif head == "LABEL":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: LABEL needs one name")
            name = tokens[1]
            if name in sections:
                raise ValueError(f"line {lineno}: duplicate section {name!r}")
            sections[name] = []
            current = sections[name]
        else:
            current.append((lineno, line))
    if n_qubits is None or n_system is None:
        raise ValueError("line 1: missing QUBITS or SYSTEM header")

    def build(body: list[tuple[int, str]], resolving: tuple[str, ...]) -> Circuit:
        rule = "all_zero"
        gates: list[Gate] = []
        branch_refs: dict[int, tuple[str, int]] = {}
        for lineno, line in body:
            tokens = line.split()
            if tokens[0] == "RULE":
                if len(tokens) != 2 or tokens[1] not in PASS_RULES:
                    raise ValueError(f"line {lineno}: unknown pass rule")
                rule = tokens[1]
            elif tokens[0] == "BRANCH":
                if len(tokens) != 4 or tokens[2] != "->":
                    raise ValueError(
                        f"line {lineno}: expected 'BRANCH <bit> -> <label>'"
                    )
                if tokens[1] not in ("0", "1"):
                    raise ValueError(f"line {lineno}: branch bit must be 0 or 1")
                branch_refs[int(tokens[1])] = (tokens[3], lineno)
            else:
                if branch_refs:
                    raise ValueError(f"line {lineno}: gates after BRANCH lines")
                gate = _parse_gate(tokens, lineno)
                try:
                    _check_gate(gate, n_qubits, n_system)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                gates.append(gate)
        branches = None
        if branch_refs:
            branches = {}
            for bit, (name, lineno) in branch_refs.items():
                if name in resolving:
                    raise ValueError(f"line {lineno}: circular branch {name!r}")
                if name not in sections:
                    raise ValueError(f"line {lineno}: undefined section {name!r}")
                branches[bit] = build(sections[name], resolving + (name,))
        try:
            return Circuit(
                n_qubits=n_qubits,
                n_system=n_system,
                gates=gates,
                branches=branches,
                pass_rule=rule,
            )
        except ValueError as exc:
            first = body[0][0] if body else 1
            raise ValueError(f"line {first}: {exc}") from None

    return build(root_lines, ())
