"""Verification protocols: projective settings, run sampled or in sequence.

A protocol is a target state and an ordered tuple of projective pass tests
that all accept the target with certainty. Its ``kind`` says how a copy
meets them. A ``strategy`` samples one setting per copy with its weight, so
its detection power is the gap of the mixed operator sum_i mu_i Omega_i. A
``sequential`` run applies every setting to the same copy as a
nondemolition measurement: each test is coupled to its own fresh ancilla
through a controlled-flip unitary, and reading the ancilla implements the
test without consuming the copy, so the run concentrates into one
effective projector on the system. Both kinds are frozen and their
projectors read-only; a sequential run of a strategy is the same object
with another kind, built by ``dataclasses.replace``.

A setting made from a matrix is checked as a projector by dense products.
A stabilizer test is made from its signed Pauli word instead: the word
builds an exact projector, so only the word is validated, and a sequential
run whose words are the n generators of a stabilizer group on n qubits is
complete without the dense product of its projectors (check_complete).
Documents carry matrices only, so a protocol read back from one runs both
dense checks.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import TargetState

ATOL_FIX = 1e-9       # settings must fix the target this tightly
ATOL_WEIGHTS = 1e-12  # weight normalization

KINDS = ("strategy", "sequential")

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_FLIP01 = _P0 @ _X  # |0><1| on the ancilla

# Full-register operators grow as 2^l; past this many settings they are
# refused and conditional_equivalence lifts one ancilla at a time instead.
MAX_MATERIALIZED_SETTINGS = 6

NEVER_PASSES_CUTOFF = 1e-14


# eq=False: equality and hash are by identity, since generated ones would
# compare ndarray fields and raise.
@dataclass(frozen=True, eq=False)
class Setting:
    """A projective pass test, with its sampling weight when in a strategy.

    A setting is made from a matrix or from a signed Pauli ``word`` S, whose
    test is (I + S)/2. A matrix is validated here by the dense projector
    check and kept as a read-only view of the array passed in (no copy). A
    word builds its projector by ``states.pauli_projector``, which is exact
    by construction (a signed Pauli word is Hermitian with S^2 = I), so only
    the word is parsed; a matrix passed along with a word must equal that
    projector entry for entry. The coupling to its ancilla and the two
    branch operators on system + ancilla are derived and validated on first
    access; the engine itself applies the projector to the system alone.
    """

    label: str
    projector: np.ndarray | None = None
    weight: float | None = None
    word: str | None = None

    def __post_init__(self) -> None:
        if self.word is not None:
            built = states.pauli_projector(self.word)
            if self.projector is None:
                omega = built
            else:
                omega = linalg.as_matrix(self.projector).view()
                if not np.array_equal(omega, built):
                    raise ValueError(
                        f"setting {self.label!r} projector is not that of its "
                        f"word {self.word!r}"
                    )
        elif self.projector is None:
            raise ValueError(f"setting {self.label!r} needs a projector or a word")
        else:
            omega = linalg.as_matrix(self.projector).view()
            if not linalg.is_projector(omega):
                raise ValueError(f"setting {self.label!r} is not a projector")
        omega.flags.writeable = False
        object.__setattr__(self, "projector", omega)

    @functools.cached_property
    def _lifted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        omega = self.projector
        eye = linalg.identity(omega.shape[0])
        u = linalg.kron(omega, np.eye(2, dtype=complex)) + linalg.kron(eye - omega, _X)
        m_pass = linalg.kron(eye, _P0) @ u
        m_fail = linalg.kron(eye, _P1) @ u
        if not linalg.is_unitary(u):
            raise ValueError("coupling unitary failed validation")
        total = linalg.dagger(m_pass) @ m_pass + linalg.dagger(m_fail) @ m_fail
        if linalg.max_abs(total - linalg.identity(u.shape[0])) > linalg.ATOL_STRUCTURAL:
            raise ValueError("pass/fail branches are not a complete instrument")
        return u, m_pass, m_fail

    @property
    def unitary(self) -> np.ndarray:
        """Coupling U = Omega (x) I + (I - Omega) (x) X on system + ancilla."""
        return self._lifted[0]

    @property
    def m_pass(self) -> np.ndarray:
        """Pass branch: ancilla read as 0 after the coupling."""
        return self._lifted[1]

    @property
    def m_fail(self) -> np.ndarray:
        """Fail branch: ancilla read as 1 after the coupling."""
        return self._lifted[2]


def build_qnd_setting(
    projector: np.ndarray | None,
    label: str = "",
    weight: float | None = None,
    word: str | None = None,
) -> Setting:
    """Couple a projective test to one ancilla.

    The coupling flips the ancilla exactly on the reject subspace, so the
    ancilla reading 0 is the pass branch and the system is untouched on it.
    A signed Pauli ``word`` may stand in for the projector (see Setting).
    """
    return Setting(label=label, projector=projector, weight=weight, word=word)


def pauli_setting(word: str, weight: float | None = None) -> Setting:
    """The pass test (I + S)/2 of a signed Pauli word, labelled by the word."""
    return build_qnd_setting(None, word, weight, word=word)


@dataclass(frozen=True, eq=False)
class Protocol:
    """Target and ordered settings, sampled (strategy) or run in sequence.

    A sequential run applies the settings to one copy, first entry first.
    Compiled circuits, one per setting, belong to sequential runs only.
    Settings and circuits may be passed as any sequence and are stored as
    tuples; every check runs here, at construction.
    """

    label: str
    target: TargetState
    settings: tuple[Setting, ...]
    kind: str
    theta: float | None = None
    analytic_nu: float | None = None
    circuits: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        settings = tuple(self.settings)
        object.__setattr__(self, "settings", settings)
        if not settings:
            raise ValueError("a protocol needs at least one setting")
        psi = self.target.vector
        total = 0.0
        for s in settings:
            if not isinstance(s, Setting):
                raise ValueError(f"expected a Setting, got {type(s).__name__}")
            if s.projector.shape[0] != self.target.dim:
                raise ValueError(f"setting {s.label!r} dimension mismatch")
            if linalg.max_abs(s.projector @ psi - psi) > ATOL_FIX:
                raise ValueError(f"setting {s.label!r} does not fix the target")
            if s.weight is not None:
                states.check_real(s.weight, f"setting {s.label!r} weight")
                if not math.isfinite(s.weight):
                    raise ValueError(f"setting {s.label!r} has non-finite weight {s.weight!r}")
            if self.kind == "strategy":
                if s.weight is None or s.weight <= 0:
                    raise ValueError(
                        f"setting {s.label!r} has non-positive weight {s.weight!r}"
                    )
                total += s.weight
        if self.kind == "strategy" and abs(total - 1.0) > ATOL_WEIGHTS:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        if self.circuits is not None:
            circuits = tuple(self.circuits)
            object.__setattr__(self, "circuits", circuits)
            if self.kind != "sequential":
                raise ValueError("only sequential protocols carry circuits")
            if len(circuits) != len(settings):
                raise ValueError("circuit count does not match setting count")

    @functools.cached_property
    def _decision_tables(self) -> dict:
        """The matrix backend's decision tables by NoiseSpec (see harness)."""
        return {}


def compose_sequential(
    target: TargetState,
    projectors,
    labels: list[str] | None = None,
    label: str = "sequential",
    theta: float | None = None,
    require_complete: bool = True,
) -> Protocol:
    """Assemble a sequential protocol from system projectors.

    Every projector must fix the target. With ``require_complete`` the joint
    pass space must collapse to the target alone (see check_complete).
    """
    projectors = list(projectors)
    if labels is None:
        labels = [f"setting_{i}" for i in range(len(projectors))]
    if len(labels) != len(projectors):
        raise ValueError(f"{len(labels)} labels for {len(projectors)} projectors")
    settings = [build_qnd_setting(p, label=name) for name, p in zip(labels, projectors)]
    protocol = Protocol(label, target, settings, "sequential", theta=theta)
    if require_complete:
        check_complete(protocol)
    return protocol


def check_complete(protocol: Protocol) -> None:
    """Refuse a run whose joint pass space is larger than the target.

    An incomplete set would certify that larger subspace, not the target.
    When the settings' words generate a full stabilizer group the answer
    needs no product (see _generates_target); otherwise the dense effective
    operator is compared with the target projector.
    """
    if _generates_target(protocol):
        return
    eff = effective_operator(protocol)
    if linalg.max_abs(eff - protocol.target.projector()) > ATOL_FIX:
        raise ValueError(
            "incomplete verification set: joint pass space exceeds the target"
        )


def _generates_target(protocol: Protocol) -> bool:
    """True when every setting is a word and the words generate the target.

    n independent, pairwise commuting signed Pauli words on n qubits (the
    rank and commutation tests of StabilizerGroupSpec) have a one-dimensional
    joint +1 eigenspace. Protocol has checked that every setting fixes the
    target, so that space is the target and the product of the tests is
    exactly its projector.
    """
    words = tuple(s.word for s in protocol.settings)
    if None in words:
        return False
    try:
        spec = states.StabilizerGroupSpec(words)
    except ValueError:
        return False
    return spec.n_qubits == protocol.target.n_qubits


def effective_operator(protocol: Protocol) -> np.ndarray:
    """Product of the setting projectors in application order."""
    dim = protocol.target.dim
    out = linalg.identity(dim)
    for s in protocol.settings:
        out = s.projector @ out
    return out


@dataclass(frozen=True)
class GapReport:
    """Spectral gap of a protocol operator.

    nu = 1 - lambda2, and witness is a unit vector orthogonal to the target
    achieving the second eigenvalue (the direction detected most slowly).
    """

    nu: float
    lambda2: float
    witness: np.ndarray


def protocol_gap(protocol: Protocol) -> GapReport:
    """Gap between the top two eigenvalues of the protocol operator.

    A strategy's operator is its mixed operator sum_i mu_i Omega_i. A
    sequential run's is its effective operator, computed on the system
    alone: the pass statistics of the full run are governed by it. Only
    Hermitian effective operators are supported; noncommuting incomplete
    sets fall outside this reduction and are rejected. The target must be
    a fixed point; the second eigenvalue is read after deflating it.
    """
    if protocol.kind == "strategy":
        dim = protocol.target.dim
        op = np.zeros((dim, dim), dtype=complex)
        for s in protocol.settings:
            op += s.weight * s.projector
    else:
        op = effective_operator(protocol)
        if not linalg.is_hermitian(op):
            raise ValueError(
                "effective operator is not Hermitian; gap undefined for this set"
            )
    psi = protocol.target.vector
    if linalg.max_abs(op @ psi - psi) > ATOL_FIX:
        raise ValueError(f"target is not a fixed point of the {protocol.kind}")
    deflated = op - protocol.target.projector()
    eig = linalg.hermitian_eigs(deflated)
    lambda2 = float(min(max(eig.values[0], 0.0), 1.0))
    witness = _orthogonal_witness(eig.vectors[:, 0], protocol.target)
    return GapReport(nu=1.0 - lambda2, lambda2=lambda2, witness=witness)


def _orthogonal_witness(candidate: np.ndarray, target: TargetState) -> np.ndarray:
    """Unit witness orthogonal to the target, phase-fixed for determinism.

    When the deflated operator is numerically zero (gap 1) its top eigenvector
    is arbitrary and may align with the target; any orthogonal direction is
    equally slow then, so fall back to the first basis complement.
    """
    psi = target.vector
    resid = candidate - psi * np.vdot(psi, candidate)
    if np.linalg.norm(resid) < 1e-8:
        return states.first_orthogonal_complement(target)
    return states.canonical_phase(states.normalize(resid))


def appended_setting_gap(protocol: Protocol, effect: np.ndarray) -> float:
    """Gap after appending one more (possibly unsharp) pass effect.

    The effect may be any positive operator bounded by the identity. Returns
    the distance between the top two eigenvalues of the augmented effective
    operator; a weak appended test drags the top eigenvalue below 1 and the
    returned gap shrinks accordingly.
    """
    e = linalg.as_matrix(effect)
    if not linalg.is_hermitian(e):
        raise ValueError("appended effect must be Hermitian")
    evals = np.linalg.eigvalsh(e)
    if evals[0] < -linalg.ATOL_STRUCTURAL or evals[-1] > 1.0 + linalg.ATOL_STRUCTURAL:
        raise ValueError("appended effect must satisfy 0 <= E <= I")
    eff = e @ effective_operator(protocol)
    if not linalg.is_hermitian(eff, 1e-9):
        raise ValueError("augmented effective operator is not Hermitian")
    eig = linalg.hermitian_eigs((eff + linalg.dagger(eff)) / 2.0)
    return float(eig.values[0] - eig.values[1])


def _check_materializable(protocol: Protocol) -> None:
    l = len(protocol.settings)
    if l > MAX_MATERIALIZED_SETTINGS:
        raise ValueError(
            f"full-register form supports at most {MAX_MATERIALIZED_SETTINGS} "
            f"settings, got {l}"
        )


def _ancilla_op(l: int, slot: int, op: np.ndarray) -> np.ndarray:
    ops = [op if j == slot else np.eye(2, dtype=complex) for j in range(l)]
    return linalg.kron_all(*ops)


def full_operator(protocol: Protocol) -> np.ndarray:
    """The run's pass operator on system plus one ancilla per setting.

    Register order is system first, then ancillas in setting order.
    """
    _check_materializable(protocol)
    l = len(protocol.settings)
    dim = protocol.target.dim
    eye = linalg.identity(dim)
    out = linalg.identity(dim * 2**l)
    for i, s in enumerate(protocol.settings):
        omega = s.projector
        embedded = linalg.kron(omega, _ancilla_op(l, i, _P0)) + linalg.kron(
            eye - omega, _ancilla_op(l, i, _FLIP01)
        )
        out = embedded @ out
    return out


def summation_form(protocol: Protocol) -> np.ndarray:
    """Expansion of the run operator as a sum over ancilla bit patterns.

    Each pattern contributes the matching product of pass/reject projectors
    on the system, tensored with the ancilla transition |0...0><pattern|.
    """
    _check_materializable(protocol)
    l = len(protocol.settings)
    dim = protocol.target.dim
    eye = linalg.identity(dim)
    total = np.zeros((dim * 2**l, dim * 2**l), dtype=complex)
    for bits in itertools.product((0, 1), repeat=l):
        sys_part = eye
        anc_parts = []
        for i, s in enumerate(protocol.settings):
            factor = s.projector if bits[i] == 0 else eye - s.projector
            sys_part = factor @ sys_part
            anc_parts.append(_P0 if bits[i] == 0 else _FLIP01)
        total += linalg.kron(sys_part, linalg.kron_all(*anc_parts))
    return total


def conditional_equivalence(protocol: Protocol, sigma: np.ndarray) -> float:
    """Deviation of the run operator from its system-only reduction.

    Applies the full pass operator to sigma with fresh ancillas and compares
    against the effective projector acting on the system factor alone.
    Returns the entrywise max deviation.
    """
    sig = linalg.as_matrix(sigma)
    if sig.shape[0] != protocol.target.dim:
        raise ValueError("sigma dimension does not match the target register")
    l = len(protocol.settings)
    if l <= MAX_MATERIALIZED_SETTINGS:
        m = full_operator(protocol)
        anc0 = linalg.kron_all(*([_P0] * l))
        lhs = m @ linalg.kron(sig, anc0)
        rhs = linalg.kron(effective_operator(protocol) @ sig, anc0)
        return linalg.max_abs(lhs - rhs)
    dev = 0.0
    current = sig
    for s in protocol.settings:
        lhs = s.m_pass @ linalg.kron(current, _P0)
        rhs = linalg.kron(s.projector @ current, _P0)
        dev = max(dev, linalg.max_abs(lhs - rhs))
        current = s.projector @ current
    return dev


def _source_density(protocol: Protocol, sigma: np.ndarray) -> np.ndarray:
    """sigma as a matrix, refused unless it is a density matrix on the target."""
    sig = linalg.as_matrix(sigma)
    if not linalg.is_density_matrix(sig, atol=1e-8):
        raise ValueError("sigma must be a density matrix")
    if sig.shape[0] != protocol.target.dim:
        raise ValueError("sigma dimension does not match the target register")
    return sig


def _passed_states(protocol: Protocol, sig: np.ndarray):
    """Yield sigma, then the unnormalized system state after each passed stage.

    On the pass branch the ancilla ends in |0> and the system copy becomes
    Omega sigma Omega, so every stage is applied to the system alone.
    """
    yield sig
    for s in protocol.settings:
        sig = s.projector @ sig @ linalg.dagger(s.projector)
        yield sig


def fidelity_transform(
    protocol: Protocol, sigma: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Pass probability and conditional post-state of one sequential run.

    For a complete protocol the pass probability equals the source fidelity
    and the surviving copy is exactly the target. Sources that essentially
    never pass (probability below 1e-14) return None for the post-state.
    """
    *_, current = _passed_states(protocol, _source_density(protocol, sigma))
    prob = float(np.real(np.trace(current)))
    if prob < NEVER_PASSES_CUTOFF:
        return prob, None
    return prob, current / prob


def stage_pass_probabilities(
    protocol: Protocol, sigma: np.ndarray
) -> list[float]:
    """Conditional pass probability of each setting given all earlier passes.

    Probabilities below the never-passes cutoff terminate the list (later
    stages are unreachable and padded with zeros).
    """
    probs: list[float] = []
    for before, after in itertools.pairwise(
        _passed_states(protocol, _source_density(protocol, sigma))
    ):
        total = float(np.real(np.trace(before)))
        passed = float(np.real(np.trace(after)))
        if total < NEVER_PASSES_CUTOFF:
            probs.append(0.0)
        else:
            probs.append(min(max(passed / total, 0.0), 1.0))
    return probs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def complex_pairs(a) -> list[list[float]]:
    """Row-major [re, im] pairs, the portable encoding of a vector or matrix."""
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def protocol_to_dict(protocol: Protocol) -> dict:
    """JSON-ready dict; floats survive a round trip bit for bit.

    A strategy document carries each setting's weight ``mu`` and the
    ``analytic_nu``; a sequential one carries neither. Compiled circuits are
    serialized separately.
    """
    strategy = protocol.kind == "strategy"
    doc = {
        "schema": 1,
        "kind": protocol.kind,
        "label": protocol.label,
        "target_label": protocol.target.label,
        "n_qubits": protocol.target.n_qubits,
        "theta": protocol.theta,
    }
    if strategy:
        doc["analytic_nu"] = protocol.analytic_nu
    doc["target_amplitudes"] = complex_pairs(protocol.target.vector)
    doc["settings"] = [
        {"label": s.label}
        | ({"mu": float(s.weight)} if strategy else {})
        | {"matrix": complex_pairs(s.projector)}
        for s in protocol.settings
    ]
    return doc


def protocol_from_dict(data: dict, require_complete: bool = True) -> Protocol:
    """Inverse of protocol_to_dict.

    A sequential document must be complete unless ``require_complete`` is
    off. A missing key is refused with a ValueError that names it.
    """
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValueError(f"not a protocol document (kind {kind!r})")
    strategy = kind == "strategy"
    try:
        n = int(data["n_qubits"])
        target = TargetState(
            label=data["target_label"],
            n_qubits=n,
            vector=_from_pairs(data["target_amplitudes"]),
        )
        entries = [
            (s.get("label", f"setting_{i}"), _from_pairs(s["matrix"]),
             float(s["mu"]) if strategy else None)
            for i, s in enumerate(data["settings"])
        ]
    except KeyError as exc:
        raise ValueError(f"{kind} document lacks {exc.args[0]!r}") from None
    dim = 2**n
    settings = []
    for name, flat, weight in entries:
        if flat.size != dim * dim:
            raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
        settings.append(build_qnd_setting(flat.reshape(dim, dim), name, weight))
    protocol = Protocol(
        label=data.get("label", kind),
        target=target,
        settings=settings,
        kind=kind,
        theta=data.get("theta"),
        analytic_nu=data.get("analytic_nu") if strategy else None,
    )
    if not strategy and require_complete:
        check_complete(protocol)
    return protocol
