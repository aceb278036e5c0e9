"""Sequential nondemolition verification engine.

Each projective pass test is coupled to its own fresh ancilla through a
controlled-flip unitary; reading the ancilla in the computational basis
implements the test without consuming the system copy. Running the settings
one after another on a single copy concentrates the whole verification into
one effective projector on the system.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import TargetState
from .strategies import (
    ATOL_FIX,
    GapReport,
    _matrix_pairs,
    _orthogonal_witness,
    _pairs_matrix,
    _pairs_vector,
    _vector_pairs,
)

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_FLIP01 = _P0 @ _X  # |0><1| on the ancilla

# Full-register operators grow as 2^l; past this many settings they are
# refused and conditional_equivalence lifts one ancilla at a time instead.
MAX_MATERIALIZED_SETTINGS = 6

NEVER_PASSES_CUTOFF = 1e-14


@dataclass(frozen=True)
class QndSetting:
    """A projective pass test, run as a nondemolition measurement.

    Only the projector is stored. The coupling to its ancilla and the two
    branch operators on system + ancilla are derived and validated on first
    access; the engine itself applies the projector to the system alone.
    """

    label: str
    projector: np.ndarray

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


def build_qnd_setting(projector: np.ndarray, label: str = "") -> QndSetting:
    """Couple a projective test to one ancilla.

    The coupling flips the ancilla exactly on the reject subspace, so the
    ancilla reading 0 is the pass branch and the system is untouched on it.
    """
    omega = linalg.as_matrix(projector)
    if not linalg.is_projector(omega):
        raise ValueError("QND coupling requires a projector")
    return QndSetting(label=label, projector=omega)


@dataclass
class SequentialProtocol:
    """Ordered QND settings applied to one copy, first list entry first."""

    label: str
    target: TargetState
    settings: list[QndSetting]
    theta: float | None = None
    circuits: list | None = field(default=None, repr=False)


def compose_sequential(
    target: TargetState,
    projectors,
    labels: list[str] | None = None,
    label: str = "sequential",
    theta: float | None = None,
    require_complete: bool = True,
) -> SequentialProtocol:
    """Assemble a sequential protocol from system projectors.

    Every projector must fix the target. With ``require_complete`` the joint
    pass space must collapse to the target alone; an incomplete set is
    rejected because it certifies a larger subspace.
    """
    mats = [linalg.as_matrix(p) for p in projectors]
    if not mats:
        raise ValueError("a protocol needs at least one setting")
    if labels is None:
        labels = [f"setting_{i}" for i in range(len(mats))]
    psi = target.vector
    settings = []
    for name, m in zip(labels, mats):
        if linalg.max_abs(m @ psi - psi) > ATOL_FIX:
            raise ValueError(f"setting {name!r} does not fix the target")
        settings.append(build_qnd_setting(m, label=name))
    protocol = SequentialProtocol(
        label=label, target=target, settings=settings, theta=theta
    )
    if require_complete:
        eff = effective_operator(protocol)
        if linalg.max_abs(eff - target.projector()) > ATOL_FIX:
            raise ValueError(
                "incomplete verification set: joint pass space exceeds the target"
            )
    return protocol


def effective_operator(protocol: SequentialProtocol) -> np.ndarray:
    """Product of the setting projectors in application order."""
    dim = protocol.target.dim
    out = linalg.identity(dim)
    for s in protocol.settings:
        out = s.projector @ out
    return out


def protocol_gap(protocol: SequentialProtocol) -> GapReport:
    """Spectral gap of the sequential run, computed on the system alone.

    The pass statistics of the full run are governed by the effective
    operator, so its spectrum carries the gap. Only Hermitian effective
    operators are supported; noncommuting incomplete sets fall outside this
    reduction and are rejected.
    """
    eff = effective_operator(protocol)
    if not linalg.is_hermitian(eff):
        raise ValueError(
            "effective operator is not Hermitian; gap undefined for this set"
        )
    psi = protocol.target.vector
    if linalg.max_abs(eff @ psi - psi) > ATOL_FIX:
        raise ValueError("target is not a fixed point of the protocol")
    deflated = eff - protocol.target.projector()
    eig = linalg.hermitian_eigs(deflated)
    lambda2 = float(min(max(eig.values[0], 0.0), 1.0))
    witness = _orthogonal_witness(eig.vectors[:, 0], protocol.target)
    return GapReport(nu=1.0 - lambda2, lambda2=lambda2, witness=witness)


def appended_setting_gap(protocol: SequentialProtocol, effect: np.ndarray) -> float:
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


def _check_materializable(protocol: SequentialProtocol) -> None:
    l = len(protocol.settings)
    if l > MAX_MATERIALIZED_SETTINGS:
        raise ValueError(
            f"full-register form supports at most {MAX_MATERIALIZED_SETTINGS} "
            f"settings, got {l}"
        )


def _ancilla_op(l: int, slot: int, op: np.ndarray) -> np.ndarray:
    ops = [op if j == slot else np.eye(2, dtype=complex) for j in range(l)]
    return linalg.kron_all(*ops)


def full_operator(protocol: SequentialProtocol) -> np.ndarray:
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


def summation_form(protocol: SequentialProtocol) -> np.ndarray:
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


def conditional_equivalence(protocol: SequentialProtocol, sigma: np.ndarray) -> float:
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


def _source_density(protocol: SequentialProtocol, sigma: np.ndarray) -> np.ndarray:
    """sigma as a matrix, refused unless it is a density matrix on the target."""
    sig = linalg.as_matrix(sigma)
    if not linalg.is_density_matrix(sig, atol=1e-8):
        raise ValueError("sigma must be a density matrix")
    if sig.shape[0] != protocol.target.dim:
        raise ValueError("sigma dimension does not match the target register")
    return sig


def _passed_states(protocol: SequentialProtocol, sig: np.ndarray):
    """Yield sigma, then the unnormalized system state after each passed stage.

    On the pass branch the ancilla ends in |0> and the system copy becomes
    Omega sigma Omega, so every stage is applied to the system alone.
    """
    yield sig
    for s in protocol.settings:
        sig = s.projector @ sig @ linalg.dagger(s.projector)
        yield sig


def fidelity_transform(
    protocol: SequentialProtocol, sigma: np.ndarray
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
    protocol: SequentialProtocol, sigma: np.ndarray
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


def protocol_to_dict(protocol: SequentialProtocol) -> dict:
    """JSON-ready dict; compiled circuits are serialized separately."""
    return {
        "schema": 1,
        "kind": "sequential",
        "label": protocol.label,
        "target_label": protocol.target.label,
        "n_qubits": protocol.target.n_qubits,
        "theta": protocol.theta,
        "target_amplitudes": _vector_pairs(protocol.target.vector),
        "settings": [
            {"label": s.label, "matrix": _matrix_pairs(s.projector)}
            for s in protocol.settings
        ],
    }


def protocol_from_dict(data: dict, require_complete: bool = True) -> SequentialProtocol:
    if data.get("kind") != "sequential":
        raise ValueError("not a sequential protocol document")
    n = int(data["n_qubits"])
    dim = 2**n
    target = TargetState(
        label=data["target_label"],
        n_qubits=n,
        vector=_pairs_vector(data["target_amplitudes"]),
    )
    mats = [_pairs_matrix(s["matrix"], dim) for s in data["settings"]]
    labels = [s.get("label", f"setting_{i}") for i, s in enumerate(data["settings"])]
    return compose_sequential(
        target,
        mats,
        labels=labels,
        label=data.get("label", "sequential"),
        theta=data.get("theta"),
        require_complete=require_complete,
    )
