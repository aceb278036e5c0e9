"""Catalog strategies: weighted projective settings that verify one target.

A strategy is a Protocol of kind ``strategy``: a convex mixture of
projective pass tests that all accept the target state with certainty. Its
detection power on a copy-by-copy source is governed by the gap between the
top two eigenvalues of the mixed operator (sequential.protocol_gap, here
also named spectral_gap). This module holds the catalog builders, the GHZ
generator words and the copy budget a gap implies; the types, the gap and
the serializer live in ``sequential``, which never imports this module.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np

from . import linalg, states
from . import sequential as seq
from .sequential import Protocol
from .sequential import protocol_gap as spectral_gap
from .states import StabilizerGroupSpec

_GROUP_MAX_QUBITS = 6  # full group enumeration is 2^n settings


def sample_complexity(nu: float, epsilon: float, delta: float) -> tuple[int, int]:
    """Copies needed to certify infidelity below epsilon with confidence delta.

    Returns (exact, approximate): the exact count inverts the failure bound
    (1 - nu*epsilon)^N <= delta, the approximate count is the familiar
    1/(nu*epsilon) * ln(1/delta) ceiling. delta = 1 needs no copies.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta == 1.0:
        return 0, 0
    log_inv_delta = -math.log(delta)
    x = nu * epsilon
    exact = math.ceil(log_inv_delta / -math.log1p(-x))
    approx = math.ceil(log_inv_delta / x)
    return exact, approx


# ---------------------------------------------------------------------------
# catalog builders
# ---------------------------------------------------------------------------


def _pz_pair() -> np.ndarray:
    """Projector onto span{|00>, |11>}, the even-parity Z subspace."""
    return states.pauli_projector("+ZZ")


def bell_minimal() -> Protocol:
    """Two-setting Bell verification: even parity in Z and in X, weight 1/2 each."""
    target = states.bell_state()
    half = float(Fraction(1, 2))
    settings = [seq.pauli_setting("+ZZ", half), seq.pauli_setting("+XX", half)]
    return Protocol(
        kind="strategy",
        label="bell_minimal",
        target=target,
        settings=settings,
        analytic_nu=0.5,
    )


def bell_stabilizer_group() -> Protocol:
    """Bell verification over the full stabilizer group, weight 1/3 each."""
    strat = stabilizer_full_group(StabilizerGroupSpec(("+ZZ", "+XX")))
    return dataclasses.replace(strat, label="bell_group")


def _plus() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _minus() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def two_qubit_three(theta: float) -> Protocol:
    """Three-setting strategy for sin|00> + cos|11>, gap 1/3 at every theta."""
    target = states.two_qubit_pure(theta)
    c, s = math.cos(theta), math.sin(theta)
    eye = linalg.identity(4)
    phi_p = np.array([c, -s], dtype=complex)
    phi_m = np.array([c, s], dtype=complex)
    omega2 = eye - np.kron(linalg.projector_onto(_plus()), linalg.projector_onto(phi_p))
    omega3 = eye - np.kron(linalg.projector_onto(_minus()), linalg.projector_onto(phi_m))
    third = float(Fraction(1, 3))
    settings = [
        seq.build_qnd_setting(_pz_pair(), "parity", third),
        seq.build_qnd_setting(omega2, "reject_plus", third),
        seq.build_qnd_setting(omega3, "reject_minus", third),
    ]
    return Protocol(
        kind="strategy",
        label="two_qubit_three",
        target=target,
        settings=settings,
        theta=theta,
        analytic_nu=1.0 / 3.0,
    )


def two_qubit_four(theta: float) -> Protocol:
    """Weighted four-setting strategy with gap 1/(2 + sin cos)."""
    target = states.two_qubit_pure(theta)
    eye = linalg.identity(4)
    a = 1.0 / math.sqrt(1.0 + math.tan(theta))
    b = 1.0 / math.sqrt(1.0 + 1.0 / math.tan(theta))

    def local(phase_first: complex, phase_second: complex) -> np.ndarray:
        v1 = np.array([a, phase_first * b], dtype=complex)
        v2 = np.array([a, phase_second * b], dtype=complex)
        return np.kron(v1, v2)

    w = cmath.exp(1j * math.pi / 3.0)
    rejected = [
        local(w**2, w),
        local(w**4, w**5),
        local(1.0, -1.0),
    ]
    alpha = (2.0 - math.sin(2.0 * theta)) / (4.0 + math.sin(2.0 * theta))
    rest = (1.0 - alpha) / 3.0
    settings = [seq.build_qnd_setting(_pz_pair(), "parity", alpha)]
    for k, vec in enumerate(rejected, start=1):
        settings.append(
            seq.build_qnd_setting(eye - linalg.projector_onto(vec), f"reject_{k}", rest)
        )
    return Protocol(
        kind="strategy",
        label="two_qubit_four",
        target=target,
        settings=settings,
        theta=theta,
        analytic_nu=1.0 / (2.0 + math.sin(theta) * math.cos(theta)),
    )


def _branch_projector(theta: float, power: int) -> np.ndarray:
    """Rank-2 projector sum of |phi_k><phi_k| for k in {power, power + 2}.

    phi_k = g^k phi_0 with g = diag(1, i) (x) diag(1, -i) and
    phi_0 = |+> (x) (sin|0> + cos|1>).
    """
    s, c = math.sin(theta), math.cos(theta)
    phi0 = np.kron(_plus(), np.array([s, c], dtype=complex))
    g = np.kron(np.diag([1.0, 1j]), np.diag([1.0, -1j]))
    vec = np.linalg.matrix_power(g, power) @ phi0
    vec2 = np.linalg.matrix_power(g, power + 2) @ phi0
    return linalg.projector_onto(vec) + linalg.projector_onto(vec2)


def adaptive_x_projector(theta: float) -> np.ndarray:
    """Projector measured by the adaptive branch circuit: X-basis paired checks."""
    return _branch_projector(theta, 0)


def adaptive_y_projector(theta: float) -> np.ndarray:
    """Companion projector, the X check conjugated by the local phase gates."""
    return _branch_projector(theta, 1)


def adaptive_two(theta: float) -> Protocol:
    """Two-setting adaptive strategy: parity check plus the branch projector."""
    target = states.two_qubit_pure(theta)
    half = float(Fraction(1, 2))
    settings = [
        seq.build_qnd_setting(_pz_pair(), "parity", half),
        seq.build_qnd_setting(adaptive_x_projector(theta), "adaptive_x", half),
    ]
    return Protocol(
        kind="strategy",
        label="adaptive_two",
        target=target,
        settings=settings,
        theta=theta,
        analytic_nu=0.5,
    )


def adaptive_three(theta: float) -> Protocol:
    """Three-setting adaptive strategy with gap 1/(1 + cos^2)."""
    target = states.two_qubit_pure(theta)
    c2 = math.cos(theta) ** 2
    norm = 1.0 + c2
    settings = [
        seq.build_qnd_setting(_pz_pair(), "parity", c2 / norm),
        seq.build_qnd_setting(adaptive_x_projector(theta), "adaptive_x", 0.5 / norm),
        seq.build_qnd_setting(adaptive_y_projector(theta), "adaptive_y", 0.5 / norm),
    ]
    return Protocol(
        kind="strategy",
        label="adaptive_three",
        target=target,
        settings=settings,
        theta=theta,
        analytic_nu=1.0 / norm,
    )


def stabilizer_generators(spec: StabilizerGroupSpec) -> Protocol:
    """Uniform strategy over the generator checks, gap 1/n."""
    target = states.stabilizer_state(spec)
    n = len(spec.generators)
    w = float(Fraction(1, n))
    settings = [seq.pauli_setting(g, w) for g in spec.generators]
    return Protocol(
        kind="strategy",
        label="stabilizer_generators",
        target=target,
        settings=settings,
        analytic_nu=1.0 / n,
    )


def stabilizer_full_group(spec: StabilizerGroupSpec) -> Protocol:
    """Uniform strategy over every non-identity group element.

    Gap 2^(n-1)/(2^n - 1). Enumeration is exponential, so the group form is
    limited to 6 qubits.
    """
    n = spec.n_qubits
    if n > _GROUP_MAX_QUBITS:
        raise ValueError(
            f"full group strategies support up to {_GROUP_MAX_QUBITS} qubits, got {n}"
        )
    target = states.stabilizer_state(spec)
    members = spec.elements()[1:]  # identity dropped
    w = float(Fraction(1, len(members)))
    settings = [seq.pauli_setting(word, w) for word in members]
    return Protocol(
        kind="strategy",
        label="stabilizer_group",
        target=target,
        settings=settings,
        analytic_nu=2.0 ** (n - 1) / (2.0**n - 1.0),
    )


def ghz_generator_spec(n: int) -> StabilizerGroupSpec:
    """Standard GHZ generators: the all-X word plus Z-parity pairs."""
    states.check_ghz_size(n)
    gens = ["+" + "X" * n]
    for k in range(1, n):
        body = ["I"] * n
        body[0] = "Z"
        body[k] = "Z"
        gens.append("+" + "".join(body))
    return StabilizerGroupSpec(tuple(gens))
