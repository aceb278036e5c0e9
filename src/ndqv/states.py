"""Target states, stabilizer-group synthesis, and noise models for sources.

States are numpy vectors in big-endian qubit order. Every constructor returns
amplitudes in canonical global phase: the first amplitude with modulus above
1e-12 is made real and positive.

Stabilizer tests and states are built from the x/z bitmask form of a signed
Pauli word (Aaronson and Gottesman, PRA 70, 052328, 2004): a word S maps
|b> to phase * (-1)^popcount(b & z) |b xor x>, so its projector (I + S)/2
is written at O(d) entries and applied to a vector by an index XOR and a
sign vector, never by a tensor-product chain or a dense product. The
results are byte-identical to the dense forms ``(I + pauli_operator(w))/2``
and the projection of basis states through those matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASE_ATOL = 1e-12
_SEED_NORM_CUTOFF = 1e-8

NOISE_KINDS = ("worst_case_orthogonal", "random_orthogonal", "depolarizing")

# GHZ targets and generator sets exist for these register sizes.
GHZ_QUBITS = range(2, 11)


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate global phase so the first non-negligible amplitude is real positive."""
    v = linalg.as_vector(vec)
    for amp in v:
        if abs(amp) > _PHASE_ATOL:
            return v * (abs(amp) / amp)
    raise ValueError("cannot fix the phase of a zero vector")


def normalize(vec: np.ndarray) -> np.ndarray:
    v = linalg.as_vector(vec)
    norm = float(np.linalg.norm(v))
    if norm < _SEED_NORM_CUTOFF:
        raise ValueError("vector norm too small to normalize")
    return v / norm


@dataclass(frozen=True)
class TargetState:
    """A pure state a source claims to produce, with its register size."""

    label: str
    n_qubits: int
    vector: np.ndarray

    def __post_init__(self):
        v = linalg.as_vector(self.vector)
        if v.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"vector length {v.shape[0]} does not match {self.n_qubits} qubits"
            )
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError("target state must be normalized")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def projector(self) -> np.ndarray:
        return linalg.projector_onto(self.vector)


def bell_state() -> TargetState:
    """Maximally entangled two-qubit pair (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return TargetState(label="bell", n_qubits=2, vector=v)


def two_qubit_pure(theta: float) -> TargetState:
    """Nonmaximally entangled pair sin(theta)|00> + cos(theta)|11>.

    theta is restricted to the open interval (0, pi/4); the endpoints give a
    product state and the maximally entangled pair, both excluded.
    """
    check_real(theta, "theta")
    if not 0.0 < theta < math.pi / 4:
        raise ValueError(f"theta must lie in (0, pi/4), got {theta}")
    v = np.zeros(4, dtype=complex)
    v[0] = math.sin(theta)
    v[3] = math.cos(theta)
    return TargetState(label="two_qubit", n_qubits=2, vector=v)


def check_real(value, name: str) -> None:
    """Refuse a bool or anything but a real number, naming the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_ghz_size(n: int) -> None:
    """Refuse a GHZ register size outside GHZ_QUBITS."""
    if n not in GHZ_QUBITS:
        raise ValueError(
            f"ghz supports {GHZ_QUBITS.start}..{GHZ_QUBITS.stop - 1} qubits, got {n}"
        )


def ghz(n: int) -> TargetState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2) for n in GHZ_QUBITS."""
    check_ghz_size(n)
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return TargetState(label=f"ghz{n}", n_qubits=n, vector=v)


def parse_pauli_string(text: str) -> tuple[int, str]:
    """Split a signed Pauli word like '+XZI' or '-YY' into (sign, letters).

    The sign is optional and defaults to +1. Errors name the offending
    character position in the input.
    """
    if not text:
        raise ValueError("empty Pauli string")
    sign = 1
    body_start = 0
    if text[0] in "+-":
        sign = 1 if text[0] == "+" else -1
        body_start = 1
    body = text[body_start:]
    if not body:
        raise ValueError("Pauli string has a sign but no letters")
    for offset, ch in enumerate(body):
        if ch not in PAULI_1Q:
            raise ValueError(
                f"position {body_start + offset}: {ch!r} is not a Pauli letter"
            )
    return sign, body


def pauli_operator(text: str) -> np.ndarray:
    """Dense matrix for a signed Pauli word."""
    sign, body = parse_pauli_string(text)
    out = sign * linalg.kron_all(*(PAULI_1Q[c] for c in body))
    return out


def pauli_bits(text: str) -> tuple[int, int, int, int]:
    """Bitmask form (n, x, z, k) of a signed Pauli word.

    The word is i^k X^x Z^z: letter j sets bit n-1-j of x when it is X or Y
    and of z when it is Z or Y (big-endian, like the matrices), and each Y
    adds one to k since Y = iXZ. So S|b> = i^k (-1)^popcount(b & z) |b ^ x>.
    """
    sign, body = parse_pauli_string(text)
    n = len(body)
    x = z = 0
    for ch in body:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
    k = (body.count("Y") + (2 if sign < 0 else 0)) % 4
    return n, x, z, k


def _pauli_action(text: str) -> tuple[int, np.ndarray, bool]:
    """(x, signs, imaginary) with S|b> = (i if imaginary else 1) signs[b] |b ^ x>.

    signs holds the +-1.0 of (-1)^popcount(b & z) times the real unit of
    i^k, for every basis index b.
    """
    n, x, z, k = pauli_bits(text)
    d = 2**n
    if d > linalg.dim_cap():
        raise ValueError(
            f"Pauli word dimension {d} exceeds cap {linalg.dim_cap()} "
            "(set NDQV_DIM_CAP to raise it)"
        )
    b = np.arange(d)
    parity = np.zeros(d, dtype=np.int64)
    for j in range(n):
        if z >> j & 1:
            parity ^= b >> j & 1
    signs = 1.0 - 2.0 * parity
    return x, (-signs if k >= 2 else signs), k % 2 == 1


def pauli_projector(text: str) -> np.ndarray:
    """Pass projector (I + S)/2 of a signed Pauli word, written entry by entry.

    Column b holds 1/2 at row b and i^k (-1)^popcount(b & z) / 2 at row
    b ^ x, so the d x d array costs O(d) writes past its zeroing. Real and
    imaginary parts are written separately, so no entry is a negative zero
    and the bytes equal ``(identity + pauli_operator(text)) / 2``.
    """
    x, signs, imaginary = _pauli_action(text)
    d = signs.shape[0]
    b = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    if x == 0:  # diagonal: (1 + S_bb)/2 is 1 or 0
        out.real[b, b] = (1.0 + signs) / 2.0
        return out
    out.real[b, b] = 0.5
    part = out.imag if imaginary else out.real
    part[b ^ x, b] = signs / 2.0
    return out


def pauli_product(a: str, b: str) -> tuple[complex, str]:
    """Symbolic product of two signed Pauli words, (phase, letters)."""
    sign_a, body_a = parse_pauli_string(a)
    sign_b, body_b = parse_pauli_string(b)
    if len(body_a) != len(body_b):
        raise ValueError("Pauli words act on different qubit counts")
    # single-qubit products: table[(p, q)] = (phase, r) with p q = phase r
    table = {
        ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
        ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
        ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
        ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
    }
    phase = complex(sign_a * sign_b)
    letters = []
    for p, q in zip(body_a, body_b):
        f, r = table[(p, q)]
        phase *= f
        letters.append(r)
    return phase, "".join(letters)


def _symplectic_rows(bodies: list[str]) -> np.ndarray:
    """GF(2) (x|z) rows for Pauli words, sign ignored."""
    n = len(bodies[0])
    rows = np.zeros((len(bodies), 2 * n), dtype=np.uint8)
    xz = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for i, body in enumerate(bodies):
        for j, ch in enumerate(body):
            x, z = xz[ch]
            rows[i, j] = x
            rows[i, n + j] = z
    return rows


def _gf2_rank(rows: np.ndarray) -> int:
    m = rows.copy()
    rank = 0
    n_rows, n_cols = m.shape
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(n_rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _pauli_commute(body_a: str, body_b: str) -> bool:
    anti = 0
    for p, q in zip(body_a, body_b):
        if p != "I" and q != "I" and p != q:
            anti += 1
    return anti % 2 == 0


@dataclass(frozen=True)
class StabilizerGroupSpec:
    """Independent, pairwise commuting signed Pauli generators."""

    generators: tuple[str, ...]

    def __post_init__(self):
        parsed = [parse_pauli_string(g) for g in self.generators]
        bodies = [body for _, body in parsed]
        if not bodies:
            raise ValueError("at least one generator is required")
        n = len(bodies[0])
        if any(len(b) != n for b in bodies):
            raise ValueError("generators must act on the same qubit count")
        if len(bodies) != n:
            raise ValueError(
                f"need exactly {n} generators for {n} qubits, got {len(bodies)}"
            )
        for i in range(len(bodies)):
            for j in range(i + 1, len(bodies)):
                if not _pauli_commute(bodies[i], bodies[j]):
                    raise ValueError(
                        f"generators {self.generators[i]!r} and "
                        f"{self.generators[j]!r} do not commute"
                    )
        if _gf2_rank(_symplectic_rows(bodies)) != len(bodies):
            raise ValueError("generators are not independent")

    @property
    def n_qubits(self) -> int:
        _, body = parse_pauli_string(self.generators[0])
        return len(body)

    def elements(self) -> list[str]:
        """All 2^n group elements as signed words, identity first.

        Signs stay real for a valid group; a complex residue would indicate
        inconsistent generators and raises.
        """
        words = ["+" + "I" * self.n_qubits]
        for gen in self.generators:
            sign_g, body_g = parse_pauli_string(gen)
            new = []
            for w in words:
                phase, body = pauli_product(w, ("+" if sign_g > 0 else "-") + body_g)
                if abs(phase.imag) > 1e-12:
                    raise ValueError("generator set produced a complex phase")
                new.append(("+" if phase.real > 0 else "-") + body)
            words.extend(new)
        return words


def stabilizer_projectors(spec: StabilizerGroupSpec) -> list[np.ndarray]:
    """Pass projectors (I + S)/2 for each generator (see pauli_projector)."""
    return [pauli_projector(g) for g in spec.generators]


def stabilizer_state(spec: StabilizerGroupSpec) -> TargetState:
    """Unique joint +1 eigenstate of a full set of stabilizer generators.

    The state is obtained by projecting computational basis states in index
    order through each (I + S)/2 and keeping the first survivor with norm
    above 1e-8. Each S acts by an index XOR and a sign vector: O(d) per
    generator, with no d x d matrix.
    """
    n = spec.n_qubits
    dim = 2**n
    actions = []
    for g in spec.generators:
        x, signs, imaginary = _pauli_action(g)
        src = np.arange(dim) ^ x  # (S v)[b] = phase[b ^ x] v[b ^ x]
        actions.append((src, signs[src] * 1j if imaginary else signs[src]))
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for src, coef in actions:
            v = (v + coef * v[src]) / 2.0
            if not v.any():  # a projected-out basis state stays zero
                break
        if np.linalg.norm(v) > _SEED_NORM_CUTOFF:
            vec = canonical_phase(normalize(v))
            label = "stab(" + ",".join(spec.generators) + ")"
            return TargetState(label=label, n_qubits=n, vector=vec)
    raise ValueError("no computational basis state survives the projection")


@dataclass(frozen=True)
class NoiseSpec:
    """How the simulated source deviates from the target.

    kind is one of 'worst_case_orthogonal' (coherent rotation toward a fixed
    orthogonal direction), 'random_orthogonal' (seeded Haar direction in the
    orthocomplement), or 'depolarizing' (white-noise mixture). epsilon is the
    deviation weight in [0, 1); seed is None or a non-negative integer.

    Frozen and hashable, so a spec can key a cache; numpy scalars are stored
    as the Python int or float they hold.
    """

    kind: str
    epsilon: float
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        eps = self.epsilon
        check_real(eps, "epsilon")
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {eps!r}")
        seed = self.seed
        if seed is not None:
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
                raise ValueError(f"seed must be None or an integer, got {seed!r}")
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed!r}")
        if self.kind == "random_orthogonal" and eps > 0 and seed is None:
            raise ValueError("random_orthogonal noise needs a seed")
        for name in ("epsilon", "seed"):
            value = getattr(self, name)
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())


def first_orthogonal_complement(target: TargetState) -> np.ndarray:
    """First computational basis state Gram-Schmidt reduced against the target."""
    psi = target.vector
    for k in range(target.dim):
        e = np.zeros(target.dim, dtype=complex)
        e[k] = 1.0
        resid = e - psi * np.vdot(psi, e)
        if np.linalg.norm(resid) > _SEED_NORM_CUTOFF:
            return canonical_phase(normalize(resid))
    raise ValueError("target spans the whole space, no complement exists")


def random_orthogonal_direction(target: TargetState, seed: int) -> np.ndarray:
    """Seeded Haar-random unit vector orthogonal to the target."""
    gen = np.random.default_rng(seed)
    raw = gen.standard_normal(target.dim) + 1j * gen.standard_normal(target.dim)
    psi = target.vector
    resid = raw - psi * np.vdot(psi, raw)
    if np.linalg.norm(resid) < _SEED_NORM_CUTOFF:
        raise ValueError("degenerate random draw, choose another seed")
    return canonical_phase(normalize(resid))


def perturbed_state(
    target: TargetState,
    noise: NoiseSpec,
    witness: np.ndarray | None = None,
) -> np.ndarray:
    """Pure source state with overlap 1 - epsilon against the target.

    For worst_case_orthogonal noise the orthogonal direction is ``witness``
    when given (the strategy's slowest-detected direction), else the first
    Gram-Schmidt complement. Depolarizing noise has no pure representative.
    """
    if noise.kind == "depolarizing":
        raise ValueError("depolarizing noise is mixed, use source_density")
    psi = target.vector
    if noise.epsilon == 0.0:
        return psi.copy()
    if noise.kind == "worst_case_orthogonal":
        direction = witness if witness is not None else first_orthogonal_complement(target)
        direction = linalg.as_vector(direction)
        overlap = abs(np.vdot(psi, direction))
        if overlap > 1e-8:
            raise ValueError("witness is not orthogonal to the target")
        direction = normalize(direction)
    else:
        direction = random_orthogonal_direction(target, noise.seed)
    out = math.sqrt(1.0 - noise.epsilon) * psi + math.sqrt(noise.epsilon) * direction
    return canonical_phase(out)


def depolarized_density(target: TargetState, epsilon: float) -> np.ndarray:
    """(1 - eps) |psi><psi| + eps I/d."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    d = target.dim
    return (1.0 - epsilon) * target.projector() + epsilon * linalg.identity(d) / d


def source_density(
    target: TargetState,
    noise: NoiseSpec,
    witness: np.ndarray | None = None,
) -> np.ndarray:
    """Density matrix the simulated source emits each copy."""
    if noise.kind == "depolarizing":
        return depolarized_density(target, noise.epsilon)
    v = perturbed_state(target, noise, witness)
    return linalg.projector_onto(v)


def fidelity(state, target: TargetState) -> float:
    """Overlap with the target: |<psi|v>|^2 for vectors, <psi|sigma|psi> for matrices."""
    arr = np.asarray(state, dtype=complex)
    psi = target.vector
    if arr.ndim == 1:
        return float(abs(np.vdot(psi, arr)) ** 2)
    m = linalg.as_matrix(arr)
    return float(np.real(np.vdot(psi, m @ psi)))
