import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqv import catalog, linalg, states, strategies

pauli_words = st.tuples(
    st.sampled_from("+-"),
    st.text(alphabet="IXYZ", min_size=1, max_size=4),
).map(lambda t: t[0] + t[1])

long_pauli_words = st.tuples(
    st.sampled_from(["+", "-", ""]),
    st.text(alphabet="IXYZ", min_size=1, max_size=6),
).map(lambda t: t[0] + t[1])

Y_SPEC = ("+YZ", "+ZY")
MINUS_SPEC = ("-ZII", "-IZI", "-IIZ")
SIGNED_Y_SPEC = ("-YY", "+XX")


def test_canonical_phase():
    v = np.array([0.0, 1j, 1.0]) / math.sqrt(2.0)
    out = states.canonical_phase(v)
    assert out[1].real > 0 and abs(out[1].imag) < 1e-15
    again = states.canonical_phase(np.exp(2.1j) * out)
    assert linalg.max_abs(again - out) < 1e-12


def test_canonical_phase_zero_vector():
    with pytest.raises(ValueError):
        states.canonical_phase(np.zeros(4))


def test_target_state_validation():
    with pytest.raises(ValueError):
        states.TargetState(label="bad", n_qubits=2, vector=np.ones(4))
    with pytest.raises(ValueError):
        states.TargetState(label="bad", n_qubits=3, vector=np.ones(4) / 2.0)


def test_bell_state():
    bell = states.bell_state()
    assert bell.dim == 4
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert linalg.max_abs(bell.vector - expected) < 1e-15
    assert linalg.is_projector(bell.projector())


@pytest.mark.parametrize("theta", ["0.5", 0.5 + 0j, True])
def test_two_qubit_theta_must_be_a_real_number(theta):
    # "0.5" used to raise a TypeError from the range comparison
    message = re.escape(f"theta must be a real number, got {theta!r}")
    for build in (states.two_qubit_pure, strategies.two_qubit_three):
        with pytest.raises(ValueError, match=message):
            build(theta)
    with pytest.raises(ValueError, match=message):
        catalog.build_strategy("two_qubit_three", theta)


def test_two_qubit_pure_domain():
    for bad in (0.0, math.pi / 4, -0.1, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"got {bad}")):
            states.two_qubit_pure(bad)
    v = states.two_qubit_pure(0.3).vector
    assert abs(v[0] - math.sin(0.3)) < 1e-15
    assert abs(v[3] - math.cos(0.3)) < 1e-15


def test_ghz_domain():
    for bad in (1, 11):
        message = re.escape(f"ghz supports 2..10 qubits, got {bad}")
        with pytest.raises(ValueError, match=message):
            states.ghz(bad)
    g = states.ghz(4)
    assert abs(g.vector[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(g.vector[-1] - 1 / math.sqrt(2)) < 1e-15


def test_parse_pauli_string_errors():
    with pytest.raises(ValueError):
        states.parse_pauli_string("")
    with pytest.raises(ValueError):
        states.parse_pauli_string("+")
    with pytest.raises(ValueError, match="position 2"):
        states.parse_pauli_string("+XQZ")
    assert states.parse_pauli_string("-YY") == (-1, "YY")
    assert states.parse_pauli_string("XZ") == (1, "XZ")


@settings(max_examples=40, deadline=None)
@given(pauli_words, pauli_words)
def test_pauli_product_matches_dense(a, b):
    body_a = a.lstrip("+-")
    body_b = b.lstrip("+-")
    if len(body_a) != len(body_b):
        with pytest.raises(ValueError):
            states.pauli_product(a, b)
        return
    phase, word = states.pauli_product(a, b)
    dense = states.pauli_operator(a) @ states.pauli_operator(b)
    rebuilt = phase * states.pauli_operator("+" + word)
    assert linalg.max_abs(dense - rebuilt) < 1e-12


def test_stabilizer_spec_rejections():
    with pytest.raises(ValueError, match="commute"):
        states.StabilizerGroupSpec(("+XI", "+ZI"))
    with pytest.raises(ValueError, match="independent"):
        states.StabilizerGroupSpec(("+ZZ", "-ZZ"))
    with pytest.raises(ValueError, match="exactly"):
        states.StabilizerGroupSpec(("+ZZ",))
    with pytest.raises(ValueError):
        states.StabilizerGroupSpec(("+Z", "+ZZ"))


def test_stabilizer_group_elements():
    spec = states.StabilizerGroupSpec(("+ZZ", "+XX"))
    elements = spec.elements()
    assert elements[0] == "+II"
    assert set(elements) == {"+II", "+ZZ", "+XX", "-YY"}


def test_stabilizer_state_bell():
    spec = states.StabilizerGroupSpec(("+ZZ", "+XX"))
    synth = states.stabilizer_state(spec)
    assert linalg.max_abs(synth.vector - states.bell_state().vector) < 1e-12


def test_stabilizer_state_eigenrelations():
    spec = states.StabilizerGroupSpec(("+XXX", "+ZIZ", "+ZZI"))
    target = states.stabilizer_state(spec)
    for word in spec.generators:
        op = states.pauli_operator(word)
        assert linalg.max_abs(op @ target.vector - target.vector) < 1e-12


def dense_projector(word):
    n = len(states.parse_pauli_string(word)[1])
    return (linalg.identity(2**n) + states.pauli_operator(word)) / 2.0


def dense_stabilizer_state(spec):
    """Basis states projected through dense (I + S)/2, first survivor kept."""
    dim = 2**spec.n_qubits
    mats = [states.pauli_operator(g) for g in spec.generators]
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for s in mats:
            v = (v + s @ v) / 2.0
        if np.linalg.norm(v) > 1e-8:
            return states.canonical_phase(states.normalize(v))
    raise AssertionError("no survivor")


def test_pauli_bits_are_big_endian_with_one_phase_step_per_y():
    assert states.pauli_bits("+XIZ") == (3, 0b100, 0b001, 0)
    assert states.pauli_bits("-IYZ") == (3, 0b010, 0b011, 3)
    assert states.pauli_bits("YY") == (2, 0b11, 0b11, 2)


@settings(max_examples=200, deadline=None)
@given(long_pauli_words)
def test_pauli_projector_has_the_bytes_of_the_dense_form(word):
    assert states.pauli_projector(word).tobytes() == dense_projector(word).tobytes()


# Dense references stop at ghz8; ghz9 and ghz10 are compared with closed forms.
@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_generators_and_state_have_the_dense_bytes(n):
    spec = strategies.ghz_generator_spec(n)
    for word, proj in zip(spec.generators, states.stabilizer_projectors(spec)):
        assert proj.tobytes() == dense_projector(word).tobytes()
    target = states.stabilizer_state(spec).vector
    assert target.tobytes() == dense_stabilizer_state(spec).tobytes()
    assert target.tobytes() == states.ghz(n).vector.tobytes()


@pytest.mark.parametrize("n", [9, 10])
def test_large_ghz_generators_and_state_have_their_closed_form_bytes(n):
    d = 2**n
    spec = strategies.ghz_generator_spec(n)
    all_x, *z_pairs = states.stabilizer_projectors(spec)
    # (I + X...X)/2: 1/2 on the diagonal and on the anti-diagonal b -> d-1-b
    closed = (np.eye(d) + np.eye(d)[::-1]) / 2.0
    assert all_x.tobytes() == closed.astype(complex).tobytes()
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    for k, proj in enumerate(z_pairs, start=1):
        even = (bits[:, 0] == bits[:, k]).astype(float)
        assert proj.tobytes() == np.diag(even).astype(complex).tobytes()
    target = states.stabilizer_state(spec).vector
    assert target.tobytes() == states.ghz(n).vector.tobytes()


@pytest.mark.parametrize(
    "gens", [("+ZZ", "+XX"), ("+XXX", "+ZIZ", "+ZZI"), Y_SPEC, MINUS_SPEC, SIGNED_Y_SPEC]
)
def test_stabilizer_specs_have_the_dense_bytes(gens):
    spec = states.StabilizerGroupSpec(gens)
    for word, proj in zip(gens, states.stabilizer_projectors(spec)):
        assert proj.tobytes() == dense_projector(word).tobytes()
    target = states.stabilizer_state(spec)
    assert target.vector.tobytes() == dense_stabilizer_state(spec).tobytes()
    for word in gens:
        op = states.pauli_operator(word)
        assert linalg.max_abs(op @ target.vector - target.vector) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_full_group_settings_have_the_dense_bytes(n):
    strat = catalog.build_strategy(f"ghz{n}_group")
    for setting in strat.settings:
        assert setting.word == setting.label
        assert setting.projector.tobytes() == dense_projector(setting.word).tobytes()
    spec = strategies.ghz_generator_spec(n)
    assert strat.target.vector.tobytes() == dense_stabilizer_state(spec).tobytes()


def test_pauli_projector_respects_the_dimension_cap(monkeypatch):
    monkeypatch.setenv("NDQV_DIM_CAP", "8")
    states.pauli_projector("+XYZ")
    with pytest.raises(ValueError, match="exceeds cap 8"):
        states.pauli_projector("+XYZI")


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        states.NoiseSpec(kind="gamma", epsilon=0.1)
    with pytest.raises(ValueError):
        states.NoiseSpec(kind="depolarizing", epsilon=1.0)
    with pytest.raises(ValueError, match="seed"):
        states.NoiseSpec(kind="random_orthogonal", epsilon=0.1)
    states.NoiseSpec(kind="random_orthogonal", epsilon=0.0)  # seedless ok at zero


@pytest.mark.parametrize(
    "epsilon, why",
    [
        # True used to run as epsilon 1 - 0; "0.2" raised a TypeError
        (True, "real number"),
        (np.bool_(False), "real number"),
        ("0.2", "real number"),
        (0.2 + 0j, "real number"),
        (None, "real number"),
        (float("nan"), "[0, 1)"),
        (float("inf"), "[0, 1)"),
        (-0.1, "[0, 1)"),
    ],
)
def test_noise_spec_refuses_a_bad_epsilon(epsilon, why):
    with pytest.raises(ValueError, match=re.escape(f"{why}, got {epsilon!r}")):
        states.NoiseSpec("depolarizing", epsilon)


@pytest.mark.parametrize(
    "seed, why",
    [
        # 1.5 and True used to replay seed 1; -1 failed inside numpy; [1] was
        # unhashable
        (1.5, "an integer"),
        (True, "an integer"),
        (np.float64(2.0), "an integer"),
        ([1], "an integer"),
        ("1", "an integer"),
        (-1, "non-negative"),
        (np.int64(-3), "non-negative"),
    ],
)
def test_noise_spec_refuses_a_bad_seed(seed, why):
    with pytest.raises(ValueError, match=re.escape(f"{why}, got {seed!r}")):
        states.NoiseSpec("random_orthogonal", 0.2, seed=seed)


def test_noise_spec_stores_numpy_scalars_as_python_numbers():
    noise = states.NoiseSpec("random_orthogonal", np.float32(0.25), seed=np.uint8(7))
    assert type(noise.epsilon) is float and noise.epsilon == 0.25
    assert type(noise.seed) is int and noise.seed == 7
    # Python numbers are kept as given, int epsilon included
    assert type(states.NoiseSpec("depolarizing", 0).epsilon) is int
    assert hash(noise) == hash(states.NoiseSpec("random_orthogonal", 0.25, seed=7))


def test_perturbed_state_overlap():
    target = states.bell_state()
    noise = states.NoiseSpec(kind="worst_case_orthogonal", epsilon=0.3)
    v = states.perturbed_state(target, noise)
    assert abs(states.fidelity(v, target) - 0.7) < 1e-12
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    seeded = states.NoiseSpec(kind="random_orthogonal", epsilon=0.3, seed=9)
    w = states.perturbed_state(target, seeded)
    assert abs(states.fidelity(w, target) - 0.7) < 1e-12
    again = states.perturbed_state(target, seeded)
    assert np.array_equal(w, again)


def test_perturbed_state_rejects_depolarizing():
    target = states.bell_state()
    with pytest.raises(ValueError):
        states.perturbed_state(
            target, states.NoiseSpec(kind="depolarizing", epsilon=0.1)
        )


def test_perturbed_state_rejects_bad_witness():
    target = states.bell_state()
    noise = states.NoiseSpec(kind="worst_case_orthogonal", epsilon=0.3)
    with pytest.raises(ValueError, match="orthogonal"):
        states.perturbed_state(target, noise, witness=target.vector)


def test_depolarized_density():
    target = states.bell_state()
    rho = states.depolarized_density(target, 0.2)
    assert linalg.is_density_matrix(rho)
    assert abs(states.fidelity(rho, target) - (0.8 + 0.2 / 4.0)) < 1e-12


def test_source_density_dispatch():
    target = states.bell_state()
    pure = states.source_density(
        target, states.NoiseSpec(kind="worst_case_orthogonal", epsilon=0.0)
    )
    assert linalg.max_abs(pure - target.projector()) < 1e-12
    mixed = states.source_density(
        target, states.NoiseSpec(kind="depolarizing", epsilon=0.2)
    )
    assert linalg.max_abs(mixed - states.depolarized_density(target, 0.2)) < 1e-12


def test_first_orthogonal_complement():
    target = states.bell_state()
    w = states.first_orthogonal_complement(target)
    assert abs(np.vdot(target.vector, w)) < 1e-12
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
