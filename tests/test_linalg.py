import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqv import linalg


def random_hermitian(dim, seed):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))


def test_as_vector_rejects_matrix():
    with pytest.raises(ValueError):
        linalg.as_vector(np.zeros((2, 2)))


def test_kron_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("NDQV_DIM_CAP", "8")
    a = np.eye(4)
    with pytest.raises(ValueError):
        linalg.kron(a, np.eye(4))
    # within the cap it just works
    out = linalg.kron(a, np.eye(2))
    assert out.shape == (8, 8)


def test_dim_cap_default():
    assert linalg.dim_cap() == 2**14


def test_projector_and_checks():
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    p = linalg.projector_onto(v)
    assert linalg.is_projector(p)
    assert linalg.is_hermitian(p)
    assert not linalg.is_unitary(p)
    assert linalg.is_unitary(np.eye(2))


def test_is_density_matrix():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert linalg.is_density_matrix(rho)
    assert not linalg.is_density_matrix(np.diag([1.0, 1.0]))
    assert not linalg.is_density_matrix(np.diag([1.5, -0.5]))


def test_hermitian_eigs_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        linalg.hermitian_eigs(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_hermitian_eigs_reconstructs(dim, seed):
    h = random_hermitian(dim, seed)
    eig = linalg.hermitian_eigs(h)
    # descending order
    assert all(a >= b - 1e-12 for a, b in zip(eig.values, eig.values[1:]))
    v = eig.vectors
    assert linalg.max_abs(v.conj().T @ v - np.eye(dim)) < 1e-10
    recon = (v * eig.values) @ v.conj().T
    assert linalg.max_abs(recon - h) < 1e-10


def test_max_abs():
    assert linalg.max_abs(np.array([[1.0, -3.0], [0.5, 2.0]])) == 3.0
