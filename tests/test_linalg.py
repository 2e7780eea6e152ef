import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cghz import linalg
from cghz.errors import InputError


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


class TestTraceNorm:
    def test_identity(self):
        assert linalg.trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_diag_signs(self):
        assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_rank_one_offdiagonal(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        assert linalg.trace_norm(m) == pytest.approx(1.0, abs=1e-14)

    def test_matches_svd(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ref = np.sum(np.linalg.svd(m, compute_uv=False))
        assert linalg.trace_norm(m) == pytest.approx(ref, rel=1e-12)

    def test_multiplicative_under_kron(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            prod = linalg.trace_norm(np.kron(a, b))
            assert prod == pytest.approx(linalg.trace_norm(a) * linalg.trace_norm(b), rel=1e-10)


class TestPartialTranspose:
    def test_all_qubits_is_full_transpose(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        np.testing.assert_allclose(linalg.partial_transpose(m, [0, 1, 2]), m.T)

    def test_empty_set_is_identity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(linalg.partial_transpose(m, []), m)

    def test_bell_eigenvalues(self):
        rho = np.outer(bell_state(), bell_state().conj())
        pt = linalg.partial_transpose(rho, [1])
        evals = np.sort(np.linalg.eigvalsh(pt))
        np.testing.assert_allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        pt = linalg.partial_transpose(m, [1])
        np.testing.assert_allclose(linalg.partial_transpose(pt, [1]), m)
        assert np.trace(pt) == pytest.approx(np.trace(m))

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            linalg.partial_transpose(np.eye(4), [2])


class TestEigHermitian:
    def test_diagonal(self):
        evals, _ = linalg.eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(evals, [1.0, 3.0])

    def test_pauli_x(self):
        evals, evecs = linalg.eig_hermitian(linalg.PAULI_X)
        np.testing.assert_allclose(evals, [-1.0, 1.0])
        # eigenvectors are |-+> up to phase
        for col, sign in zip(evecs.T, (-1, 1)):
            np.testing.assert_allclose(linalg.PAULI_X @ col, sign * col, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        herm = g + g.conj().T
        evals, evecs = linalg.eig_hermitian(herm)
        rebuilt = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.max(np.abs(rebuilt - herm)) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            linalg.eig_hermitian(m)

    def test_density_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        evals, _ = linalg.eig_hermitian(rho)
        assert float(np.sum(evals)) == pytest.approx(1.0, abs=1e-10)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_xx_flips_00(self):
        xx = np.kron(linalg.PAULI_X, linalg.PAULI_X)
        v = np.zeros(4)
        v[0b00] = 1.0
        np.testing.assert_allclose(xx @ v, [0, 0, 0, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.trace(np.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_qubit_count_rejects_non_powers():
    with pytest.raises(InputError):
        linalg.qubit_count(6)
    assert linalg.qubit_count(8) == 3
