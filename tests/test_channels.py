import numpy as np
import pytest

from cghz import linalg
from cghz.channels import depolarize, depolarize_all, survival, transfer_coefficients
from cghz.errors import InputError

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def test_identity_at_p_one():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(depolarize(m, 0, 1.0), m, atol=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0])
def test_population_action(p):
    # E(|0><0|) = diag((1+p)/2, (1-p)/2), by four-term Kraus algebra
    out = depolarize(np.outer(KET0, KET0.conj()), 0, p)
    np.testing.assert_allclose(out, np.diag([(1 + p) / 2, (1 - p) / 2]), atol=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
def test_coherence_action(p):
    # E(|+><-|) = p |+><-|, trace norm p
    op = np.outer(PLUS, MINUS.conj())
    out = depolarize(op, 0, p)
    np.testing.assert_allclose(out, p * op, atol=1e-14)
    assert linalg.trace_norm(linalg.sparse(out)) == pytest.approx(p, abs=1e-13)


def test_matches_replacement_form():
    # p rho + (1-p) tr(rho) I/2 is the same channel
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = 0.73
    expected = p * m + (1 - p) * np.trace(m) * np.eye(2) / 2
    np.testing.assert_allclose(depolarize(m, 0, p), expected, atol=1e-13)


def test_index_out_of_range():
    with pytest.raises(InputError):
        depolarize(np.eye(4), 2, 0.9)


def test_full_depolarization_gives_maximally_mixed():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    np.testing.assert_allclose(depolarize_all(rho, 0.0), np.eye(8) / 8, atol=1e-13)


def test_order_independence():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    forward = depolarize_all(rho, 0.6)
    backward = rho
    for q in reversed(range(3)):
        backward = depolarize(backward, q, 0.6)
    np.testing.assert_allclose(forward, backward, atol=1e-13)


@pytest.mark.parametrize("q", range(1, 9))
@pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
def test_all_qubit_kernel_matches_chained_pauli_sum(q, p):
    # depolarize_all uses the replace-with-I/2 form; depolarize is the literal Pauli sum
    rng = np.random.default_rng(100 + q)
    m = rng.standard_normal((2**q, 2**q)) + 1j * rng.standard_normal((2**q, 2**q))
    expected = m
    for k in range(q):
        expected = depolarize(expected, k, p)
    np.testing.assert_allclose(depolarize_all(m, p), expected, rtol=0, atol=1e-13)


def test_all_qubit_kernel_keeps_the_dtype():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((8, 8))
    assert depolarize_all(real, 0.6).dtype == np.float64
    assert depolarize_all(real + 0j, 0.6).dtype == np.complex128
    assert depolarize_all(np.eye(8, dtype=int), 0.6).dtype == np.float64
    np.testing.assert_allclose(depolarize_all(real, 0.6), depolarize_all(real + 0j, 0.6).real, atol=1e-15)


def test_all_qubit_kernel_leaves_its_input_unchanged():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    before = m.copy()
    depolarize_all(m, 0.4)
    np.testing.assert_array_equal(m, before)


def test_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    out = depolarize_all(rho, 0.9)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(out - out.conj().T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_rotational_invariance():
    # E(u rho u+) = u E(rho) u+ for any single-qubit unitary
    rng = np.random.default_rng(4)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)
    rho = np.outer(PLUS, PLUS.conj())
    left = depolarize(u @ rho @ u.conj().T, 0, 0.8)
    right = u @ depolarize(rho, 0, 0.8) @ u.conj().T
    np.testing.assert_allclose(left, right, atol=1e-12)


@pytest.mark.parametrize(
    "p,expected",
    [(1.0, (1.0, 0.0, 1.0)), (0.0, (0.5, 0.5, 0.0)), (0.9, (0.95, 0.05, 0.9))],
)
def test_transfer_coefficients(p, expected):
    a, b, offdiag = transfer_coefficients(p)
    assert (a, b, offdiag) == pytest.approx(expected)
    assert a + b == pytest.approx(1.0)
    assert offdiag == pytest.approx(a - b)


def test_transfer_matches_dense_channel():
    a, b, offdiag = transfer_coefficients(0.7)
    pop = depolarize(np.outer(KET0, KET0.conj()), 0, 0.7)
    np.testing.assert_allclose(np.diag(pop).real, [a, b], atol=1e-14)
    coh = depolarize(np.outer(KET0, KET1.conj()), 0, 0.7)
    assert coh[0, 1] == pytest.approx(offdiag)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_survival_rejects_out_of_range(p):
    with pytest.raises(InputError):
        survival(p)


@pytest.mark.parametrize("shape", [(3, 4, 4), (2, 2, 8, 8), (1, 2, 2)])
@pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
def test_stack_is_channelled_matrix_by_matrix(shape, p):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape)
    out = depolarize_all(stack, p)
    assert out.shape == stack.shape and out.dtype == np.float64
    for index in np.ndindex(shape[:-2]):
        assert np.array_equal(out[index], depolarize_all(stack[index], p))


def test_stack_leaves_its_input_alone():
    stack = np.arange(32.0).reshape(2, 4, 4)
    depolarize_all(stack, 0.5)
    assert np.array_equal(stack, np.arange(32.0).reshape(2, 4, 4))


@pytest.mark.parametrize("shape", [(4,), (2, 4, 2)])
def test_rejects_non_square_input(shape):
    with pytest.raises(InputError):
        depolarize_all(np.zeros(shape), 0.5)
