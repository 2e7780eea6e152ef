"""Dense linear algebra for multi-qubit operators.

Operators are plain ndarrays of shape (2**q, 2**q) and state vectors are
ndarrays of shape (2**q,); the dtype follows the input, so real operators get
real LAPACK routines.  Qubit 0 is the most significant bit of the
computational-basis index; this convention fixes all tensor orderings in the
package.  Hermiticity is never assumed (coherence operators are not
Hermitian); each function states its own requirements.
"""

import numpy as np

from .errors import InputError, ResourceLimitError

# dims beyond 2**12 are out of scope for every dense code path
DENSE_QUBIT_CAP = 12

HERMITICITY_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def qubit_count(dim):
    """Number of qubits for a dimension, rejecting non-powers of two."""
    q = int(dim).bit_length() - 1
    if dim <= 0 or (1 << q) != dim:
        raise InputError(f"dimension {dim} is not a power of two")
    return q


def check_qubit_budget(q, what="dense operation"):
    if q > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"{what} needs {q} qubits, cap is {DENSE_QUBIT_CAP}")


def kron_all(ops):
    out = np.ones((1, 1))
    for op in ops:
        out = np.kron(out, op)
    return out


def trace_norm(mat):
    """Sum of singular values of a (not necessarily Hermitian) matrix.

    Uses a full SVD: forming M^dagger M squares the condition number and
    costs ~1e-8 absolute error per near-zero singular value, far above what
    the cross-engine certification tolerances allow.
    """
    mat = np.asarray(mat)
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def partial_transpose(mat, qubits):
    """Transpose the row/column indices of the named qubits only.

    Involutive and trace preserving; transposing every qubit equals the full
    transpose.
    """
    mat = np.asarray(mat)
    q = qubit_count(mat.shape[0])
    for k in qubits:
        if not 0 <= k < q:
            raise InputError(f"qubit index {k} out of range for {q} qubits")
    t = mat.reshape((2,) * (2 * q))
    for k in set(qubits):
        t = np.swapaxes(t, k, q + k)
    return t.reshape(mat.shape)


def _checked_hermitian(mat):
    mat = np.asarray(mat)
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian within {HERMITICITY_TOL:g} (deviation {dev:.3e})")
    return mat


def eig_hermitian(mat):
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix.

    Raises InputError if max |M - M^dagger| exceeds HERMITICITY_TOL.
    """
    return np.linalg.eigh(_checked_hermitian(mat))


def eigvals_hermitian(mat):
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors; same check as eig_hermitian."""
    return np.linalg.eigvalsh(_checked_hermitian(mat))


def apply_one_qubit(mat, q_index, n_qubits, left, right):
    """left(q) @ M @ right(q) for 2x2 left/right acting on one tensor factor."""
    t = mat.reshape((2,) * (2 * n_qubits))
    t = np.tensordot(np.asarray(left, dtype=complex), t, axes=([1], [q_index]))
    t = np.moveaxis(t, 0, q_index)
    t = np.tensordot(t, np.asarray(right, dtype=complex), axes=([n_qubits + q_index], [0]))
    t = np.moveaxis(t, -1, n_qubits + q_index)
    return t.reshape(mat.shape)
