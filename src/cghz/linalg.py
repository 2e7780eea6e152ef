"""Dense linear algebra for multi-qubit operators.

Operators are plain ndarrays of shape (2**q, 2**q) and state vectors are
ndarrays of shape (2**q,); the dtype follows the input, so real operators get
real LAPACK routines.  Qubit 0 is the most significant bit of the
computational-basis index; this convention fixes all tensor orderings in the
package.  Hermiticity is never assumed (coherence operators are not
Hermitian); each function states its own requirements.  The decompositions
split a matrix along the exact block structure of its own nonzero pattern
(`direct_sum_blocks`) and hand each block size to LAPACK as one batched call.
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
    """Kronecker product of 2-D operators, left to right."""
    out = np.ones((1, 1))
    for op in ops:
        op = np.asarray(op)
        rows, cols = out.shape[0] * op.shape[0], out.shape[1] * op.shape[1]
        # the broadcast product is laid out (row, row, col, col) already, so the reshape copies nothing
        out = (out[:, None, :, None] * op[None, :, None, :]).reshape(rows, cols)
    return out


def trace_norm(mat):
    """Sum of singular values of a (not necessarily Hermitian) square matrix.

    Uses a full SVD of every direct-sum block: forming M^dagger M squares the
    condition number and costs ~1e-8 absolute error per near-zero singular
    value, far above what the cross-engine certification tolerances allow.
    """
    return float(sum(np.sum(np.linalg.svd(stack, compute_uv=False)) for stack, in direct_sum_blocks(mat)))


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


def direct_sum_blocks(*mats):
    """Split square matrices of one shape into their common exact direct-sum blocks.

    Indices i and j share a block when a path of entries that are nonzero in
    any of the matrices, or in its transpose, joins them.  Exact zeros decide,
    with no tolerance, so every entry outside the blocks is exactly zero in
    every matrix.  Returns, for each block size s, a tuple with one (k, s, s)
    stack of blocks per matrix; the rows and columns of a block keep their
    ascending order.
    """
    mats = [np.asarray(mat) for mat in mats]
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(mat.shape != shape for mat in mats):
        raise InputError(f"need square matrices of one shape, got {[mat.shape for mat in mats]}")
    n = shape[0]
    linked = mats[0] != 0
    for mat in mats[1:]:
        # in place: at 12 qubits a full-size boolean temporary is 16 MB
        np.logical_or(linked, mat, out=linked)
    linked.flat[:: n + 1] = True
    # every index points at its first neighbour, which is never above it, so
    # the pointers form a forest; pointer jumping takes each index to its root.
    # An entry that joins two roots, read in either orientation, hooks the
    # higher root to the lower one, until every entry joins indices with one
    # root; the roots then label the components of the symmetrised pattern
    label = linked.argmax(axis=1)
    while True:
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]
        cut = label[:, None] != label
        cut &= linked
        if not cut.any():
            break
        rows, cols = np.nonzero(cut)
        root_i, root_j = label[rows], label[cols]
        np.minimum.at(label, root_i, root_j)
        np.minimum.at(label, root_j, root_i)
    size = np.bincount(label)[label]
    # by block size, then by block, with ascending indices inside a block
    order = np.lexsort((label, size))
    stacks, start = [], 0
    for s, count in enumerate(np.bincount(size).tolist()):
        if count:
            idx = order[start : start + count].reshape(-1, s)
            start += count
            stacks.append(tuple(mat[idx[:, :, None], idx[:, None, :]] for mat in mats))
    return stacks


def _checked_hermitian(mat):
    mat = np.asarray(mat)
    dev = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian within {HERMITICITY_TOL:g} (deviation {dev:.3e})")
    return mat


def eig_hermitian(mat):
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix or (k, s, s) stack.

    Raises InputError if max |M - M^dagger| exceeds HERMITICITY_TOL.
    """
    return np.linalg.eigh(_checked_hermitian(mat))


def eigvals_hermitian(mat):
    """Ascending eigenvalues of a Hermitian matrix, block by block and without eigenvectors.

    The check of eig_hermitian runs on the gathered blocks; outside them both
    M and M^dagger are exactly zero, so this is the full-matrix check.
    """
    parts = [np.linalg.eigvalsh(_checked_hermitian(stack)).ravel() for stack, in direct_sum_blocks(mat)]
    return np.sort(np.concatenate(parts))


def apply_one_qubit(mat, q_index, n_qubits, left, right):
    """left(q) @ M @ right(q) for 2x2 left/right acting on one tensor factor."""
    t = mat.reshape((2,) * (2 * n_qubits))
    t = np.tensordot(np.asarray(left, dtype=complex), t, axes=([1], [q_index]))
    t = np.moveaxis(t, 0, q_index)
    t = np.tensordot(t, np.asarray(right, dtype=complex), axes=([n_qubits + q_index], [0]))
    t = np.moveaxis(t, -1, n_qubits + q_index)
    return t.reshape(mat.shape)
