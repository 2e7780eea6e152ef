"""Linear algebra for multi-qubit operators held as their exactly nonzero entries.

An operator on q qubits is a `Sparse`: the dimension 2^q and three parallel
arrays of row indices, column indices and values, one per exactly nonzero
matrix element, in no particular order.  No function here forms a 2^q x 2^q
array.  Qubit 0 is the most significant bit of the computational-basis index;
this convention fixes all tensor orderings in the package.  The dtype follows
the input, so real operators get real LAPACK routines.  Hermiticity is never
assumed (coherence operators are not Hermitian); each function states its own
requirements.  The decompositions split an operator along the exact block
structure of its own entries (`direct_sum_blocks`) and hand each block size to
LAPACK as one batched call on a dense (k, s, s) stack; trace norms see
(k, u, s) stacks, with each block's exactly equal rows merged.
"""

from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceLimitError

# dims beyond 2**12 are out of scope for every dense code path
DENSE_QUBIT_CAP = 12

HERMITICITY_TOL = 1e-12

# entries per run where a pass over all entries would otherwise make full-length temporaries
ENTRY_RUN = 1 << 16

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


# the dtype of row and column indices: they fit in 32 bits at the dense cap,
# at half the memory of intp, and `take` gathers with them as fast
INDEX = np.int32


class Sparse(NamedTuple):
    """A dim x dim operator: vals[t] at (rows[t], cols[t]), and zero at every coordinate not listed.

    Every listed value is exactly nonzero and no coordinate is listed twice.
    Indices are INDEX integers.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def sparse(mat):
    """The exactly nonzero entries of a dense square matrix, row by row."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"need a square matrix, got shape {mat.shape}")
    rows, cols = np.nonzero(mat)
    return Sparse(mat.shape[0], rows.astype(INDEX), cols.astype(INDEX), mat[rows, cols])


def _exact_entries(dim, rows, cols, vals):
    """The operator with these entries (no coordinate twice), leaving out those that are exactly zero."""
    if not vals.all():
        keep = vals != 0
        rows, cols, vals = rows.compress(keep), cols.compress(keep), vals.compress(keep)
    return Sparse(dim, rows, cols, vals)


def qubit_count(dim):
    """Number of qubits for a dimension, rejecting non-powers of two."""
    q = int(dim).bit_length() - 1
    if dim <= 0 or (1 << q) != dim:
        raise InputError(f"dimension {dim} is not a power of two")
    return q


def popcount(index, bits):
    """The number of set bits among the low `bits` bits of each index."""
    return sum(((index >> j) & 1 for j in range(bits)), np.zeros_like(index))


def check_qubit_budget(q, what="dense operation"):
    if q > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"{what} needs {q} qubits, cap is {DENSE_QUBIT_CAP}")


def kron_all(ops):
    """Kronecker product of operators, left to right."""
    dim, coords, vals = 1, np.zeros((2, 1), INDEX), np.ones(1)
    for op in ops:
        # the new factor holds the low digits of both indices; its entries
        # run along the short middle axis and the product so far along the long one
        coords = (np.array((op.rows, op.cols))[:, :, None] + coords[:, None, :] * op.dim).reshape(2, -1)
        vals = np.multiply.outer(op.vals, vals).ravel()
        dim *= op.dim
    return _exact_entries(dim, coords[0], coords[1], vals)


def trace_norm(op):
    """Sum of singular values of a (not necessarily Hermitian) square operator.

    A full SVD of each (k, u, s) stack of merged block rows: M^dagger M would
    square the condition number, ~1e-8 absolute error per near-zero value.
    """
    return float(sum(np.linalg.svd(_merged_rows(stack), compute_uv=False).sum() for _, stack in direct_sum_blocks(op)))


def _merged_rows(stack):
    """Each block's distinct rows times the roots of their counts: a (k, u, s) stack with the singular values of the (k, s, s) one.

    A block is D R with D^T D = diag(counts).  Rows merge only when all their
    bits agree, and a stack with a block of s distinct rows comes back as is.
    """
    k, s, _ = stack.shape
    bits = stack.view(f"u{stack.real.itemsize}").reshape(k * s, -1)
    keys = bits @ np.arange(1, 2 * bits.shape[1], 2, dtype=bits.dtype)  # wrapping integer dot products: equal rows, equal keys
    if len(set(keys[:s].tolist())) == s:
        return stack
    # rows by block, then by key; a row joins the one before it in its block when their keys and bits agree
    order = (keys.reshape(k, s).argsort() + np.arange(0, k * s, s)[:, None]).ravel()
    pairs = np.flatnonzero((keys[order[1:]] == keys[order[:-1]]) & (np.arange(1, k * s) % s != 0))
    run, start = max(1, ENTRY_RUN // bits.shape[1]), np.ones((k, s), bool)
    for t in np.split(pairs, range(run, pairs.size, run)):
        start.flat[t[(bits[order[t]] == bits[order[t + 1]]).all(axis=1)] + 1] = False
    if (u := int(start.sum(axis=1).max())) == s:
        return stack
    first, out = np.flatnonzero(start), np.zeros((k * u, s), np.result_type(stack, 1.0))
    count, slot = np.diff(first, append=k * s), first // s * u + start.cumsum(axis=1).ravel()[first] - 1
    for i in range(0, first.size, run):
        out[slot[i : i + run]] = stack.reshape(k * s, s)[order[first[i : i + run]]] * np.sqrt(count[i : i + run, None])
    return out.reshape(k, u, s)


def partial_transpose(op, qubits):
    """Transpose the row/column indices of the named qubits only.

    The entries move and keep their values: the bits of the named qubits
    trade places between row and column index.  Involutive and trace
    preserving; transposing every qubit equals the full transpose.
    """
    q = qubit_count(op.dim)
    for k in qubits:
        if not 0 <= k < q:
            raise InputError(f"qubit index {k} out of range for {q} qubits")
    mask = sum(1 << (q - 1 - k) for k in set(qubits))
    swap = (op.rows ^ op.cols) & mask
    return Sparse(op.dim, op.rows ^ swap, op.cols ^ swap, op.vals)


def _components(n, rows, cols):
    """The component label of each of n indices: the lowest index joined to it by entries read either way."""
    label = np.arange(n, dtype=INDEX)
    # every index first takes the lowest index it has an entry to; after
    # that, every root takes the lowest root it shares an entry with, in
    # either orientation.  Pointers never go up, so they form a forest, and
    # pointer jumping takes every index to its root
    np.minimum.at(label, rows, cols)
    lr, lc = rows, cols
    while True:
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]
        if not label.any():
            return label  # one root, index 0, holds every index: no entry can join two roots
        # only entries between different roots still join anything; a long
        # entry list is read in runs of ENTRY_RUN, so the temporaries stay small
        runs = range(0, lr.size, ENTRY_RUN)
        if len(runs) > 1:
            cut = np.concatenate([(label.take(lr[i : i + ENTRY_RUN]) != label.take(lc[i : i + ENTRY_RUN])).nonzero()[0] + i for i in runs])
        else:
            cut = (label.take(lr) != label.take(lc)).nonzero()[0]
        if not cut.size:
            return label
        lr, lc = label.take(lr.take(cut)), label.take(lc.take(cut))
        np.minimum.at(label, lr, lc)
        np.minimum.at(label, lc, lr)


def direct_sum_blocks(op):
    """Split an operator into its exact direct-sum blocks, gathered by block size.

    Indices i and j share a block when a path of entries, each read in
    either orientation, joins them, so every entry outside the blocks is
    exactly zero; an index without entries is a block of size 1 holding 0.
    Returns one (index, stack) pair per block size s, in ascending s: index
    (k, s) lists the basis indices of each block in ascending order, and
    stack (k, s, s) holds the block's entries in that order.
    """
    n = op.dim
    label = _components(n, op.rows, op.cols)
    size = np.bincount(label, minlength=n)[label]
    # by block size, then by block (labelled by its lowest index), then by index
    order = (size * n + label).argsort(kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # all stacks lie one after another in one flat buffer, where a block of
    # size s takes s^2 places: row i starts after the sizes of all the
    # indices ranked before it, and a block's first index is its label
    ordered_size = size[order]
    row_start = (ordered_size.cumsum() - ordered_size)[rank]
    position = rank - rank[label]
    buffer = np.zeros(int(ordered_size.sum()), dtype=op.vals.dtype)
    for i in range(0, op.vals.size, ENTRY_RUN):
        flat = row_start.take(op.rows[i : i + ENTRY_RUN])
        flat += position.take(op.cols[i : i + ENTRY_RUN])
        np.put(buffer, flat, op.vals[i : i + ENTRY_RUN])
    bounds = [0, *((ordered_size[1:] != ordered_size[:-1]).nonzero()[0] + 1).tolist(), n]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        s = int(ordered_size[lo])
        start = int(row_start[order[lo]])
        out.append((order[lo:hi].reshape(-1, s), buffer[start : start + (hi - lo) * s].reshape(-1, s, s)))
    return out


def _checked_hermitian(mat):
    mat = np.asarray(mat)
    adjoint = mat.swapaxes(-1, -2)
    dev = np.abs(mat - (adjoint.conj() if np.iscomplexobj(mat) else adjoint)).max()
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian within {HERMITICITY_TOL:g} (deviation {dev:.3e})")
    return mat


def eig_hermitian(mat):
    """Ascending eigenvalues and orthonormal eigenvector columns of a dense Hermitian matrix or (k, s, s) stack.

    Raises InputError if max |M - M^dagger| exceeds HERMITICITY_TOL.  A 1 x 1
    matrix is its own eigenvalue, with eigenvector 1, and skips LAPACK.
    """
    mat = _checked_hermitian(mat)
    if mat.shape[-1] == 1:
        return mat[..., 0].real.copy(), np.ones_like(mat)
    return np.linalg.eigh(mat)


def eigvals_hermitian(op):
    """Ascending eigenvalues of a Hermitian operator, block by block and without eigenvectors.

    The check of eig_hermitian runs on the gathered blocks; outside them both
    M and M^dagger are exactly zero, so this is the full-matrix check.
    """
    parts = []
    for _, stack in direct_sum_blocks(op):
        stack = _checked_hermitian(stack)
        parts.append(stack.real.ravel() if stack.shape[-1] == 1 else np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(parts))


def apply_one_qubit(mat, q_index, n_qubits, left, right):
    """left(q) @ M @ right(q) for 2x2 left/right acting on one tensor factor of a dense matrix."""
    t = mat.reshape((2,) * (2 * n_qubits))
    t = np.tensordot(np.asarray(left, dtype=complex), t, axes=([1], [q_index]))
    t = np.moveaxis(t, 0, q_index)
    t = np.tensordot(t, np.asarray(right, dtype=complex), axes=([n_qubits + q_index], [0]))
    t = np.moveaxis(t, -1, n_qubits + q_index)
    return t.reshape(mat.shape)
