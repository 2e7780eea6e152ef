"""Single-qubit depolarizing (white noise) channel and its scalar transfer form.

The channel with survival probability p acts as

    E(M) = p M + (1-p)/4 * sum_j sigma_j M sigma_j,   j in {I, X, Y, Z},

which keeps populations with weights a = (1+p)/2, b = (1-p)/2 and scales
single-qubit coherences |0><1| by p.  `depolarize` applies the Pauli sum
literally (identity included); `depolarize_all` applies the equivalent
replace-with-I/2 form p M + (1-p) Tr_k(M) (x) I/2 on every qubit k, in place
on one copy, to a single matrix or to a whole stack in the same passes, and
tests assert the two agree.  p is the primary parameter everywhere; the
command line converts a rate/time pair (kappa, t) to p = exp(-kappa t).
"""

import math

import numpy as np

from . import linalg
from .errors import InputError


def survival(p):
    """Return the survival probability p as a float, or raise InputError if it is not in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise InputError(f"survival probability must be in [0, 1], got {p}")
    return p


def transfer_coefficients(p):
    """(a, b, offdiag): populations mix with weights (a, b), coherences scale by offdiag."""
    p = survival(p)
    return (1 + p) / 2, (1 - p) / 2, p


def depolarize(mat, qubit, p):
    """Apply the depolarizing channel to one qubit of a dense operator.

    Linear, trace preserving, completely positive; accepts non-Hermitian
    input (coherence operators).
    """
    p = survival(p)
    mat = np.asarray(mat, dtype=complex)
    q = linalg.qubit_count(mat.shape[0])
    if not 0 <= qubit < q:
        raise InputError(f"qubit index {qubit} out of range for {q} qubits")
    out = p * mat
    for sigma in linalg.PAULIS:
        out = out + (1 - p) / 4 * linalg.apply_one_qubit(mat, qubit, q, sigma, sigma)
    return out


def depolarize_all(mat, p):
    """Apply the channel to every qubit of a copy of a square matrix, or of each matrix in a stack.

    `mat` has shape (..., 2^q, 2^q); every matrix of a stack gets the same
    channel in the same passes.  Real input stays real, complex stays complex.
    """
    p = survival(p)
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise InputError(f"need a square matrix or a stack of them, got shape {mat.shape}")
    mat = mat.astype(np.result_type(mat, 1.0))
    q = linalg.qubit_count(mat.shape[-1])
    for k in range(q):
        # row and column index split as (qubits before k, qubit k, qubits after k)
        t = mat.reshape(mat.shape[:-2] + (2**k, 2, 2 ** (q - 1 - k), 2**k, 2, 2 ** (q - 1 - k)))
        zero, one = t[..., 0, :, :, 0, :], t[..., 1, :, :, 1, :]
        mixed = (1 - p) / 2 * (zero + one)
        t *= p
        zero += mixed
        one += mixed
    return mat
