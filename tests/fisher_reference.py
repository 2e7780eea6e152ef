"""Fisher information of an arbitrary state and generator, with the checks the oracle's own generators skip."""

import numpy as np

from cghz import linalg, oracle
from cghz.errors import InputError


def checked_hermitian_entries(op):
    """Return op if every entry matches the conjugate of its transposed partner within HERMITICITY_TOL.

    An entry whose partner is not listed is compared with 0: after one sort
    by coordinate, each entry and each negated conjugate partner are summed
    per coordinate.
    """
    rows, cols = op.rows.astype(np.int64), op.cols.astype(np.int64)
    keys = np.concatenate((rows * op.dim + cols, cols * op.dim + rows))
    order = np.argsort(keys)
    keys = keys[order]
    vals = np.concatenate((op.vals, -op.vals.conj()))[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    dev = np.abs(np.add.reduceat(vals, starts)).max() if keys.size else 0.0
    if dev > linalg.HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian within {linalg.HERMITICITY_TOL:g} (deviation {dev:.3e})")
    return op


def fisher_dense(rho, gen):
    """oracle._fisher of a state and a generator given as linalg.Sparse entries, after checking the generator.

    Raises InputError on a dimension mismatch or a non-Hermitian generator;
    _fisher itself rejects a state that is not PSD with unit trace.
    """
    if rho.dim != gen.dim:
        raise InputError(f"dimension mismatch: {rho.dim} vs {gen.dim}")
    return oracle._fisher(rho, checked_hermitian_entries(gen))
