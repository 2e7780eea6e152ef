"""State constructors: GHZ, concatenated GHZ, random pairs.

A block configuration (N, m) means N logical blocks of m physical qubits.
The concatenated state is the balanced superposition of the N-fold tensor
powers of the two m-qubit GHZ states,

    (1/sqrt2) (|GHZ_m^+>^(x)N + |GHZ_m^->^(x)N).

A *doublet* is the two-dimensional span of a basis string and its bitwise
complement; decohered GHZ-block operators are block diagonal over doublets.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError


@dataclass(frozen=True)
class BlockConfig:
    """N logical blocks of m physical qubits each."""

    N: int
    m: int

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise InputError(f"block configuration needs N >= 1 and m >= 1, got {self}")

    @property
    def qubits(self):
        return self.N * self.m


def ghz(m, sign=+1):
    """(|0...0> + sign |1...1>)/sqrt2 on m qubits, as a real (float64) vector."""
    if sign not in (+1, -1):
        raise InputError("sign must be +1 or -1")
    if m < 1:
        raise InputError(f"a GHZ state needs m >= 1 qubits, got m={m}")
    linalg.check_qubit_budget(m, what="ghz state")
    v = np.zeros(2**m)
    v[0] = 1 / np.sqrt(2)
    v[-1] = sign / np.sqrt(2)
    return v


def cghz(cfg):
    """Concatenated GHZ state vector for a block configuration (real, float64)."""
    linalg.check_qubit_budget(cfg.qubits, what="cghz state")
    plus = ghz(cfg.m, +1)
    minus = ghz(cfg.m, -1)
    vp, vm = plus, minus
    for _ in range(cfg.N - 1):
        # the Kronecker product of two vectors, without np.kron's per-call overhead
        vp = np.multiply.outer(vp, plus).ravel()
        vm = np.multiply.outer(vm, minus).ravel()
    return (vp + vm) / np.sqrt(2)


def random_orthogonal_pair(m, seed):
    """Two Haar-random orthonormal vectors in 2**m dimensions, deterministic per seed.

    Columns of a complex Gaussian matrix are orthonormalized; the resulting
    two-frame is Haar distributed.
    """
    if not 1 <= m <= 6:
        raise InputError(f"random pairs need 1 <= m <= 6, got m={m}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**m, 2)) + 1j * rng.standard_normal((2**m, 2))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so results are reproducible across BLAS builds
    phases = r.diagonal() / np.abs(r.diagonal())
    q = q * phases.conj()
    return q[:, 0].copy(), q[:, 1].copy()
