"""Dense brute-force ground truth for small systems (up to 12 qubits).

Everything here is built from explicit 2^(Nm)-dimensional matrices: the
decohered state and coherence operator, their trace norms / negativities /
Fisher information, and an exhaustive-outcome simulation of the
projection-and-measurement distillation protocol.  The analytic and
spectral engines are certified against this module on the overlap domain.
"""

import math
from itertools import product

import numpy as np

from . import linalg
from .errors import InputError, ResourceLimitError
from .channels import depolarize_all
from .states import BlockConfig, cghz, ghz

FISHER_PAIR_SKIP = 1e-14


def decohered_cghz(cfg: BlockConfig, p):
    """Density matrix of the concatenated GHZ state after white noise on every qubit."""
    linalg.check_qubit_budget(cfg.qubits, what="decohered state")
    psi = cghz(cfg)
    return depolarize_all(np.outer(psi, psi.conj()), p)


def decohered_coherence(cfg: BlockConfig, p):
    """Decohered N-block cross operator E |GHZ^+><GHZ^-|^(x)N (traceless, non-Hermitian)."""
    linalg.check_qubit_budget(cfg.qubits, what="decohered coherence operator")
    plus, minus = ghz(cfg.m, +1), ghz(cfg.m, -1)
    block = np.outer(plus, minus.conj())
    op = linalg.kron_all([block] * cfg.N)
    return depolarize_all(op, p)


def coherence_norm(cfg: BlockConfig, p):
    """Dense trace norm of the decohered coherence operator."""
    return linalg.trace_norm(decohered_coherence(cfg, p))


def generic_coherence_norm(a, b, p):
    """||E^(x)m |a><b|||_1 for an arbitrary orthonormal pair on one block.

    By tensor multiplicativity of the trace norm, N blocks give its N-th power.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InputError(f"state dimensions differ: {a.shape} vs {b.shape}")
    m = linalg.qubit_count(a.shape[0])
    if m > 6:
        raise ResourceLimitError(f"generic coherence norm capped at m <= 6, got m={m}")
    return linalg.trace_norm(depolarize_all(np.outer(a, b.conj()), p))


def spectrum(cfg: BlockConfig, p):
    """Ascending eigenvalues of the dense decohered state."""
    return linalg.eigvals_hermitian(decohered_cghz(cfg, p))


def negativity(cfg: BlockConfig, p):
    """Negativity across one block vs the rest, from the dense partial transpose."""
    evals = linalg.eigvals_hermitian(linalg.partial_transpose(decohered_cghz(cfg, p), range(cfg.m)))
    return float(np.sum(-evals[evals < 0]))  # +0.0 for a PPT state


def block_x_generator(cfg: BlockConfig):
    """sum_k sigma_x^(x)m acting on block k, as a dense matrix.

    sigma_x^(x)m on block k is the permutation i -> i XOR mask_k, where mask_k
    holds the m bits of block k; the N permutations never share an entry.
    """
    linalg.check_qubit_budget(cfg.qubits, what="generator")
    index = np.arange(2**cfg.qubits)[:, None]
    masks = ((1 << cfg.m) - 1) << (cfg.m * np.arange(cfg.N))
    gen = np.zeros((index.size, index.size))
    gen[index, index ^ masks] = 1.0
    return gen


def single_z_generator(n_qubits):
    """sum_j sigma_z^(j) over all physical qubits, as a dense matrix.

    It is diagonal: on basis state i every qubit contributes +1 or -1, so
    the entry is n_qubits - 2 popcount(i).
    """
    linalg.check_qubit_budget(n_qubits, what="generator")
    index = np.arange(2**n_qubits)
    ones = sum(((index >> j) & 1 for j in range(n_qubits)), np.zeros_like(index))
    return np.diag(n_qubits - 2.0 * ones)


def fisher_dense(rho, gen):
    """Fisher information 2 sum_jk (l_k - l_j)^2/(l_k + l_j) |<k|A|j>|^2.

    Pairs with l_k + l_j below FISHER_PAIR_SKIP are kernel pairs and contribute
    nothing.  Requires a Hermitian PSD unit-trace rho and a Hermitian
    generator of the same dimension.
    """
    rho = np.asarray(rho)
    gen = np.asarray(gen)
    if rho.shape != gen.shape:
        raise InputError(f"shape mismatch: {rho.shape} vs {gen.shape}")
    # eigenvectors of rho stay inside the blocks of the union pattern, where
    # gen is block diagonal too, so pairs from different blocks have <k|A|j> = 0
    blocks = [(*linalg.eig_hermitian(rhos), gens) for rhos, gens in linalg.direct_sum_blocks(rho, gen)]
    evals = np.concatenate([lam.ravel() for lam, _, _ in blocks])
    if evals.min() < -1e-9 or abs(float(np.sum(evals)) - 1.0) > 1e-9:
        raise InputError("rho must be positive semidefinite with unit trace")
    total = 0.0
    for lam, vecs, gens in blocks:
        if np.max(np.abs(gens - gens.conj().swapaxes(-1, -2))) > linalg.HERMITICITY_TOL:
            raise InputError("generator must be Hermitian")
        a_elems = vecs.conj().swapaxes(-1, -2) @ gens @ vecs
        lam = np.clip(lam, 0.0, None)
        lam_sum = lam[:, :, None] + lam[:, None, :]
        lam_diff = lam[:, :, None] - lam[:, None, :]
        weights = np.where(lam_sum > FISHER_PAIR_SKIP, lam_diff**2 / np.where(lam_sum > 0, lam_sum, 1.0), 0.0)
        total += float(np.sum(weights * np.abs(a_elems) ** 2))
    return 2.0 * total


def fisher(cfg: BlockConfig, p, generator="block-x"):
    """Dense Fisher information of the decohered state for a named generator."""
    rho = decohered_cghz(cfg, p)
    if generator == "block-x":
        gen = block_x_generator(cfg)
    elif generator == "single-z":
        gen = single_z_generator(cfg.qubits)
    else:
        raise InputError(f"unknown generator {generator!r}")
    return fisher_dense(rho, gen)


def _project_logical(cfg, rho):
    """Project every block onto span{|0..0>, |1..1>} (unnormalized): P rho P as a 0/1 mask."""
    block = np.zeros((1, 2**cfg.m))
    block[0, [0, -1]] = 1.0
    keep = linalg.kron_all([block] * cfg.N).reshape(-1)
    return rho * np.outer(keep, keep)


def distill_protocol_outcomes(cfg: BlockConfig, p, kept_pair=(0, 1)):
    """(outcome, probability, corrected fidelity) for every measurement record, from one projected state.

    Projects every block onto the logical span, measures every block except
    the kept pair in the logical basis, applies the parity correction
    (a logical bit flip on the first kept block when the record has odd
    parity), and takes the overlap with (|0_L 0_L> + |1_L 1_L>)/sqrt2.
    """
    if cfg.N < 2:
        raise InputError(f"protocol needs N >= 2, got N={cfg.N}")
    linalg.check_qubit_budget(cfg.qubits, what="protocol simulation")
    i, j = kept_pair
    if not (0 <= i < cfg.N and 0 <= j < cfg.N and i != j):
        raise InputError(f"kept pair {kept_pair} invalid for N={cfg.N}")
    kept = sorted((i, j))
    measured = [b for b in range(cfg.N) if b not in kept]

    rho = _project_logical(cfg, decohered_cghz(cfg, p))
    weight = float(np.real(np.trace(rho)))

    dim_b = 2**cfg.m
    # reorder blocks to (kept..., measured...); the measured logical states
    # |0_L>, |1_L> are computational basis vectors, so conditioning on an
    # outcome record is direct indexing
    order = kept + measured
    axes = order + [cfg.N + b for b in order]
    dk, dm = dim_b**2, dim_b ** (cfg.N - 2)
    t = rho.reshape((dim_b,) * (2 * cfg.N)).transpose(axes).reshape(dk, dm, dk, dm)
    # by record parity: kept-pair indices of (|0_L 0_L>, |1_L 1_L>), and of the
    # same pair after the logical bit flip on the first kept block
    bell = ([0, dk - 1], [(dim_b - 1) * dim_b, dim_b - 1])
    records = []
    for outcome in product((0, 1), repeat=cfg.N - 2):
        idx = 0
        for bit in outcome:
            idx = idx * dim_b + (dim_b - 1 if bit else 0)
        cond = t[:, idx, :, idx]
        norm = float(np.real(np.trace(cond)))
        prob = norm / weight if weight > 0 else 0.0
        pair = bell[sum(outcome) % 2]
        fid = float(np.real(np.sum(cond[np.ix_(pair, pair)]))) / (2 * norm) if prob > 1e-14 else float("nan")
        records.append((outcome, prob, fid))
    return records


def distill_protocol_average(cfg: BlockConfig, p, kept_pair=(0, 1)):
    """Outcome-probability-weighted fidelity; equals the closed-form fidelity."""
    records = distill_protocol_outcomes(cfg, p, kept_pair)
    live = [(prob, fid) for _, prob, fid in records if prob > 1e-14]
    total = math.fsum(prob for prob, _ in live)
    return math.fsum(prob * fid for prob, fid in live) / total
