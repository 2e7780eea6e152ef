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
from .states import BlockConfig, ghz

FISHER_PAIR_SKIP = 1e-14


def decohered_cghz(cfg: BlockConfig, p):
    """Density matrix of the concatenated GHZ state after white noise on every qubit.

    The state is 2^((1-N)/2) sum_x |x_L> over the even-weight logical strings
    x, and the channel on all qubits is the channel on one block, N times.  So
    the result is 2^(1-N) sum_{x, y even} (x)_k B_{x_k y_k}, where the four
    2^m x 2^m matrices B_ab = E^(x)m(|a_L><b_L|) come from one
    `depolarize_all` call (one block is B_00: the state is then |0_L>).
    """
    linalg.check_qubit_budget(cfg.qubits, what="decohered state")
    return _even_string_sum(_logical_blocks(cfg.m, p), cfg.N)


def _logical_blocks(m, p):
    """The (2, 2, 2^m, 2^m) stack B_ab = E^(x)m(|a_L><b_L|), with |0_L> = |0...0> and |1_L> = |1...1>."""
    logical = np.zeros((2, 2, 2**m, 2**m))
    logical[(0, 0, 1, 1), (0, 1, 0, 1), (0, 0, -1, -1), (0, -1, 0, -1)] = 1.0
    return depolarize_all(logical, p)


def _even_string_sum(blocks, N):
    """2^(1-N) sum_{x, y even} (x)_k B_{x_k y_k} over N blocks for a (2, 2, d, d) stack B.

    The sum is assembled one block at a time: the partial sums S_ab over
    the strings of a prefix whose ket and bra parities are (a, b) grow as
    S'_ab = sum_cd B_cd (x) S_{a^c, b^d}, with the new block as the
    leading factor, in the slots (i, j) where some B_cd is exactly nonzero.
    Every term is non-negative, so the exact zeros are those of the literal
    E^(x)q(|psi><psi|).
    """
    dim_b = blocks.shape[-1]
    # the slots (i, j) where some B_ab is nonzero, each with its nonzero (2a + b, B_ab[i, j])
    rows, cols = np.nonzero(blocks.any(axis=(0, 1)))
    coeffs = blocks[:, :, rows, cols].reshape(4, -1).T.tolist()
    slots = [
        (i, j, [(ab, c) for ab, c in enumerate(cs) if c]) for i, j, cs in zip(rows.tolist(), cols.tolist(), coeffs)
    ]
    # a prefix carries both parities of ket and bra, the whole string only (0, 0)
    sums = blocks  # S for the one-block prefix
    for k in range(2, N + 1):
        if k < N:
            # S reversed along a parity axis reads S_{a^1}: every output parity at once
            n, scale, parity = 2, 1.0, (slice(None), slice(None, None, -1))
        else:
            # the whole string needs parities (0, 0) only; the factor 2^(1-N) scales exactly
            n, scale, parity = 1, 2.0 ** (1 - N), (slice(0, 1), slice(1, 2))
        source = [sums[parity[a], parity[b]] for a, b in product((0, 1), repeat=2)]
        dim = sums.shape[-1]
        new = np.zeros((n, n, dim_b, dim, dim_b, dim))
        for i, j, ((ab, c), *rest) in slots:
            block = (c * scale) * source[ab]
            for ab, c in rest:
                block += (c * scale) * source[ab]
            new[:, :, i, :, j, :] = block
        sums = new.reshape(n, n, dim_b * dim, dim_b * dim)
    return sums[0, 0]


def decohered_coherence(cfg: BlockConfig, p):
    """Decohered N-block cross operator E |GHZ^+><GHZ^-|^(x)N (traceless, non-Hermitian).

    The channel acts block by block, so this is the N-th Kronecker power of
    the one decohered block E^(x)m |GHZ^+><GHZ^-|.
    """
    linalg.check_qubit_budget(cfg.qubits, what="decohered coherence operator")
    block = depolarize_all(np.outer(ghz(cfg.m, +1), ghz(cfg.m, -1)), p)
    return linalg.kron_all([block] * cfg.N)


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
        linalg._checked_hermitian(gens)
        # in place where possible: at 12 qubits each of these arrays is a full dense matrix
        a_squared = np.abs(vecs.conj().swapaxes(-1, -2) @ gens @ vecs)
        a_squared **= 2
        lam = np.clip(lam, 0.0, None)
        lam_sum = lam[:, :, None] + lam[:, None, :]
        weights = lam[:, :, None] - lam[:, None, :]
        weights **= 2
        live = lam_sum > FISHER_PAIR_SKIP
        np.divide(weights, lam_sum, out=weights, where=live)
        weights[~live] = 0.0
        weights *= a_squared
        total += float(np.sum(weights))
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


def distill_protocol_outcomes(cfg: BlockConfig, p):
    """(outcome, probability, corrected fidelity) for every measurement record, from one projected state.

    Projects every block onto the logical span, measures blocks 2..N-1 in
    the logical basis, applies the parity correction (a logical bit flip on
    block 0 when the record has odd parity), and takes the overlap of blocks
    0 and 1 with (|0_L 0_L> + |1_L 1_L>)/sqrt2.
    """
    if cfg.N < 2:
        raise InputError(f"protocol needs N >= 2, got N={cfg.N}")
    linalg.check_qubit_budget(cfg.qubits, what="protocol simulation")

    # projecting every block onto span{|0_L>, |1_L>} keeps the 2 x 2 corners (0...0, 1...1) of every B_ab
    rho = _even_string_sum(_logical_blocks(cfg.m, p)[:, :, [0, -1]][..., [0, -1]], cfg.N)
    weight = float(np.real(np.trace(rho)))

    # the kept blocks 0 and 1 lead the index; the measured logical states
    # are basis vectors, so conditioning on an outcome record is direct indexing
    dm = 2 ** (cfg.N - 2)
    t = rho.reshape(4, dm, 4, dm)
    # by record parity: kept-pair indices of (|0_L 0_L>, |1_L 1_L>), and of the
    # same pair after the logical bit flip on block 0
    bell = ([0, 3], [2, 1])
    records = []
    for idx, outcome in enumerate(product((0, 1), repeat=cfg.N - 2)):
        cond = t[:, idx, :, idx]
        norm = float(np.real(np.trace(cond)))
        prob = norm / weight if weight > 0 else 0.0
        pair = bell[sum(outcome) % 2]
        fid = float(np.real(np.sum(cond[np.ix_(pair, pair)]))) / (2 * norm) if prob > 1e-14 else float("nan")
        records.append((outcome, prob, fid))
    return records


def distill_protocol_average(cfg: BlockConfig, p):
    """Outcome-probability-weighted fidelity; equals the closed-form fidelity."""
    records = distill_protocol_outcomes(cfg, p)
    live = [(prob, fid) for _, prob, fid in records if prob > 1e-14]
    total = math.fsum(prob for prob, _ in live)
    return math.fsum(prob * fid for prob, fid in live) / total
