"""Brute-force ground truth for small systems (up to 12 qubits; the protocol, up to 12 blocks).

Every quantity here comes from the explicit 2^(Nm)-dimensional operators,
held as their exactly nonzero entries (`linalg.Sparse`): the decohered
state and coherence operator, their trace norms / negativities / Fisher
information, and an exhaustive-outcome simulation of the
projection-and-measurement distillation protocol.  The state and the
protocol are built from the channel on one qubit; the one dense array is
the channelled 2^m x 2^m coherence block (all of q at N = 1).  No doublet
algebra is used.  The decompositions run on the exact direct-sum blocks of
each operator's own entries.  The analytic and spectral engines are
certified against this module on the overlap domain.
"""

import math
import sys
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
    2^m x 2^m block operators B_ab = E(|a><b|)^(x)m come from the channel on
    one qubit (one block is B_00: the state is then |0_L>).
    """
    linalg.check_qubit_budget(cfg.qubits, what="decohered state")
    return _even_string_sum(_one_qubit(p), cfg.m, cfg.N)


def _one_qubit(p):
    """The channel on one qubit as a 4 x 4 table: entry [2c + d, 2a + b] is E(|a><b|)_cd."""
    return depolarize_all(np.eye(4).reshape(4, 2, 2), p).reshape(4, 4).T


# _XOR[h, g] = h ^ g: a new block of parity pair g takes a prefix of pair h ^ g to h
_XOR = np.arange(4)[:, None] ^ np.arange(4)
# the one-qubit slots (0, 0), (0, 1), (1, 0), (1, 1), in the row order 2c + d of the one-qubit table
_UNIT = np.indices((2, 2), dtype=linalg.INDEX).reshape(2, 4)


def _even_string_sum(one, m, N):
    """2^(1-N) sum_{x, y even} (x)_k B_{x_k y_k} over N blocks of m qubits, B_ab = E(|a><b|)^(x)m, as entries.

    `one` is the one-qubit table W1[2c + d, 2a + b] = E(|a><b|)_cd.  The
    block's slot table, the slots (i, j) where some B_ab is exactly nonzero
    and their (S, 4) values W, grows one qubit at a time, the new qubit
    leading, and drops the slots whose four values are all exactly zero
    (a product with an exact zero stays zero).  Then one block at a time,
    from the empty prefix S_00 = 1: the partial sums S_h over the prefixes
    whose ket and bra parities are the pair h = 2a + b grow as
    S'_h = sum_g B_g (x) S_(h^g), the new block leading, which is one product
    W S_(h^g) per block.  The four S_h share one coordinate list, which each
    block extends slot by slot, so no coordinate repeats and nothing is
    sorted.  Every term is non-negative, so the exact zeros are those of the
    literal E^(x)q(|psi><psi|).
    """
    slot_coords, weights, dim_b = np.zeros((2, 1), linalg.INDEX), np.ones((1, 4)), 1
    for _ in range(m):
        slot_coords = (_UNIT[:, :, None] * dim_b + slot_coords[:, None, :]).reshape(2, -1)
        weights = (one[:, None] * weights).reshape(-1, 4)
        keep = weights.any(axis=1)
        slot_coords, weights, dim_b = slot_coords.compress(keep, axis=1), weights[keep], 2 * dim_b
    sums, coords, dim = np.array([[1.0], [0.0], [0.0], [0.0]]), np.zeros((2, 1), linalg.INDEX), 1
    for _ in range(N - 1):
        sums = np.matmul(weights, sums[_XOR]).reshape(4, -1)
        coords = (slot_coords[:, :, None] * dim + coords[:, None, :]).reshape(2, -1)
        dim *= dim_b
    # the last block forms S_00 = W S only, where 2^(1-N) scales exactly, in
    # runs of at most linalg.ENTRY_RUN entries, so the temporaries stay small
    # at any size; each run keeps its nonzero sums, and the runs are joined
    run = max(1, linalg.ENTRY_RUN // coords.shape[1])
    out_coords, out_vals = [], []
    for lo in range(0, len(weights), run):
        vals = ((weights[lo : lo + run] * 2.0 ** (1 - N)) @ sums).ravel()
        keep = vals != 0
        out_coords.append((slot_coords[:, lo : lo + run, None] * dim + coords[:, None, :]).reshape(2, -1).compress(keep, axis=1))
        out_vals.append(vals.compress(keep))
    out_coords = np.concatenate(out_coords, axis=1)
    return linalg.Sparse(dim * dim_b, out_coords[0], out_coords[1], np.concatenate(out_vals))


def decohered_coherence(cfg: BlockConfig, p):
    """Decohered N-block cross operator E |GHZ^+><GHZ^-|^(x)N (traceless, non-Hermitian), as entries.

    The channel acts block by block, so this is the N-th Kronecker power of
    the one decohered block E^(x)m |GHZ^+><GHZ^-|.
    """
    linalg.check_qubit_budget(cfg.qubits, what="decohered coherence operator")
    block = depolarize_all(np.outer(ghz(cfg.m, +1), ghz(cfg.m, -1)), p)
    return linalg.kron_all([linalg.sparse(block)] * cfg.N)


def coherence_norm(cfg: BlockConfig, p):
    """Trace norm of the decohered coherence operator, from the SVD of each of its blocks."""
    return linalg.trace_norm(decohered_coherence(cfg, p))


def generic_coherence_norm(a, b, p):
    """||E^(x)m |a><b|||_1 for an arbitrary orthonormal pair on one block.

    By tensor multiplicativity of the trace norm, N blocks give its N-th power.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise InputError(f"state dimensions differ: {a.shape} vs {b.shape}")
    m = linalg.qubit_count(a.shape[0])
    if m > 6:
        raise ResourceLimitError(f"generic coherence norm capped at m <= 6, got m={m}")
    return linalg.trace_norm(linalg.sparse(depolarize_all(np.outer(a, b.conj()), p)))


def spectrum(cfg: BlockConfig, p):
    """Ascending eigenvalues of the decohered state."""
    return linalg.eigvals_hermitian(decohered_cghz(cfg, p))


def negativity(cfg: BlockConfig, p):
    """Negativity across one block vs the rest, from the partial transpose."""
    evals = linalg.eigvals_hermitian(linalg.partial_transpose(decohered_cghz(cfg, p), range(cfg.m)))
    return float(np.sum(-evals[evals < 0]))  # +0.0 for a PPT state


def block_x_generator(cfg: BlockConfig):
    """sum_k sigma_x^(x)m acting on block k, as entries.

    sigma_x^(x)m on block k is the permutation i -> i XOR mask_k, where mask_k
    holds the m bits of block k; the N permutations never share an entry.
    """
    linalg.check_qubit_budget(cfg.qubits, what="generator")
    index = np.arange(2**cfg.qubits, dtype=linalg.INDEX)
    masks = ((1 << cfg.m) - 1) << (cfg.m * np.arange(cfg.N, dtype=linalg.INDEX))
    return linalg.Sparse(index.size, np.tile(index, cfg.N), (masks[:, None] ^ index).ravel(), np.ones(index.size * cfg.N))


def single_z_generator(n_qubits):
    """sum_j sigma_z^(j) over all physical qubits, as entries.

    It is diagonal: on basis state i every qubit contributes +1 or -1, so
    the entry is n_qubits - 2 popcount(i).
    """
    linalg.check_qubit_budget(n_qubits, what="generator")
    diagonal = n_qubits - 2.0 * linalg.popcount(np.arange(2**n_qubits), n_qubits)
    index = np.flatnonzero(diagonal).astype(linalg.INDEX)
    return linalg.Sparse(diagonal.size, index, index, diagonal[index])


def _fisher(rho, gen):
    """Fisher information 2 sum_jk (l_k - l_j)^2/(l_k + l_j) |<k|A|j>|^2 of a state and a generator, given as entries.

    Pairs with l_k + l_j below FISHER_PAIR_SKIP are kernel pairs and contribute
    nothing.  Requires a Hermitian PSD unit-trace rho and a Hermitian
    generator of the same dimension; only rho is checked.

    The eigenvectors of rho come from its own direct-sum blocks.  <k|A|j>
    vanishes unless some entry of A joins the blocks P and Q of k and j, so
    only those block pairs are read, as V_P^dagger A_PQ V_Q with A_PQ
    gathered from A's entries, batched over the pairs of one shape.
    """
    n = rho.dim
    blocks = linalg.direct_sum_blocks(rho)
    eigs = [linalg.eig_hermitian(stack) for _, stack in blocks]
    evals = np.concatenate([lam.ravel() for lam, _ in eigs])
    if evals.min() < -1e-9 or abs(float(evals.sum()) - 1.0) > 1e-9:
        raise InputError("rho must be positive semidefinite with unit trace")
    lams = [np.maximum(lam, 0.0) for lam, _ in eigs]
    adjoints = [vecs.conj().swapaxes(-1, -2) for _, vecs in eigs]
    # every index's row in its block, and the key parts of its block as the
    # row (P) and as the column (Q) of a block pair; pairs sort by the size
    # groups of P and Q, then by P and Q within their groups
    groups = len(blocks)
    position, as_p, as_q = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n, np.intp)
    for g, (index, _) in enumerate(blocks):
        k, s = index.shape
        position[index] = np.arange(s)
        as_q[index] = np.arange(g * n * n, g * n * n + k)[:, None]
        as_p[index] = np.arange(g * groups * n * n, g * groups * n * n + k * n, n)[:, None]
    pairs, pair_of_entry = np.unique(as_p.take(gen.rows) + as_q.take(gen.cols), return_inverse=True)
    shape, p_blocks, q_blocks = pairs // (n * n), pairs // n % n, pairs % n
    sizes = np.array([index.shape[1] for index, _ in blocks])
    size_q = sizes[shape % groups]
    # A_PQ of every pair, one after another in one flat buffer
    flat_len = sizes[shape // groups] * size_q
    flat_start = flat_len.cumsum() - flat_len
    buffer = np.zeros(flat_len.sum(), dtype=np.result_type(gen.vals, rho.vals))
    buffer[flat_start[pair_of_entry] + position.take(gen.rows) * size_q[pair_of_entry] + position.take(gen.cols)] = gen.vals
    bounds = [0, *((shape[1:] != shape[:-1]).nonzero()[0] + 1).tolist(), shape.size] if shape.size else []
    total = 0.0
    for start, stop in zip(bounds, bounds[1:]):
        gp, gq = divmod(int(shape[start]), groups)
        sp, sq = int(sizes[gp]), int(sizes[gq])
        # one block can pair with many others, so the pairs go in runs whose
        # gathered eigenvector blocks hold at most linalg.ENTRY_RUN entries
        run = max(1, linalg.ENTRY_RUN // (sp * sp + sq * sq))
        for lo in range(start, stop, run):
            hi = min(lo + run, stop)
            p, q = p_blocks[lo:hi], q_blocks[lo:hi]
            a_pq = buffer[flat_start[lo] : flat_start[lo] + (hi - lo) * sp * sq].reshape(-1, sp, sq)
            a_squared = np.abs(adjoints[gp][p] @ a_pq @ eigs[gq][1][q])
            a_squared **= 2
            lam_p, lam_q = lams[gp][p][:, :, None], lams[gq][q][:, None, :]
            lam_sum = lam_p + lam_q
            weights = lam_p - lam_q
            weights **= 2
            # kernel pairs divide by the floor and then count zero
            weights /= np.maximum(lam_sum, FISHER_PAIR_SKIP)
            weights *= lam_sum > FISHER_PAIR_SKIP
            total += float(np.vdot(weights, a_squared))
    return 2.0 * total


def fisher(cfg: BlockConfig, p, generator="block-x"):
    """Fisher information of the decohered state for a named generator."""
    rho = decohered_cghz(cfg, p)
    if generator == "block-x":
        gen = block_x_generator(cfg)
    elif generator == "single-z":
        gen = single_z_generator(cfg.qubits)
    else:
        raise InputError(f"unknown generator {generator!r}")
    return _fisher(rho, gen)


def distill_protocol_outcomes(cfg: BlockConfig, p):
    """(outcome, probability, corrected fidelity) for every measurement record, from one projected state.

    Projects every block onto the logical span, measures blocks 2..N-1 in
    the logical basis, applies the parity correction (a logical bit flip on
    block 0 when the record has odd parity), and takes the overlap of blocks
    0 and 1 with (|0_L 0_L> + |1_L 1_L>)/sqrt2.
    """
    if cfg.N < 2:
        raise InputError(f"protocol needs N >= 2, got N={cfg.N}")
    # the protocol builds the 2^N x 2^N projected state, one qubit per block
    linalg.check_qubit_budget(cfg.N, what="projected protocol state")

    # projecting every block onto span{|0_L>, |1_L>} keeps the 2 x 2 corners (0...0, 1...1) of every
    # B_ab, and the channel acts qubit by qubit: corner (c, d) of B_ab is E(|a><b|)_cd to the m-th power,
    # so the projected block is a one-qubit block whose table is W1 to the m-th power
    table = _one_qubit(p) ** cfg.m
    underflow = f"protocol at N={cfg.N}, m={cfg.m}, p={p}: the projected state underflows"
    if not table.any():
        raise ResourceLimitError(f"{underflow} to zero")
    rho = _even_string_sum(table, 1, cfg.N)

    # the kept blocks 0 and 1 lead the index, as (kept pair, record); the
    # measured logical states are basis vectors, so the state conditioned on
    # a record holds the entries whose row and column both carry that record
    dm = 2 ** (cfg.N - 2)
    kept_row, record = np.divmod(rho.rows, dm)
    kept_col, record_col = np.divmod(rho.cols, dm)
    inside = record == record_col
    # by record parity, the kept pair of (|0_L 0_L>, |1_L 1_L>) is {0, 3}, whose
    # two bits agree, or after the logical bit flip on block 0 {2, 1}, whose bits differ
    parity = linalg.popcount(record, cfg.N - 2) & 1
    in_pair = (((kept_row ^ (kept_row >> 1)) & 1) == parity) & (((kept_col ^ (kept_col >> 1)) & 1) == parity)
    trace = inside & (kept_row == kept_col)
    norms = np.bincount(record[trace], rho.vals[trace], minlength=dm)
    overlaps = np.bincount(record[inside & in_pair], rho.vals[inside & in_pair], minlength=dm)
    weight = float(np.sum(norms))
    if weight < sys.float_info.min:
        raise ResourceLimitError(f"{underflow}: its trace is {weight!r}")
    records = []
    for outcome, norm, overlap in zip(product((0, 1), repeat=cfg.N - 2), norms.tolist(), overlaps.tolist()):
        prob = norm / weight
        fid = overlap / (2 * norm) if prob > 1e-14 else float("nan")
        records.append((outcome, prob, fid))
    return records


def distill_protocol_average(cfg: BlockConfig, p):
    """Outcome-probability-weighted fidelity; equals the closed-form fidelity."""
    records = distill_protocol_outcomes(cfg, p)
    live = [(prob, fid) for _, prob, fid in records if prob > 1e-14]
    total = math.fsum(prob for prob, _ in live)
    return math.fsum(prob * fid for prob, fid in live) / total
