import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cghz import analytic, linalg, oracle
from cghz.channels import depolarize_all
from cghz.errors import InputError, ResourceLimitError
from cghz.states import BlockConfig, cghz, ghz, random_orthogonal_pair


class TestDecoheredCghz:
    def test_noiseless_is_pure_projector(self):
        cfg = BlockConfig(2, 2)
        psi = cghz(cfg)
        rho = oracle.decohered_cghz(cfg, 1.0)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-14)

    def test_full_noise_is_maximally_mixed(self):
        cfg = BlockConfig(2, 2)
        rho = oracle.decohered_cghz(cfg, 0.0)
        np.testing.assert_allclose(rho, np.eye(16) / 16, atol=1e-14)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_density_operator_properties(self, p):
        rho = oracle.decohered_cghz(BlockConfig(3, 2), p)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.decohered_cghz(BlockConfig(7, 2), 0.9)


def literal_decohered_cghz(cfg, p):
    """Reference: the channel on every qubit of |psi><psi|, with psi from states.cghz."""
    psi = cghz(cfg)
    return depolarize_all(np.outer(psi, psi), p)


def literal_decohered_coherence(cfg, p):
    """Reference: the N-block cross operator built first, then the channel on every qubit."""
    return depolarize_all(linalg.kron_all([np.outer(ghz(cfg.m, +1), ghz(cfg.m, -1))] * cfg.N), p)


SMALL_SHAPES = [(n, m) for m in range(1, 9) for n in range(1, 8 // m + 1)]
DYADIC_P = st.integers(0, 64).map(lambda k: k / 64)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), DYADIC_P)
@example((1, 1), 0.0)
@example((8, 1), 1.0)
@example((2, 4), 1.0)
@example((4, 2), 0.0)
def test_block_assembly_matches_the_literal_state(shape, p):
    cfg = BlockConfig(*shape)
    rho = oracle.decohered_cghz(cfg, p)
    ref = literal_decohered_cghz(cfg, p)
    assert rho.shape == ref.shape and rho.dtype == ref.dtype == np.float64
    # every term is non-negative, so both have the same exact zeros
    assert np.array_equal(rho != 0, ref != 0)
    assert np.all(np.abs(rho - ref) <= 4e-15 * np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), DYADIC_P)
@example((1, 3), 0.5)
@example((8, 1), 1.0)
def test_coherence_kronecker_power_matches_the_literal_operator(shape, p):
    # values only: entries that vanish exactly need not come out as exact
    # zeros in either form
    cfg = BlockConfig(*shape)
    op = oracle.decohered_coherence(cfg, p)
    np.testing.assert_allclose(op, literal_decohered_coherence(cfg, p), rtol=0, atol=1e-15)


class TestDecoheredCoherence:
    @pytest.mark.parametrize("cfg", [BlockConfig(1, 2), BlockConfig(2, 2), BlockConfig(3, 1)])
    def test_traceless(self, cfg):
        op = oracle.decohered_coherence(cfg, 0.8)
        assert abs(np.trace(op)) < 1e-13

    def test_single_qubit_norm(self):
        assert oracle.coherence_norm(BlockConfig(1, 1), 0.9) == pytest.approx(0.9, abs=1e-12)

    def test_trace_norm_factorizes(self):
        one = oracle.coherence_norm(BlockConfig(1, 2), 0.8)
        two = oracle.coherence_norm(BlockConfig(2, 2), 0.8)
        assert two == pytest.approx(one**2, abs=1e-10)


class TestGenericCoherenceNorm:
    def test_ghz_pair_reproduces_block_norm(self):
        for m, p in [(1, 0.9), (2, 0.9), (3, 0.7)]:
            val = oracle.generic_coherence_norm(ghz(m, +1), ghz(m, -1), p)
            assert val == pytest.approx(analytic.coherence_norm_block(m, p), abs=1e-12)

    def test_computational_pair_decays_like_p_to_m(self):
        m, p = 3, 0.8
        zero = np.zeros(2**m, dtype=complex)
        zero[0] = 1.0
        one = np.zeros(2**m, dtype=complex)
        one[-1] = 1.0
        assert oracle.generic_coherence_norm(zero, one, p) == pytest.approx(p**m, abs=1e-12)

    def test_noiseless_any_pair(self):
        a, b = random_orthogonal_pair(3, 17)
        assert oracle.generic_coherence_norm(a, b, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            oracle.generic_coherence_norm(np.ones(4) / 2, np.ones(8) / np.sqrt(8), 0.9)

    def test_block_cap(self):
        a = np.zeros(2**7, dtype=complex)
        a[0] = 1.0
        b = np.zeros(2**7, dtype=complex)
        b[1] = 1.0
        with pytest.raises(ResourceLimitError):
            oracle.generic_coherence_norm(a, b, 0.9)


class TestFisherDense:
    def test_pure_state_is_four_times_variance(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gen = g + g.conj().T
        var = (v.conj() @ gen @ gen @ v - (v.conj() @ gen @ v) ** 2).real
        assert oracle.fisher_dense(rho, gen) == pytest.approx(4 * var, rel=1e-10)

    def test_maximally_mixed_vanishes(self):
        gen = oracle.single_z_generator(3)
        assert oracle.fisher_dense(np.eye(8) / 8, gen) == pytest.approx(0.0, abs=1e-12)

    def test_pure_cghz_block_generator(self):
        cfg = BlockConfig(2, 2)
        rho = oracle.decohered_cghz(cfg, 1.0)
        assert oracle.fisher_dense(rho, oracle.block_x_generator(cfg)) == pytest.approx(16.0, rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            oracle.fisher_dense(np.eye(4) / 4, np.eye(8))

    def test_rejects_invalid_state(self):
        with pytest.raises(InputError):
            oracle.fisher_dense(np.eye(4), np.eye(4))

    def test_rejects_non_hermitian_generator(self):
        gen = np.zeros((4, 4), dtype=complex)
        gen[0, 1] = 1.0  # no conjugate partner below the diagonal
        with pytest.raises(InputError, match="not Hermitian"):
            oracle.fisher_dense(np.eye(4) / 4, gen)
        gen[1, 0] = 1.0 + 1e-9j  # Hermitian but for an imaginary part above the tolerance
        with pytest.raises(InputError, match="not Hermitian"):
            oracle.fisher_dense(np.eye(4) / 4, gen)


class TestDistillProtocol:
    def test_noiseless_every_outcome(self):
        for _, prob, fid in oracle.distill_protocol_outcomes(BlockConfig(3, 2), 1.0):
            assert prob > 0
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_two_blocks_single_qubit(self):
        [(_, _, fid)] = oracle.distill_protocol_outcomes(BlockConfig(2, 1), 0.9)
        assert fid == pytest.approx(0.8575, abs=1e-12)

    @pytest.mark.parametrize("cfg", [BlockConfig(3, 2), BlockConfig(4, 1), BlockConfig(3, 3)])
    @pytest.mark.parametrize("p", [0.7, 0.9])
    def test_average_matches_closed_form(self, cfg, p):
        avg = oracle.distill_protocol_average(cfg, p)
        assert avg == pytest.approx(analytic.distill_fidelity(cfg, p), abs=1e-9)

    def test_probabilities_sum_to_one(self):
        records = oracle.distill_protocol_outcomes(BlockConfig(4, 2), 0.7)
        assert sum(prob for _, prob, _ in records) == pytest.approx(1.0, abs=1e-10)

    def test_every_corrected_outcome_equals_the_average(self):
        # the parity correction makes the fidelity outcome independent
        records = oracle.distill_protocol_outcomes(BlockConfig(4, 2), 0.9)
        fids = [fid for _, _, fid in records]
        assert max(fids) - min(fids) < 1e-10

    def test_kept_pair_choice_is_irrelevant(self):
        cfg = BlockConfig(4, 2)
        base = oracle.distill_protocol_average(cfg, 0.8, kept_pair=(0, 1))
        for pair in [(0, 3), (1, 2), (2, 3)]:
            assert oracle.distill_protocol_average(cfg, 0.8, kept_pair=pair) == pytest.approx(
                base, abs=1e-10
            )

    @pytest.mark.parametrize(
        "shape, kept_pair", [((2, 1), (0, 1)), ((3, 2), (2, 0)), ((4, 2), (1, 3)), ((3, 3), (0, 2))]
    )
    def test_records_match_the_literal_projection(self, shape, kept_pair):
        # reference: mask the full state to the logical span of every block,
        # then condition on each record by summing over the measured blocks
        cfg, p = BlockConfig(*shape), 0.8
        dim_b = 2**cfg.m
        keep = np.zeros(dim_b)
        keep[[0, -1]] = 1.0
        mask = linalg.kron_all([keep[None, :]] * cfg.N).ravel()
        rho = literal_decohered_cghz(cfg, p) * np.outer(mask, mask)
        t = rho.reshape((dim_b,) * (2 * cfg.N))
        measured = [b for b in range(cfg.N) if b not in kept_pair]
        records = oracle.distill_protocol_outcomes(cfg, p, kept_pair)
        assert [outcome for outcome, _, _ in records] == list(product((0, 1), repeat=cfg.N - 2))
        for outcome, prob, fid in records:
            index = [slice(None)] * (2 * cfg.N)
            for b, bit in zip(measured, outcome):
                index[b] = index[cfg.N + b] = dim_b - 1 if bit else 0
            # the kept pair in ascending block order; on odd parity the first kept
            # block is flipped, so the Bell pair reads (|1_L 0_L>, |0_L 1_L>)
            cond = t[tuple(index)].reshape(dim_b**2, dim_b**2)
            bell = [(dim_b - 1) * dim_b, dim_b - 1] if sum(outcome) % 2 else [0, dim_b**2 - 1]
            assert prob == pytest.approx(np.trace(cond) / np.trace(rho), rel=1e-13)
            assert fid == pytest.approx(cond[np.ix_(bell, bell)].sum() / (2 * np.trace(cond)), rel=1e-13)

    def test_requires_two_blocks(self):
        with pytest.raises(InputError):
            oracle.distill_protocol_outcomes(BlockConfig(1, 2), 0.9)


def kronecker_single_z(n_qubits):
    """Reference sum_j I (x) .. (x) Z_j (x) .. (x) I built from dense Kronecker products."""
    total = np.zeros((2**n_qubits, 2**n_qubits))
    for j in range(n_qubits):
        total += linalg.kron_all([np.eye(2**j), linalg.PAULI_Z.real, np.eye(2 ** (n_qubits - 1 - j))])
    return total


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_single_z_generator_is_the_kronecker_sum(n_qubits):
    gen = oracle.single_z_generator(n_qubits)
    assert gen.dtype == np.float64
    assert np.array_equal(gen, kronecker_single_z(n_qubits))


def kronecker_block_x(cfg):
    """Reference sum_k I (x) .. (x) X^(x)m on block k (x) .. (x) I built from dense Kronecker products."""
    xm = linalg.kron_all([linalg.PAULI_X.real] * cfg.m)
    total = np.zeros((2**cfg.qubits, 2**cfg.qubits))
    for k in range(cfg.N):
        total += linalg.kron_all([np.eye(2 ** (cfg.m * k)), xm, np.eye(2 ** (cfg.m * (cfg.N - 1 - k)))])
    return total


@pytest.mark.parametrize(
    "cfg", [BlockConfig(n, m) for m in range(1, 5) for n in range(1, 9 // m + 1)] + [BlockConfig(5, 2)], ids=lambda c: f"N{c.N}-m{c.m}"
)
def test_block_x_generator_is_the_kronecker_sum(cfg):
    gen = oracle.block_x_generator(cfg)
    assert gen.dtype == np.float64
    assert np.array_equal(gen, kronecker_block_x(cfg))


def test_single_z_fisher_unchanged_by_the_diagonal_generator():
    cfg = BlockConfig(3, 2)
    rho = oracle.decohered_cghz(cfg, 0.8)
    assert oracle.fisher(cfg, 0.8, generator="single-z") == oracle.fisher_dense(rho, kronecker_single_z(6))


def test_negativity_of_a_ppt_state_is_positive_zero():
    # a nearly fully mixed state is PPT: no negative eigenvalue, and the
    # empty sum must not come out as -0.0
    value = oracle.negativity(BlockConfig(3, 2), 1e-300)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_generators_are_hermitian():
    cfg = BlockConfig(2, 2)
    for gen in (oracle.block_x_generator(cfg), oracle.single_z_generator(4)):
        assert np.max(np.abs(gen - gen.conj().T)) == 0.0
