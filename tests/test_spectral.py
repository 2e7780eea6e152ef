import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cghz import linalg, oracle
from cghz.channels import depolarize_all
from cghz.errors import InputError, ResourceLimitError
from cghz.spectral import (
    cghz_spectrum,
    cramer_rao_bound,
    doublet_algebra,
    doublet_count,
    fisher_information,
    negativity,
)
from cghz.states import BlockConfig, ghz

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def doublet_representative(k, m):
    """Canonical member of the doublet {k, ~k}: lower Hamming weight, ties by lower integer."""
    comp = (~k) & ((1 << m) - 1)
    wk, wc = bin(k).count("1"), bin(comp).count("1")
    if wk != wc:
        return k if wk < wc else comp
    return min(k, comp)


def dense_cross_operator(m, a, b, p):
    op = np.outer(ghz(m, a), ghz(m, b).conj())
    return depolarize_all(op, p)


def restriction(alg, w, a, b):
    """2x2 restriction of E^(x)m |GHZ^a><GHZ^b| to a class-w doublet, from the (s, t, q) table.

    Same-sign channels act as s_w on both members, cross channels as +t_w on
    the lighter member and -t_w on its complement; only the logical (w = 0)
    doublet carries the coherence q, as b q/2 above and a q/2 below the
    diagonal.
    """
    s, t = alg.s[w], alg.t[w]
    diag = (s, s) if a == b else (t, -t)
    off = alg.q / 2 if w == 0 else 0.0
    return np.array([[diag[0], b * off], [a * off, diag[1]]], dtype=complex)


class TestDoubletAlgebra:
    def test_multiplicities(self):
        for m in range(1, 9):
            alg = doublet_algebra(m, 0.9)
            total = sum(alg.counts)
            assert total == 2 ** (m - 1)
            assert alg.counts[0] == 1
            if m % 2 == 0:
                assert alg.counts[m // 2] == math.comb(m, m // 2) // 2

    def test_noiseless_blocks(self):
        alg = doublet_algebra(3, 1.0)
        # w = 0 same-sign block is the pure GHZ projector restricted to the doublet
        np.testing.assert_allclose(
            restriction(alg, 0, 1, 1), np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-14
        )
        for w in range(1, len(alg.s)):
            for a, b in SIGNS:
                np.testing.assert_allclose(restriction(alg, w, a, b), 0, atol=1e-14)

    def test_m1_reproduces_channel_action(self):
        p = 0.7
        alg = doublet_algebra(1, p)
        for a, b in SIGNS:
            dense = dense_cross_operator(1, a, b, p)
            np.testing.assert_allclose(restriction(alg, 0, a, b), dense, atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_matches_dense_on_every_doublet(self, m, p):
        alg = doublet_algebra(m, p)
        for a, b in SIGNS:
            dense = dense_cross_operator(m, a, b, p)
            seen = set()
            for k in range(2**m):
                rep = doublet_representative(k, m)
                if rep in seen:
                    continue
                seen.add(rep)
                comp = (~rep) & (2**m - 1)
                w = min(bin(rep).count("1"), bin(comp).count("1"))
                blk = restriction(alg, w, a, b)
                got = np.array(
                    [
                        [dense[rep, rep], dense[rep, comp]],
                        [dense[comp, rep], dense[comp, comp]],
                    ]
                )
                np.testing.assert_allclose(got, blk, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_no_cross_doublet_elements(self, m):
        for a, b in SIGNS:
            dense = dense_cross_operator(m, a, b, 0.9)
            for i in range(2**m):
                for j in range(2**m):
                    same = doublet_representative(i, m) == doublet_representative(j, m)
                    if not same:
                        assert abs(dense[i, j]) < 1e-13

    def test_same_sign_traces_sum_to_one(self):
        for m in (1, 2, 3, 5):
            alg = doublet_algebra(m, 0.6)
            for pair in ((1, 1), (-1, -1)):
                total = sum(
                    count * np.trace(restriction(alg, w, *pair)).real
                    for w, count in enumerate(alg.counts)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_coherence_confined_to_logical_doublet(self):
        m = 4
        alg = doublet_algebra(m, 0.8)
        for w in range(1, len(alg.s)):
            for pair in ((1, -1), (-1, 1)):
                assert abs(restriction(alg, w, *pair)[0, 1]) < 1e-15
                assert abs(restriction(alg, w, *pair)[1, 0]) < 1e-15
        # the dense cross operator agrees: its only in-doublet coherence is logical
        for pair in ((1, -1), (-1, 1)):
            dense = dense_cross_operator(m, *pair, 0.8)
            for k in range(1, 2**m - 1):
                assert abs(dense[k, (~k) & (2**m - 1)]) < 1e-15


class TestSpectrum:
    def test_pure_state(self):
        spec = cghz_spectrum(BlockConfig(3, 2), 1.0)
        ones = np.abs(spec.eigenvalues - 1.0) < 1e-12
        assert sum(spec.multiplicities[ones]) == 1
        assert spec.weighted_sum() == pytest.approx(1.0, abs=1e-12)

    def test_fully_mixed(self):
        cfg = BlockConfig(2, 2)
        spec = cghz_spectrum(cfg, 0.0)
        for eigenvalue in spec.eigenvalues:
            assert eigenvalue == pytest.approx(2.0**-4, abs=1e-15)
        assert spec.multiplicity_total() == 2**4

    @pytest.mark.parametrize(
        "cfg", [BlockConfig(2, 2), BlockConfig(3, 2), BlockConfig(2, 3), BlockConfig(5, 1)]
    )
    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_matches_dense_oracle(self, cfg, p):
        spec = cghz_spectrum(cfg, p)
        assert spec.multiplicity_total() == 2**cfg.qubits
        np.testing.assert_allclose(spec.expanded(), oracle.spectrum(cfg, p), atol=1e-10)

    def test_exact_multiplicity_bookkeeping(self):
        # multiplicities stay exact integers well past native word sizes
        cfg = BlockConfig(40, 6)
        spec = cghz_spectrum(cfg, 0.9)
        assert spec.multiplicity_total() == 2**240
        assert all(type(k) is int for k in spec.multiplicities)
        assert spec.weighted_sum() == pytest.approx(1.0, abs=1e-10)
        assert min(spec.eigenvalues) > -1e-12

    def test_sector_cap(self):
        with pytest.raises(ResourceLimitError, match="sectors"):
            cghz_spectrum(BlockConfig(64, 8), 0.9, max_sectors=1000)

    @pytest.mark.parametrize("n_blocks", [2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_normalization_beyond_dense_reach(self, n_blocks, m, p):
        spec = cghz_spectrum(BlockConfig(n_blocks, m), p)
        assert spec.multiplicity_total() == 2 ** (n_blocks * m)
        assert spec.weighted_sum() == pytest.approx(1.0, abs=1e-10)
        assert min(spec.eigenvalues) > -1e-12


class TestNegativity:
    @pytest.mark.parametrize("cfg", [BlockConfig(2, 1), BlockConfig(2, 2), BlockConfig(4, 3)])
    def test_initial_value_half(self, cfg):
        assert negativity(cfg, 1.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("cfg", [BlockConfig(2, 2), BlockConfig(3, 1)])
    def test_fully_mixed_is_ppt(self, cfg):
        assert negativity(cfg, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_bell_closed_form(self):
        # two single-qubit blocks: negativity max(0, (3p^2-1)/4)
        for p in (0.3, 0.6, 0.9):
            expected = max(0.0, (3 * p * p - 1) / 4)
            assert negativity(BlockConfig(2, 1), p) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [BlockConfig(2, 2), BlockConfig(3, 2), BlockConfig(2, 3), BlockConfig(4, 2), BlockConfig(3, 3)],
    )
    @pytest.mark.parametrize("p", [0.3, 0.7, 0.9])
    def test_matches_dense_oracle(self, cfg, p):
        assert negativity(cfg, p) == pytest.approx(oracle.negativity(cfg, p), abs=1e-9)

    def test_single_block_has_no_entanglement(self):
        assert negativity(BlockConfig(1, 3), 0.9) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_strictly_decreasing_in_system_size(self, m):
        vals = [negativity(BlockConfig(n, m), 0.9) for n in range(2, 21)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_m3_rises_then_decays(self):
        # at m = 3 the negativity first grows with N (oracle-confirmed at
        # N = 2, 3) and only decays past N ~ 6; the exponential-decay regime
        # used for tail fits starts there
        vals = [negativity(BlockConfig(n, 3), 0.9) for n in range(2, 21)]
        assert vals[1] > vals[0]
        tail = vals[4:]  # N = 6..20
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_decay_rate_decreases_with_block_size(self):
        from cghz.analytic import fit_exponential_tail

        rates = []
        for m in (1, 2, 3):
            pts = [(n, negativity(BlockConfig(n, m), 0.9)) for n in range(6, 21)]
            rates.append(fit_exponential_tail(pts, window=(6, 20)).rate)
        assert rates[0] > rates[1] > rates[2]


class TestFisher:
    @pytest.mark.parametrize("cfg", [BlockConfig(2, 2), BlockConfig(4, 1), BlockConfig(3, 3)])
    def test_pure_state_heisenberg(self, cfg):
        assert fisher_information(cfg, 1.0) == pytest.approx(4 * cfg.N**2, rel=1e-12)

    def test_fully_mixed_vanishes(self):
        assert fisher_information(BlockConfig(3, 2), 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "cfg", [BlockConfig(2, 1), BlockConfig(2, 2), BlockConfig(3, 2), BlockConfig(2, 3)]
    )
    @pytest.mark.parametrize("p", [0.7, 0.9])
    def test_matches_dense_oracle(self, cfg, p):
        spectral_val = fisher_information(cfg, p)
        dense_val = oracle.fisher(cfg, p)
        assert spectral_val == pytest.approx(dense_val, abs=1e-8)

    @pytest.mark.parametrize(
        "cfg",
        [
            BlockConfig(2, 1),
            BlockConfig(3, 1),
            BlockConfig(4, 1),
            BlockConfig(5, 1),
            BlockConfig(2, 2),
            BlockConfig(3, 2),
            BlockConfig(4, 2),
            BlockConfig(2, 3),
            BlockConfig(3, 3),
            BlockConfig(2, 4),
        ],
    )
    @pytest.mark.parametrize("p", [0.4, 0.7, 0.9, 1.0])
    def test_single_z_matches_dense_oracle(self, cfg, p):
        spectral_val = fisher_information(cfg, p, generator="single-z")
        dense_val = oracle.fisher(cfg, p, generator="single-z")
        assert spectral_val == pytest.approx(dense_val, abs=1e-8)

    def test_basis_change_maps_block_x_to_ghz_single_z(self):
        # at m=1 the block generator is sum sigma_x; conjugating state and
        # generator by the per-qubit Hadamard gives the GHZ phase setting
        cfg = BlockConfig(3, 1)
        p = 0.9
        rho = oracle.decohered_cghz(cfg, p)
        h = linalg.kron_all([np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 3)
        rho_z_basis = h @ rho @ h.conj().T
        f_x = oracle.fisher_dense(rho, oracle.block_x_generator(cfg))
        f_z = oracle.fisher_dense(rho_z_basis, oracle.single_z_generator(3))
        assert f_x == pytest.approx(f_z, rel=1e-10)
        assert fisher_information(cfg, p) == pytest.approx(f_x, abs=1e-8)

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            fisher_information(BlockConfig(2, 1), 0.9, generator="nope")

    def test_stays_above_standard_quantum_limit(self):
        # at p = 0.9 a block size m <= 7 keeps F > N for every N <= 50
        m = 7
        for n_blocks in range(2, 51):
            f = fisher_information(BlockConfig(n_blocks, m), 0.9)
            assert f > n_blocks


class TestCramerRao:
    def test_heisenberg_value(self):
        assert cramer_rao_bound(4 * 10**2, 1) == pytest.approx(0.05)

    def test_sql_value(self):
        assert cramer_rao_bound(100, 1) == pytest.approx(0.1)

    def test_repetition_scaling(self):
        assert cramer_rao_bound(7.0, 2) == pytest.approx(cramer_rao_bound(7.0, 1) / math.sqrt(2))

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            cramer_rao_bound(0.0, 1)


def test_doublet_count_totals():
    for m in range(1, 10):
        assert sum(doublet_count(m, w) for w in range(m // 2 + 1)) == 2 ** (m - 1)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_engine_tracks_oracle_at_arbitrary_noise(shape, p):
    cfg = BlockConfig(*shape)
    spec = cghz_spectrum(cfg, p)
    np.testing.assert_allclose(spec.expanded(), oracle.spectrum(cfg, p), atol=1e-10)
    assert negativity(cfg, p) == pytest.approx(oracle.negativity(cfg, p), abs=1e-9)
    assert fisher_information(cfg, p) == pytest.approx(oracle.fisher(cfg, p), abs=1e-8)
