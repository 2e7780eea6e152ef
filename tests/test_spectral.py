import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cghz import linalg, oracle, spectral
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
from fisher_reference import fisher_dense

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

    def test_trace_past_the_float_range(self):
        # multiplicities reach 2^1099 here; converting them to float raised OverflowError
        spec = cghz_spectrum(BlockConfig(1100, 1), 0.9)
        assert spec.multiplicity_total() == 2**1100
        assert spec.weighted_sum() == pytest.approx(1.0, abs=1e-12)  # the float eigenvalues sum to 1 - 6e-14

    def test_sector_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_SECTOR_CAP", 1000)
        with pytest.raises(ResourceLimitError, match="sectors"):
            cghz_spectrum(BlockConfig(64, 8), 0.9)

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

    def test_strong_noise_raises_no_warning(self):
        # S/T overflows to inf in most sectors here; the per-pair walk warned, an error under the test settings
        assert negativity(BlockConfig(300, 3), 0.01) == 0.0

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
        rho_dense = np.zeros((rho.dim, rho.dim))
        rho_dense[rho.rows, rho.cols] = rho.vals
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h = np.kron(np.kron(hadamard, hadamard), hadamard)
        rho_z_basis = linalg.sparse(h @ rho_dense @ h.conj().T)
        f_x = fisher_dense(rho, oracle.block_x_generator(cfg))
        f_z = fisher_dense(rho_z_basis, oracle.single_z_generator(3))
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


DBL_MAX = np.finfo(float).max


@st.composite
def adversarial_terms(draw):
    """Float64 terms on both sides of the fsum crossover: mixed signs, cancellation, subnormals, ties, specials."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 3 * spectral._FSUM_TERMS))
    lo = draw(st.integers(-1073, 1024))
    exponents = rng.integers(lo, draw(st.integers(lo, 1024)) + 1, size)
    terms = np.ldexp(rng.integers(2**52, 2**53, size) / 2.0**53, exponents)  # |x| from 2^-1074 to DBL_MAX
    terms[rng.random(size) < draw(st.floats(0.0, 1.0))] *= -1.0
    if draw(st.booleans()):  # cancel a random share of the terms exactly, down to an exact zero
        terms = np.concatenate((terms, -terms[rng.random(size) < draw(st.sampled_from([0.5, 1.0]))]))
    if draw(st.booleans()):  # a float plus pieces that sum to half its ulp: a tie, or a nudge off it
        x = float(np.ldexp(rng.integers(2**52, 2**53) / 2.0**53, rng.integers(-1000, 1000)))
        k = 2 ** draw(st.integers(0, 12))
        nudge = draw(st.sampled_from([0.0, 5e-324, -5e-324]))
        terms = np.concatenate((terms, [x, nudge], np.full(k, math.ulp(x) / 2 / k)))
    specials = draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2))
    terms = np.insert(terms, rng.integers(0, terms.size + 1, len(specials)), specials)
    return rng.permutation(terms) if draw(st.booleans()) else terms


def sum_outcome(add, blocks):
    """The .hex() of the sum, or the name of the exception it raises."""
    try:
        return add(blocks).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def split_at_random(terms, rng):
    return np.split(terms, np.sort(rng.integers(0, terms.size + 1, rng.integers(0, 12))))


@settings(max_examples=200, deadline=None)
@given(adversarial_terms(), st.integers(0, 2**32 - 1))
@example(np.full(4096, 2.0**1020), 0)  # the exact sum overflows
@example(np.array([DBL_MAX, DBL_MAX, -DBL_MAX]), 0)  # a partial sum overflows
@example(np.concatenate(([DBL_MAX, DBL_MAX, -DBL_MAX], np.ones(4096))), 0)
@example(np.full(5000, 5e-324), 0)  # a subnormal sum
@example(np.full(3000, -0.0), 0)
@example(np.zeros(3000), 0)
@example(np.concatenate((np.ones(3000), [math.inf, -math.inf])), 0)
@example(np.concatenate(([math.inf], np.ones(2 * spectral._CHUNK), [-math.inf])), 0)  # in different chunks
def test_exact_sum_is_fsum_bit_for_bit(terms, seed):
    # compared with the running interpreter's fsum: its sign of an exact zero differs between versions
    blocks = split_at_random(terms, np.random.default_rng(seed))
    want = sum_outcome(math.fsum, terms.tolist())
    assert sum_outcome(lambda b: spectral._exact_sum(lambda: b), blocks) == want
    bucket = spectral._bucket_sum(iter(blocks))
    if bucket is not None:
        assert bucket.hex() == want
    elif np.isfinite(terms).all() and np.abs(terms).max(initial=0.0) < 2.0**1000:
        assert want in ("0x0.0p+0", "-0x0.0p+0")  # far from overflow only a zero sum is left to fsum


@pytest.mark.parametrize("exponent", [-1070, -300, 0, 900])
def test_bucket_sum_flushes_exactly(monkeypatch, exponent):
    # no real call reaches 2^26 terms cheaply: flush every 32 terms, in chunks of 8, from blocks of any size
    monkeypatch.setattr(spectral, "_CHUNK", 8)
    monkeypatch.setattr(spectral, "_FLUSH", 32)
    rng = np.random.default_rng(exponent + 2000)
    terms = np.ldexp(rng.standard_normal(3000), rng.integers(exponent, exponent + 60, 3000))
    blocks = split_at_random(terms, rng)
    assert spectral._exact_sum(lambda: blocks).hex() == math.fsum(terms.tolist()).hex()
    assert spectral._bucket_sum(iter(blocks)).hex() == math.fsum(terms.tolist()).hex()
    terms[rng.integers(0, 100)] = math.inf  # a non-finite term in an early chunk ends the bucket pass
    assert spectral._exact_sum(lambda: split_at_random(terms, rng)) == math.inf


def test_single_z_fisher_sums_as_it_goes():
    # its 1.19M terms would take 9.1 MB as one float64 array
    tracemalloc.start()
    try:
        fisher_information(BlockConfig(60, 7), 0.9, generator="single-z")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


NEAR_ONE = 1 - 2.0**-38

# (N, m, p, negativity, block-x Fisher, single-z Fisher, spectrum digest) with the values as float.hex
PINNED = [
    (1, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "be5fa4f5626791b4"),
    (1, 1, 0.5, "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "6a9984afbba0cc53"),
    (1, 1, 0.8125, "0x0.0p+0", "0x1.5200000000000p+1", "0x0.0p+0", "87f7390e28a24cdb"),
    (1, 1, 0.9, "0x0.0p+0", "0x1.9eb851eb851eap+1", "0x0.0p+0", "4cc9422707e595fd"),
    (1, 1, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "3e1d86a404cf5834"),
    (1, 1, NEAR_ONE, "0x0.0p+0", "0x1.fffffffff0000p+1", "0x0.0p+0", "10dc9709d243428d"),
    (2, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "3a9f4929272e0135"),
    (2, 1, 0.5, "0x0.0p+0", "0x1.999999999999bp+0", "0x1.999999999999ap+0", "e28d413d24a2ec2c"),
    (2, 1, 0.8125, "0x1.f600000000000p-3", "0x1.0ccf359c0268ep+3", "0x1.0ccf359c0268dp+3", "631e918d696f9258"),
    (2, 1, 0.9, "0x1.6e147ae147ae0p-2", "0x1.732f9448306d6p+3", "0x1.732f9448306d8p+3", "93b831630fe89704"),
    (2, 1, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.0000000000000p+4", "b9beefa4aa929df0"),
    (2, 1, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.ffffffffe8002p+3", "0x1.ffffffffe8000p+3", "56cda40e6cc03018"),
    (3, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "e2ba9b6541aed239"),
    (3, 1, 0.5, "0x0.0p+0", "0x1.4924924924929p+0", "0x1.5000000000003p+0", "08e762fc1354df7b"),
    (3, 1, 0.8125, "0x1.ce40000000000p-3", "0x1.bccdaccaa7168p+3", "0x1.a65d574860b88p+2", "c15c0fe08068ecc9"),
    (3, 1, 0.9, "0x1.5ced916872b00p-2", "0x1.64fac7c0e1890p+4", "0x1.1d774682cdb5bp+3", "5015da2de3baf53e"),
    (3, 1, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.8000000000004p+3", "e0421d3b8fa16462"),
    (3, 1, NEAR_ONE, "0x1.ffffffffe4000p-2", "0x1.1fffffffebc01p+5", "0x1.7fffffffef803p+3", "2a386990994518a8"),
    (5, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "bfeb4b404311128f"),
    (5, 1, 0.5, "0x0.0p+0", "0x1.a3ac10c9714f9p-2", "0x1.85306eb3e4537p+1", "5f0ea75ef2e88b41"),
    (5, 1, 0.8125, "0x1.29c4000000000p-3", "0x1.482d5e815e707p+4", "0x1.94dc3812e5a3bp+3", "a731104b99d011bd"),
    (5, 1, 0.9, "0x1.1979fa97e1329p-2", "0x1.687e379cef1c5p+5", "0x1.0214e79cc2cc9p+4", "d8e3c3d576c64ccd"),
    (5, 1, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.4000000000005p+4", "fca6502733886e31"),
    (5, 1, NEAR_ONE, "0x1.ffffffffd4000p-2", "0x1.8fffffffd11ffp+6", "0x1.3ffffffff6d5ap+4", "af4cb60441240c0f"),
    (8, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "7915a6ca62e3c579"),
    (8, 1, 0.5, "0x0.0p+0", "0x1.3f972268b5a49p-5", "0x1.8df1c902a9e65p+2", "59e26920f0591c95"),
    (8, 1, 0.8125, "0x1.249453ea10000p-4", "0x1.44c01a7a66273p+4", "0x1.50de81cebdd86p+4", "d8debcd5819a8e3f"),
    (8, 1, 0.9, "0x1.950b2645640cfp-3", "0x1.1e04410101e84p+6", "0x1.a09b07b42dce2p+4", "053c23343dd2873b"),
    (8, 1, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.ffffffffffff9p+4", "e631054421045ef2"),
    (8, 1, NEAR_ONE, "0x1.ffffffffbc000p-2", "0x1.ffffffff9fffdp+7", "0x1.fffffffff0e32p+4", "23d5368baf0ceb20"),
    (14, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "f0039d704cb7eb2b"),
    (14, 1, 0.5, "0x0.0p+0", "0x1.57c122e6309ecp-13", "0x1.9d20be4783d48p+3", "6e060e33c9c27885"),
    (14, 1, 0.8125, "0x1.d4123dd9a87e4p-7", "0x1.293314589744dp+3", "0x1.27dae99c0c5c1p+5", "fed678ffd98251b4"),
    (14, 1, 0.9, "0x1.9ff352aac6ccap-4", "0x1.508a12784fed5p+6", "0x1.6b72d0df866eep+5", "a81ceb852495d382"),
    (14, 1, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.c000000000001p+5", "5a44534df3afa370"),
    (14, 1, NEAR_ONE, "0x1.ffffffff8c000p-2", "0x1.87ffffff7f5f1p+9", "0x1.bffffffff2778p+5", "819652ada86e363d"),
    (26, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "8e05ac593d9a979f"),
    (26, 1, 0.5, "0x0.0p+0", "0x1.24693fd8c68a4p-30", "0x1.9b74a03eb2270p+4", "fe3d71c6db6a1405"),
    (26, 1, 0.8125, "0x0.0p+0", "0x1.6e2304315522cp-1", "0x1.12a0e1633bb44p+6", "e08c022c6d918c18"),
    (26, 1, 0.9, "0x1.9fac4d9bd3998p-6", "0x1.56af05f094887p+5", "0x1.5106b4d9f2eddp+6", "846c428016d9da0a"),
    (26, 1, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.a00000000002dp+6", "b97a6125eb161afb"),
    (26, 1, NEAR_ONE, "0x1.ffffffff2c000p-2", "0x1.51ffffff3208cp+11", "0x1.9ffffffff3407p+6", "72906077c5f82b20"),
    (38, 1, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "55b5d3dd17132ab5"),
    (38, 1, 0.5, "0x0.0p+0", "0x1.341af94797120p-48", "0x1.2f7ed46c7e626p+5", "c0f56a2d460b876b"),
    (38, 1, 0.8125, "0x0.0p+0", "0x1.175cdc5c8dd40p-5", "0x1.9160077cc7c41p+6", "70839d5572fa6a8c"),
    (38, 1, 0.9, "0x1.605ed1edc99e4p-8", "0x1.b039da95754a3p+3", "0x1.ec7e63cbc2316p+6", "106db20f63d269bb"),
    (38, 1, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.3000000000000p+7", "ccec40cce14a46fb"),
    (38, 1, NEAR_ONE, "0x1.fffffffecc000p-2", "0x1.68fffffebe7cap+12", "0x1.2ffffffff69f2p+7", "5c33d348ba1d88cb"),
    (1, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "3a9f4929272e0135"),
    (1, 2, 0.5, "0x0.0p+0", "0x1.999999999999ap+0", "0x0.0p+0", "40daf014f32372a7"),
    (1, 2, 0.8125, "0x0.0p+0", "0x1.9730ca63fd973p+1", "0x0.0p+0", "7e36c2e5d4cc6285"),
    (1, 2, 0.9, "0x0.0p+0", "0x1.ca410f8ed9cfep+1", "0x0.0p+0", "bf78f1f3f8d3b275"),
    (1, 2, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "305c678628c9dc85"),
    (1, 2, NEAR_ONE, "0x0.0p+0", "0x1.fffffffff8000p+1", "0x0.0p+0", "f0b136dfa5c22242"),
    (2, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "57509a8ad340cefc"),
    (2, 2, 0.5, "0x0.0p+0", "0x1.b9611a7b9611ap+0", "0x1.8f9c18f9c18fap-1", "66c26888517b9b6a"),
    (2, 2, 0.8125, "0x1.af7b800000000p-3", "0x1.115d527ca26e1p+3", "0x1.204ce0c796839p+4", "253e281c92c4c34e"),
    (2, 2, 0.9, "0x1.4d9ce075f6fd2p-2", "0x1.75067c60176f5p+3", "0x1.0e97204c3da88p+5", "71d8bab7eaf36a80"),
    (2, 2, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.ffffffffffffep+5", "8278ce07f61f3072"),
    (2, 2, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.ffffffffe8002p+3", "0x1.ffffffffcfffep+5", "7c6b7ab9e6ce352a"),
    (3, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "499ef80edb0fca60"),
    (3, 2, 0.5, "0x1.c000000000000p-10", "0x1.5209e258f520bp+0", "0x1.d89d89d89d89fp-1", "96fe3adac755cc4a"),
    (3, 2, 0.8125, "0x1.6372156000000p-3", "0x1.cb52152159309p+3", "0x1.20ba477a73383p+4", "7dfa05e6a78b9d6f"),
    (3, 2, 0.9, "0x1.2d2fda836eb4ep-2", "0x1.6b2a18fc59b0ap+4", "0x1.e2fe5537b4997p+4", "e1d523a17556f3ad"),
    (3, 2, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.8000000000001p+5", "01fa9188a62d8d4c"),
    (3, 2, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.1fffffffec801p+5", "0x1.7fffffffe8001p+5", "d48b728d3283361e"),
    (5, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "19e94e576cccc6a8"),
    (5, 2, 0.5, "0x1.3000000000000p-16", "0x1.06331ca9cbb3ep-1", "0x1.454b3a0e98fdbp+1", "ac0b65973830d1f2"),
    (5, 2, 0.8125, "0x1.10fafd36f4b60p-3", "0x1.7ece217d8121dp+4", "0x1.2cbc112e0931ep+5", "1b6d4ab17a53162c"),
    (5, 2, 0.9, "0x1.0af806457be39p-2", "0x1.8909d0541f6bcp+5", "0x1.c45bbe19056f7p+5", "76a28a4cbb96c94f"),
    (5, 2, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.4000000000006p+6", "c9ea96605ea5d7b1"),
    (5, 2, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.8fffffffd6bffp+6", "0x1.3ffffffff1006p+6", "b9acf658db203057"),
    (8, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "acc52b64c62bb439"),
    (8, 2, 0.5, "0x0.0p+0", "0x1.419d5b09240edp-4", "0x1.7d23446b7b372p+2", "6b0f8a5eeb80470b"),
    (8, 2, 0.8125, "0x1.2f7cd192b2ea4p-4", "0x1.de9fa52e74bf2p+4", "0x1.05be2df7fc69ap+6", "6f90eba25738f7e4"),
    (8, 2, 0.9, "0x1.8a66ac2410f65p-3", "0x1.6318fea6f4626p+6", "0x1.725795017936bp+6", "fad0348c3ecc9d41"),
    (8, 2, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.ffffffffffffcp+6", "0f55a0d396b9c79d"),
    (8, 2, NEAR_ONE, "0x1.ffffffffb8000p-2", "0x1.ffffffffb1ffdp+7", "0x1.ffffffffe7ffdp+6", "aab201ffdf11344b"),
    (14, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "044e6e5a5800b42b"),
    (14, 2, 0.5, "0x0.0p+0", "0x1.fefbbd0a7adfap-11", "0x1.d84a8d4b81164p+3", "bbdb145b3ad2c3d7"),
    (14, 2, 0.8125, "0x1.57c27e8a03a4ap-6", "0x1.6c0b863067577p+4", "0x1.d587054ba0efap+6", "9adbaccbf4da4cad"),
    (14, 2, 0.9, "0x1.a28412b0e8187p-4", "0x1.147f14ed306f2p+7", "0x1.44cc7b7bcfe73p+7", "8de02f17ea6e1551"),
    (14, 2, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.c000000000004p+7", "4571aae245b70e88"),
    (14, 2, NEAR_ONE, "0x1.ffffffff88000p-2", "0x1.87ffffff9edf1p+9", "0x1.bfffffffeb004p+7", "eade92d2fbe17d7d"),
    (26, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "f1128058b027913e"),
    (26, 2, 0.5, "0x0.0p+0", "0x1.0811f17a2b85cp-24", "0x1.1ad2fd8cade94p+5", "d5440f0cd8539234"),
    (26, 2, 0.8125, "0x1.af621e722208fp-10", "0x1.3fed128dfefccp+2", "0x1.b4cf8f7c00214p+7", "386566862a059e9c"),
    (26, 2, 0.9, "0x1.d6be16a743f4cp-6", "0x1.f52417d4352e2p+6", "0x1.2d9759151ceeap+8", "5685c850528e47b8"),
    (26, 2, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.a000000000012p+8", "c2e26f68c0f12eae"),
    (26, 2, NEAR_ONE, "0x1.ffffffff28000p-2", "0x1.51ffffff6c88cp+11", "0x1.9fffffffec812p+8", "c2e0f84510474f51"),
    (38, 2, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "1df4773182bc27b9"),
    (38, 2, 0.5, "0x0.0p+0", "0x1.5dc9b6552759bp-39", "0x1.c491ca739c792p+5", "159e1f7be29bd932"),
    (38, 2, 0.8125, "0x1.091f9142e39a9p-13", "0x1.5f7d7f59673fap-1", "0x1.3f36105d8b212p+8", "ea14ab8618f6fb36"),
    (38, 2, 0.9, "0x1.08a848a28ea29p-7", "0x1.1a8e592b9b27ap+6", "0x1.b8c8afc8d46f7p+8", "cf90f0e4c71fa572"),
    (38, 2, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.3000000000014p+9", "0f8a74e3c1c745de"),
    (38, 2, NEAR_ONE, "0x1.fffffffec8000p-2", "0x1.68ffffff1eacap+12", "0x1.2ffffffff1c13p+9", "fda31b34168af87b"),
    (1, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "3dcd75ecc624cfd3"),
    (1, 3, 0.5, "0x0.0p+0", "0x1.0924924924925p+1", "0x0.0p+0", "e697c3ef08b02107"),
    (1, 3, 0.8125, "0x0.0p+0", "0x1.d1f6fa4bd3b64p+1", "0x0.0p+0", "1e3475f49d98c863"),
    (1, 3, 0.9, "0x0.0p+0", "0x1.f1e1b2fbb6d0fp+1", "0x0.0p+0", "e28cf25c151a8ffa"),
    (1, 3, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "1d30a01567e99022"),
    (1, 3, NEAR_ONE, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "4d01142132e1a3e0"),
    (2, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "900af1287e372f25"),
    (2, 3, 0.5, "0x1.4000000000000p-10", "0x1.2254df91987f0p+1", "0x1.93fd31cc193fdp-3", "6d2b76bff888c0fa"),
    (2, 3, 0.8125, "0x1.25595b2000000p-3", "0x1.1daf44d1d90ebp+3", "0x1.58401033dbaa1p+4", "a33cf11beb4980f3"),
    (2, 3, 0.9, "0x1.0ffcf0b6b6e0dp-2", "0x1.7a200aacc84efp+3", "0x1.ba9c16e5c7956p+5", "916a82b3b58978fa"),
    (2, 3, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.1fffffffffffbp+7", "541c7c8f9b65cab0"),
    (2, 3, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.ffffffffe8002p+3", "0x1.1fffffffd77fbp+7", "4978df9a18c709f3"),
    (3, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0901a6aa34ab6bc7"),
    (3, 3, 0.5, "0x1.2d00000000000p-10", "0x1.db9717e1241ecp+0", "0x1.16611f5c961d9p-2", "fbdf4389d293bfec"),
    (3, 3, 0.8125, "0x1.46dc24b910401p-3", "0x1.ea8a86cdd0aaep+3", "0x1.8069562ef190ap+4", "8b7c9fbadbdceb8e"),
    (3, 3, 0.9, "0x1.2d7ad45d64e01p-2", "0x1.76ff30b091754p+4", "0x1.a8fa7b129f384p+5", "da8b55191b134bd5"),
    (3, 3, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.b000000000002p+6", "f0ffb71b240897f6"),
    (3, 3, NEAR_ONE, "0x1.ffffffffdc000p-2", "0x1.1fffffffee001p+5", "0x1.afffffffd7802p+6", "6b35c4485d29fc90"),
    (5, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "b5c0f9de6854baf2"),
    (5, 3, 0.5, "0x1.e69d000000000p-14", "0x1.d5385343b049bp-1", "0x1.ace3e2f067e77p-1", "a29c913ead3ad111"),
    (5, 3, 0.8125, "0x1.69024d30dfa65p-3", "0x1.dd600f060d55bp+4", "0x1.b56956f0c42b5p+5", "526937fc0245e15a"),
    (5, 3, 0.9, "0x1.4f0e8c78e8b49p-2", "0x1.c3e0cd3589037p+5", "0x1.a465493d4e119p+6", "3b7e382da53f046e"),
    (5, 3, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.6800000000006p+7", "48acfb0be2817165"),
    (5, 3, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.8fffffffe1fffp+6", "0x1.67ffffffe6b05p+7", "d8ff21a8cc8b8703"),
    (8, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "10cac00e186849f0"),
    (8, 3, 0.5, "0x1.f9b67e8000000p-20", "0x1.dc1f52189cccap-3", "0x1.143d6d1ba3a92p+1", "d4465dd5fd1cd480"),
    (8, 3, 0.8125, "0x1.4af1b16c60138p-3", "0x1.9d6bf0d94be9ep+5", "0x1.97fc2d2c32c48p+6", "15e70e149a35c98c"),
    (8, 3, 0.9, "0x1.4b67d8b466f78p-2", "0x1.f8f7c81dd776bp+6", "0x1.6178960e331c9p+7", "9ea067e89986f08e"),
    (8, 3, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.2000000000000p+8", "0b1ba5b8e7e442da"),
    (8, 3, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.ffffffffd5ffdp+7", "0x1.1fffffffebc00p+8", "924e40184284c006"),
    (14, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "24f291796c0c3569"),
    (14, 3, 0.5, "0x0.0p+0", "0x1.414c0d2567536p-7", "0x1.87569977061d5p+2", "87c72c1ed842ec8b"),
    (14, 3, 0.8125, "0x1.cb046c406e3fep-4", "0x1.4a62d6951687bp+6", "0x1.7fbcddf3c148dp+7", "72764ebbdbaf17aa"),
    (14, 3, 0.9, "0x1.2ee2ef8bc67cap-2", "0x1.3a7713086a175p+8", "0x1.3840bc7f85183p+8", "5f8fc7c0a0d8a321"),
    (14, 3, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.f800000000018p+8", "1c67a5f6fcc06787"),
    (14, 3, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.87ffffffdddf1p+9", "0x1.f7ffffffdc918p+8", "85e46e9c16d5d7cd"),
    (26, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "2eaf91b61ba3045c"),
    (26, 3, 0.5, "0x0.0p+0", "0x1.3ecd4521d14e1p-17", "0x1.18aac10cb4de0p+4", "81c5766f29d61fed"),
    (26, 3, 0.8125, "0x1.44f414d347609p-5", "0x1.5bcf2a3bc6e94p+6", "0x1.693a7b8a95df7p+8", "f7026ea31aa89c51"),
    (26, 3, 0.9, "0x1.f1eb7d68dcadap-3", "0x1.7a465effcc1f9p+9", "0x1.220bbd874fb41p+9", "47c47708dda5071d"),
    (26, 3, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.d400000000044p+9", "4f41842171b7f638"),
    (26, 3, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.51ffffffe188cp+11", "0x1.d3ffffffdf1c4p+9", "06ac916a38f280b0"),
    (38, 3, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "c4e1847aa4055a80"),
    (38, 3, 0.5, "0x0.0p+0", "0x1.c9c5c27652f62p-28", "0x1.fbf932fca09e3p+4", "1dd464df71962c82"),
    (38, 3, 0.8125, "0x1.2aba6a3584642p-7", "0x1.d5890b7c32db0p+5", "0x1.0818e57a1d1d6p+9", "e9e4d7d93945b73c"),
    (38, 3, 0.9, "0x1.974a5c2c39ae2p-3", "0x1.1e321a7676435p+10", "0x1.a7e9cf274b357p+9", "1f7147e90d922a61"),
    (38, 3, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.55fffffffffe4p+10", "4af0f2c179475334"),
    (38, 3, NEAR_ONE, "0x1.ffffffffe8000p-2", "0x1.68ffffffdf0cap+12", "0x1.55ffffffe7f23p+10", "326896de6c8aaccb"),
    (1, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "387f1d07d4a371ad"),
    (1, 4, 0.5, "0x0.0p+0", "0x1.35b2935b2935ap+1", "0x0.0p+0", "e344a747984ed1aa"),
    (1, 4, 0.8125, "0x0.0p+0", "0x1.e39d55f7ea196p+1", "0x0.0p+0", "11ebc31e1140529b"),
    (1, 4, 0.9, "0x0.0p+0", "0x1.f815fcb74fa34p+1", "0x0.0p+0", "71a69a79d7a51772"),
    (1, 4, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "0ff793424c493cc3"),
    (1, 4, NEAR_ONE, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "a11bd2670bb96923"),
    (2, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "7c7ca5d198ae3dbc"),
    (2, 4, 0.5, "0x1.7800000000000p-11", "0x1.7aa649f53668ep+1", "0x1.3f972268b5a48p-5", "aae5ceb6a5fa32e9"),
    (2, 4, 0.8125, "0x1.84c1de45f0000p-4", "0x1.1505d46e4afdap+3", "0x1.44c01a7a66276p+4", "69076ad70c0add51"),
    (2, 4, 0.9, "0x1.b8c9ba31ea88cp-3", "0x1.6658be993327ap+3", "0x1.1e04410101e90p+6", "14ce2f63582356d6"),
    (2, 4, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.0000000000001p+8", "d22164a1986f8ea9"),
    (2, 4, NEAR_ONE, "0x1.ffffffffc0000p-2", "0x1.ffffffffe0002p+3", "0x1.ffffffffa0001p+7", "99e1d664854f2645"),
    (3, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "144e0193a9c02e25"),
    (3, 4, 0.5, "0x1.5070000000000p-12", "0x1.5b2d5f594f9cep+1", "0x1.d1510389dfa68p-5", "e91832a775e56d20"),
    (3, 4, 0.8125, "0x1.d9b08cc346dfcp-4", "0x1.cd62af11cb8c6p+3", "0x1.864bc950fc3dbp+4", "e07c0bac1ea62bf5"),
    (3, 4, 0.9, "0x1.fd8c5658629c1p-3", "0x1.59fa55b2234f2p+4", "0x1.238232f4b6e0dp+6", "7154650a667424bf"),
    (3, 4, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.7ffffffffffffp+7", "17f81fb39a427740"),
    (3, 4, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.1fffffffe8001p+5", "0x1.7fffffffcffffp+7", "23a3717969355764"),
    (5, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "bf58f03aae14229b"),
    (5, 4, 0.5, "0x1.e225130000000p-16", "0x1.b0407bf00844fp+0", "0x1.78f6a16da324ap-3", "ffbe5327dc20638d"),
    (5, 4, 0.8125, "0x1.149ac5ca53fdep-3", "0x1.bd795e4776b98p+4", "0x1.de4f870f4f44fp+5", "834bd24a8e6560f8"),
    (5, 4, 0.9, "0x1.254c92dd96c4bp-2", "0x1.9aee43564cfe2p+5", "0x1.2f926cf084f10p+7", "fe1a7a3161da3219"),
    (5, 4, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.4000000000006p+8", "3bd526e253da58b6"),
    (5, 4, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.8fffffffd7fffp+6", "0x1.3fffffffe2005p+8", "a5960d745ab7ce25"),
    (8, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "6aa17249f31a4a3f"),
    (8, 4, 0.5, "0x1.7670f3b314600p-21", "0x1.3b82ce00c2946p-1", "0x1.fe8dbed8fab75p-2", "d5e4a7e8d32523e5"),
    (8, 4, 0.8125, "0x1.119ef3138db9ep-3", "0x1.93ec4fb76db01p+5", "0x1.dd6fbc7c66861p+6", "55bf15a90dc3d766"),
    (8, 4, 0.9, "0x1.29ca36c1360ecp-2", "0x1.d048a9ed9e7d4p+6", "0x1.07c7c86d061c1p+8", "5d7e77bf863fe280"),
    (8, 4, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.ffffffffffffep+8", "43d3724b29442c0f"),
    (8, 4, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.ffffffffc7ffdp+7", "0x1.ffffffffcfffep+8", "0247cdca6b2b6bde"),
    (14, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "1f6738fe660c0a1c"),
    (14, 4, 0.5, "0x1.764a36cda8304p-33", "0x1.ca77892e29fa2p-5", "0x1.86e7571ec7b50p+0", "ceff8a7c3fceb7fc"),
    (14, 4, 0.8125, "0x1.b4af238a552d4p-4", "0x1.7bc0d99912d01p+6", "0x1.df85fd7215b7dp+7", "f2a66cc2ea12050f"),
    (14, 4, 0.9, "0x1.1514c669fff9cp-2", "0x1.30f9900ba5c76p+8", "0x1.d8b391a92c0efp+8", "8fa213b29c79b307"),
    (14, 4, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.c000000000005p+9", "ee048361ffea9efd"),
    (14, 4, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.87ffffffd27f1p+9", "0x1.bfffffffd6005p+9", "9ebee220d076c207"),
    (26, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "8440c28b6d08c684"),
    (26, 4, 0.5, "0x0.0p+0", "0x1.22dc3603f430fp-12", "0x1.3ab59fb41f7c4p+2", "b66fb934869cb3af"),
    (26, 4, 0.8125, "0x1.dd23a9e90aedfp-5", "0x1.2a7445cd96c78p+7", "0x1.d23dc50bd3c2dp+8", "65dedf8442cc1217"),
    (26, 4, 0.9, "0x1.d0ec774a794e9p-3", "0x1.a3ba7cd0975f0p+9", "0x1.b7b466ba526ccp+9", "eb35e152980801e3"),
    (26, 4, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.a00000000002ep+10", "c745d76bd03f07e4"),
    (26, 4, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.51ffffffd760cp+11", "0x1.9fffffffd902ep+10", "e8ba8b7e7ce8f007"),
    (38, 4, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "2c67d9bce11a686d"),
    (38, 4, 0.5, "0x0.0p+0", "0x1.1f7c22b9867c1p-20", "0x1.371b21601e0d1p+3", "766ecf2e31cb94bb"),
    (38, 4, 0.8125, "0x1.fa808c7a4ec9dp-6", "0x1.34e8d19a922fdp+7", "0x1.562f05780a1a7p+9", "6e1fa82e3c14d333"),
    (38, 4, 0.9, "0x1.859bca8827968p-3", "0x1.6e76123c0f4e3p+10", "0x1.415374f146556p+10", "235f86e7ea3d7963"),
    (38, 4, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.2ffffffffffdcp+11", "33ddae4de689261e"),
    (38, 4, NEAR_ONE, "0x1.ffffffffe0000p-2", "0x1.68ffffffd410ap+12", "0x1.2fffffffe37dbp+11", "f4baaea1d2b9bc39"),
    (1, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "795f2db0d006f056"),
    (1, 5, 0.5, "0x0.0p+0", "0x1.5a146252bc40ap+1", "0x0.0p+0", "5a5ad971c8dd1ea3"),
    (1, 5, 0.8125, "0x0.0p+0", "0x1.f2b58b36a8db4p+1", "0x0.0p+0", "3b50a19cc3d5cd8b"),
    (1, 5, 0.9, "0x0.0p+0", "0x1.fdbe6264b1fb4p+1", "0x0.0p+0", "5490f1fef49d44c9"),
    (1, 5, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "bba9482102d7d6b1"),
    (1, 5, NEAR_ONE, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "6f05af7dd87df0b2"),
    (2, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "29398c6b9821a417"),
    (2, 5, 0.5, "0x1.0d00000000000p-12", "0x1.d4db0a3adbd56p+1", "0x1.bbef869c8130ep-8", "c40851b86798857f"),
    (2, 5, 0.8125, "0x1.00c368da4b240p-4", "0x1.12fab63c9530dp+3", "0x1.0d41d198f4dbep+4", "27ff93fda6ab8c1a"),
    (2, 5, 0.9, "0x1.650bd58fca253p-3", "0x1.5702a5b7b3e02p+3", "0x1.44e369eda71e4p+6", "caf4278916e79643"),
    (2, 5, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.9000000000000p+8", "6d6f44057fbd8b8b"),
    (2, 5, NEAR_ONE, "0x1.ffffffffb0000p-2", "0x1.ffffffffd8002p+3", "0x1.8fffffffa2400p+8", "6b366e03f2eb1d9b"),
    (3, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "73e93bad5541a722"),
    (3, 5, 0.5, "0x1.3801000000000p-14", "0x1.dc6387555ba71p+1", "0x1.498344d257677p-7", "aa9e1dbf15ad266e"),
    (3, 5, 0.8125, "0x1.5605c31565adbp-4", "0x1.c0a897bb3d7cbp+3", "0x1.55d9ea5fd8a8cp+4", "e800716a2afbf938"),
    (3, 5, 0.9, "0x1.b391f86d335a9p-3", "0x1.42c679c260877p+4", "0x1.5c8d4afeccf4dp+6", "6b73a45eda990404"),
    (3, 5, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.2bfffffffffffp+8", "c04fa843b84c6c3c"),
    (3, 5, NEAR_ONE, "0x1.ffffffffc4000p-2", "0x1.1fffffffe2001p+5", "0x1.2bffffffd11ffp+8", "c1df0d2e2f8c439d"),
    (5, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "252f5c393692dabe"),
    (5, 5, 0.5, "0x1.444a961d00000p-18", "0x1.6c4e6a2d07469p+1", "0x1.0ffb04f57f652p-5", "5d938df081c4966a"),
    (5, 5, 0.8125, "0x1.b7b0b1c96068ap-4", "0x1.ace1079fbf567p+4", "0x1.bd8f9e018f80dp+5", "032cc3f3115e77a3"),
    (5, 5, 0.9, "0x1.08c547ee92e5ap-2", "0x1.78b8efade267ep+5", "0x1.7c7352cd1deebp+7", "4035846de499d2de"),
    (5, 5, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.f400000000008p+8", "7f5f5c8f69b048fb"),
    (5, 5, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.8fffffffcdfffp+6", "0x1.f3ffffffc5688p+8", "e29f718b47b96698"),
    (8, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "ceb8fe1ee206ac94"),
    (8, 5, 0.5, "0x1.f71e13432da1cp-24", "0x1.6a50bba8689f0p+0", "0x1.78438c1cbe0c5p-4", "1d4f25bf8c158b02"),
    (8, 5, 0.8125, "0x1.f30fa21c708ecp-4", "0x1.8f4e88acdd35bp+5", "0x1.d838dc32a9ee9p+6", "5b40f0f508521aa8"),
    (8, 5, 0.9, "0x1.1e17288ee8d30p-2", "0x1.abcd560cdd64bp+6", "0x1.56912080066d3p+8", "8b6d669355e2e773"),
    (8, 5, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.8fffffffffffep+9", "ade918a3b6f898ec"),
    (8, 5, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.ffffffffb9ffep+7", "0x1.8fffffffd11fep+9", "66c23223fe3ba841"),
    (14, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "109eaef87da61e2c"),
    (14, 5, 0.5, "0x1.0318fc1d71d7cp-35", "0x1.e9e53a56b7f8ap-3", "0x1.2ae2544f0ab96p-2", "daa8a88359b315dd"),
    (14, 5, 0.8125, "0x1.fca4a81e3011dp-4", "0x1.a54a03cf33565p+6", "0x1.fcaa4e7115b58p+7", "0bb0e29fa126ce67"),
    (14, 5, 0.9, "0x1.22c38999b096cp-2", "0x1.2560945ec646ap+8", "0x1.399b67e00a7a8p+9", "a50568dd1178f582"),
    (14, 5, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.5e0000000000ep+10", "befbf8b33959918d"),
    (14, 5, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.87ffffffc71f1p+9", "0x1.5dffffffd6fcep+10", "2a3cccdd57bad560"),
    (26, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "b6b5015806543d3f"),
    (26, 5, 0.5, "0x1.25170fb423862p-64", "0x1.0f70e128706cep-8", "0x1.ff9ec511cc1a2p-1", "88ef54edf0850da9"),
    (26, 5, 0.8125, "0x1.a3a1e97ab7a0ap-4", "0x1.c3c8d2a643394p+7", "0x1.04e34c8831b3fp+9", "66ec9bbac241dc04"),
    (26, 5, 0.9, "0x1.1aa3ea062126fp-2", "0x1.c60d7198d9d42p+9", "0x1.24df7444d14a5p+10", "b332c8833fbc0191"),
    (26, 5, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.450000000001ap+11", "ce36afc39bfb09bb"),
    (26, 5, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.51ffffffcd38cp+11", "0x1.44ffffffd9eb9p+11", "9789d7308cac87de"),
    (38, 5, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "05b2ce2fa02d7ef0"),
    (38, 5, 0.5, "0x0.0p+0", "0x1.d92b03498659ap-15", "0x1.0a0729c0af064p+1", "fbe0ffe36ff08f9d"),
    (38, 5, 0.8125, "0x1.3d740881f3f43p-4", "0x1.4983fb8923a67p+8", "0x1.83ffb122936b5p+9", "1d564827aa0325eb"),
    (38, 5, 0.9, "0x1.119d21e267417p-2", "0x1.c24df2d15edccp+10", "0x1.ac15b20b5c109p+10", "cad44d715f936b6e"),
    (38, 5, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.dafffffffffb8p+11", "48030d61f9703483"),
    (38, 5, NEAR_ONE, "0x1.ffffffffd8000p-2", "0x1.68ffffffc914ap+12", "0x1.daffffffc8518p+11", "2c89d3c3725f34c4"),
    (1, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "89e0e86c434132ad"),
    (1, 6, 0.5, "0x0.0p+0", "0x1.765c45dcfffbcp+1", "0x0.0p+0", "201971ab90b929bc"),
    (1, 6, 0.8125, "0x0.0p+0", "0x1.f7b5ad61ed937p+1", "0x0.0p+0", "25dba05413ddfde2"),
    (1, 6, 0.9, "0x0.0p+0", "0x1.feb9e04b3785ep+1", "0x0.0p+0", "06d83fda9cc951a8"),
    (1, 6, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "eca11f19c22f8614"),
    (1, 6, NEAR_ONE, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "68dbe8992c4faea8"),
    (2, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0793a4a040558024"),
    (2, 6, 0.5, "0x1.49c0000000000p-14", "0x1.11d8de73b2740p+2", "0x1.1c1f82ece7f32p-10", "8c0a211a2339c490"),
    (2, 6, 0.8125, "0x1.5307577ad598ap-5", "0x1.0cf75e27cd584p+3", "0x1.9b7ce8d5bbf66p+3", "b15da8865f3f4e2d"),
    (2, 6, 0.9, "0x1.213533cfcab8dp-3", "0x1.4707957f04db4p+3", "0x1.541c2ad4f6ac9p+6", "cc294f15d0edf496"),
    (2, 6, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.1fffffffffffcp+9", "03952c2e165b3a9e"),
    (2, 6, NEAR_ONE, "0x1.ffffffffa0000p-2", "0x1.ffffffffd0002p+3", "0x1.1fffffffaeffcp+9", "f83c46969ad08baf"),
    (3, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "d9738d1db4fe68ba"),
    (3, 6, 0.5, "0x1.0af0b00000000p-16", "0x1.2c7b3fa1da840p+2", "0x1.a8a88b4bcc1f2p-10", "6b41213af38ecb70"),
    (3, 6, 0.8125, "0x1.dec3b830f617ep-5", "0x1.ac2fb33bd72f8p+3", "0x1.104c85b88d22ep+4", "88bad3433bbf5e5a"),
    (3, 6, 0.9, "0x1.6c6f99c128d0dp-3", "0x1.2ac0e54aeb5bap+4", "0x1.7d6fd55e97dafp+6", "fe96ebe1eab2afbc"),
    (3, 6, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.b000000000002p+8", "1c37eac0986add8f"),
    (3, 6, NEAR_ONE, "0x1.ffffffffb8000p-2", "0x1.1fffffffdc001p+5", "0x1.afffffffaf002p+8", "10f1c65d0920eb6e"),
    (5, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "36408099f1665b76"),
    (5, 6, 0.5, "0x1.9ccb3d07bf02ap-20", "0x1.0bfae54a20065p+2", "0x1.60c3fbc2ee4dfp-8", "cf03b0fff7f34a4e"),
    (5, 6, 0.8125, "0x1.3f76186b15b4fp-4", "0x1.8bcd5293e48c5p+4", "0x1.757dd2c4fb61ep+5", "cf6d5f72b4e713f0"),
    (5, 6, 0.9, "0x1.c6708920c3064p-3", "0x1.516dac70399b0p+5", "0x1.b29261a9f0e7fp+7", "37b3f81dfb9267ba"),
    (5, 6, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.67ffffffffffep+9", "c81face5e4125aa3"),
    (5, 6, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.8fffffffc3fffp+6", "0x1.67ffffffcd5fep+9", "fdb2aee49af172db"),
    (8, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "e2fb4e561c391d8f"),
    (8, 6, 0.5, "0x1.014189c698d47p-25", "0x1.4faa35a66f2d8p+1", "0x1.ebdc1d1044292p-7", "d972ac9c05b75e3a"),
    (8, 6, 0.8125, "0x1.7ab340ab6c5adp-4", "0x1.67253aa70b076p+5", "0x1.a0b08177a6825p+6", "c84487dad05be450"),
    (8, 6, 0.9, "0x1.f77751955bee8p-3", "0x1.76c6d57730fe7p+6", "0x1.95a8ca0072213p+8", "f2205800e2df1ece"),
    (8, 6, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.2000000000002p+10", "eb56c23cee7a79b8"),
    (8, 6, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.ffffffffabffep+7", "0x1.1fffffffd7801p+10", "5fe65d924662512d"),
    (14, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "cbcac384afa76a51"),
    (14, 6, 0.5, "0x1.031209a5ec16fp-37", "0x1.680141156d801p-1", "0x1.8c775700e8a71p-5", "5c07372ae2ef55fd"),
    (14, 6, 0.8125, "0x1.9e354b7a04b9cp-4", "0x1.7862bad260ea1p+6", "0x1.df89dddeaf29fp+7", "a9b1f2a8fbee9de6"),
    (14, 6, 0.9, "0x1.05497a7db166dp-2", "0x1.fb4466aefdd30p+7", "0x1.7dc4b66846739p+9", "cb8adbb3ba594ea1"),
    (14, 6, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.f80000000001ap+10", "9998ad582bc639aa"),
    (14, 6, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.87ffffffbbbf1p+9", "0x1.f7ffffffb9219p+10", "007623eac7519b14"),
    (26, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "408d90b32d9af62f"),
    (26, 6, 0.5, "0x1.92808607dc9e5p-65", "0x1.f63afb2250d9ep-6", "0x1.5c8a5ab80537fp-3", "24893518fa5d0d35"),
    (26, 6, 0.8125, "0x1.813109c6c8a67p-4", "0x1.aaf3d5c586050p+7", "0x1.06c3467a0a763p+9", "3db2d4130b07afdf"),
    (26, 6, 0.9, "0x1.0078c909e35e4p-2", "0x1.8a96931e3763cp+9", "0x1.6771407f26fe2p+10", "79d5fedbe871307e"),
    (26, 6, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.d3fffffffffeep+11", "93cd5772ebf4f2dc"),
    (26, 6, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.51ffffffc310cp+11", "0x1.d3ffffffbe2eep+11", "597806ea0df54080"),
    (38, 6, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "38ebb0fdbfdf3105"),
    (38, 6, 0.5, "0x1.98829d6fe6510p-97", "0x1.13b0704dd90b1p-10", "0x1.735796961315ap-2", "947655cae5ddfdf6"),
    (38, 6, 0.8125, "0x1.49c2cbb0b91fap-4", "0x1.5461abd0db008p+8", "0x1.90f5dc1774cb2p+9", "0dbfe4b01e4c0b9c"),
    (38, 6, 0.9, "0x1.f2d42542df2f4p-3", "0x1.8d99c568dadf7p+10", "0x1.06cb67de62c81p+11", "d65561ab521eaa15"),
    (38, 6, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.55ffffffffffap+12", "ff347097d1f60807"),
    (38, 6, NEAR_ONE, "0x1.ffffffffd0000p-2", "0x1.68ffffffbe18ap+12", "0x1.55ffffffcfe7ap+12", "2364e5679e63b52b"),
    (1, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "779ecfa75d4880b5"),
    (1, 7, 0.5, "0x0.0p+0", "0x1.8de2c4cb11b32p+1", "0x0.0p+0", "6c59b8437c276b0c"),
    (1, 7, 0.8125, "0x0.0p+0", "0x1.fc002b82798dcp+1", "0x0.0p+0", "33913f30533b3c1a"),
    (1, 7, 0.9, "0x0.0p+0", "0x1.ff9f6d21b9ebap+1", "0x0.0p+0", "466860ec17b2cc1b"),
    (1, 7, 1.0, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "60bc6cc426da2afb"),
    (1, 7, NEAR_ONE, "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "df9f955b93446fec"),
    (2, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "60deea31b52947a5"),
    (2, 7, 0.5, "0x1.7750000000000p-16", "0x1.353c8f9d32b93p+2", "0x1.57c122e6309f6p-13", "6636aba14b04a8ae"),
    (2, 7, 0.8125, "0x1.bfa099ca7bed2p-6", "0x1.0a01310c477e7p+3", "0x1.2933145897455p+3", "35113fcf8e9130ed"),
    (2, 7, 0.9, "0x1.d48446ed05f52p-4", "0x1.3a2fff1fa923fp+3", "0x1.508a12784fefap+6", "83bf5f58a0552155"),
    (2, 7, 1.0, "0x1.0000000000000p-1", "0x1.0000000000001p+4", "0x1.8800000000004p+9", "e5f3d573fdb05dad"),
    (2, 7, NEAR_ONE, "0x1.ffffffff90000p-2", "0x1.ffffffffc8002p+3", "0x1.87ffffff7f604p+9", "1446ef5c67917881"),
    (3, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "51c366fac825067d"),
    (3, 7, 0.5, "0x1.b526ca0000000p-19", "0x1.6881f53a83378p+2", "0x1.017fb080048b2p-12", "254569ff47f365da"),
    (3, 7, 0.8125, "0x1.49e25bceaa114p-5", "0x1.a0b57b6faaf9bp+3", "0x1.95ec55a0c23c5p+3", "d1064639c6e95408"),
    (3, 7, 0.9, "0x1.30a42e3c962c8p-3", "0x1.175baabccff97p+4", "0x1.883e4d29fe40dp+6", "0574f7d3d7c16f66"),
    (3, 7, 1.0, "0x1.0000000000000p-1", "0x1.2000000000001p+5", "0x1.2600000000006p+9", "789c887baddbfdb5"),
    (3, 7, NEAR_ONE, "0x1.ffffffffac000p-2", "0x1.1fffffffd6001p+5", "0x1.25ffffffbfb06p+9", "83997fa8808c64ac"),
    (5, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "c4e8a2c2070fd07a"),
    (5, 7, 0.5, "0x1.380c602dbb528p-22", "0x1.6aef2c7cf172dp+2", "0x1.acb875f46bbdcp-11", "e5bb02737e7d38a9"),
    (5, 7, 0.8125, "0x1.c934914ceddf1p-5", "0x1.7802ed87ddaafp+4", "0x1.22516870900ffp+5", "44720df43bfea02e"),
    (5, 7, 0.9, "0x1.85b1b69793ee3p-3", "0x1.317fdffc9a42ap+5", "0x1.d0aa8006c6713p+7", "172146e54660d2a5"),
    (5, 7, 1.0, "0x1.0000000000000p-1", "0x1.8ffffffffffffp+6", "0x1.ea00000000008p+9", "f8c8c87f43163b6a"),
    (5, 7, NEAR_ONE, "0x1.ffffffffc8000p-2", "0x1.8fffffffb9fffp+6", "0x1.e9ffffffaf9c8p+9", "8f3317e0e6ae4bca"),
    (8, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "16f9afbaac95627d"),
    (8, 7, 0.5, "0x1.f4386d8990ce3p-29", "0x1.109caf8cfadd6p+2", "0x1.2bb159e60c917p-9", "c7af620497e6fe5a"),
    (8, 7, 0.8125, "0x1.1c272b7f884f5p-4", "0x1.4dd9f296ce7d8p+5", "0x1.5248126d179fep+6", "6c97645bf5a3f16a"),
    (8, 7, 0.9, "0x1.bc6004c7ac9f7p-3", "0x1.4b51ac11c385ep+6", "0x1.c13b71b361f9bp+8", "4ee9ab18cf8b04f5"),
    (8, 7, 1.0, "0x1.0000000000000p-1", "0x1.ffffffffffffdp+7", "0x1.87ffffffffffep+10", "e339e0bda6b4ee51"),
    (8, 7, NEAR_ONE, "0x1.ffffffffc8000p-2", "0x1.ffffffff9dffdp+7", "0x1.87ffffffbfafep+10", "97799d3dcab6ffe3"),
    (14, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "097adcf788530462"),
    (14, 7, 0.5, "0x1.9225d7135ec38p-40", "0x1.a491a38278837p+0", "0x1.e5aea214cb5c0p-8", "74d8dfe92d3dbac0"),
    (14, 7, 0.8125, "0x1.5291514d2a979p-4", "0x1.59897b24bfa03p+6", "0x1.9cfaae01afbb5p+7", "8d6e6a330837e7cb"),
    (14, 7, 0.9, "0x1.dcf1e5231280ap-3", "0x1.b900d258c1871p+7", "0x1.b483b234e17d9p+9", "ebbdfd2a8c197be4"),
    (14, 7, 1.0, "0x1.0000000000000p-1", "0x1.87ffffffffff1p+9", "0x1.5700000000019p+11", "b247421473eca132"),
    (14, 7, NEAR_ONE, "0x1.ffffffffc8000p-2", "0x1.87ffffffb05f1p+9", "0x1.56ffffffc7bb9p+11", "8d4c831681b21665"),
    (26, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "e843e1d54959a8c2"),
    (26, 7, 0.5, "0x1.a89d6749b5f56p-66", "0x1.2f80405617ebep-3", "0x1.af5295dbab410p-6", "9bd2f9b04f1ecb25"),
    (26, 7, 0.8125, "0x1.6c8bdb23f1979p-4", "0x1.9507457dbe2e4p+7", "0x1.e4ea86e2ad96dp+8", "babdca82c684d2af"),
    (26, 7, 0.9, "0x1.e35ffb1a8e105p-3", "0x1.573257533a1efp+9", "0x1.a09a3932f2a7cp+10", "88322df912d8ca22"),
    (26, 7, 1.0, "0x1.0000000000000p-1", "0x1.520000000000cp+11", "0x1.3e8000000000fp+12", "038c6066ebe5afed"),
    (26, 7, NEAR_ONE, "0x1.ffffffffc8000p-2", "0x1.51ffffffb8e8cp+11", "0x1.3e7fffffcbbffp+12", "d594fdd3376b6a2e"),
    (38, 7, 0.0, "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "9248853ed1f2ff4f"),
    (38, 7, 0.5, "0x1.603f0c47f08b5p-95", "0x1.58ba86da91ff5p-7", "0x1.d0060e9fa1462p-5", "384ed4c8e4bb5f48"),
    (38, 7, 0.8125, "0x1.60eb60c31415dp-4", "0x1.588d9d630c900p+8", "0x1.7f69cb3232bdfp+9", "9a1fec203b8b34ea"),
    (38, 7, 0.9, "0x1.e12a7d2c4b02dp-3", "0x1.5e2cf46e2d491p+10", "0x1.30f2dd947ffc2p+11", "1f4c3c71172468f3"),
    (38, 7, 1.0, "0x1.0000000000000p-1", "0x1.690000000000ap+12", "0x1.d180000000020p+12", "ce38c27e71bc61ab"),
    (38, 7, NEAR_ONE, "0x1.ffffffffc8000p-2", "0x1.68ffffffb31cap+12", "0x1.d17fffffb3a2fp+12", "cabc01b32f50ac06"),
    (3, 20, 0.5, "0x1.24144eaef61f7p-44", "0x1.6484177b38d5dp+3", "0x1.c7301fa627484p-51", "a33e223f835d4047"),
    (40, 6, 0.97, "0x1.a9625e5587f2dp-2", "0x1.17e0ee1c82f53p+12", "0x1.117e297024e5fp+12", "c0010b28b28f19a7"),
]


def spectrum_digest(spec):
    """First 16 hex digits of the SHA-256 of the eigenvalue bytes and the multiplicity list."""
    digest = hashlib.sha256(spec.eigenvalues.tobytes())
    digest.update(repr(spec.multiplicities.tolist()).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "N, m, p, neg, block_x, single_z, digest", PINNED, ids=[f"{r[0]}-{r[1]}-{r[2]!r}" for r in PINNED]
)
def test_float_evaluation_is_pinned(N, m, p, neg, block_x, single_z, digest):
    """Every bit of the sector sums over m = 1..7 and the noise extremes, as the per-pair walk produced them.

    The table pins the float evaluation, not the algebra: a change to the evaluation order that keeps the
    values must keep every bit.  It changes on purpose, and is regenerated, when the sector sums are
    rewritten without cancellation (the roadmap item on cancellation-free sums).
    """
    cfg = BlockConfig(N, m)
    assert negativity(cfg, p).hex() == neg
    assert fisher_information(cfg, p).hex() == block_x
    assert fisher_information(cfg, p, generator="single-z").hex() == single_z
    assert spectrum_digest(cghz_spectrum(cfg, p)) == digest
