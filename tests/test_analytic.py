import decimal
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cghz import analytic, oracle
from cghz.analytic import (
    coherence_bound,
    coherence_norm,
    coherence_norm_block,
    distill_fidelity,
    distill_threshold,
    fit_exponential_tail,
)
from cghz.errors import InputError
from cghz.states import BlockConfig

# the exact rational reference, loaded by file path: perfbench/ is not a package
_SPEC = importlib.util.spec_from_file_location("exact", Path(__file__).parents[1] / "perfbench" / "exact.py")
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)


class TestCoherenceNormBlock:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_noiseless(self, m):
        assert coherence_norm_block(m, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_single_qubit_reduces_to_p(self, p):
        assert coherence_norm_block(1, p) == pytest.approx(p, abs=1e-14)

    def test_m2_equals_oracle(self):
        # the dense trace norm at m=2, p=0.9 is 0.9 (the even-m doublet at
        # weight m/2 is identically zero and contributes nothing)
        assert coherence_norm_block(2, 0.9) == pytest.approx(0.9, abs=1e-13)
        assert oracle.coherence_norm(BlockConfig(1, 2), 0.9) == pytest.approx(0.9, abs=1e-10)

    def test_m3_value(self):
        # closed form p (1 + (1-p^2)/2) at m=3
        assert coherence_norm_block(3, 0.9) == pytest.approx(0.9855, abs=1e-12)

    def test_monotone_in_p(self):
        ps = np.linspace(0, 1, 21)
        for m in (1, 2, 3, 4, 7):
            vals = [coherence_norm_block(m, p) for p in ps]
            assert all(b - a >= -1e-14 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_m(self):
        for p in (0.3, 0.7, 0.9, 0.99):
            vals = [coherence_norm_block(m, p) for m in range(1, 21)]
            assert all(b - a >= -1e-14 for a, b in zip(vals, vals[1:]))


class TestCoherenceNorm:
    def test_single_block_reduces(self):
        assert coherence_norm(BlockConfig(1, 3), 0.8) == pytest.approx(
            coherence_norm_block(3, 0.8), abs=1e-14
        )

    def test_geometric_decay_m1(self):
        assert coherence_norm(BlockConfig(10, 1), 0.9) == pytest.approx(0.9**10, rel=1e-13)

    def test_oracle_agreement_at_8_qubits(self):
        cfg = BlockConfig(4, 2)
        assert coherence_norm(cfg, 0.9) == pytest.approx(oracle.coherence_norm(cfg, 0.9), abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.9, 1.0])
    def test_oracle_equivalence_grid(self, m, n_blocks, p):
        cfg = BlockConfig(n_blocks, m)
        assert coherence_norm(cfg, p) == pytest.approx(oracle.coherence_norm(cfg, p), abs=1e-10)

    def test_log_block_scaling_freezes_decay(self):
        # m = 2 ceil(log2 N): the deficit shrinks faster than N doubles, so
        # the norm climbs monotonically toward 1
        values = [coherence_norm(BlockConfig(2**k, 2 * k), 0.9) for k in range(4, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_odd_even_block_pairs_coincide(self):
        # structural identity: the even-m doublet class at weight m/2 is
        # zero, so block 2j+1 and block 2j+2 have identical norms; this is
        # why m = ceil(log2 N) alone cannot give a monotone frozen-decay
        # sequence (N doubles while the block value stalls)
        for j in range(0, 6):
            for p in (0.3, 0.7, 0.9):
                assert coherence_norm_block(2 * j + 1, p) == pytest.approx(
                    coherence_norm_block(2 * j + 2, p), abs=1e-14
                )

    @pytest.mark.parametrize("p", [0.0, 1 / 64, 1 / 2, 7 / 8])
    def test_binomials_beyond_the_float_range(self, p):
        # from m = 1029 on, 2 C(m, k) overflows a float
        for m in (1028, 1029, 1030):
            want = exact.coherence_norm(3, m, Fraction(p))
            assert coherence_norm(BlockConfig(3, m), p) == pytest.approx(want, rel=1e-12, abs=0)


class TestCoherenceBound:
    @pytest.mark.parametrize("cfg", [BlockConfig(1, 1), BlockConfig(10, 3), BlockConfig(100, 7)])
    def test_noiseless(self, cfg):
        assert coherence_bound(cfg, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_small_case_value(self):
        expected = 1 - math.sqrt(2 / math.pi) * (12 / 11) * math.sqrt(0.19)
        assert coherence_bound(BlockConfig(1, 1), 0.9) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6206, abs=5e-5)

    @pytest.mark.parametrize("p", [0.8, 0.9, 0.95, 0.99])
    def test_lower_bounds_exact_norm(self, p):
        for m in range(1, 11):
            for n_blocks in (1, 10, 100):
                cfg = BlockConfig(n_blocks, m)
                assert coherence_bound(cfg, p) <= coherence_norm(cfg, p) + 1e-12

    def test_fails_outside_weak_noise_domain(self):
        # at strong noise the expression stops lower-bounding the norm and
        # can go negative; it is returned as printed (weak-noise validity
        # is documented, this is not a bug)
        assert coherence_bound(BlockConfig(1, 1), 0.0) > coherence_norm(BlockConfig(1, 1), 0.0)
        assert coherence_bound(BlockConfig(1, 2), 0.0) < 0

    def test_power_beyond_the_float_range_is_an_input_error(self):
        # the base is about -24.2 here, and its 1000th power is about 1e1384
        with pytest.raises(InputError, match="float range"):
            coherence_bound(BlockConfig(1000, 1000), 0.0)


class TestDistillFidelity:
    @pytest.mark.parametrize("cfg", [BlockConfig(2, 1), BlockConfig(5, 3), BlockConfig(100, 2)])
    def test_noiseless(self, cfg):
        assert distill_fidelity(cfg, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("cfg", [BlockConfig(2, 1), BlockConfig(4, 3)])
    def test_fully_mixed(self, cfg):
        assert distill_fidelity(cfg, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_two_blocks_single_qubit(self):
        p = 0.9
        assert distill_fidelity(BlockConfig(2, 1), p) == pytest.approx((1 + 3 * p * p) / 4, abs=1e-14)

    def test_requires_two_blocks(self):
        with pytest.raises(InputError):
            distill_fidelity(BlockConfig(1, 2), 0.9)

    def test_monotone_in_n(self):
        vals = [distill_fidelity(BlockConfig(n, 2), 0.9) for n in range(2, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_flagship_size(self):
        f = distill_fidelity(BlockConfig(10**12, 10), 0.9)
        assert 0.5 < f < 0.65

    # (a^m + b^m)^2 underflows at each of these; the last keeps a nontrivial tail r^N
    @pytest.mark.parametrize("n_blocks, m, p", [(3, 539, 0.0), (3, 648, 1 / 8), (3, 1296, 1 / 2), (10**8, 600, 1 / 64)])
    def test_block_weights_below_the_float_range(self, n_blocks, m, p):
        want = exact.distill_fidelity(n_blocks, m, Fraction(p))
        assert distill_fidelity(BlockConfig(n_blocks, m), p) == pytest.approx(want, rel=1e-12, abs=0)


class TestDistillThreshold:
    def test_m1_reference_value(self):
        # solve 2 p^N > 1 - p^2 at p = 0.9: N <= 22
        res = distill_threshold(1, 0.9)
        assert res.value == 22
        assert not res.exceeded_cap

    def test_self_consistent(self):
        for m, p in [(1, 0.9), (2, 0.8), (3, 0.95)]:
            res = distill_threshold(m, p)
            n = res.value
            assert distill_fidelity(BlockConfig(n, m), p) > 0.5
            assert distill_fidelity(BlockConfig(n + 1, m), p) <= 0.5

    def test_macroscopic_blocks(self):
        res = distill_threshold(10, 0.9)
        assert res.value >= 10**12

    def test_cap_exceeded_reported(self):
        # near-noiseless thresholds blow past any finite cap (the m=2
        # threshold scales like the inverse square of the noise strength)
        res = distill_threshold(2, 1 - 1e-6, cap=10**12)
        assert res.exceeded_cap
        assert str(res) == "unbounded-in-tested-range"
        res = distill_threshold(2, 1 - 1e-8)
        assert res.exceeded_cap
        assert res.cap == analytic.DEFAULT_THRESHOLD_CAP

    def test_no_distillable_range(self):
        # at strong noise even N=2 is below 1/2
        res = distill_threshold(1, 0.3)
        assert res.value is None
        assert not res.exceeded_cap

    def test_rejects_p_one(self):
        with pytest.raises(InputError):
            distill_threshold(2, 1.0)


def decimal_threshold(m, p):
    """The largest N >= 2 with u^2 (1 + r^(N-2)) + r^N > 1, that is F(N) > 1/2, in 60-digit decimal arithmetic.

    u = p^m / d and r = o / d with d = a^m + b^m and o = a^m - b^m; the root
    is found by doubling and bisection on N, with r^N = exp(N ln r).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p)  # exact: the float is dyadic
        a, b = (1 + p) / 2, (1 - p) / 2
        d, o = a**m + b**m, a**m - b**m
        u_squared, log_r = (p**m / d) ** 2, (o / d).ln()

        def above(n):
            return u_squared * (1 + ((n - 2) * log_r).exp()) + (n * log_r).exp() > 1

        lo, hi = 2, 4
        while above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        return lo


class TestThresholdNearOneHalf:
    # m = 40, p = 0.609375 = 39/64: F(N) - 1/2 falls below the rounding of 1/2
    # long before the threshold, so the float test F(N) > 1/2 has no single crossing
    M, P, EXACT = 40, 0.609375, 863930646498041

    def test_decimal_reference(self):
        assert decimal_threshold(2, 0.9) == distill_threshold(2, 0.9).value
        assert decimal_threshold(self.M, self.P) == self.EXACT
        # the float F is not above 1/2 at the exact answer, so no test of the float F can find it
        assert distill_fidelity(BlockConfig(self.EXACT, self.M), self.P) <= 0.5

    @pytest.mark.xfail(strict=True, reason="distill_threshold bisects on the rounded test F(N) > 1/2")
    def test_threshold_matches_the_decimal_root(self):
        assert distill_threshold(self.M, self.P).value == self.EXACT


class TestFitExponentialTail:
    def test_recovers_synthetic_decay(self):
        pts = [(n, 2.0 * math.exp(-0.3 * n)) for n in range(10, 21)]
        fit = fit_exponential_tail(pts, window=(10, 20))
        assert fit.rate == pytest.approx(0.3, abs=1e-12)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-10)
        assert fit.residual < 1e-12

    def test_constant_data(self):
        fit = fit_exponential_tail([(n, 5.0) for n in range(5, 12)])
        assert fit.rate == pytest.approx(0.0, abs=1e-13)
        assert math.copysign(1.0, fit.rate) == 1.0  # a zero slope is rate +0.0, never -0.0

    def test_geometric_coherence_rate(self):
        pts = [(n, coherence_norm(BlockConfig(n, 1), 0.9)) for n in range(5, 51)]
        fit = fit_exponential_tail(pts)
        assert fit.rate == pytest.approx(-math.log(0.9), abs=1e-10)

    def test_default_window_is_last_half(self):
        pts = [(n, math.exp(-n)) for n in range(0, 11)]
        fit = fit_exponential_tail(pts)
        assert fit.window == (5.0, 10.0)

    def test_default_window_widens_on_power_of_two_axis(self):
        # the upper half of N = 2^4..2^10 holds only N = 1024; the window widens to 256
        pts = [(2**k, 3.0 * math.exp(-0.01 * 2**k)) for k in range(4, 11)]
        fit = fit_exponential_tail(pts)
        assert fit.window == (256.0, 1024.0)
        assert fit.rate == pytest.approx(0.01, rel=1e-10)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            fit_exponential_tail([(1, 1.0), (2, 0.0), (3, 1.0)])

    def test_rejects_too_few_points(self):
        with pytest.raises(InputError):
            fit_exponential_tail([(1, 1.0), (2, 1.0)])


def test_tail_ratio_drives_fidelity():
    # the fidelity decomposes through the tail term r^N, computed here as exp(N log r)
    m, p = 3, 0.9
    for n_blocks in (2, 5, 17):
        d, q, log_r = analytic._branch_weights(m, p)
        tail = math.exp(n_blocks * log_r)
        tail2 = math.exp((n_blocks - 2) * log_r)
        expected = 0.25 * (1 + q * q / (d * d) * (1 + tail2) + tail)
        assert distill_fidelity(BlockConfig(n_blocks, m), p) == pytest.approx(expected, rel=1e-12)
