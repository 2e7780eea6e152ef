"""The spectral sector sums against the exact rational reference `perfbench/exact.py`.

With a dyadic survival probability p every doublet scalar is an exact binary
fraction, so each sector term computed with `fractions` is the exact value of
a term the engine evaluates in floating point.  The negativity and Fisher
references walk every composition of N over the doublet classes and sum
their positive terms to 50 significant digits.  The spectrum, the rational
block-x enumeration and its collapsed form (the multinomial theorem in place
of the walk over the non-logical classes) are built here on the same exact
per-sector scalars, `exact._Sectors`; the block-x terms are summed to 60
digits.  The spectrum reference walks the engine's own order (sector,
h <= n/2, + branch then - branch) and checks its multiplicities and trace
exactly before it is compared.  These references reach far beyond the dense
oracle's 12 qubits.
"""

import importlib.util
import math
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from cghz.spectral import cghz_spectrum, fisher_information, negativity
from cghz.states import BlockConfig

# loaded by file path: perfbench/ is not a package, and on sys.path its generic
# module names (run, workloads, tracing) would be visible to the whole session
_SPEC = importlib.util.spec_from_file_location("exact", Path(__file__).parents[1] / "perfbench" / "exact.py")
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)

SECTOR_LIMIT = 800
DIGITS = Context(prec=60)


def total(terms):
    """Sum of exact positive rational terms, each rounded to 60 digits."""
    out = Decimal(0)
    for term in terms:
        out = DIGITS.add(out, DIGITS.divide(Decimal(term.numerator), Decimal(term.denominator)))
    return out


def spectrum_terms(N, m, p):
    """(multiplicity, S g_h/2, T c_h/2) per sector and h <= n/2; the eigenvalues are S g_h/2 +- T c_h/2.

    Every sector stands for K 2^(N-n) C(n, h) eigenvector pairs; a mirror pair h = n/2 counts half its
    strings, and the n = 0 sector half its outer z patterns.
    """
    sec = exact._Sectors(N, m, p)
    for n, K, S, T, _ in sec.sectors():
        for h in range(n // 2 + 1):
            strings = math.comb(n, h) // (2 if 0 < n == 2 * h else 1)
            yield K * 2 ** (N - max(n, 1)) * strings, S * sec.g(n, h) / 2, T * sec.c(n, h) / 2


def block_x_terms(N, m, p):
    sec = exact._Sectors(N, m, p)
    for n, K, S, T, _ in sec.sectors():
        for h in range(n + 1):
            den = S * sec.g(n, h)
            if den > 0:
                yield K * 2 ** (N - n + 1) * math.comb(n, h) * (T * sec.c(n, h)) ** 2 / den * ((n - 2 * h) ** 2 + N - n)


def block_x_collapsed_terms(N, m, p):
    """sum over sectors with n logical blocks of K T^2/S = C(N, n) A^(N-n), A = sum counts t^2/s."""
    sec = exact._Sectors(N, m, p)
    A = sum(c * t * t / s for c, s, t in zip(sec.counts[1:], sec.s[1:], sec.t[1:]) if s > 0)
    for n in range(N + 1):
        outer = math.comb(N, n) * A ** (N - n) * 2 ** (N - n + 1)
        for h in range(n + 1):
            g = sec.g(n, h)
            if g > 0 and outer:
                yield outer * math.comb(n, h) * sec.c(n, h) ** 2 / g * ((n - 2 * h) ** 2 + N - n)


def assert_close(engine, ref, rel=1e-10):
    assert ref > 0
    assert abs(Decimal(engine) - ref) <= Decimal(rel) * ref, (engine, float(ref))


@pytest.mark.parametrize("N, m, p", [(10, 3, 0.875), (12, 5, 0.8125), (8, 7, 0.9375), (6, 4, 0.96875)])
def test_negativity_matches_exact_terms(N, m, p):
    assert exact.sector_count(N, m) <= SECTOR_LIMIT
    assert_close(negativity(BlockConfig(N, m), p), exact.negativity(N, m, p))


@pytest.mark.parametrize("N, m, p", [(20, 3, 0.5), (12, 5, 0.875), (9, 7, 0.3125), (10, 6, 0.75)])
def test_block_x_fisher_matches_exact_terms(N, m, p):
    assert exact.sector_count(N, m) <= SECTOR_LIMIT
    assert_close(fisher_information(BlockConfig(N, m), p), exact.fisher_block_x(N, m, p))


@pytest.mark.parametrize("N, m, p", [(9, 3, 0.75), (10, 5, 0.625), (6, 7, 0.875), (2, 3, 0.5), (3, 3, 0.5)])
def test_single_z_fisher_matches_exact_terms(N, m, p):
    assert exact.sector_count(N, m) <= SECTOR_LIMIT
    assert_close(fisher_information(BlockConfig(N, m), p, generator="single-z"), exact.fisher_single_z(N, m, p))


@pytest.mark.xfail(strict=True, reason="the minus-branch den and diff of single-z Fisher cancel under strong noise")
@pytest.mark.parametrize("N, m, p", [(8, 5, 1 / 64), (12, 7, 1 / 16)])
def test_single_z_fisher_under_strong_noise(N, m, p):
    # (8, 5, 1/64) is 2.3e-3 and (12, 7, 1/16) 1.1e-4 relative off; (12, 7, 1/64) returns 2.6e-33 for 2.8e-43
    assert exact.sector_count(N, m) <= SECTOR_LIMIT
    assert_close(fisher_information(BlockConfig(N, m), p, generator="single-z"), exact.fisher_single_z(N, m, p))


@pytest.mark.parametrize("N, m, p", [(1, 3, 0.5), (6, 3, 0.75), (5, 5, 0.375), (4, 7, 0.9375), (5, 4, 0.625), (3, 1, 0.5)])
def test_collapsed_block_x_reference_equals_enumeration(N, m, p):
    # exactly equal as rationals
    assert sum(block_x_collapsed_terms(N, m, p)) == sum(block_x_terms(N, m, p))


def test_block_x_fisher_keeps_terms_below_the_float_range():
    # sector weights S and T^2 underflow here; summing floats drops whole
    # sectors and returned 1.50e-15
    ref = total(block_x_collapsed_terms(100, 7, 0.5))
    assert float(ref) == pytest.approx(4.5209873731e-09, rel=1e-10)
    assert_close(fisher_information(BlockConfig(100, 7), 0.5), ref)


def test_block_x_fisher_far_below_the_float_range():
    # total(block_x_collapsed_terms(200, 3, 0.3125)) = 1.4576116958950172502e-118, evaluated once (8 s);
    # the float sum of sector terms returned 0.0
    ref = 1.4576116958950172e-118
    assert fisher_information(BlockConfig(200, 3), 0.3125) == pytest.approx(ref, rel=1e-10)


NEAR_ONE = 1 - 2.0**-38  # e- is about 3 2^-40 at m = 3 and 2^-39 at m = 1


@pytest.mark.parametrize("N, m", [(24, 3), (24, 1)])
def test_logical_weights_below_the_float_range(N, m):
    assert 0 < exact._Sectors(N, m, NEAR_ONE).e[1][N] < Fraction(2) ** -900  # e-^N: the plain float products would be subnormal
    cfg = BlockConfig(N, m)
    assert_close(fisher_information(cfg, NEAR_ONE), exact.fisher_block_x(N, m, NEAR_ONE))
    assert_close(fisher_information(cfg, NEAR_ONE, generator="single-z"), exact.fisher_single_z(N, m, NEAR_ONE))
    assert_close(negativity(cfg, NEAR_ONE), exact.negativity(N, m, NEAR_ONE))


@pytest.mark.parametrize(
    "N, m, p, rel",
    [
        (14, 3, 0.875, 1e-12),
        (30, 3, 0.8125, 1e-12),
        (8, 5, 0.9375, 1e-12),
        (6, 7, 0.75, 1e-12),
        (10, 4, 0.625, 1e-12),
        (24, 1, NEAR_ONE, 1e-12),
        # e- = (alpha^m + beta^m - p^m)/2 cancels: it rounds to 3 2^-40, 3 2^-39 (5.5e-12) relative off, and an
        # eigenvalue carrying e-^h is off by h times that (1.3e-10 measured); at m = 1 the difference 1 - p is exact
        (24, 3, NEAR_ONE, 2e-10),
    ],
)
def test_spectrum_matches_exact_terms(N, m, p, rel):
    assert N * m > 12 and exact.sector_count(N, m) <= SECTOR_LIMIT
    mults, values, scales = [], [], []
    for k, big, small in spectrum_terms(N, m, p):
        assert big >= abs(small)  # both eigenvalues are non-negative
        mults += [k, k]
        values += [big + small, big - small]
        scales += [big, big]
    assert sum(mults) == 2 ** (N * m)
    assert sum(k * value for k, value in zip(mults, values)) == 1
    spec = cghz_spectrum(BlockConfig(N, m), p)
    assert spec.multiplicities.tolist() == mults
    assert len(spec.eigenvalues) == len(values)
    # the minus branch cancels, so the error is measured against S g_h / 2, the larger term
    for engine, ref, scale in zip(spec.eigenvalues.tolist(), values, scales):
        assert abs(Fraction(engine) - ref) <= Fraction(rel) * scale, (engine, float(ref))
