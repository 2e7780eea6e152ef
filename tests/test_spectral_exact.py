"""Exact rational references for the spectral sector sums.

With a dyadic survival probability p every doublet scalar is an exact binary
fraction, so each sector term below, computed with `fractions`, is the exact
value of a term the engine evaluates in floating point; the positive terms
are summed to 60 significant digits.  The enumerations walk every composition of N over the doublet classes, with the
sector algebra written out as the `cghz.spectral` docstring states it; the
collapsed block-x sum replaces the walk over the non-logical classes by the
multinomial theorem.  The spectrum reference walks the engine's own order
(sector, h <= n/2, + branch then - branch) and checks its multiplicities and
trace exactly before it is compared.  These references reach far beyond the
dense oracle's 12 qubits.
"""

import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from cghz.spectral import cghz_spectrum, fisher_information, negativity
from cghz.states import BlockConfig

SECTOR_LIMIT = 800
DIGITS = Context(prec=60)


def total(terms):
    """Sum of exact positive rational terms, each rounded to 60 digits."""
    out = Decimal(0)
    for term in terms:
        out = DIGITS.add(out, DIGITS.divide(Decimal(term.numerator), Decimal(term.denominator)))
    return out


class Scalars:
    """Exact doublet scalars of one block at a dyadic p."""

    def __init__(self, m, p):
        p = Fraction(p)
        a, b = (1 + p) / 2, (1 - p) / 2
        weights = range(m // 2 + 1)
        u = [a ** (m - w) * b**w for w in weights]
        v = [a**w * b ** (m - w) for w in weights]
        self.s = [(x + y) / 2 for x, y in zip(u, v)]
        self.t = [(x - y) / 2 for x, y in zip(u, v)]
        self.counts = [1] + [math.comb(m, w) // (2 if 2 * w == m else 1) for w in weights[1:]]
        q = p**m
        self.e = ((2 * self.s[0] + q) / 2, (2 * self.s[0] - q) / 2)
        self.f = ((2 * self.t[0] + q) / 2, (2 * self.t[0] - q) / 2)


def power_sum(x, a, b):
    """x+^a x-^b + x+^b x-^a; g_h is power_sum(e, n - h, h), gamma_h is power_sum(f, h + 1, n - 1 - h)."""
    return x[0] ** a * x[1] ** b + x[0] ** b * x[1] ** a


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def sectors(N, m, p):
    """(scalars, n, K, S, T) for every sector: exact instances K and weights S, T."""
    sc = Scalars(m, p)
    for comp in compositions(N, len(sc.s)):
        K = math.factorial(N)
        S = T = Fraction(1)
        for w, c in enumerate(comp):
            K //= math.factorial(c)
            if w:
                K *= sc.counts[w] ** c
                S *= sc.s[w] ** c
                T *= sc.t[w] ** c
        yield sc, comp[0], K, S, T


def spectrum_terms(N, m, p):
    """(multiplicity, S g_h/2, T c_h/2) per sector and h <= n/2; the eigenvalues are S g_h/2 +- T c_h/2.

    Every sector stands for K 2^(N-n) C(n, h) eigenvector pairs; a mirror pair h = n/2 counts half its
    strings, and the n = 0 sector half its outer z patterns.
    """
    for sc, n, K, S, T in sectors(N, m, p):
        for h in range(n // 2 + 1):
            strings = math.comb(n, h) // (2 if 0 < n == 2 * h else 1)
            g, c = power_sum(sc.e, n - h, h), power_sum(sc.f, n - h, h)
            yield K * 2 ** (N - max(n, 1)) * strings, S * g / 2, T * c / 2


def negativity_terms(N, m, p):
    for sc, n, K, S, T in sectors(N, m, p):
        for h in range(n):
            neg = (T * power_sum(sc.f, h + 1, n - 1 - h) - S * power_sum(sc.e, n - h, h)) / 2
            if neg > 0:
                yield K * n // N * 2 ** (N - n) * math.comb(n - 1, h) * neg


def block_x_terms(N, m, p):
    for sc, n, K, S, T in sectors(N, m, p):
        for h in range(n + 1):
            den = S * power_sum(sc.e, n - h, h)
            if den > 0:
                cross = T * power_sum(sc.f, n - h, h)
                yield K * 2 ** (N - n + 1) * math.comb(n, h) * cross**2 / den * ((n - 2 * h) ** 2 + N - n)


def block_x_collapsed_terms(N, m, p):
    """sum over sectors with n logical blocks of K T^2/S = C(N, n) A^(N-n), A = sum counts t^2/s."""
    sc = Scalars(m, p)
    A = sum(c * t * t / s for c, s, t in zip(sc.counts[1:], sc.s[1:], sc.t[1:]) if s > 0)
    for n in range(N + 1):
        outer = math.comb(N, n) * A ** (N - n) * 2 ** (N - n + 1)
        for h in range(n + 1):
            g = power_sum(sc.e, n - h, h)
            if g > 0 and outer:
                yield outer * math.comb(n, h) * power_sum(sc.f, n - h, h) ** 2 / g * ((n - 2 * h) ** 2 + N - n)


def single_z_terms(N, m, p):
    for sc, n, K, S, T in sectors(N, m, p):
        if n < 2:
            continue
        g = [power_sum(sc.e, n - h, h) for h in range(n + 1)]
        c = [power_sum(sc.f, n - h, h) for h in range(n + 1)]
        if n == 2:
            # a lone doublet pair is driven on the symmetric branch only
            branches = ((1, 1),) if N == 2 else ((1, 2 ** (N - 3)), (-1, 2 ** (N - 3)))
            for sign, patterns in branches:
                den = (S * (g[0] + g[1]) + sign * T * (c[0] + c[1])) / 2
                if den > 0:
                    diff = (S * (g[1] - g[0]) + sign * T * (c[1] - c[0])) / 2
                    yield K * 16 * m * m * patterns * diff * diff / den
            continue
        for h in range(n):
            for sign in (1, -1):
                den = (S * (g[h] + g[h + 1]) + sign * T * (c[h] + c[h + 1])) / 2
                if den > 0:
                    diff = (S * (g[h + 1] - g[h]) + sign * T * (c[h + 1] - c[h])) / 2
                    yield K * 2 ** (N - n + 1) * m * m * math.comb(n, h) * (n - h) * diff * diff / den


def exact_negativity(N, m, p):
    return total(negativity_terms(N, m, p))


def exact_block_x(N, m, p):
    return total(block_x_terms(N, m, p))


def exact_block_x_collapsed(N, m, p):
    return total(block_x_collapsed_terms(N, m, p))


def exact_single_z(N, m, p):
    return total(single_z_terms(N, m, p))


def sector_count(N, m):
    return math.comb(N + m // 2, m // 2)


def assert_close(engine, exact, rel=1e-10):
    assert exact > 0
    assert abs(Decimal(engine) - exact) <= Decimal(rel) * exact, (engine, float(exact))


@pytest.mark.parametrize("N, m, p", [(10, 3, 0.875), (12, 5, 0.8125), (8, 7, 0.9375), (6, 4, 0.96875)])
def test_negativity_matches_exact_terms(N, m, p):
    assert sector_count(N, m) <= SECTOR_LIMIT
    assert_close(negativity(BlockConfig(N, m), p), exact_negativity(N, m, p))


@pytest.mark.parametrize("N, m, p", [(20, 3, 0.5), (12, 5, 0.875), (9, 7, 0.3125), (10, 6, 0.75)])
def test_block_x_fisher_matches_exact_terms(N, m, p):
    assert sector_count(N, m) <= SECTOR_LIMIT
    assert_close(fisher_information(BlockConfig(N, m), p), exact_block_x(N, m, p))


@pytest.mark.parametrize("N, m, p", [(9, 3, 0.75), (10, 5, 0.625), (6, 7, 0.875), (2, 3, 0.5), (3, 3, 0.5)])
def test_single_z_fisher_matches_exact_terms(N, m, p):
    assert sector_count(N, m) <= SECTOR_LIMIT
    assert_close(fisher_information(BlockConfig(N, m), p, generator="single-z"), exact_single_z(N, m, p))


@pytest.mark.parametrize("N, m, p", [(1, 3, 0.5), (6, 3, 0.75), (5, 5, 0.375), (4, 7, 0.9375), (5, 4, 0.625), (3, 1, 0.5)])
def test_collapsed_block_x_reference_equals_enumeration(N, m, p):
    # exactly equal as rationals
    assert sum(block_x_collapsed_terms(N, m, p)) == sum(block_x_terms(N, m, p))


def test_block_x_fisher_keeps_terms_below_the_float_range():
    # sector weights S and T^2 underflow here; summing floats drops whole
    # sectors and returned 1.50e-15
    exact = exact_block_x_collapsed(100, 7, 0.5)
    assert float(exact) == pytest.approx(4.5209873731e-09, rel=1e-10)
    assert_close(fisher_information(BlockConfig(100, 7), 0.5), exact)


def test_block_x_fisher_far_below_the_float_range():
    # exact_block_x_collapsed(200, 3, 0.3125) = 1.4576116958950172502e-118, evaluated once (8 s);
    # the float sum of sector terms returned 0.0
    exact = 1.4576116958950172e-118
    assert fisher_information(BlockConfig(200, 3), 0.3125) == pytest.approx(exact, rel=1e-10)


NEAR_ONE = 1 - 2.0**-38  # e- is about 3 2^-40 at m = 3 and 2^-39 at m = 1


@pytest.mark.parametrize("N, m", [(24, 3), (24, 1)])
def test_logical_weights_below_the_float_range(N, m):
    sc = Scalars(m, NEAR_ONE)
    assert 0 < sc.e[1] ** N < Fraction(2) ** -900  # e-^N: the plain float products would be subnormal
    cfg = BlockConfig(N, m)
    assert_close(fisher_information(cfg, NEAR_ONE), exact_block_x(N, m, NEAR_ONE))
    assert_close(fisher_information(cfg, NEAR_ONE, generator="single-z"), exact_single_z(N, m, NEAR_ONE))
    assert_close(negativity(cfg, NEAR_ONE), exact_negativity(N, m, NEAR_ONE))


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
    assert N * m > 12 and sector_count(N, m) <= SECTOR_LIMIT
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
    for engine, exact, scale in zip(spec.eigenvalues.tolist(), values, scales):
        assert abs(Fraction(engine) - exact) <= Fraction(rel) * scale, (engine, float(exact))
