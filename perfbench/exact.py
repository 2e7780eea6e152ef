"""Exact references that share no float path with the cghz engines.

Every term of a sector sum is evaluated exactly in rational arithmetic
(`fractions`); with a dyadic survival probability p every input is an exact
binary fraction, so each term is the exact value of the term the spectral
engine approximates in floating point.  The terms are positive and are summed
with 50 significant digits (an exact rational sum would carry the product of
all term denominators).  The closed forms for N up to 1e15 are evaluated from
exact rational block data with 50-digit `decimal` logarithms and exponentials.

The sector algebra (doublet classes, weights s_w / t_w, logical-doublet
weights g_h, c_h, gamma_h) is the one documented in `cghz.spectral`.
"""

import math
from decimal import Context
from fractions import Fraction

_CTX = Context(prec=50)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sector_count(N, m):
    """Number of sectors (compositions of N over the m//2 + 1 doublet classes)."""
    return math.comb(N + m // 2, m // 2)


class _Sectors:
    """Exact per-class scalars of the decohered state at one (N, m, p)."""

    def __init__(self, N, m, p):
        p = Fraction(p)
        alpha, beta = (1 + p) / 2, (1 - p) / 2
        q = p**m
        d, o = alpha**m + beta**m, alpha**m - beta**m
        self.N, self.m = N, m
        # powers 0..N of e+, e-, f+, f-
        self.e = [_powers((d + q) / 2, N), _powers((d - q) / 2, N)]
        self.f = [_powers((o + q) / 2, N), _powers((o - q) / 2, N)]
        self.classes = m // 2 + 1
        self.s = [None] + [
            (alpha ** (m - w) * beta**w + alpha**w * beta ** (m - w)) / 2
            for w in range(1, self.classes)
        ]
        self.t = [None] + [
            (alpha ** (m - w) * beta**w - alpha**w * beta ** (m - w)) / 2
            for w in range(1, self.classes)
        ]
        self.counts = [1] + [
            math.comb(m, w) // 2 if 2 * w == m else math.comb(m, w) for w in range(1, self.classes)
        ]

    def sectors(self):
        """(n logical blocks, instances K, S, T, K1) per composition; K1 fixes block 0 logical."""
        N = self.N
        for comp in _compositions(N, self.classes):
            n = comp[0]
            K = math.factorial(N)
            for c in comp:
                K //= math.factorial(c)
            K1 = math.factorial(N - 1) // math.factorial(n - 1) if n else 0
            S = T = Fraction(1)
            for w in range(1, self.classes):
                K *= self.counts[w] ** comp[w]
                if n:
                    K1 = K1 // math.factorial(comp[w]) * self.counts[w] ** comp[w]
                S *= self.s[w] ** comp[w]
                T *= self.t[w] ** comp[w]
            yield n, K, S, T, K1

    def g(self, n, h):
        if n == 0:
            return Fraction(2)
        ep, em = self.e
        return ep[n - h] * em[h] + ep[h] * em[n - h]

    def c(self, n, h):
        if n == 0:
            return Fraction(2)
        fp, fm = self.f
        return fp[n - h] * fm[h] + fp[h] * fm[n - h]

    def gamma(self, n, h):
        fp, fm = self.f
        return fp[h + 1] * fm[n - 1 - h] + fp[n - 1 - h] * fm[h + 1]


def _powers(x, n):
    out = [Fraction(1)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _dec(frac):
    return _CTX.divide(_CTX.create_decimal(frac.numerator), _CTX.create_decimal(frac.denominator))


def _add(total, term):
    """total + term, with the exact rational term rounded to 50 digits."""
    return _CTX.add(total, _dec(term))


def negativity(N, m, p):
    """One-block-vs-rest negativity of the decohered state (exact terms, 50-digit sum)."""
    sec = _Sectors(N, m, p)
    total = _CTX.create_decimal(0)
    for n, _, S, T, K1 in sec.sectors():
        if n == 0:
            continue
        for h in range(n):
            neg = (T * sec.gamma(n, h) - S * sec.g(n, h)) / 2
            if neg > 0:
                total = _add(total, K1 * 2 ** (N - n) * math.comb(n - 1, h) * neg)
    return total


def fisher_block_x(N, m, p):
    """Fisher information for the block-local generator sum_k X^(x)m (exact terms, 50-digit sum)."""
    sec = _Sectors(N, m, p)
    total = _CTX.create_decimal(0)
    for n, K, S, T, _ in sec.sectors():
        for h in range(n + 1):
            den = S * sec.g(n, h)
            weight = (n - 2 * h) ** 2 + (N - n)
            if den > 0 and weight and T:
                term = K * 2 ** (N - n + 1) * math.comb(n, h) * (T * sec.c(n, h)) ** 2 / den * weight
                total = _add(total, term)
    return total


def fisher_single_z(N, m, p):
    """Fisher information for sum_j Z_j over all physical qubits (exact terms, 50-digit sum)."""
    sec = _Sectors(N, m, p)
    total = _CTX.create_decimal(0)
    for n, K, S, T, _ in sec.sectors():
        if n < 2:
            continue
        g = [sec.g(n, h) for h in range(n + 1)]
        c = [sec.c(n, h) for h in range(n + 1)]
        if n == 2:
            half = 2 ** (N - n - 1) if N > n else 0
            sign_weights = ((1, 1),) if N == n else ((1, half), (-1, half))
            for sgn, patterns in sign_weights:
                den = (S * (g[0] + g[1]) + sgn * T * (c[0] + c[1])) / 2
                if den > 0:
                    diff = (S * (g[1] - g[0]) + sgn * T * (c[1] - c[0])) / 2
                    total = _add(total, K * 16 * m**2 * patterns * diff * diff / den)
            continue
        for h in range(n):
            for sgn in (1, -1):
                den = (S * (g[h] + g[h + 1]) + sgn * T * (c[h] + c[h + 1])) / 2
                if den > 0:
                    diff = (S * (g[h + 1] - g[h]) + sgn * T * (c[h + 1] - c[h])) / 2
                    term = K * 2 ** (N - n) * 2 * m**2 * math.comb(n, h) * (n - h) * diff * diff / den
                    total = _add(total, term)
    return total


def _power(base, N):
    """base**N for a Fraction base in (0, 1], as a float via 50-digit decimal logs."""
    if base <= 0:
        return 0.0
    return float(_CTX.exp(_CTX.multiply(_CTX.create_decimal(N), _CTX.ln(_dec(base)))))


def coherence_norm(N, m, p):
    """Block trace norm from the doublet sum (before any regrouping), to the N-th power."""
    p = Fraction(p)
    a, b = (1 + p) / 2, (1 - p) / 2
    block = sum(
        (math.comb(m, w) * (a ** (m - w) * b**w - a**w * b ** (m - w)) for w in range((m + 1) // 2)),
        Fraction(0),
    )
    return _power(block, N)


def distill_fidelity(N, m, p):
    """(1/4) [1 + (q/d)^2 (1 + r^(N-2)) + r^N] with r = o/d, q = p^m, exact block data."""
    p = Fraction(p)
    a, b = (1 + p) / 2, (1 - p) / 2
    d, o, q = a**m + b**m, a**m - b**m, p**m
    r = o / d
    qd2 = float((q / d) ** 2)
    return 0.25 * (1 + qd2 * (1 + _power(r, N - 2)) + _power(r, N))
