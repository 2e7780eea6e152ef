"""Exact spectra of decohered concatenated-GHZ states via doublet symmetry.

The decohered state is (1/2) sum over sign pairs (a, b) of R_ab^(x)N with
R_ab = E^(x)m |GHZ^a><GHZ^b|.  Every R_ab is block diagonal over doublets
{|k>, |~k>}.  With u_w = alpha^(m-w) beta^w and v_w = alpha^w beta^(m-w) at
lighter weight w (alpha, beta the population transfer coefficients), the
noisy block is fixed by one table of scalars, for every w including 0:

    s_w = (u_w + v_w)/2,   t_w = (u_w - v_w)/2,   q = p^m.

On a w >= 1 doublet the same-sign channels act as the scalar s_w and the
cross channels as +t_w on |k>, -t_w on |~k>.  The weight-0 (logical)
doublet has the same diagonal plus the only off-diagonal entries,
b q/2 above and a q/2 below, so all non-commutativity sits there.  A
*sector* assigns one doublet class to each block; only the multiset of
classes matters, giving multinomial multiplicities times per-class doublet
counts.  Inside a sector with n logical blocks, rotating each logical
doublet by a Hadamard leaves a second doublet structure over n-bit strings
x, and every eigenvalue is

    ( S g_h  +/-  T c_h ) / 2,            h = |x|,

with S, T the products of s_w, t_w over the non-logical blocks and

    g_h = e+^(n-h) e-^h + e+^h e-^(n-h),   e+- = (d +/- q)/2,
    c_h = f+^(n-h) f-^h + f+^h f-^(n-h),   f+- = (o +/- q)/2,

where d = 2 s_0 and o = 2 t_0 are the sum and difference of the logical
populations alpha^m +/- beta^m.  Partially transposing the first block
replaces c_h by the shifted cross weight
gamma_h = f+^(h+1) f-^(n-1-h) + f+^(n-1-h) f-^(h+1), which is what feeds the
negativity.  The block-local generator sum_k sigma_x^(x)m preserves every
doublet, so Fisher-information matrix elements are intra-sector and close
in the same scalar table.

Each call builds one sector table (every composition of N over the classes,
stars and bars) with log K, log S and log T from a log-factorial table; g_h,
c_h, gamma_h are floats while above 2^-900, else rescaled from logs.  So no
term is lost to underflow: only exact zeros (kernel pairs, no cross weight)
are skipped.  Block-x Fisher terms all carry K T^2/S, which the multinomial
theorem sums over the sectors with n logical blocks to C(N, n) A^(N-n),
A = sum_(w>=1, s_w>0) counts_w t_w^2/s_w: an O(N^2) sum over (n, h).
Multiplicities are exact integers; reductions accumulate with math.fsum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .channels import transfer_coefficients
from .states import BlockConfig

DEFAULT_SECTOR_CAP = 2_000_000
_LN2 = math.log(2.0)
_LOG_ZERO = -1e290  # log 0, finite so that 0 log 0 = 0 in the class sums
_TINY = 2.0**-900  # logical weights below this are rescaled from logarithms
_BLOCK = 1 << 10  # (row, h) pairs per vectorised block: bounds the temporaries


@dataclass(frozen=True)
class DoubletAlgebra:
    """The scalars through which the noisy block acts on every doublet class w = 0..m//2 (lighter weight)."""

    m: int
    p: float
    q: float  # logical coherence p^m
    counts: tuple  # doublets per class
    s: tuple  # same-sign weights (u_w + v_w)/2
    t: tuple  # cross weights (u_w - v_w)/2


def doublet_count(m, w):
    """Number of doublets whose lighter member has Hamming weight w."""
    return 1 if w == 0 else math.comb(m, w) // (2 if 2 * w == m else 1)


def doublet_algebra(m, p):
    """Exact scalar table (q, counts, s, t) of E^(x)m |GHZ^a><GHZ^b| over doublet classes."""
    if m < 1:
        raise InputError(f"block size must be >= 1, got {m}")
    alpha, beta, p = transfer_coefficients(p)
    weights = range(m // 2 + 1)
    u = [alpha ** (m - w) * beta**w for w in weights]
    v = [alpha**w * beta ** (m - w) for w in weights]
    s = tuple((uw + vw) / 2 for uw, vw in zip(u, v))
    t = tuple((uw - vw) / 2 for uw, vw in zip(u, v))
    return DoubletAlgebra(m=m, p=p, q=p**m, counts=tuple(doublet_count(m, w) for w in weights), s=s, t=t)


@dataclass(frozen=True, slots=True)
class SpectrumEntry:
    eigenvalue: float
    multiplicity: int  # exact


@dataclass(frozen=True)
class SectorSpectrum:
    entries: tuple
    total_dim: int

    def multiplicity_total(self):
        return sum(e.multiplicity for e in self.entries)

    def weighted_sum(self):
        return math.fsum(e.eigenvalue * e.multiplicity for e in self.entries)

    def expanded(self):
        """All eigenvalues repeated by multiplicity, ascending (oracle-comparison aid)."""
        if self.total_dim > 1 << 22:
            raise ResourceLimitError(f"refusing to expand {self.total_dim} eigenvalues")
        out = np.repeat([e.eigenvalue for e in self.entries], [e.multiplicity for e in self.entries])
        out.sort()
        return out


def _log(x):
    return math.log(x) if x > 0 else _LOG_ZERO


def _compositions(N, parts):
    """Every composition of N over `parts` classes (lexicographic, class 0 first), one column per class."""
    if parts == 1:
        return [np.array([N])]
    cols, left = [np.arange(N + 1)], N - np.arange(N + 1)
    for _ in range(parts - 2):
        rows = np.repeat(np.arange(len(left)), left + 1)
        first = np.arange(len(rows)) - np.repeat(np.cumsum(left + 1) - left - 1, left + 1)
        cols, left = [c[rows] for c in cols] + [first], left[rows] - first
    return cols + [left]


class _Table:
    """One (N, m, p): doublet scalars, power tables of e+- and f+- (rows E, E+1, F, F+1), log factorials."""

    E, F = 0, 2

    def __init__(self, cfg: BlockConfig, p, max_sectors):
        self.alg = alg = doublet_algebra(cfg.m, p)
        N = self.N = cfg.N
        n_sectors = math.comb(N + len(alg.s) - 1, len(alg.s) - 1)
        if n_sectors > max_sectors:
            raise ResourceLimitError(f"spectral engine: {n_sectors} sectors exceed the cap of {max_sectors}")
        s0, t0, q = alg.s[0], alg.t[0], alg.q  # e-, f- >= 0 exactly; the clamp drops a rounding sign at m = 1
        bases = ((2 * s0 + q) / 2, max((2 * s0 - q) / 2, 0.0), (2 * t0 + q) / 2, max((2 * t0 - q) / 2, 0.0))
        # a nonzero product of two powers is at least min(base)^N; if that is >= _TINY no logs are needed
        self.normal = min(x for x in bases if x > 0) ** N >= _TINY
        k = np.arange(N + 1)
        self.powers = np.array(bases)[:, None] ** k
        self.logs = None if self.normal else np.array([_log(x) for x in bases])[:, None] * k
        self.lf = np.array([math.lgamma(j + 1.0) for j in range(N + 1)])

    def sectors(self, shift=0.0):
        """Class columns (column 0 is n), log K + shift (N - n), log S and log T/S (from t_w/s_w) per sector."""
        alg = self.alg
        cols = _compositions(self.N, len(alg.s))
        log_k = self.lf[self.N] - self.lf[cols[0]]
        log_s, log_ts = np.zeros(len(log_k)), np.zeros(len(log_k))
        for c, count, s, t in zip(cols[1:], alg.counts[1:], alg.s[1:], alg.t[1:]):
            log_k = log_k - self.lf[c] + c * (math.log(count) + shift)
            log_s, log_ts = log_s + c * _log(s), log_ts + c * (_log(t / s) if s > 0 else _LOG_ZERO)
        return cols, log_k, log_s, log_ts

    def pairs(self, counts):
        """(row, h) index arrays for h < counts[row] <= N + 1, in blocks of at most _BLOCK pairs."""
        step = max(1, _BLOCK // (self.N + 1))
        for start in range(0, len(counts), step):
            reps = counts[start : start + step]
            rows = np.arange(start, start + len(reps)).repeat(reps)
            yield rows, np.arange(len(rows)) - (reps.cumsum() - reps).repeat(reps)

    def logical(self, weights):
        """Logical weights x+^a x-^b + x+^b x-^a, one row per (table row, a, b), and a log scale per pair.

        Weights are plain float power sums while all of a pair's are >= _TINY; other pairs are redone
        from logarithms relative to their largest weight, whose log is the scale: none underflows.
        """
        rows = np.array([[r] for i, _, _ in weights for r in (i, i + 1, i, i + 1)])
        cols = np.array([x for _, a, b in weights for x in (a, b, b, a)])
        terms = self.powers[rows, cols]
        terms = terms[0::2] * terms[1::2]
        values = terms[0::2] + terms[1::2]
        if self.normal:
            return values, 0.0
        terms = self.logs[rows, cols]
        terms = terms[0::2] + terms[1::2]
        logs = np.logaddexp(terms[0::2], terms[1::2])
        low = ((values < _TINY) & (logs > _LOG_ZERO / 2)).any(axis=0)
        scale = np.where(low, logs.max(axis=0), 0.0)
        return np.where(low, np.exp(logs - scale), values), scale


def cghz_spectrum(cfg: BlockConfig, p, max_sectors=DEFAULT_SECTOR_CAP):
    """Exact eigenvalues of the decohered state with integer multiplicities."""
    tab = _Table(cfg, p, max_sectors)
    return SectorSpectrum(entries=tuple(_spectrum_entries(tab)), total_dim=1 << (cfg.N * cfg.m))


def _spectrum_entries(tab):
    """(S g_h +- T c_h)/2 per sector and h <= n/2, with multiplicity instances * 2^(N-n) * C(n, h).

    Instances are N!/prod(c!) prod(counts^c); a mirror pair h = n/2 counts half its strings
    (C(n, n/2) is even for n > 0; the n = 0 sector halves its outer z patterns instead).
    """
    N, counts = tab.N, tab.alg.counts
    cols, _, log_s, log_ts = tab.sectors()
    log_t = log_s + log_ts
    n = cols[0]
    fact = [math.factorial(j) for j in range(N + 1)]
    strings = [[math.comb(j, i) >> (0 < j == 2 * i) for i in range(j // 2 + 1)] for j in range(N + 1)]
    with np.errstate(divide="ignore"):
        for rows, h in tab.pairs(n // 2 + 1):
            (g, c), scale = tab.logical([(tab.E, n[rows] - h, h), (tab.F, n[rows] - h, h)])
            big = np.exp(log_s[rows] + scale + np.log(g)) / 2
            small = np.exp(log_t[rows] + scale + np.log(c)) / 2
            values = iter(np.stack([big + small, big - small], axis=1).ravel())
            for comp in zip(*(col[rows[0] : rows[-1] + 1].tolist() for col in cols)):
                k = fact[N] << (N - comp[0] - (comp[0] == 0))
                for blocks, count in zip(comp, counts):
                    k = k // fact[blocks] * count**blocks
                for mult in map(k.__mul__, strings[comp[0]]):
                    yield SpectrumEntry(next(values), mult)
                    yield SpectrumEntry(next(values), mult)


def negativity(cfg: BlockConfig, p, max_sectors=DEFAULT_SECTOR_CAP):
    """Sum of |negative eigenvalues| of the state partially transposed on one block.

    Sectors with the transposed block in a w >= 1 class are unchanged by the
    transpose and stay positive; only sectors placing it in the logical
    class contribute, with the cross weight c_h replaced by gamma_h.
    """
    tab = _Table(cfg, p, max_sectors)
    cols, log_k, log_s, log_ts = tab.sectors(shift=_LN2)
    keep = ((cols[0] > 0) & (log_ts > _LOG_ZERO / 2)).nonzero()[0]  # needs a cross weight
    n = cols[0][keep]
    log_w = (log_k + log_s + log_ts)[keep] + np.log(n / cfg.N)  # K1 = K n/N (block 0 logical) 2^(N-n) T
    ratio = np.exp(-log_ts[keep])  # S / T
    terms = [np.zeros(0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, h in tab.pairs(n):
            rest = n[rows] - 1 - h
            (gamma, g), scale = tab.logical([(tab.F, h + 1, rest), (tab.E, rest + 1, h)])
            log_c = tab.lf[n[rows] - 1] - tab.lf[h] - tab.lf[rest]
            large = log_c > 20.0  # C(n-1, h) below e^20 is rounded to the exact integer
            neg = np.rint(np.exp(log_c * ~large)) * ((gamma - ratio[rows] * g) / 2)
            pos = (neg > 0.0).nonzero()[0]
            terms.append(np.exp((log_w[rows] + scale + log_c * large)[pos]) * neg[pos])
    return math.fsum(np.concatenate(terms))


def fisher_information(cfg: BlockConfig, p, generator="block-x", max_sectors=DEFAULT_SECTOR_CAP):
    """Quantum Fisher information of the decohered state for a local generator.

    generator="block-x": sum over blocks of sigma_x^(x)m (the block-local
    rotation the state is designed for).  generator="single-z": sum of
    sigma_z over all physical qubits, the standard GHZ phase generator.
    Eigenvalue pairs with an exactly vanishing weight S g are kernel pairs
    and are skipped.
    """
    if generator not in ("block-x", "single-z"):
        raise InputError(f"unknown generator {generator!r}")
    tab = _Table(cfg, p, max_sectors)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = _block_x_terms(tab) if generator == "block-x" else _single_z_terms(tab)
        return math.fsum(np.concatenate([np.zeros(0), *terms]))


def _block_x_terms(tab):
    """Terms over (n, h): the sectors with n logical blocks sum K T^2/S to C(N, n) A^(N-n)."""
    N, alg, lf = tab.N, tab.alg, tab.lf
    weights = zip(alg.counts[1:], alg.s[1:], alg.t[1:])
    classes = [math.log(c) + 2 * math.log(t) - math.log(s) for c, s, t in weights if t > 0]
    log_a = float(np.logaddexp.reduce(classes)) if classes else 0.0
    n = np.arange(0 if classes else N, N + 1)  # with A = 0 only the all-logical sector is left
    log_n = lf[N] - lf[N - n] + (N - n) * (log_a + _LN2) + _LN2  # log C(N, n) n! A^(N-n) 2^(N-n+1)
    for rows, h in tab.pairs(n + 1):
        nn = n[rows]
        (c, g), scale = tab.logical([(tab.F, nn - h, h), (tab.E, nn - h, h)])
        weight = (nn - 2 * h) ** 2 + (N - nn)
        log_term = log_n[rows] + scale - lf[h] - lf[nn - h] + 2 * np.log(c) - np.log(g) + np.log(weight)
        yield np.exp(log_term[(g > 0).nonzero()[0]])


def _single_z_terms(tab):
    """Terms over (sector, h, branch sign) for the sectors with n >= 2 logical blocks.

    sum sigma_z acts as m X on each rotated logical doublet and is diagonal elsewhere, hopping h -> h+1
    (diagonal on the eigenbasis for one logical block).  Each ordered eigenvector pair is linked by one
    block with element +-m, and the outer z patterns split evenly over the branch signs, except for a
    lone doublet pair (n = N = 2): both blocks drive it, on the symmetric branch only, which doubles it.
    """
    N, m, lf = tab.N, tab.alg.m, tab.lf
    cols, log_k, log_s, log_ts = tab.sectors(shift=_LN2)
    keep = ((cols[0] >= 2) & (log_s > _LOG_ZERO / 2)).nonzero()[0]
    n = cols[0][keep]
    log_w = (log_k + log_s)[keep] + lf[n] + math.log(2 * m * m) + (_LN2 if N == 2 else 0.0)
    ratio = np.exp(log_ts[keep])  # T / S
    sign = np.array([[1.0]] if N == 2 else [[1.0], [-1.0]])
    for rows, h in tab.pairs(n):
        nn = n[rows]
        (g0, g1, c0, c1), scale = tab.logical(
            [(tab.E, nn - h, h), (tab.E, nn - h - 1, h + 1), (tab.F, nn - h, h), (tab.F, nn - h - 1, h + 1)]
        )
        cross = sign * ratio[rows]
        den = (g0 + g1 + cross * (c0 + c1)) / 2
        diff = (g1 - g0 + cross * (c1 - c0)) / 2
        log_pair = log_w[rows] + scale - lf[h] - lf[nn - h] + np.log(nn - h)
        yield np.exp((log_pair + 2 * np.log(np.abs(diff)) - np.log(den))[den > 0])


def cramer_rao_bound(fisher, repetitions=1):
    """Phase-estimation precision floor 1/sqrt(n F)."""
    if fisher <= 0:
        raise InputError(f"Fisher information must be positive, got {fisher}")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    return 1.0 / math.sqrt(repetitions * fisher)
