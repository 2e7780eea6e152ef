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
stars and bars) with log K, log S and log T from a log-factorial table, and
one table of g_h, c_h, gamma_h over (n, h) for the n that occur, floats while
above 2^-900, else rescaled from logs: no term is lost to underflow, only
exact zeros (kernel pairs, no cross weight) are skipped.  Negativity sorts
each n's sectors by S/T once: (n, h) can count only for S/T <= gamma_h/g_h.
Block-x Fisher terms all carry K T^2/S, which the multinomial theorem sums
over the sectors with n logical blocks to C(N, n) A^(N-n), A = sum_(w>=1,
s_w>0) counts_w t_w^2/s_w: an O(N^2) sum over (n, h).  Spectra are float64
eigenvalues with exact Python-int multiplicities.  Every sum is correctly
rounded (_exact_sum), with the bits math.fsum gives on the same terms.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, ResourceLimitError
from .channels import transfer_coefficients
from .states import BlockConfig

DEFAULT_SECTOR_CAP = 2_000_000
_LN2 = math.log(2.0)
_LOG_ZERO = -1e290  # log 0, finite so that 0 log 0 = 0 in the class sums
_TINY = 2.0**-900  # logical weights below this are rescaled from logarithms
_E, _F = 0, 2  # power-table rows of e+ and f+; e- and f- follow each
_FSUM_TERMS = 1 << 11  # sums of fewer terms go to math.fsum, cheaper than the bucket sum's fixed numpy cost
_CHUNK = 1 << 12  # pairs per block gathered from the (n, h) table, and terms per bucket pass: bounds the temporaries
_FLUSH = 1 << 26  # terms per bucket accumulation (>= _CHUNK): 2^26 halves below 2^27 still sum exactly in float64
_BUCKETS = 2046  # exponent buckets: the unit of bucket b is 2^(b - 1074), from subnormals to 2^971


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigenvalues (float64) with parallel exact multiplicities (Python ints in an object array).

    Order: sectors in `_compositions` order, then h ascending, then the + branch before the - branch.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    total_dim: int

    def multiplicity_total(self):
        return sum(self.multiplicities.tolist())

    def weighted_sum(self):
        top = self.multiplicities.max()  # float() rounds 2^1024 - 2^970 up to 2^1024: then scale all by 2^-k
        k = 0 if top < 2**1024 - 2**970 else top.bit_length() - 1023
        weights = self.multiplicities if k == 0 else self.multiplicities / (1 << k)
        return math.ldexp(_exact_sum(lambda: [self.eigenvalues * weights.astype(float)]), k)

    def expanded(self):
        """All eigenvalues repeated by multiplicity, ascending (oracle-comparison aid)."""
        if self.total_dim > 1 << 22:
            raise ResourceLimitError(f"refusing to expand {self.total_dim} eigenvalues")
        out = np.repeat(self.eigenvalues, self.multiplicities.astype(np.intp))
        out.sort()
        return out


def _log(x):
    return math.log(x) if x > 0 else _LOG_ZERO


def _exact_sum(terms):
    """math.fsum of every float64 term in the blocks that `terms()` yields, bit for bit, streaming the blocks.

    Sums of fewer than _FSUM_TERMS terms go to math.fsum.  Larger ones are
    summed exactly in exponent buckets (_bucket_sum) and rounded once.  Where
    that cannot decide the result (a non-finite term, partial sums that may
    leave the float range, a zero sum whose sign varies between Python
    versions), `terms()` is called again and math.fsum sums the blocks.
    """
    blocks, kept, count = iter(terms()), [], 0
    for block in blocks:
        kept.append(block)
        count += block.size
        if count >= _FSUM_TERMS:
            total = _bucket_sum(chain(kept, blocks))
            return _fsum(terms()) if total is None else total
    return _fsum(kept)


def _fsum(blocks):
    return math.fsum(chain.from_iterable(map(np.ndarray.tolist, blocks)))


def _bucket_sum(blocks):
    """The correctly rounded sum of float64 blocks, or None where only math.fsum's own rules decide it.

    None is returned for a non-finite term, a sum near overflow, or a zero sum (the sign math.fsum gives that zero
    varies between Python versions).

    A finite term x is M 2^e with an integer |M| < 2^53 and e = max(exponent - 53, -1074), so subnormals are exact.
    M / 2^26 splits (np.modf) into a whole part below 2^27 and a fraction in steps of 2^-26, and one np.bincount
    per part sums them per e: exact in float64 for up to _FLUSH terms, after which the buckets go into a Python int
    in units of 2^-1074.  The int's true division by 2^1074 is correctly rounded, subnormal results included.  No
    partial sum of math.fsum can overflow while sum |x| < 2^1023, which count 2^(largest exponent) bounds.
    """
    total, count, top, since = 0, 0, 0, 0
    sums = np.zeros((2, _BUCKETS))  # whole parts, fractions
    for x in (block[i : i + _CHUNK] for block in blocks for i in range(0, block.size, _CHUNK)):
        if not np.isfinite(x).all():
            return None
        if since + x.size > _FLUSH:
            total, since, sums = total + _bucket_int(sums), 0, np.zeros((2, _BUCKETS))
        bucket = np.maximum(np.frexp(x)[1], -1021) + 1021  # e + 1074
        part, integral = np.modf(np.ldexp(x, 1048 - bucket))  # M / 2^26 = x 2^(27 - exponent)
        sums[0] += np.bincount(bucket, integral, _BUCKETS)
        sums[1] += np.bincount(bucket, part, _BUCKETS)
        top = max(top, int(bucket.max()))
        count, since = count + x.size, since + x.size
    if count.bit_length() + top > 2044:  # count 2^(top - 1021) >= 2^1023
        return None
    total += _bucket_int(sums)
    return total / (1 << 1074) if total else None


def _bucket_int(sums):
    """sum_b (whole_b + fraction_b) 2^(26 + b) as a Python int."""
    nonzero = np.flatnonzero(sums.any(axis=0))
    whole, frac = sums[:, nonzero] * [[1.0], [1 << 26]]
    return sum(((int(w) << 26) + int(f)) << b for b, w, f in zip(nonzero.tolist(), whole.tolist(), frac.tolist()))


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


def _runs(lengths):
    """(item, offset) index arrays for every offset < lengths[item], item-major, in blocks of _CHUNK pairs."""
    ends = lengths.cumsum()
    starts, total = ends - lengths, int(ends[-1]) if len(ends) else 0
    for first in range(0, total, _CHUNK):
        flat = np.arange(first, min(first + _CHUNK, total))
        item = ends.searchsorted(flat, side="right")
        yield item, flat - starts[item]


class _Table:
    """One (N, m, p): doublet scalars, power tables of e+- and f+- (rows _E, _E+1, _F, _F+1), log factorials."""

    def __init__(self, cfg: BlockConfig, p):
        self.alg = alg = doublet_algebra(cfg.m, p)
        N = self.N = cfg.N
        n_sectors = math.comb(N + len(alg.s) - 1, len(alg.s) - 1)
        if n_sectors > DEFAULT_SECTOR_CAP:
            raise ResourceLimitError(f"spectral engine: {n_sectors} sectors exceed the cap of {DEFAULT_SECTOR_CAP}")
        s0, t0, q = alg.s[0], alg.t[0], alg.q  # e-, f- >= 0 exactly; the clamp drops a rounding sign at m = 1
        bases = ((2 * s0 + q) / 2, max((2 * s0 - q) / 2, 0.0), (2 * t0 + q) / 2, max((2 * t0 - q) / 2, 0.0))
        # a nonzero product of two powers is at least min(base)^N; if that is >= _TINY no logs are needed
        self.normal = min(x for x in bases if x > 0) ** N >= _TINY
        k = np.arange(N + 1)
        self.powers = np.power.outer(bases, k)
        self.logs = None if self.normal else np.array([_log(x) for x in bases])[:, None] * k
        self.lf = np.array([math.lgamma(j + 1.0) for j in range(N + 1)])

    def sectors(self, shift=0.0):
        """Class columns (column 0 is n), log K + shift (N - n), log S and log T/S (from t_w/s_w) per sector."""
        alg = self.alg
        cols = _compositions(self.N, len(alg.s))
        log_k = self.lf[self.N] - self.lf[cols[0]]
        log_s = log_ts = np.zeros(len(log_k))  # rebound, never written in place
        for c, count, s, t in zip(cols[1:], alg.counts[1:], alg.s[1:], alg.t[1:]):
            log_k = log_k - self.lf[c] + c * (math.log(count) + shift)
            log_s, log_ts = log_s + c * _log(s), log_ts + c * (_log(t / s) if s > 0 else _LOG_ZERO)
        return cols, log_k, log_s, log_ts

    def logical(self, n, width, weights):
        """The (n, h) table over the distinct n of the sectors `n`, h < width(n), and its logical weights.

        Returns each sector's offset (its entry for h is offset + h), the entries' n and h, per (table row, d)
        the weight x+^(n-b) x-^b + x+^b x-^(n-b) at b = h + d, and a log scale per entry: plain float power
        sums while all of an entry's are >= _TINY, else redone from logarithms relative to the largest weight.
        """
        js = np.bincount(n, minlength=1).nonzero()[0]
        sizes = width(js)
        base = np.zeros(self.N + 1, dtype=np.intp)
        base[js] = sizes.cumsum() - sizes
        j = js.repeat(sizes)
        h = np.arange(len(j)) - base[j]
        rest, values, logs = j - h, [], []
        for i, d in weights:
            a, b = (rest - d, h + d) if d else (rest, h)
            x, y = self.powers[i], self.powers[i + 1]
            values.append(x[a] * y[b] + x[b] * y[a])
            if not self.normal:
                x, y = self.logs[i], self.logs[i + 1]
                logs.append(np.logaddexp(x[a] + y[b], x[b] + y[a]))
        if self.normal:
            return base[n], j, h, values, np.zeros(len(h))
        values, logs = np.array(values), np.array(logs)
        low = ((values < _TINY) & (logs > _LOG_ZERO / 2)).any(axis=0)
        scale = np.where(low, logs.max(axis=0), 0.0)
        return base[n], j, h, np.where(low, np.exp(logs - scale), values), scale


def cghz_spectrum(cfg: BlockConfig, p):
    """Exact eigenvalues (S g_h +- T c_h)/2 per sector and h <= n/2, with exact integer multiplicities.

    A pair's multiplicity is the sector's instance count N!/prod(c!) prod(counts^c) 2^(N-n) times
    C(n, h); a mirror pair h = n/2 counts half its strings (C(n, n/2) is even for n > 0; the n = 0
    sector halves its outer z patterns instead).
    """
    tab = _Table(cfg, p)
    N = tab.N
    cols, _, log_s, log_ts = tab.sectors()
    log_t = log_s + log_ts
    n = cols[0]
    fact = np.array([math.factorial(j) for j in range(N + 1)], dtype=object)
    instances = np.array([fact[N] << (N - j) for j in range(N + 1)], dtype=object)[np.maximum(n, 1)]
    for c, count in zip(cols, tab.alg.counts):
        instances = instances // fact[c] * np.array([count**j for j in range(N + 1)], dtype=object)[c]
    offset, j, h, (g, c), scale = tab.logical(n, lambda j: j // 2 + 1, [(_E, 0), (_F, 0)])
    strings = np.array([math.comb(a, b) >> (0 < a == 2 * b) for a, b in zip(j.tolist(), h.tolist())], object)
    values, mults = [], []
    with np.errstate(divide="ignore"):
        log_g, log_c = np.log(g), np.log(c)
        for rows, h in _runs(n // 2 + 1):
            at = offset[rows] + h
            big = np.exp(log_s[rows] + scale[at] + log_g[at]) / 2
            small = np.exp(log_t[rows] + scale[at] + log_c[at]) / 2
            values.append(np.array([big + small, big - small]).T.ravel())
            mults.append((instances[rows] * strings[at]).repeat(2))
    return SectorSpectrum(np.concatenate(values), np.concatenate(mults), total_dim=1 << cfg.qubits)


def negativity(cfg: BlockConfig, p):
    """Sum of |negative eigenvalues| of the state partially transposed on one block.

    Sectors with the transposed block in a w >= 1 class are unchanged by the
    transpose and stay positive; only sectors placing it in the logical
    class contribute, with the cross weight c_h replaced by gamma_h.
    """
    tab = _Table(cfg, p)
    cols, log_k, log_s, log_ts = tab.sectors(shift=_LN2)
    keep = (log_ts > _LOG_ZERO / 2).nonzero()[0]  # needs a cross weight; n = 0 has no table entry
    n = cols[0][keep]
    _, j, h, (gamma, g), scale = tab.logical(n, lambda j: j, [(_F, 1), (_E, 0)])
    log_c = tab.lf[j - 1] - tab.lf[h] - tab.lf[j - 1 - h]
    large = log_c > 20.0  # C(n-1, h) below e^20 is rounded to the exact integer
    coef, log_c = np.rint(np.exp(log_c * ~large)), log_c * large
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_w = (log_k + log_s + log_ts)[keep] + np.log(n / cfg.N)  # K1 = K n/N (block 0 logical) 2^(N-n) T
        # sort by n, then S/T (inf past the float range): a kept pair has g S/T < gamma, so S/T <= fl(gamma/g)
        keys = n.astype(complex)
        keys.imag = np.exp(-log_ts[keep])
        order = keys.argsort()
        keys, log_w = keys[order], log_w[order]
        bound = j.astype(complex)
        bound.imag = np.fmax(gamma / g, 0.0)
        first = n.searchsorted(j)  # n ascends in _compositions order, so each n keeps its positions
        lengths = keys.searchsorted(bound, side="right") - first

        def terms():
            for at, i in _runs(lengths):
                row = first[at] + i
                neg = coef[at] * ((gamma[at] - keys.imag[row] * g[at]) / 2)
                pos = (neg > 0.0).nonzero()[0]
                yield np.exp((log_w[row] + scale[at] + log_c[at])[pos]) * neg[pos]

        return _exact_sum(terms)


def fisher_information(cfg: BlockConfig, p, generator="block-x"):
    """Quantum Fisher information of the decohered state for a local generator.

    generator="block-x": sum over blocks of sigma_x^(x)m (the block-local
    rotation the state is designed for).  generator="single-z": sum of
    sigma_z over all physical qubits, the standard GHZ phase generator.
    Eigenvalue pairs with an exactly vanishing weight S g are kernel pairs
    and are skipped.
    """
    if generator not in ("block-x", "single-z"):
        raise InputError(f"unknown generator {generator!r}")
    tab = _Table(cfg, p)
    terms = _block_x_terms if generator == "block-x" else _single_z_terms
    with np.errstate(divide="ignore", invalid="ignore"):
        return _exact_sum(lambda: terms(tab))


def _block_x_terms(tab):
    """Terms over (n, h): the sectors with n logical blocks sum K T^2/S to C(N, n) A^(N-n)."""
    N, alg, lf = tab.N, tab.alg, tab.lf
    weights = zip(alg.counts[1:], alg.s[1:], alg.t[1:])
    classes = [math.log(c) + 2 * math.log(t) - math.log(s) for c, s, t in weights if t > 0]
    log_a = float(np.logaddexp.reduce(classes)) if classes else 0.0  # A = 0 leaves only n = N
    _, n, h, (c, g), scale = tab.logical(np.arange(0 if classes else N, N + 1), lambda j: j + 1, [(_F, 0), (_E, 0)])
    log_n = lf[N] - lf[N - n] + (N - n) * (log_a + _LN2) + _LN2  # log C(N, n) n! A^(N-n) 2^(N-n+1)
    weight = (n - 2 * h) ** 2 + (N - n)
    log_term = log_n + scale - lf[h] - lf[n - h] + 2 * np.log(c) - np.log(g) + np.log(weight)
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
    offset, j, h, (g0, g1, c0, c1), scale = tab.logical(n, lambda j: j, [(_E, 0), (_E, 1), (_F, 0), (_F, 1)])
    g_sum, g_diff, c_sum, c_diff = g0 + g1, g1 - g0, c0 + c1, c1 - c0
    lf_h, lf_rest, log_rest = lf[h], lf[j - h], np.log(j - h)
    for rows, h in _runs(n):
        at = offset[rows] + h
        cross = sign * ratio[rows]
        den = (g_sum[at] + cross * c_sum[at]) / 2
        diff = (g_diff[at] + cross * c_diff[at]) / 2
        log_pair = log_w[rows] + scale[at] - lf_h[at] - lf_rest[at] + log_rest[at]
        yield np.exp((log_pair + 2 * np.log(np.abs(diff)) - np.log(den))[den > 0])


def cramer_rao_bound(fisher, repetitions=1):
    """Phase-estimation precision floor 1/sqrt(n F)."""
    if fisher <= 0:
        raise InputError(f"Fisher information must be positive, got {fisher}")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    return 1.0 / math.sqrt(repetitions * fisher)
