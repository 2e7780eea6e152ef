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

Multiplicity bookkeeping is exact integer arithmetic throughout; reductions
accumulate with math.fsum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .channels import transfer_coefficients
from .states import BlockConfig

DEFAULT_SECTOR_CAP = 2_000_000


@dataclass(frozen=True)
class DoubletAlgebra:
    """The scalars through which the noisy block acts on every doublet class.

    Index w is the lighter Hamming weight of the doublet, 0..m//2.
    """

    m: int
    p: float
    q: float  # logical coherence p^m
    counts: tuple  # doublets per class
    s: tuple  # same-sign weights (u_w + v_w)/2
    t: tuple  # cross weights (u_w - v_w)/2


def doublet_count(m, w):
    """Number of doublets whose lighter member has Hamming weight w."""
    if w == 0:
        return 1
    if 2 * w == m:
        return math.comb(m, w) // 2
    return math.comb(m, w)


def doublet_algebra(m, p):
    """Exact scalar table (q, counts, s, t) of E^(x)m |GHZ^a><GHZ^b| over doublet classes."""
    if m < 1:
        raise InputError(f"block size must be >= 1, got {m}")
    alpha, beta, p = transfer_coefficients(p)
    weights = range(m // 2 + 1)
    u = [alpha ** (m - w) * beta**w for w in weights]
    v = [alpha**w * beta ** (m - w) for w in weights]
    return DoubletAlgebra(
        m=m,
        p=p,
        q=p**m,
        counts=tuple(doublet_count(m, w) for w in weights),
        s=tuple((uw + vw) / 2 for uw, vw in zip(u, v)),
        t=tuple((uw - vw) / 2 for uw, vw in zip(u, v)),
    )


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
        out = np.empty(self.total_dim)
        pos = 0
        for e in self.entries:
            out[pos : pos + e.multiplicity] = e.eigenvalue
            pos += e.multiplicity
        out.sort()
        return out


class _Engine:
    """Shared scalar data for the sector sums at one (N, m, p)."""

    def __init__(self, cfg: BlockConfig, p, max_sectors=DEFAULT_SECTOR_CAP):
        alg = doublet_algebra(cfg.m, p)
        self.cfg = cfg
        self.s, self.t, self.counts = alg.s, alg.t, alg.counts
        self.n_classes = len(alg.s)
        self.e_plus, self.e_minus = (2 * alg.s[0] + alg.q) / 2, (2 * alg.s[0] - alg.q) / 2
        self.f_plus, self.f_minus = (2 * alg.t[0] + alg.q) / 2, (2 * alg.t[0] - alg.q) / 2
        n_sectors = math.comb(cfg.N + self.n_classes - 1, self.n_classes - 1)
        if n_sectors > max_sectors:
            raise ResourceLimitError(
                f"spectral engine: {n_sectors} sectors exceed the cap of {max_sectors}"
            )

    def compositions(self):
        """All compositions of N over the weight classes, class 0 first."""
        N, parts = self.cfg.N, self.n_classes

        def rec(total, k):
            if k == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in rec(total - first, k - 1):
                    yield (first,) + rest

        return rec(N, parts)

    def sector_factors(self, comp):
        """(instances K, scalar S, scalar T) for one composition; K is exact."""
        N = self.cfg.N
        K = math.factorial(N)
        for c in comp:
            K //= math.factorial(c)
        S = 1.0
        T = 1.0
        for w in range(1, self.n_classes):
            K *= self.counts[w] ** comp[w]
            S *= self.s[w] ** comp[w]
            T *= self.t[w] ** comp[w]
        return K, S, T

    def g_c_arrays(self, n):
        """g_h and c_h for h = 0..n (h-symmetric); the n = 0 convention is g = c = 2."""
        if n == 0:
            return np.array([2.0]), np.array([2.0])
        h = np.arange(n + 1)
        g = self.e_plus ** (n - h) * self.e_minus**h + self.e_plus**h * self.e_minus ** (n - h)
        c = self.f_plus ** (n - h) * self.f_minus**h + self.f_plus**h * self.f_minus ** (n - h)
        return g, c

    def gamma_array(self, n):
        """Partial-transpose cross weights gamma_h for h = 0..n-1 (n >= 1)."""
        h = np.arange(n)
        return (
            self.f_plus ** (h + 1) * self.f_minus ** (n - 1 - h)
            + self.f_plus ** (n - 1 - h) * self.f_minus ** (h + 1)
        )


def cghz_spectrum(cfg: BlockConfig, p, max_sectors=DEFAULT_SECTOR_CAP):
    """Exact eigenvalues of the decohered state with integer multiplicities."""
    eng = _Engine(cfg, p, max_sectors)
    N = cfg.N
    entries = []
    for comp in eng.compositions():
        n = comp[0]
        K, S, T = eng.sector_factors(comp)
        if n == 0:
            half = K * (1 << (N - 1))
            entries.append(SpectrumEntry(S + T, half))
            entries.append(SpectrumEntry(S - T, half))
            continue
        zmult = 1 << (N - n)
        g, c = eng.g_c_arrays(n)
        for h in range(n // 2 + 1):
            cnt = math.comb(n, h) // 2 if 2 * h == n else math.comb(n, h)
            mult = K * zmult * cnt
            entries.append(SpectrumEntry((S * g[h] + T * c[h]) / 2, mult))
            entries.append(SpectrumEntry((S * g[h] - T * c[h]) / 2, mult))
    return SectorSpectrum(entries=tuple(entries), total_dim=1 << (N * cfg.m))


def negativity(cfg: BlockConfig, p, max_sectors=DEFAULT_SECTOR_CAP):
    """Sum of |negative eigenvalues| of the state partially transposed on one block.

    Sectors with the transposed block in a w >= 1 class are unchanged by the
    transpose and stay positive; only sectors placing it in the logical
    class contribute, with the cross weight c_h replaced by gamma_h.
    """
    eng = _Engine(cfg, p, max_sectors)
    N = cfg.N
    terms = []
    for comp in eng.compositions():
        n = comp[0]
        if n == 0:
            continue
        _, S, T = eng.sector_factors(comp)
        if T == 0.0:
            continue  # negative eigenvalues need a surviving cross weight
        # instances with the transposed block in the logical class
        K1 = math.factorial(N - 1)
        K1 //= math.factorial(n - 1)
        for w in range(1, eng.n_classes):
            K1 //= math.factorial(comp[w])
            K1 *= eng.counts[w] ** comp[w]
        zmult = 1 << (N - n)
        g, _ = eng.g_c_arrays(n)
        gamma = eng.gamma_array(n)
        for h in range(n):
            neg = (T * gamma[h] - S * g[h]) / 2
            if neg > 0.0:
                terms.append(K1 * zmult * math.comb(n - 1, h) * neg)
    return math.fsum(terms)


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
    eng = _Engine(cfg, p, max_sectors)
    N = cfg.N
    terms = []
    for comp in eng.compositions():
        n = comp[0]
        K, S, T = eng.sector_factors(comp)
        g, c = eng.g_c_arrays(n)
        if generator == "block-x":
            if T == 0.0:
                continue  # every block-x term carries T^2
            acc = 0.0
            for h in range(n + 1):
                den = S * g[h]
                if den <= 0.0:
                    continue
                weight = (n - 2 * h) ** 2 + (N - n)
                if weight == 0:
                    continue
                acc += math.comb(n, h) * (T * c[h]) ** 2 / den * weight
            if acc:
                terms.append(K * 2 ** (N - n + 1) * acc)
        else:
            # sum sigma_z acts as m X on each rotated logical doublet and is
            # diagonal elsewhere, hopping the doublet label h -> h+1.  With
            # one logical block the action is diagonal on the eigenbasis; a
            # lone doublet pair (n = 2) is driven coherently by both blocks
            # (matrix element 2m on the symmetric branch), and for n >= 3
            # every ordered eigenvector pair is connected by exactly one
            # block with element +-m.
            if n < 2:
                continue
            if n == 2:
                # the driven branch sign is the eigenvector sign sigma, and
                # the eigenvalue split sign is sigma times the z-pattern
                # parity; with no outer blocks only parity +1 exists
                if N == n:
                    sign_weights = ((1.0, 1),)
                else:
                    sign_weights = ((1.0, 1 << (N - n - 1)), (-1.0, 1 << (N - n - 1)))
                contrib = 0.0
                for sgn, patterns in sign_weights:
                    den = (S * (g[0] + g[1]) + sgn * T * (c[0] + c[1])) / 2
                    if den <= 0.0:
                        continue
                    diff = (S * (g[1] - g[0]) + sgn * T * (c[1] - c[0])) / 2
                    contrib += patterns * diff * diff / den
                if contrib:
                    terms.append(K * 16 * cfg.m**2 * contrib)
                continue
            acc = 0.0
            for h in range(n):
                for sgn in (1.0, -1.0):
                    den = (S * (g[h] + g[h + 1]) + sgn * T * (c[h] + c[h + 1])) / 2
                    if den <= 0.0:
                        continue
                    diff = (S * (g[h + 1] - g[h]) + sgn * T * (c[h + 1] - c[h])) / 2
                    acc += math.comb(n, h) * (n - h) * diff * diff / den
            if acc:
                terms.append(K * 2 ** (N - n) * 2 * cfg.m**2 * acc)
    return math.fsum(terms)


def cramer_rao_bound(fisher, repetitions=1):
    """Phase-estimation precision floor 1/sqrt(n F)."""
    if fisher <= 0:
        raise InputError(f"Fisher information must be positive, got {fisher}")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    return 1.0 / math.sqrt(repetitions * fisher)
