"""Closed-form robustness quantities for concatenated GHZ states under white noise.

Single-block quantities are expressed through the per-qubit transfer
coefficients a = (1+p)/2 and b = (1-p)/2.  The decohered cross operator
E(|GHZ_m^+><GHZ_m^-|) is block diagonal over doublets {|k>, |~k>}; a doublet
whose lighter member has Hamming weight w contributes
C(m, w) * (a^(m-w) b^w - a^w b^(m-w)) to the trace norm, summed over
w < m/2.  (The even-m doublets at w = m/2 are identically zero and
contribute nothing.)  The N-block trace norm is the N-th power of the block
value; all N-th powers are evaluated in log space so the quantities survive
N up to 1e15.
"""

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

from .errors import InputError
from .channels import survival, transfer_coefficients
from .states import BlockConfig

DEFAULT_THRESHOLD_CAP = 10**15


def _block_deficit(m, p):
    """1 - (block trace norm), as a cancellation-free sum of positive terms.

    The doublet decomposition gives the block norm as
    sum_{w < m/2} C(m, w) (a^(m-w) b^w - a^w b^(m-w)); regrouping against
    the binomial identity sum_k C(m, k) a^(m-k) b^k = 1 turns the deficit
    into 2 sum_{k > m/2} C(m, k) a^(m-k) b^k plus, for even m, the middle
    term C(m, m/2) (a b)^(m/2) counted once.

    The deficit is the same for m = 2j+1 and m = 2j+2 (a majority vote
    that counts a tie once): the middle term of m = 2j+2 makes up exactly
    the difference of the two tail sums.  Along m = log2 N every odd->even
    step therefore doubles N at a fixed block value, and the N-block value
    is squared.
    """
    a, b, _ = transfer_coefficients(p)  # validates p
    try:
        terms = [2.0 * math.comb(m, k) * a ** (m - k) * b**k for k in range(m // 2 + 1, m + 1)]
        if m % 2 == 0:
            terms.append(math.comb(m, m // 2) * (a * b) ** (m // 2))
        deficit = math.fsum(terms)
    except OverflowError:
        deficit = math.inf
    if not deficit < math.inf and a != b:
        # from m = 1029 on, 2 C(m, k) is past the float range (at a = b the deficit is 1):
        # C(m, j) a^(m-j) b^j = [C(m, j) / 4^(m-j)] b^(2j-m) (4ab)^(m-j) at j = ceil(m/2),
        # the binomial scaled exactly in integers, then falls by (m-j) b / ((j+1) a) per step
        k = (m + 1) // 2
        first = math.comb(m, k) / 4 ** (m - k) * b ** (2 * k - m) * (4 * a * b) ** (m - k)
        terms = accumulate(((m - j) / (j + 1) * (b / a) for j in range(k, m)), operator.mul, initial=first)
        deficit = 2 * math.fsum(terms) - (first if 2 * k == m else 0.0)
    return min(deficit, 1.0)


def coherence_norm_block(m, p):
    """Trace norm of the decohered single-block coherence operator, in [0, 1]."""
    if m < 1:
        raise InputError(f"block size must be >= 1, got {m}")
    return 1.0 - _block_deficit(m, p)


def coherence_norm(cfg: BlockConfig, p):
    """Trace norm of the N-block coherence operator: block value to the N-th power.

    Evaluated as exp(N log1p(-deficit)) so nearly-frozen values stay exact
    for N far beyond 1e6.
    """
    deficit = _block_deficit(cfg.m, p)
    if deficit >= 1.0:
        return 0.0
    return math.exp(cfg.N * math.log1p(-deficit))


def coherence_bound(cfg: BlockConfig, p):
    """Stirling-type lower bound [1 - sqrt(2m/pi)(1 + 1/(11m))(1 - p^2)^(m/2)]^N.

    Valid for weak noise; for strong noise the base may go negative and the
    expression is returned as printed.
    """
    p = survival(p)
    m = cfg.m
    base = 1.0 - math.sqrt(2 * m / math.pi) * (1 + 1 / (11 * m)) * (1 - p * p) ** (m / 2)
    try:
        return base**cfg.N
    except OverflowError:
        raise InputError(f"coherence bound {base!r}^{cfg.N} is outside the float range") from None


def _branch_weights(m, p):
    """(d, q, log r) of the projected block: d = a^m + b^m, q = p^m, r = o/d with o = a^m - b^m.

    log r is computed from the small deficit 2 b^m / d; it is -inf when o = 0.
    Where d^2 underflows, d and q come scaled by a^-m, which keeps q/d.
    p is validated here.
    """
    a, b, p = transfer_coefficients(p)
    d, q, b_m = a**m + b**m, p**m, b**m
    if not d * d:
        d, q, b_m = 1 + (b / a) ** m, (p / a) ** m, (b / a) ** m
    deficit = 2 * b_m / d
    log_r = math.log1p(-deficit) if deficit < 1.0 else -math.inf
    return d, q, log_r


def distill_fidelity(cfg: BlockConfig, p):
    """Logical Bell fidelity after projecting blocks and measuring all but two.

    F = (1/4) [ 1 + (q^2/d^2)(1 + r^(N-2)) + r^N ]  with r = o/d and q = p^m.
    Powers of r are evaluated as exp(N log r) so the flagship sizes around
    N = 1e12 are exact to double precision.
    """
    if cfg.N < 2:
        raise InputError(f"distillation fidelity needs N >= 2, got N={cfg.N}")
    d, q, log_r = _branch_weights(cfg.m, p)
    r_pow_n = math.exp(cfg.N * log_r) if log_r > -math.inf else 0.0
    r_pow_n2 = math.exp((cfg.N - 2) * log_r) if log_r > -math.inf else (1.0 if cfg.N == 2 else 0.0)
    return 0.25 * (1 + (q * q) / (d * d) * (1 + r_pow_n2) + r_pow_n)


@dataclass(frozen=True)
class ThresholdResult:
    """Largest N with distillable Bell fidelity, or the tested cap if still above 1/2 there."""

    value: int | None
    exceeded_cap: bool
    cap: int

    def __str__(self):
        if self.exceeded_cap:
            return "unbounded-in-tested-range"
        if self.value is None:
            return "none"
        return str(self.value)


def distill_threshold(m, p, cap=DEFAULT_THRESHOLD_CAP):
    """Largest N >= 2 with distill_fidelity > 1/2, by doubling then bisection.

    The fidelity is monotone nonincreasing in N, which the search relies on.
    Returns value=None with exceeded_cap=False when even N=2 is below 1/2,
    and value=cap with exceeded_cap=True when the fidelity is still above
    1/2 at the cap.
    """
    p = survival(p)
    if p >= 1.0:
        raise InputError("threshold is undefined at p = 1 (fidelity never decays)")

    def fid(n):
        return distill_fidelity(BlockConfig(N=n, m=m), p)

    if fid(2) <= 0.5:
        return ThresholdResult(value=None, exceeded_cap=False, cap=cap)
    if fid(cap) > 0.5:
        return ThresholdResult(value=cap, exceeded_cap=True, cap=cap)
    lo, hi = 2, 4
    while hi < cap and fid(hi) > 0.5:
        lo, hi = hi, min(hi * hi, cap)
    # invariant: fid(lo) > 1/2 >= fid(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fid(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(value=lo, exceeded_cap=False, cap=cap)


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponential fit value ~ amplitude * exp(-rate * N) over a window."""

    amplitude: float
    rate: float
    residual: float
    window: tuple[float, float]


def fit_exponential_tail(points, window=None):
    """Fit log(value) vs N by least squares over a window of N values.

    `points` is an iterable of (N, value) pairs.  The default window is the
    last half of the supplied N range, widened down to the third-largest N
    when it holds fewer than three points (as on a power-of-two N axis).
    Values inside the window must be positive and at least three points must
    fall in it.
    """
    pts = sorted((float(n), float(v)) for n, v in points)
    if not pts:
        raise InputError("no points supplied")
    if window is None:
        lo = (pts[0][0] + pts[-1][0]) / 2
        if len(pts) >= 3 and pts[-3][0] < lo:
            lo = pts[-3][0]
        window = (lo, pts[-1][0])
    lo, hi = float(window[0]), float(window[1])
    sel = [(n, v) for n, v in pts if lo <= n <= hi]
    if len(sel) < 3:
        raise InputError(f"need at least 3 points in window [{lo}, {hi}], got {len(sel)}")
    for n, v in sel:
        if v <= 0:
            raise InputError(f"nonpositive value {v} at N={n} cannot be log-fitted")
    xs = [n for n, _ in sel]
    ys = [math.log(v) for _, v in sel]
    n_pts = len(sel)
    mean_x = sum(xs) / n_pts
    mean_y = sum(ys) / n_pts
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0 else 0.0
    intercept = mean_y - slope * mean_x
    rms = math.sqrt(sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / n_pts)
    return FitResult(amplitude=math.exp(intercept), rate=0.0 - slope, residual=rms, window=(lo, hi))  # never -0.0
