"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criterion 3 checks frozen decay along m = log2 N, N = 2^4..2^20, as the
paper states it: the coherence norm stays bounded away from zero and grows
along each parity of m, while a plain GHZ state decays like p^N.  It does
not ask for a rise at every step.  The single-block deficit is identical
for block sizes 2j+1 and 2j+2 (majority vote: the tie at even m counts
once, and the middle term C(m, m/2) (ab)^(m/2) makes up the difference
exactly), so each odd->even step doubles N at a fixed block value and the
N-block value is squared.  Those dips are correct behaviour; the test
checks them exactly, together with an exact-rational reference for every
value, strict growth on even->odd steps and along each parity, and the
weak-noise lower bound along the whole sequence.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cghz import analytic, circuits, oracle, spectral
from cghz.cli import main as cli_main
from cghz.states import BlockConfig


def report(name, ok, detail, started, limit):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] {name}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.1f}s exceeds {limit}s"


def test_criterion_1_oracle_analytic_coherence_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        for n_blocks in (1, 2, 3):
            cfg = BlockConfig(n_blocks, m)
            for p in (0.0, 0.3, 0.7, 0.9, 1.0):
                diff = abs(analytic.coherence_norm(cfg, p) - oracle.coherence_norm(cfg, p))
                worst = max(worst, diff)
    report(
        "criterion 1 (coherence: analytic vs oracle)",
        worst <= 1e-10,
        f"max |analytic - oracle| = {worst:.2e} (tol 1e-10)",
        started,
        limit=10,
    )


def test_criterion_2_stirling_bound_is_lower_bound():
    started = time.perf_counter()
    violations = 0
    margin = 0.0
    for p in (0.8, 0.9, 0.95, 0.99):
        for m in range(1, 11):
            for n_blocks in (1, 10, 100):
                cfg = BlockConfig(n_blocks, m)
                gap = analytic.coherence_norm(cfg, p) - analytic.coherence_bound(cfg, p)
                if gap < -1e-12:
                    violations += 1
                margin = min(margin, gap) if margin else gap
    report(
        "criterion 2 (weak-noise lower bound)",
        violations == 0,
        f"0 violations over 120 grid points (smallest gap {margin:.3e})",
        started,
        limit=1,
    )


def exact_block_deficit(m, p):
    """1 - (block trace norm) as an exact Fraction, from the doublet sum.

    The block norm is sum_{w < m/2} C(m, w) (a^(m-w) b^w - a^w b^(m-w)),
    the form the program regroups into a cancellation-free deficit.
    """
    a, b = (1 + p) / 2, (1 - p) / 2
    norm = sum(
        math.comb(m, w) * (a ** (m - w) * b**w - a**w * b ** (m - w))
        for w in range((m + 1) // 2)
    )
    return 1 - norm


def test_criterion_3_frozen_decay_with_log2_blocks():
    started = time.perf_counter()
    p = Fraction(9, 10)
    ks = range(4, 21)
    values = {k: analytic.coherence_norm(BlockConfig(2**k, k), float(p)) for k in ks}
    bounds = {k: analytic.coherence_bound(BlockConfig(2**k, k), float(p)) for k in ks}
    deficits = {m: exact_block_deficit(m, p) for m in range(1, 22)}
    failures = []

    # 1. every value against the exact-rational reference
    worst = 0.0
    for k in ks:
        reference = math.exp(2**k * math.log1p(-float(deficits[k])))
        worst = max(worst, abs(values[k] - reference) / reference)
    if worst > 1e-12:
        failures.append(f"max relative error vs exact reference {worst:.2e} (tol 1e-12)")

    # 2. parity structure: exact in Fraction, a squaring on the program side
    for j in range(10):
        if deficits[2 * j + 1] != deficits[2 * j + 2]:
            failures.append(f"deficit(m={2 * j + 1}) != deficit(m={2 * j + 2})")
        if not deficits[2 * j + 2] > deficits[2 * j + 3]:
            failures.append(f"deficit(m={2 * j + 2}) <= deficit(m={2 * j + 3})")
    for k in ks:
        if k % 2 == 1 and k + 1 in values:
            twice = 2 * math.log(values[k])
            if abs(math.log(values[k + 1]) - twice) > 1e-12 * abs(twice):
                failures.append(f"k={k}->{k + 1} is not a squaring")

    # 3. frozen decay: rises on even->odd steps and along each parity
    for k in ks:
        if k % 2 == 0 and k + 1 in values and not values[k + 1] > values[k]:
            failures.append(f"no rise on even->odd step k={k}->{k + 1}")
        if k + 2 in values and not values[k + 2] > values[k]:
            failures.append(f"no rise along parity k={k}->{k + 2}")
        if values[k] < values[4]:
            failures.append(f"value at k={k} below its value at N=2^4")

    # 4. the weak-noise lower bound holds and rises along the sequence
    for k in ks:
        if values[k] - bounds[k] < -1e-12:
            failures.append(f"bound exceeds value at k={k}")
        if k + 1 in bounds and not bounds[k + 1] > bounds[k]:
            failures.append(f"bound does not rise at k={k}->{k + 1}")

    detail = (
        f"value at N=2^20 is {values[20]:.6f} (reported; 0.99 not required), "
        f"max relative error vs exact reference {worst:.2e}"
    )
    if failures:
        detail += "; failures: " + "; ".join(failures)
    report("criterion 3 (frozen decay, m = log2 N)", not failures, detail, started, limit=30)


def test_criterion_4_distillation_flagship():
    started = time.perf_counter()
    fid = analytic.distill_fidelity(BlockConfig(10**12, 10), 0.9)
    threshold = analytic.distill_threshold(10, 0.9)
    ok = 0.5 < fid < 0.65 and threshold.value >= 10**12
    report(
        "criterion 4 (N = 1e12 distillation)",
        ok,
        f"F(1e12) = {fid:.6f}, threshold = {threshold.value}",
        started,
        limit=1,
    )


def test_criterion_5_protocol_matches_formula():
    started = time.perf_counter()
    worst = 0.0
    for n_blocks, m in ((2, 1), (2, 2), (3, 2), (2, 3)):
        cfg = BlockConfig(n_blocks, m)
        for p in (0.7, 0.9):
            diff = abs(
                oracle.distill_protocol_average(cfg, p) - analytic.distill_fidelity(cfg, p)
            )
            worst = max(worst, diff)
    report(
        "criterion 5 (measurement protocol vs closed form)",
        worst <= 1e-9,
        f"max deviation {worst:.2e} (tol 1e-9)",
        started,
        limit=30,
    )


def overlap_configs(max_qubits, min_blocks=2, max_m=None):
    out = []
    for m in range(1, max_qubits + 1):
        if max_m and m > max_m:
            continue
        for n_blocks in range(min_blocks, max_qubits // m + 1):
            out.append(BlockConfig(n_blocks, m))
    return out


def test_criterion_6_spectrum_certification():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for cfg in overlap_configs(10):
        for p in (0.3, 0.9):
            spec = spectral.cghz_spectrum(cfg, p)
            assert spec.multiplicity_total() == 2**cfg.qubits
            diff = float(np.max(np.abs(spec.expanded() - oracle.spectrum(cfg, p))))
            worst = max(worst, diff)
            checked += 1
    report(
        "criterion 6 (sector spectra vs dense eigenvalues)",
        worst <= 1e-10,
        f"{checked} spectra, max eigenvalue deviation {worst:.2e}, multiplicities exact",
        started,
        limit=60,
    )


def test_criterion_7_negativity():
    started = time.perf_counter()
    ok_initial = all(
        abs(spectral.negativity(cfg, 1.0) - 0.5) < 1e-12
        for cfg in (BlockConfig(2, 1), BlockConfig(2, 2), BlockConfig(3, 2), BlockConfig(4, 3))
    )
    worst = 0.0
    for cfg in overlap_configs(10):
        for p in (0.3, 0.7, 0.9):
            worst = max(worst, abs(spectral.negativity(cfg, p) - oracle.negativity(cfg, p)))
    rates = []
    for m in (1, 2, 3):
        pts = [(n, spectral.negativity(BlockConfig(n, m), 0.9)) for n in range(6, 21)]
        rates.append(analytic.fit_exponential_tail(pts, window=(6, 20)).rate)
    ordered = rates[0] > rates[1] > rates[2]
    report(
        "criterion 7 (negativity)",
        ok_initial and worst <= 1e-9 and ordered,
        f"initial value 1/2: {ok_initial}; spectral vs oracle max dev {worst:.2e}; "
        f"tail rates gamma(m) = {[f'{r:.4f}' for r in rates]} strictly decreasing: {ordered}",
        started,
        limit=120,
    )


def test_twelve_qubit_dense_certification():
    # the dense oracle's full range: spectrum and negativity at (4, 3), 12 qubits
    started = time.perf_counter()
    cfg, p = BlockConfig(4, 3), 0.7
    spec = spectral.cghz_spectrum(cfg, p)
    assert spec.multiplicity_total() == 2**12
    spec_dev = float(np.max(np.abs(spec.expanded() - oracle.spectrum(cfg, p))))
    neg_dev = abs(spectral.negativity(cfg, p) - oracle.negativity(cfg, p))
    report(
        "12-qubit certification (sector spectrum and negativity vs dense oracle)",
        spec_dev <= 1e-10 and neg_dev <= 1e-9,
        f"max eigenvalue deviation {spec_dev:.2e} (tol 1e-10), "
        f"negativity deviation {neg_dev:.2e} (tol 1e-9)",
        started,
        limit=60,
    )


def test_twelve_qubit_fisher_and_coherence_certification():
    # Fisher information for both generators against the sector sums, and the
    # coherence norm against the closed form, at (4, 3), 12 qubits
    started = time.perf_counter()
    cfg, p = BlockConfig(4, 3), 0.7
    fisher_dev = {
        gen: abs(spectral.fisher_information(cfg, p, generator=gen) - oracle.fisher(cfg, p, generator=gen))
        for gen in ("block-x", "single-z")
    }
    coh_dev = abs(analytic.coherence_norm(cfg, p) - oracle.coherence_norm(cfg, p))
    report(
        "12-qubit certification (Fisher information and coherence norm vs dense oracle)",
        max(fisher_dev.values()) <= 1e-8 and coh_dev <= 1e-10,
        f"Fisher deviation block-x {fisher_dev['block-x']:.2e}, single-z {fisher_dev['single-z']:.2e} (tol 1e-8), "
        f"coherence deviation {coh_dev:.2e} (tol 1e-10)",
        started,
        limit=60,
    )


def test_criterion_8_fisher_information():
    started = time.perf_counter()
    pure_worst = 0.0
    for m in range(1, 5):
        for n_blocks in range(1, 9):
            f = spectral.fisher_information(BlockConfig(n_blocks, m), 1.0)
            pure_worst = max(pure_worst, abs(f - 4 * n_blocks**2))
    overlap_worst = 0.0
    for cfg in overlap_configs(8, max_m=4):
        overlap_worst = max(
            overlap_worst,
            abs(spectral.fisher_information(cfg, 0.9) - oracle.fisher(cfg, 0.9)),
        )
    sql_m = 7
    above_sql = all(
        spectral.fisher_information(BlockConfig(n, sql_m), 0.9) > n for n in range(2, 51)
    )
    report(
        "criterion 8 (Fisher information)",
        pure_worst <= 1e-8 and overlap_worst <= 1e-8 and above_sql,
        f"pure-state 4N^2 dev {pure_worst:.2e}; spectral vs oracle dev {overlap_worst:.2e}; "
        f"F > N for all N <= 50 at m={sql_m}: {above_sql}",
        started,
        limit=300,
    )


def test_criterion_9_circuit_synthesis():
    started = time.perf_counter()
    quarter, zero = Fraction(1, 4), Fraction(0)
    pattern_ok = True
    for n_blocks in (1, 2, 3, 4, 8):
        for m in (1, 2, 3, 4):
            cfg = BlockConfig(n_blocks, m)
            xi = circuits.phase_matrix(circuits.synthesize_block_phase(cfg))
            for k in range(cfg.qubits):
                for l in range(k + 1, cfg.qubits):
                    want = quarter if k // m == l // m else zero
                    pattern_ok &= xi[k, l] == want
    counts_ok = True
    budget_ok = True
    for n_blocks in (1, 2, 4, 8):
        cfg = BlockConfig(n_blocks, 2)
        ms, zl, phase = circuits.gate_counts(circuits.synthesize_preparation(cfg))
        counts_ok &= (ms, zl) == (n_blocks + 1, n_blocks - 1)
        budget_ok &= phase == Fraction(1, 2)
    budget_ok &= circuits.gate_counts(
        circuits.synthesize_preparation(BlockConfig(3, 3))
    )[2] == Fraction(1, 2)
    fidelities = {
        (n, m): circuits.preparation_fidelity(BlockConfig(n, m))
        for n, m in ((2, 2), (2, 3), (4, 2))
    }
    fid_ok = all(f >= 1 - 1e-10 for f in fidelities.values())
    report(
        "criterion 9 (circuit synthesis)",
        pattern_ok and counts_ok and budget_ok and fid_ok,
        f"phase pattern exact: {pattern_ok}; counts N+1/N-1: {counts_ok}; "
        f"budget pi/2 exact: {budget_ok}; preparation fidelities "
        + ", ".join(f"{k}: {v:.12f}" for k, v in fidelities.items()),
        started,
        limit=30,
    )


def test_criterion_10_random_pair_comparison():
    started = time.perf_counter()
    from cghz.states import ghz, random_orthogonal_pair

    m, p, seed, samples = 3, 0.9, 20260810, 1000
    reference = oracle.generic_coherence_norm(ghz(m, +1), ghz(m, -1), p)
    exceed = 0
    top = 0.0
    for k in range(1, samples + 1):
        a, b = random_orthogonal_pair(m, seed + k)
        val = oracle.generic_coherence_norm(a, b, p)
        top = max(top, val)
        if val > reference + 1e-12:
            exceed += 1
    report(
        "criterion 10 (Haar pairs never beat the concatenated block)",
        exceed == 0,
        f"0 of {samples} pairs exceed {reference:.6f} (best random pair {top:.6f})",
        started,
        limit=120,
    )


def test_criterion_11_determinism(tmp_path):
    started = time.perf_counter()
    artifacts = []
    for tag in ("one", "two"):
        neg = tmp_path / f"neg_{tag}.csv"
        coh = tmp_path / f"coh_{tag}.csv"
        rnd = tmp_path / f"rnd_{tag}.csv"
        assert cli_main(
            ["sweep", "negativity", "--n-range", "2:12", "--m", "1,2",
             "--p", "0.9", "--fit", "--out", str(neg)]
        ) == 0
        assert cli_main(
            ["sweep", "coherence", "--n-pow2", "4:20", "--m", "log2",
             "--p", "0.9", "--out", str(coh)]
        ) == 0
        assert cli_main(
            ["random-compare", "--m", "3", "--samples", "100", "--p", "0.9",
             "--seed", "5", "--out", str(rnd)]
        ) == 0
        artifacts.append((neg.read_bytes(), coh.read_bytes(), rnd.read_bytes()))
    identical = artifacts[0] == artifacts[1]
    report(
        "criterion 11 (byte-identical CSV artifacts)",
        identical,
        "three artifact families reproduced byte-for-byte",
        started,
        limit=60,
    )
