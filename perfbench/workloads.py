"""Item sets of the three workloads and the checks on their outputs.

An item is one unit the harness times and checks: `run` makes the calls into
cghz and is timed; `check` inspects the result afterwards, untimed, and raises
CheckFailed.  Every round of a workload has the same structure; the seed and
the round index only choose parameters (p, jittered N, block sizes), so no
round repeats another round's inputs.  Items reach cghz through attribute
lookups on the module namespace `cg` at call time, so a traced round sees the
wrapped functions.

certify  dense oracle against the spectral and analytic engines on every
         (N >= 2, m) with N*m <= 9 and on (5, 2): high shared work, since all
         six quantities of one (cfg, p) rebuild the same decohered state.
sweep    the researcher's path through cghz.cli.main: spectral series at
         m in {3, 5, 7}, cheap analytic series, and an --engine all slice at
         <= 8 qubits where every point is a distinct (cfg, p).
design   the experimenter's path: threshold solves, closed forms up to
         N = 1e15, circuit synthesis with its text round trip, coupler phase
         accounting and preparation simulation.  No oracle, no spectral engine.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable

import exact


class CheckFailed(Exception):
    """An output check did not hold; the message says which and by how much."""


@dataclass
class Item:
    name: str
    run: Callable
    check: Callable


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _dyadic(rng, lo, hi, bits=6):
    """A survival probability k / 2**bits with lo <= p <= hi, exact in binary."""
    scale = 1 << bits
    return rng.randint(math.ceil(lo * scale), math.floor(hi * scale)) / scale


# ---------------------------------------------------------------- certify

# acceptance-suite tolerances (absolute)
CERTIFY_TOL = {
    "spectrum": 1e-10,
    "negativity": 1e-9,
    "fisher-block-x": 1e-8,
    "fisher-single-z": 1e-8,
    "coherence": 1e-10,
    "fidelity": 1e-9,
}

# the protocol oracle rebuilds the state once per outcome record; items with
# more than 2**23 (outcomes x dense entries) would take minutes: (9,1), (10,1)
PROTOCOL_BUDGET = 1 << 23


def certify_configs(tiny=False):
    if tiny:
        return [(2, 1), (2, 2), (4, 2)]
    small = [(n, m) for m in range(1, 5) for n in range(2, 10) if n * m <= 9]
    return small + [(5, 2)]


def _certify_pair(cg, quantity, cfg, p):
    if quantity == "spectrum":
        return cg.spectral.cghz_spectrum(cfg, p), cg.oracle.spectrum(cfg, p)
    if quantity == "negativity":
        return cg.spectral.negativity(cfg, p), cg.oracle.negativity(cfg, p)
    if quantity.startswith("fisher-"):
        gen = quantity[len("fisher-"):]
        return (
            cg.spectral.fisher_information(cfg, p, generator=gen),
            cg.oracle.fisher(cfg, p, generator=gen),
        )
    if quantity == "coherence":
        return cg.analytic.coherence_norm(cfg, p), cg.oracle.coherence_norm(cfg, p)
    return cg.analytic.distill_fidelity(cfg, p), cg.oracle.distill_protocol_average(cfg, p)


def _certify_check(quantity, cfg):
    tol = CERTIFY_TOL[quantity]

    def check(result):
        engine, dense = result
        if quantity == "spectrum":
            total = engine.multiplicity_total()
            _require(total == 2**cfg.qubits, f"multiplicity total {total} != 2^{cfg.qubits}")
            dev = float(max(abs(a - b) for a, b in zip(engine.expanded(), dense)))
        else:
            dev = abs(float(engine) - float(dense))
        _require(dev <= tol, f"|engine - oracle| = {dev:.3e} > {tol:g}")

    return check


# configurations up to this many qubits take milliseconds and are certified
# at two p values: item_p50_ms then falls inside their cluster instead of on
# the gap to the 7-qubit items, where it jumped between runs
TWO_P_QUBITS = 6


def certify_round(cg, rng, ctx, tiny=False):
    groups = []
    for N, m in certify_configs(tiny):
        for _ in range(2 if N * m <= TWO_P_QUBITS else 1):
            groups.append((cg.states.BlockConfig(N, m), _dyadic(rng, 0.3, 0.95)))
    # the (cfg, p) groups run in seeded order, so the many small items spread
    # over the whole round instead of meeting one phase of machine load
    rng.shuffle(groups)
    items = []
    for cfg, p in groups:
        for quantity in CERTIFY_TOL:
            if quantity == "fidelity" and 2 ** (cfg.N - 2) * 4**cfg.qubits > PROTOCOL_BUDGET:
                continue
            items.append(
                Item(
                    f"certify {quantity} N={cfg.N} m={cfg.m} p={p}",
                    lambda q=quantity, c=cfg, p=p: _certify_pair(cg, q, c, p),
                    _certify_check(quantity, cfg),
                )
            )
    return items


# ---------------------------------------------------------------- sweep

SWEEP_HEADER = "quantity,N,m,p,engine,value,error"
ENGINE_TOL = 1e-8
TRACE_TOL = 1e-12


def _invariant(quantity, generator, N, m, value):
    """Physical range of a sweep value, or None when it holds."""
    bounds = {
        "negativity": (0.0, 0.5),
        "coherence": (0.0, 1.0),
        "fidelity": (0.25, 1.0),
        "bound": (-math.inf, 1.0),
        "fisher": (0.0, 4.0 * N * N if generator == "block-x" else 4.0 * (N * m) ** 2),
    }
    lo, hi = bounds[quantity]
    if not lo <= value <= hi:
        return f"{quantity} N={N} m={m} value {value!r} outside [{lo}, {hi}]"
    return None


def _cli_item(cg, ctx, label, argv, quantity, generator, n_values, m_values, engines, fit):
    out = os.path.join(ctx.tmpdir, f"item{next(ctx.serial)}.csv")
    argv = ["sweep", quantity] + argv + ["--out", out]
    name = f"sweep {label}: cghz " + " ".join(argv[:-2])

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cg.cli.main(argv)
        return code, err.getvalue()

    def check(result):
        code, err = result
        _require(code == 0, f"exit code {code}: {err.strip()}")
        with open(out) as fh:
            lines = fh.read().splitlines()
        header = SWEEP_HEADER + (",max_discrepancy" if engines > 1 else "")
        _require(lines and lines[0] == header, f"unexpected header {lines[:1]}")
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        fits = [ln for ln in lines[1:] if ln.startswith("#fit")]
        want = len(n_values) * len(m_values) * engines
        _require(len(rows) == want, f"{len(rows)} rows, expected {want}")
        for cells in rows:
            _require(cells[6] == "", f"error cell: {cells[6]}")
            N, m, p, value = int(cells[1]), int(cells[2]), float(cells[3]), float(cells[5])
            problem = _invariant(quantity, generator, N, m, value)
            _require(problem is None, problem)
            if engines > 1:
                disc = float(cells[7])
                _require(disc <= ENGINE_TOL, f"engines disagree by {disc:.3e} at N={N} m={m}")
            kind = f"fisher/{generator}" if quantity == "fisher" else quantity
            ctx.samples.append((name, kind, N, m, p, value))
        if fit:
            # the CLI fits every series with at least three positive values
            fitted = sum(1 for m in m_values if sum(int(c[2]) == m and float(c[5]) > 0 for c in rows) >= 3)
            _require(len(fits) == fitted, f"{len(fits)} fit lines, expected {fitted}")
            for ln in fits:
                gamma = float(ln.split("gamma=")[1].split(",")[0])
                _require(math.isfinite(gamma), f"non-finite fit rate in {ln}")

    return Item(name, run, check)


def _spectrum_item(cg, n_values, m_values, p):
    cfgs = [cg.states.BlockConfig(n, m) for m in m_values for n in n_values]

    def run():
        return [cg.spectral.cghz_spectrum(cfg, p) for cfg in cfgs]

    def check(spectra):
        for cfg, spec in zip(cfgs, spectra):
            total = spec.multiplicity_total()
            _require(total == 2**cfg.qubits, f"N={cfg.N} m={cfg.m}: multiplicity {total} != 2^{cfg.qubits}")
            trace = spec.weighted_sum()
            _require(abs(trace - 1.0) <= TRACE_TOL, f"N={cfg.N} m={cfg.m}: trace {trace!r}")

    ns = ",".join(map(str, n_values))
    ms = ",".join(map(str, m_values))
    return Item(f"sweep spectrum series N={ns} m={ms} p={p}", run, check)


def _n_list(rng, bases, spread):
    return sorted({b + rng.randint(-spread, spread) for b in bases})


def _log_n_list(rng, count, lo_exp, hi_exp):
    return sorted({int(10 ** rng.uniform(lo_exp, hi_exp)) for _ in range(count)} | {2})


def sweep_round(cg, rng, ctx, tiny=False):
    def fmt(values):
        return ",".join(map(str, values))

    def series(label, quantity, n_values, m_values, generator="block-x", engine="auto", fit=False):
        p = _dyadic(rng, 0.75, 0.97)
        engines = 2 if engine == "all" else 1
        argv = ["--n-list", fmt(n_values), "--m", fmt(m_values), "--p", repr(p)]
        if generator != "block-x":
            argv += ["--generator", generator]
        if engine != "auto":
            argv += ["--engine", engine]
        if fit:
            argv.append("--fit")
        return _cli_item(cg, ctx, label, argv, quantity, generator, n_values, m_values, engines, fit)

    if tiny:
        return [
            series("spectral", "negativity", list(range(2, 9)), [1, 2], fit=True),
            series("analytic", "coherence", [2, 10, 100], [3]),
            series("engine-all", "fisher", [2, 4], [2], engine="all"),
            _spectrum_item(cg, [3, 4], [3], _dyadic(rng, 0.75, 0.97)),
        ]
    # the sector sums cost ~N^(m//2 + 1) whatever p is: the heavy series keep
    # fixed N lists so a round costs the same on every seed; the seed picks p
    spectral_n = [8, 14, 20, 26, 32, 38]
    items = [
        series("spectral", "negativity", spectral_n, [3, 5, 7], fit=True),
        series("spectral", "fisher", spectral_n, [3, 5, 7]),
        series("spectral", "fisher", [6, 12, 18, 24, 30], [3, 5, 7], generator="single-z"),
        series("spectral", "negativity", [12, 24, 36, 48, 60], [3]),
        _spectrum_item(cg, [6, 12, 18, 24, 30], [3, 5, 7], _dyadic(rng, 0.75, 0.97)),
        series("spectral", "negativity", list(range(2, 13)), [1, 2], fit=True),
    ]
    # the cheap analytic calls, which cli parsing and formatting dominate, are
    # well over half of the items, so item_p50_ms sits inside their cluster
    for _ in range(6):
        coherence_n = _n_list(rng, range(100, 900, 100), 10)
        items.append(series("analytic", "coherence", coherence_n, [3, 5, 7], fit=True))
        items.append(series("analytic", "fidelity", _log_n_list(rng, 8, 1, 9), [3, 5, 7]))
        items.append(series("analytic", "bound", _log_n_list(rng, 6, 0, 3), [5, 9]))
    items += [
        series("engine-all", "negativity", [2, 3, 4], [2], engine="all"),
        series("engine-all", "fisher", [2, 3], [2], engine="all"),
        series("engine-all", "fisher", [2, 4], [2], generator="single-z", engine="all"),
        series("engine-all", "coherence", [2, 3], [2], engine="all"),
        series("engine-all", "fidelity", [2, 3, 4], [2], engine="all"),
    ]
    return items


# the README-style power-of-two coherence sweep with --fit exits 1 at the seed:
# the default fit window (upper half of the N range) holds one point of a
# 2^k axis.  It is run once per sweep run, outside the timed rounds, and listed.
KNOWN_DEFECT_ARGV = ["sweep", "coherence", "--n-pow2", "4:10", "--m", "3", "--p", "0.9", "--fit"]


def known_defects(cg, ctx):
    out = os.path.join(ctx.tmpdir, "known-defect.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cg.cli.main(KNOWN_DEFECT_ARGV + ["--out", out])
    if code == 0:
        return []
    message = f"exit code {code}: {err.getvalue().strip()}"
    return [{"item": "cghz " + " ".join(KNOWN_DEFECT_ARGV), "message": message}]


# spot checks against exact rational sector sums, outside the timed rounds
SPOT_SECTOR_CAP = 800
SPOT_TOL = 1e-9
_EXACT = {
    "negativity": exact.negativity,
    "fisher/block-x": exact.fisher_block_x,
    "fisher/single-z": exact.fisher_single_z,
}


def spot_check(rng, samples):
    """(item name, point, failure message or None) for one seeded point of each exact kind.

    Points need m >= 3, so that more than one non-logical doublet class
    enters, and at most SPOT_SECTOR_CAP sectors, to keep rational arithmetic
    to a few seconds per run.
    """
    by_kind = {}
    for sample in samples:
        _, kind, N, m, _, _ = sample
        if kind in _EXACT and m >= 3 and exact.sector_count(N, m) <= SPOT_SECTOR_CAP:
            by_kind.setdefault(kind, []).append(sample)
    results = []
    for kind in sorted(by_kind):
        name, _, N, m, p, value = rng.choice(by_kind[kind])
        ref = _EXACT[kind](N, m, p)
        rel = abs(Decimal(value) - ref) / ref if ref else abs(value)
        point = f"{kind} N={N} m={m} p={p}"
        failure = None
        if rel > SPOT_TOL:
            failure = (
                f"exact check {point}: engine {value!r}, exact {float(ref)!r}, "
                f"relative error {float(rel):.3e}"
            )
        results.append((name, point, failure))
    return results


# ---------------------------------------------------------------- design

THRESHOLD_ITEMS = 96
CLOSED_FORM_ITEMS = 24
PREP_FIDELITY_TOL = 1e-10
CLOSED_FORM_RTOL = 1e-9


def _threshold_item(cg, m, p):
    def check(res):
        fid = lambda n: cg.analytic.distill_fidelity(cg.states.BlockConfig(n, m), p)  # noqa: E731
        if res.exceeded_cap:
            _require(fid(res.cap) > 0.5, f"capped at {res.cap} but F(cap) <= 1/2")
        elif res.value is None:
            _require(fid(2) <= 0.5, "no threshold reported but F(2) > 1/2")
        else:
            v = res.value
            _require(fid(v) > 0.5 >= fid(v + 1), f"threshold {v}: F(v)={fid(v)!r}, F(v+1)={fid(v + 1)!r}")

    return Item(f"design threshold m={m} p={p}", lambda: cg.analytic.distill_threshold(m, p), check)


def _closed_form_item(cg, quantity, N, m, p):
    cfg = cg.states.BlockConfig(N, m)
    if quantity == "coherence":
        run, ref = (lambda: cg.analytic.coherence_norm(cfg, p)), exact.coherence_norm
    else:
        run, ref = (lambda: cg.analytic.distill_fidelity(cfg, p)), exact.distill_fidelity

    def check(value):
        want = ref(N, m, p)
        err = abs(value - want)
        _require(err <= CLOSED_FORM_RTOL * want + 1e-300, f"value {value!r}, exact {want!r}")

    return Item(f"design {quantity} N={N} m={m} p={p}", run, check)


def _synthesis_item(cg, N, m):
    cfg = cg.states.BlockConfig(N, m)

    def run():
        circuit = cg.circuits.synthesize_preparation(cfg)
        return circuit, cg.circuits.parse_circuit(cg.circuits.export_circuit(circuit))

    def check(result):
        circuit, parsed = result
        _require(parsed == circuit, "parse(export(c)) != c")
        ms = [g for g in circuit.gates if isinstance(g, cg.circuits.MSGate)]
        zl = [g for g in circuit.gates if isinstance(g, cg.circuits.ZLayer)]
        phase = sum((abs(g.xi) for g in ms), Fraction(0))
        _require(phase == Fraction(1, 2), f"total MS phase {phase}*pi != pi/2")
        if N & (N - 1) == 0:
            counts = (len(ms), len(zl))
            _require(counts == (N + 1, N - 1), f"gate counts {counts} != {(N + 1, N - 1)}")

    return Item(f"design synthesize N={N} m={m}", run, check)


def _coupler_item(cg, N, m):
    cfg = cg.states.BlockConfig(N, m)

    def check(pm):
        for k in range(cfg.qubits):
            for l in range(k + 1, cfg.qubits):
                want = Fraction(1, 4) if k // m == l // m else Fraction(0)
                _require(pm[k, l] == want, f"pair ({k},{l}) phase {pm[k, l]} != {want}")

    return Item(
        f"design coupler phases N={N} m={m}",
        lambda: cg.circuits.phase_matrix(cg.circuits.synthesize_block_phase(cfg)),
        check,
    )


def _prep_item(cg, N, m):
    cfg = cg.states.BlockConfig(N, m)

    def check(fid):
        _require(fid >= 1 - PREP_FIDELITY_TOL, f"preparation fidelity {fid!r}")

    return Item(f"design prepare N={N} m={m}", lambda: cg.circuits.preparation_fidelity(cfg), check)


# heavy items have fixed sizes so a round costs the same on every seed
SYNTHESIS_CONFIGS = [(256, 4), (128, 3), (192, 3), (96, 2)]
COUPLER_CONFIGS = [(16, 4), (32, 2), (12, 4), (20, 3)]
PREP_CONFIGS = [(2, 6), (3, 4), (4, 3), (6, 2), (12, 1), (2, 5)]


def design_round(cg, rng, ctx, tiny=False):
    n_thr, n_cf = (8, 4) if tiny else (THRESHOLD_ITEMS, CLOSED_FORM_ITEMS)
    def p():
        return _dyadic(rng, 0.55, 0.995, bits=12)

    items = [_threshold_item(cg, rng.randint(2, 40), p()) for _ in range(n_thr)]
    for quantity in ("coherence", "fidelity"):
        for _ in range(n_cf):
            N = max(2, int(10 ** rng.uniform(0, 15)))
            items.append(_closed_form_item(cg, quantity, N, rng.randint(2, 40), p()))
    if tiny:
        return items + [_synthesis_item(cg, 64, 2), _coupler_item(cg, 4, 4), _prep_item(cg, 2, 4)]
    items += [_synthesis_item(cg, N, m) for N, m in SYNTHESIS_CONFIGS]
    items += [_coupler_item(cg, N, m) for N, m in COUPLER_CONFIGS]
    items += [_prep_item(cg, N, m) for N, m in PREP_CONFIGS]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "certify": certify_round,
    "sweep": sweep_round,
    "design": design_round,
}
