"""Command-line front end: eval, sweep, random-compare, synthesize.

Exit codes: 0 success, 1 usage error, 2 resource-cap error, 3 internal
consistency failure (engines disagree beyond tolerance).

CSV is the tabular format.  Sweep files carry the header
``quantity,N,m,p,engine,value,error`` (plus ``max_discrepancy`` with
``--engine all``); float values are printed in scientific notation with 17
significant digits so repeated runs are byte identical.  ``--json`` wraps
the same records with run metadata.
"""

import argparse
import functools
import json
import math
import sys
import time

from . import __version__, analytic, circuits, linalg, oracle, spectral
from .channels import survival
from .errors import ConsistencyError, InputError, ResourceLimitError
from .states import BlockConfig, ghz, random_orthogonal_pair

ENGINE_DISAGREEMENT_TOL = 1e-8

# (quantity, engine) -> evaluation of (cfg, p, generator, threshold cap).  Per
# quantity, the first engine listed is the --engine auto choice.  Each entry
# looks its function up on the module at call time, so a rebound module
# attribute (a tracer, a test double) is what runs.
REGISTRY = {
    ("coherence", "analytic"): lambda cfg, p, gen, cap: analytic.coherence_norm(cfg, p),
    ("coherence", "oracle"): lambda cfg, p, gen, cap: oracle.coherence_norm(cfg, p),
    ("bound", "analytic"): lambda cfg, p, gen, cap: analytic.coherence_bound(cfg, p),
    ("fidelity", "analytic"): lambda cfg, p, gen, cap: analytic.distill_fidelity(cfg, p),
    ("fidelity", "oracle"): lambda cfg, p, gen, cap: oracle.distill_protocol_average(cfg, p),
    ("threshold", "analytic"): lambda cfg, p, gen, cap: analytic.distill_threshold(cfg.m, p, cap=cap),
    ("negativity", "spectral"): lambda cfg, p, gen, cap: spectral.negativity(cfg, p),
    ("negativity", "oracle"): lambda cfg, p, gen, cap: oracle.negativity(cfg, p),
    ("fisher", "spectral"): lambda cfg, p, gen, cap: spectral.fisher_information(cfg, p, generator=gen),
    ("fisher", "oracle"): lambda cfg, p, gen, cap: oracle.fisher(cfg, p, generator=gen),
}

QUANTITIES = tuple(dict.fromkeys(quantity for quantity, _ in REGISTRY))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _engines_for(quantity, requested):
    supported = tuple(engine for q, engine in REGISTRY if q == quantity)
    if not supported:
        raise _UsageError(f"unknown quantity {quantity!r}")
    if requested == "auto":
        return (supported[0],)
    if requested == "all":
        return supported
    if requested not in supported:
        raise _UsageError(
            f"engine {requested!r} does not support {quantity!r} (supported: {', '.join(supported)})"
        )
    return (requested,)


def _evaluate_point(quantity, engines, cfg, p, generator, threshold_cap=analytic.DEFAULT_THRESHOLD_CAP):
    """Run each engine at one point: (values, errors, runtimes, max discrepancy).

    Values are floats, or the printed form of a ThresholdResult.  An engine
    that raises InputError or ResourceLimitError leaves its exception in
    `errors` and no value; the other engines still run.
    """
    values, errors, runtimes = {}, {}, {}
    for engine in engines:
        start = time.perf_counter()
        try:
            value = REGISTRY[quantity, engine](cfg, p, generator, threshold_cap)
        except (InputError, ResourceLimitError) as exc:
            errors[engine] = exc
            continue
        runtimes[engine] = time.perf_counter() - start
        values[engine] = str(value) if isinstance(value, analytic.ThresholdResult) else float(value)
    numeric = [v for v in values.values() if isinstance(v, float)]
    discrepancy = max(numeric) - min(numeric) if len(numeric) > 1 else 0.0
    return values, errors, runtimes, discrepancy


def _columns(last, engine_all):
    """Record keys, which are also the CSV header: `last` is "runtime" (eval) or "error" (sweep)."""
    return ("quantity", "N", "m", "p", "engine", "value", last) + (
        ("max_discrepancy",) if engine_all else ()
    )


def _record(columns, *cells):
    # zip drops the trailing discrepancy cell when the columns have no max_discrepancy
    return dict(zip(columns, cells))


def _fmt_value(value):
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".16e")


_CELL_FORMAT = {"p": repr, "runtime": "{:.3f}".format}


def _format_record(record):
    return {key: _CELL_FORMAT.get(key, _fmt_value)(cell) for key, cell in record.items()}


def _csv(columns, records, trailer=()):
    rows = [",".join(columns)]
    rows += [",".join(_format_record(r).values()) for r in records]
    return "\n".join(rows + list(trailer)) + "\n"


def _check_agreement(engine_all, discrepancy):
    if engine_all and discrepancy > ENGINE_DISAGREEMENT_TOL:
        raise ConsistencyError(
            f"engines disagree by {discrepancy:.3e} (tolerance {ENGINE_DISAGREEMENT_TOL:g})"
        )


def _noise_from_args(args):
    if args.kappa is None and args.t is None:
        if args.p is None:
            raise _UsageError("give --p or (--kappa and --t)")
        return survival(args.p)
    if args.p is not None:
        raise _UsageError("give --p or (--kappa and --t), not both")
    if args.kappa is None or args.t is None:
        raise _UsageError("--kappa and --t must be given together")
    if not (args.kappa >= 0 and args.t >= 0 and args.kappa * args.t < math.inf):
        raise InputError(f"kappa and t must be nonnegative and finite, with finite kappa*t; got kappa={args.kappa}, t={args.t}")
    return survival(math.exp(-args.kappa * args.t))


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_envelope(args, records):
    return json.dumps(
        {
            "command": " ".join(args.argv),
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "records": records,
        },
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------- eval


def _cmd_eval(args):
    # the threshold is the largest distillable N, so a given --N takes no part in it
    threshold = args.quantity == "threshold"
    if args.N is None and not threshold:
        raise _UsageError("--N is required for this quantity")
    if args.threshold_cap < 2:
        raise _UsageError(f"--threshold-cap must be >= 2, got {args.threshold_cap}")
    p = _noise_from_args(args)
    cfg = BlockConfig(N=2 if threshold else args.N, m=args.m)
    engines = _engines_for(args.quantity, args.engine)
    values, errors, runtimes, discrepancy = _evaluate_point(
        args.quantity, engines, cfg, p, args.generator, args.threshold_cap
    )
    if errors:
        raise next(iter(errors.values()))
    columns = _columns("runtime", args.engine == "all")
    n_cell = "" if threshold else args.N
    records = [
        _record(columns, args.quantity, n_cell, args.m, p, e, values[e], runtimes[e], discrepancy)
        for e in engines
    ]
    _write_output(_json_envelope(args, records) if args.json else _csv(columns, records), args.out)
    _check_agreement(args.engine == "all", discrepancy)
    return 0


# ---------------------------------------------------------------- sweep


def _parse_list(flag, text, convert=int, sep=","):
    """Split and convert a --flag value; a malformed item is a usage error."""
    try:
        return [convert(x) for x in text.split(sep)]
    except ValueError:
        raise _UsageError(f"bad {flag} {text!r}") from None


def _parse_n_values(args):
    # the parser's group gives exactly one axis; a bound pair that holds no N,
    # or an axis that holds an N below 1, is malformed too
    if args.n_list is not None:
        flag, text = "--n-list", args.n_list
        n_values = _parse_list(flag, text)
    elif args.n_pow2 is not None:
        flag, text = "--n-pow2", args.n_pow2
        bounds = _parse_list(flag, text, sep=":")
        ok = len(bounds) == 2 and 0 <= bounds[0] <= bounds[1]
        n_values = [2**k for k in range(bounds[0], bounds[1] + 1)] if ok else []
    else:
        flag, text = "--n-range", args.n_range
        parts = _parse_list(flag, text, sep=":")
        ok = len(parts) in (2, 3) and min(parts[2:], default=1) >= 1
        n_values = list(range(parts[0], parts[1] + 1, parts[2] if len(parts) == 3 else 1)) if ok else []
    if not n_values or min(n_values) < 1:
        raise _UsageError(f"bad {flag} {text!r}")
    return n_values


def _cmd_sweep(args):
    if args.quantity == "threshold":
        raise _UsageError("threshold has no N axis; use `eval threshold`")
    n_values = _parse_n_values(args)
    m_iter = ["log2"] if args.m_list == "log2" else sorted(_parse_list("--m", args.m_list))
    p_values = [survival(x) for x in _parse_list("--p", args.p_list, float)]
    engines = _engines_for(args.quantity, args.engine)
    columns = _columns("error", args.engine == "all")
    records = []
    series = {}
    worst = 0.0
    for m in m_iter:
        for p in p_values:
            for n in n_values:
                m_eff = max(1, math.ceil(math.log2(n))) if m == "log2" else m
                cfg = BlockConfig(N=n, m=m_eff)
                values, errors, _, disc = _evaluate_point(args.quantity, engines, cfg, p, args.generator)
                worst = max(worst, disc)
                for engine in engines:
                    # keep the error cell comma-free so the CSV stays parseable
                    error = f"{engine}: {errors[engine]}".replace(",", ";") if engine in errors else ""
                    records.append(
                        _record(columns, args.quantity, n, m_eff, p, engine, values.get(engine), error, disc)
                    )
                primary = engines[0]
                if primary in values:
                    series.setdefault((m_eff, p, primary), []).append((n, values[primary]))
    fits = []
    if args.fit:
        for (m_eff, p, engine), pts in sorted(series.items()):
            positive = [(n, v) for n, v in pts if v > 0]
            if len(positive) < 3:
                continue
            fit = analytic.fit_exponential_tail(positive)
            fits.append(
                f"#fit,{args.quantity},m={m_eff},p={p!r},engine={engine}"
                f",a={_fmt_value(fit.amplitude)},gamma={_fmt_value(fit.rate)}"
                f",residual={_fmt_value(fit.residual)}"
                f",window={math.ceil(fit.window[0])}:{math.floor(fit.window[1])}"
            )
    if args.json:
        _write_output(_json_envelope(args, [_format_record(r) for r in records]), args.out)
    else:
        _write_output(_csv(columns, records, fits), args.out)
    _check_agreement(args.engine == "all", worst)
    return 0


# ---------------------------------------------------------------- random-compare


def _cmd_random_compare(args):
    p = _noise_from_args(args)
    if not 1 <= args.m <= 4:
        raise _UsageError(f"random-compare is specified for 1 <= m <= 4, got {args.m}")
    if args.samples < 0:
        raise _UsageError(f"--samples must be >= 0, got {args.samples}")
    reference = oracle.generic_coherence_norm(ghz(args.m, +1), ghz(args.m, -1), p)
    rows = ["sample,value"]
    values = []
    for k in range(args.samples + 1):
        if k == 0:
            value = reference  # sample 0 is the GHZ block pair itself
        else:
            a, b = random_orthogonal_pair(args.m, args.seed + k)
            value = oracle.generic_coherence_norm(a, b, p)
        values.append(value)
        rows.append(f"{k},{_fmt_value(value)}")
    random_values = values[1:]
    # strict exceedance with headroom for trace-norm rounding noise
    exceed = sum(1 for v in random_values if v > reference + 1e-12)
    summary = {
        "m": args.m,
        "p": p,
        "samples": args.samples,
        "seed": args.seed,
        "cghz_block_norm": reference,
        "max_random": max(random_values) if random_values else None,
        "exceed_count": exceed,
        "exceed_fraction": exceed / args.samples if args.samples else 0.0,
    }
    if args.out:
        _write_output("\n".join(rows) + "\n", args.out)
    if args.json:
        sys.stdout.write(_json_envelope(args, [summary]))
    else:
        sys.stdout.write(
            f"cghz block norm: {_fmt_value(reference)}\n"
            f"max over {args.samples} random pairs: {_fmt_value(summary['max_random'])}\n"
            f"pairs exceeding the cghz value: {exceed} ({summary['exceed_fraction']:.6f})\n"
        )
    return 0


# ---------------------------------------------------------------- synthesize


def _cmd_synthesize(args):
    cfg = BlockConfig(N=args.N, m=args.m)
    circuit = circuits.synthesize_preparation(cfg)
    _write_output(circuits.export_circuit(circuit), args.out)
    ms, zl, phase = circuits.gate_counts(circuit)
    report = {
        "N": args.N,
        "m": args.m,
        "ms_count": ms,
        "zlayer_count": zl,
        "total_ms_phase": f"{phase}*pi",
    }
    if args.verify:
        if cfg.qubits > linalg.DENSE_QUBIT_CAP:
            sys.stderr.write(
                f"warning: verification skipped, {cfg.qubits} qubits exceed the cap of {linalg.DENSE_QUBIT_CAP}\n"
            )
        else:
            report["fidelity"] = circuits.preparation_fidelity(cfg, circuit)
    if args.json:
        sys.stdout.write(_json_envelope(args, [report]))
    else:
        msg = f"ms={ms} zlayers={zl} phase={phase}*pi"
        if "fidelity" in report:
            msg += f" fidelity={report['fidelity']:.12f}"
        sys.stdout.write(msg + "\n")
    return 0


# ---------------------------------------------------------------- entry point


def build_parser():
    parser = _Parser(prog="cghz", description="Concatenated-GHZ robustness toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_n=True):
        if with_n:
            sp.add_argument("--N", type=int, required=False, default=None)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", default=None)

    ev = sub.add_parser("eval", help="single-point evaluation")
    ev.add_argument("quantity", choices=QUANTITIES)
    add_common(ev)
    ev.add_argument("--engine", default="auto", choices=("auto", "analytic", "spectral", "oracle", "all"))
    ev.add_argument("--generator", default="block-x", choices=("block-x", "single-z"))
    ev.add_argument("--threshold-cap", type=int, default=analytic.DEFAULT_THRESHOLD_CAP)
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="parameter sweep to CSV", description="Give one N axis, of one N or more.")
    sw.add_argument("quantity", choices=QUANTITIES)
    axis = sw.add_mutually_exclusive_group(required=True)
    axis.add_argument("--n-range", default=None, help="lo:hi[:step], hi included, step >= 1")
    axis.add_argument("--n-list", default=None, help="comma-separated N values")
    axis.add_argument("--n-pow2", default=None, help="lo:hi exponent range, N = 2^k, hi included")
    sw.add_argument("--m", dest="m_list", required=True, help="comma list, or 'log2' for m = ceil(log2 N)")
    sw.add_argument("--p", dest="p_list", required=True, help="comma-separated p values")
    sw.add_argument("--engine", default="auto", choices=("auto", "analytic", "spectral", "oracle", "all"))
    sw.add_argument("--generator", default="block-x", choices=("block-x", "single-z"))
    sw.add_argument("--fit", action="store_true", help="append exponential tail fits per series")
    sw.add_argument("--json", action="store_true")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=_cmd_sweep)

    rc = sub.add_parser("random-compare", help="Haar pairs vs the concatenated-GHZ block")
    rc.add_argument("--samples", type=int, required=True)
    add_common(rc, with_n=False)
    rc.add_argument("--seed", type=int, default=0)
    rc.set_defaults(func=_cmd_random_compare)

    sy = sub.add_parser("synthesize", help="emit the preparation circuit")
    sy.add_argument("--N", type=int, required=True)
    sy.add_argument("--m", type=int, required=True)
    sy.add_argument("--out", default=None)
    sy.add_argument("--verify", action="store_true")
    sy.add_argument("--json", action="store_true")
    sy.set_defaults(func=_cmd_synthesize)
    return parser


# one parser per process, built on first use: parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        args.argv = argv
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
