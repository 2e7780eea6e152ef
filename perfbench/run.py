"""Benchmark of the cghz package: certify, sweep and design workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing has to be installed.  One caller in one process
runs a workload's items one after another (a closed loop, no rate, no added
threads; numpy keeps its default BLAS threading).  A run sets up several
times, then measures whole rounds of items until `--seconds` would be
exceeded, checks every output, and prints a report, a JSON report line and,
last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 untraced and traced rounds alternate and the metrics are the
per-layer ones, taken from spans recorded around every public cghz function.
See perfbench/README.md.
"""

import argparse
import importlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_BEFORE = 3
SETUP_AFTER = 4
TAIL_BEYOND = 10

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def use_checkout_sources():
    """Put the checkout's src/ first on the import path; False when the sources are missing."""
    if not (ROOT / "src" / "cghz" / "__init__.py").is_file():
        return False
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    return True


def load_cghz():
    """Import cghz afresh from the checkout's src/ and return its modules by layer name."""
    for name in [n for n in sys.modules if n == "cghz" or n.startswith("cghz.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"cghz.{layer}") for layer in LAYERS}
    mods["cghz"] = sys.modules["cghz"]
    return mods


def round_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def run_item(item, tracer=None):
    """Time one item; return (seconds, cpu seconds, failure message or None)."""
    start_cpu = time.process_time()
    start = time.perf_counter()
    try:
        result = item.run()
    except Exception as exc:  # a raising item is a failed item, never an aborted run
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        return wall, cpu, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    if tracer is not None:
        tracer.enabled = False
    try:
        item.check(result)
    except workloads.CheckFailed as exc:
        return wall, cpu, str(exc)
    except Exception as exc:
        return wall, cpu, f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.enabled = True
    return wall, cpu, None


def run_round(items, records, round_index, tracer=None):
    """Run a round's items in order; return (item seconds, item cpu seconds) summed."""
    wall = cpu = 0.0
    for item in items:
        if tracer is not None:
            tracer.item = len(records)
        dt, dcpu, failure = run_item(item, tracer)
        wall += dt
        cpu += dcpu
        records.append({"item": item.name, "round": round_index, "seconds": dt, "failure": failure})
    return wall, cpu


def tail(values):
    """(value, percentile, items beyond): the highest percentile with TAIL_BEYOND items above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(seed, workload, items_per_round):
    try:
        import ctypes
        import glob

        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
        threads = None
        libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if get is not None:
                get.restype = ctypes.c_int
                threads = get()
        numpy_version = numpy.__version__
    except (ImportError, KeyError, OSError, AttributeError):
        blas_name, threads, numpy_version = None, None, None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_name,
        "blas_threads": threads,
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "items_per_round": items_per_round,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def set_up(workload, seed, tmpdir, tiny):
    """Import cghz afresh, run the warm-up round and generate round 0; return (seconds, cg, ctx, round 0)."""
    start = time.perf_counter()
    cg = SimpleNamespace(**load_cghz())
    ctx = SimpleNamespace(tmpdir=str(tmpdir), serial=itertools.count(), samples=[])
    build = workloads.WORKLOADS[workload]
    run_round(build(cg, round_rng(workload, seed, "warm-up"), ctx, tiny=True), [], -1)
    first = build(cg, round_rng(workload, seed, 0), ctx, tiny=tiny)
    return time.perf_counter() - start, cg, ctx, first


def measure(workload, seed, seconds, trace, tiny=False):
    """Set up, run rounds for `seconds`, check; return the metric values and the report."""
    build = workloads.WORKLOADS[workload]
    tmpdir = OUT_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_BEFORE):
            took, cg, ctx, first = set_up(workload, seed, tmpdir, tiny)
            setups.append(took)

        tracer = Tracer(vars(cg)) if trace else None
        records, plain, traced = [], [], []
        started = time.perf_counter()
        index = 0
        while True:
            items = first if index == 0 else build(cg, round_rng(workload, seed, index), ctx, tiny=tiny)
            ctx.samples.clear()  # the spot checks draw from the last round
            use_trace = trace and index % 2 == 1
            if use_trace:
                tracer.install()
            try:
                wall, cpu = run_round(items, records, index, tracer if use_trace else None)
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).append((wall, cpu))
            index += 1
            elapsed = time.perf_counter() - started
            if index >= (2 if trace else 1) and elapsed * (index + 1) / index > seconds:
                break

        spot, defects = [], []
        if workload == "sweep":
            for name, point, failure in workloads.spot_check(round_rng(workload, seed, "spot"), ctx.samples):
                spot.append({"point": point, "ok": failure is None})
                for rec in records:
                    if failure and (rec["item"], rec["round"]) == (name, index - 1) and not rec["failure"]:
                        rec["failure"] = failure
            defects = workloads.known_defects(cg, ctx)

        # set-up is sampled before and after the rounds so that its median
        # does not hinge on the machine load of the first second
        for _ in range(SETUP_AFTER):
            setups.append(set_up(workload, seed, tmpdir, tiny)[0])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed = [r for r in records if r["failure"]]
    timed = [r["seconds"] for r in records if not trace or r["round"] % 2 == 0]
    tail_s, tail_pct, beyond = tail(timed)
    values = {
        "wall_s": statistics.median(w for w, _ in plain),
        "cpu_s": statistics.median(c for _, c in plain),
        "setup_s": statistics.median(setups),
        "item_p50_ms": 1e3 * statistics.median(timed),
        "item_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        totals = tracer.totals()
        rounds = len(traced)
        values = {key: value / rounds for key, value in totals.items()}
        overhead = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
        values["trace.overhead_s"] = overhead
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
        tracer.write(spans_path)
    report = {
        "environment": environment(seed, workload, len(first)),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "round_item_seconds": [round(w, 6) for w, _ in plain],
        "setup_seconds": [round(s, 6) for s in setups],
        "attempted": len(records),
        "failed": len(failed),
        "error_rate": len(failed) / len(records),
        "item_tail": {"percentile": round(tail_pct, 3), "items_beyond": beyond, "items": len(timed)},
        "failed_items": [{"item": r["item"], "round": r["round"], "message": r["failure"]} for r in failed],
        "spot_checks": spot,
        "known_defects": defects,
        "wait_time": "none: one process runs items one after another, so nothing queues",
    }
    if trace:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["binding_sites"] = len(tracer.sites)
        report["trace_spans"] = len(tracer.spans)
    return values, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        sys.stderr.write(f"perfbench: no cghz sources under {ROOT / 'src'} (run from a source checkout)\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        report["absent_on_this_workload"] = absent

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} error_rate = {report['error_rate']:.6g} "
        f"(failed/attempted = {report['failed']}/{report['attempted']})"
    )
    tail_info = report["item_tail"]
    print(
        f"{args.workload} item_tail_ms is p{tail_info['percentile']:g} over {tail_info['items']} items "
        f"({tail_info['items_beyond']} beyond it)"
    )
    for fail in report["failed_items"]:
        print(f"FAILED {fail['item']} (round {fail['round']}): {fail['message']}")
    for defect in report["known_defects"]:
        print(f"KNOWN DEFECT {defect['item']}: {defect['message']}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
