"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced; shows that a
deliberately perturbed output is counted as a failed item for each kind of
check (dense certification, exact spot check, circuit round trip); runs the
command line once and checks the result line against BENCHMARK.json; and
shows that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/.  Exits 0 when all hold.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COMMAND = [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0"]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAIL {message}")
    print(f"smoke: ok   {message}")


def tiny_runs():
    for name in workloads.WORKLOADS:
        values, report = run.measure(name, seed=1, seconds=0.5, trace=False, tiny=True)
        attempted, failed = report["attempted"], report["failed"]
        check(attempted > 0 and failed == 0, f"{name}: tiny run, {attempted} items, {failed} failed")
        check(all(values[m] > 0 for m in END_TO_END), f"{name}: every end-to-end metric measured")
        values, report = run.measure(name, seed=1, seconds=0.5, trace=True, tiny=True)
        spans = report["trace_spans"]
        check(report["failed"] == 0 and spans > 0, f"{name}: traced tiny run, {spans} spans")
        check("trace.overhead_s" in values, f"{name}: trace overhead reported")


def per_layer_names():
    traced = set(run.Tracer(run.load_cghz()).functions) | set(run.LAYERS)
    computed = {"oracle.dense_bytes_computed", "spectral.sectors_computed", "trace.overhead_s"}
    unknown = [n for n in PER_LAYER if n not in computed and n.rsplit(".", 1)[0] not in traced]
    check(not unknown, f"every per-layer metric names a traced function or layer {unknown or ''}")


def failed_names(items):
    records = []
    run.run_round(items, records, 0)
    return [r["item"] for r in records if r["failure"]]


def perturbed_checks():
    ctx = SimpleNamespace(tmpdir=str(run.OUT_DIR), serial=itertools.count(), samples=[])

    cg = SimpleNamespace(**run.load_cghz())
    negativity = cg.spectral.negativity
    cg.spectral.negativity = lambda cfg, p, **kw: negativity(cfg, p, **kw) + 1e-6
    items = workloads.certify_round(cg, random.Random(1), ctx, tiny=True)
    failed = failed_names(items)
    want = [i.name for i in items if i.name.startswith("certify negativity")]
    check(failed == want and want, f"certify: a negativity shifted by 1e-6 fails its {len(want)} items")

    value = float(exact.negativity(6, 3, 0.875))
    good = workloads.spot_check(random.Random(1), [("item", "negativity", 6, 3, 0.875, value)])
    bad = workloads.spot_check(random.Random(1), [("item", "negativity", 6, 3, 0.875, value * (1 + 1e-7))])
    check(good[0][2] is None and bad[0][2] is not None, "sweep: 1e-7 relative off fails the exact check")

    cg = SimpleNamespace(**run.load_cghz())
    parse = cg.circuits.parse_circuit
    cg.circuits.parse_circuit = lambda text: parse(text.rsplit("\n", 2)[0] + "\n")
    items = workloads.design_round(cg, random.Random(1), ctx, tiny=True)
    failed = failed_names(items)
    want = [i.name for i in items if i.name.startswith("design synthesize")]
    check(failed == want and want, "design: a parser that drops the last gate fails the round trip")


def command_line():
    out = subprocess.run(COMMAND, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    check(out.returncode == 0 and set(result) == keys, "command line: result keys")
    check(list(result["metrics"]) == END_TO_END, "command line: metrics match BENCHMARK.json end_to_end")


def bare_directory():
    bare = run.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        out = subprocess.run(COMMAND, cwd=bare, capture_output=True, text=True, timeout=180)
        refused = out.returncode != 0 and '"correct"' not in out.stdout
        check(refused, f"bare directory: exit {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check(run.use_checkout_sources(), "cghz sources found under src/")
    per_layer_names()
    tiny_runs()
    perturbed_checks()
    command_line()
    bare_directory()
    print("smoke: all checks passed")
