"""Spans around the public functions of the cghz modules, recorded from outside.

`Tracer.install` rebinds every binding site of every public function: the
attribute on its defining module, and every other cghz module attribute that
holds the same function object (names imported by value, such as
`oracle.depolarize_all`, `oracle.cghz` or `circuits.cghz`, and the package
re-exports).  Calls made through `module.attr` lookups, as `cli` does for
`spectral.*` and `oracle.*`, resolve to the wrappers as well.

Spans stay in memory as (name, parent span, item, start, end, failed) and are
written once, at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

import gzip
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("linalg", "channels", "states", "oracle", "spectral", "analytic", "circuits", "cli")

_DENSE_STATES = ("oracle.decohered_cghz", "oracle.decohered_coherence")
_SECTOR_SUMS = ("spectral.cghz_spectrum", "spectral.negativity", "spectral.fisher_information")


def _config_arg(args, kwargs):
    return kwargs["cfg"] if "cfg" in kwargs else args[0]


class Tracer:
    def __init__(self, modules):
        """`modules` maps each layer name to its module; further entries (the package) are rebound too."""
        self.spans = []
        self.stack = []
        self.item = -1
        self.enabled = False
        # computed, not measured: derived from the call arguments
        self.work = defaultdict(int)
        self.sites = []  # (module, attribute, original function)
        originals = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = (fn, f"{layer}.{fn.__name__}")
        self.functions = sorted(name for _, name in originals.values())
        self._wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if id(value) in self._wrappers and value is originals[id(value)][0]:
                    self.sites.append((mod, attr, value))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        count_bytes = name in _DENSE_STATES
        count_sectors = name in _SECTOR_SUMS

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count_bytes:
                self.work["oracle.dense_bytes_computed"] += 16 * 4 ** _config_arg(args, kwargs).qubits
            if count_sectors:
                cfg = _config_arg(args, kwargs)
                self.work["spectral.sectors_computed"] += math.comb(cfg.N + cfg.m // 2, cfg.m // 2)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.item, start, end, failed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        for mod, attr, fn in self.sites:
            setattr(mod, attr, self._wrappers[id(fn)])
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for mod, attr, fn in self.sites:
            setattr(mod, attr, fn)

    def totals(self):
        """Self time, calls and failures per function and per layer, plus the computed work counts."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, _, _, start, end, failed) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s = end - start - child[sid]
            for key in (name, layer):
                out[f"{key}.self_s"] += self_s
                out[f"{key}.calls"] += 1
                out[f"{key}.failed"] += failed
        out.update(self.work)
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [index[name], parent, item, round((start - t0) * 1e9), round((end - start) * 1e9), int(failed)]
            for name, parent, item, start, end, failed in self.spans
        ]
        doc = {
            "fields": ["name", "parent", "item", "start_ns", "duration_ns", "failed"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
