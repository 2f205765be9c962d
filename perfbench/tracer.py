"""Per-layer timing by wrapping public functions of `neuroplug` from outside.

Every target function is replaced, in every `neuroplug` module namespace
that binds it, by a wrapper that records calls, busy time (wall time inside
the call) and self time (busy time minus the busy time of wrapped calls
nested inside it), plus work counts taken from the call's arguments and
result.  Counting happens after the call's clock stops, so it adds to the
caller's self time only.  `src/` is never edited: the wrappers live for the
duration of a `Tracer.installed()` block and are removed afterwards.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

from neuroplug import binpack


def _events(args, kwargs, result):
    trace = getattr(result, "trace", result)  # NeuroPlugRun carries a Trace
    return {"events": len(trace)}


def _compress(args, kwargs, result):
    return {
        "stored": int(result.payload[0] == binpack.MODE_STORED),
        "raw_bytes": result.raw_size,
        "comp_bytes": result.comp_size,
    }


def _pack(args, kwargs, result):
    bins, report = result
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"bins": len(bins), "data_bytes": report.comp_total,
            "bin_bytes": len(bins) * cfg.bin_size}


def _conv_macs(args, kwargs, result):
    weights = args[1]
    k, c, r, s = weights.shape
    return {"macs": k * c * r * s * result.shape[1] * result.shape[2]}


def _huff_bits(args, kwargs, result):
    tokens, _codes, lens = args[:3]
    return {"bits": int(np.asarray(lens)[np.asarray(tokens)].astype(np.int64).sum())}


# (module, attribute, work-count function or None).  Each target yields the
# metrics <module>.<attribute>.{calls,busy_s,self_s} plus its named counts;
# `_kernels` is named `kernels` because a metric name starts with a letter.
TARGETS = [
    ("_kernels", "conv2d_acc", _conv_macs),
    ("_kernels", "rle_encode", lambda a, k, r: {"bytes": int(np.asarray(a[0]).size)}),
    ("_kernels", "huff_encode", _huff_bits),
    ("_kernels", "huff_decode", lambda a, k, r: {"tokens": int(a[1])}),
    ("_kernels", "rle_decode", None),
    ("_kernels", "nsqf_mask", lambda a, k, r: {"ints": int(a[1]) - int(a[0]) + 1}),
    ("model", "generate_weights", None),
    ("model", "conv_forward", None),
    ("sfc", "plan_execution", None),
    ("binpack", "compress_tile", _compress),
    ("binpack", "decompress_tile", None),
    ("binpack", "pack_bins", _pack),
    ("binpack", "unpack_bins", None),
    ("binpack", "Bin.to_bytes", None),
    ("binpack", "bin_from_bytes", None),
    ("tracegen", "compute_net_data", None),
    ("tracegen", "prepare_neuroplug", None),
    ("tracegen", "neuroplug_trace", _events),
    ("tracegen", "baseline_trace", _events),
    ("tracegen", "additive_cm_trace", _events),
    ("mellin", "predict_X", None),
    ("mellin", "smart_search_space", None),
    ("mellin", "rank", None),
    ("attacks", "smart_rank_for_layer", None),
    ("attacks", "ss_attack", None),
    ("attacks", "kk_attack", None),
    ("attacks", "si_attack", None),
    ("attacks", "reverse_engg_attack", None),
]

# Counts reported as metrics (per pass), with their units; the remaining
# counts only feed the ratios below.
COUNT_METRICS = {
    "kernels.conv2d_acc.macs": "count",
    "kernels.rle_encode.bytes": "B",
    "kernels.huff_encode.bits": "bit",
    "kernels.huff_decode.tokens": "count",
    "kernels.nsqf_mask.ints": "count",
    "binpack.pack_bins.bins": "count",
    "tracegen.neuroplug_trace.events": "count",
    "tracegen.baseline_trace.events": "count",
    "tracegen.additive_cm_trace.events": "count",
}

# name -> (numerator count, denominator count, better)
RATIO_METRICS = {
    "binpack.compress_tile.stored_frac": ("binpack.compress_tile.stored", "binpack.compress_tile.calls", "lower"),
    "binpack.compress_tile.ratio": ("binpack.compress_tile.comp_bytes", "binpack.compress_tile.raw_bytes", "lower"),
    "binpack.pack_bins.fill": ("binpack.pack_bins.data_bytes", "binpack.pack_bins.bin_bytes", "higher"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run emits: name, unit, direction."""
    specs = []
    for module, attr, _ in TARGETS:
        base = f"{module.lstrip('_')}.{attr}"
        specs.append({"name": f"{base}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{base}.busy_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{base}.self_s", "unit": "s", "better": "lower"})
    specs += [{"name": n, "unit": u, "better": "lower"} for n, u in COUNT_METRICS.items()]
    specs += [{"name": n, "unit": "ratio", "better": b} for n, (_, _, b) in RATIO_METRICS.items()]
    specs.append({"name": "trace.wall_s", "unit": "s", "better": "lower"})
    return specs


class Tracer:
    """Accumulates calls, busy/self seconds and counts per wrapped function."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child busy seconds per open call

    def _wrap(self, name: str, fn, count):
        totals, stack = self.totals, self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                totals[f"{name}.calls"] += 1
                totals[f"{name}.busy_s"] += busy
                totals[f"{name}.self_s"] += busy - frame[0]
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    totals[f"{name}.{key}"] += val
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers wherever the targets are looked up, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "neuroplug" or n.startswith("neuroplug."))]
        undo = []
        try:
            for module, attr, count in TARGETS:
                home = sys.modules[f"neuroplug.{module}"]
                name = f"{module.lstrip('_')}.{attr}"
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, count))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(name, orig, count)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def per_pass(self, passes: int, wall_s: float) -> dict[str, dict]:
        """Every metric of `metric_specs()` as {value, unit}, averaged over the passes run."""
        out = {}
        for spec in metric_specs():
            name = spec["name"]
            if name in RATIO_METRICS:
                num, den, _ = RATIO_METRICS[name]
                d = self.totals.get(den, 0.0)
                value = self.totals.get(num, 0.0) / d if d else 0.0
            elif name == "trace.wall_s":
                value = wall_s
            else:
                value = self.totals.get(name, 0.0) / passes
            out[name] = {"value": value, "unit": spec["unit"]}
        return out
