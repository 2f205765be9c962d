"""The four benchmark workloads, driven through the public API of `neuroplug`.

Each workload is a closed loop with one client: one call is issued only
after the previous one returned.  A workload's constructor is its set-up
(config load and input generation from the seed); `run_pass` does one pass
and logs every op through an `Ops` log, which times it and turns its output
into a record for the golden check.  Functions are called through their
module attributes so that a `Tracer` can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

from neuroplug import attacks, binpack, model, tracegen
from neuroplug.errors import NeuroPlugError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Public NPU design constants the Kerckhoff attack may know about NeuroPlug.
BIN_LEAKS = {"bin_size": 61440, "kappa": 8, "table_entry_size": 8}
# Insider leaks per additive model: the hardwired mean and jitter floor of
# const-mean (the `additive_cm_trace` defaults); the other two hardwire none.
ADDITIVE_LEAKS = {
    "dummy-writes": {},
    "const-mean": {"const_mean": 22400, "jitter_lo": -8},
    "layer-divider": {},
}


def digest(obj) -> str:
    """Short stable hash of bytes or of a JSON-serialisable value."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(obj, digest_size=8).hexdigest()


def sim_cycles(trace) -> int:
    """Simulated cycle at which the trace issues its last transaction."""
    return int(trace.t[-1])


class Ops:
    """Times ops and records their outcomes.

    An op that raises a `NeuroPlugError` has a recorded outcome (the error
    type), not a failure.  Any other exception is a failed op; its record
    is None.  A record carrying ``"ok": False`` broke an invariant the
    workload checks on every seed, and also counts as failed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list[dict | None] = []

    def run(self, fn, describe, *args):
        """Time fn(*args), then record describe(output); returns the output or None."""
        out = record = None
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except NeuroPlugError as exc:
            record = {"error": type(exc).__name__}
        except Exception:  # an unexpected failure is counted, not fatal
            traceback.print_exc()
        self.latencies.append(time.perf_counter() - t0)
        if out is not None:
            record = describe(out)
        self.records.append(record)
        return out


class Workload:
    """Base of the four workloads."""

    @staticmethod
    def pins(pass_record: dict) -> list[str]:
        """Paper claims checked on each pass record; problems found."""
        return []


class Defend(Workload):
    """toy-sparse, eight inputs: per input prepare, R defended runs, ss+kk, baseline."""

    name = "defend-toy-sparse"
    inputs = 8
    runs = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.net = model.load_network("toy-sparse")
        shape = self.net.layers[0].shape
        # one model seed and key per input, so that a pass averages over
        # eight models' sparsity and its work varies little between seeds
        self.model_seeds = [seed * self.inputs + j for j in range(self.inputs)]
        self.input_list = [model.generate_input(shape, s) for s in self.model_seeds]
        self.keys = [tracegen.NeuroPlugKey(seed=s) for s in self.model_seeds]
        self.truth = tracegen.ground_truth(self.net)

    @staticmethod
    def _describe_cache(cache) -> dict:
        tiles = [t for group in cache.fmap_tiles + cache.weight_tiles for t in group]
        return {"tiles": len(tiles), "payloads": digest(b"".join(t.payload.tobytes() for t in tiles))}

    @staticmethod
    def _describe_run(run) -> dict:
        return {
            "trace": digest(run.trace.arr.tobytes()),
            "bins": [s.n_bins for s in run.streams],
            "reports": digest([r.to_json() for r in run.reports]),
        }

    def _sskk(self, traces):
        sskk = attacks.kk_attack(attacks.ss_attack(traces), BIN_LEAKS)
        return sskk.to_json(), attacks.verdict_volumes(sskk, self.truth)["broken"]

    @staticmethod
    def _describe_sskk(out) -> dict:
        report, broken = out
        # the paper's claim: ss+kk does not break NeuroPlug
        return {"report": digest(report), "broken": broken, "ok": not broken}

    def run_pass(self, ops: Ops) -> dict:
        cycles, traffic = [], []
        for inp, s, key in zip(self.input_list, self.model_seeds, self.keys):
            cache = ops.run(tracegen.prepare_neuroplug, self._describe_cache, self.net, inp, s)
            runs = [ops.run(tracegen.neuroplug_trace, self._describe_run, self.net, inp, key,
                            r, s, cache)
                    for r in range(self.runs)]
            traces = [r.trace for r in runs if r is not None]
            ops.run(self._sskk, self._describe_sskk, traces)
            base = ops.run(tracegen.baseline_trace, lambda t: {"trace": digest(t.arr.tobytes())},
                           self.net, inp, s)
            if base is not None:
                cycles += [sim_cycles(t) / sim_cycles(base) for t in traces]
                traffic += [int(t.size.sum()) / int(base.size.sum()) for t in traces]
        return {
            "sim_overhead": sum(cycles) / max(1, len(cycles)),
            "traffic_overhead": sum(traffic) / max(1, len(traffic)),
        }


class Attack(Workload):
    """vgg16-32, two inputs: the three additive models and reverse engineering."""

    name = "attack-vgg16-32"
    runs = 4
    inputs = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.net = model.load_network("vgg16-32")
        shape = self.net.layers[0].shape
        self.input_list = [model.generate_input(shape, seed * self.inputs + j)
                           for j in range(self.inputs)]
        self.truth = tracegen.ground_truth(self.net)

    def _additive(self, inp, data, cm_model):
        traces = [tracegen.additive_cm_trace(self.net, inp, cm_model, seed=self.seed, run_index=r,
                                             observe_values=True, data=data)
                  for r in range(self.runs)]
        ss = attacks.ss_attack(traces)
        sskk = attacks.kk_attack(ss, ADDITIVE_LEAKS[cm_model])
        sskk_json = sskk.to_json()  # si_attack updates the estimates it is given
        sskk_broken = attacks.verdict_volumes(sskk, self.truth)["broken"]
        si = attacks.si_attack(traces, base_report=sskk)
        return cm_model, traces, [
            (ss.to_json(), attacks.verdict_volumes(ss, self.truth)["broken"]),
            (sskk_json, sskk_broken),
            (si.to_json(), attacks.verdict_volumes(si, self.truth)["broken"]),
        ]

    @staticmethod
    def _describe_additive(out) -> dict:
        cm_model, traces, verdicts = out
        broken = {gen: b for gen, (_, b) in zip(("ss", "ss+kk", "ss+kk+si"), verdicts)}
        # the paper's claims: ss breaks dummy writes, ss+kk+si the layer divider
        pinned = {"dummy-writes": "ss", "layer-divider": "ss+kk+si"}.get(cm_model)
        return {
            "traces": digest(b"".join(t.arr.tobytes() for t in traces)),
            "reports": digest([j for j, _ in verdicts]),
            "broken": broken,
            "ok": pinned is None or broken[pinned],
        }

    def _reverse(self, inp):
        base = tracegen.baseline_trace(self.net, inp, self.seed)
        return base, attacks.reverse_engg_attack(base)

    @staticmethod
    def _describe_reverse(out) -> dict:
        base, report = out
        return {
            "trace": digest(base.arr.tobytes()),
            "report": digest(report.to_json()),
            "candidates": [est.evidence["candidate_count"] for est in report.layers],
        }

    @staticmethod
    def _describe_data(data) -> dict:
        return {"fmaps": digest(b"".join(np.ascontiguousarray(f).tobytes() for f in data.fmaps)),
                "weights": digest(b"".join(np.ascontiguousarray(w).tobytes() for w in data.weights))}

    def run_pass(self, ops: Ops) -> dict:
        for inp in self.input_list:
            data = ops.run(tracegen.compute_net_data, self._describe_data, self.net, inp, self.seed)
            for cm_model in tracegen.ADDITIVE_MODELS:
                ops.run(self._additive, self._describe_additive, inp, data, cm_model)
            ops.run(self._reverse, self._describe_reverse, inp)
        return {}


class Rank(Workload):
    """The attacker's search-space pricing of one single-bin vgg16-32 observation."""

    name = "rank-vgg16-32"
    X_R = 25088  # the true ofmap volume of vgg16-32 layers 7 to 12

    def __init__(self, seed: int, golden: dict):
        net = model.load_network("vgg16-32")
        truth = tracegen.ground_truth(net)["layers"]
        # layers whose ofmap NeuroPlug showed as one bin on the recorded
        # seeds and whose true volume is X_R: the rank depends only on the
        # volumes, so every seed does the same work
        layers = [i for i in golden["single_bin_layers"] if truth[i]["ofmap_volume"] == self.X_R]
        self.layer = int(np.random.default_rng([seed, 0x7A]).choice(layers))
        self.y_obs = float(golden["y_obs"])
        self.x_r = truth[self.layer]["ofmap_volume"]

    @staticmethod
    def _describe(result) -> dict:
        return {"rank": result.rank, "candidates": result.n_candidates}

    def run_pass(self, ops: Ops) -> dict:
        res = ops.run(attacks.smart_rank_for_layer, self._describe, self.y_obs, self.x_r)
        return {"log10_guesses": math.log10(res.rank) if res is not None else None}


def _curve_bytes(tensor: np.ndarray, shape, tiling) -> np.ndarray:
    """Output tiles in write order (rows, cols, then map groups), concatenated.

    An independent re-statement of the stored curve, used as the read-back
    oracle: however tiles are coalesced into chunks, the chunks concatenate
    to these bytes.
    """
    th = max(1, tiling.th // shape.pool)
    tw = max(1, tiling.tw // shape.pool)
    k, p, q = tensor.shape
    parts = [tensor[k0:k0 + tiling.tk, r0:r0 + th, c0:c0 + tw]
             for r0 in range(0, p, th) for c0 in range(0, q, tw) for k0 in range(0, k, tiling.tk)]
    return np.concatenate([np.ascontiguousarray(t).view(np.uint8).reshape(-1) for t in parts])


class Readback(Workload):
    """toy-sparse, eight inputs: every stream packed, serialised, parsed, unpacked."""

    name = "readback-toy-sparse"
    inputs = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.net = model.load_network("toy-sparse")
        shape = self.net.layers[0].shape
        self.input_list = [model.generate_input(shape, seed * self.inputs + j)
                           for j in range(self.inputs)]
        self.cfg = binpack.BinConfig()
        self.noise = binpack.NoiseSpec()

    def _roundtrip(self, streams, j):
        """Write-then-read trip of every stream of input j."""
        out = []
        for s, (tiles, expected) in enumerate(streams):
            rng = np.random.default_rng([self.seed, j, s])
            bins, report = binpack.pack_bins(tiles, self.cfg, self.noise, rng, assemble=True)
            images = [b.to_bytes(self.cfg) for b in bins]
            parsed = [binpack.bin_from_bytes(img, self.cfg, index=k) for k, img in enumerate(images)]
            out.append((bins, report, images, binpack.unpack_bins(parsed), expected))
        return out

    @staticmethod
    def _describe(out) -> dict:
        streams = []
        for bins, report, images, decoded, expected in out:
            got = np.concatenate(decoded) if decoded else np.zeros(0, np.uint8)
            streams.append({
                "bins": len(bins),
                "report": digest(report.to_json()),
                "images": digest(b"".join(images)),
                "ok": np.array_equal(got, expected),
            })
        return {"streams": streams, "ok": all(s["ok"] for s in streams)}

    def run_pass(self, ops: Ops) -> dict:
        for j, inp in enumerate(self.input_list):
            # a model per input, so that a pass averages over eight models'
            # sparsity and the decode work varies little between seeds
            cache = ops.run(tracegen.prepare_neuroplug, Defend._describe_cache,
                            self.net, inp, self.seed * self.inputs + j)
            if cache is None:
                continue
            streams = []
            for i, layer in enumerate(self.net.layers):
                fmap = _curve_bytes(cache.data.fmaps[i + 1], layer.shape, layer.tiling)
                streams.append((cache.fmap_tiles[i], fmap))
            for i, w in enumerate(cache.data.weights):
                streams.append((cache.weight_tiles[i], w.view(np.uint8).reshape(-1)))
            ops.run(self._roundtrip, self._describe, streams, j)
        return {}


WORKLOADS = {cls.name: cls for cls in (Defend, Attack, Rank, Readback)}


def build(name: str, seed: int, golden: dict):
    """Set up a workload; the rank workload reads its observation from the golden record."""
    cls = WORKLOADS[name]
    return cls(seed, golden) if cls is Rank else cls(seed)


def reference(name: str, seed: int, golden: dict, workload) -> dict | None:
    """Frozen op digests and pass record for this seed, or None if not frozen."""
    if name == Rank.name:
        outcome = golden["outcomes"].get(str(workload.x_r))
        if outcome is None:
            return None
        log10 = math.log10(outcome["rank"]) if "rank" in outcome else None
        return {"ops": [digest(outcome)], "pass": {"log10_guesses": log10}}
    return golden["seeds"].get(str(seed))
