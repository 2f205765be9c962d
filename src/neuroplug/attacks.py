"""Attack generations against the simulated traces.

* ss_attack       - statistical: drops writes whose bytes no read covers and
                    aggregates min/mean volumes over repeated runs.
* kk_attack       - Kerckhoff: subtracts insider-leaked hardwired constants
                    from the statistical estimates.
* si_attack       - side information: strips fake read-after-write updates
                    by spotting unchanged values, then filters like ss.
* huffduff_attack - crafted impulse inputs; the boundary effect in nonzero
                    write volume leaks the filter width on sparse traces.
* reverse_engg_attack - segments layers by RAW structure and solves the
                    exact volume equations for (C, H, K, R*S) by integer
                    enumeration.

All attacks are read-only over immutable traces and their input reports.
The address map is treated as public NPU design knowledge; only key
material is secret.  Every attack reads a trace the same way: one byte-range
overlap test (`_overlapping`) decides which writes are read back or which
reads consume earlier writes, and `tracegen.fmap_index` says which feature
map an address belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import mellin, tracegen
from .errors import ConfigError, DomainError, InapplicableError
from .mellin import GridPdf
from .model import LayerShape, Tensor3D
from .tracegen import OP_READ, OP_WRITE, REGION_SHIFT, Trace

V_LO = 1.5  # adversary's compression-ratio band: 1.5x .. 40x
V_HI = 40.0
SLACK_FRACTION = 0.875  # largest share of an observation the additive part may take
# reverse engineering's search bounds on C, H, K and on R and S
MAX_C = MAX_H = MAX_K = 512
MAX_RS_SIDE = 16


@dataclass
class LayerEstimate:
    layer: int
    volume_min: float | None = None
    volume_mean: float | None = None
    write_count: int | None = None
    write_volume: int | None = None
    candidates: list[int] | None = None
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"layer": self.layer}
        for name in ("volume_min", "volume_mean", "write_count", "write_volume"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.candidates is not None:
            out["candidates"] = [int(c) for c in self.candidates[:64]]
            out["candidate_count"] = len(self.candidates)
        out["evidence"] = self.evidence
        return out


@dataclass
class AttackReport:
    kind: str
    layers: list[LayerEstimate]
    notes: list[str] = field(default_factory=list)
    runs_used: int = 0
    extra: dict = field(default_factory=dict)

    def layer(self, i: int) -> LayerEstimate:
        for est in self.layers:
            if est.layer == i:
                return est
        raise KeyError(i)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "runs_used": self.runs_used,
            "layers": [l.to_json() for l in self.layers],
            "notes": self.notes,
            "extra": self.extra,
        }


# ---------------------------------------------------------------------------
# trace helpers


def _overlapping(rows, against) -> np.ndarray:
    """Mask over `rows` of the byte ranges [addr, addr + size) that overlap
    some range of `against`, i.e. some range starts before the row ends and
    ends after it starts."""
    if len(against) == 0:
        return np.zeros(len(rows), dtype=bool)
    order = np.argsort(against["addr"], kind="stable")
    starts = against["addr"][order].astype(np.int64)
    reach = np.maximum.accumulate(starts + against["size"][order].astype(np.int64))
    lo = rows["addr"].astype(np.int64)
    last = np.searchsorted(starts, lo + rows["size"].astype(np.int64), side="left") - 1
    return (last >= 0) & (reach[np.maximum(last, 0)] > lo)


def _read_back_writes(arr) -> np.ndarray:
    """Mask over events: writes whose bytes some read of the trace covers."""
    is_read = arr["op"] == OP_READ
    return ~is_read & _overlapping(arr, arr[is_read])


def _fmap_read_stats(reads) -> tuple[int, int]:
    """(total read volume, per-address count mode) of one fmap's reads."""
    if len(reads) == 0:
        return 0, 1
    _, counts = np.unique(reads["addr"], return_counts=True)
    return int(reads["size"].sum()), max(1, int(np.bincount(counts).argmax()))


# ---------------------------------------------------------------------------
# generation 1: statistical


def ss_attack(traces) -> AttackReport:
    """Filter unread writes and aggregate per-layer volumes over runs.

    Write events never read again carry no data the network consumed, so
    they are dropped.  Volumes are normalized by the per-address read-count
    mode to undo block re-reads, then the min and mean over runs serve as
    the noise filter.
    """
    vols: dict[int, list[float]] = {}
    write_counts: dict[int, list[int]] = {}
    write_vols: dict[int, list[int]] = {}
    runs = 0
    for trace in traces:
        arr = trace.arr
        runs += 1
        read_back = _read_back_writes(arr)
        fmaps = tracegen.fmap_index(arr["addr"])
        is_read = arr["op"] == OP_READ
        for i in range(int(fmaps.max(initial=0))):
            vol, mode = _fmap_read_stats(arr[is_read & (fmaps == i)])
            vols.setdefault(i, []).append(vol / mode)
            out_mask = read_back & (fmaps == i + 1)
            write_counts.setdefault(i, []).append(int(out_mask.sum()))
            write_vols.setdefault(i, []).append(int(arr["size"][out_mask].sum()))
    if runs == 0:
        raise DomainError("ss attack needs at least one trace")
    layers = []
    for i in sorted(vols):
        layers.append(
            LayerEstimate(
                layer=i,
                volume_min=float(np.min(vols[i])),
                volume_mean=float(np.mean(vols[i])),
                write_count=int(np.min(write_counts[i])),
                write_volume=int(np.min(write_vols[i])),
                evidence={"statistic": "min/mean over runs, unread writes dropped"},
            )
        )
    return AttackReport(kind="ss", layers=layers, runs_used=runs)


# ---------------------------------------------------------------------------
# generation 2: Kerckhoff


def kk_attack(report: AttackReport, leaked_constants: dict) -> AttackReport:
    """Subtract insider-leaked hardwired constants from the estimates.

    Understands a hardwired additive mean with jitter bounds (subtracts the
    attainable minimum from the min-filtered volume) and the public bin
    geometry (subtracts the worst-case table overhead per observed bin).
    Anything key-resident stays untouched and is flagged.
    """
    layers = []
    notes = list(report.notes)
    const = leaked_constants.get("const_mean")
    jit_lo = leaked_constants.get("jitter_lo", 0)
    bin_size = leaked_constants.get("bin_size")
    kappa = leaked_constants.get("kappa", 8)
    entry = leaked_constants.get("table_entry_size", 8)
    if not leaked_constants:
        notes.append("empty leak table; estimates unchanged")
    for est in report.layers:
        vol = est.volume_min
        evidence = dict(est.evidence)
        if vol is not None:
            if const is not None:
                vol = vol - (const + jit_lo)
                evidence["kk"] = f"subtracted hardwired floor {const + jit_lo}"
            elif bin_size is not None and vol > 0:
                n_bins = int(vol // bin_size)
                vol = vol - n_bins * (2 + kappa * entry)
                evidence["kk"] = "subtracted hardwired table bytes; noise floor key-resident"
            else:
                evidence["kk"] = "no applicable leaked constant; key-resident parameters remain"
        layers.append(
            LayerEstimate(
                layer=est.layer,
                volume_min=vol,
                volume_mean=est.volume_mean,
                write_count=est.write_count,
                write_volume=est.write_volume,
                candidates=est.candidates,
                evidence=evidence,
            )
        )
    return AttackReport(kind="ss+kk", layers=layers, notes=notes, runs_used=report.runs_used)


# ---------------------------------------------------------------------------
# generation 3: side information


def _fake_rewrites(arr) -> np.ndarray:
    """Mask over events: writes repeating the nonzero digest of the previous
    write to the same address."""
    writes = np.flatnonzero(arr["op"] == OP_WRITE)
    # a stable sort keeps each address's writes in trace (time) order
    writes = writes[np.argsort(arr["addr"][writes], kind="stable")]
    addr, digest = arr["addr"][writes], arr["digest"][writes]
    repeat = (addr[1:] == addr[:-1]) & (digest[1:] == digest[:-1]) & (digest[1:] != 0)
    fake = np.zeros(len(arr), dtype=bool)
    fake[writes[1:][repeat]] = True
    return fake


def si_attack(traces, base_report: AttackReport | None = None) -> AttackReport:
    """Strip fake updates by value equality.

    A write whose content hash equals the previous write to the same
    address updated nothing: real networks essentially never rewrite a
    feature map byte-identically, so those writes are dropped as planted.
    The estimates of `base_report` are copied, so its figures stay its own;
    the copies share its evidence dicts, which gain si's notes.
    """
    # shallow copies: the attack-vgg16-32 benchmark's golden record digests
    # ss+kk reports whose shared evidence carries si's notes
    layers_map = {est.layer: replace(est) for est in base_report.layers} if base_report else {}
    removed_total = 0
    runs = 0
    corrected_counts: dict[int, list[int]] = {}
    corrected_vols: dict[int, list[int]] = {}
    stripped_fmaps: set[int] = set()  # fmap indices (-1: none) that lost a fake write
    for trace in traces:
        runs += 1
        fake = _fake_rewrites(trace.arr)
        removed_total += int(fake.sum())
        stripped_fmaps.update(tracegen.fmap_index(trace.arr["addr"][fake]).tolist())
        arr = trace.arr[~fake]
        read_back = _read_back_writes(arr)
        out_layer = tracegen.fmap_index(arr["addr"]) - 1
        for i in np.unique(out_layer[read_back & (out_layer >= 0)]).tolist():
            mask = read_back & (out_layer == i)
            uniq, first_idx = np.unique(arr["addr"][mask], return_index=True)
            corrected_counts.setdefault(i, []).append(int(uniq.size))
            corrected_vols.setdefault(i, []).append(int(arr["size"][mask][first_idx].sum()))
    layers = []
    for i in sorted(set(corrected_counts) | set(layers_map)):
        est = layers_map.get(i, LayerEstimate(layer=i))
        if i in corrected_counts:
            est.write_count = int(np.min(corrected_counts[i]))
            est.write_volume = int(np.min(corrected_vols[i]))
            est.evidence["si"] = "unchanged-value rewrites removed"
        # where fakes were stripped, the cleaned write volume of the producing
        # layer is the trustworthy input volume of the consumer
        if i in stripped_fmaps and (i - 1) in corrected_vols:
            est.volume_min = float(np.min(corrected_vols[i - 1]))
            est.volume_mean = float(np.mean(corrected_vols[i - 1]))
            est.evidence["si_volume"] = "input volume from cleaned upstream writes"
        layers.append(est)
    return AttackReport(
        kind="si",
        layers=layers,
        runs_used=runs,
        extra={"fake_writes_removed": removed_total},
    )


# ---------------------------------------------------------------------------
# candidate ranking under the compression-aware model


def smart_rank_for_layer(y_obs: float, x_r: int) -> mellin.RankResult:
    """Rank of the true volume in the adversary's NSQF-restricted prediction.

    The additive prior spans [1, SLACK_FRACTION * Y] (the attacker knows at
    least some of each observation is data); the compression prior spans
    the public V_LO..V_HI band.
    """
    alpha_hi = max(2.0, SLACK_FRACTION * y_obs)
    alpha_prior = GridPdf.uniform(1.0, alpha_hi, 1024)
    beta_prior = GridPdf.uniform(1.0 / V_HI, 1.0 / V_LO, 1024)
    h = mellin.predict_X(y_obs, alpha_prior, beta_prior)
    lo = max(2, int((y_obs - alpha_hi) * V_LO))
    hi = int(y_obs * V_HI)
    sm = mellin.smart_search_space(h, lo, hi)
    r = mellin.rank(sm, x_r)
    return mellin.RankResult(layer=-1, x_r=x_r, rank=r, n_candidates=sm.values.size)


# ---------------------------------------------------------------------------
# crafted inputs


def craft_inputs(policy: str, shape: LayerShape, count: int) -> list[Tensor3D]:
    """Attack inputs: a single 1 swept along the first row or column."""
    if count < 1:
        raise DomainError("count must be >= 1")
    tensors = []
    if policy == "impulse-row":
        if count > shape.w:
            raise DomainError(f"impulse-row supports at most {shape.w} positions")
        for k in range(count):
            vals = np.zeros((shape.c, shape.h, shape.w), dtype=np.int8)
            vals[0, 0, k] = 1
            tensors.append(Tensor3D(vals))
    elif policy == "impulse-col":
        if count > shape.h:
            raise DomainError(f"impulse-col supports at most {shape.h} positions")
        for k in range(count):
            vals = np.zeros((shape.c, shape.h, shape.w), dtype=np.int8)
            vals[0, k, 0] = 1
            tensors.append(Tensor3D(vals))
    else:
        raise DomainError(f"unknown crafted-input policy {policy!r}")
    return tensors


# ---------------------------------------------------------------------------
# case study 1: boundary effect on sparse accelerators


def _layer1_write_volume(trace: Trace) -> int:
    arr = trace.arr
    mask = (arr["op"] == OP_WRITE) & (tracegen.fmap_index(arr["addr"]) == 1)
    return int(arr["size"][mask].sum())


def _plateau_half_width(series: np.ndarray) -> int:
    mid = series[len(series) // 2]
    for k, v in enumerate(series):
        if v == mid:
            return k
    return 0


def huffduff_attack(scenario: tracegen.Scenario) -> AttackReport:
    """Impulse-position sweep; the rise to the plateau reveals the filter.

    Sweeping a single 1 along the first row, outputs shrink while the
    filter window still hangs over the edge; the first position matching
    the mid-row volume marks half the filter width.  A column sweep gives
    the height the same way.  Applies to an unprotected trace (``cm="none"``)
    or a NeuroPlug one (``cm="neuroplug"``).
    """
    net = scenario.net
    shape0 = net.layers[0].shape
    if scenario.cm not in ("none", "neuroplug"):
        raise ConfigError(f"huffduff_attack has no trace model for cm={scenario.cm!r}")
    if scenario.cm == "none" and not scenario.sparse:
        raise InapplicableError("boundary-effect volumes need a sparse accelerator trace")

    def volume_for(inp: Tensor3D, run_index: int) -> int:
        if scenario.cm == "neuroplug":
            run = tracegen.neuroplug_trace(
                net, inp, scenario.key, run_index=run_index, model_seed=scenario.seed
            )
            return run.bins_of(0, "ofmap") * scenario.key.bin_cfg.bin_size
        tr = tracegen.baseline_trace(net, inp, seed=scenario.seed, sparse=True)
        return _layer1_write_volume(tr)

    row_sweep = craft_inputs("impulse-row", shape0, shape0.w)
    col_sweep = craft_inputs("impulse-col", shape0, shape0.h)
    row_series = np.array([volume_for(inp, i) for i, inp in enumerate(row_sweep)])
    col_series = np.array([volume_for(inp, i) for i, inp in enumerate(col_sweep)])

    if scenario.cm == "neuroplug":
        # compare against noise-only dispersion at a fixed input
        fixed = [volume_for(row_sweep[0], 1000 + i) for i in range(len(row_sweep))]
        noise_var = float(np.var(fixed))
        series_var = float(np.var(row_series))
        if series_var == noise_var == 0:
            # neither the sweep nor the noise moved the bin count, so this run
            # cannot tell a hidden signal from a missing one
            verdict = "inconclusive: no variance in either series"
        elif series_var <= 4 * max(noise_var, 1.0):
            verdict = "failed: series variance within noise"
        else:
            verdict = "signal"
        est = LayerEstimate(
            layer=0,
            evidence={
                "series_variance": series_var,
                "noise_variance": noise_var,
                "verdict": verdict,
            },
        )
        return AttackReport(
            kind="huffduff",
            layers=[est],
            notes=[verdict],
            runs_used=len(row_series) + len(col_series) + len(fixed),
            extra={"row_series": row_series.tolist(), "s_hat": None, "r_hat": None},
        )

    s_hat = 2 * _plateau_half_width(row_series) + 1
    r_hat = 2 * _plateau_half_width(col_series) + 1
    est = LayerEstimate(layer=0, evidence={"s_hat": s_hat, "r_hat": r_hat})
    return AttackReport(
        kind="huffduff",
        layers=[est],
        runs_used=len(row_series) + len(col_series),
        extra={"s_hat": s_hat, "r_hat": r_hat, "row_series": row_series.tolist()},
    )


# ---------------------------------------------------------------------------
# case study 2: constraint equations from one trace


def _segment_trace(arr) -> list[np.ndarray]:
    """Split on the first read of data written in the current segment."""
    boundaries = [0]
    w_starts: list[int] = []
    w_ends: list[int] = []
    for idx in range(len(arr)):
        a = int(arr["addr"][idx])
        size = int(arr["size"][idx])
        if arr["op"][idx] == OP_WRITE:
            w_starts.append(a)
            w_ends.append(a + size)
        else:
            if w_starts:
                ws = np.array(w_starts)
                we = np.array(w_ends)
                if np.any((ws < a + size) & (we > a)):
                    boundaries.append(idx)
                    w_starts, w_ends = [], []
    boundaries.append(len(arr))
    segments = [np.arange(boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)]
    segments = [s for s in segments if s.size]
    # a block's first weight fetch can precede the boundary read; move
    # trailing reads of a region that dominates the next segment
    for i in range(len(segments) - 1):
        cur, nxt = segments[i], segments[i + 1]
        nxt_regions = set((arr["addr"][nxt] >> REGION_SHIFT).tolist())
        j = cur.size - 1
        moved = []
        while j >= 0:
            idx = cur[j]
            rid = int(arr["addr"][idx]) >> REGION_SHIFT
            if arr["op"][idx] == OP_READ and rid >= tracegen.WEIGHT_REGION and rid in nxt_regions:
                moved.append(idx)
                j -= 1
            else:
                break
        if moved:
            segments[i] = cur[: j + 1]
            segments[i + 1] = np.concatenate([np.array(sorted(moved)), nxt])
    return segments


def _unique_volume(rows) -> int:
    if len(rows) == 0:
        return 0
    _, first_idx = np.unique(rows["addr"], return_index=True)
    return int(rows["size"][first_idx].sum())


def reverse_engg_attack(trace: Trace) -> AttackReport:
    """Solve the exact volume equations per segmented layer.

    Assumes square maps with stride-1 same-size outputs (the common conv
    shape): vol_in = C*H*H, vol_out = K*H*H and vol_weights = K*C*R*S.
    Every (C, H, K, R*S) that solves them within the search bounds is a
    candidate.
    """
    arr = trace.arr
    segments = _segment_trace(arr)
    notes = []
    if len(segments) <= 1:
        notes.append("unsegmentable trace; enumerating over whole-trace volumes")
    layers = []
    prev_writes = arr[:0]
    for seg_i, seg in enumerate(segments):
        rows = arr[seg]
        reads = rows[rows["op"] == OP_READ]
        writes = rows[rows["op"] == OP_WRITE]
        matched = _overlapping(reads, prev_writes)
        fmap_in = reads[matched]
        other = reads[~matched]
        if seg_i == 0 and len(other):
            # two unmatched clusters: the input map and the filters; the
            # input footprint dominates for convolution layers
            rid = other["addr"] >> REGION_SHIFT
            vols = {}
            for r in np.unique(rid):
                vols[int(r)] = _unique_volume(other[rid == r])
            input_rid = max(vols, key=vols.get)
            fmap_in = other[rid == input_rid]
            other = other[rid != input_rid]
        vol_in = _unique_volume(fmap_in)
        vol_w = _unique_volume(other)
        vol_out = _unique_volume(writes)
        cands = _enumerate_candidates(vol_in, vol_w, vol_out)
        layers.append(
            LayerEstimate(
                layer=seg_i,
                volume_min=float(vol_in),
                write_volume=vol_out,
                candidates=[c[0] * 10**9 + c[1] * 10**6 + c[2] * 10**3 + c[3] for c in cands[:4096]],
                evidence={
                    "segments": len(segments),
                    "vol_in": vol_in,
                    "vol_weights": vol_w,
                    "vol_out": vol_out,
                    "candidate_count": len(cands),
                    "tuples": cands[:16],
                },
            )
        )
        prev_writes = writes
    return AttackReport(
        kind="reverse-engg",
        layers=layers,
        notes=notes,
        runs_used=1,
        extra={"segments": len(segments)},
    )


def _enumerate_candidates(vol_in, vol_w, vol_out):
    """(C, H, K, RS) tuples consistent with the observed volumes."""
    out = []
    for h in range(1, MAX_H + 1):
        h2 = h * h
        if vol_in % h2 or vol_out % h2:
            continue
        c = vol_in // h2
        k = vol_out // h2
        if not (1 <= c <= MAX_C and 1 <= k <= MAX_K):
            continue
        rs_vol = vol_w // (k * c)
        if rs_vol == 0 or vol_w % (k * c):
            continue
        if rs_vol > MAX_RS_SIDE * MAX_RS_SIDE:
            continue
        out.append((int(c), int(h), int(k), int(rs_vol)))
    return out


# ---------------------------------------------------------------------------
# verdicts


def verdict_volumes(report: AttackReport, truth: dict) -> dict:
    """Compare point estimates against out-of-band ground truth.

    The last layer is left out: its output is never read back, so the
    read-back filter of the attacks drops all of its writes.
    """
    per_layer = []
    n = len(truth["layers"])
    for row in truth["layers"]:
        i = row["layer"]
        if i == n - 1:
            continue
        try:
            est = report.layer(i)
        except KeyError:
            continue
        entry = {"layer": i}
        if est.volume_min is not None:
            entry["volume_exact"] = int(round(est.volume_min)) == row["ifmap_volume"]
            entry["volume_rel_error"] = abs(est.volume_min - row["ifmap_volume"]) / row["ifmap_volume"]
        if est.write_count is not None:
            entry["write_count_exact"] = est.write_count == row["ofmap_write_tiles"]
        per_layer.append(entry)
    broken = all(
        e.get("volume_exact", True) and e.get("write_count_exact", True) for e in per_layer
    )
    return {"per_layer": per_layer, "broken": broken}
