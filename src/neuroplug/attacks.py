"""Attack generations against the simulated traces.

* ss_attack       - statistical: drops writes whose bytes no read covers and
                    aggregates min/mean volumes over repeated runs.
* kk_attack       - Kerckhoff: subtracts insider-leaked hardwired constants
                    from the statistical estimates.
* si_attack       - side information: strips fake read-after-write updates
                    by spotting unchanged values, then filters like ss.
* huffduff_attack - crafted impulse inputs; reads layer 0's written volume
                    from `observe` and tests its boundary effect against a
                    fixed input's run-to-run noise for the filter size.
* reverse_engg_attack - segments layers by RAW structure and solves the
                    exact volume equations for (C, H, K, R*S) by integer
                    enumeration.

All attacks are read-only over immutable traces and their input reports.
The address map is treated as public NPU design knowledge; only key
material is secret.  Every attack reads a trace the same way: one byte-range
overlap test (`_overlapping`) decides which writes are read back, which
reads consume earlier writes and where reverse engineering cuts the trace
into layers, `tracegen.fmap_index` says which feature map an address
belongs to, and `observe` counts each layer's bytes by region alone.
`ss_attack` and `si_attack` read each trace once: they group its events
by address in one pass (an address names its feature map), and their
per-layer loops only collect the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import mellin, tracegen
from .errors import DomainError
from .mellin import GridPdf
from .model import LayerShape, NetworkSpec, Tensor3D
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


def _last_bytes(addr, size) -> np.ndarray:
    """addr + size - 1 per range, exact in uint64: a range that runs past the
    top of the address space ends at 2**64 - 1."""
    end = addr + size
    return np.where(end < addr, np.uint64(2**64 - 1), end - np.uint64(1))


def _overlapping(rows, against) -> np.ndarray:
    """Mask over `rows` of the byte ranges [addr, addr + size) that overlap
    some range of `against`, i.e. some range starts before the row ends and
    ends after it starts.  It compares inclusive last bytes, so [0, 0),
    which has none, overlaps nothing."""
    keep = np.flatnonzero(against["addr"] | against["size"])
    if keep.size == 0:
        return np.zeros(len(rows), dtype=bool)
    order = keep[np.argsort(against["addr"][keep], kind="stable")]
    starts = against["addr"][order]
    reach = np.maximum.accumulate(_last_bytes(starts, against["size"][order]))
    # contiguous copies of the strided columns: every step below reads them
    lo, size = np.ascontiguousarray(rows["addr"]), np.ascontiguousarray(rows["size"])
    last = np.searchsorted(starts, _last_bytes(lo, size), side="right") - 1
    return (last >= 0) & (reach[np.maximum(last, 0)] >= lo) & ((lo | size) > 0)


def _read_back_writes(arr) -> np.ndarray:
    """Mask over events: writes whose bytes some read of the trace covers."""
    is_read = arr["op"] == OP_READ
    return ~is_read & _overlapping(arr, arr[is_read])


def _unique_volume(rows) -> int:
    """Bytes of rows counting each address once, at its first event."""
    if len(rows) == 0:
        return 0
    _, first_idx = np.unique(rows["addr"], return_index=True)
    return int(rows["size"][first_idx].sum())


def _read_figures(arr, fmaps, n: int):
    """Per feature map i < n of one trace: the bytes read, and the mode of
    its addresses' read counts, ties going to the smaller count (1 for a map
    no read touches).  One group-by over the trace's reads: an address
    names its map, so its read count is the size of its address group."""
    idx = np.flatnonzero((arr["op"] == OP_READ) & (fmaps >= 0) & (fmaps < n))
    volume = np.zeros(n, dtype=np.uint64)
    np.add.at(volume, fmaps[idx], arr["size"][idx])
    addrs, counts = np.unique(arr["addr"][idx], return_counts=True)
    fm = tracegen.fmap_index(addrs)
    # (map, count) groups, each with the number of addresses it holds
    by_pair = np.lexsort((counts, fm))
    fm, counts = fm[by_pair], counts[by_pair]
    start = np.flatnonzero((np.diff(fm, prepend=-1) != 0) | (np.diff(counts, prepend=0) != 0))
    freq = np.diff(start, append=fm.size)
    fm, counts = fm[start], counts[start]
    # per map: the most addresses first, then the smaller count
    best = np.lexsort((counts, -freq, fm))
    best = best[np.diff(fm[best], prepend=-1) != 0]
    mode = np.ones(n, dtype=np.int64)
    mode[fm[best]] = counts[best]
    return volume, mode


def observe(trace: Trace) -> np.ndarray:
    """Row i: the bytes read in fmap i, read in layer i's weight region and
    written to fmap i + 1, each address counted once; dummy regions are
    left out.  Only the public address map is read, and under NeuroPlug
    each entry is a bin count times the bin size."""
    arr = trace.arr
    fmap = tracegen.fmap_index(arr["addr"])
    w_layer = (arr["addr"] >> REGION_SHIFT).astype(np.int64) - tracegen.WEIGHT_REGION
    w_layer[w_layer >= tracegen.DUMMY_REGION - tracegen.WEIGHT_REGION] = -1
    col = np.where(arr["op"] == OP_READ, np.where(fmap >= 0, 0, 1), 2)
    row = np.choose(col, [fmap, w_layer, fmap - 1])
    out = np.zeros((int(row.max(initial=-1)) + 1, 3), dtype=np.uint64)
    for op in (OP_READ, OP_WRITE):
        idx = np.flatnonzero((row >= 0) & (arr["op"] == op))
        idx = idx[np.unique(arr["addr"][idx], return_index=True)[1]]
        np.add.at(out, (row[idx], col[idx]), arr["size"][idx])
    return out


# ---------------------------------------------------------------------------
# generation 1: statistical


def ss_attack(traces) -> AttackReport:
    """Filter unread writes and aggregate per-layer volumes over runs.

    Write events never read again carry no data the network consumed, so
    they are dropped.  Volumes are normalized by the per-address read-count
    mode to undo block re-reads, then the min and mean over runs serve as
    the noise filter.  Each trace is read once: its reads and its read-back
    writes are grouped by map in one pass each, and the per-layer loop only
    collects the figures.
    """
    vols: dict[int, list[float]] = {}
    write_counts: dict[int, list[int]] = {}
    write_vols: dict[int, list[int]] = {}
    runs = 0
    for trace in traces:
        arr = trace.arr
        runs += 1
        fmaps = tracegen.fmap_index(arr["addr"])
        n = int(fmaps.max(initial=0))  # layers 0 .. n - 1 read fmap i and write fmap i + 1
        volume, mode = _read_figures(arr, fmaps, n)
        out = np.flatnonzero(_read_back_writes(arr) & (fmaps >= 1) & (fmaps <= n))
        out_layer = fmaps[out] - 1
        out_count = np.bincount(out_layer, minlength=n)
        out_volume = np.zeros(n, dtype=np.uint64)
        np.add.at(out_volume, out_layer, arr["size"][out])
        for i, (vol, m, count, wvol) in enumerate(zip(volume.tolist(), mode.tolist(),
                                                      out_count.tolist(), out_volume.tolist())):
            vols.setdefault(i, []).append(vol / m)
            write_counts.setdefault(i, []).append(count)
            write_vols.setdefault(i, []).append(wvol)
    if runs == 0:
        raise DomainError("ss attack needs at least one trace")
    layers = []
    for i in sorted(vols):
        layers.append(
            LayerEstimate(
                layer=i,
                volume_min=min(vols[i]),
                volume_mean=float(np.mean(vols[i])),
                write_count=min(write_counts[i]),
                write_volume=min(write_vols[i]),
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
        layers.append(replace(est, volume_min=vol, evidence=evidence))
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
    Each trace is read once, its kept read-back writes grouped by address
    in one pass.  The estimates of `base_report` are copied, so its
    figures stay its own; the copies share its evidence dicts, which gain
    si's notes.
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
        arr = trace.arr
        runs += 1
        fake = _fake_rewrites(arr)
        removed_total += int(fake.sum())
        fmaps = tracegen.fmap_index(arr["addr"])
        stripped_fmaps.update(fmaps[fake].tolist())
        # fakes are writes, so stripping them leaves every read, and with
        # it whether each other write is read back
        kept = np.flatnonzero(_read_back_writes(arr) & ~fake & (fmaps >= 1))
        # one group-by: an address names its map, and its first kept write
        # counts its bytes
        addrs, first = np.unique(arr["addr"][kept], return_index=True)
        layer = tracegen.fmap_index(addrs) - 1
        count = np.bincount(layer)
        volume = np.zeros(count.size, dtype=np.uint64)
        np.add.at(volume, layer, arr["size"][kept[first]])
        for i in np.flatnonzero(count).tolist():
            corrected_counts.setdefault(i, []).append(int(count[i]))
            corrected_vols.setdefault(i, []).append(int(volume[i]))
    layers = []
    for i in sorted(set(corrected_counts) | set(layers_map)):
        est = layers_map.get(i, LayerEstimate(layer=i))
        if i in corrected_counts:
            est.write_count = min(corrected_counts[i])
            est.write_volume = min(corrected_vols[i])
            est.evidence["si"] = "unchanged-value rewrites removed"
        # where fakes were stripped, the cleaned write volume of the producing
        # layer is the trustworthy input volume of the consumer
        if i in stripped_fmaps and (i - 1) in corrected_vols:
            est.volume_min = float(min(corrected_vols[i - 1]))
            est.volume_mean = float(np.mean(corrected_vols[i - 1]))
            est.evidence["si_volume"] = "input volume from cleaned upstream writes"
        layers.append(est)
    if runs == 0:
        raise DomainError("si attack needs at least one trace")
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
    sides = {"impulse-row": shape.w, "impulse-col": shape.h}
    if policy not in sides:
        raise DomainError(f"unknown crafted-input policy {policy!r}")
    if not 1 <= count <= sides[policy]:
        raise DomainError(f"{policy} supports 1 to {sides[policy]} positions, not {count}")
    tensors = []
    for k in range(count):
        vals = np.zeros((shape.c, shape.h, shape.w), dtype=np.int8)
        vals[(0, 0, k) if policy == "impulse-row" else (0, k, 0)] = 1
        tensors.append(Tensor3D(vals))
    return tensors


# ---------------------------------------------------------------------------
# case study 1: boundary effect on compressed traffic


def huffduff_attack(net: NetworkSpec, seed: int = 0,
                    key: tracegen.NeuroPlugKey | None = None) -> AttackReport:
    """Impulse-position sweep; the rise to the plateau reveals the filter.

    Sweeping a single 1 along the first row, outputs shrink while the
    filter window still hangs over the edge; the first position matching
    the mid-row volume marks half the filter width.  A column sweep gives
    the height the same way.  Each run's observation is layer 0's written
    volume, read off the trace of an unprotected sparse accelerator with no
    key, or of NeuroPlug under key.  The row sweep counts as a signal only
    if its variance exceeds four times that of as many runs of its first
    input; only a signal estimates the filter.  seed is the model seed.
    """
    shape0 = net.layers[0].shape
    prepared: dict = {}  # id(input) -> its forward pass, or its compressed content

    def volume_for(inp: Tensor3D, run_index: int) -> int:
        if id(inp) not in prepared:
            prepare = tracegen.compute_net_data if key is None else tracegen.prepare_neuroplug
            prepared[id(inp)] = prepare(net, inp, seed)
        if key is None:
            trace = tracegen.baseline_trace(net, inp, seed=seed, sparse=True, data=prepared[id(inp)])
        else:
            trace = tracegen.neuroplug_trace(net, inp, key, run_index, seed, prepared[id(inp)]).trace
        return int(observe(trace)[0, 2])

    row_sweep = craft_inputs("impulse-row", shape0, shape0.w)
    col_sweep = craft_inputs("impulse-col", shape0, shape0.h)
    row_series = np.array([volume_for(inp, i) for i, inp in enumerate(row_sweep)])
    col_series = np.array([volume_for(inp, i) for i, inp in enumerate(col_sweep)])
    # noise-only dispersion: one input, as many runs as the row sweep
    fixed = [volume_for(row_sweep[0], 1000 + i) for i in range(len(row_sweep))]
    noise_var = float(np.var(fixed))
    series_var = float(np.var(row_series))
    if series_var == noise_var == 0:
        # neither the sweep nor the noise moved the volume, so this run
        # cannot tell a hidden signal from a missing one
        verdict = "inconclusive: no variance in either series"
    elif series_var <= 4 * noise_var:
        verdict = "failed: series variance within noise"
    else:
        verdict = "signal"
    evidence = {"series_variance": series_var, "noise_variance": noise_var, "verdict": verdict}
    s_hat = r_hat = None
    if verdict == "signal":
        # the first position at the mid-series volume is half the filter side
        s_hat = 2 * int(np.argmax(row_series == row_series[len(row_series) // 2])) + 1
        r_hat = 2 * int(np.argmax(col_series == col_series[len(col_series) // 2])) + 1
        evidence.update(s_hat=s_hat, r_hat=r_hat)
    return AttackReport(
        kind="huffduff",
        layers=[LayerEstimate(layer=0, evidence=evidence)],
        notes=[verdict],
        runs_used=len(row_series) + len(col_series) + len(fixed),
        extra={"row_series": row_series.tolist(), "s_hat": s_hat, "r_hat": r_hat},
    )


# ---------------------------------------------------------------------------
# case study 2: constraint equations from one trace


def _first_read_of_own_write(seg) -> int | None:
    """Index of the first read in seg that overlaps a write issued before it."""
    is_write = seg["op"] == OP_WRITE
    cands = np.flatnonzero(~is_write & _overlapping(seg, seg[is_write]))
    # a candidate may overlap only writes issued after it (a read-back that
    # is rewritten later); candidates behind the same writes share one test
    n_before = np.cumsum(is_write)[cands]
    for k in np.unique(n_before):
        group = cands[n_before == k]
        hit = np.flatnonzero(_overlapping(seg[group], seg[is_write][:k]))
        if hit.size:
            return int(group[hit[0]])
    return None


def _segment_trace(arr) -> list[np.ndarray]:
    """Split on the first read of data written in the current segment.

    A layer's weight reads can precede its boundary read, so a segment's
    trailing reads of a weight region move into the next segment, but only
    when the next segment reads that region again.  A layer whose weight
    reads all come before its first input read (one weight block, or a
    NeuroPlug case-II layer) leaves them in the previous segment, which
    ROADMAP item 1 is to fix.
    """
    bounds = [0]
    while (cut := _first_read_of_own_write(arr[bounds[-1]:])) is not None:
        bounds.append(bounds[-1] + cut)
    bounds.append(len(arr))
    rid = arr["addr"] >> REGION_SHIFT
    weight_read = (arr["op"] == OP_READ) & (rid >= tracegen.WEIGHT_REGION)
    starts = [0]
    for prev, b, nxt in zip(bounds, bounds[1:], bounds[2:]):
        moves = weight_read[prev:b] & np.isin(rid[prev:b], rid[b:nxt])
        # a segment followed by a boundary holds a write, which ends the run
        starts.append(prev + int(np.flatnonzero(~moves)[-1]) + 1)
    return [np.arange(a, b) for a, b in zip(starts, starts[1:] + [len(arr)]) if b > a]


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
    read-back filter of the attacks drops all of its writes.  A break needs
    at least one comparison, and every comparison must hold.
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
    held = [e[key] for e in per_layer for key in ("volume_exact", "write_count_exact") if key in e]
    return {"per_layer": per_layer, "broken": bool(held) and all(held)}
