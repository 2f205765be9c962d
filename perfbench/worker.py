"""One measured run of one workload, in a fresh interpreter started by run.py.

Set-up (imports, config load, input generation, golden-record load) is
timed from the first line of this file.  With ``--setup-only`` the process
stops there and prints its set-up time.  Otherwise it repeats passes while the
next one is expected to end within ``--seconds`` (at least one pass), checks
every op against the golden record, and prints one JSON line of results.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402


def check(digest, ref, pins, records, op_counts, pass_records):
    """(failed op count, problems) of the passes run, against a reference.

    `ref` holds the golden op digests and pass record for this seed.  When
    it is None (no frozen record), later passes are compared with the first
    one and only the invariants each workload checks apply.
    """
    if ref is None:
        ref = {"ops": [digest(r) for r in records[: op_counts[0]]], "pass": pass_records[0]}
    failed, problems, pos = 0, [], 0
    for p, (n_ops, record) in enumerate(zip(op_counts, pass_records)):
        recs = records[pos : pos + n_ops]
        pos += n_ops
        if n_ops != len(ref["ops"]):
            problems.append(f"pass {p}: {n_ops} ops, golden has {len(ref['ops'])}")
        for i, rec in enumerate(recs):
            if (rec is None or rec.get("ok") is False or i >= len(ref["ops"])
                    or digest(rec) != ref["ops"][i]):
                failed += 1
                problems.append(f"pass {p} op {i}: {rec}")
        if record != ref["pass"]:
            problems.append(f"pass {p}: {record} != golden {ref['pass']}")
        problems += pins(record)
    return failed, problems


class HostProbe:
    """Times a fixed kernel of the benchmark's own, every `interval` seconds.

    A shared host runs the same code up to 1.6 times slower for minutes at a
    time, which no statistic over one run can remove.  The probe measures
    that speed: it runs from a SIGALRM handler in the measuring thread, so
    it samples the CPU the workload runs on, evenly over the run and inside
    long calls too.  Its kernel is part pure Python and part numpy, like the
    workloads.  Pass time over probe time is then a cost that a faster
    program lowers and a slower host does not.
    """

    def __init__(self, interval: float = 0.5):
        import numpy as np

        self.interval = interval
        self.times: list[float] = []
        self._arr = np.random.default_rng(0).integers(0, 1 << 16, 1 << 15)

    def probe(self, signum=None, frame=None):
        import numpy as np

        t0 = time.perf_counter()
        x = 0
        for i in range(20_000):
            x += i & 7
        for _ in range(4):
            np.bincount(np.sort(self._arr) & 0xFF)
        self.times.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def machine() -> dict:
    """The host and software this run measured on."""
    import numpy
    import scipy
    from neuroplug import _njit

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": _njit.HAVE_NUMBA,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads as wl_mod  # numpy, scipy and neuroplug load here

    golden = json.loads((wl_mod.GOLDEN_DIR / f"{args.workload}.json").read_text())
    wl = wl_mod.build(args.workload, args.seed, golden)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    installed = contextlib.nullcontext()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        installed = tracer.installed()
    ops = wl_mod.Ops()
    pass_s, op_counts, pass_records = [], [], []
    probe = HostProbe()
    probe.probe()  # at least one sample before and after, however short the run
    with installed, probe.running():
        start = time.perf_counter()
        while True:
            n0 = len(ops.records)
            t0 = time.perf_counter()
            pass_records.append(wl.run_pass(ops))
            pass_s.append(time.perf_counter() - t0)
            op_counts.append(len(ops.records) - n0)
            if time.perf_counter() - start + statistics.median(pass_s) > args.seconds:
                break
    n_timed = len(probe.times) - 1  # the timer's probes, nearly all inside passes
    probe.probe()

    ref = wl_mod.reference(args.workload, args.seed, golden, wl)
    failed, problems = check(wl_mod.digest, ref, wl.pins, ops.records, op_counts, pass_records)
    op_ms = [1e3 * t for t in ops.latencies]
    # the mean, not the median, over the passes: it evens out the most of
    # the host's drift; the probes' own time is taken out
    wall_s = (sum(pass_s) - sum(probe.times[1 : 1 + n_timed])) / len(pass_s)
    out = {
        "machine": machine(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_rel": wall_s / statistics.fmean(probe.times),
        "passes": len(pass_s),
        "probe_ms": 1e3 * statistics.fmean(probe.times),
        "probes": len(probe.times),
        "attempted": len(op_ms),
        "failed": failed,
        "problems": problems[:20],
        "op_ms_p50": statistics.median(op_ms),
        # the 90th percentile needs ten samples beyond it
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8] if len(op_ms) >= 100 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact": {k: v for k, v in pass_records[0].items()
                  if k in ("sim_overhead", "traffic_overhead", "log10_guesses")},
    }
    if tracer is not None:
        out["per_layer"] = tracer.per_pass(len(pass_s), out["wall_s"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
