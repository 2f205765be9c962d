"""Benchmark of the `neuroplug` lab on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each run sets the workload up several times
in fresh interpreters (the median is `setup_s`), then measures it in one
more fresh interpreter whose BLAS and OpenMP pools are capped at the CPU
count.  The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of `tracer.py` with ``--trace 1``.  The lines before it
record the machine and the figures that are not bounded metrics: the exact
simulated ratios, the failed fraction and the op p90 where it exists.
``--workload all`` runs every workload untraced and traced and prints each
metric with its unit, plus the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("defend-toy-sparse", "attack-vgg16-32", "rank-vgg16-32", "readback-toy-sparse")
SETUP_PROBES = 3  # plus the measured run's own set-up
RUN_BUDGET_S = 170
END_TO_END = {"setup_s": "s", "wall_rel": "probe", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_cpu_count())
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Set-up probes, then the measured run; returns the worker's result."""
    budget = RUN_BUDGET_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], budget / 4)
        setups.append(probe["setup_s"])
    res = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)], budget - sum(setups) - 2 * SETUP_PROBES)
    res["setup_s"] = statistics.median(setups + [res["setup_s"]])
    return res


def result_line(res: dict, trace: int) -> dict:
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {n: {"value": res[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0 and not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def extras(res: dict) -> dict:
    return {"passes": res["passes"], "wall_s": res["wall_s"], "probe_ms": res["probe_ms"],
            "probes": res["probes"], "failed_frac": res["failed"] / res["attempted"],
            "op_ms_p50": res["op_ms_p50"], "op_ms_p90": res["op_ms_p90"],
            "exact_unvalidated_model": res["exact"],
            "problems": res["problems"]}


def summary(seed: int, seconds: int) -> int:
    """Every workload untraced and traced: each metric with its unit."""
    ok = True
    for name in WORKLOADS:
        plain = measure(name, seed, seconds, 0)
        traced = measure(name, seed, seconds, 1)
        line = result_line(plain, 0)
        ok &= line["correct"] and result_line(traced, 1)["correct"]
        print(f"== {name} (seed {seed}, {plain['attempted']} ops, correct={line['correct']})")
        print(f"  machine {json.dumps(plain['machine'])}")
        for n, m in line["metrics"].items():
            print(f"  {n:<14} {m['value']:12.4f} {m['unit']}")
        for n, v in extras(plain).items():
            print(f"  {n:<14} {v}")
        wall = traced["per_layer"]["trace.wall_s"]["value"]
        print(f"  tracing overhead {wall - plain['wall_s']:+.3f} s on wall_s {plain['wall_s']:.3f} s")
        busy = {n[:-7]: m["value"] for n, m in traced["per_layer"].items() if n.endswith(".self_s")}
        for n, v in sorted(busy.items(), key=lambda kv: -kv[1])[:6]:
            print(f"  self {n:<34} {v:9.3f} s  {100 * v / wall:5.1f}% of traced wall_s")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "neuroplug" / "__init__.py").is_file():
        print(f"run.py: no neuroplug sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return summary(args.seed, args.seconds)
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("machine:", json.dumps(res["machine"]))
    print("extra:", json.dumps(extras(res)))
    print(json.dumps(result_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
