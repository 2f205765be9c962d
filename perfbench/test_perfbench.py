"""The benchmark's own test.

    python3 -m pytest -q perfbench/test_perfbench.py

It runs one short pass of every workload (about a minute on two cores),
so it is not part of the repository's tier-1 suite.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402

from neuroplug import _kernels, model, tracegen  # noqa: E402
from neuroplug.errors import SupportError  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_short_pass_emits_every_metric(name):
    res = run.measure(name, seed=1, seconds=0, trace=1)
    assert res["passes"] == 1 and res["failed"] == 0 and not res["problems"]
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        line = run.result_line(res, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(m["name"] for m in declared)
        for m in declared:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert math.isfinite(line["metrics"][m["name"]]["value"])
    for m in BENCH["end_to_end"]:
        assert res[m["name"]] > 0


def test_host_probe_samples_during_a_call_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = worker.HostProbe(interval=0.02)
    with probe.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:  # one long busy stretch, like a long call
            pass
    assert len(probe.times) >= 3 and all(t > 0 for t in probe.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_declared_per_layer_metrics_match_the_tracer():
    assert BENCH["per_layer"] == metric_specs()


def _readback_pass(seed):
    wl = workloads.Readback(seed)
    wl.input_list = wl.input_list[:2]
    ops = workloads.Ops()
    record = wl.run_pass(ops)
    return wl, ops, record


def _check(wl, ops, record, ref):
    return worker.check(workloads.digest, ref, wl.pins, ops.records, [len(ops.records)], [record])


def test_altered_output_counts_as_failed():
    wl, ops, record = _readback_pass(12345)
    ref = {"ops": [workloads.digest(r) for r in ops.records], "pass": record}
    assert _check(wl, ops, record, ref) == (0, [])

    streams = [dict(s) for s in ops.records[1]["streams"]]
    streams[2]["bins"] += 1  # a changed bin count
    ops.records[1] = dict(ops.records[1], streams=streams)
    failed, problems = _check(wl, ops, record, ref)
    assert failed == 1 and "op 1" in problems[0]

    flipped = ref["ops"][0]
    ref["ops"][0] = flipped[:-1] + ("0" if flipped[-1] != "0" else "1")  # a flipped digest
    failed, _ = _check(wl, ops, record, ref)
    assert failed == 2


def test_unexpected_errors_fail_and_expected_errors_are_outcomes():
    ops = workloads.Ops()

    def raises(exc):
        raise exc

    ops.run(raises, None, SupportError("truth outside the candidate range"))
    ops.run(raises, None, IndexError("escaped"))
    assert ops.records == [{"error": "SupportError"}, None]
    failed, _ = worker.check(workloads.digest, None, lambda rec: [], ops.records, [2], [{}])
    assert failed == 1


def test_broken_invariant_counts_without_golden():
    wl, ops, record = _readback_pass(54321)
    ops.records[0] = dict(ops.records[0], ok=False)  # the read-back bytes differ
    assert _check(wl, ops, record, None)[0] == 1


def test_frozen_record_covers_seed_zero_to_nineteen():
    for name in (workloads.Defend.name, workloads.Attack.name, workloads.Readback.name):
        golden = json.loads((HERE / "golden" / f"{name}.json").read_text())
        assert sorted(map(int, golden["seeds"])) == list(range(20))
    rank = json.loads((HERE / "golden" / f"{workloads.Rank.name}.json").read_text())
    for seed in range(20):
        assert workloads.reference(workloads.Rank.name, seed, rank, workloads.Rank(seed, rank))


def test_tracer_nests_and_restores():
    net = model.load_network("toy-sparse")
    inp = model.generate_input(net.layers[0].shape, 3)
    orig = _kernels.conv2d_acc
    tracer = Tracer()
    with tracer.installed():
        assert tracegen.conv_forward is model.conv_forward is not None
        assert _kernels.conv2d_acc is not orig
        tracegen.compute_net_data(net, inp, 3)
    assert _kernels.conv2d_acc is orig and tracegen.conv_forward.__module__ == "neuroplug.model"
    t = tracer.totals
    assert t["model.conv_forward.calls"] == t["kernels.conv2d_acc.calls"] == len(net.layers)
    assert t["model.conv_forward.self_s"] == pytest.approx(
        t["model.conv_forward.busy_s"] - t["kernels.conv2d_acc.busy_s"], abs=1e-9)
    assert t["tracegen.compute_net_data.busy_s"] >= t["model.conv_forward.busy_s"]
    sh = net.layers[0].shape
    assert t["kernels.conv2d_acc.macs"] >= sh.k * sh.c * sh.r * sh.s * sh.p * sh.q
