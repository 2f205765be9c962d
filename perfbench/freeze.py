"""Freeze the golden record of a workload at the current commit.

    PYTHONPATH=src python3 perfbench/freeze.py --workload NAME --seeds 0-19

For each seed, one pass is run and the digest of every op's record plus the
pass record are written to golden/<workload>.json.  A pass with an
unexpected exception, a broken invariant or a failed paper claim is
refused.  The rank workload is frozen from the first defended run of
vgg16-32 on seeds 1 and 2: the layers NeuroPlug showed as one ofmap bin on
both, and the outcome of ranking each distinct true volume among them.
"""

import argparse
import json

import workloads as wl_mod
from neuroplug import attacks, model, tracegen

GOLDEN_DIR = wl_mod.GOLDEN_DIR
RANK_SEEDS = ("1", "2")
BIN_SIZE = wl_mod.BIN_LEAKS["bin_size"]


def freeze_pass(name: str, seed: int) -> dict:
    wl = wl_mod.build(name, seed, {})
    ops = wl_mod.Ops()
    record = wl.run_pass(ops)
    bad = [r for r in ops.records if r is None or r.get("ok") is False] + wl.pins(record)
    if bad:
        raise SystemExit(f"{name} seed {seed}: refusing to freeze: {bad[:3]}")
    return {"ops": [wl_mod.digest(r) for r in ops.records], "pass": record}


def freeze_rank() -> dict:
    net = model.load_network("vgg16-32")
    per_seed = []
    for s in RANK_SEEDS:
        inp = model.generate_input(net.layers[0].shape, int(s))
        run = tracegen.neuroplug_trace(net, inp, tracegen.NeuroPlugKey(seed=int(s)),
                                       run_index=0, model_seed=int(s))
        per_seed.append([stream.n_bins for stream in run.streams])
    # streams come as (ifmap, filter, ofmap) per layer
    layers = [i for i in range(len(per_seed[0]) // 3) if all(b[3 * i + 2] == 1 for b in per_seed)]
    golden = {"y_obs": BIN_SIZE, "recorded_on_seeds": list(RANK_SEEDS),
              "single_bin_layers": layers, "outcomes": {}}
    probe = wl_mod.Rank(0, golden)
    truth = tracegen.ground_truth(model.load_network("vgg16-32"))["layers"]
    for x_r in sorted({truth[i]["ofmap_volume"] for i in layers}):
        ops = wl_mod.Ops()
        ops.run(attacks.smart_rank_for_layer, probe._describe, probe.y_obs, x_r)
        if ops.records[0] is None:
            raise SystemExit(f"rank of {x_r} raised an unexpected error")
        golden["outcomes"][str(x_r)] = ops.records[0]
        print(x_r, ops.records[0], flush=True)
    return golden


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl_mod.WORKLOADS))
    ap.add_argument("--seeds", default="0-19", help="inclusive range lo-hi")
    args = ap.parse_args()
    path = GOLDEN_DIR / f"{args.workload}.json"
    if args.workload == wl_mod.Rank.name:
        golden = freeze_rank()
    else:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        golden = {"seeds": {}}
        for seed in range(lo, hi + 1):
            golden["seeds"][str(seed)] = freeze_pass(args.workload, seed)
            print(args.workload, seed, golden["seeds"][str(seed)]["pass"], flush=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
