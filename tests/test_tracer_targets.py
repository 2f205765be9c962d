"""The benchmark's per-layer tracer wraps functions of `neuroplug` by name;
a name that disappears from the package breaks every traced benchmark run,
and one its workloads, freezer or worker read breaks the benchmark itself,
as does a call of theirs whose arguments no longer bind.
Its attack workload leaks constants of `neuroplug` to the Kerckhoff attacker,
which must equal the constants the traces are built with.  Conversely, every
public name of the package must have a caller in the package or the
benchmark, not only in tests."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from neuroplug import binpack, model, tracegen

from oracles import rle_encode_loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"
# benchmark files and the `neuroplug` modules whose attributes they read
API_USERS = [WORKLOADS, PERFBENCH / "freeze.py", PERFBENCH / "worker.py"]
API_MODULES = ("attacks", "binpack", "model", "tracegen", "_njit")


def load(path):
    """The benchmark module at path, loaded without importing `perfbench`."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = load(TRACER)
    missing = []
    for module, attr, _count in tracer.TARGETS:
        obj = importlib.import_module(f"neuroplug.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_tracer_counts_only_what_runs(monkeypatch):
    # two inputs of one model: the weights are generated once and the
    # forward pass runs per input, and the tracer's counts say so
    tracer = load(TRACER).Tracer()
    net = model.load_network("toy-sparse")
    monkeypatch.setattr(tracegen, "_held", None)
    with tracer.installed():
        for seed in (1, 2):
            tracegen.compute_net_data(net, model.generate_input(net.layers[0].shape, seed), 3)
    t = tracer.totals
    assert t["tracegen.compute_net_data.calls"] == 2
    assert t["model.generate_weights.calls"] == 1
    assert t["model.conv_forward.calls"] == 2 * len(net.layers)


def test_tracer_compression_counts_mean_tiles(monkeypatch):
    # the codec runs once per stream: one RLE pass over each stream's
    # bytes, and one huff_encode per RLE+Huffman container, whose bits it
    # counts; stored-mode tiles skip huff_encode
    tracer = load(TRACER).Tracer()
    net = model.load_network("toy-sparse")
    monkeypatch.setattr(tracegen, "_held", None)
    with tracer.installed():
        cache = tracegen.prepare_neuroplug(net, model.generate_input(net.layers[0].shape, 1), 1)
    groups = cache.fmap_tiles + cache.weight_tiles
    tiles = [tile for group in groups for tile in group]
    huff = [tile for tile in tiles if tile.payload[0] == binpack.MODE_RLE_HUF]
    t = tracer.totals
    assert t["kernels.rle_encode.calls"] == len(groups) == 2 * len(net.layers)
    assert t["kernels.rle_encode.bytes"] == sum(tile.raw_size for tile in tiles)
    assert 0 < len(huff) < len(tiles)
    assert t["kernels.huff_encode.calls"] == len(huff)
    bits = 0
    for tile in huff:
        # the code table after the header, and the tokens of the raw bytes
        n_tokens, pos = binpack._varint_decode(tile.payload, 1)
        table = tile.payload[pos + 1 : pos + 3 + 2 * int(tile.payload[pos])].reshape(-1, 2)
        lens = np.zeros(256, np.int64)
        lens[table[:, 0]] = table[:, 1]
        tokens = rle_encode_loop(binpack.decompress_tile(tile.payload))
        assert tokens.size == n_tokens
        bits += int(lens[tokens].sum())
    assert t["kernels.huff_encode.bits"] == bits


def test_benchmark_leaks_match_constants():
    # the Kerckhoff attacker of the benchmark is fed these tables; a changed
    # constant in `neuroplug` must not leave it subtracting stale figures
    workloads = load(WORKLOADS)
    cfg = binpack.BinConfig()
    assert workloads.BIN_LEAKS == {"bin_size": cfg.bin_size, "kappa": cfg.kappa,
                                   "table_entry_size": binpack.TABLE_ENTRY_BYTES}
    assert workloads.ADDITIVE_LEAKS["const-mean"] == {"const_mean": tracegen.CONST_MEAN,
                                                      "jitter_lo": tracegen.JITTER[0]}


def _api_ref(node):
    """(module, name) if node reads `module.name` of one of API_MODULES."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in API_MODULES):
        return node.value.id, node.attr
    return None


def _api_calls(tree, where):
    """Every call of a `module.name` in tree, with its argument count and
    keyword names: direct calls, and `ops.run(module.name, describe, *args)`,
    which calls module.name(*args).  Calls that unpack * or ** are left out."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, node.keywords
        if isinstance(func, ast.Attribute) and func.attr == "run" and args and _api_ref(args[0]):
            func, args, keywords = args[0], args[2:], []
        ref = _api_ref(func)
        if (ref and not any(isinstance(a, ast.Starred) for a in args)
                and all(k.arg for k in keywords)):
            calls.append((f"{where}:{node.lineno}", ref, len(args), [k.arg for k in keywords]))
    return calls


def test_benchmark_api_exists():
    # every `module.name` the benchmark reads of these modules, found by
    # reading its source, not by running it; and every call of one binds to
    # the callee's signature, so a renamed or dropped parameter fails here
    refs, calls = set(), []
    for path in API_USERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(ref for ref in map(_api_ref, ast.walk(tree)) if ref)
        calls += _api_calls(tree, path.name)
    assert {module for module, _ in refs} == set(API_MODULES)
    missing = [f"{module}.{attr}" for module, attr in sorted(refs)
               if not hasattr(importlib.import_module(f"neuroplug.{module}"), attr)]
    assert missing == []
    unbound = []
    for where, (module, attr), n_args, keywords in calls:
        callee = getattr(importlib.import_module(f"neuroplug.{module}"), attr)
        try:
            inspect.signature(callee).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where} {module}.{attr}: {exc}")
    assert unbound == []
    # the scan sees the calls a signature change would break
    assert {("binpack", "pack_bins"), ("binpack", "bin_from_bytes"),
            ("tracegen", "neuroplug_trace")} <= {ref for _, ref, _, _ in calls}


SRC = Path(__file__).resolve().parents[1] / "src" / "neuroplug"
# public names that nothing outside tests calls yet, each with the ROADMAP
# open item that will give it a caller
CALLERS_TO_COME = {
    ("attacks", "huffduff_attack"): "item 10",
    ("binpack", "compress_tile"): "item 1A: the tracer wraps it until it wraps compress_stream",
    ("mellin", "search_space_size"): "item 5",
    **{("stats", name): "item 6" for name in (
        "fisher_information", "mutual_information", "pearson_cc", "runs_test", "cvm_test",
        "heteroskedasticity_tests", "block_variance_regressor", "extract_bits", "MetricReport",
        "CVM_CRIT_5PCT")},
}


def _defined(stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    # every name stored to, also inside tuple and list targets
    return [node.id for t in targets if t is not None for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def _referenced(stmt) -> set[str]:
    """Every name a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_have_callers():
    # ROADMAP design aim: no public symbol that only tests reach.  A public
    # module-level name of the package must be read by the package or the
    # benchmark outside its own definition
    programs = sorted(SRC.glob("*.py")) + [p for p in sorted(PERFBENCH.glob("*.py"))
                                          if not p.name.startswith("test_")]
    defined, used = set(), set()
    for path in programs:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined(stmt) if path.parent == SRC else []
            defined.update((path.stem, name) for name in own if not name.startswith("_"))
            used.update(_referenced(stmt) - set(own))
    uncalled = {(module, name) for module, name in defined if name not in used}
    assert uncalled == set(CALLERS_TO_COME)
