"""Start-up contract: loading neuroplug loads no scipy.

scipy loads with the first spline (`mellin`) or chi-square tail (`stats`),
so a process that only builds and attacks traces never pays its import
time or its memory.  Each check runs in a fresh interpreter, since this
test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED_SCIPY = "sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))"


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter with src on the path; it prints one
    JSON line last, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_at_import():
    out = run_fresh(f"""
        import importlib, json, pkgutil, sys
        import neuroplug
        names = [m.name for m in pkgutil.iter_modules(neuroplug.__path__)]
        for name in names:
            importlib.import_module("neuroplug." + name)
        print(json.dumps({{"modules": names, "scipy": {LOADED_SCIPY}}}))
    """)
    assert {"attacks", "mellin", "stats", "tracegen"} <= set(out["modules"])
    assert out["scipy"] == []


@pytest.mark.parametrize("module, call, loads", [
    ("mellin", "mellin.predict_X(200.0, mellin.GridPdf.uniform(1.0, 50.0, 64),"
               " mellin.GridPdf.uniform(0.25, 0.5, 64))", "scipy.interpolate"),
    ("stats", "stats.heteroskedasticity_tests(np.linspace(0.1, 2.0, 50),"
              " np.random.default_rng(0).normal(0.0, 1.0, 50))", "scipy.stats"),
], ids=["mellin", "stats"])
def test_scipy_loads_on_first_use(module, call, loads):
    out = run_fresh(f"""
        import json, sys
        import numpy as np
        from neuroplug import {module}
        before = {LOADED_SCIPY}
        {call}
        print(json.dumps({{"before": before, "after": {LOADED_SCIPY}}}))
    """)
    assert out["before"] == []
    assert loads in out["after"]


def test_trace_paths_run_without_scipy():
    # with sys.modules["scipy"] = None every scipy import raises, so the
    # defence, the baselines and every trace attack must not reach one
    out = run_fresh("""
        import json, sys
        sys.modules["scipy"] = None
        from neuroplug import attacks, model, tracegen

        net = model.load_network("toy-sparse")
        inp = model.generate_input(net.layers[0].shape, 3)
        truth = tracegen.ground_truth(net)
        key = tracegen.NeuroPlugKey(seed=3)
        cache = tracegen.prepare_neuroplug(net, inp, 3)
        runs = [tracegen.neuroplug_trace(net, inp, key, r, 3, cache) for r in range(4)]
        sskk = attacks.kk_attack(attacks.ss_attack([r.trace for r in runs]),
                                 {"bin_size": 61440, "kappa": 8, "table_entry_size": 8})
        neuroplug_broken = attacks.verdict_volumes(sskk, truth)["broken"]
        base = tracegen.baseline_trace(net, inp, 3)
        si_layers = {}
        for cm_model in ("dummy-writes", "const-mean", "layer-divider"):
            traces = [tracegen.additive_cm_trace(net, inp, cm_model, seed=3, run_index=r,
                                                 observe_values=True) for r in range(4)]
            si = attacks.si_attack(traces, base_report=attacks.ss_attack(traces))
            si_layers[cm_model] = len(si.layers)
        reverse = attacks.reverse_engg_attack(base)
        print(json.dumps({"layers": len(net.layers), "neuroplug_broken": neuroplug_broken,
                          "si_layers": si_layers, "reverse_layers": len(reverse.layers)}))
    """)
    n = out["layers"]
    assert out["neuroplug_broken"] is False  # the paper's claim, here without scipy
    assert out["si_layers"] == dict.fromkeys(("dummy-writes", "const-mean", "layer-divider"), n)
    assert out["reverse_layers"] == n
