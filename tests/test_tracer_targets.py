"""The benchmark's per-layer tracer wraps functions of `neuroplug` by name;
a name that disappears from the package breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _count in tracer.TARGETS:
        obj = importlib.import_module(f"neuroplug.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
