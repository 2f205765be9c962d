import pytest
from hypothesis import settings

from neuroplug import tracegen

# every property test is reproducible and unhurried; each sets only its
# own max_examples
settings.register_profile("neuroplug", deadline=None, derandomize=True, database=None)
settings.load_profile("neuroplug")


@pytest.fixture
def generated(monkeypatch):
    """An empty model store, and the arguments of every weight generation."""
    monkeypatch.setattr(tracegen, "_held", None)
    calls = []
    generate = tracegen.generate_weights
    monkeypatch.setattr(tracegen, "generate_weights", lambda *a: calls.append(a) or generate(*a))
    return calls
