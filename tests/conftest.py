import pytest

from neuroplug import tracegen


@pytest.fixture
def generated(monkeypatch):
    """An empty model store, and the arguments of every weight generation."""
    monkeypatch.setattr(tracegen, "_held", None)
    calls = []
    generate = tracegen.generate_weights
    monkeypatch.setattr(tracegen, "generate_weights", lambda *a: calls.append(a) or generate(*a))
    return calls
