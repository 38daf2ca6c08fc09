import sys

import pytest

from hallwalk import delta


@pytest.fixture
def delta_calls(monkeypatch):
    """The sequences of every delta_vector call, from any hallwalk module."""
    calls = []
    original = delta.delta_vector

    def counted(s, budget=None):
        calls.append(tuple(s))
        return original(s, budget=budget)

    for name, module in list(sys.modules.items()):
        if name == "hallwalk" or name.startswith("hallwalk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls
