import sys

import pytest

from hallwalk import delta, idp


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


@pytest.fixture
def masks_calls(monkeypatch):
    """The arguments (windows, z_up, reach_up, top) of each `idp._masks` call, the transfer's unit of work."""
    calls = []
    masks = idp._masks
    monkeypatch.setattr(idp, "_masks", lambda *args: calls.append(args) or masks(*args))
    return calls
