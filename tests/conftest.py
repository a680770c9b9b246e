"""Fixtures shared across the test packages."""

import builtins

import pytest


@pytest.fixture
def no_numpy(monkeypatch):
    """Block the numpy import underneath ``load_numpy``, which
    re-imports per call, so every backend choice made after this
    fixture sees numpy missing."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked for this test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)
