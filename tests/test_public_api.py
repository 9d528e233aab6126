"""Every exported name exists, and every benchmark span still has a target.

The benchmark wraps functions by name from outside the package; a
deleted or renamed target would only show up there as a missing span.
"""

import importlib
import os
import pkgutil

import pytest

import skillseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(skillseq.__path__)
                 if m.name != "__main__")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"skillseq.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"skillseq.{name}.__all__ lists missing {attr}"


def test_every_benchmark_span_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(f"skillseq.{target.module}")
        assert callable(getattr(module, target.attr, None)), target.span
