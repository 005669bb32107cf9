"""The package's public names: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import relgat

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(relgat.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"relgat.{module}" if module else "relgat")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_feature_mask_stays_a_training_function():
    # the benchmark's span tracer wraps relgat.training.feature_mask by name
    assert callable(relgat.training.feature_mask)
