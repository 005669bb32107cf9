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


@pytest.mark.parametrize(
    "path",
    [
        "relgat.search._train_config",
        "relgat.search._run_trial",
        "relgat.search._append_record",
        "relgat.AttentionResult.coefficient_values",
        "relgat.models.graph_gather",
        "relgat.tensor.Tape.num_recorded",
        "relgat.serialize_dataset",
    ],
)
def test_names_the_benchmark_reaches_by_path_exist(path):
    # the benchmark imports or traces these by name; losing one would break
    # it or leave a span silently empty
    module, _, rest = path.partition(".")
    obj = importlib.import_module(module)
    for attr in rest.split("."):
        assert hasattr(obj, attr), path
        obj = getattr(obj, attr)
