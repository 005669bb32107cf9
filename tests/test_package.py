"""The package's public names: every name a module exports resolves, and
the sources import nothing beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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

SOURCES = sorted(Path(relgat.__file__).parent.glob("*.py"))


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_import_only_the_standard_library_numpy_and_relgat(path):
    # pyproject.toml declares numpy alone; scipy may be installed, but an
    # import of it would break every install that lacks it
    allowed = sys.stdlib_module_names | {"numpy", "relgat"}
    assert sorted(set(_imported_packages(path)) - allowed) == []


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
        # every function and method the span tracer wraps
        "relgat.graph.batch_graphs",
        "relgat.graph.parse_dataset",
        "relgat.layers.attention_logits",
        "relgat.layers.attention_coefficients",
        "relgat.tensor.segment_reduce",
        "relgat.tensor.segment_softmax",
        "relgat.tensor.gather_rows",
        "relgat.tensor.matmul",
        "relgat.models.masked_cross_entropy",
        "relgat.models.weighted_cross_entropy",
        "relgat.models.save_checkpoint",
        "relgat.models.load_checkpoint",
        "relgat.training.train",
        "relgat.training.evaluate",
        "relgat.training.adam_step",
        "relgat.training.drop_edges",
        "relgat.training.feature_mask",
        "relgat.search.run_sweep",
        "relgat.layers.RgatLayer.forward",
        "relgat.models.NodeClassifier.forward",
        "relgat.models.GraphClassifier.forward",
        "relgat.tensor.Tape.backward",
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
