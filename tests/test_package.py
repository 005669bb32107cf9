"""The package's public names: every name a module exports resolves and is
used by the package or what runs it, and the sources import nothing beyond
the standard library and numpy."""

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


def _names_used(path: Path) -> set[str]:
    # every Name, attribute and imported name in a file's code, except a
    # top-level definition's references to itself
    used = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names -= {t.id for t in targets if isinstance(t, ast.Name)}
        used |= names
    return used


def _span_table_names() -> set[str]:
    # the attribute names perfbench's span tracer looks up as strings
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    tables = [
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS") for t in stmt.targets)
    ]
    assert len(tables) == 2
    return {
        node.value
        for table in tables
        for node in ast.walk(table)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_exported_name_is_used_outside_its_definition():
    # the package, the acceptance suite, the benchmark and the tools are
    # what relgat runs for; a public name only unit tests reach is dead API.
    # The package's __init__ only re-exports, so it does not count.
    users = [p for p in SOURCES if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py"]
    users += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    used = _span_table_names().union(*map(_names_used, users))
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"relgat.{module}").__all__
        if name not in used
    ]
    assert unused == []


SOURCES = sorted(Path(relgat.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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
