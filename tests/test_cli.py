"""Command line behavior: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relgat
from relgat.cli import _split_indices, main
from relgat.graph import GraphTask, LabelSet, generate_planted, serialize_dataset
from relgat.models import config_hash

SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env():
    # a subprocess imports relgat from this checkout
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}


def _gen(tmp_path, name="data.json", seed=3, graphs=16, nodes=8):
    data = tmp_path / name
    rc = main(
        [
            "gen",
            "--seed",
            str(seed),
            "--graphs",
            str(graphs),
            "--nodes",
            str(nodes),
            "--relations",
            "4",
            "--feature-dim",
            "4",
            "--noise-edges",
            "6",
            "--out",
            str(data),
        ]
    )
    assert rc == 0
    return data


def test_gen_writes_parseable_corpus(tmp_path, capsys):
    data = _gen(tmp_path)
    doc = json.loads(data.read_text())
    assert len(doc["graphs"]) == 16
    assert doc["provenance"]["tool_version"]
    assert doc["provenance"]["seed"] == 3
    assert len(doc["splits"]["train"]) == 10  # round(0.6 * 16)
    from relgat.graph import parse_dataset

    task = parse_dataset(data.read_text())
    assert len(task.graphs) == 16


def test_gen_deterministic(tmp_path):
    a = _gen(tmp_path, "a.json")
    b = _gen(tmp_path, "b.json")
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("flags", [[], ["--relations", "3", "--noise-edges", "0"]], ids=["defaults", "no-noise"])
def test_gen_writes_the_dataset_document_plus_its_provenance(tmp_path, flags):
    out = tmp_path / "data.json"
    assert main(["gen", "--seed", "5", "--graphs", "12", *flags, "--out", str(out)]) == 0
    relations, noise = (3, 0) if flags else (4, 40)
    pairs = generate_planted(5, 12, 20, relations, feature_dim=8, noise_edges=noise)
    labels = LabelSet("graph", 2, 1, graph_classes=np.array([[y] for _, y in pairs]))
    task = GraphTask(tuple(g for g, _ in pairs), labels, _split_indices(12, 5, 0.6, 0.2))
    provenance = {
        "tool_version": relgat.__version__,
        "seed": 5,
        "config_hash": config_hash(
            {
                "graphs": 12,
                "nodes": 20,
                "relations": relations,
                "feature_dim": 8,
                "noise_edges": noise,
                "train_frac": 0.6,
                "val_frac": 0.2,
            }
        ),
    }
    block = json.dumps(provenance, separators=(",", ":"))
    assert out.read_text() == serialize_dataset(task)[:-1] + ',"provenance":' + block + "}"


@pytest.mark.parametrize(
    "flags,message",
    [
        # would leave the validation and test splits empty
        (["--train-frac", "0.99", "--val-frac", "0.5"], "--train-frac 0.99 and --val-frac 0.5 add up to more than 1"),
        # a negative size would slice a 10/4/6 split
        (["--train-frac", "-0.5"], "--train-frac must lie in [0, 1], got -0.5"),
        (["--val-frac", "1.5"], "--val-frac must lie in [0, 1], got 1.5"),
        # non-finite sizes cannot be rounded; inf must not read as a divergence (exit 1)
        (["--val-frac", "inf"], "--val-frac must lie in [0, 1], got inf"),
        (["--train-frac", "nan"], "--train-frac must lie in [0, 1], got nan"),
    ],
)
def test_gen_refuses_split_fractions_that_make_no_split(tmp_path, capsys, flags, message):
    out = tmp_path / "data.json"
    assert main(["gen", "--graphs", "20", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("train,val,sizes", [("1", "0", (20, 0, 0)), ("0", "1", (0, 20, 0)), ("0.7", "0.3", (14, 6, 0))])
def test_gen_accepts_fractions_that_fill_the_corpus(tmp_path, train, val, sizes):
    out = tmp_path / "data.json"
    assert main(["gen", "--graphs", "20", "--train-frac", train, "--val-frac", val, "--out", str(out)]) == 0
    splits = json.loads(out.read_text())["splits"]
    assert tuple(len(splits[s]) for s in ("train", "validation", "test")) == sizes


def test_gen_rounds_the_split_boundaries_not_the_sizes(tmp_path):
    # 3.5/3.5/3 graphs asked: rounding each size alone gave 4/4/2, leaving
    # the test split short by the other two's rounding
    out = tmp_path / "data.json"
    assert main(["gen", "--graphs", "10", "--train-frac", "0.35", "--val-frac", "0.35", "--out", str(out)]) == 0
    splits = json.loads(out.read_text())["splits"]
    assert tuple(len(splits[s]) for s in ("train", "validation", "test")) == (4, 3, 3)
    assert sorted(i for s in splits.values() for i in s) == list(range(10))


def _train(tmp_path, data, out_name, seed=1, extra=()):
    out = tmp_path / out_name
    # the graph widths, for a graph task only: a node task refuses them
    graph_task = json.loads(Path(data).read_text())["labels"]["kind"] == "graph"
    widths = ["--graph-units", "8", "--dense-units", "8"] if graph_task else []
    rc = main(
        [
            "train",
            "--data",
            str(data),
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--epochs",
            "3",
            "--patience",
            "3",
            *widths,
            *extra,
        ]
    )
    assert rc == 0
    return out


def test_train_writes_checkpoint_metrics_summary(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    assert (out / "manifest.json").exists()
    assert (out / "params.bin").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "graph"
    assert summary["seed"] == 1
    assert summary["tool_version"]
    assert len(summary["config_hash"]) == 64
    assert "final" in summary and "test" in summary["final"]
    assert "time" not in json.dumps(summary).lower()
    lines = [
        json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()
    ]
    assert {l["split"] for l in lines} <= {"train", "validation"}
    assert {l["metric"] for l in lines} >= {"loss", "accuracy"}
    assert all(set(l) == {"trial", "epoch", "split", "metric", "value"} for l in lines)


def test_train_summary_byte_identical_across_runs(tmp_path):
    data = _gen(tmp_path)
    out1 = _train(tmp_path, data, "r1")
    out2 = _train(tmp_path, data, "r2")
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "params.bin").read_bytes() == (out2 / "params.bin").read_bytes()
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()


def _one_hot_node_data(tmp_path):
    from relgat.graph import LabelSet, NodeTask, Split, build_graph, serialize_dataset

    n = 12
    triples = [[i % 2, i, (i + 1) % n] for i in range(n)]
    labels = LabelSet(kind="node", num_classes=2, node_classes={i: i % 2 for i in range(n)})
    split = Split(train=tuple(range(6)), validation=(6, 7, 8), test=(9, 10, 11))
    data = tmp_path / "onehot.json"
    data.write_text(serialize_dataset(NodeTask(build_graph(n, 2, triples, one_hot=True), labels, split)))
    return data


def _dense_node_data(tmp_path):
    from relgat.graph import LabelSet, NodeTask, Split, build_graph, serialize_dataset

    n = 6
    feats = np.array([[0.5 * i, 1.0 - 0.1 * i] for i in range(n)])
    graph = build_graph(n, 1, [[0, i, (i + 1) % n] for i in range(n)], feats)
    labels = LabelSet(kind="node", num_classes=2, node_classes={i: i % 2 for i in range(n)})
    data = tmp_path / "dense.json"
    data.write_text(serialize_dataset(NodeTask(graph, labels, Split(train=(0, 1), validation=(2, 3), test=(4, 5)))))
    return data


# recorded when the train block of the run config was still written field by field
PINNED_CONFIG_HASHES = {
    "graph": "99bca8c0b798dc3f4b17ec0f3418a59e00536ba959642c68b8768ed718a525b8",
    "node": "c56adf125814f44887c215e30dba4e7a7a619b2dbba2fef22c632155ae851a65",
}


@pytest.mark.parametrize("kind", ["graph", "node"])
def test_train_config_hash_is_pinned(tmp_path, capsys, kind):
    if kind == "graph":
        data = _gen(tmp_path)
        flags = ["--heads", "2", "--no-bias", "--batch-size", "8", "--l2", "1e-4"]
    else:
        data = _one_hot_node_data(tmp_path)
        flags = ["--hidden-units", "4", "--embed-dim", "6", "--basis-w", "2", "--l2-layer1-w", "1e-3"]
    flags += ["--lr", "0.02", "--feature-dropout", "0.1", "--edge-dropout", "0.2"]
    out = _train(tmp_path, data, "run", seed=5, extra=flags)
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["config_hash"] == manifest["config_hash"] == PINNED_CONFIG_HASHES[kind]


def test_train_manifest_holds_the_shared_train_config(tmp_path, capsys):
    # relgat train and sweep trials build their TrainConfig through one function
    from dataclasses import asdict

    from relgat.search import _train_config

    data = _gen(tmp_path)
    flags = ["--lr", "0.02", "--batch-size", "8", "--l2", "1e-4", "--l2-layer2-a", "0"]
    flags += ["--l2-layer1-w", "3e-3", "--feature-dropout", "0.1", "--edge-dropout", "0.2"]
    out = _train(tmp_path, data, "run", seed=5, extra=flags)
    settings = {
        "learning_rate": 0.02,
        "batch_size": 8,
        "l2": 1e-4,
        "l2_layer1_w": 3e-3,
        "l2_layer2_a": 0.0,
        "feature_dropout": 0.1,
        "edge_dropout": 0.2,
    }
    expected = asdict(_train_config(settings, 5, {"epochs": 3, "patience": 3}))
    assert expected["l2"] == {"layer1_w": 3e-3, "layer1_a": 1e-4, "layer2_w": 1e-4}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"] == expected


def test_train_rejects_a_false_self_relation_claim(tmp_path, capsys):
    doc = json.loads(_one_hot_node_data(tmp_path).read_text())
    doc["self_relation"] = True  # the last relation is a ring, not the identity
    data = tmp_path / "claim.json"
    data.write_text(json.dumps(doc))
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "self relation" in capsys.readouterr().err


def test_eval_reads_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    capsys.readouterr()
    rc = main(
        ["eval", "--data", str(data), "--checkpoint", str(out), "--split", "test"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["split"] == "test"
    assert "loss" in report["metrics"]
    rc = main(
        [
            "eval",
            "--data",
            str(data),
            "--checkpoint",
            str(out),
            "--split",
            "test",
            "--constant",
        ]
    )
    assert rc == 0
    constant_report = json.loads(capsys.readouterr().out)
    assert constant_report["constant_attention"] is True


def test_eval_refuses_a_checkpoint_of_the_other_task_kind(tmp_path, capsys):
    graph_data, node_data = _gen(tmp_path), _one_hot_node_data(tmp_path)
    graph_run = _train(tmp_path, graph_data, "graph-run")
    node_run = _train(tmp_path, node_data, "node-run")
    cases = (
        (node_data, graph_run, "a graph model, the dataset a node task"),
        (graph_data, node_run, "a node model, the dataset a graph task"),
    )
    for data, run, want in cases:
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--checkpoint", str(run)]) == 2
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err


def test_eval_matches_library_evaluation(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    capsys.readouterr()
    main(["eval", "--data", str(data), "--checkpoint", str(out), "--split", "test"])
    report = json.loads(capsys.readouterr().out)
    from relgat.graph import parse_dataset
    from relgat.models import load_checkpoint
    from relgat.cli import _rebuild_model
    from relgat.training import evaluate

    params, manifest = load_checkpoint(out)
    model = _rebuild_model(manifest)
    model.params = params
    direct = evaluate(model, parse_dataset(data.read_text()), "test")
    assert report["metrics"]["loss"] == direct["loss"]


def test_eval_loss_without_train_labels_is_the_mean_negative_log_probability(tmp_path, capsys):
    # with every split id moved into test, no train label is left to take
    # inverse-frequency weights from; the loss used to read -0.0
    data = tmp_path / "data.json"
    assert main(["gen", "--seed", "2", "--graphs", "24", "--nodes", "10", "--relations", "3",
                 "--out", str(data)]) == 0
    out = _train(tmp_path, data, "run")
    doc = json.loads(data.read_text())
    splits = doc["splits"]
    splits["test"] = sorted(splits.pop("train") + splits.pop("validation") + splits["test"])
    moved = tmp_path / "all-test.json"
    moved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--data", str(moved), "--checkpoint", str(out), "--split", "test"]) == 0
    report = json.loads(capsys.readouterr().out)
    from relgat.cli import _rebuild_model
    from relgat.graph import batch_graphs, parse_dataset
    from relgat.models import bind_params, load_checkpoint
    from relgat.tensor import Tape

    params, manifest = load_checkpoint(out)
    model = _rebuild_model(manifest)
    model.params = params
    task = parse_dataset(moved.read_text())
    ids = np.array(task.split.test)
    batch = batch_graphs([task.graphs[i] for i in ids])
    tape = Tape(differentiable=False)
    g = batch.graph
    probs = model.forward(
        bind_params(tape, params), g.edges, g.num_nodes, tape.leaf(g.features),
        batch.graph_segment, batch.graph_count,
    ).data
    labels = task.labels.graph_classes[ids, 0]
    want = -np.mean(np.log(probs[np.flatnonzero(labels >= 0), labels[labels >= 0]]))
    assert report["metrics"]["loss"] > 0
    assert report["metrics"]["loss"] == pytest.approx(want, rel=1e-12)


def test_eval_rejects_checkpoint_with_missing_or_reshaped_parameter(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    manifest_path = out / "manifest.json"
    original = json.loads(manifest_path.read_text())
    args = ["eval", "--data", str(data), "--checkpoint", str(out)]

    manifest = json.loads(json.dumps(original))
    dropped = manifest["parameters"].pop(0)["name"]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(args) == 2
    assert dropped in capsys.readouterr().err

    manifest = json.loads(json.dumps(original))
    entry = manifest["parameters"][0]
    entry["shape"] = [int(np.prod(entry["shape"]))]
    manifest_path.write_text(json.dumps(manifest))
    assert main(args) == 2
    assert "wrong shape" in capsys.readouterr().err


def test_eval_rejects_checkpoint_whose_config_does_not_match_its_hash(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    manifest_path = out / "manifest.json"
    original = manifest_path.read_text()
    args = ["eval", "--data", str(data), "--checkpoint", str(out)]
    assert main(args) == 0

    # an edited training setting still rebuilds the same model, so only the
    # hash can tell that the checkpoint no longer matches its config
    manifest = json.loads(original)
    manifest["config"]["train"]["learning_rate"] *= 2
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(args) == 2
    assert "config_hash" in capsys.readouterr().err

    manifest_path.write_text(original)
    assert main(args) == 0


def test_eval_refuses_a_params_bin_its_manifest_does_not_digest(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    blob = bytearray((out / "params.bin").read_bytes())
    blob[-1] ^= 0x01
    (out / "params.bin").write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not match the sha256" in err


def _drop_config(manifest):
    del manifest["config"]


def _drop_model_config(manifest):
    del manifest["config"]["model"]


def _add_unknown_model_field(manifest):
    manifest["config"]["model"]["fancy_option"] = 1


@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop_config, "config.model"),
        (_drop_model_config, "config.model"),
        (lambda m: m.pop("parameters"), "parameters"),
        (lambda m: m.pop("total_values"), "total_values"),
        (_add_unknown_model_field, "fancy_option"),
    ],
    ids=["no-config", "no-model-config", "no-parameters", "no-total-values", "unknown-model-field"],
)
def test_eval_rejects_incomplete_manifest(tmp_path, capsys, edit, message):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    if "config" in manifest:
        # a consistent hash, so the edit itself is what gets caught
        manifest["config_hash"] = config_hash(manifest["config"])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["name", "shape", "offset"])
def test_eval_rejects_a_parameter_entry_without_a_field(tmp_path, capsys, field):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["parameters"][1][field]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err


def _shape_not_a_list(manifest):
    manifest["parameters"][0]["shape"] = 5


def _parameters_as_an_object(manifest):
    manifest["parameters"] = {e["name"]: e for e in manifest["parameters"]}


def _offset_of_the_entry_before(manifest):
    manifest["parameters"][1]["offset"] = manifest["parameters"][0]["offset"]


@pytest.mark.parametrize(
    "edit,message",
    [
        (_shape_not_a_list, "not a list of sizes"),
        (_parameters_as_an_object, "must be a list of entries"),
        (_offset_of_the_entry_before, "where the entry before it ends"),
    ],
    ids=["shape-not-a-list", "parameters-as-an-object", "overlapping-offset"],
)
def test_eval_rejects_a_malformed_parameter_table(tmp_path, capsys, edit, message):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run")
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--dense-units", "0"], "dense_units must be positive, got 0"),
        (["--basis-w", "2"], "apply to node tasks only"),
        (["--basis-a", "2"], "apply to node tasks only"),
    ],
)
def test_train_refuses_an_option_a_graph_model_cannot_honour(tmp_path, capsys, flags, message):
    data = _gen(tmp_path)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind,flags,message",
    [
        ("graph", ["--hidden-units", "0", "--embed-dim", "-4"], "a graph task takes no --hidden-units or --embed-dim"),
        ("graph", ["--embed-dim", "3"], "a graph task takes no --embed-dim\n"),
        ("node", ["--dense-units", "0", "--graph-units", "3"], "a node task takes no --graph-units or --dense-units"),
        ("node", ["--graph-units", "8"], "a node task takes no --graph-units\n"),
        # build_model embeds one-hot features only, so a dense task would drop it
        ("dense node", ["--embed-dim", "4"], "--embed-dim applies to one-hot node features only"),
    ],
)
def test_train_refuses_a_width_flag_the_task_kind_ignores(tmp_path, capsys, kind, flags, message):
    data = {"graph": _gen, "node": _one_hot_node_data, "dense node": _dense_node_data}[kind](tmp_path)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind,field",
    [("node", "num_classes"), ("graph", "num_classes"), ("graph", "num_tasks"), ("graph", "graph_classes")],
)
def test_train_rejects_a_labels_block_without_a_field(tmp_path, capsys, kind, field):
    source = _one_hot_node_data(tmp_path) if kind == "node" else _gen(tmp_path)
    doc = json.loads(source.read_text())
    del doc["labels"][field]
    data = tmp_path / "unlabelled.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "block,field,value,message",
    [
        ("labels", "num_classes", None, "num_classes must be an integer"),
        ("splits", "train", [[0]], "split 'train' must be an integer"),
        ("labels", "graph_classes", None, "graph_classes must be an integer matrix"),
        ("labels", "class_weights", [[1.0, None]], "class_weights must be finite"),
        ("labels", "class_weights", {}, "class_weights must be an array of numbers"),
        ("graph", "features", {}, "features must be an array of numbers"),
        ("graph", "feature_dim", [], "feature_dim must be an integer"),
        # the graph would count twice in every epoch
        ("splits", "train", [0, 1, 0], "split 'train' lists id 0 more than once"),
    ],
    ids=[
        "num-classes-null",
        "split-id-not-an-integer",
        "graph-classes-null",
        "class-weight-null",
        "class-weights-object",
        "features-object",
        "feature-dim-list",
        "split-id-repeated",
    ],
)
def test_train_rejects_a_field_of_the_wrong_type(tmp_path, capsys, block, field, value, message):
    doc = json.loads(_gen(tmp_path).read_text())
    (doc["graphs"][0] if block == "graph" else doc[block])[field] = value
    data = tmp_path / "mistyped.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "inf"], "learning_rate"),
        (["--l2", "inf"], "layer1_w"),
        (["--l2", "nan"], "layer1_w"),
        (["--l2-layer2-a", "nan"], "layer2_a"),
    ],
    ids=["lr-nan", "lr-inf", "l2-inf", "l2-nan", "l2-layer2-a-nan"],
)
def test_train_rejects_a_non_finite_rate_or_l2_weight(tmp_path, capsys, flags, field):
    data = _gen(tmp_path)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def _with_huge_validation_features(tmp_path, data):
    # finite features, so parsing accepts them, whose multiplicative
    # attention logits overflow
    doc = json.loads(data.read_text())
    graph = doc["graphs"][doc["splits"]["validation"][0]]
    graph["features"] = [[x * 1e300 for x in row] for row in graph["features"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_reports_an_overflow_in_epoch_scoring_as_divergence(tmp_path, capsys):
    data = _with_huge_validation_features(tmp_path, _gen(tmp_path))
    capsys.readouterr()
    args = ["train", "--data", str(data), "--out", str(tmp_path / "o")]
    assert main(args + ["--logit-mode", "multiplicative", "--epochs", "2"]) == 1
    err = capsys.readouterr().err
    assert "error: training diverged at epoch 0" in err and "Traceback" not in err


def test_an_overflowing_forward_prints_no_numpy_warning(tmp_path):
    data = _with_huge_validation_features(tmp_path, _gen(tmp_path))
    args = ["train", "--data", str(data), "--out", str(tmp_path / "o"), "--epochs", "2"]
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "relgat", *args, "--logit-mode", "multiplicative"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: training diverged at epoch 0")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_eval_reports_an_overflow_as_an_error(tmp_path, capsys):
    data = _gen(tmp_path)
    out = _train(tmp_path, data, "run", extra=["--logit-mode", "multiplicative"])
    huge = _with_huge_validation_features(tmp_path, data)
    capsys.readouterr()
    args = ["eval", "--data", str(huge), "--checkpoint", str(out), "--split", "validation"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and "Traceback" not in err


@pytest.mark.parametrize(
    "space,message",
    [
        ({"heads": {"kind": "one_of"}}, "'options'"),
        (["x"], "maps names to prior objects"),
        ({"heads": {"kind": "one_of", "options": 5}}, "'options' must be a list"),
        ({"edge_dropout": {"kind": "uniform", "low": "a", "high": 1}}, "'low' must be a number"),
        ({"l2": {"kind": "one_of", "options": ["a"]}}, "L2 weight 'l2' must be a number"),
        ({"l2_layer2_a": {"kind": "one_of", "options": ["1e-3"]}}, "'l2_layer2_a' must be a number"),
    ],
    ids=[
        "prior-without-options",
        "not-an-object",
        "options-not-a-list",
        "bound-not-a-number",
        "l2-not-a-number",
        "group-l2-not-a-number",
    ],
)
def test_sweep_rejects_a_malformed_space_file(tmp_path, capsys, space, message):
    data = _gen(tmp_path)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    records = tmp_path / "records.jsonl"
    capsys.readouterr()
    args = ["sweep", "--data", str(data), "--out", str(records), "--space", str(path)]
    assert main(args + ["--trials", "1", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not records.exists()


@pytest.mark.parametrize(
    "edges",
    [[[0, None, 1]], [5], [[0, 1]], 7, "", {}],
    ids=["null-id", "bare-number", "pair", "not-a-list", "empty-string", "empty-object"],
)
def test_train_rejects_a_malformed_edge_list(tmp_path, capsys, edges):
    doc = json.loads(_gen(tmp_path).read_text())
    doc["graphs"][0]["edges"] = edges
    data = tmp_path / "malformed.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: edges must be [relation, target, source] integer triples")
    assert "Traceback" not in err


@pytest.mark.parametrize("graphs", [5, None], ids=["number", "null"])
def test_train_rejects_a_graphs_entry_that_is_not_a_list(tmp_path, capsys, graphs):
    doc = json.loads(_gen(tmp_path).read_text())
    doc["graphs"] = graphs
    data = tmp_path / "malformed.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith('error: "graphs" must be a list') and "Traceback" not in err


def test_a_malformed_edge_list_exits_two_without_a_traceback_from_the_command_line(tmp_path):
    doc = json.loads(_gen(tmp_path).read_text())
    doc["graphs"][0]["edges"] = [[0, None, 1]]
    data = tmp_path / "malformed.json"
    data.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "relgat", "train", "--data", str(data), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_sweep_cli(tmp_path, capsys):
    data = _gen(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "graph_units": {"kind": "multiples_of", "step": 8, "low": 8, "high": 16},
                "learning_rate": {"kind": "log_uniform", "low": 1e-3, "high": 1e-1},
            }
        )
    )
    records = tmp_path / "records.jsonl"
    capsys.readouterr()
    rc = main(
        [
            "sweep",
            "--data",
            str(data),
            "--out",
            str(records),
            "--space",
            str(space),
            "--trials",
            "2",
            "--seed",
            "4",
            "--epochs",
            "2",
            "--patience",
            "2",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 2
    assert "best" in summary
    assert len(records.read_text().splitlines()) == 2


def test_sweep_rejects_a_fold_limit_below_one(tmp_path, capsys):
    data = _gen(tmp_path)
    records = tmp_path / "records.jsonl"
    capsys.readouterr()
    args = ["sweep", "--data", str(data), "--out", str(records), "--trials", "1"]
    assert main(args + ["--epochs", "1", "--folds", "3", "--fold-limit", "0"]) == 2
    err = capsys.readouterr().err
    assert "fold_limit" in err and "Traceback" not in err
    assert not records.exists()


@pytest.mark.parametrize(
    "kind,flags,message",
    [
        ("node", ["--folds", "3", "--fold-limit", "2"], "folds and fold_limit apply to graph tasks only"),
        ("node", ["--folds", "3"], "folds and fold_limit apply to graph tasks only"),
        ("graph", ["--fold-limit", "2"], "fold_limit applies only with folds"),
        ("graph", ["--folds", "1"], "folds must be at least 2"),
    ],
    ids=["node-folds-and-limit", "node-folds", "graph-limit-without-folds", "graph-one-fold"],
)
def test_sweep_refuses_fold_flags_that_would_do_nothing(tmp_path, capsys, kind, flags, message):
    data = _one_hot_node_data(tmp_path) if kind == "node" else _gen(tmp_path)
    records = tmp_path / "records.jsonl"
    capsys.readouterr()
    args = ["sweep", "--data", str(data), "--out", str(records), "--trials", "1", "--epochs", "1"]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not records.exists()


@pytest.mark.parametrize(
    "kind,name",
    [("graph", "x"), ("graph", "logit_mode"), ("graph", "basis_w"), ("node", "embed_dim"), ("node", "batch_size")],
)
def test_sweep_refuses_a_space_name_no_trial_reads(tmp_path, capsys, kind, name):
    data = _one_hot_node_data(tmp_path) if kind == "node" else _gen(tmp_path)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({name: {"kind": "uniform", "low": 0, "high": 1}}))
    records = tmp_path / "records.jsonl"
    capsys.readouterr()
    args = ["sweep", "--data", str(data), "--out", str(records), "--space", str(path)]
    assert main(args + ["--trials", "1", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no trial of a {kind} task reads the space names '{name}'")
    assert "Traceback" not in err and not records.exists()


def test_sweep_resume_refuses_a_log_from_another_sweep(tmp_path, capsys):
    data = _gen(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps({"learning_rate": {"kind": "log_uniform", "low": 1e-3, "high": 1e-1}})
    )
    records = tmp_path / "records.jsonl"

    def sweep(trials, *extra):
        base = ["sweep", "--data", str(data), "--out", str(records), "--space", str(space)]
        budget = ["--trials", str(trials), "--epochs", "1", "--patience", "1"]
        return main(base + budget + list(extra))

    assert sweep(2, "--seed", "0") == 0
    before = records.read_text()
    capsys.readouterr()
    assert sweep(3, "--seed", "99") == 2
    assert "different sweep" in capsys.readouterr().err
    assert sweep(3, "--seed", "0", "--logit-mode", "multiplicative") == 2
    assert "different sweep" in capsys.readouterr().err
    assert records.read_text() == before

    # the same sweep resumes: the two recorded trials are kept, one is added
    assert sweep(3, "--seed", "0") == 0
    after = records.read_text()
    assert after.startswith(before)
    assert len(after.splitlines()) == 3


def test_stats_cli(tmp_path, capsys):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"a": [5, 6, 7], "b": [1, 2, 3]}))
    out = tmp_path / "stats.json"
    rc = main(["stats", "--samples", str(samples), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    by_pair = {(r["x"], r["y"]): r for r in report["pairwise"]}
    assert by_pair[("a", "b")]["u"] == 9.0
    assert by_pair[("a", "b")]["p_value"] == pytest.approx(0.05)
    assert report["cdf"]["points"] == [1.0, 2.0, 3.0, 5.0, 6.0, 7.0]


def test_stats_rejects_bad_samples(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]))
    rc = main(["stats", "--samples", str(bad)])
    assert rc == 2


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "relgat", "--version"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "relgat" in proc.stdout


def test_node_training_via_cli(tmp_path, capsys):
    # hand-written node-task document exercises the transductive path
    from relgat.graph import (
        LabelSet,
        NodeTask,
        Split,
        build_graph,
        serialize_dataset,
        with_self_relation,
    )

    rng = np.random.default_rng(0)
    n = 10
    feats = np.array([[1.0 if i % 2 == 0 else -1.0, 0.1 * i] for i in range(n)])
    triples = [[0, i, (i + 1) % n] for i in range(n)]
    g = with_self_relation(build_graph(n, 1, triples, feats))
    labels = LabelSet(kind="node", num_classes=2, node_classes={i: i % 2 for i in range(n)})
    split = Split(train=(0, 1, 2, 3), validation=(4, 5, 6), test=(7, 8, 9))
    doc = serialize_dataset(NodeTask(g, labels, split))
    data = tmp_path / "node.json"
    data.write_text(doc)
    out = tmp_path / "node_run"
    rc = main(
        [
            "train",
            "--data",
            str(data),
            "--out",
            str(out),
            "--epochs",
            "3",
            "--patience",
            "3",
            "--hidden-units",
            "4",
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "node"
    capsys.readouterr()
    rc = main(["eval", "--data", str(data), "--checkpoint", str(out), "--split", "validation"])
    assert rc == 0
