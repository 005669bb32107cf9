"""Classifier architectures, losses, pooling, and checkpoint round trips."""

import json

import numpy as np
import pytest

from relgat.graph import batch_graphs, build_graph
from relgat.models import (
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    bind_params,
    config_hash,
    graph_gather,
    inverse_frequency_weights,
    load_checkpoint,
    masked_cross_entropy,
    save_checkpoint,
    weighted_cross_entropy,
)
from relgat.tensor import Tape, gather_rows, log, mul, row_softmax, rowsum, sum_all

RNG = np.random.default_rng


def test_masked_cross_entropy_uniform_frozen():
    # uniform over 4 classes: loss is exactly ln 4 ~ 1.386294
    tape = Tape()
    probs = row_softmax(tape.leaf(np.zeros((5, 4))))
    loss = masked_cross_entropy(probs, [0, 2, 4], [1, 3, 0])
    assert loss.data == pytest.approx(np.log(4.0), abs=1e-12)
    assert loss.data == pytest.approx(1.3862943611, abs=1e-9)


def test_masked_cross_entropy_gathers_before_log():
    # a zero probability in an unsupervised row must not poison the loss
    tape = Tape()
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    probs = tape.leaf(p)
    loss = masked_cross_entropy(probs, [1], [0])
    assert loss.data == pytest.approx(np.log(2.0), abs=1e-15)


def test_masked_cross_entropy_validation():
    tape = Tape()
    probs = row_softmax(tape.leaf(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="no supervised"):
        masked_cross_entropy(probs, [], [])
    with pytest.raises(ValueError, match="out of range"):
        masked_cross_entropy(probs, [5], [0])
    with pytest.raises(ValueError, match="out of range"):
        masked_cross_entropy(probs, [0], [7])


def test_inverse_frequency_weights_frozen():
    labels = np.array([[0], [0], [0], [1]])
    w = inverse_frequency_weights(labels, 2)
    # counts 3:1 -> raw [1/3, 1], normalized to mean 1 -> [1/2, 3/2]
    assert np.allclose(w, [[0.5, 1.5]], atol=1e-15)


def test_inverse_frequency_weights_skip_missing_and_absent():
    labels = np.array([[0, -1], [0, -1], [-1, -1]])
    w = inverse_frequency_weights(labels, 2)
    assert np.allclose(w[0], [1.0, 0.0], atol=1e-15)  # single observed class
    assert np.array_equal(w[1], [0.0, 0.0])  # task with no labels


def test_weighted_cross_entropy_frozen():
    tape = Tape()
    # 1 graph, 2 tasks, 2 classes; rows are g*T + t
    p = np.array([[0.8, 0.2], [0.5, 0.5]])
    probs = tape.leaf(p)
    labels = np.array([[0, 1]])
    weights = np.array([[1.0, 1.0], [1.0, 2.0]])
    loss = weighted_cross_entropy(probs, labels, weights)
    expected = -(np.log(0.8) + 2.0 * np.log(0.5)) / 2.0
    assert loss.data == pytest.approx(expected, abs=1e-15)

    def onehot_chain(probs, rows, classes, factors):
        # the loss body as a dense one-hot product and row sum
        n = classes.size
        onehot = np.zeros((n, probs.shape[1]))
        onehot[np.arange(n), classes] = 1.0
        logs = log(rowsum(mul(gather_rows(probs, rows), onehot)))
        if factors is not None:
            logs = mul(logs, factors)
        return mul(sum_all(logs), -1.0 / n)

    # the gathered loss gives the chain's bytes, with repeated rows and with
    # class weights, in the loss and in the gradient of the softmax input
    rng = RNG(3)
    z = rng.normal(size=(6, 3)) * 3.0
    labels = np.array([[0, 2], [-1, 1], [2, 2]])
    gi, ti = np.nonzero(labels >= 0)
    cls = labels[gi, ti]
    weights = rng.uniform(0.5, 2.0, size=(2, 3))
    cases = (
        (lambda p: masked_cross_entropy(p, [4, 1, 4, 0, 1], [2, 0, 2, 1, 1]),
         lambda p: onehot_chain(p, np.array([4, 1, 4, 0, 1]), np.array([2, 0, 2, 1, 1]), None)),
        (lambda p: weighted_cross_entropy(p, labels, weights),
         lambda p: onehot_chain(p, gi * 2 + ti, cls, weights[ti, cls])),
    )
    for loss_of in cases:
        got = []
        for fn in loss_of:
            tape = Tape()
            leaf = tape.leaf(z)
            loss = fn(row_softmax(leaf))
            got.append((loss.data.tobytes(), tape.backward(loss)[leaf].tobytes()))
        assert got[0] == got[1]
    # a true-class probability of 0 still fails as an overflow
    with pytest.raises(OverflowError):
        masked_cross_entropy(row_softmax(Tape().leaf(np.array([[0.0, 800.0]]))), [0], [0])


def test_weighted_cross_entropy_skips_missing():
    tape = Tape()
    p = np.array([[0.8, 0.2], [0.01, 0.99]])
    probs = tape.leaf(p)
    labels = np.array([[0, -1]])
    weights = np.ones((2, 2))
    loss = weighted_cross_entropy(probs, labels, weights)
    assert loss.data == pytest.approx(-np.log(0.8), abs=1e-15)


def test_weighted_cross_entropy_shape_checks():
    tape = Tape()
    probs = tape.leaf(np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="rows"):
        weighted_cross_entropy(probs, np.array([[0, 0], [0, 0]]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="no labelled"):
        weighted_cross_entropy(probs, np.array([[-1, -1]]), np.ones((2, 2)))


def test_graph_gather_mean_and_max_frozen():
    tape = Tape()
    feats = tape.leaf([[2.0], [4.0], [1.0], [5.0]])
    out = graph_gather(feats, [0, 0, 1, 1], 2)
    # mean||max per graph: [3,4] and [3,5]
    assert np.array_equal(out.data, [[3.0, 4.0], [3.0, 5.0]])


def test_node_classifier_outputs_distributions():
    rng = RNG(0)
    g = build_graph(
        6, 2, [[0, 1, 2], [0, 3, 4], [1, 5, 0], [1, 2, 3]], rng.normal(size=(6, 3))
    )
    model = NodeClassifier(
        rng,
        NodeClassifierConfig(in_dim=3, num_relations=2, num_classes=4, hidden_units=8, heads=2),
    )
    tape = Tape()
    leaves = bind_params(tape, model.params)
    probs = model.forward(leaves, g.edges, 6, tape.leaf(g.features))
    assert probs.shape == (6, 4)
    assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)


def test_node_classifier_one_hot_uses_embedding_table():
    rng = RNG(1)
    g = build_graph(5, 1, [[0, 1, 2]], one_hot=True)
    model = NodeClassifier(
        rng,
        NodeClassifierConfig(
            in_dim=5, num_relations=1, num_classes=2, hidden_units=4, one_hot=True, embed_dim=3
        ),
    )
    assert model.params["embed"].shape == (5, 3)
    tape = Tape()
    probs = model.forward(bind_params(tape, model.params), g.edges, 5, None)
    assert probs.shape == (5, 2)
    with pytest.raises(ValueError, match="fixed node count"):
        model.forward(bind_params(Tape(), model.params), g.edges, 4, None)


def _recording_dropout():
    """A dropout that records each requested shape and masks with ones."""
    shapes = []

    def dropout(shape):
        shapes.append(tuple(shape))
        return np.ones(shape)

    return dropout, shapes


@pytest.mark.parametrize("one_hot", [False, True])
def test_node_dropout_masks_the_input_then_the_hidden_layer(one_hot):
    rng = RNG(6)
    n, f = 5, 3
    features = None if one_hot else rng.normal(size=(n, f))
    g = build_graph(n, 2, [[0, 1, 2], [0, 3, 4], [1, 2, 0]], features, one_hot=one_hot)
    cfg = NodeClassifierConfig(
        in_dim=n if one_hot else f,
        num_relations=2,
        num_classes=2,
        hidden_units=6,
        heads=2,
        one_hot=one_hot,
        embed_dim=4 if one_hot else None,
    )
    model = NodeClassifier(rng, cfg)
    tape = Tape()
    leaves = bind_params(tape, model.params)
    features = None if one_hot else tape.leaf(g.features)
    dropout, shapes = _recording_dropout()
    masked = model.forward(leaves, g.edges, n, features, dropout=dropout)
    assert shapes == [(n, 4 if one_hot else f), (n, 6)]
    plain = model.forward(leaves, g.edges, n, features)
    assert masked.data.tobytes() == plain.data.tobytes()


def test_graph_dropout_masks_input_both_layers_and_the_dense_layer():
    rng = RNG(7)
    cfg = GraphClassifierConfig(
        feature_dim=3, num_relations=1, num_tasks=2, num_classes=2, graph_units=4, dense_units=5
    )
    model = GraphClassifier(rng, cfg)
    batch = batch_graphs(
        [
            build_graph(2, 1, [[0, 0, 1]], rng.normal(size=(2, 3))),
            build_graph(3, 1, [[0, 1, 2]], rng.normal(size=(3, 3))),
        ]
    )
    g = batch.graph
    tape = Tape()
    leaves = bind_params(tape, model.params)
    args = (leaves, g.edges, 5, tape.leaf(g.features), batch.graph_segment, 2)
    dropout, shapes = _recording_dropout()
    masked = model.forward(*args, dropout=dropout)
    assert shapes == [(5, 3), (5, 4), (5, 4), (2, 5)]
    assert masked.data.tobytes() == model.forward(*args).data.tobytes()


def test_node_classifier_requires_features_when_not_one_hot():
    rng = RNG(2)
    model = NodeClassifier(
        rng, NodeClassifierConfig(in_dim=3, num_relations=1, num_classes=2)
    )
    with pytest.raises(ValueError, match="feature"):
        model.forward(bind_params(Tape(), model.params), [(np.array([]), np.array([]))], 2, None)


def test_embed_dim_defaults_to_hidden_units():
    model = NodeClassifier(
        RNG(0),
        NodeClassifierConfig(
            in_dim=6, num_relations=1, num_classes=2, hidden_units=12, one_hot=True
        ),
    )
    assert model.params["embed"].shape == (6, 12)


@pytest.mark.parametrize("embed_dim", [0, -2])
def test_node_classifier_refuses_an_embed_dim_below_one(embed_dim):
    config = NodeClassifierConfig(
        in_dim=6, num_relations=1, num_classes=2, one_hot=True, embed_dim=embed_dim
    )
    with pytest.raises(ValueError, match=f"embed_dim must be positive, got {embed_dim}"):
        NodeClassifier(RNG(0), config)


def test_node_l2_groups_cover_kernels_only():
    model = NodeClassifier(
        RNG(0),
        NodeClassifierConfig(in_dim=3, num_relations=2, num_classes=2, hidden_units=4, heads=2),
    )
    groups = model.l2_groups()
    grouped = [n for names in groups.values() for n in names]
    assert set(groups) == {"layer1_w", "layer1_a", "layer2_w", "layer2_a"}
    assert all(".w." in n or ".a." in n for n in grouped)
    assert not any("bias" in n for n in grouped)
    assert "embed" not in grouped


def test_graph_classifier_row_convention():
    # zero the dense stack except per-(task, class) biases: every graph's
    # row g*T + t must be softmax of task t's bias block
    rng = RNG(3)
    cfg = GraphClassifierConfig(
        feature_dim=2, num_relations=1, num_tasks=3, num_classes=2, graph_units=4, dense_units=4
    )
    model = GraphClassifier(rng, cfg)
    model.params["dense2.w"][:] = 0.0
    bias = np.array([0.0, np.log(3.0), np.log(9.0), 0.0, 0.0, 0.0])
    model.params["dense2.b"][:] = bias
    g1 = build_graph(2, 1, [[0, 0, 1]], rng.normal(size=(2, 2)))
    g2 = build_graph(3, 1, [[0, 1, 2]], rng.normal(size=(3, 2)))
    tape = Tape()
    leaves = bind_params(tape, model.params)
    from relgat.graph import batch_graphs

    batch = batch_graphs([g1, g2])
    probs = model.forward(
        leaves,
        batch.graph.edges,
        batch.graph.num_nodes,
        tape.leaf(batch.graph.features),
        batch.graph_segment,
        batch.graph_count,
    )
    assert probs.shape == (6, 2)
    for graph_row in range(2):
        base = graph_row * 3
        assert np.allclose(probs.data[base], [0.25, 0.75], atol=1e-12)  # task 0
        assert np.allclose(probs.data[base + 1], [0.9, 0.1], atol=1e-12)  # task 1
        assert np.allclose(probs.data[base + 2], [0.5, 0.5], atol=1e-12)  # task 2


def test_graph_classifier_dense_width_matches_task_count():
    cfg = GraphClassifierConfig(
        feature_dim=4, num_relations=2, num_tasks=12, num_classes=2, graph_units=8, dense_units=16
    )
    model = GraphClassifier(RNG(0), cfg)
    assert model.params["dense2.w"].shape == (16, 24)
    assert model.params["dense2.b"].shape == (24,)
    assert model.params["dense1.w"].shape == (16, 16)  # pooled 2*graph_units


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = RNG(4)
    model = NodeClassifier(
        rng, NodeClassifierConfig(in_dim=3, num_relations=2, num_classes=2, hidden_units=4)
    )
    config = {"model": model.config.to_dict(), "task": "node"}
    save_checkpoint(tmp_path, model.params, config, extra={"seed": 9})
    params, manifest = load_checkpoint(tmp_path)
    assert list(params) == list(model.params)
    for name in params:
        assert np.array_equal(params[name], model.params[name])
    assert manifest["seed"] == 9
    assert manifest["config"]["task"] == "node"
    assert manifest["config_hash"] == config_hash(config)
    total = sum(v.size for v in model.params.values())
    raw = (tmp_path / "params.bin").read_bytes()
    assert len(raw) == total * 8  # little-endian float64


def test_checkpoint_detects_truncation(tmp_path):
    rng = RNG(5)
    model = NodeClassifier(
        rng, NodeClassifierConfig(in_dim=3, num_relations=1, num_classes=2, hidden_units=4)
    )
    save_checkpoint(tmp_path, model.params, {"task": "node"})
    blob = (tmp_path / "params.bin").read_bytes()
    (tmp_path / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="declares"):
        load_checkpoint(tmp_path)


def test_checkpoint_offsets_follow_declaration_order(tmp_path):
    params = {"b": np.zeros((2, 3)), "a": np.ones(4)}
    save_checkpoint(tmp_path, params, {})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    entries = manifest["parameters"]
    assert [e["name"] for e in entries] == ["b", "a"]
    assert entries[0]["offset"] == 0
    assert entries[1]["offset"] == 6


def test_config_hash_key_order_independent():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
