"""Optimizer math, dropout semantics, metric computation, determinism and
the early-stopping protocol."""

import dataclasses
import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_cli import _src_env

import relgat.graph
import relgat.models
from relgat import training
from relgat.graph import (
    GraphTask,
    LabelSet,
    NodeTask,
    Split,
    batch_graphs,
    build_graph,
    generate_planted,
    with_self_relation,
)
from relgat.models import (
    L2_GROUPS,
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    bind_params,
    weighted_cross_entropy,
)
from relgat.tensor import Tape, concat_rows
from relgat.training import (
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    drop_edges,
    evaluate,
    feature_mask,
    kfold_split,
    roc_auc,
    train,
)

RNG = np.random.default_rng


def _node_task(n=12, seed=0, hidden=8, **model_kwargs):
    rng = RNG(seed)
    classes = {i: i % 2 for i in range(n)}
    feats = np.zeros((n, 2))
    for i in range(n):
        feats[i, 0] = (1.0 if classes[i] == 0 else -1.0) + 0.1 * rng.normal()
        feats[i, 1] = rng.normal()
    # both ring directions so every attention support holds two neighbors
    triples = [[0, i, (i + 1) % n] for i in range(n)]
    triples += [[0, i, (i - 1) % n] for i in range(n)]
    g = with_self_relation(build_graph(n, 1, triples, feats))
    labels = LabelSet(kind="node", num_classes=2, node_classes=classes)
    ids = list(range(n))
    split = Split(train=tuple(ids[:6]), validation=tuple(ids[6:9]), test=tuple(ids[9:]))
    task = NodeTask(g, labels, split)
    model = NodeClassifier(
        rng,
        NodeClassifierConfig(
            in_dim=2, num_relations=2, num_classes=2, hidden_units=hidden, **model_kwargs
        ),
    )
    return model, task


# per-(relation, head) slot kernels, and one shared basis per kernel kind
KERNELS = {"per-slot": {}, "basis": {"basis_w": 1, "basis_a": 1}}
ALL_L2_GROUPS = dict.fromkeys(L2_GROUPS, 1e-2)


def _graph_task(n_graphs=16, seed=0):
    pairs = generate_planted(seed, n_graphs, 8, 4, feature_dim=4, noise_edges=4)
    graphs = tuple(g for g, _ in pairs)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    k = n_graphs // 4
    split = Split(
        train=tuple(range(2 * k)),
        validation=tuple(range(2 * k, 3 * k)),
        test=tuple(range(3 * k, n_graphs)),
    )
    task = GraphTask(graphs, labels, split)
    model = GraphClassifier(
        RNG(seed + 1),
        GraphClassifierConfig(
            feature_dim=4,
            num_relations=4,
            num_tasks=1,
            num_classes=2,
            graph_units=8,
            dense_units=8,
            logit_mode="multiplicative",
            norm_kind="argat",
        ),
    )
    return model, task


def test_adam_first_step_frozen():
    params = {"w": np.array([0.0])}
    state = AdamState(params)
    adam_step(params, {"w": np.array([3.0])}, state, 1e-3)
    # bias correction makes the first step lr * g/(|g| + eps) ~ -lr
    assert abs(params["w"][0] + 1e-3) < 1e-11
    assert state.step == 1


def test_adam_second_step_hand_value():
    params = {"w": np.array([0.0])}
    state = AdamState(params)
    adam_step(params, {"w": np.array([1.0])}, state, 0.1)
    adam_step(params, {"w": np.array([1.0])}, state, 0.1)
    m2 = 0.1 + 0.9 * 0.1  # raw first moment after two identical grads
    v2 = 0.001 + 0.999 * 0.001
    m_hat = m2 / (1 - 0.9**2)
    v_hat = v2 / (1 - 0.999**2)
    expected = -0.1 * 1.0 / (1.0 + 1e-8) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params["w"][0] == pytest.approx(expected, abs=1e-15)


def test_adam_rejects_non_finite_gradient():
    params = {"w": np.array([0.0])}
    with pytest.raises(DivergenceError, match="non-finite"):
        adam_step(params, {"w": np.array([np.nan])}, AdamState(params), 0.1)


def test_feature_mask_inverted_dropout():
    assert feature_mask(RNG(0), (3, 3), 0.0) is None
    mask = feature_mask(RNG(0), (1000, 4), 0.25)
    vals = np.unique(mask)
    assert set(vals.tolist()) <= {0.0, 1.0 / 0.75}
    kept = (mask > 0).mean()
    assert 0.7 < kept < 0.8


def test_drop_edges_exempts_self_relation():
    t = np.arange(50)
    edges = ((t, t), (t, t))
    rng = RNG(1)
    out = drop_edges(rng, edges, 0.9, self_relation=True)
    assert len(out[0][0]) < 20  # data relation thinned hard
    assert len(out[1][0]) == 50  # self relation untouched
    same = drop_edges(rng, edges, 0.0, self_relation=False)
    assert same is edges


def test_drop_edges_deterministic_per_seed():
    t = np.arange(100)
    edges = ((t, t),)
    a = drop_edges(RNG(5), edges, 0.5, self_relation=False)
    b = drop_edges(RNG(5), edges, 0.5, self_relation=False)
    assert np.array_equal(a[0][0], b[0][0])


def test_kfold_split_properties():
    folds = kfold_split(10, 3, seed=0)
    assert len(folds) == 3
    sizes = sorted(len(te) for _, te in folds)
    assert sizes == [3, 3, 4]
    for tr, te in folds:
        assert len(np.intersect1d(tr, te)) == 0
        assert len(np.union1d(tr, te)) == 10
    again = kfold_split(10, 3, seed=0)
    assert all(
        np.array_equal(a[1], b[1]) for a, b in zip(folds, again)
    )
    assert not np.array_equal(folds[0][1], kfold_split(10, 3, seed=1)[0][1])
    with pytest.raises(ValueError):
        kfold_split(3, 5, seed=0)


def _brute_auc(scores, labels):
    s = np.asarray(scores, float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_roc_auc_frozen_and_brute_force():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)
    assert np.isnan(roc_auc([0.1, 0.2], [1, 1]))
    rng = RNG(2)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        s = rng.choice([0.1, 0.3, 0.5, 0.9], size=n)  # force ties
        assert roc_auc(s, y) == pytest.approx(_brute_auc(s, y), abs=1e-12)


def test_node_training_deterministic_per_seed():
    cfg = TrainConfig(epochs=5, patience=5, seed=3, feature_dropout=0.3, edge_dropout=0.2)
    model1, task = _node_task()
    r1 = train(model1, task, cfg)
    model2, _ = _node_task()
    r2 = train(model2, task, cfg)
    assert json.dumps(r1.history) == json.dumps(r2.history)
    for k in model1.params:
        assert np.array_equal(model1.params[k], model2.params[k])
    model3, _ = _node_task()
    r3 = train(model3, task, TrainConfig(epochs=5, patience=5, seed=4, feature_dropout=0.3))
    assert json.dumps(r3.history) != json.dumps(r1.history)


def test_node_training_learns_and_early_stops():
    model, task = _node_task()
    result = train(model, task, TrainConfig(epochs=100, patience=5, learning_rate=0.05, seed=0))
    assert result.best_metric == 1.0
    assert result.stopped_early
    assert result.epochs_run < 100
    assert result.epochs_run >= result.best_epoch + 5
    # best parameters are restored on the model
    assert evaluate(model, task, "validation")["accuracy"] == result.best_metric


def test_history_records_expected_keys():
    model, task = _node_task()
    result = train(model, task, TrainConfig(epochs=2, patience=2, seed=0))
    assert len(result.history) == 2
    rec = result.history[0]
    assert set(rec) == {"epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"}


def test_evaluate_is_side_effect_free():
    model, task = _node_task()
    before = {k: v.copy() for k, v in model.params.items()}
    m1 = evaluate(model, task, "test")
    m2 = evaluate(model, task, "test")
    assert m1 == m2
    for k in before:
        assert np.array_equal(before[k], model.params[k])


def test_evaluate_constant_attention_differs_after_training():
    model, task = _node_task()
    train(model, task, TrainConfig(epochs=30, patience=30, learning_rate=0.05, seed=0))
    learned = evaluate(model, task, "test")
    constant = evaluate(model, task, "test", constant=True)
    assert learned["loss"] != constant["loss"]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_raises():
    model, task = _node_task()
    for k in model.params:
        model.params[k] = model.params[k] * 1e200
    with pytest.raises(DivergenceError):
        train(model, task, TrainConfig(epochs=3, patience=3, seed=0))


@pytest.mark.parametrize("kernels", list(KERNELS))
def test_l2_penalty_enters_loss_exactly(kernels):
    cfg_plain = TrainConfig(epochs=1, patience=1, seed=0)
    cfg_l2 = TrainConfig(epochs=1, patience=1, seed=0, l2={"layer1_w": 0.5})
    model1, task = _node_task(**KERNELS[kernels])
    init = {k: v.copy() for k, v in model1.params.items()}
    r_plain = train(model1, task, cfg_plain)
    model2, _ = _node_task(**KERNELS[kernels])
    r_l2 = train(model2, task, cfg_l2)
    penalty = 0.5 * sum(
        float((init[name] ** 2).sum()) for name in model2.l2_groups()["layer1_w"]
    )
    diff = r_l2.history[0]["train_loss"] - r_plain.history[0]["train_loss"]
    assert diff == pytest.approx(penalty, rel=1e-12)


@pytest.mark.parametrize("kernels", list(KERNELS))
def test_l2_penalty_records_no_tape_op(kernels, monkeypatch):
    recorded = []

    class CountingTape(Tape):
        def backward(self, loss):
            recorded.append(self.num_recorded)
            return super().backward(loss)

    monkeypatch.setattr(training, "Tape", CountingTape)
    for l2 in ({}, ALL_L2_GROUPS):
        model, task = _node_task(**KERNELS[kernels])
        train(model, task, TrainConfig(epochs=1, patience=1, seed=0, l2=l2))
    assert len(recorded) == 2
    assert recorded[0] == recorded[1]


@pytest.mark.parametrize("kernels", list(KERNELS))
def test_l2_penalty_gradient_is_two_c_p(kernels):
    # one plain Adam step from the same start, fed the criterion gradient
    # plus 2*c*p, gives the penalized run's parameters
    model, task = _node_task(**KERNELS[kernels])
    init = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainConfig(epochs=1, patience=1, seed=0, l2=ALL_L2_GROUPS)
    fit = training._fit(model, task)
    part = fit.part("train")
    tape = Tape()
    leaves = bind_params(tape, init)
    grad_map = tape.backward(fit.criterion(fit.forward(tape, leaves, part), part))
    grads = {k: grad_map[leaves[k]] for k in init}
    for group, names in model.l2_groups().items():
        for name in names:
            grads[name] = 2.0 * ALL_L2_GROUPS[group] * init[name] + grads[name]
    expected = {k: v.copy() for k, v in init.items()}
    adam_step(expected, grads, AdamState(expected), cfg.learning_rate)
    params = {k: v.copy() for k, v in init.items()}
    training._step(fit, params, AdamState(params), part, None, cfg)
    for k in init:
        assert np.array_equal(params[k], expected[k]), k


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_a_finite_forward_with_an_overflowing_l2_penalty_diverges():
    # the loss's own finite check raises inside the epoch, before Adam could
    # refuse the non-finite gradient 2c*p without naming the epoch
    model, task = _node_task()
    with pytest.raises(DivergenceError, match="epoch 0"):
        train(model, task, TrainConfig(epochs=2, patience=2, l2={"layer1_w": 1e308}))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_an_overflow_in_the_epochs_scoring_forward_diverges():
    # the validation graph's features are finite, so batching accepts them,
    # but its multiplicative logits overflow; no training batch holds it
    model, task = _graph_task()
    graphs = list(task.graphs)
    v = task.split.validation[0]
    graphs[v] = dataclasses.replace(graphs[v], features=graphs[v].features * 1e300)
    task = GraphTask(tuple(graphs), task.labels, task.split)
    with pytest.raises(DivergenceError, match="training diverged at epoch 0"):
        train(model, task, TrainConfig(epochs=2, patience=2))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_a_divergence_names_the_op_that_overflowed():
    # huge attention kernels overflow the multiplicative logits q.k; the
    # softmax alone could have turned an overflow to -inf into a weight of 0
    model, task = _graph_task()
    assert model.config.logit_mode == "multiplicative"
    for name in model.layer1.a_parameter_names():
        model.params[name] = model.params[name] * 1e200
    with pytest.raises(OverflowError, match="non-finite entries in logits of edge_attention"):
        evaluate(model, task, "test")
    # constant attention reads no attention kernel
    assert np.isfinite(evaluate(model, task, "test", constant=True)["loss"])
    with pytest.raises(DivergenceError, match="at epoch 0: non-finite entries in logits of edge_attention"):
        train(model, task, TrainConfig(epochs=2, patience=2))


@pytest.mark.parametrize("half", ["queries", "keys"])
def test_a_divergence_names_an_overflowing_query_or_key_product(half):
    # one half of every layer-1 attention kernel at 1e308 and the other at
    # 0: that half's products with the projected features overflow before
    # any logit is formed, and the other half's stay finite
    model, task = _graph_task()
    layer = model.layer1
    for name in layer.a_parameter_names():
        kernel = np.zeros_like(model.params[name])
        # each slot's row block of the stacked kernels
        for block in np.split(kernel, layer.heads * layer.num_relations):
            fp = block.shape[0] // 2
            block[slice(fp) if half == "queries" else slice(fp, None)] = 1e308
        model.params[name] = kernel
    message = f"non-finite entries in {half} of edge_attention"
    with pytest.raises(OverflowError, match=message):
        evaluate(model, task, "test")
    with pytest.raises(DivergenceError, match=f"at epoch 0: {message}"):
        train(model, task, TrainConfig(epochs=2, patience=2))


def test_graph_training_runs_minibatched_and_deterministic():
    model1, task = _graph_task()
    cfg = TrainConfig(epochs=4, patience=4, seed=1, batch_size=4, feature_dropout=0.2)
    r1 = train(model1, task, cfg)
    model2, _ = _graph_task()
    r2 = train(model2, task, cfg)
    assert json.dumps(r1.history) == json.dumps(r2.history)
    assert len(r1.history) == 4
    assert "val_auc" in r1.history[0]
    metrics = evaluate(model1, task, "test")
    assert set(metrics) == {"loss", "accuracy", "auc", "auc_mean"}
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_graph_evaluate_respects_class_weights_override():
    model, task = _graph_task()

    def loss(weights):
        labels = dataclasses.replace(task.labels, class_weights=weights)
        return evaluate(model, GraphTask(task.graphs, labels, task.split), "test")["loss"]

    assert loss(np.ones((1, 2))) != loss(np.array([[1.0, 5.0]]))


def test_tapes_are_freed_without_the_cycle_collector(monkeypatch):
    tapes = []

    class TrackedTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", TrackedTape)
    model, task = _graph_task()
    state = AdamState(model.params)
    gc.collect()
    gc.disable()
    try:
        tape = TrackedTape()
        leaves = bind_params(tape, model.params)
        batch = batch_graphs(list(task.graphs[:4]))
        g = batch.graph
        probs = model.forward(
            leaves, g.edges, g.num_nodes, tape.leaf(g.features), batch.graph_segment, 4
        )
        loss = weighted_cross_entropy(probs, task.labels.graph_classes[:4], np.ones((1, 2)))
        grads = tape.backward(loss)
        adam_step(model.params, {k: grads[leaves[k]] for k in model.params}, state, 0.01)
        evaluate(model, task, "validation")
        evaluate(model, task, "test", constant=True)
        cfg = TrainConfig(epochs=2, patience=2, batch_size=4, feature_dropout=0.2, edge_dropout=0.2)
        train(model, task, cfg)
        del tape, leaves, probs, loss, grads
        assert len(tapes) > 5
        assert [ref for ref in tapes if ref() is not None] == []
    finally:
        gc.enable()


_FAULTS_OF_TWO_TRAINS = """
import resource
import numpy as np
from relgat.graph import GraphTask, LabelSet, Split, generate_planted, with_self_relation
from relgat.models import GraphClassifier, GraphClassifierConfig
from relgat.training import TrainConfig, train

pairs = generate_planted(1, 60, 16, 4, feature_dim=4, noise_edges=40)
task = GraphTask(
    tuple(with_self_relation(g) for g, _ in pairs),
    LabelSet(kind="graph", num_classes=2, graph_classes=np.array([[y] for _, y in pairs])),
    Split(train=tuple(range(36)), validation=tuple(range(36, 48)), test=tuple(range(48, 60))),
)
model = GraphClassifier(
    np.random.default_rng(2),
    GraphClassifierConfig(
        feature_dim=4, num_relations=5, num_tasks=1, num_classes=2,
        graph_units=104, dense_units=32, logit_mode="additive", norm_kind="wirgat",
    ),
)
initial = model.params
faults = []
for _ in range(2):
    model.params = initial
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, task, TrainConfig(epochs=3, patience=3))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(training._mallopt is None, reason="the C library has no mallopt, so its heap is trimmed as it likes")
def test_a_second_train_faults_in_almost_none_of_the_memory_the_first_freed():
    # a fresh process, so that no earlier test has grown or tuned the heap
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_TWO_TRAINS], capture_output=True, text=True, check=True, env=_src_env()
    )
    warm_up, second = map(int, proc.stdout.split())
    assert second < warm_up / 10, (warm_up, second)


def test_a_node_part_holds_its_ids_classes_and_refuses_an_unlabelled_id():
    model, task = _node_task()
    ids, classes = training._NodeFit(model, task).part("test")
    expected = np.array([task.labels.node_classes[int(i)] for i in ids], dtype=np.int64)
    assert classes.dtype == np.int64 and classes.tobytes() == expected.tobytes()
    node_classes = dict(task.labels.node_classes)
    del node_classes[10]
    unlabelled = dataclasses.replace(task, labels=dataclasses.replace(task.labels, node_classes=node_classes))
    with pytest.raises(KeyError, match="10"):
        training._NodeFit(model, unlabelled).part("test")


def test_train_with_edge_dropout_keeps_plans_of_the_graphs_own_edges_only():
    model, task = _node_task()
    cfg = TrainConfig(epochs=3, patience=3, edge_dropout=0.3, feature_dropout=0.2)
    train(model, task, cfg)
    g = task.graph
    plans = vars(g)["_plans"]
    assert list(plans) == ["wirgat"]  # one per normalization kind used
    plan = plans["wirgat"]
    own_targets = np.concatenate([t for t, _ in g.edges])
    assert np.array_equal(plan.targets.ids, own_targets)
    assert plan.targets.ids.size == g.num_edges


def test_a_graphs_plan_is_kept_from_its_second_forward_and_builds_no_runs_before():
    # a one-off forward's plan must not pay for building runs on small sums
    model, task = _node_task()
    evaluate(model, task, "test")
    plan = vars(task.graph)["_plans"]["wirgat"]
    for segments in (plan.targets, plan.supports):
        assert segments._runs is None
    evaluate(model, task, "test", constant=True)
    for segments in (plan.targets, plan.supports):
        assert segments._runs is not None


def _count_batches(monkeypatch) -> list:
    # every batch_graphs call, by the module that made it: graph for a kept
    # split batch, training for a shuffled step batch
    calls = []
    for module in (relgat.graph, training):
        def counted(graphs, name=module.__name__.rsplit(".", 1)[1], real=module.batch_graphs):
            calls.append(name)
            return real(graphs)

        monkeypatch.setattr(module, "batch_graphs", counted)
    return calls


def test_a_second_evaluate_reuses_the_tasks_batch_and_scores_the_same(monkeypatch):
    model, task = _graph_task()
    calls = _count_batches(monkeypatch)
    first = [evaluate(model, task, "test", constant=c) for c in (False, True)]
    assert calls == ["graph"]
    # the kept batch's plan now builds its runs: the scores must not move
    again = [evaluate(model, task, "test", constant=c) for c in (False, True)]
    assert calls == ["graph"]
    assert repr(again) == repr(first)


def test_train_keeps_its_scored_batches_for_later_calls(monkeypatch):
    model, task = _graph_task()
    calls = _count_batches(monkeypatch)
    cfg = TrainConfig(epochs=2, patience=2, batch_size=64)
    first = train(model, task, cfg).history
    assert calls == ["graph", "graph", "training", "training"]  # one step batch per epoch
    assert list(vars(task)["_batches"]) == ["train", "validation"]
    kept = task.batch("train"), task.batch("validation")
    calls.clear()
    evaluate(model, task, "train")
    assert calls == []
    # a second run scores the kept batches, whose plans now build runs, and
    # repeats the first; its shuffled step batches are not kept
    again = train(_graph_task()[0], task, cfg).history
    assert calls == ["training", "training"]
    assert task.batch("train") is kept[0] and task.batch("validation") is kept[1]
    assert repr(again) == repr(first)


def test_repeated_evaluates_weigh_the_classes_once(monkeypatch):
    model, task = _graph_task()
    calls = []
    real = relgat.models.inverse_frequency_weights

    def counted(labels, num_classes):
        calls.append(num_classes)
        return real(labels, num_classes)

    monkeypatch.setattr(relgat.models, "inverse_frequency_weights", counted)
    scored = [(split, c) for split in ("train", "validation", "test") for c in (False, True)]
    first = [evaluate(model, task, split, constant=c) for split, c in scored]
    again = [evaluate(model, task, split, constant=c) for split, c in scored]
    assert calls == [2]
    assert repr(again) == repr(first)
    kept = task.class_weights(2)
    assert not kept.flags.writeable
    assert kept.tobytes() == real(task.labels.graph_classes[list(task.split.train)], 2).tobytes()


def test_evaluating_an_empty_split_raises():
    model, task = _graph_task()
    task = GraphTask(task.graphs, task.labels, dataclasses.replace(task.split, validation=()))
    with pytest.raises(ValueError, match="split 'validation' is empty"):
        evaluate(model, task, "validation")


_FRESH_EVAL = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_training import _two_graphs_and_model
from relgat.training import evaluate
_, b, model = _two_graphs_and_model()
print(repr([evaluate(model, b, split, constant=c) for split in ("train", "test") for c in (False, True)]))
"""


def _two_graphs_and_model():
    # two node tasks with the same node and relation counts, different edges
    model, a = _node_task(seed=0)
    triples = [[0, i, (i + 5) % 12] for i in range(12)] + [[0, i, (i + 7) % 12] for i in range(0, 12, 2)]
    graph = with_self_relation(build_graph(12, 1, triples, a.graph.features))
    return a, dataclasses.replace(a, graph=graph), model


def test_evaluating_one_graph_leaves_no_plan_for_another():
    a, b, model = _two_graphs_and_model()
    for c in (False, True):
        evaluate(model, a, "test", constant=c)
    got = repr([evaluate(model, b, split, constant=c) for split in ("train", "test") for c in (False, True)])
    tests = Path(__file__).resolve().parent
    script = _FRESH_EVAL.format(src=str(tests.parent / "src"), tests=str(tests))
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert got == fresh.stdout.strip()


@pytest.mark.parametrize("constant", [False, True])
@pytest.mark.parametrize("kind", ["node", "graph"])
def test_scoring_forward_equals_a_recorded_forward_bitwise(kind, constant):
    model, task = _node_task() if kind == "node" else _graph_task()
    fit = training._fit(model, task)
    part = fit.part("validation")
    tape = Tape()
    recorded = fit.forward(tape, bind_params(tape, model.params), part, constant=constant)
    scored = training._clean_forward(fit, model.params, part, constant)
    assert not scored.tape.differentiable
    assert scored.data.tobytes() == recorded.data.tobytes()
    assert all(p.flags.writeable for p in model.params.values())


@pytest.mark.parametrize("use_bias", [True, False])
@pytest.mark.parametrize("basis", [None, 2])
@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("logit_mode", ["additive", "multiplicative"])
@pytest.mark.parametrize("norm_kind", ["wirgat", "argat"])
def test_stacked_binding_equals_per_slot_binding_bitwise(norm_kind, logit_mode, heads, basis, use_bias, monkeypatch):
    # layer 1 concatenates its heads and layer 2 averages them; random
    # parameters, biases included, so that every slot's rows differ. Bound
    # per slot, every row block of a stacked kernel (slot k*R + r) and of the
    # joined biases (head k) is its own leaf, joined head-major by concat_rows
    model, task = _node_task(
        hidden=6,
        heads=heads,
        logit_mode=logit_mode,
        norm_kind=norm_kind,
        basis_w=basis,
        basis_a=basis,
        use_bias=use_bias,
    )
    rng = RNG(heads)
    params = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    fit = training._fit(model, task)
    part = fit.part("train")
    relations = model.config.num_relations
    blocks = {f"layer{i}.{kind}": heads * relations for i in (1, 2) for kind in ("w", "a")}
    blocks.update({f"layer{i}.bias": heads for i in (1, 2)})

    def bind_per_slot(tape):
        slots = {
            name: [tape.leaf(b) for b in np.split(value, blocks[name])]
            for name, value in params.items()
            if name in blocks
        }
        leaves = {
            name: concat_rows(slots[name]) if name in slots else tape.leaf(value)
            for name, value in params.items()
        }
        return leaves, slots

    for constant in (False, True):
        tape = Tape()
        per_slot = fit.forward(tape, bind_per_slot(tape)[0], part, constant=constant)
        tape = Tape()
        stacked = fit.forward(tape, bind_params(tape, params), part, constant=constant)
        assert stacked.data.tobytes() == per_slot.data.tobytes()
        scored = training._clean_forward(fit, params, part, constant)
        assert scored.data.tobytes() == per_slot.data.tobytes()

    tape = Tape()
    slot_leaves, slots = bind_per_slot(tape)
    grad_map = tape.backward(fit.criterion(fit.forward(tape, slot_leaves, part), part))
    tape = Tape()
    leaves = bind_params(tape, params)
    stacked_map = tape.backward(fit.criterion(fit.forward(tape, leaves, part), part))
    handed = {}
    monkeypatch.setattr(training, "adam_step", lambda p, grads, state, lr: handed.update(grads))
    training._step(fit, params, AdamState(params), part, None, TrainConfig())
    assert handed.keys() == params.keys()
    for name in params:
        # a step hands Adam each leaf's tape gradient unchanged
        assert handed[name].tobytes() == stacked_map[leaves[name]].tobytes(), name
        if name in slots:
            want = np.concatenate([grad_map[leaf] for leaf in slots[name]])
        else:
            want = grad_map[slot_leaves[name]]
        assert handed[name].tobytes() == want.tobytes(), name


def test_a_step_binds_each_kernel_kind_and_the_biases_as_one_leaf(monkeypatch):
    # the planted-graph benchmark's model: 4 relations plus self, 2 heads
    pairs = generate_planted(0, 8, 20, 4, feature_dim=4, noise_edges=60)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    split = Split(train=tuple(range(6)), validation=(6,), test=(7,))
    task = GraphTask(tuple(with_self_relation(g) for g, _ in pairs), labels, split)
    config = GraphClassifierConfig(
        feature_dim=4,
        num_relations=5,
        num_tasks=1,
        num_classes=2,
        graph_units=16,
        dense_units=16,
        heads=2,
        logit_mode="multiplicative",
        norm_kind="argat",
    )
    model = GraphClassifier(RNG(1), config)
    fit = training._fit(model, task)
    part = fit.part("train")
    tape = Tape()
    fit.criterion(fit.forward(tape, bind_params(tape, model.params), part), part)
    recorded = []

    class CountingTape(Tape):
        def backward(self, loss):
            recorded.append(self.num_recorded)
            return super().backward(loss)

    monkeypatch.setattr(training, "Tape", CountingTape)
    params = {k: v.copy() for k, v in model.params.items()}
    training._step(fit, params, AdamState(params), part, None, TrainConfig())
    # the 40 W and A slots and 4 head biases are stored as 6 stacked
    # parameters, one leaf each, with no concat_rows to join them; each
    # layer's 2 query and key products and 9 multiplicative edge ops (two
    # gathers, mul, rowsum, softmax, gather, scale, reshape, sum) are the 2
    # fused ones
    stacked = [name for name in model.params if name.startswith("layer")]
    assert stacked == ["layer1.w", "layer1.a", "layer1.bias", "layer2.w", "layer2.a", "layer2.bias"]
    assert (tape.num_recorded, recorded) == (36, [36])


@pytest.mark.parametrize("kind", ["node", "graph"])
def test_scoring_forward_draws_no_dropout_mask(kind, monkeypatch):
    drawn = []
    monkeypatch.setattr(training, "feature_mask", lambda *args: drawn.append(args))
    model, task = _node_task() if kind == "node" else _graph_task()
    fit = training._fit(model, task)
    part = fit.part("train")
    training._clean_forward(fit, model.params, part, False)
    assert drawn == []
    tape = Tape()
    config = TrainConfig(feature_dropout=0.5)
    fit.forward(tape, bind_params(tape, model.params), part, rng=RNG(0), config=config)
    assert [args[2] for args in drawn] == [0.5] * (2 if kind == "node" else 4)


@pytest.mark.parametrize("kind", ["node", "graph"])
def test_dropout_at_rate_zero_draws_no_random_numbers(kind):
    model, task = _node_task() if kind == "node" else _graph_task()
    fit = training._fit(model, task)
    part = fit.part("train")
    rng = RNG(0)
    before = rng.bit_generator.state
    tape = Tape()
    probs = fit.forward(tape, bind_params(tape, model.params), part, rng=rng, config=TrainConfig())
    assert rng.bit_generator.state == before
    clean = training._clean_forward(fit, model.params, part, False)
    assert probs.data.tobytes() == clean.data.tobytes()


def _count_forwards(model) -> list:
    calls = []
    forward = model.forward

    def counted(*args, **kwargs):
        calls.append(kwargs.get("constant", False))
        return forward(*args, **kwargs)

    model.forward = counted
    return calls


@pytest.mark.parametrize("with_validation", [True, False])
def test_node_epoch_runs_one_step_and_one_scoring_forward(with_validation):
    model, task = _node_task()
    if not with_validation:
        split = Split(train=task.split.train, validation=(), test=task.split.test)
        task = NodeTask(task.graph, task.labels, split)
    calls = _count_forwards(model)
    result = train(model, task, TrainConfig(epochs=3, patience=3, feature_dropout=0.3))
    assert result.epochs_run == 3
    assert len(calls) == 2 * 3
    calls.clear()
    evaluate(model, task, "test", constant=True)
    assert calls == [True]


def test_graph_epoch_runs_its_minibatches_and_two_scoring_forwards():
    model, task = _graph_task()
    classes = task.labels.graph_classes.copy()
    classes[0] = -1  # train graph 0 is unlabelled: its batch of one is skipped
    labels = LabelSet(kind="graph", num_classes=2, num_tasks=1, graph_classes=classes)
    task = GraphTask(task.graphs, labels, task.split)
    calls = _count_forwards(model)
    train(model, task, TrainConfig(epochs=2, patience=2, batch_size=1))
    labelled_batches = len(task.split.train) - 1
    assert len(calls) == 2 * (labelled_batches + 2)


# Histories recorded with the two-loop trainer (separate node and graph
# loops, one evaluate call per scored split); the merged loop must
# reproduce them.
_GOLDEN_NODE = [
    (0.6669896688364607, 0.3333333333333333, 1.046050201683518, 0.0),
    (0.769971371659387, 0.6666666666666666, 0.8300567388344564, 0.3333333333333333),
    (0.40511269650427373, 0.8333333333333334, 0.6047705929744236, 0.6666666666666666),
    (0.22505634873829927, 0.8333333333333334, 0.3782974940903234, 1.0),
    (0.4088964838881475, 1.0, 0.22464044903116226, 1.0),
]
_GOLDEN_GRAPH = [
    (0.49372207498031373, 0.5, 0.5833333333333334, 0.7932113564274247, 0.25, 0.3333333333333333),
    (0.5566848976024523, 0.75, 0.5, 0.8858658847917809, 0.5, 0.3333333333333333),
    (0.4537236892968554, 0.75, 0.6666666666666666, 0.9188083687548203, 0.5, 0.6666666666666666),
]


def _assert_history(history, keys, golden):
    assert [rec["epoch"] for rec in history] == list(range(len(golden)))
    for rec, values in zip(history, golden):
        assert list(rec) == ["epoch", *keys]
        for key, value in zip(keys, values):
            assert rec[key] == pytest.approx(value, rel=0, abs=1e-12), key


@pytest.mark.parametrize("with_validation", [True, False])
def test_node_history_matches_golden_values(with_validation):
    model, task = _node_task()
    keys = ["train_loss", "train_accuracy", "val_loss", "val_accuracy"]
    if not with_validation:
        split = Split(train=task.split.train, validation=(), test=task.split.test)
        task = NodeTask(task.graph, task.labels, split)
        keys = keys[:2]
    cfg = TrainConfig(
        epochs=5, patience=5, seed=3, feature_dropout=0.3, edge_dropout=0.2, learning_rate=0.05
    )
    result = train(model, task, cfg)
    _assert_history(result.history, keys, [row[: len(keys)] for row in _GOLDEN_NODE])
    assert result.best_epoch == 3
    if not with_validation:
        # without a validation split the monitor is minus the train loss
        assert result.best_metric == -result.history[3]["train_loss"]


def test_graph_history_matches_golden_values():
    model, task = _graph_task()
    cfg = TrainConfig(
        epochs=3,
        patience=3,
        seed=1,
        batch_size=3,
        feature_dropout=0.2,
        edge_dropout=0.2,
        learning_rate=0.02,
    )
    result = train(model, task, cfg)
    keys = ["train_loss", "train_accuracy", "train_auc", "val_loss", "val_accuracy", "val_auc"]
    _assert_history(result.history, keys, _GOLDEN_GRAPH)
    assert result.best_epoch == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(feature_dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"l2": {"layer2_a": float("inf")}}, "layer2_a"),
        ({"l2": {"layer1_w": float("nan")}}, "layer1_w"),
    ],
    ids=["lr-nan", "lr-inf", "l2-inf", "l2-nan"],
)
def test_train_config_refuses_a_non_finite_rate_or_weight(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


def test_train_config_keeps_weights_at_or_below_zero():
    # a weight <= 0 is allowed and puts no penalty on its group
    model1, task = _node_task()
    plain = train(model1, task, TrainConfig(epochs=2, patience=2))
    model2, _ = _node_task()
    l2 = {"layer1_w": 0.0, "layer2_a": -1.0}
    zeroed = train(model2, task, TrainConfig(epochs=2, patience=2, l2=l2))
    assert json.dumps(zeroed.history) == json.dumps(plain.history)


def test_model_task_type_mismatch():
    node_model, node_task = _node_task()
    graph_model, graph_task = _graph_task()
    with pytest.raises(TypeError):
        train(node_model, graph_task, TrainConfig())
    with pytest.raises(TypeError):
        evaluate(graph_model, node_task)
