"""Optimization loop, dropout, evaluation metrics and split utilities.

Training is full-batch for node tasks and minibatched (shuffled every epoch)
for graph tasks. The optimizer is Adam with bias correction; runs are
bitwise deterministic for a fixed seed because every random draw comes from
one generator consumed in a fixed order and evaluation never touches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import BatchedGraph, GraphTask, NodeTask, batch_graphs
from .models import (
    GraphClassifier,
    NodeClassifier,
    bind_params,
    inverse_frequency_weights,
    masked_cross_entropy,
    weighted_cross_entropy,
)
from .stats import midranks
from .tensor import Tape, Tensor, add, mul, sum_squares

__all__ = [
    "AdamState",
    "DivergenceError",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "drop_edges",
    "evaluate",
    "feature_mask",
    "kfold_split",
    "roc_auc",
    "train",
]


class DivergenceError(RuntimeError):
    """Raised when a training run produces non-finite values."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 200
    patience: int = 30
    batch_size: int = 64
    feature_dropout: float = 0.0
    edge_dropout: float = 0.0
    l2: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.feature_dropout < 1.0 or not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("epochs, patience and batch size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[dict]
    best_epoch: int
    best_metric: float
    epochs_run: int
    stopped_early: bool


class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def feature_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray | None:
    """Inverted-dropout mask: kept entries are scaled by 1/(1-rate) so the
    expected activation is unchanged. rate 0 means no mask."""
    if rate == 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def drop_edges(rng: np.random.Generator, edges, rate: float, *, self_relation: bool):
    """Independently drops data edges; a trailing self relation is exempt."""
    if rate == 0.0:
        return edges
    out = []
    last = len(edges) - 1
    for r, (tgt, src) in enumerate(edges):
        if self_relation and r == last:
            out.append((tgt, src))
            continue
        keep = rng.random(len(tgt)) >= rate
        out.append((tgt[keep], src[keep]))
    return tuple(out)


def kfold_split(num_items: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold partition of range(num_items)."""
    if folds < 2 or folds > num_items:
        raise ValueError(f"need 2 <= folds <= {num_items}, got {folds}")
    perm = np.random.default_rng(seed).permutation(num_items)
    parts = np.array_split(perm, folds)
    out = []
    for i, test in enumerate(parts):
        train = np.concatenate([p for j, p in enumerate(parts) if j != i])
        out.append((np.sort(train), np.sort(test)))
    return out


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve from midranks; ties contribute half.

    Returns nan when either class is absent.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be aligned flat arrays")
    pos = y == 1
    neg = y == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return math.nan
    ranks = midranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# loss assembly


def _l2_penalty(loss: Tensor, leaves, groups: dict[str, list[str]], coefs: dict[str, float]) -> Tensor:
    for group, names in groups.items():
        c = coefs.get(group, 0.0)
        if c <= 0.0:
            continue
        for name in names:
            loss = add(loss, mul(sum_squares(leaves[name]), c))
    return loss


def _node_loss(
    model: NodeClassifier,
    task: NodeTask,
    params,
    node_ids,
    classes,
    *,
    l2: dict[str, float] | None = None,
    edges=None,
    input_mask=None,
    hidden_mask=None,
    constant: bool = False,
):
    graph = task.graph
    tape = Tape()
    leaves = bind_params(tape, params)
    features = None if graph.features is None else tape.leaf(graph.features)
    probs = model.forward(
        leaves,
        graph.edges if edges is None else edges,
        graph.num_nodes,
        features,
        constant=constant,
        input_mask=input_mask,
        hidden_mask=hidden_mask,
    )
    loss = masked_cross_entropy(probs, node_ids, classes)
    if l2:
        loss = _l2_penalty(loss, leaves, model.l2_groups(), l2)
    return tape, leaves, loss, probs


def _graph_loss(
    model: GraphClassifier,
    batch: BatchedGraph,
    labels: np.ndarray,
    weights: np.ndarray,
    params,
    *,
    l2: dict[str, float] | None = None,
    rng: np.random.Generator | None = None,
    feature_dropout: float = 0.0,
    edge_dropout: float = 0.0,
    constant: bool = False,
):
    g = batch.graph
    edges = g.edges
    input_mask = None
    hidden_masks = (None, None)
    dense_mask = None
    if rng is not None:
        edges = drop_edges(rng, edges, edge_dropout, self_relation=g.self_relation)
        cfg = model.config
        input_mask = feature_mask(rng, (g.num_nodes, g.feature_dim), feature_dropout)
        hidden_masks = (
            feature_mask(rng, (g.num_nodes, cfg.graph_units), feature_dropout),
            feature_mask(rng, (g.num_nodes, cfg.graph_units), feature_dropout),
        )
        dense_mask = feature_mask(rng, (batch.graph_count, cfg.dense_units), feature_dropout)
    tape = Tape()
    leaves = bind_params(tape, params)
    probs = model.forward(
        leaves,
        edges,
        g.num_nodes,
        tape.leaf(g.features),
        batch.graph_segment,
        batch.graph_count,
        constant=constant,
        input_mask=input_mask,
        hidden_masks=hidden_masks,
        dense_mask=dense_mask,
    )
    loss = weighted_cross_entropy(probs, labels, weights)
    if l2:
        loss = _l2_penalty(loss, leaves, model.l2_groups(), l2)
    return tape, leaves, loss, probs


def _resolve_weights(model: GraphClassifier, task: GraphTask) -> np.ndarray:
    if task.labels.class_weights is not None:
        return np.asarray(task.labels.class_weights, dtype=np.float64)
    train_labels = task.labels.graph_classes[np.asarray(task.split.train, dtype=np.int64)]
    return inverse_frequency_weights(train_labels, model.config.num_classes)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, task, split: str = "test", *, constant: bool = False, weights=None) -> dict:
    """Clean-forward metrics on one split. Never mutates model state or
    consumes random numbers."""
    params = model.params
    if isinstance(model, NodeClassifier):
        if not isinstance(task, NodeTask):
            raise TypeError("node model needs a node task")
        ids = np.asarray(task.split.part(split), dtype=np.int64)
        if ids.size == 0:
            raise ValueError(f"split {split!r} is empty")
        classes = np.array([task.labels.node_classes[int(i)] for i in ids], dtype=np.int64)
        _, _, loss, probs = _node_loss(model, task, params, ids, classes, constant=constant)
        pred = probs.data[ids].argmax(axis=1)
        return {
            "loss": float(loss.data),
            "accuracy": float(np.mean(pred == classes)),
        }

    if isinstance(model, GraphClassifier):
        if not isinstance(task, GraphTask):
            raise TypeError("graph model needs a graph task")
        batch, labels = _split_batch(task, split)
        w = _resolve_weights(model, task) if weights is None else np.asarray(weights)
        return _graph_metrics(model, params, batch, labels, w, constant=constant)

    raise TypeError(f"unknown model type {type(model).__name__}")


def _split_batch(task: GraphTask, split: str) -> tuple[BatchedGraph, np.ndarray]:
    """One batch of a split's graphs, plus their (graphs, tasks) labels."""
    ids = np.asarray(task.split.part(split), dtype=np.int64)
    if ids.size == 0:
        raise ValueError(f"split {split!r} is empty")
    return batch_graphs([task.graphs[int(i)] for i in ids]), task.labels.graph_classes[ids]


def _graph_metrics(
    model: GraphClassifier,
    params,
    batch: BatchedGraph,
    labels: np.ndarray,
    weights: np.ndarray,
    *,
    constant: bool = False,
) -> dict:
    _, _, loss, probs = _graph_loss(model, batch, labels, weights, params, constant=constant)
    t = model.config.num_tasks
    p = probs.data.reshape(batch.graph_count, t, model.config.num_classes)
    labelled = labels >= 0
    pred = p.argmax(axis=2)
    accuracy = float(np.mean(pred[labelled] == labels[labelled]))
    out = {"loss": float(loss.data), "accuracy": accuracy}
    if model.config.num_classes == 2:
        aucs = []
        for j in range(t):
            m = labelled[:, j]
            aucs.append(roc_auc(p[m, j, 1], labels[m, j]) if m.any() else math.nan)
        out["auc"] = aucs
        finite = [a for a in aucs if not math.isnan(a)]
        out["auc_mean"] = float(np.mean(finite)) if finite else math.nan
    return out


# ---------------------------------------------------------------------------
# training loops


def _monitor_value(metrics: dict) -> float:
    if "auc_mean" in metrics and not math.isnan(metrics["auc_mean"]):
        return metrics["auc_mean"]
    return metrics["accuracy"]


def train(model, task, config: TrainConfig) -> TrainResult:
    """Optimizes model.params on the task's train split with early stopping
    on the validation metric (accuracy for node tasks, mean AUC for graph
    tasks). The model is left holding the best parameters seen."""
    if isinstance(model, NodeClassifier):
        result = _train_node(model, task, config)
    elif isinstance(model, GraphClassifier):
        result = _train_graph(model, task, config)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    model.params = result.params
    return result


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _train_node(model: NodeClassifier, task: NodeTask, config: TrainConfig) -> TrainResult:
    if not isinstance(task, NodeTask):
        raise TypeError("node model needs a node task")
    graph = task.graph
    rng = np.random.default_rng(config.seed)
    params = _snapshot(model.params)
    state = AdamState(params)
    train_ids = np.asarray(task.split.train, dtype=np.int64)
    if train_ids.size == 0:
        raise ValueError("train split is empty")
    train_classes = np.array(
        [task.labels.node_classes[int(i)] for i in train_ids], dtype=np.int64
    )
    has_val = len(task.split.validation) > 0

    if model.config.one_hot:
        input_shape = (graph.num_nodes, model.embed_dim)
    else:
        input_shape = (graph.num_nodes, graph.feature_dim)
    hidden_shape = (graph.num_nodes, model.config.hidden_units)

    history: list[dict] = []
    best = -np.inf
    best_epoch = -1
    best_params = _snapshot(params)
    bad_epochs = 0
    stopped = False
    for epoch in range(config.epochs):
        edges = drop_edges(
            rng, graph.edges, config.edge_dropout, self_relation=graph.self_relation
        )
        input_mask = feature_mask(rng, input_shape, config.feature_dropout)
        hidden_mask = feature_mask(rng, hidden_shape, config.feature_dropout)
        try:
            tape, leaves, loss, _ = _node_loss(
                model,
                task,
                params,
                train_ids,
                train_classes,
                l2=config.l2,
                edges=edges,
                input_mask=input_mask,
                hidden_mask=hidden_mask,
            )
            grad_map = tape.backward(loss)
            grads = {k: grad_map[leaves[k]] for k in params}
            adam_step(params, grads, state, config.learning_rate)
        except OverflowError as exc:
            raise DivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc

        model_params, model.params = model.params, params
        try:
            train_metrics = evaluate(model, task, "train")
            val_metrics = evaluate(model, task, "validation") if has_val else None
        finally:
            model.params = model_params
        record = {
            "epoch": epoch,
            "train_loss": float(loss.data),
            "train_accuracy": train_metrics["accuracy"],
        }
        if val_metrics is not None:
            record["val_loss"] = val_metrics["loss"]
            record["val_accuracy"] = val_metrics["accuracy"]
            monitored = val_metrics["accuracy"]
        else:
            monitored = -float(loss.data)
        history.append(record)
        if monitored > best:
            best = monitored
            best_epoch = epoch
            best_params = _snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped = True
                break

    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_metric=float(best),
        epochs_run=len(history),
        stopped_early=stopped,
    )


def _train_graph(model: GraphClassifier, task: GraphTask, config: TrainConfig) -> TrainResult:
    if not isinstance(task, GraphTask):
        raise TypeError("graph model needs a graph task")
    rng = np.random.default_rng(config.seed)
    params = _snapshot(model.params)
    state = AdamState(params)
    train_ids = np.asarray(task.split.train, dtype=np.int64)
    if train_ids.size == 0:
        raise ValueError("train split is empty")
    weights = _resolve_weights(model, task)
    # evaluation batches are built once; the parameters change, the graphs do not
    train_eval = _split_batch(task, "train")
    val_eval = _split_batch(task, "validation") if task.split.validation else None

    history: list[dict] = []
    best = -np.inf
    best_epoch = -1
    best_params = _snapshot(params)
    bad_epochs = 0
    stopped = False
    for epoch in range(config.epochs):
        order = rng.permutation(train_ids.size)
        shuffled = train_ids[order]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, shuffled.size, config.batch_size):
            batch_ids = shuffled[start : start + config.batch_size]
            labels = task.labels.graph_classes[batch_ids]
            if not (labels >= 0).any():
                continue
            try:
                tape, leaves, loss, _ = _graph_loss(
                    model,
                    batch_graphs([task.graphs[int(i)] for i in batch_ids]),
                    labels,
                    weights,
                    params,
                    l2=config.l2,
                    rng=rng,
                    feature_dropout=config.feature_dropout,
                    edge_dropout=config.edge_dropout,
                )
                grad_map = tape.backward(loss)
                grads = {k: grad_map[leaves[k]] for k in params}
                adam_step(params, grads, state, config.learning_rate)
            except OverflowError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: {exc}"
                ) from exc
            epoch_loss += float(loss.data)
            n_batches += 1

        train_metrics = _graph_metrics(model, params, *train_eval, weights)
        val_metrics = (
            _graph_metrics(model, params, *val_eval, weights) if val_eval is not None else None
        )
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "train_accuracy": train_metrics["accuracy"],
        }
        if "auc_mean" in train_metrics:
            record["train_auc"] = train_metrics["auc_mean"]
        if val_metrics is not None:
            record["val_loss"] = val_metrics["loss"]
            record["val_accuracy"] = val_metrics["accuracy"]
            if "auc_mean" in val_metrics:
                record["val_auc"] = val_metrics["auc_mean"]
            monitored = _monitor_value(val_metrics)
        else:
            monitored = -record["train_loss"]
        history.append(record)
        if monitored > best:
            best = monitored
            best_epoch = epoch
            best_params = _snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped = True
                break

    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_metric=float(best),
        epochs_run=len(history),
        stopped_early=stopped,
    )
