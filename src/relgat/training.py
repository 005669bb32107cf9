"""Optimization loop, dropout, evaluation metrics and split utilities.

One epoch loop serves both task kinds: training is full-batch for node tasks
and minibatched (shuffled every epoch) for graph tasks. The optimizer is Adam with bias correction; runs are
bitwise deterministic for a fixed seed because every random draw comes from
one generator consumed in a fixed order and evaluation never touches it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphTask, NodeTask, batch_graphs
from .models import (
    GraphClassifier,
    NodeClassifier,
    masked_cross_entropy,
    weighted_cross_entropy,
)
from .stats import midranks
from .tensor import Tape, Tensor

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


# glibc's mallopt, or None where the C library has none
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (OSError, AttributeError, TypeError):
    _mallopt = None


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for group, c in self.l2.items():
            if not math.isfinite(c):
                raise ValueError(f"l2 weight {group} must be finite, got {c}")


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
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
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


def _dropout(rng, config: TrainConfig, graph, norm_kind: str):
    """The run's dropout for one forward: the graph's edges after edge
    dropout, as the graph's kept plan when none is dropped, and the mask
    maker the model calls with the shape of each tensor it masks. Without a
    generator the forward is clean."""
    if rng is None:
        return graph.edge_plan(norm_kind), None
    edges = drop_edges(rng, graph.edges, config.edge_dropout, self_relation=graph.self_relation)
    if edges is graph.edges:
        edges = graph.edge_plan(norm_kind)
    rate = config.feature_dropout
    return edges, lambda shape: feature_mask(rng, shape, rate)


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
# the two task kinds
#
# A "part" is a set of scored items with their labels: (node ids, classes) for
# node tasks, (graph ids, their batch, their labels) for graph tasks. Each task
# kind supplies a forward over a part (drawing dropout when given the run's
# generator), its criterion, its metrics, a scorer and an epoch's steps.


def _split_ids(task, split: str) -> np.ndarray:
    ids = np.asarray(task.split.part(split), dtype=np.int64)
    if ids.size == 0:
        raise ValueError(f"split {split!r} is empty")
    return ids


class _NodeFit:
    """Full-batch node classification: one step per epoch, and one clean
    forward whose probabilities score every requested part."""

    def __init__(self, model: NodeClassifier, task):
        if not isinstance(task, NodeTask):
            raise TypeError("node model needs a node task")
        self.model = model
        self.task = task

    def part(self, split: str):
        ids = _split_ids(self.task, split)
        classes = self.task.labels.node_classes
        return ids, np.fromiter(map(classes.__getitem__, ids.tolist()), np.int64, ids.size)

    def forward(self, tape, leaves, part, *, rng=None, config=None, constant=False):
        g = self.task.graph
        edges, dropout = _dropout(rng, config, g, self.model.config.norm_kind)
        features = None if g.features is None else tape.leaf(g.features)
        return self.model.forward(
            leaves, edges, g.num_nodes, features, constant=constant, dropout=dropout
        )

    def criterion(self, probs: Tensor, part) -> Tensor:
        return masked_cross_entropy(probs, *part)

    def metrics(self, probs: Tensor, part) -> dict:
        ids, classes = part
        return {
            "loss": float(self.criterion(probs, part).data),
            "accuracy": float(np.mean(probs.data[ids].argmax(axis=1) == classes)),
        }

    def score(self, params, parts, constant: bool = False) -> list[dict]:
        probs = _clean_forward(self, params, None, constant)
        return [self.metrics(probs, part) for part in parts]

    def step(self, params, state: AdamState, rng, config: TrainConfig, train_part) -> float:
        return _step(self, params, state, train_part, rng, config)


class _GraphFit:
    """Minibatched graph classification: shuffled batches each epoch, batches
    without a label skipped, and one clean forward per scored part."""

    def __init__(self, model: GraphClassifier, task):
        if not isinstance(task, GraphTask):
            raise TypeError("graph model needs a graph task")
        self.model = model
        self.task = task
        self.weights = task.class_weights(model.config.num_classes)

    def part(self, split: str):
        # the batch is kept with the task; labels are gathered afresh, since
        # a label set built in code may hold writable arrays
        ids = _split_ids(self.task, split)
        return ids, self.task.batch(split), self.task.labels.graph_classes[ids]

    def _part(self, ids: np.ndarray):
        graphs = [self.task.graphs[int(i)] for i in ids]
        return ids, batch_graphs(graphs), self.task.labels.graph_classes[ids]

    def forward(self, tape, leaves, part, *, rng=None, config=None, constant=False):
        _, batch, _ = part
        g = batch.graph
        edges, dropout = _dropout(rng, config, g, self.model.config.norm_kind)
        return self.model.forward(
            leaves,
            edges,
            g.num_nodes,
            tape.leaf(g.features),
            batch.graph_segment,
            batch.graph_count,
            constant=constant,
            dropout=dropout,
        )

    def criterion(self, probs: Tensor, part) -> Tensor:
        return weighted_cross_entropy(probs, part[2], self.weights)

    def metrics(self, probs: Tensor, part) -> dict:
        _, batch, labels = part
        cfg = self.model.config
        p = probs.data.reshape(batch.graph_count, cfg.num_tasks, cfg.num_classes)
        labelled = labels >= 0
        pred = p.argmax(axis=2)
        accuracy = float(np.mean(pred[labelled] == labels[labelled]))
        out = {"loss": float(self.criterion(probs, part).data), "accuracy": accuracy}
        if cfg.num_classes == 2:
            aucs = []
            for j in range(cfg.num_tasks):
                m = labelled[:, j]
                aucs.append(roc_auc(p[m, j, 1], labels[m, j]) if m.any() else math.nan)
            out["auc"] = aucs
            finite = [a for a in aucs if not math.isnan(a)]
            out["auc_mean"] = float(np.mean(finite)) if finite else math.nan
        return out

    def score(self, params, parts, constant: bool = False) -> list[dict]:
        return [self.metrics(_clean_forward(self, params, part, constant), part) for part in parts]

    def step(self, params, state: AdamState, rng, config: TrainConfig, train_part) -> float:
        ids = train_part[0]
        shuffled = ids[rng.permutation(ids.size)]
        total = 0.0
        steps = 0
        for start in range(0, shuffled.size, config.batch_size):
            batch_ids = shuffled[start : start + config.batch_size]
            if not (self.task.labels.graph_classes[batch_ids] >= 0).any():
                continue
            total += _step(self, params, state, self._part(batch_ids), rng, config)
            steps += 1
        return total / max(steps, 1)


def _fit(model, task):
    if isinstance(model, NodeClassifier):
        return _NodeFit(model, task)
    if isinstance(model, GraphClassifier):
        return _GraphFit(model, task)
    raise TypeError(f"unknown model type {type(model).__name__}")


def _step(fit, params, state: AdamState, part, rng, config: TrainConfig) -> float:
    """One Adam step on a dropout forward's criterion plus the L2 penalty
    c*||p||^2, whose gradient 2c*p is added off the tape. Returns the loss."""
    tape = Tape()
    stacks = fit.model.stacks
    leaves = fit.model.bind(tape, params)
    criterion = fit.criterion(fit.forward(tape, leaves, part, rng=rng, config=config), part)
    grad_map = tape.backward(criterion)
    grads = {}
    for key, leaf in leaves.items():
        # a stacked gradient splits into the row blocks of its parameters,
        # the views concat_rows's backward hands leaves bound per slot
        g, start = grad_map[leaf], 0
        for name in stacks.get(key, (key,)):
            stop = start + len(params[name])
            grads[name], start = g[start:stop], stop
    loss = criterion.data
    for group, names in fit.model.l2_groups().items():
        c = config.l2.get(group, 0.0)
        for name in names if c > 0.0 else ():  # a weight <= 0 adds nothing
            p = params[name]
            loss = loss + (p * p).sum() * c
            grads[name] = 2.0 * c * p + grads[name]
    if not np.isfinite(loss):
        raise OverflowError("non-finite loss after the L2 penalty")
    adam_step(params, grads, state, config.learning_rate)
    return float(loss)


def _clean_forward(fit, params, part, constant: bool) -> Tensor:
    """A forward without dropout that is only scored, never differentiated."""
    tape = Tape(differentiable=False)
    return fit.forward(tape, fit.model.bind(tape, params, constant=constant), part, constant=constant)


# ---------------------------------------------------------------------------
# evaluation and the training loop


def evaluate(model, task, split: str = "test", *, constant: bool = False) -> dict:
    """Clean-forward metrics on one split. Never mutates model state or
    consumes random numbers."""
    fit = _fit(model, task)
    with np.errstate(over="ignore", invalid="ignore"):  # as in train()
        return fit.score(model.params, [fit.part(split)], constant)[0]


def _monitor_value(metrics: dict) -> float:
    if "auc_mean" in metrics and not math.isnan(metrics["auc_mean"]):
        return metrics["auc_mean"]
    return metrics["accuracy"]


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def train(model, task, config: TrainConfig) -> TrainResult:
    """Optimizes model.params on the task's train split with early stopping
    on the validation metric (accuracy for node tasks, mean AUC for graph
    tasks; minus the train loss without a validation split). The model is
    left holding the best parameters seen."""
    if _mallopt is not None:
        # a step frees its tape's intermediates at once; keep up to 64 MiB of
        # them at the heap's top (M_TOP_PAD = -2) rather than trimming them
        # back to the OS, where the next step would page-fault them in again
        _mallopt(-2, 64 << 20)
    fit = _fit(model, task)
    # scored parts are built once; the parameters change, the graphs do not
    parts = [fit.part("train")]
    if task.split.validation:
        parts.append(fit.part("validation"))
    rng = np.random.default_rng(config.seed)
    params = _snapshot(model.params)
    state = AdamState(params)

    history: list[dict] = []
    best = -np.inf
    best_epoch = -1
    best_params = _snapshot(params)
    bad_epochs = 0
    stopped = False
    for epoch in range(config.epochs):
        try:
            # the tape's finite checks raise OverflowError at the op that
            # overflowed; numpy's warnings would only repeat it on stderr
            with np.errstate(over="ignore", invalid="ignore"):
                train_loss = fit.step(params, state, rng, config, parts[0])
                train_metrics, *val = fit.score(params, parts)
        except OverflowError as exc:
            raise DivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc
        record = {
            "epoch": epoch,
            "train_loss": train_loss,
            "train_accuracy": train_metrics["accuracy"],
        }
        if "auc_mean" in train_metrics:
            record["train_auc"] = train_metrics["auc_mean"]
        if val:
            record["val_loss"] = val[0]["loss"]
            record["val_accuracy"] = val[0]["accuracy"]
            if "auc_mean" in val[0]:
                record["val_auc"] = val[0]["auc_mean"]
            monitored = _monitor_value(val[0])
        else:
            monitored = -train_loss
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

    model.params = best_params
    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_metric=float(best),
        epochs_run=len(history),
        stopped_early=stopped,
    )
