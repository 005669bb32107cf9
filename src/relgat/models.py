"""Task architectures built from relational attention layers.

Two models are provided. The node classifier stacks two attention layers
(concatenated heads with relu, then mean-aggregated heads with identity) and
reads class probabilities per node. The graph classifier stacks two
concatenating attention layers, pools each graph by mean and max, and maps
the pooled vector through two dense layers to per-task class probabilities.

Both expose parameters as an ordered name -> float64 array dict, which also
fixes the checkpoint layout. A model binds them to a tape with ``bind``:
each layer's per-slot kernels of one kind, and its per-head biases, as one
stacked leaf. ``bind_params`` binds one leaf per parameter instead; both
give the same forward, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .graph import GraphFormatError
from .layers import EdgePlan, RgatLayer, glorot
from .tensor import (
    Tape,
    Tensor,
    add,
    gather_rows,
    log,
    matmul,
    mul,
    relu,
    reshape,
    row_softmax,
    segment_mean_max,
    sum_all,
    tanh,
)

__all__ = [
    "GraphClassifier",
    "GraphClassifierConfig",
    "NodeClassifier",
    "NodeClassifierConfig",
    "bind_params",
    "config_hash",
    "graph_gather",
    "inverse_frequency_weights",
    "load_checkpoint",
    "masked_cross_entropy",
    "save_checkpoint",
    "weighted_cross_entropy",
]


def bind_params(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """One leaf per parameter, in declaration order."""
    return {name: tape.leaf(value) for name, value in params.items()}


def graph_gather(node_features: Tensor, graph_segment, graph_count: int) -> Tensor:
    """Pools node rows into per-graph rows: mean and max, concatenated."""
    return segment_mean_max(node_features, graph_segment, graph_count)


def masked_cross_entropy(probs: Tensor, node_ids, classes) -> Tensor:
    """Mean negative log-probability of the true class over supervised nodes.

    probs is (N, C) row-stochastic; node_ids picks the supervised rows and
    classes gives their labels. The true-class probability is gathered
    before the log so padding rows can never poison the loss.
    """
    ids = np.asarray(node_ids, dtype=np.int64)
    cls = np.asarray(classes, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("no supervised nodes")
    if ids.shape != cls.shape or ids.ndim != 1:
        raise ValueError("node ids and classes must be aligned flat arrays")
    n, c = probs.shape
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError("supervised node id out of range")
    if cls.min() < 0 or cls.max() >= c:
        raise ValueError("class label out of range")
    return _nll(probs, ids, cls, None)


def _nll(probs: Tensor, rows, classes: np.ndarray, factors) -> Tensor:
    """Mean of -factor * log(probs[row, class]) over the picked rows; the
    one loss body of both cross-entropies, checked by their callers."""
    n, c = classes.size, probs.shape[1]
    logs = log(gather_rows(reshape(probs, (probs.size, 1)), rows * c + classes))
    if factors is not None:
        logs = mul(logs, factors[:, None])
    return mul(sum_all(logs), -1.0 / n)


def inverse_frequency_weights(graph_labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-task class weights proportional to 1/count, mean 1 over the
    classes that actually occur; absent classes get weight 0."""
    labels = np.asarray(graph_labels, dtype=np.int64)
    if labels.ndim != 2:
        raise ValueError("graph labels must be (graphs, tasks)")
    t = labels.shape[1]
    weights = np.zeros((t, num_classes))
    for task in range(t):
        col = labels[:, task]
        col = col[col >= 0]
        counts = np.bincount(col, minlength=num_classes).astype(np.float64)
        present = counts > 0
        if not present.any():
            continue
        w = np.zeros(num_classes)
        w[present] = 1.0 / counts[present]
        w *= present.sum() / w.sum()
        weights[task] = w
    return weights


def weighted_cross_entropy(probs: Tensor, graph_labels, weights) -> Tensor:
    """Weighted mean negative log-probability over labelled (graph, task)
    pairs.

    probs is (graphs*tasks, C) row-stochastic with row g*T + t for graph g,
    task t; graph_labels is (graphs, tasks) with -1 marking a missing label;
    weights is (tasks, C).
    """
    labels = np.asarray(graph_labels, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if labels.ndim != 2:
        raise ValueError("graph labels must be (graphs, tasks)")
    g, t = labels.shape
    c = probs.shape[1]
    if probs.shape[0] != g * t:
        raise ValueError(f"expected {g * t} probability rows, got {probs.shape[0]}")
    if w.shape != (t, c):
        raise ValueError(f"weights must be {(t, c)}, got {w.shape}")
    gi, ti = np.nonzero(labels >= 0)
    if gi.size == 0:
        raise ValueError("no labelled graph/task pairs")
    cls = labels[gi, ti]
    if cls.max() >= c:
        raise ValueError("class label out of range")
    return _nll(probs, gi * t + ti, cls, w[ti, cls])


class _Config:
    """Dict round trip of the frozen config dataclasses."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**d)


def _masked(h: Tensor, dropout) -> Tensor:
    mask = None if dropout is None else dropout(h.shape)
    return h if mask is None else mul(h, mask)


# the L2 weight groups, in the order their penalties are added
L2_GROUPS = ("layer1_w", "layer1_a", "layer2_w", "layer2_a")


class _TwoLayerModel:
    """What both classifiers share: a concatenating relu attention layer,
    then a second layer with the head's aggregation and activation, run as
    mask -> layer1 -> mask -> layer2. Their W and A kernels form the four L2
    groups. A forward takes the edges or their EdgePlan.

    A forward's ``dropout``, when given, is called with the shape of each
    tensor the model masks, in forward order, and returns the mask to
    multiply by or None.
    """

    def _build_layers(self, rng, in_dim, units, out_units, head_agg, activation, **basis) -> None:
        """layer1 maps in_dim to units, layer2 units to out_units; both take
        the config's heads, relations and attention settings."""
        cfg = self.config
        shared = dict(
            heads=cfg.heads,
            num_relations=cfg.num_relations,
            logit_mode=cfg.logit_mode,
            norm_kind=cfg.norm_kind,
            attention_dim=cfg.attention_dim,
            use_bias=cfg.use_bias,
            **basis,
        )
        self.layer1 = RgatLayer(rng, "layer1", in_dim, units, head_agg="concat", activation="relu", **shared)
        self.layer2 = RgatLayer(
            rng, "layer2", units, out_units, head_agg=head_agg, activation=activation, **shared
        )
        self.params.update(self.layer1.params)
        self.params.update(self.layer2.params)
        self.stacks = {**self.layer1.stacks, **self.layer2.stacks}

    def bind(self, tape: Tape, params: dict[str, np.ndarray], *, constant: bool = False) -> dict[str, Tensor]:
        """The leaves of a forward: every group of self.stacks as one leaf,
        its parameters joined row-wise in the group's order, and every other
        parameter as its own leaf. A constant forward reads no A kernel, so
        none is bound."""
        bound = set()
        if constant:
            bound.update(self.layer1.a_parameter_names(), self.layer2.a_parameter_names())
        leaves = {}
        for key, names in self.stacks.items():
            if names[0] not in bound:
                leaves[key] = tape.leaf(np.concatenate([params[name] for name in names]))
            bound.update(names)
        leaves.update((name, tape.leaf(value)) for name, value in params.items() if name not in bound)
        return leaves

    def _encode(self, leaves, edges, num_nodes: int, h: Tensor, constant: bool, dropout) -> Tensor:
        # both layers and their backwards share one plan of the edges
        if not isinstance(edges, EdgePlan):
            edges = EdgePlan(edges, num_nodes, self.config.norm_kind)
        h = self.layer1.forward(leaves, edges, num_nodes, _masked(h, dropout), constant=constant)
        return self.layer2.forward(leaves, edges, num_nodes, _masked(h, dropout), constant=constant)

    def l2_groups(self) -> dict[str, list[str]]:
        kernels = (
            self.layer1.w_parameter_names(),
            self.layer1.a_parameter_names(),
            self.layer2.w_parameter_names(),
            self.layer2.a_parameter_names(),
        )
        return dict(zip(L2_GROUPS, kernels, strict=True))


# ---------------------------------------------------------------------------
# node classification


@dataclass(frozen=True)
class NodeClassifierConfig(_Config):
    in_dim: int
    num_relations: int
    num_classes: int
    hidden_units: int = 16
    heads: int = 1
    logit_mode: str = "additive"
    norm_kind: str = "wirgat"
    attention_dim: int | None = None
    basis_w: int | None = None
    basis_a: int | None = None
    use_bias: bool = True
    one_hot: bool = False
    embed_dim: int | None = None


class NodeClassifier(_TwoLayerModel):
    """Two attention layers ending in per-node class probabilities.

    Layer 1 concatenates heads and applies relu; layer 2 averages heads,
    stays linear, and its width is the class count. With one-hot inputs the
    identity features are folded into a learned embedding table, so the
    first projection never materializes an N x N input.
    """

    def __init__(self, rng: np.random.Generator, config: NodeClassifierConfig):
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        in_dim = config.in_dim
        if config.one_hot:
            if config.embed_dim is not None and config.embed_dim < 1:
                raise ValueError(f"embed_dim must be positive, got {config.embed_dim}")
            in_dim = config.embed_dim or config.hidden_units
            self.params["embed"] = glorot(rng, config.in_dim, in_dim)
        elif config.embed_dim is not None:
            raise ValueError("embed_dim only applies to one-hot inputs")
        self._build_layers(
            rng,
            in_dim,
            config.hidden_units,
            config.num_classes,
            "mean",
            "identity",
            basis_w=config.basis_w,
            basis_a=config.basis_a,
        )

    def forward(
        self,
        leaves: dict[str, Tensor],
        edges,
        num_nodes: int,
        features: Tensor | None,
        *,
        constant: bool = False,
        dropout=None,
    ) -> Tensor:
        """Returns (num_nodes, num_classes) probabilities; dropout masks the
        input features (or embedding table) and the hidden layer."""
        if self.config.one_hot:
            if num_nodes != self.config.in_dim:
                raise ValueError("one-hot model is bound to a fixed node count")
            h = leaves["embed"]
        else:
            if features is None:
                raise ValueError("feature matrix required")
            h = features
        return row_softmax(self._encode(leaves, edges, num_nodes, h, constant, dropout))


# ---------------------------------------------------------------------------
# graph classification


@dataclass(frozen=True)
class GraphClassifierConfig(_Config):
    feature_dim: int
    num_relations: int
    num_tasks: int
    num_classes: int
    graph_units: int = 32
    dense_units: int = 64
    heads: int = 1
    logit_mode: str = "additive"
    norm_kind: str = "wirgat"
    attention_dim: int | None = None
    use_bias: bool = True


class GraphClassifier(_TwoLayerModel):
    """Two concatenating attention layers, a mean/max pool squashed by tanh,
    then two dense layers producing one C-way distribution per task."""

    def __init__(self, rng: np.random.Generator, config: GraphClassifierConfig):
        if config.dense_units < 1:
            raise ValueError(f"dense_units must be positive, got {config.dense_units}")
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        units = config.graph_units
        self._build_layers(rng, config.feature_dim, units, units, "concat", "relu")
        out_width = config.num_tasks * config.num_classes
        self.params["dense1.w"] = glorot(rng, 2 * units, config.dense_units)
        self.params["dense1.b"] = np.zeros(config.dense_units)
        self.params["dense2.w"] = glorot(rng, config.dense_units, out_width)
        self.params["dense2.b"] = np.zeros(out_width)

    def forward(
        self,
        leaves: dict[str, Tensor],
        edges,
        num_nodes: int,
        features: Tensor,
        graph_segment,
        graph_count: int,
        *,
        constant: bool = False,
        dropout=None,
    ) -> Tensor:
        """Returns (graph_count * num_tasks, num_classes) probabilities with
        row g*T + t holding graph g's distribution for task t; dropout masks
        the input features, both layer outputs and the first dense layer."""
        h = self._encode(leaves, edges, num_nodes, features, constant, dropout)
        pooled = tanh(graph_gather(_masked(h, dropout), graph_segment, graph_count))
        d = relu(add(matmul(pooled, leaves["dense1.w"]), leaves["dense1.b"]))
        out = add(matmul(_masked(d, dropout), leaves["dense2.w"]), leaves["dense2.b"])
        cfg = self.config
        out = reshape(out, (graph_count * cfg.num_tasks, cfg.num_classes))
        return row_softmax(out)


# ---------------------------------------------------------------------------
# checkpoints


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON form of a config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(
    directory,
    params: dict[str, np.ndarray],
    config: dict,
    extra: dict | None = None,
) -> None:
    """Writes manifest.json plus params.bin (little-endian float64,
    declaration order); the manifest holds params.bin's sha256.

    Both are written under temporary names and then renamed into place,
    params.bin first. A crash part way leaves either the old pair or a new
    params.bin that the old manifest's digest refuses, never a pair that
    loads as a mix of two checkpoints."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for name, value in params.items():
        arr = np.ascontiguousarray(value, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        blobs.append(arr.tobytes())
    blob = b"".join(blobs)
    manifest = {
        "format": 1,
        "dtype": "<f8",
        "total_values": offset,
        "config": config,
        "config_hash": config_hash(config),
        "parameters": entries,
        "params_sha256": hashlib.sha256(blob).hexdigest(),
    }
    if extra:
        manifest.update(extra)
    files = {"params.bin": blob, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True).encode()}
    for name, data in files.items():
        (path / f".{name}.tmp").write_bytes(data)
    for name in files:
        os.replace(path / f".{name}.tmp", path / name)


def load_checkpoint(directory) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(directory)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("dtype") != "<f8":
        raise ValueError(f"unsupported checkpoint dtype {manifest.get('dtype')!r}")
    try:
        total, entries = manifest["total_values"], manifest["parameters"]
    except KeyError as exc:
        raise GraphFormatError(f"checkpoint manifest lacks {exc.args[0]!r}") from None
    blob = (path / "params.bin").read_bytes()
    raw = np.frombuffer(blob, dtype="<f8")
    if raw.size != total:
        raise ValueError(f"checkpoint holds {raw.size} values, manifest declares {total}")
    # a manifest written before digests were kept has none to check
    if "params_sha256" in manifest and hashlib.sha256(blob).hexdigest() != manifest["params_sha256"]:
        raise GraphFormatError("checkpoint params.bin does not match the sha256 in its manifest")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise GraphFormatError("checkpoint parameters must be a list of entries")
    params = {}
    # entries read params.bin in declaration order, no two the same values;
    # a gap is left to the caller, which names the parameter it lacks
    end = 0
    for entry in entries:
        try:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
        except KeyError as exc:
            raise GraphFormatError(f"checkpoint parameter entry lacks {exc.args[0]!r}") from None
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise GraphFormatError(f"checkpoint parameter {name!r} has shape {shape!r}, not a list of sizes")
        if not _is_count(start) or start < end:
            raise GraphFormatError(
                f"checkpoint parameter {name!r} has offset {start!r}; it must be a count"
                f" of at least {end}, where the entry before it ends"
            )
        end = start + math.prod(shape)
        if end > raw.size:
            raise GraphFormatError(f"checkpoint parameter {name!r} ends at {end}, past the {raw.size} values")
        params[name] = raw[start:end].reshape(shape).astype(np.float64)
    return params, manifest


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
