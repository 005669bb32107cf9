"""Multi-relational graph data model, JSON documents, batching, synthesis.

A graph holds N nodes, R relation types and per-relation directed edges. An
edge is stored as a (target, source) pair: the source node sends its message
to the target node, i.e. source belongs to the target's neighborhood under
that relation. Documents store [relation, target, source] triples in the
same orientation.

Canonical form sorts edges by (relation, target, source); duplicates are
rejected. ``serialize_graph`` always emits canonical form, and parsing a
canonical document then serializing it reproduces the input byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .layers import EdgePlan

__all__ = [
    "BatchedGraph",
    "GraphFormatError",
    "GraphTask",
    "LabelSet",
    "NodeTask",
    "ONE_HOT",
    "RelGraph",
    "Split",
    "batch_graphs",
    "build_graph",
    "generate_planted",
    "parse_dataset",
    "parse_graph",
    "serialize_dataset",
    "serialize_graph",
    "with_self_relation",
]

ONE_HOT = "one_hot_index"

# generate_planted wiring: node 0 collects the signal, node 1 carries it
READOUT_NODE = 0
MARKER_NODE = 1


class GraphFormatError(ValueError):
    """A graph document or construction argument violates the data contract."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _same(a, b) -> bool:
    # value equality through tuples, each numpy array compared whole
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _fields_equal(self, other):
    # the == of a dataclass whose fields hold numpy arrays; its class passes
    # eq=False, so the dataclass adds no field hash and the class stays
    # unhashable, as its arrays are
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class RelGraph:
    """Immutable multi-relational graph.

    edges holds one (targets, sources) pair of int64 arrays per relation, in
    canonical (target, source) order. features is an N x F float64 matrix,
    or None when the document requested learned one-hot embeddings.
    """

    num_nodes: int
    num_relations: int
    edges: tuple[tuple[np.ndarray, np.ndarray], ...]
    features: np.ndarray | None
    feature_dim: int
    one_hot_features: bool = False
    self_relation: bool = False

    __eq__ = _fields_equal

    def __post_init__(self):
        if self.num_nodes < 0 or self.num_relations < 1:
            raise GraphFormatError("graph needs num_nodes >= 0 and num_relations >= 1")
        if self.feature_dim < 1:
            raise GraphFormatError("feature_dim must be at least 1")
        if len(self.edges) != self.num_relations:
            raise GraphFormatError("edge lists must cover every relation")

    @property
    def num_edges(self) -> int:
        return sum(len(t) for t, _ in self.edges)

    def edge_plan(self, norm_kind: str) -> EdgePlan:
        """The layers' plan of these edges for one normalization kind, built
        on first use and kept with the graph: the edges are read-only, so it
        never goes stale, and a later forward builds its runs (a forward used
        once builds none). The memo is no field, so ==, repr, replace and
        serialization ignore it, and pickles and copies leave it out."""
        plans = self.__dict__.setdefault("_plans", {})
        plan = plans.get(norm_kind)
        if plan is None:
            plan = plans[norm_kind] = EdgePlan(self.edges, self.num_nodes, norm_kind)
        else:
            plan.targets.runs()
            plan.supports.runs()
        return plan

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_plans"}

    def edge_triples(self) -> list[list[int]]:
        """The edges as [relation, target, source] lists, in canonical order."""
        rel = np.repeat(np.arange(self.num_relations), [len(t) for t, _ in self.edges])
        return np.column_stack([rel, *map(np.concatenate, zip(*self.edges))]).tolist()


def _canonical_edges(
    num_relations: int, rel: np.ndarray, tgt: np.ndarray, src: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only per-relation (targets, sources) int64 arrays of the in-range
    edges (rel[i], tgt[i], src[i]) in (relation, target, source) order; only
    input out of that order is sorted, and a repeated edge raises."""
    dr, dt, ds = (ids[1:] - ids[:-1] for ids in (rel, tgt, src))
    if not ((dr > 0) | (dr == 0) & ((dt > 0) | (dt == 0) & (ds > 0))).all():
        order = np.lexsort((src, tgt, rel))
        rel, tgt, src = rel[order], tgt[order], src[order]
        same = (rel[1:] == rel[:-1]) & (tgt[1:] == tgt[:-1]) & (src[1:] == src[:-1])
        if same.any():
            i = same.argmax()
            raise GraphFormatError(f"duplicate edge ({rel[i]}, {tgt[i]}, {src[i]})")
    bounds = np.searchsorted(rel, np.arange(num_relations + 1)).tolist()
    return tuple((_frozen(tgt[a:b]), _frozen(src[a:b])) for a, b in zip(bounds, bounds[1:]))


def build_graph(
    num_nodes: int,
    num_relations: int,
    triples: Iterable[Sequence[int]],
    features: np.ndarray | None = None,
    *,
    one_hot: bool = False,
    feature_dim: int | None = None,
    self_relation: bool = False,
) -> RelGraph:
    try:
        arr = np.array(list(triples), dtype=np.int64)
        if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 3):
            raise ValueError(f"got shape {arr.shape}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(
            f"edges must be [relation, target, source] integer triples: {exc}"
        ) from None
    arr = arr.reshape(-1, 3)
    bad = ((arr < 0) | (arr >= (num_relations, num_nodes, num_nodes))).any(axis=1)
    if bad.any():
        raise GraphFormatError(f"edge {tuple(arr[bad.argmax()].tolist())} out of range")
    # one array per column, so the graph's edges keep no relation column alive
    rel, tgt, src = (np.ascontiguousarray(col) for col in arr.T)
    edges = _canonical_edges(num_relations, rel, tgt, src)
    if self_relation and edges:
        ids = np.arange(num_nodes)
        if not all(np.array_equal(half, ids) for half in edges[-1]):
            raise GraphFormatError("the self relation must hold one (i, i) edge per node")
    if one_hot:
        if features is not None:
            raise GraphFormatError("one-hot graphs carry no explicit feature matrix")
        fdim = feature_dim if feature_dim is not None else max(num_nodes, 1)
        return RelGraph(num_nodes, num_relations, edges, None, fdim, True, self_relation)
    if features is None:
        raise GraphFormatError("features are required unless one_hot is set")
    feat = _checked_features(features, num_nodes, feature_dim)
    return RelGraph(
        num_nodes, num_relations, edges, _frozen(feat.copy()), feat.shape[1], False, self_relation
    )


def _checked_features(features, num_nodes: int, feature_dim: int | None) -> np.ndarray:
    feat = np.asarray(features, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[0] != num_nodes:
        raise GraphFormatError(
            f"dimension mismatch: features {feat.shape} for {num_nodes} nodes"
        )
    if feature_dim is not None and feature_dim != feat.shape[1]:
        raise GraphFormatError(
            f"dimension mismatch: feature_dim {feature_dim} vs matrix width {feat.shape[1]}"
        )
    if not np.all(np.isfinite(feat)):
        raise GraphFormatError("features must be finite")
    return feat


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Supervision attached to a graph document.

    kind "node": node_classes maps node id to a class in [0, num_classes).
    kind "graph": graph_classes is a (graphs, tasks) int matrix with -1
    marking entries without a label; class_weights is an optional
    (tasks, classes) non-negative matrix.
    """

    kind: str
    num_classes: int
    node_classes: Mapping[int, int] | None = None
    num_tasks: int = 1
    graph_classes: np.ndarray | None = None
    class_weights: np.ndarray | None = None

    __eq__ = _fields_equal

    def __post_init__(self):
        if self.kind not in ("node", "graph"):
            raise GraphFormatError(f"unknown label kind {self.kind!r}")
        if self.num_classes < 1:
            raise GraphFormatError("num_classes must be at least 1")
        if self.kind == "node":
            if self.node_classes is None:
                raise GraphFormatError("node labels need node_classes")
            for node, cls in self.node_classes.items():
                if not 0 <= cls < self.num_classes:
                    raise GraphFormatError(f"class out of range for node {node}: {cls}")
        else:
            if self.graph_classes is None:
                raise GraphFormatError("graph labels need graph_classes")
            gc = self.graph_classes
            if gc.ndim != 2 or gc.shape[1] != self.num_tasks:
                raise GraphFormatError("graph_classes must be (graphs, tasks)")
            if gc.size and (gc.min() < -1 or gc.max() >= self.num_classes):
                raise GraphFormatError("graph class out of range")
            if self.class_weights is not None:
                w = self.class_weights
                if w.shape != (self.num_tasks, self.num_classes):
                    raise GraphFormatError("class_weights must be (tasks, classes)")
                if not np.all((w >= 0) & np.isfinite(w)):
                    raise GraphFormatError("class_weights must be finite and non-negative")

    def labelled_nodes(self) -> list[int]:
        return sorted(self.node_classes) if self.node_classes is not None else []

    def labelled_graphs(self) -> list[int]:
        if self.graph_classes is None:
            return []
        return [int(i) for i in np.flatnonzero((self.graph_classes >= 0).any(axis=1))]


@dataclass(frozen=True)
class Split:
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        parts = [set(self.train), set(self.validation), set(self.test)]
        for name, part in zip(("train", "validation", "test"), parts):
            ids = getattr(self, name)
            if len(ids) != len(part):
                repeated = next(i for i, n in Counter(ids).items() if n > 1)
                raise GraphFormatError(f"split {name!r} lists id {repeated} more than once")
        total = sum(len(p) for p in parts)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise GraphFormatError("split parts must be disjoint")

    def part(self, name: str) -> tuple[int, ...]:
        if name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split part {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class NodeTask:
    """Transductive bundle: one graph, node labels, node-index split."""

    graph: RelGraph
    labels: LabelSet
    split: Split


@dataclass(frozen=True)
class GraphTask:
    """Inductive bundle: many graphs, per-graph task labels, graph-index split."""

    graphs: tuple[RelGraph, ...]
    labels: LabelSet
    split: Split

    def batch(self, split: str) -> BatchedGraph:
        """The split's graphs merged by batch_graphs, built on first use and
        kept with the task, as a graph keeps its edge plan: graphs and split
        are immutable, so it never goes stale, and its merged graph keeps its
        own plan. The memo is no field, so ==, repr and replace ignore it,
        and pickles and copies leave it out."""
        batches = self.__dict__.setdefault("_batches", {})
        batch = batches.get(split)
        if batch is None:
            batch = batches[split] = batch_graphs([self.graphs[i] for i in self.split.part(split)])
        return batch

    def class_weights(self, num_classes: int) -> np.ndarray:
        """The labels' class weights, or else the train split's inverse class
        frequencies for num_classes classes, read-only and kept with the task
        as its batches are; a task without a labelled train graph has none
        to invert and weighs every class 1, so that its loss elsewhere stays
        the plain mean -log p."""
        if self.labels.class_weights is not None:
            return np.asarray(self.labels.class_weights, dtype=np.float64)
        kept = self.__dict__.setdefault("_weights", {})
        weights = kept.get(num_classes)
        if weights is None:
            from .models import inverse_frequency_weights  # models imports this module

            train_labels = self.labels.graph_classes[np.asarray(self.split.train, dtype=np.int64)]
            weights = inverse_frequency_weights(train_labels, num_classes)
            weights[~(train_labels >= 0).any(axis=0)] = 1.0
            kept[num_classes] = weights = _frozen(weights)
        return weights

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_batches", "_weights")}


@dataclass(frozen=True, eq=False)
class BatchedGraph:
    """Several graphs merged block-diagonally into one.

    graph_segment[i] gives the index of the member graph that node i of the
    merged graph belongs to; segments are contiguous and no edge crosses a
    segment boundary.
    """

    graph: RelGraph
    graph_segment: np.ndarray
    graph_count: int

    __eq__ = _fields_equal


# ---------------------------------------------------------------------------
# document parsing and serialization


def _integer(value, field: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise GraphFormatError(f"{field} must be an integer, got {value!r}") from None


def _reals(value, field: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise GraphFormatError(f"{field} must be an array of numbers") from None


def _parse_labels(obj, num_nodes: int, num_graphs: int) -> LabelSet | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GraphFormatError("malformed labels block")
    kind = obj["kind"]
    if kind not in ("node", "graph"):
        raise GraphFormatError(f"unknown label kind {kind!r}")
    required = ("num_classes",) if kind == "node" else ("num_classes", "num_tasks", "graph_classes")
    for key in required:
        if key not in obj:
            raise GraphFormatError(f"{kind} labels block lacks {key!r}")
    if kind == "node":
        classes = obj.get("node_classes")
        if not isinstance(classes, dict):
            raise GraphFormatError("malformed node labels")
        mapping = {}
        for key, value in classes.items():
            node = _integer(key, "a node_classes key")
            if not 0 <= node < num_nodes:
                raise GraphFormatError(f"labelled node index out of range: {node}")
            mapping[node] = _integer(value, f"node_classes[{key!r}]")
        return LabelSet("node", _integer(obj["num_classes"], "num_classes"), node_classes=mapping)
    try:
        gc = np.asarray(obj["graph_classes"], dtype=np.int64)
    except (TypeError, ValueError):
        raise GraphFormatError("graph_classes must be an integer matrix") from None
    if gc.ndim != 2 or gc.shape[0] != num_graphs:
        raise GraphFormatError("graph_classes must carry one row per graph")
    weights = obj.get("class_weights")
    w = None if weights is None else _reals(weights, "class_weights")
    return LabelSet(
        "graph",
        _integer(obj["num_classes"], "num_classes"),
        num_tasks=_integer(obj["num_tasks"], "num_tasks"),
        graph_classes=_frozen(gc),
        class_weights=None if w is None else _frozen(w),
    )


def _parse_split(obj, labels: LabelSet | None) -> Split | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise GraphFormatError("malformed splits block")
    parts = []
    for name in ("train", "validation", "test"):
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise GraphFormatError(f"split {name!r} must be a list of ids")
        parts.append(tuple(_integer(v, f"an id of split {name!r}") for v in raw))
    split = Split(*parts)
    if labels is not None:
        labelled = set(
            labels.labelled_nodes() if labels.kind == "node" else labels.labelled_graphs()
        )
        used = set(split.train) | set(split.validation) | set(split.test)
        if not used <= labelled:
            raise GraphFormatError("split indices must refer to labelled items")
    return split


def _graph_body(doc: dict) -> RelGraph:
    try:
        num_nodes = int(doc["num_nodes"])
        num_relations = int(doc["num_relations"])
        edges = doc["edges"]
        features = doc["features"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"malformed document: {exc}") from None
    if not isinstance(edges, list):
        raise GraphFormatError(
            f"edges must be [relation, target, source] integer triples in a list, got {edges!r}"
        )
    self_relation = doc.get("self_relation", False)
    if not isinstance(self_relation, bool):
        raise GraphFormatError("self_relation must be true or false")
    one_hot = features == ONE_HOT
    declared = doc.get("feature_dim")
    return build_graph(
        num_nodes,
        num_relations,
        edges,
        None if one_hot else _reals(features, "features"),
        one_hot=one_hot,
        feature_dim=None if declared is None else _integer(declared, "feature_dim"),
        self_relation=self_relation,
    )


def _document(document) -> dict:
    """The JSON object of a document given as str, bytes or parsed dict."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed document: {exc}") from None
    if not isinstance(document, dict):
        raise GraphFormatError("malformed document: expected an object")
    return document


def parse_graph(document) -> tuple[RelGraph, LabelSet | None, Split | None]:
    """Reads a single-graph JSON document (str, bytes or parsed dict)."""
    doc = _document(document)
    graph = _graph_body(doc)
    labels = _parse_labels(doc.get("labels"), graph.num_nodes, 1)
    split = _parse_split(doc.get("splits"), labels)
    return graph, labels, split


def _labels_payload(labels: LabelSet | None):
    if labels is None:
        return None
    if labels.kind == "node":
        return {
            "kind": "node",
            "num_classes": labels.num_classes,
            "node_classes": {str(k): int(v) for k, v in sorted(labels.node_classes.items())},
        }
    payload = {
        "kind": "graph",
        "num_classes": labels.num_classes,
        "num_tasks": labels.num_tasks,
        "graph_classes": labels.graph_classes.tolist(),
    }
    if labels.class_weights is not None:
        payload["class_weights"] = labels.class_weights.tolist()
    return payload


def _split_payload(split: Split | None):
    if split is None:
        return None
    return {
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }


def _graph_payload(graph: RelGraph) -> dict:
    payload = {
        "num_nodes": graph.num_nodes,
        "num_relations": graph.num_relations,
        "feature_dim": graph.feature_dim,
        "features": ONE_HOT if graph.one_hot_features else graph.features.tolist(),
        "edges": graph.edge_triples(),
    }
    if graph.self_relation:
        payload["self_relation"] = True
    return payload


def serialize_graph(
    graph: RelGraph, labels: LabelSet | None = None, split: Split | None = None
) -> str:
    """Canonical single-graph document; inverse of parse_graph on canonical input."""
    doc = _graph_payload(graph)
    if labels is not None:
        doc["labels"] = _labels_payload(labels)
    if split is not None:
        doc["splits"] = _split_payload(split)
    return json.dumps(doc, separators=(",", ":"))


def parse_dataset(document) -> NodeTask | GraphTask:
    """Reads either a single-graph document or a {"graphs": [...]} collection."""
    doc = _document(document)
    if "graphs" in doc:
        if not isinstance(doc["graphs"], list):
            raise GraphFormatError('"graphs" must be a list of graph documents')
        graphs = tuple(_graph_body(g) for g in doc["graphs"])
        labels = _parse_labels(doc.get("labels"), 0, len(graphs))
        if labels is None or labels.kind != "graph":
            raise GraphFormatError("graph collections need graph labels")
        split = _parse_split(doc.get("splits"), labels)
        if split is None:
            raise GraphFormatError("graph collections need splits")
        return GraphTask(graphs, labels, split)
    graph, labels, split = parse_graph(doc)
    if labels is None or split is None:
        raise GraphFormatError("a task document needs labels and splits")
    if labels.kind == "node":
        return NodeTask(graph, labels, split)
    return GraphTask((graph,), labels, split)


def _collection_payload(task: GraphTask) -> dict:
    """A graph task's {"graphs": [...]} document, as serialize_dataset encodes it."""
    return {
        "graphs": [_graph_payload(g) for g in task.graphs],
        "labels": _labels_payload(task.labels),
        "splits": _split_payload(task.split),
    }


def serialize_dataset(task: NodeTask | GraphTask) -> str:
    if isinstance(task, NodeTask):
        return serialize_graph(task.graph, task.labels, task.split)
    return json.dumps(_collection_payload(task), separators=(",", ":"))


# ---------------------------------------------------------------------------
# structural transforms


def with_self_relation(graph: RelGraph) -> RelGraph:
    """Appends relation R holding one (i, i) edge per node."""
    if graph.self_relation:
        raise GraphFormatError("self relation already present")
    ids = np.arange(graph.num_nodes, dtype=np.int64)
    edges = graph.edges + ((_frozen(ids.copy()), _frozen(ids.copy())),)
    return replace(
        graph,
        num_relations=graph.num_relations + 1,
        edges=edges,
        self_relation=True,
    )


def batch_graphs(graphs: Sequence[RelGraph]) -> BatchedGraph:
    """Merges graphs block-diagonally; nodes renumber by running offset.

    Each relation's merged edge arrays are the members' arrays shifted by
    their node offsets and concatenated. Every member edge must lie inside
    its own graph, and the merged (target, source) pairs must be distinct.
    """
    if not graphs:
        raise GraphFormatError("nothing to batch")
    if any(g.one_hot_features for g in graphs):
        raise GraphFormatError("one-hot graphs cannot be batched")
    first = graphs[0]
    for g in graphs[1:]:
        if g.num_relations != first.num_relations:
            raise GraphFormatError("relation-count mismatch between batch members")
        if g.feature_dim != first.feature_dim:
            raise GraphFormatError("feature-dim mismatch between batch members")
        if g.self_relation != first.self_relation:
            raise GraphFormatError("self-relation flags disagree between batch members")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # relation-major: relation r's edges of every member, in member order
    relations, count = first.num_relations, len(graphs)
    pieces = [g.edges[r] for r in range(relations) for g in graphs]
    lengths = [len(t) for t, _ in pieces]
    if lengths != [len(s) for _, s in pieces]:
        i = next(i for i, (t, s) in enumerate(pieces) if len(t) != len(s))
        raise GraphFormatError(f"relation {i // count} target and source lists do not align")
    rel = np.repeat(np.arange(relations).repeat(count), lengths)
    member = np.repeat(np.tile(np.arange(count), relations), lengths)
    tgt, src = (np.concatenate(half).astype(np.int64, copy=False) for half in zip(*pieces))
    bound = sizes[member]
    bad = (tgt < 0) | (tgt >= bound) | (src < 0) | (src >= bound)
    if bad.any():
        i = bad.argmax()
        raise GraphFormatError(
            f"edge ({rel[i]}, {tgt[i]}, {src[i]}) out of range in batch member {member[i]}"
        )
    shift = offsets[member]
    edges = _canonical_edges(relations, rel, tgt + shift, src + shift)
    features = np.concatenate([g.features for g in graphs])
    features = _frozen(_checked_features(features, total, first.feature_dim))
    merged = RelGraph(
        total, relations, edges, features, first.feature_dim, False, first.self_relation
    )
    segment = np.repeat(np.arange(count, dtype=np.int64), sizes)
    return BatchedGraph(merged, _frozen(segment), count)


# ---------------------------------------------------------------------------
# synthetic data


def generate_planted(
    seed: int,
    n_graphs: int,
    nodes_per_graph: int,
    num_relations: int,
    feature_dim: int,
    noise_edges: int,
) -> list[tuple[RelGraph, int]]:
    """Builds binary-labelled graphs with a planted structural rule.

    Each graph wires the marker node (1) into the readout node (0) through
    relation 0 when the label is 1 and through relation 1 otherwise. Noise
    edges draw (relation, target, source) uniformly from the remaining
    relations. Labels are balanced to within one graph, features are unit
    normal with fixed offsets marking the readout and marker nodes, and the
    whole construction is a pure function of the seed.
    """
    if num_relations < 2:
        raise GraphFormatError("degenerate sizes: need at least two relations")
    if nodes_per_graph < 2 or n_graphs < 1 or feature_dim < 2:
        raise GraphFormatError("degenerate sizes: graphs need >= 2 nodes and >= 2 features")
    if noise_edges < 0:
        raise GraphFormatError("degenerate sizes: negative noise count")
    if noise_edges > 0 and num_relations < 3:
        raise GraphFormatError("degenerate sizes: noise edges need a third relation")
    capacity = (num_relations - 2) * nodes_per_graph * nodes_per_graph
    if noise_edges > capacity // 2 and noise_edges > 0:
        raise GraphFormatError("degenerate sizes: noise edges exceed half the free slots")

    rng = np.random.default_rng(seed)
    labels = np.zeros(n_graphs, dtype=np.int64)
    labels[: n_graphs // 2] = 1
    labels = rng.permutation(labels)

    bounds = np.array([num_relations - 2, nodes_per_graph, nodes_per_graph])
    out: list[tuple[RelGraph, int]] = []
    for gi in range(n_graphs):
        label = int(labels[gi])
        signal_relation = 0 if label == 1 else 1
        triples = {(signal_relation, READOUT_NODE, MARKER_NODE)}
        while (need := noise_edges + 1 - len(triples)) > 0:
            # one call per round draws the missing edges' (r, t, s) in the
            # order, and from the stream, that one draw per scalar would: a
            # bounded value below 2**32 is drawn from 32-bit draws the same
            # way alone or from an array of bounds (a bound of 1 draws
            # nothing), and a round draws no more edges than are missing, so
            # an edge-by-edge loop would not stop sooner. A repeated draw is
            # dropped; the edges' order is canonicalized.
            drawn = rng.integers(np.tile(bounds, need)).reshape(need, 3)
            drawn[:, 0] += 2
            triples.update(map(tuple, drawn.tolist()))
        features = rng.normal(size=(nodes_per_graph, feature_dim))
        features[MARKER_NODE, 0] += 2.0
        features[READOUT_NODE, 1] += 2.0
        graph = build_graph(nodes_per_graph, num_relations, triples, features)
        out.append((graph, label))
    return out
