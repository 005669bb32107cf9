"""Relational graph attention layers plus the constant-coefficient baselines.

A layer owns, per relation r and head k, a projection kernel W (F x F') and
an attention kernel A (2F' x D) whose top half maps projected features to
queries and bottom half to keys. Logits are either additive,
leaky_relu(q_target + k_source) with D = 1, or multiplicative,
dot(q_target, k_source). Coefficients normalize the logits by softmax either
within each (target, relation) support ("wirgat") or across all relations of
a target ("argat"); the constant variants ("c-wirgat", "c-argat") replace
the softmax with a uniform weight over the same support and are meant for
evaluating trained models with attention switched off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    LEAKY_SLOPE,
    SegmentPlan,
    Tensor,
    add,
    block_matmul,
    concat_rows,
    edge_attention,
    edge_messages,
    gather_rows,
    leaky_relu,
    matmul,
    mul,
    reshape,
    rowsum,
    scale_rows,
    segment_reduce,
    segment_softmax,
    slice_rows,
    sum_blocks,
    tanh,
)

__all__ = [
    "ACTIVATIONS",
    "AttentionResult",
    "EdgePlan",
    "LEAKY_SLOPE",
    "LOGIT_MODES",
    "NORM_KINDS",
    "RgatLayer",
    "attention_coefficients",
    "attention_logits",
    "glorot",
    "rgcn_forward",
]

LOGIT_MODES = ("additive", "multiplicative")
NORM_KINDS = ("wirgat", "argat")
COEFFICIENT_KINDS = ("wirgat", "argat", "c-wirgat", "c-argat")
ACTIVATIONS = ("relu", "tanh", "identity")


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def _apply_activation(t: Tensor, activation: str) -> Tensor:
    if activation == "relu":
        return leaky_relu(t, 0.0)
    if activation == "tanh":
        return tanh(t)
    if activation == "identity":
        return t
    raise ValueError(f"unknown activation {activation!r}")


def _edge_arrays(edges: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Targets, sources and relation ids of every edge, relation-major."""
    tgt = [np.asarray(t, dtype=np.int64) for t, _ in edges]
    src = [np.asarray(s, dtype=np.int64) for _, s in edges]
    rel = np.repeat(np.arange(len(edges)), [len(t) for t in tgt])
    if not edges:
        return rel, rel, rel
    return np.concatenate(tgt), np.concatenate(src), rel


def _normalize(logits: Tensor | None, support: SegmentPlan, heads: int):
    """Coefficients of every (edge, head), listed edge-major then head: a
    softmax of the logits within each (support, head), or without logits
    the constant-attention weight 1 / |support| for every head."""
    if logits is not None:
        return segment_softmax(logits, support)
    return np.repeat(1.0 / support.counts[support.ids], heads)


class EdgePlan:
    """What a layer forward derives from one edge set alone, for one
    normalization kind: built once, shared by both layers of a forward and
    their backwards, and kept by a RelGraph for its own edges.

    Holds the row of every edge's target and source in its relation's slot
    of head 0 (head k adds k * relations * num_nodes), and the segment plans
    of the targets and of the softmax supports, all listed relation-major.
    An argat support is a target's whole neighbourhood, so its supports are
    its targets' plan; a wirgat support is a (target, relation) pair, keyed
    target + relation * num_nodes. Nothing in it depends on the head count,
    and it holds integer arrays only.
    """

    __slots__ = ("num_nodes", "num_relations", "norm_kind", "target_rows", "source_rows", "targets", "supports")

    def __init__(self, edges: Sequence[tuple[np.ndarray, np.ndarray]], num_nodes: int, norm_kind: str):
        if norm_kind not in COEFFICIENT_KINDS:
            raise ValueError(f"unknown normalization kind {norm_kind!r}")
        tgt, src, rel = _edge_arrays(edges)
        if src.size and (src.min() < 0 or src.max() >= num_nodes):
            raise ValueError(f"edge source out of range [0, {num_nodes})")
        self.num_nodes = num_nodes
        self.num_relations = len(edges)
        self.norm_kind = norm_kind.removeprefix("c-")
        self.targets = SegmentPlan(tgt, num_nodes)
        self.supports = self.targets
        if self.norm_kind == "wirgat":
            self.supports = SegmentPlan(tgt + rel * num_nodes, num_nodes * self.num_relations)
        self.target_rows = rel * num_nodes + tgt
        self.source_rows = rel * num_nodes + src
        self.target_rows.setflags(write=False)
        self.source_rows.setflags(write=False)


def attention_logits(g: Tensor, targets, sources, kernel: Tensor, mode: str) -> Tensor:
    """Edge logits for one relation from projected features.

    g holds the relation's projected node features (N x F'); kernel is the
    combined query/key map (2F' x D). Returns one flat logit per edge, in
    the edge order given.
    """
    if mode not in LOGIT_MODES:
        raise ValueError(f"unknown logit mode {mode!r}")
    if g.ndim != 2:
        raise ValueError("projected features must be a matrix")
    fp = g.shape[1]
    if kernel.ndim != 2 or kernel.shape[0] != 2 * fp:
        raise ValueError(f"attention kernel must have {2 * fp} rows, got {kernel.shape}")
    if mode == "additive" and kernel.shape[1] != 1:
        raise ValueError("additive logits require attention dim 1")
    tgt = np.asarray(targets, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64)
    qe = gather_rows(matmul(g, slice_rows(kernel, 0, fp)), tgt)
    ke = gather_rows(matmul(g, slice_rows(kernel, fp, 2 * fp)), src)
    if mode == "additive":
        return leaky_relu(reshape(add(qe, ke), (qe.shape[0],)), LEAKY_SLOPE)
    return rowsum(mul(qe, ke))


@dataclass(frozen=True)
class AttentionResult:
    """Normalized coefficients in canonical relation-major edge order.

    coefficients is a Tensor for learned kinds and a plain array for the
    constant kinds; segments holds the softmax-support key of every edge.
    """

    coefficients: object
    segments: np.ndarray

    def coefficient_values(self) -> np.ndarray:
        c = self.coefficients
        return c.data if isinstance(c, Tensor) else c


def attention_coefficients(
    logits: Sequence[Tensor] | None,
    edges: Sequence[tuple[np.ndarray, np.ndarray]],
    num_nodes: int,
    kind: str,
) -> AttentionResult:
    """Normalizes per-relation edge logits into attention coefficients.

    kind "wirgat" runs a softmax within each (target, relation) support,
    "argat" within each target across every relation. The "c-" variants
    ignore the logits and spread the unit mass uniformly over the same
    support: 1/|N_i^(r)| per (target, relation) or 1/sum_r |N_i^(r)| per
    target.
    """
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    tgt_all, _, _ = _edge_arrays(edges)
    if tgt_all.size and (tgt_all.min() < 0 or tgt_all.max() >= num_nodes):
        raise ValueError("edge target out of range")
    supports = EdgePlan(edges, num_nodes, kind).supports

    if kind.startswith("c-"):
        return AttentionResult(_normalize(None, supports, 1), supports.ids)

    if logits is None:
        raise ValueError("learned normalization needs logits")
    if len(logits) != len(edges):
        raise ValueError("one logit vector per relation required")
    for part, (t, _) in zip(logits, edges):
        if part.ndim != 1 or part.size != len(t):
            raise ValueError("logit vectors must align with the edge lists")
    flat = logits[0] if len(logits) == 1 else concat_rows(list(logits))
    return AttentionResult(_normalize(flat, supports, 1), supports.ids)


class RgatLayer:
    """One relational attention layer: parameters plus the forward rule.

    Parameters live as plain float64 arrays in ``self.params`` (a dict whose
    insertion order fixes the checkpoint layout), in the layout the forward
    reads: each kernel kind's (relation, head) slots stacked row-wise
    head-major, slot k*R + r in row block k*R + r (``{name}.w``, K*R*F x F';
    ``{name}.a``, K*R*2F' x D), or with a basis its coefficients' rows in
    the same slot order (``{name}.w_basis``, ``{name}.w_coeff``), and the
    heads' biases joined in head order (``{name}.bias``, K*F'). ``forward``
    consumes leaf tensors bound to some tape under the same names.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        in_dim: int,
        units: int,
        heads: int,
        num_relations: int,
        *,
        logit_mode: str = "additive",
        norm_kind: str = "wirgat",
        attention_dim: int | None = None,
        head_agg: str = "concat",
        activation: str = "relu",
        use_bias: bool = True,
        basis_w: int | None = None,
        basis_a: int | None = None,
    ):
        if logit_mode not in LOGIT_MODES:
            raise ValueError(f"unknown logit mode {logit_mode!r}")
        if norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown normalization kind {norm_kind!r}")
        if head_agg not in ("concat", "mean"):
            raise ValueError(f"unknown head aggregation {head_agg!r}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if min(in_dim, units, heads, num_relations) < 1:
            raise ValueError("layer dimensions must be positive")
        if head_agg == "concat":
            if units % heads:
                raise ValueError(f"head count {heads} must divide the output width {units}")
            per_head = units // heads
        else:
            per_head = units
        if logit_mode == "additive":
            if attention_dim not in (None, 1):
                raise ValueError("additive logits force attention dim 1")
            attention_dim = 1
        elif attention_dim is None:
            attention_dim = per_head
        if attention_dim < 1:
            raise ValueError("attention dim must be positive")

        limit = num_relations * heads
        basis = {"w": basis_w, "a": basis_a}
        for kind, size in basis.items():
            if size is None:
                continue
            if size < 1:
                raise ValueError("basis size must be positive")
            if size > limit:
                warnings.warn(
                    f"{name}: {kind.upper()} basis size {size} exceeds relations*heads={limit}, clamping"
                )
                basis[kind] = limit

        self.name = name
        self.in_dim = in_dim
        self.units = units
        self.heads = heads
        self.num_relations = num_relations
        self.per_head = per_head
        self.logit_mode = logit_mode
        self.norm_kind = norm_kind
        self.attention_dim = attention_dim
        self.head_agg = head_agg
        self.activation = activation
        self.use_bias = use_bias
        self.basis_w = basis["w"]
        self.basis_a = basis["a"]

        self.params: dict[str, np.ndarray] = {}
        # kernels are drawn slot by slot relation-major, as when each slot was
        # its own parameter, so a seed keeps its values; head-major slot
        # k*R + r keeps draw order[k*R + r] = r*K + k
        order = (np.arange(heads)[:, None] + np.arange(num_relations) * heads).ravel()
        for kind in ("w", "a"):
            size, shape = self._kernel(kind)
            names = self._kernel_names(kind)
            if size is None:
                kernels = [glorot(rng, *shape) for _ in range(limit)]
                self.params[names[0]] = np.concatenate([kernels[s] for s in order])
            else:
                rows = [glorot(rng, *shape).ravel() for _ in range(size)]
                self.params[names[0]] = np.stack(rows)
                self.params[names[1]] = glorot(rng, limit, size)[order]
        if use_bias:
            self.params[f"{name}.bias"] = np.zeros(heads * per_head)

    def _kernel(self, kind: str) -> tuple[int | None, tuple[int, int]]:
        """Basis size and per-slot shape of the "w" or "a" kernels."""
        if kind == "w":
            return self.basis_w, (self.in_dim, self.per_head)
        return self.basis_a, (2 * self.per_head, self.attention_dim)

    def _kernel_names(self, kind: str) -> list[str]:
        """Parameter names of one kernel kind: the stacked kernels, or the
        basis and its coefficients."""
        if self._kernel(kind)[0] is None:
            return [f"{self.name}.{kind}"]
        return [f"{self.name}.{kind}_basis", f"{self.name}.{kind}_coeff"]

    def w_parameter_names(self) -> list[str]:
        return self._kernel_names("w")

    def a_parameter_names(self) -> list[str]:
        return self._kernel_names("a")

    def _stacked_kernels(self, leaves: dict[str, Tensor], kind: str) -> Tensor:
        """Every slot's kernel of one kind stacked row-wise head-major: slot
        k*R + r is row block k*R + r."""
        basis, shape = self._kernel(kind)
        if basis is None:
            return leaves[f"{self.name}.{kind}"]
        slots = self.heads * self.num_relations
        coeff, rows = leaves[f"{self.name}.{kind}_coeff"], leaves[f"{self.name}.{kind}_basis"]
        flat = block_matmul(coeff, rows, slots, shared="w")
        return reshape(flat, (slots * shape[0], shape[1]))

    def forward(
        self,
        leaves: dict[str, Tensor],
        edges: Sequence[tuple[np.ndarray, np.ndarray]] | EdgePlan,
        num_nodes: int,
        h: Tensor,
        *,
        constant: bool = False,
    ) -> Tensor:
        """Runs every (relation, head) slot at once; the op count does not
        depend on the number of relations or heads. edges may be given as
        their EdgePlan for this layer's normalization kind.

        Projected features, queries and keys are stacked by slot: slot
        s = k*R + r holds rows s*N to (s+1)*N, so one gather picks every
        head's row of every edge.
        """
        relations = edges.num_relations if isinstance(edges, EdgePlan) else len(edges)
        if relations != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, got {relations} edge lists"
            )
        if h.shape[0] != num_nodes:
            raise ValueError(f"features have {h.shape[0]} rows for {num_nodes} nodes")
        plan = edges if isinstance(edges, EdgePlan) else EdgePlan(edges, num_nodes, self.norm_kind)
        if plan.num_nodes != num_nodes or plan.norm_kind != self.norm_kind:
            raise ValueError(
                f"edge plan is for {plan.num_nodes} nodes and {plan.norm_kind!r} supports,"
                f" the layer runs {num_nodes} and {self.norm_kind!r}"
            )
        heads = self.heads
        slots = relations * heads
        # slot row of each (edge, head), listed edge-major then head
        head_base = np.arange(heads) * (relations * num_nodes)
        tgt_rows = (plan.target_rows[:, None] + head_base).ravel()
        src_rows = (plan.source_rows[:, None] + head_base).ravel()

        g = block_matmul(h, self._stacked_kernels(leaves, "w"), slots, shared="x")
        if constant:
            alpha = _normalize(None, plan.supports, heads)
        else:
            # attention precedes the messages, so each slot's feature
            # gradient adds up in the order a per-slot loop has
            a = self._stacked_kernels(leaves, "a")
            alpha = edge_attention(g, a, tgt_rows, src_rows, self.logit_mode, plan.supports)
        out = edge_messages(g, alpha, src_rows, plan.targets, num_nodes, heads)
        if self.use_bias:
            out = add(out, leaves[f"{self.name}.bias"])
        if self.head_agg == "mean":
            out = mul(sum_blocks(out, heads), 1.0 / heads)
        return _apply_activation(out, self.activation)


def rgcn_forward(
    edges: Sequence[tuple[np.ndarray, np.ndarray]],
    num_nodes: int,
    h: Tensor,
    kernels: Sequence[Tensor],
    *,
    activation: str = "identity",
    bias: Tensor | None = None,
) -> Tensor:
    """Uniform-coefficient relational propagation.

    Each relation contributes the mean of its projected neighbor features,
    weighting every neighbor by 1/|N_i^(r)|. Kept independent of the
    attention code on purpose so the two routes can be checked against each
    other.
    """
    if len(kernels) != len(edges):
        raise ValueError("one kernel per relation required")
    if not kernels:
        raise ValueError("at least one relation required")
    acc = None
    for (tgt, src), w in zip(edges, kernels):
        g = matmul(h, w)
        tgt = np.asarray(tgt, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        if tgt.size == 0:
            continue
        deg = np.bincount(tgt, minlength=num_nodes)
        alpha = 1.0 / deg[tgt]
        part = segment_reduce(scale_rows(gather_rows(g, src), alpha), tgt, num_nodes)
        acc = part if acc is None else add(acc, part)
    if acc is None:
        acc = mul(matmul(h, kernels[0]), 0.0)
    if bias is not None:
        acc = add(acc, bias)
    return _apply_activation(acc, activation)
