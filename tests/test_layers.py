"""Attention layer math against hand-computed values, plus structural
checks: normalization supports, head aggregation, basis composition, the
uniform-coefficient baselines, and the all-slot forward against a per-slot
loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgat.graph import build_graph
from relgat.layers import (
    EdgePlan,
    RgatLayer,
    attention_coefficients,
    attention_logits,
    glorot,
    rgcn_forward,
)
from relgat.tensor import (
    Tape,
    add,
    concat_cols,
    concat_rows,
    gather_rows,
    matmul,
    mul,
    relu,
    reshape,
    scale_rows,
    segment_reduce,
    slice_rows,
    sum_all,
    sum_squares,
    tanh,
)

RNG = np.random.default_rng


def _leaves(tape, layer):
    return {k: tape.leaf(v) for k, v in layer.params.items()}


def test_additive_logit_frozen_value():
    # q + k = 0.1 + (-0.3) = -0.2, leaky slope 0.2 gives exactly -0.04
    tape = Tape()
    g = tape.leaf([[0.1], [-0.3]])
    kernel = tape.leaf([[1.0], [1.0]])
    out = attention_logits(g, [0], [1], kernel, "additive")
    assert out.data[0] == pytest.approx(-0.04, abs=1e-15)


def test_additive_positive_logit_passes_through():
    tape = Tape()
    g = tape.leaf([[0.4], [0.3]])
    kernel = tape.leaf([[1.0], [1.0]])
    out = attention_logits(g, [0], [1], kernel, "additive")
    assert out.data[0] == pytest.approx(0.7, abs=1e-15)


def test_multiplicative_logit_is_unscaled_dot():
    tape = Tape()
    g = tape.leaf([[1.0, 2.0], [3.0, -1.0]])
    kernel = tape.leaf(np.vstack([np.eye(2), np.eye(2)]))
    out = attention_logits(g, [0], [1], kernel, "multiplicative")
    # dot([1,2],[3,-1]) = 1, no normalization by sqrt(d)
    assert out.data[0] == pytest.approx(1.0, abs=1e-15)


def test_additive_requires_dim_one():
    tape = Tape()
    g = tape.leaf([[1.0, 2.0]])
    kernel = tape.leaf(np.ones((4, 2)))
    with pytest.raises(ValueError, match="dim 1"):
        attention_logits(g, [0], [0], kernel, "additive")


def test_kernel_row_count_checked():
    tape = Tape()
    g = tape.leaf([[1.0, 2.0]])
    with pytest.raises(ValueError, match="rows"):
        attention_logits(g, [0], [0], tape.leaf(np.ones((3, 1))), "additive")


def test_wirgat_normalizes_within_relation():
    tape = Tape()
    logits_r0 = tape.leaf([np.log(2.0), 0.0])
    edges = [(np.array([1, 1]), np.array([0, 2]))]
    att = attention_coefficients([logits_r0], edges, 3, "wirgat")
    vals = att.coefficient_values()
    assert vals[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert vals[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_wirgat_vs_argat_support_difference():
    # same target via two relations: wirgat keeps each relation separate,
    # argat lets them compete
    tape = Tape()
    parts = [tape.leaf([np.log(2.0)]), tape.leaf([0.0])]
    edges = [
        (np.array([0]), np.array([1])),
        (np.array([0]), np.array([2])),
    ]
    w = attention_coefficients(parts, edges, 3, "wirgat").coefficient_values()
    assert np.allclose(w, [1.0, 1.0], atol=1e-15)
    tape2 = Tape()
    parts2 = [tape2.leaf([np.log(2.0)]), tape2.leaf([0.0])]
    a = attention_coefficients(parts2, edges, 3, "argat").coefficient_values()
    assert a[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert a[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_constant_wirgat_quarter():
    edges = [(np.array([2, 2, 2, 2]), np.array([0, 1, 3, 4]))]
    att = attention_coefficients(None, edges, 5, "c-wirgat")
    assert np.array_equal(att.coefficient_values(), [0.25, 0.25, 0.25, 0.25])


def test_constant_argat_spreads_across_relations():
    edges = [
        (np.array([0]), np.array([1])),
        (np.array([0, 0, 0]), np.array([1, 2, 3])),
    ]
    att = attention_coefficients(None, edges, 4, "c-argat")
    assert np.array_equal(att.coefficient_values(), [0.25, 0.25, 0.25, 0.25])
    cw = attention_coefficients(None, edges, 4, "c-wirgat").coefficient_values()
    assert np.allclose(cw, [1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_coefficients_sum_to_one_per_support():
    rng = RNG(0)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        r = int(rng.integers(1, 5))
        tape = Tape()
        edges = []
        parts = []
        for _ in range(r):
            m = int(rng.integers(0, 40))
            edges.append(
                (rng.integers(0, n, m), rng.integers(0, n, m))
            )
            parts.append(tape.leaf(rng.normal(size=m)))
        for kind in ("wirgat", "argat"):
            att = attention_coefficients(parts, edges, n, kind)
            vals = att.coefficient_values()
            segs = att.segments
            for s in np.unique(segs):
                assert vals[segs == s].sum() == pytest.approx(1.0, abs=1e-12)


def test_layer_shapes_concat_and_mean():
    rng = RNG(1)
    g = build_graph(6, 3, [[0, 1, 2], [1, 3, 4], [2, 5, 0]], rng.normal(size=(6, 4)))
    for agg, units in (("concat", 8), ("mean", 5)):
        layer = RgatLayer(rng, "l", 4, units, 2, 3, head_agg=agg)
        tape = Tape()
        out = layer.forward(_leaves(tape, layer), g.edges, 6, tape.leaf(g.features))
        assert out.shape == (6, units)
    # concat splits width across heads, mean keeps full width per head
    concat_layer = RgatLayer(rng, "c", 4, 8, 2, 3, head_agg="concat")
    assert concat_layer.params["c.w.r0k0"].shape == (4, 4)
    mean_layer = RgatLayer(rng, "m", 4, 8, 2, 3, head_agg="mean")
    assert mean_layer.params["m.w.r0k0"].shape == (4, 8)


def test_concat_width_must_divide():
    with pytest.raises(ValueError, match="divide"):
        RgatLayer(RNG(0), "l", 4, 5, 2, 1)


def test_mean_heads_average_preactivations_with_bias():
    # zero kernels leave only the per-head biases: out = (b0 + b1) / 2
    rng = RNG(2)
    g = build_graph(3, 1, [[0, 0, 1], [0, 1, 2]], rng.normal(size=(3, 2)))
    layer = RgatLayer(rng, "l", 2, 2, 2, 1, head_agg="mean", activation="identity")
    for r in range(1):
        for k in range(2):
            layer.params[f"l.w.r{r}k{k}"][:] = 0.0
    layer.params["l.bias.k0"][:] = [1.0, 3.0]
    layer.params["l.bias.k1"][:] = [2.0, 5.0]
    tape = Tape()
    out = layer.forward(_leaves(tape, layer), g.edges, 3, tape.leaf(g.features))
    assert np.allclose(out.data, np.tile([1.5, 4.0], (3, 1)), atol=1e-15)


def test_per_head_bias_added_before_activation():
    rng = RNG(3)
    g = build_graph(2, 1, [], rng.normal(size=(2, 2)))
    layer = RgatLayer(rng, "l", 2, 2, 1, 1, activation="relu")
    layer.params["l.w.r0k0"][:] = 0.0
    layer.params["l.bias.k0"][:] = [-1.0, 2.0]
    tape = Tape()
    out = layer.forward(_leaves(tape, layer), g.edges, 2, tape.leaf(g.features))
    # relu applies after the bias
    assert np.array_equal(out.data, [[0.0, 2.0], [0.0, 2.0]])


def test_basis_clamp_warns():
    with pytest.warns(UserWarning, match="clamp"):
        layer = RgatLayer(RNG(0), "l", 3, 4, 2, 2, basis_w=50)
    assert layer.basis_w == 4  # relations * heads
    assert layer.params["l.w_coeff"].shape == (4, 4)
    assert layer.params["l.w_basis"].shape == (4, 3 * 2)


def test_basis_layer_parameter_groups():
    layer = RgatLayer(RNG(0), "l", 3, 4, 2, 2, basis_w=2, basis_a=3)
    assert layer.w_parameter_names() == ["l.w_basis", "l.w_coeff"]
    assert layer.a_parameter_names() == ["l.a_basis", "l.a_coeff"]
    dense = RgatLayer(RNG(0), "d", 3, 4, 2, 2)
    assert dense.w_parameter_names() == [
        "d.w.r0k0",
        "d.w.r0k1",
        "d.w.r1k0",
        "d.w.r1k1",
    ]


def test_zero_attention_kernel_gives_uniform_coefficients_and_matches_rgcn():
    rng = RNG(5)
    n = 7
    triples = [[0, 1, 2], [0, 1, 3], [0, 4, 5], [1, 2, 0], [1, 2, 6], [1, 2, 1]]
    g = build_graph(n, 2, triples, rng.normal(size=(n, 3)))
    layer = RgatLayer(
        rng, "l", 3, 4, 1, 2, activation="identity", use_bias=False
    )
    for r in range(2):
        layer.params[f"l.a.r{r}k0"][:] = 0.0
    tape = Tape()
    leaves = _leaves(tape, layer)
    h = tape.leaf(g.features)
    attention_out = layer.forward(leaves, g.edges, n, h)
    kernels = [leaves["l.w.r0k0"], leaves["l.w.r1k0"]]
    baseline = rgcn_forward(g.edges, n, h, kernels)
    assert np.max(np.abs(attention_out.data - baseline.data)) < 1e-12


def test_rgcn_forward_hand_value():
    tape = Tape()
    h = tape.leaf([[1.0], [2.0], [4.0]])
    w = tape.leaf([[1.0]])
    edges = [(np.array([0, 0]), np.array([1, 2]))]
    out = rgcn_forward(edges, 3, h, [w])
    # node 0 averages its two neighbors: (2 + 4) / 2 = 3
    assert np.array_equal(out.data, [[3.0], [0.0], [0.0]])


def test_rgcn_forward_empty_relations_gives_zeros_with_grad_path():
    tape = Tape()
    h = tape.leaf([[1.0, 2.0]])
    w = tape.leaf(np.ones((2, 3)))
    out = rgcn_forward([(np.array([], dtype=np.int64), np.array([], dtype=np.int64))], 1, h, [w])
    assert np.array_equal(out.data, np.zeros((1, 3)))
    grads = tape.backward(sum_all(out))
    assert np.array_equal(grads[w], np.zeros((2, 3)))


_VARIANTS = list(
    itertools.product(["additive", "multiplicative"], [1, 2, 3], ["concat", "mean"], ["dense", "basis"])
)
_VARIANT_IDS = ["-".join(map(str, v)) for v in _VARIANTS]


def _variant_layer(rng, f, r, logit_mode, heads, head_agg, kernels, **kwargs):
    units = 3 * heads if head_agg == "concat" else 3
    basis = 2 if kernels == "basis" else None
    return RgatLayer(
        rng, "l", f, units, heads, r, logit_mode=logit_mode, head_agg=head_agg,
        basis_w=basis, basis_a=basis, **kwargs
    )


@pytest.mark.parametrize("logit_mode,heads,head_agg,kernels", _VARIANTS, ids=_VARIANT_IDS)
def test_layer_forward_permutation_equivariant_bitwise(logit_mode, heads, head_agg, kernels):
    rng = RNG(6)
    n, r, f = 12, 3, 4
    triples = []
    seen = set()
    while len(triples) < 30:
        e = (int(rng.integers(r)), int(rng.integers(n)), int(rng.integers(n)))
        if e not in seen:
            seen.add(e)
            triples.append(list(e))
    feats = rng.normal(size=(n, f))
    g = build_graph(n, r, triples, feats)
    layer = _variant_layer(rng, f, r, logit_mode, heads, head_agg, kernels, norm_kind="argat")

    perm = rng.permutation(n)  # perm[old] = new id
    p_triples = [[rel, int(perm[t]), int(perm[s])] for rel, t, s in triples]
    p_feats = np.empty_like(feats)
    p_feats[perm] = feats
    pg = build_graph(n, r, p_triples, p_feats)

    tape1 = Tape()
    out1 = layer.forward(_leaves(tape1, layer), g.edges, n, tape1.leaf(g.features))
    tape2 = Tape()
    out2 = layer.forward(_leaves(tape2, layer), pg.edges, n, tape2.leaf(pg.features))
    # exact: summation order inside every segment is value-sorted
    assert np.array_equal(out2.data[perm], out1.data)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_edge_listing_order_changes_no_edge_array_or_layer_output(data):
    rng = RNG(data.draw(st.integers(0, 2**16)))
    n, r, f = 8, 3, 4
    triples = sorted(
        {(int(rng.integers(r)), int(rng.integers(n)), int(rng.integers(n))) for _ in range(20)}
    )
    shuffled = data.draw(st.permutations(triples))
    feats = rng.normal(size=(n, f))
    graphs = [build_graph(n, r, [list(t) for t in listing], feats) for listing in (triples, shuffled)]
    for (ta, sa), (tb, sb) in zip(graphs[0].edges, graphs[1].edges):
        assert ta.tobytes() == tb.tobytes() and sa.tobytes() == sb.tobytes()
    variant = data.draw(st.sampled_from(_VARIANTS))
    norm_kind = data.draw(st.sampled_from(["wirgat", "argat"]))
    layer = _variant_layer(RNG(1), f, r, *variant, norm_kind=norm_kind)
    for constant in (False, True):
        outs = []
        for g in graphs:
            tape = Tape()
            h = tape.leaf(g.features)
            outs.append(layer.forward(_leaves(tape, layer), g.edges, n, h, constant=constant).data)
        assert outs[0].tobytes() == outs[1].tobytes()


def _per_slot_forward(layer, leaves, edges, num_nodes, h, constant=False):
    """The loop the all-slot forward replaced: per head, one projection,
    logit vector and gather per relation, then one softmax and aggregation."""
    name, heads, fp = layer.name, layer.heads, layer.per_head

    def kernel(kind, basis, r, k, shape):
        if basis is None:
            return leaves[f"{name}.{kind}.r{r}k{k}"]
        row = slice_rows(leaves[f"{name}.{kind}_coeff"], r * heads + k, r * heads + k + 1)
        return reshape(matmul(row, leaves[f"{name}.{kind}_basis"]), shape)

    kind = f"c-{layer.norm_kind}" if constant else layer.norm_kind
    tgt_all = np.concatenate([np.asarray(t, dtype=np.int64) for t, _ in edges])
    head_sums = []
    for k in range(heads):
        projected, logits = [], []
        for r, (tgt, src) in enumerate(edges):
            w = kernel("w", layer.basis_w, r, k, (layer.in_dim, fp))
            a = kernel("a", layer.basis_a, r, k, (2 * fp, layer.attention_dim))
            g = matmul(h, w)
            projected.append(g)
            if not constant:
                logits.append(attention_logits(g, tgt, src, a, layer.logit_mode))
        att = attention_coefficients(None if constant else logits, edges, num_nodes, kind)
        values = concat_rows([gather_rows(p, src) for p, (_, src) in zip(projected, edges)])
        agg = segment_reduce(scale_rows(values, att.coefficients), tgt_all, num_nodes, "sum")
        if layer.use_bias:
            agg = add(agg, leaves[f"{name}.bias.k{k}"])
        head_sums.append(agg)
    if layer.head_agg == "concat":
        out = head_sums[0] if heads == 1 else concat_cols(head_sums)
    else:
        out = head_sums[0]
        for part in head_sums[1:]:
            out = add(out, part)
        out = mul(out, 1.0 / heads)
    return {"relu": relu, "tanh": tanh, "identity": lambda t: t}[layer.activation](out)


def _forward_and_gradients(forward, layer, g, constant):
    """Output, input gradient and every parameter gradient of a random
    linear read-out plus an L2 term, as training would record them."""
    tape = Tape()
    leaves = _leaves(tape, layer)
    h = tape.leaf(g.features)
    out = forward(leaves, g.edges, g.num_nodes, h, constant=constant)
    readout = RNG(99).normal(size=out.shape)
    loss = sum_all(mul(out, readout))
    for leaf in leaves.values():
        loss = add(loss, mul(sum_squares(leaf), 1e-3))
    grads = tape.backward(loss)
    return [out.data, grads[h]] + [grads[leaf] for leaf in leaves.values()]


@pytest.mark.parametrize("norm_kind", ["wirgat", "argat"])
@pytest.mark.parametrize("logit_mode,heads,head_agg,kernels", _VARIANTS, ids=_VARIANT_IDS)
def test_layer_matches_per_slot_loop_bitwise(logit_mode, heads, head_agg, kernels, norm_kind):
    rng = RNG(12)
    n, r, f = 9, 3, 4
    full = sorted(
        {(rel, int(rng.integers(n)), int(rng.integers(n))) for rel in range(r) for _ in range(12)}
    )
    feats = rng.normal(size=(n, f))
    graphs = [
        build_graph(n, r, [list(t) for t in full], feats),
        build_graph(n, r, [list(t) for t in full if t[0] != 1], feats),  # relation 1 has no edges
        build_graph(n, r, [], feats),
    ]
    layer = _variant_layer(
        rng, f, r, logit_mode, heads, head_agg, kernels, norm_kind=norm_kind, activation="tanh"
    )

    def reference(leaves, edges, num_nodes, h, constant):
        return _per_slot_forward(layer, leaves, edges, num_nodes, h, constant)

    for g, constant in itertools.product(graphs, [False, True]):
        got = _forward_and_gradients(layer.forward, layer, g, constant)
        want = _forward_and_gradients(reference, layer, g, constant)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"head_agg": "mean"}, {"logit_mode": "multiplicative"}, {"basis_w": 1, "basis_a": 1}],
    ids=["concat", "mean", "multiplicative", "basis"],
)
def test_layer_op_count_does_not_depend_on_relations_or_heads(kwargs):
    counts = []
    for relations, heads in ((1, 1), (6, 4)):
        rng = RNG(13)
        n = 10
        triples = set()
        for r in range(relations):
            for _ in range(8):
                triples.add((r, int(rng.integers(n)), int(rng.integers(n))))
        g = build_graph(n, relations, [list(t) for t in sorted(triples)], rng.normal(size=(n, 3)))
        units = 2 * heads if kwargs.get("head_agg", "concat") == "concat" else 2
        layer = RgatLayer(rng, "l", 3, units, heads, relations, **kwargs)
        for constant in (False, True):
            tape = Tape()
            leaves = _leaves(tape, layer)
            h = tape.leaf(g.features)
            before = tape.num_recorded
            layer.forward(leaves, g.edges, n, h, constant=constant)
            counts.append(tape.num_recorded - before)
    assert counts[:2] == counts[2:]


def test_layer_rejects_features_for_another_node_count():
    rng = RNG(14)
    g = build_graph(5, 1, [[0, 1, 2]], rng.normal(size=(5, 3)))
    layer = RgatLayer(rng, "l", 3, 4, 2, 1)
    tape = Tape()
    with pytest.raises(ValueError, match="rows for 5 nodes"):
        layer.forward(_leaves(tape, layer), g.edges, 5, tape.leaf(rng.normal(size=(6, 3))))


def test_layer_refuses_an_edge_source_out_of_range():
    # a source of N in relation 0 would read relation 1's row 0, and a
    # source of -1 in relation 1 relation 0's last row
    rng = RNG(15)
    layer = RgatLayer(rng, "l", 3, 4, 1, 2)
    tape = Tape()
    h = tape.leaf(rng.normal(size=(5, 3)))
    for edges in (
        ((np.array([1]), np.array([5])), (np.array([2]), np.array([0]))),
        ((np.array([1]), np.array([0])), (np.array([2]), np.array([-1]))),
    ):
        with pytest.raises(ValueError, match="edge source out of range"):
            layer.forward(_leaves(tape, layer), edges, 5, h)


@pytest.mark.parametrize("kind", ["argat", "c-argat", "wirgat", "c-wirgat"])
def test_an_argat_plan_attends_over_the_targets_it_sums(kind):
    # an argat support is a target's whole neighbourhood, so its plan is the
    # targets' plan; a wirgat support is a (target, relation) pair
    g = build_graph(5, 2, [[0, 1, 2], [0, 1, 3], [1, 1, 0], [1, 4, 2]], np.zeros((5, 1)))
    plan = EdgePlan(g.edges, 5, kind)
    if kind.endswith("argat"):
        assert plan.supports is plan.targets
    else:
        assert plan.supports is not plan.targets
        rel = np.repeat(np.arange(2), [len(t) for t, _ in g.edges])
        assert np.array_equal(plan.supports.ids, plan.targets.ids + rel * 5)
        assert plan.supports.num_segments == 10


def test_layer_constant_mode_matches_explicit_constant_kinds():
    rng = RNG(7)
    g = build_graph(5, 2, [[0, 1, 2], [0, 1, 3], [1, 1, 0]], rng.normal(size=(5, 3)))
    layer = RgatLayer(rng, "l", 3, 4, 1, 2, norm_kind="wirgat", activation="identity", use_bias=False)
    tape = Tape()
    leaves = _leaves(tape, layer)
    h = tape.leaf(g.features)
    out = layer.forward(leaves, g.edges, 5, h, constant=True)
    # reproduce by hand: uniform per (target, relation), summed
    att = attention_coefficients(None, g.edges, 5, "c-wirgat")
    g0 = matmul(h, leaves["l.w.r0k0"]).data
    g1 = matmul(h, leaves["l.w.r1k0"]).data
    expected = np.zeros((5, 4))
    vals = att.coefficient_values()
    expected[1] = vals[0] * g0[2] + vals[1] * g0[3] + vals[2] * g1[0]
    assert np.allclose(out.data, expected, atol=1e-15)


def test_glorot_bounds():
    rng = RNG(8)
    w = glorot(rng, 10, 30)
    s = np.sqrt(6.0 / 40.0)
    assert w.shape == (10, 30)
    assert np.all(np.abs(w) <= s)
    assert np.std(w) > 0.1 * s
