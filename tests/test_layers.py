"""Attention layer math against hand-computed values, plus structural
checks: normalization supports, head aggregation, basis composition, and
the uniform-coefficient baselines."""

import numpy as np
import pytest

from relgat.graph import build_graph
from relgat.layers import (
    RgatLayer,
    attention_coefficients,
    attention_logits,
    compose_kernels,
    glorot,
    rgcn_forward,
)
from relgat.tensor import Tape, matmul, sum_all

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


def test_relation_slices_recover_per_relation_blocks():
    edges = [
        (np.array([0, 1]), np.array([1, 0])),
        (np.array([1]), np.array([0])),
    ]
    att = attention_coefficients(None, edges, 2, "c-wirgat")
    assert att.relation_slices == ((0, 2), (2, 3))
    assert att.per_relation(1).shape == (1,)


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


def test_compose_kernels_one_hot_selects_basis_row_exactly():
    tape = Tape()
    rng = RNG(4)
    bases = rng.normal(size=(3, 8))
    coeff = np.zeros((4, 3))
    coeff[2, 1] = 1.0
    c = tape.leaf(coeff)
    b = tape.leaf(bases)
    kernel = compose_kernels(c, b, 2, (2, 4))
    assert np.array_equal(kernel.data, bases[1].reshape(2, 4))


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


def test_layer_forward_permutation_equivariant_bitwise():
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
    layer = RgatLayer(rng, "l", f, 6, 2, r, norm_kind="argat")

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
    w0, _ = layer.kernels(leaves, 0, 0)
    w1, _ = layer.kernels(leaves, 1, 0)
    g0 = matmul(h, w0).data
    g1 = matmul(h, w1).data
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
