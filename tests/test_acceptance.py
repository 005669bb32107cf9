"""Acceptance gate: end-to-end guarantees with pinned tolerances.

Slower than the unit suites on purpose; every check here exercises a whole
subsystem against an independent reference or a planted ground truth.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from relgat.graph import (
    GraphTask,
    LabelSet,
    Split,
    batch_graphs,
    build_graph,
    generate_planted,
    with_self_relation,
)
from relgat.layers import (
    RgatLayer,
    attention_coefficients,
    attention_logits,
    rgcn_forward,
)
from relgat.models import (
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    bind_params,
    inverse_frequency_weights,
    masked_cross_entropy,
    weighted_cross_entropy,
)
from relgat.search import LogUniform, OneOf, inductive_space, transductive_space
from relgat.stats import empirical_cdf, mann_whitney_u, midranks
from relgat.tensor import Tape, grad_check, matmul, row_softmax, slice_rows, sum_squares
from relgat.training import (
    TrainConfig,
    drop_edges,
    evaluate,
    train,
)


def _random_edges(rng, num_nodes, num_relations, max_per_relation):
    edges = []
    for _ in range(num_relations):
        count = int(rng.integers(0, max_per_relation + 1))
        keys = np.unique(rng.integers(0, num_nodes * num_nodes, size=count))
        edges.append((keys // num_nodes, keys % num_nodes))
    return tuple(edges)


def _random_graph(rng, num_nodes, num_relations, feature_dim):
    triples = set()
    for r in range(num_relations):
        for _ in range(num_nodes):
            triples.add((r, int(rng.integers(num_nodes)), int(rng.integers(num_nodes))))
    feats = rng.normal(size=(num_nodes, feature_dim))
    return build_graph(num_nodes, num_relations, sorted(triples), feats)


def test_coefficients_sum_to_one_over_every_support():
    rng = np.random.default_rng(11)
    started = time.monotonic()
    checked_supports = 0
    for trial in range(200):
        n = int(rng.integers(2, 201))
        relations = int(rng.integers(1, 9))
        edges = _random_edges(rng, n, relations, max_per_relation=2 * n)
        if trial % 2 == 1:
            edges = drop_edges(rng, edges, 0.3, self_relation=False)
        mode = "additive" if trial % 4 < 2 else "multiplicative"
        dim = 1 if mode == "additive" else 2
        per_head = 3

        tape = Tape()
        h = tape.leaf(rng.normal(size=(n, 4)))
        logits = []
        for tgt, src in edges:
            w = tape.leaf(rng.normal(size=(4, per_head)))
            a = tape.leaf(rng.normal(size=(2 * per_head, dim)))
            logits.append(attention_logits(matmul(h, w), tgt, src, a, mode))

        for kind, width in (("wirgat", n * relations), ("argat", n)):
            att = attention_coefficients(logits, edges, n, kind)
            values = att.coefficient_values()
            sums = np.bincount(att.segments, weights=values, minlength=width)
            occupied = np.bincount(att.segments, minlength=width) > 0
            assert np.all(np.abs(sums[occupied] - 1.0) <= 1e-12)
            checked_supports += int(occupied.sum())

            const = attention_coefficients(None, edges, n, f"c-{kind}")
            csums = np.bincount(const.segments, weights=const.coefficient_values(), minlength=width)
            assert np.all(np.abs(csums[occupied] - 1.0) <= 1e-12)
    assert checked_supports > 10_000
    assert time.monotonic() - started < 30.0


def test_zero_attention_kernels_reduce_to_uniform_propagation():
    rng = np.random.default_rng(23)
    for trial in range(50):
        n = int(rng.integers(3, 31))
        relations = int(rng.integers(1, 5))
        g = _random_graph(rng, n, relations, 4)
        mode = "additive" if trial % 2 == 0 else "multiplicative"
        layer = RgatLayer(
            np.random.default_rng(1000 + trial),
            "lyr",
            4,
            3,
            1,
            relations,
            logit_mode=mode,
            norm_kind="wirgat",
            head_agg="concat",
            activation="relu",
            use_bias=True,
        )
        for name in layer.a_parameter_names():
            layer.params[name] = np.zeros_like(layer.params[name])

        tape = Tape()
        leaves = bind_params(tape, layer.params)
        h = tape.leaf(g.features)
        out = layer.forward(leaves, g.edges, n, h)
        # one head: relation r's kernel is row block r of the stacked W
        kernels = [slice_rows(leaves["lyr.w"], 4 * r, 4 * (r + 1)) for r in range(relations)]
        ref = rgcn_forward(
            g.edges, n, h, kernels, activation="relu", bias=leaves["lyr.bias"]
        )
        assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def _double_ring_node_task():
    n = 12
    feats = np.zeros((n, 3))
    for i in range(n):
        feats[i, 0] = 1.0 if i % 2 == 0 else -1.0
        feats[i, 1] = np.cos(0.5 * i)
        feats[i, 2] = np.sin(0.9 * i + 0.2)
    triples = [(0, i, (i + 1) % n) for i in range(n)]
    triples += [(1, i, (i - 1) % n) for i in range(n)]
    g = with_self_relation(build_graph(n, 2, triples, feats))
    labels = LabelSet(
        kind="node", num_classes=2, node_classes={i: i % 2 for i in range(n)}
    )
    split = Split(
        train=(0, 1, 2, 3, 4, 5), validation=(6, 7, 8), test=(9, 10, 11)
    )
    from relgat.graph import NodeTask

    return NodeTask(g, labels, split)


def test_constant_attention_evaluation_matches_uniform_propagation():
    task = _double_ring_node_task()
    g = task.graph
    config = NodeClassifierConfig(
        in_dim=3, num_relations=3, num_classes=2, hidden_units=4, heads=1
    )
    model = NodeClassifier(np.random.default_rng(5), config)
    train(model, task, TrainConfig(learning_rate=0.05, epochs=15, patience=15, seed=0))

    tape = Tape()
    leaves = bind_params(tape, model.params)
    feats = tape.leaf(g.features)
    probs = model.forward(leaves, g.edges, g.num_nodes, feats, constant=True)

    h1 = rgcn_forward(
        g.edges,
        g.num_nodes,
        feats,
        [slice_rows(leaves["layer1.w"], 3 * r, 3 * (r + 1)) for r in range(3)],
        activation="relu",
        bias=leaves["layer1.bias"],
    )
    h2 = rgcn_forward(
        g.edges,
        g.num_nodes,
        h1,
        [slice_rows(leaves["layer2.w"], 4 * r, 4 * (r + 1)) for r in range(3)],
        activation="identity",
        bias=leaves["layer2.bias"],
    )
    ref = row_softmax(h2)
    assert np.max(np.abs(probs.data - ref.data)) <= 1e-12


def test_node_classifier_gradients_match_central_differences():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 6, 3, 3)
    config = NodeClassifierConfig(
        in_dim=3,
        num_relations=3,
        num_classes=2,
        hidden_units=4,
        heads=2,
        logit_mode="additive",
        norm_kind="wirgat",
    )
    model = NodeClassifier(np.random.default_rng(4), config)
    ids = np.array([0, 2, 4])
    classes = np.array([0, 1, 0])

    def f(tape, leaves):
        feats = tape.leaf(g.features)
        probs = model.forward(leaves, g.edges, g.num_nodes, feats)
        return masked_cross_entropy(probs, ids, classes)

    err = grad_check(f, model.params, h=1e-5, kink_tol=1e-4)
    assert err <= 1e-4
    assert time.monotonic() - started < 120.0


def test_basis_decomposed_gradients_match_central_differences():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    g = _random_graph(rng, 6, 3, 3)
    config = NodeClassifierConfig(
        in_dim=3,
        num_relations=3,
        num_classes=2,
        hidden_units=4,
        heads=2,
        logit_mode="additive",
        norm_kind="wirgat",
        basis_w=2,
        basis_a=2,
    )
    model = NodeClassifier(np.random.default_rng(2), config)
    ids = np.array([0, 2, 4])
    classes = np.array([0, 1, 0])

    def f(tape, leaves):
        feats = tape.leaf(g.features)
        probs = model.forward(leaves, g.edges, g.num_nodes, feats)
        return masked_cross_entropy(probs, ids, classes)

    err = grad_check(f, model.params, h=1e-5, kink_tol=1e-4)
    assert err <= 1e-4
    assert time.monotonic() - started < 120.0


def test_graph_classifier_gradients_match_central_differences():
    started = time.monotonic()
    rng = np.random.default_rng(2)
    graphs = [_random_graph(rng, 5, 3, 3) for _ in range(2)]
    batch = batch_graphs(graphs)
    labels = np.array([[1, 0], [0, -1]])
    weights = inverse_frequency_weights(labels, 2)
    config = GraphClassifierConfig(
        feature_dim=3,
        num_relations=3,
        num_tasks=2,
        num_classes=2,
        graph_units=4,
        dense_units=4,
        heads=1,
        logit_mode="multiplicative",
        norm_kind="argat",
        attention_dim=2,
    )
    model = GraphClassifier(np.random.default_rng(3), config)

    def f(tape, leaves):
        feats = tape.leaf(batch.graph.features)
        probs = model.forward(
            leaves,
            batch.graph.edges,
            batch.graph.num_nodes,
            feats,
            batch.graph_segment,
            batch.graph_count,
        )
        return weighted_cross_entropy(probs, labels, weights)

    err = grad_check(f, model.params, h=1e-5, kink_tol=1e-4)
    assert err <= 1e-4
    assert time.monotonic() - started < 120.0


def test_identity_basis_coefficients_reproduce_unrestricted_kernels():
    rng = np.random.default_rng(9)
    relations, heads, in_dim, units = 3, 2, 4, 4
    per_head = units // heads
    g = _random_graph(rng, 8, relations, in_dim)

    plain = RgatLayer(
        np.random.default_rng(10),
        "u",
        in_dim,
        units,
        heads,
        relations,
        logit_mode="multiplicative",
        norm_kind="wirgat",
        attention_dim=2,
        head_agg="concat",
        activation="relu",
        use_bias=True,
    )
    slots = relations * heads
    based = RgatLayer(
        np.random.default_rng(11),
        "b",
        in_dim,
        units,
        heads,
        relations,
        logit_mode="multiplicative",
        norm_kind="wirgat",
        attention_dim=2,
        head_agg="concat",
        activation="relu",
        use_bias=True,
        basis_w=slots,
        basis_a=slots,
    )
    # slot k*R + r is row block k*R + r of a stacked kernel and row k*R + r
    # of the coefficients
    w_rows, a_rows = [], []
    for k in range(heads):
        for r in range(relations):
            w_rows.append(np.split(plain.params["u.w"], slots)[k * relations + r].reshape(-1))
            a_rows.append(np.split(plain.params["u.a"], slots)[k * relations + r].reshape(-1))
    based.params["b.w_basis"] = np.stack(w_rows)
    based.params["b.w_coeff"] = np.eye(slots)
    based.params["b.a_basis"] = np.stack(a_rows)
    based.params["b.a_coeff"] = np.eye(slots)
    for k in range(heads):
        np.split(based.params["b.bias"], heads)[k][:] = np.split(plain.params["u.bias"], heads)[k]

    def run(layer):
        tape = Tape()
        leaves = bind_params(tape, layer.params)
        h = tape.leaf(g.features)
        out = layer.forward(leaves, g.edges, g.num_nodes, h)
        grads = tape.backward(sum_squares(out))
        return out, leaves, grads, h

    out_u, leaves_u, grads_u, h_u = run(plain)
    out_b, leaves_b, grads_b, h_b = run(based)

    assert np.max(np.abs(out_u.data - out_b.data)) <= 1e-10
    assert np.max(np.abs(grads_u[h_u] - grads_b[h_b])) <= 1e-10
    for slot, (k, r) in enumerate(itertools.product(range(heads), range(relations))):
        dw = np.split(grads_u[leaves_u["u.w"]], slots)[k * relations + r].reshape(-1)
        da = np.split(grads_u[leaves_u["u.a"]], slots)[k * relations + r].reshape(-1)
        assert np.max(np.abs(grads_b[leaves_b["b.w_basis"]][slot] - dw)) <= 1e-10
        assert np.max(np.abs(grads_b[leaves_b["b.a_basis"]][slot] - da)) <= 1e-10
    for k in range(heads):
        dbu = np.split(grads_u[leaves_u["u.bias"]], heads)[k]
        dbb = np.split(grads_b[leaves_b["b.bias"]], heads)[k]
        assert np.max(np.abs(dbu - dbb)) <= 1e-10


def _planted_task():
    pairs = generate_planted(7, 100, 20, 4, feature_dim=4, noise_edges=60)
    graphs = tuple(with_self_relation(g) for g, _ in pairs)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    order = np.random.default_rng(7).permutation(100)
    split = Split(
        train=tuple(sorted(int(i) for i in order[:60])),
        validation=tuple(sorted(int(i) for i in order[60:80])),
        test=tuple(sorted(int(i) for i in order[80:])),
    )
    return GraphTask(graphs, labels, split)


@pytest.fixture(scope="module")
def planted_battery():
    task = _planted_task()
    g0 = task.graphs[0]
    rows = []
    for seed in range(5):
        started = time.monotonic()
        config = GraphClassifierConfig(
            feature_dim=g0.feature_dim,
            num_relations=g0.num_relations,
            num_tasks=1,
            num_classes=2,
            graph_units=16,
            dense_units=16,
            heads=2,
            logit_mode="multiplicative",
            norm_kind="argat",
        )
        model = GraphClassifier(np.random.default_rng(seed), config)
        result = train(
            model,
            task,
            TrainConfig(learning_rate=0.01, epochs=200, patience=60, seed=seed),
        )
        rows.append(
            {
                "train": evaluate(model, task, "train")["accuracy"],
                "test": evaluate(model, task, "test")["accuracy"],
                "constant": evaluate(model, task, "test", constant=True)["accuracy"],
                "epochs": result.epochs_run,
                "elapsed": time.monotonic() - started,
            }
        )
    return rows


def test_learned_attention_solves_the_planted_rule(planted_battery):
    for row in planted_battery:
        assert row["epochs"] <= 200
        assert row["elapsed"] < 120.0
    strong = [
        row for row in planted_battery if row["train"] >= 0.95 and row["test"] >= 0.85
    ]
    assert len(strong) >= 4


def test_constant_attention_scores_lower_on_held_out_graphs(planted_battery):
    lower = [row for row in planted_battery if row["constant"] < row["test"]]
    assert len(lower) >= 4


def _brute_force_p(x, y):
    pooled = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
    ranks = midranks(pooled)
    nx = len(x)
    observed = ranks[:nx].sum() - nx * (nx + 1) / 2.0
    total = 0
    favourable = 0
    for combo in itertools.combinations(range(len(pooled)), nx):
        u = ranks[list(combo)].sum() - nx * (nx + 1) / 2.0
        total += 1
        if u >= observed - 1e-9:
            favourable += 1
    return observed, favourable / total


def test_exact_rank_test_matches_enumeration_for_small_samples():
    rng = np.random.default_rng(31)
    for n in range(2, 11):
        for nx in range(1, n):
            ny = n - nx
            cases = [rng.integers(0, 5, size=n).astype(float) for _ in range(3)]
            cases.append(rng.permutation(np.arange(n, dtype=float)))
            for pooled in cases:
                x, y = pooled[:nx], pooled[nx:]
                result = mann_whitney_u(x, y, method="exact")
                u_ref, p_ref = _brute_force_p(x, y)
                assert result.u == u_ref
                assert result.p_value == p_ref


def test_worked_rank_example_is_exact():
    result = mann_whitney_u([5.0, 6.0, 7.0], [1.0, 2.0, 3.0], method="exact")
    assert result.u == 9.0
    assert result.p_value == 0.05


def test_empirical_cdf_is_monotone_bounded_and_right_continuous():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        size = int(rng.integers(1, 31))
        values = np.round(rng.normal(size=size) * 3.0, 1)
        cdf = empirical_cdf(values)
        lo, hi = values.min(), values.max()
        grid = np.sort(
            np.concatenate([values, values - 0.05, values + 0.05, [lo - 1.0, hi + 1.0]])
        )
        ys = np.asarray(cdf(grid))
        assert np.all(np.diff(ys) >= 0.0)
        assert np.all((ys >= 0.0) & (ys <= 1.0))
        assert cdf(lo - 1.0) == 0.0
        assert cdf(hi) == 1.0
        for point in values:
            assert cdf(point) == np.mean(values <= point)


def test_priors_stay_in_support_with_expected_statistics():
    rng = np.random.default_rng(53)
    draws = 10_000
    for space in (transductive_space(), inductive_space()):
        for name, prior in space.items():
            samples = [prior.sample(rng) for _ in range(draws)]
            assert all(prior.contains(s) for s in samples)
            if isinstance(prior, OneOf):
                expected = 1.0 / len(prior.options)
                for option in prior.options:
                    freq = sum(1 for s in samples if s == option) / draws
                    assert abs(freq - expected) <= 0.02, (name, option, freq)
            if isinstance(prior, LogUniform):
                median = float(np.median([float(s) for s in samples]))
                midpoint = math.sqrt(prior.low * prior.high)
                assert midpoint / 2.0 <= median <= midpoint * 2.0, (name, median)


def test_reference_targets_are_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    for needle in ("95.83", "0.62", "73.23", "0.838", "0.837", "0.802", "0.829"):
        assert needle in text
    assert "Reproduction" in text
    assert "standard deviation" in text
