"""Graph data model: canonical edges, document round trips, batching, and
the synthetic benchmark generator."""

import copy
import gc
import json
import pickle
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgat.graph import (
    MARKER_NODE,
    READOUT_NODE,
    GraphFormatError,
    GraphTask,
    LabelSet,
    NodeTask,
    RelGraph,
    Split,
    batch_graphs,
    build_graph,
    generate_planted,
    parse_dataset,
    parse_graph,
    serialize_dataset,
    serialize_graph,
    with_self_relation,
)
from relgat.layers import EdgePlan
from relgat.models import GraphClassifier, GraphClassifierConfig, bind_params
from relgat.tensor import SegmentPlan, Tape, Tensor


def _features(n, f, seed=0):
    return np.random.default_rng(seed).normal(size=(n, f))


def test_edges_canonicalized_regardless_of_input_order():
    triples = [[1, 2, 0], [0, 1, 2], [0, 1, 0], [1, 0, 3]]
    a = build_graph(4, 2, triples, _features(4, 3))
    b = build_graph(4, 2, list(reversed(triples)), _features(4, 3))
    for (ta, sa), (tb, sb) in zip(a.edges, b.edges):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    t0, s0 = a.edges[0]
    assert list(t0) == [1, 1] and list(s0) == [0, 2]


def test_graphs_and_labels_compare_their_arrays_by_value():
    triples = [[0, 1, 2], [0, 1, 3], [0, 2, 0], [1, 0, 1], [1, 3, 2]]
    a, b = (build_graph(4, 2, triples, _features(4, 3)) for _ in range(2))
    a.edge_plan("wirgat")  # the plan memo is no field
    assert a == b and b == a and not a != b
    assert a != build_graph(4, 2, triples[:-1], _features(4, 3))
    assert a != build_graph(4, 2, triples, _features(4, 3, seed=1))
    assert a != build_graph(4, 2, triples, one_hot=True)
    assert a != with_self_relation(a) and a != a.edges
    assert batch_graphs([a, b]) == batch_graphs([b, a])
    assert batch_graphs([a, b]) != batch_graphs([a])

    def graph_labels(classes, weights=None):
        return LabelSet(
            kind="graph",
            num_classes=2,
            num_tasks=2,
            graph_classes=np.array(classes),
            class_weights=None if weights is None else np.array(weights, dtype=float),
        )

    classes = [[0, 1], [1, -1], [1, 0]]
    assert graph_labels(classes) == graph_labels(classes)
    assert graph_labels(classes) != graph_labels([[0, 1], [1, 0], [1, 0]])
    assert graph_labels(classes) != graph_labels(classes[:2])
    assert graph_labels(classes, [[1, 2], [3, 4]]) == graph_labels(classes, [[1, 2], [3, 4]])
    assert graph_labels(classes, [[1, 2], [3, 4]]) != graph_labels(classes, [[1, 2], [3, 5]])
    assert graph_labels(classes, [[1, 2], [3, 4]]) != graph_labels(classes)
    node = LabelSet(kind="node", num_classes=2, node_classes={0: 1, 2: 0})
    assert node == LabelSet(kind="node", num_classes=2, node_classes={2: 0, 0: 1})
    assert node != LabelSet(kind="node", num_classes=2, node_classes={0: 1, 2: 1})


def test_graphs_batches_and_label_sets_are_unhashable_as_their_arrays_are():
    g = build_graph(3, 1, [[0, 1, 2], [0, 2, 1]], _features(3, 2))
    labels = LabelSet(kind="graph", num_classes=2, graph_classes=np.array([[0]]))
    for value, name in ((g, "RelGraph"), (batch_graphs([g]), "BatchedGraph"), (labels, "LabelSet")):
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(value)
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            value in set()


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        build_graph(3, 1, [[0, 1, 2], [0, 1, 2]], _features(3, 2))


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphFormatError):
        build_graph(3, 1, [[0, 1, 3]], _features(3, 2))
    with pytest.raises(GraphFormatError):
        build_graph(3, 1, [[1, 0, 0]], _features(3, 2))


def _reference_edges(num_relations, triples):
    # canonical form the plain way: a sorted set of tuples, split by relation
    edges = sorted(set(map(tuple, triples)))
    return [
        tuple(np.array([e[i] for e in edges if e[0] == r], dtype=np.int64) for i in (1, 2))
        for r in range(num_relations)
    ]


def _assert_canonical(edges, want):
    assert len(edges) == len(want)
    for pair, want_pair in zip(edges, want):
        for got, w in zip(pair, want_pair):
            assert got.dtype == np.int64 and got.ndim == 1 and not got.flags.writeable
            assert got.tobytes() == w.tobytes()


def _shuffled_triples(data, num_nodes, num_relations, max_size=30):
    # distinct random triples in random order, and perhaps one of them
    # again; returns the triples and the repeated one (or None)
    triple = st.tuples(
        st.integers(0, num_relations - 1), st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
    )
    triples = list(data.draw(st.permutations(data.draw(st.lists(triple, unique=True, max_size=max_size)))))
    duplicate = None
    if triples and data.draw(st.booleans()):
        duplicate = data.draw(st.sampled_from(triples))
        triples.insert(data.draw(st.integers(0, len(triples))), duplicate)
    return triples, duplicate


# 3e9 nodes: a flat (relation·n + target)·n + source key wraps int64 from 2 relations on
@settings(deadline=None, max_examples=200)
@given(st.data())
def test_built_edges_equal_a_sorted_set_of_tuples(data):
    num_nodes = data.draw(st.sampled_from([1, 2, 5, 3_000_000_000]))
    num_relations = data.draw(st.integers(1, 4))
    triples, duplicate = _shuffled_triples(data, num_nodes, num_relations)
    if duplicate is not None:
        with pytest.raises(GraphFormatError, match=re.escape(f"duplicate edge {duplicate}")):
            build_graph(num_nodes, num_relations, triples, one_hot=True)
        return
    g = build_graph(num_nodes, num_relations, [list(t) for t in triples], one_hot=True)
    _assert_canonical(g.edges, _reference_edges(num_relations, triples))
    assert list(map(list, g.edge_triples())) == sorted(map(list, triples))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_batched_edges_equal_a_sorted_set_of_shifted_tuples(data):
    num_relations = data.draw(st.integers(1, 3))
    members, shifted, offset = [], [], 0
    for _ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.integers(1, 5))
        triples, _ = _shuffled_triples(data, n, num_relations, max_size=12)
        # a directly built member: nothing sorts or checks its edges
        edges = tuple(
            tuple(np.array([e[i] for e in triples if e[0] == r], dtype=np.int64) for i in (1, 2))
            for r in range(num_relations)
        )
        members.append(RelGraph(n, num_relations, edges, _features(n, 2), 2))
        shifted += [(r, t + offset, s + offset) for r, t, s in triples]
        offset += n
    repeated = [e for e in shifted if shifted.count(e) > 1]
    if repeated:
        # the first duplicate in canonical order is named
        first = min(repeated)
        with pytest.raises(GraphFormatError, match=re.escape(f"duplicate edge {first}")):
            batch_graphs(members)
        return
    _assert_canonical(batch_graphs(members).graph.edges, _reference_edges(num_relations, shifted))


def test_edges_whose_flat_key_would_overflow_keep_their_relation():
    n = 3_000_000_000  # 2 relations · n² > 2**63
    triples = [[1, n - 1, 0], [0, n - 1, n - 1], [1, 0, n - 1], [0, 0, 0]]
    g = build_graph(n, 2, triples, one_hot=True)
    assert g.edges[0][0].tolist() == [0, n - 1] and g.edges[0][1].tolist() == [0, n - 1]
    assert g.edges[1][0].tolist() == [0, n - 1] and g.edges[1][1].tolist() == [n - 1, 0]
    assert list(map(list, g.edge_triples())) == sorted(triples)
    with pytest.raises(GraphFormatError, match=re.escape(f"duplicate edge (1, {n - 1}, 0)")):
        build_graph(n, 2, triples + [[1, n - 1, 0]], one_hot=True)


def test_edge_entries_convert_as_int_does():
    # floats truncate toward zero, numeric strings and booleans are ids
    mixed = [[0, 1.9, "2"], [True, " 3 ", -0.5], [0.0, False, 2], ("1", 2.0, 3)]
    plain = [[int(v) for v in e] for e in mixed]
    g = build_graph(4, 2, mixed, one_hot=True)
    assert g == build_graph(4, 2, plain, one_hot=True)
    assert g == build_graph(4, 2, iter(map(tuple, plain)), one_hot=True)
    assert g == build_graph(4, 2, np.array(plain), one_hot=True)


@pytest.mark.parametrize(
    "edges",
    [7, None, [5], [[0, 1]], [[0, 1, 2, 3]], [[0, None, 1]], [[0, [1], 2]], [[0, 1, 2], [0, 1]],
     [[0, float("nan"), 1]], [[0, float("inf"), 1]], [[0, 2**70, 1]], [[0, "x", 1]], [[]], "012"],
)
def test_a_malformed_edge_list_raises_a_format_error(edges):
    with pytest.raises(GraphFormatError, match=re.escape("edges must be [relation, target, source]")):
        build_graph(4, 2, edges, one_hot=True)


@pytest.mark.parametrize("edges", [7, None, "", "012", {}, {"0": [0, 1, 2]}])
def test_a_document_whose_edges_are_not_a_list_raises_a_format_error(edges):
    doc = {"num_nodes": 4, "num_relations": 2, "features": [[0.0]] * 4, "edges": edges}
    with pytest.raises(GraphFormatError, match=re.escape("edges must be [relation, target, source]")):
        parse_dataset(doc)


def test_built_edges_hold_no_relation_column():
    # every parsed document is in canonical order, so nothing is sorted and
    # each edge array is a slice of a target or source column alone
    g = build_graph(5, 3, [[r, t, (t + r) % 5] for r in range(3) for t in range(5)], _features(5, 2))
    parsed, _, _ = parse_graph(serialize_graph(g))
    for graph in (g, parsed, batch_graphs([g, g]).graph):
        for pair in graph.edges:
            for half in pair:
                assert half.base is None or half.base.size <= graph.num_edges


def test_an_out_of_range_edge_is_named():
    with pytest.raises(GraphFormatError, match=re.escape("edge (2, 0, 1) out of range")):
        build_graph(3, 2, [[0, 1, 2], [2, 0, 1]], _features(3, 2))
    with pytest.raises(GraphFormatError, match=re.escape("edge (0, 1, -1) out of range")):
        build_graph(3, 2, [[0, 1, -1], [0, 3, 0]], _features(3, 2))
    with pytest.raises(GraphFormatError, match=re.escape("edge (-1, 0, 0) out of range")):
        build_graph(3, 2, [[0, 1, 2], [-1, 0, 0]], _features(3, 2))


def test_edge_triples_are_the_documents_lists():
    g = build_graph(4, 2, [[1, 2, 0], [0, 1, 2], [0, 3, 1]], _features(4, 3))
    assert g.edge_triples() == [[0, 1, 2], [0, 3, 1], [1, 2, 0]]
    assert json.loads(serialize_graph(g))["edges"] == g.edge_triples()
    assert all(type(v) is int for e in g.edge_triples() for v in e)
    assert build_graph(2, 3, [], _features(2, 1)).edge_triples() == []


def test_a_collection_whose_graphs_are_not_a_list_raises_a_format_error():
    for graphs in (5, None, "graphs", {"0": {}}):
        with pytest.raises(GraphFormatError, match='"graphs" must be a list'):
            parse_dataset({"graphs": graphs})


def test_feature_shape_mismatch_rejected():
    with pytest.raises(GraphFormatError, match="dimension mismatch"):
        build_graph(3, 1, [[0, 0, 1]], _features(2, 2))


def test_serialize_parse_roundtrip_is_canonical():
    g = build_graph(4, 2, [[1, 2, 0], [0, 1, 2], [0, 3, 1]], _features(4, 3))
    doc = serialize_graph(g)
    parsed, labels, split = parse_graph(doc)
    assert labels is None and split is None
    assert serialize_graph(parsed) == doc
    # shuffled triples serialize to the identical document
    g2 = build_graph(4, 2, [[0, 3, 1], [1, 2, 0], [0, 1, 2]], _features(4, 3))
    assert serialize_graph(g2) == doc


def test_one_hot_graph_roundtrip():
    g = build_graph(5, 1, [[0, 1, 0]], one_hot=True)
    assert g.one_hot_features and g.feature_dim == 5 and g.features is None
    parsed, _, _ = parse_graph(serialize_graph(g))
    assert parsed.one_hot_features and parsed.feature_dim == 5


def test_node_task_document_shape_counts():
    # dataset-scale header: many entities, many relations, typed split
    rng = np.random.default_rng(42)
    n, r, m = 8285, 45, 29043
    codes = rng.choice(r * n * n, size=m + 2000, replace=False)
    rel = codes % r
    tgt = (codes // r) % n
    src = codes // (r * n)
    triples = list({(int(a), int(b), int(c)) for a, b, c in zip(rel, tgt, src)})[:m]
    labelled = rng.choice(n, size=176, replace=False)
    classes = {int(i): int(rng.integers(4)) for i in labelled}
    g = build_graph(n, r, triples, one_hot=True)
    labels = LabelSet(kind="node", num_classes=4, node_classes=classes)
    parts = [int(v) for v in labelled]
    split = Split(
        train=tuple(parts[:112]), validation=tuple(parts[112:140]), test=tuple(parts[140:])
    )
    task = NodeTask(g, labels, split)
    doc = serialize_dataset(task)
    back = parse_dataset(doc)
    assert back.graph.num_nodes == 8285
    assert back.graph.num_relations == 45
    assert back.graph.num_edges == 29043
    assert len(back.labels.node_classes) == 176
    assert back.labels.num_classes == 4
    assert (len(back.split.train), len(back.split.validation), len(back.split.test)) == (
        112,
        28,
        36,
    )
    assert serialize_dataset(back) == doc


def test_split_rejects_an_id_repeated_within_a_part():
    with pytest.raises(GraphFormatError, match="split 'validation' lists id 3 more than once"):
        Split(train=(0,), validation=(3, 2, 3, 2), test=())


def test_split_rejects_overlap_and_unlabelled():
    with pytest.raises(GraphFormatError, match="disjoint"):
        Split(train=(0, 1), validation=(1,), test=())
    g = build_graph(3, 1, [[0, 0, 1]], _features(3, 2))
    labels = LabelSet(kind="node", num_classes=2, node_classes={0: 1})
    doc = json.loads(serialize_dataset(NodeTask(g, labels, Split((0,), (), ()))))
    doc["splits"]["train"] = [2]  # node 2 carries no label
    with pytest.raises(GraphFormatError, match="labelled"):
        parse_dataset(json.dumps(doc))


def test_label_validation():
    with pytest.raises(GraphFormatError):
        LabelSet(kind="node", num_classes=2, node_classes={0: 5})
    with pytest.raises(GraphFormatError):
        LabelSet(kind="nonsense", num_classes=2, node_classes={})
    with pytest.raises(GraphFormatError):
        LabelSet(
            kind="graph",
            num_classes=2,
            num_tasks=2,
            graph_classes=np.array([[0, 1, 1]]),
        )


def test_with_self_relation_appends_identity():
    g = build_graph(3, 1, [[0, 0, 1]], _features(3, 2))
    aug = with_self_relation(g)
    assert aug.num_relations == 2 and aug.self_relation
    t, s = aug.edges[1]
    assert list(t) == [0, 1, 2] and list(s) == [0, 1, 2]
    with pytest.raises(GraphFormatError, match="already"):
        with_self_relation(aug)


def test_self_relation_document_round_trip():
    plain = build_graph(3, 1, [[0, 0, 1]], _features(3, 2))
    assert "self_relation" not in serialize_graph(plain)
    for g in (with_self_relation(plain), with_self_relation(build_graph(3, 1, [], one_hot=True))):
        doc = serialize_graph(g)
        assert json.loads(doc)["self_relation"] is True
        parsed, _, _ = parse_graph(doc)
        assert parsed.self_relation and parsed.num_relations == 2
        assert serialize_graph(parsed) == doc
    pairs = generate_planted(3, 4, 5, 3, feature_dim=2, noise_edges=2)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    task = GraphTask(
        tuple(with_self_relation(g) for g, _ in pairs), labels, Split((0, 1), (2,), (3,))
    )
    back = parse_dataset(serialize_dataset(task))
    assert all(g.self_relation for g in back.graphs)
    assert serialize_dataset(back) == serialize_dataset(task)


def test_self_relation_document_must_end_in_identity_relation():
    doc = json.loads(serialize_graph(with_self_relation(build_graph(3, 1, [[0, 0, 1]], _features(3, 2)))))
    for edges in (
        [[0, 0, 1], [1, 0, 0], [1, 1, 1]],  # node 2 has no self edge
        [[0, 0, 1], [1, 0, 0], [1, 1, 1], [1, 2, 2], [1, 2, 0]],  # an extra edge
        [[1, 0, 1], [0, 0, 0], [0, 1, 1], [0, 2, 2]],  # identity stored first
    ):
        with pytest.raises(GraphFormatError, match="self relation"):
            parse_graph(dict(doc, edges=edges))
    with pytest.raises(GraphFormatError, match="self_relation"):
        parse_graph(dict(doc, self_relation=1))
    with pytest.raises(GraphFormatError, match="self relation"):
        build_graph(2, 1, [[0, 0, 1]], _features(2, 2), self_relation=True)


def test_batch_graphs_offsets_and_segments():
    g1 = build_graph(2, 2, [[0, 1, 0]], _features(2, 3, 1))
    g2 = build_graph(3, 2, [[1, 2, 0], [0, 0, 1]], _features(3, 3, 2))
    batch = batch_graphs([g1, g2])
    assert batch.graph_count == 2
    assert batch.graph.num_nodes == 5
    assert list(batch.graph_segment) == [0, 0, 1, 1, 1]
    t0, s0 = batch.graph.edges[0]
    assert list(t0) == [1, 2] and list(s0) == [0, 3]
    t1, s1 = batch.graph.edges[1]
    assert list(t1) == [4] and list(s1) == [2]
    assert np.array_equal(batch.graph.features[:2], g1.features)
    assert np.array_equal(batch.graph.features[2:], g2.features)


def test_batch_graphs_rejects_mismatches():
    g1 = build_graph(2, 1, [], _features(2, 3))
    g2 = build_graph(2, 2, [], _features(2, 3))
    with pytest.raises(GraphFormatError, match="relation-count mismatch"):
        batch_graphs([g1, g2])
    g3 = build_graph(2, 1, [], _features(2, 4))
    with pytest.raises(GraphFormatError):
        batch_graphs([g1, g3])


def _direct_member(targets, sources):
    # bypasses build_graph, so nothing has checked or sorted these edges
    edges = (
        (np.array(targets, dtype=np.int64), np.array(sources, dtype=np.int64)),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    )
    return RelGraph(3, 2, edges, _features(3, 2, 1), 2)


def test_batch_graphs_checks_directly_built_members():
    good = build_graph(3, 2, [[0, 1, 0]], _features(3, 2))
    # node 3 of the first member would land on node 0 of the second
    with pytest.raises(GraphFormatError, match="out of range"):
        batch_graphs([_direct_member([0], [3]), good])
    with pytest.raises(GraphFormatError, match="out of range"):
        batch_graphs([good, _direct_member([-1], [0])])
    with pytest.raises(GraphFormatError, match="duplicate"):
        batch_graphs([good, _direct_member([1, 1], [2, 2])])
    merged = batch_graphs([good, _direct_member([2, 0], [0, 1])]).graph
    t0, s0 = merged.edges[0]
    assert list(t0) == [1, 3, 5] and list(s0) == [0, 4, 3]


def test_batch_graphs_equals_a_canonical_merge_bitwise():
    graphs = [with_self_relation(g) for g, _ in generate_planted(3, 5, 6, 4, 2, noise_edges=7)]
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    triples = [
        [r, t + int(o), s + int(o)] for g, o in zip(graphs, offsets) for r, t, s in g.edge_triples()
    ]
    want = build_graph(int(offsets[-1]), graphs[0].num_relations, triples, _features(30, 2))
    # canonical members skip the sort; members listing their edges in
    # reverse go through it, and both must give the canonical merge
    listed_backwards = [
        replace(g, edges=tuple((t[::-1].copy(), s[::-1].copy()) for t, s in g.edges)) for g in graphs
    ]
    for members in (graphs, listed_backwards):
        merged = batch_graphs(members).graph
        for (t, s), (wt, ws) in zip(merged.edges, want.edges):
            assert t.dtype == wt.dtype and t.tobytes() == wt.tobytes()
            assert s.dtype == ws.dtype and s.tobytes() == ws.tobytes()


@pytest.mark.parametrize(
    "logit_mode, norm_kind", [("additive", "wirgat"), ("multiplicative", "argat")]
)
@pytest.mark.parametrize("constant", [False, True])
def test_batched_forward_matches_per_graph_forward(logit_mode, norm_kind, constant):
    pairs = generate_planted(5, 6, 7, 4, feature_dim=3, noise_edges=8)
    graphs = [with_self_relation(g) for g, _ in pairs]
    config = GraphClassifierConfig(
        feature_dim=3,
        num_relations=5,
        num_tasks=2,
        num_classes=3,
        graph_units=8,
        dense_units=6,
        heads=2,
        logit_mode=logit_mode,
        norm_kind=norm_kind,
    )
    model = GraphClassifier(np.random.default_rng(0), config)

    def probs(members):
        batch = batch_graphs(members)
        g = batch.graph
        tape = Tape()
        return model.forward(
            bind_params(tape, model.params),
            g.edges,
            g.num_nodes,
            tape.leaf(g.features),
            batch.graph_segment,
            batch.graph_count,
            constant=constant,
        ).data

    together = probs(graphs)
    apart = np.concatenate([probs([g]) for g in graphs])
    assert together.shape == (6 * 2, 3)
    assert np.allclose(together, apart, rtol=0.0, atol=1e-12)


def test_generate_planted_structure():
    pairs = generate_planted(0, 40, 12, 4, feature_dim=5, noise_edges=10)
    labels = [y for _, y in pairs]
    assert len(pairs) == 40
    assert sum(labels) == 20  # balanced
    for g, y in pairs:
        assert g.num_nodes == 12 and g.num_relations == 4
        signal_rel = 0 if y else 1
        t, s = g.edges[signal_rel]
        assert (READOUT_NODE, MARKER_NODE) in set(zip(t.tolist(), s.tolist()))
        other = g.edges[1 - signal_rel]
        assert (READOUT_NODE, MARKER_NODE) not in set(
            zip(other[0].tolist(), other[1].tolist())
        )
    # the marker/readout feature offsets show up on corpus-level averages
    marker0 = np.mean([g.features[MARKER_NODE, 0] for g, _ in pairs])
    readout1 = np.mean([g.features[READOUT_NODE, 1] for g, _ in pairs])
    rest0 = np.mean([g.features[2:, 0].mean() for g, _ in pairs])
    assert marker0 > rest0 + 1.0
    assert readout1 > 1.0


def test_generate_planted_deterministic():
    a = generate_planted(7, 10, 8, 4, feature_dim=3, noise_edges=5)
    b = generate_planted(7, 10, 8, 4, feature_dim=3, noise_edges=5)
    for (ga, ya), (gb, yb) in zip(a, b):
        assert ya == yb
        assert serialize_graph(ga) == serialize_graph(gb)


def _planted_one_edge_at_a_time(seed, n_graphs, nodes, relations, feature_dim, noise_edges):
    # the generator's reference: three scalar draws per noise edge, one edge
    # at a time, until the graph holds noise_edges + 1 distinct edges
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_graphs, dtype=np.int64)
    labels[: n_graphs // 2] = 1
    labels = rng.permutation(labels)
    out = []
    for label in labels.tolist():
        triples = {(0 if label == 1 else 1, READOUT_NODE, MARKER_NODE)}
        while len(triples) <= noise_edges:
            r = 2 + int(rng.integers(relations - 2))
            triples.add((r, int(rng.integers(nodes)), int(rng.integers(nodes))))
        features = rng.normal(size=(nodes, feature_dim))
        features[MARKER_NODE, 0] += 2.0
        features[READOUT_NODE, 1] += 2.0
        out.append((build_graph(nodes, relations, triples, features), label))
    return out


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param((5, 8, 6, 3, 3, 10), id="three-relations"),
        pytest.param((6, 5, 5, 4, 2, 0), id="no-noise"),
        pytest.param((7, 12, 6, 3, 2, 18), id="half-capacity"),
        pytest.param((1, 100, 20, 4, 4, 60), id="planted-graph"),
        pytest.param((2, 60, 16, 4, 4, 40), id="sweep-p2"),
    ],
)
def test_generate_planted_draws_what_one_edge_at_a_time_would(shape):
    # the batched draws must read the generator's stream exactly as the
    # scalar loop does; a numpy release that changes it fails here first
    got, want = generate_planted(*shape), _planted_one_edge_at_a_time(*shape)
    assert [y for _, y in got] == [y for _, y in want]
    assert [serialize_graph(g) for g, _ in got] == [serialize_graph(g) for g, _ in want]


def test_generate_planted_guards():
    with pytest.raises(ValueError, match="degenerate"):
        generate_planted(0, 4, 1, 4, feature_dim=2, noise_edges=0)
    with pytest.raises(ValueError):
        generate_planted(0, 4, 8, 2, feature_dim=2, noise_edges=5)  # no noise room
    with pytest.raises(ValueError):
        generate_planted(0, 4, 3, 3, feature_dim=2, noise_edges=100)  # over capacity


def test_graph_dataset_roundtrip():
    pairs = generate_planted(3, 6, 5, 3, feature_dim=2, noise_edges=2)
    graphs = tuple(g for g, _ in pairs)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    split = Split(train=(0, 1, 2), validation=(3,), test=(4, 5))
    doc = serialize_dataset(GraphTask(graphs, labels, split))
    back = parse_dataset(doc)
    assert isinstance(back, GraphTask)
    assert len(back.graphs) == 6
    assert np.array_equal(back.labels.graph_classes, labels.graph_classes)
    assert serialize_dataset(back) == doc


def test_task_document_requires_labels_and_splits():
    g = build_graph(2, 1, [], _features(2, 2))
    with pytest.raises(GraphFormatError, match="labels and splits"):
        parse_dataset(serialize_graph(g))


def _plan_leaves(obj):
    # every value a plan holds, walking its slots, lists and tuples
    if isinstance(obj, (EdgePlan, SegmentPlan)):
        for name in type(obj).__slots__:
            yield from _plan_leaves(getattr(obj, name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _plan_leaves(item)
    else:
        yield obj


def _planned_graph():
    triples = [[0, 1, 2], [0, 1, 3], [1, 0, 1], [0, 2, 0]] + [[1, 1, s] for s in range(12)]
    return with_self_relation(build_graph(14, 2, triples, _features(14, 3)))


def test_an_edge_plan_memo_holds_integer_arrays_only():
    g = _planned_graph()
    for kind in ("wirgat", "argat"):
        plan = g.edge_plan(kind)
        assert g.edge_plan(kind) is plan
        plan.targets.runs()  # the lazily built part too
        for value in _plan_leaves(plan):
            assert not isinstance(value, (Tensor, Tape))
            if isinstance(value, np.ndarray):
                assert value.dtype.kind == "i", value.dtype
            else:
                assert value is None or isinstance(value, (int, str)), type(value)


def test_a_graph_and_its_memo_are_freed_together():
    gc.collect()
    gc.disable()
    try:
        g = _planned_graph()
        plan = g.edge_plan("wirgat")
        plan.targets.runs()
        refs = [weakref.ref(g), weakref.ref(plan.target_rows), weakref.ref(plan.targets.ids)]
        del g, plan
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_an_edge_plan_memo_changes_no_observable_of_the_graph():
    g, twin = _planned_graph(), _planned_graph()
    before = (repr(g), serialize_graph(g), pickle.dumps(g))
    g.edge_plan("wirgat")
    g.edge_plan("argat")
    assert (repr(g), serialize_graph(g), pickle.dumps(g)) == before
    assert repr(replace(g)) == repr(twin)
    assert "_plans" not in vars(replace(g))
    assert "_plans" not in vars(pickle.loads(pickle.dumps(g)))
    # == compares the fields; one edge and no feature matrix keep numpy's
    # elementwise comparisons down to one truth value
    a, b = (build_graph(1, 1, [[0, 0, 0]], one_hot=True) for _ in range(2))
    a.edge_plan("wirgat")
    assert a == b and b == a


def _small_task(validation=(2,)):
    pairs = generate_planted(3, 6, 5, 3, feature_dim=2, noise_edges=2)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    graphs = tuple(with_self_relation(g) for g, _ in pairs)
    return GraphTask(graphs, labels, Split((0, 1, 5), validation, (3, 4)))


def test_a_task_keeps_one_batch_per_split():
    task = _small_task()
    train, test = task.batch("train"), task.batch("test")
    assert task.batch("train") is train and task.batch("test") is test
    assert list(vars(task)["_batches"]) == ["train", "test"]
    assert train == batch_graphs([task.graphs[i] for i in (0, 1, 5)])
    assert test == batch_graphs([task.graphs[i] for i in (3, 4)])
    # the merged graph keeps its own plan, so a kept batch keeps it too
    plan = train.graph.edge_plan("argat")
    assert task.batch("train").graph.edge_plan("argat") is plan


def test_a_kept_batch_changes_no_observable_of_the_task():
    task, twin = _small_task(), _small_task()
    before = (repr(task), serialize_dataset(task), pickle.dumps(task))
    for split in ("train", "validation", "test"):
        task.batch(split)
    assert (repr(task), serialize_dataset(task), pickle.dumps(task)) == before
    assert task == twin and twin == task
    assert repr(replace(task)) == repr(twin)
    for other in (replace(task), pickle.loads(pickle.dumps(task)), copy.copy(task), copy.deepcopy(task)):
        assert "_batches" not in vars(other)
        assert other == task


def test_kept_class_weights_change_no_observable_of_the_task():
    task, twin = _small_task(), _small_task()
    before = (repr(task), serialize_dataset(task), pickle.dumps(task))
    two, three = task.class_weights(2), task.class_weights(3)
    assert task.class_weights(2) is two and task.class_weights(3) is three
    assert two.shape == (1, 2) and three.shape == (1, 3)
    assert not two.flags.writeable and not three.flags.writeable
    assert (repr(task), serialize_dataset(task), pickle.dumps(task)) == before
    assert task == twin
    for other in (replace(task), pickle.loads(pickle.dumps(task)), copy.copy(task), copy.deepcopy(task)):
        assert "_weights" not in vars(other)
        assert other.class_weights(2).tobytes() == two.tobytes()


def test_a_tasks_own_class_weights_are_used_as_given():
    task = _small_task()
    weights = np.array([[0.25, 4.0]])
    weighted = GraphTask(task.graphs, replace(task.labels, class_weights=weights), task.split)
    assert np.array_equal(weighted.class_weights(2), weights)
    assert "_weights" not in vars(weighted)


def test_batching_an_empty_or_unknown_split_raises_and_keeps_nothing():
    task = _small_task(validation=())
    with pytest.raises(ValueError, match="nothing to batch"):
        task.batch("validation")
    with pytest.raises(ValueError, match="unknown split part"):
        task.batch("dev")
    assert not vars(task).get("_batches")
