"""Tape autodiff: frozen forward values, hand-derived gradients, and the
structural guarantees (id ordering, single-visit backward, finite checks)."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relgat.tensor
from relgat.tensor import (
    KinkError,
    SegmentPlan,
    Tape,
    add,
    block_matmul,
    concat_cols,
    concat_rows,
    edge_attention,
    edge_messages,
    gather_rows,
    grad_check,
    leaky_relu,
    log,
    matmul,
    mul,
    relu,
    reshape,
    row_softmax,
    rowsum,
    scale_rows,
    segment_mean_max,
    segment_reduce,
    segment_softmax,
    slice_rows,
    sum_all,
    sum_blocks,
    sum_squares,
    tanh,
)
from relgat.tensor import (
    _NETWORKS,
    _runs,
    _run_stats,
    _sort_by_segment_and_value,
    _sort_lanes,
    _sorted_sums,
)


def test_leaf_ids_strictly_increase():
    tape = Tape()
    ids = [tape.leaf(np.zeros(2)).id for _ in range(5)]
    out = mul(tape.leaf(np.ones(2)), 1.0)
    assert ids == sorted(ids) and len(set(ids)) == 5
    assert out.id > ids[-1]


def test_leaf_rejects_non_finite_and_3d():
    tape = Tape()
    with pytest.raises(OverflowError):
        tape.leaf([np.inf, 1.0])
    with pytest.raises(ValueError):
        tape.leaf(np.zeros((2, 2, 2)))


def test_matmul_forward_and_backward_hand_values():
    tape = Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = tape.leaf([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
    grads = tape.backward(sum_all(out))
    # d/dA sum(AB) = ones @ B^T, d/dB = A^T @ ones
    assert np.array_equal(grads[a], [[11.0, 15.0], [11.0, 15.0]])
    assert np.array_equal(grads[b], [[4.0, 4.0], [6.0, 6.0]])


def test_bias_broadcast_gradient_sums_rows():
    tape = Tape()
    m = tape.leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = tape.leaf([10.0, 20.0])
    grads = tape.backward(sum_all(add(m, b)))
    assert np.array_equal(grads[b], [3.0, 3.0])
    assert np.array_equal(grads[m], np.ones((3, 2)))


def test_leaky_relu_frozen_value():
    # slope 0.2 on -0.2 gives exactly -0.04
    tape = Tape()
    x = tape.leaf([-0.2, 0.3])
    out = leaky_relu(x, 0.2)
    assert out.data[0] == pytest.approx(-0.04, abs=1e-15)
    assert out.data[1] == 0.3
    grads = tape.backward(sum_all(out))
    assert np.array_equal(grads[x], [0.2, 1.0])


def test_leaky_relu_kink_gap_tracked():
    tape = Tape()
    leaky_relu(tape.leaf([0.5, -0.003]), 0.2)
    assert tape.min_kink_gap() == pytest.approx(0.003)


def test_relu_is_slope_zero():
    tape = Tape()
    out = relu(tape.leaf([-2.0, 3.0]))
    assert np.array_equal(out.data, [0.0, 3.0])


def test_tanh_and_log_gradients():
    tape = Tape()
    x = tape.leaf([0.5, 2.0])
    grads = tape.backward(sum_all(tanh(x)))
    assert np.allclose(grads[x], 1.0 - np.tanh([0.5, 2.0]) ** 2, atol=1e-15)
    tape2 = Tape()
    y = tape2.leaf([0.5, 2.0])
    grads2 = tape2.backward(sum_all(log(y)))
    assert np.allclose(grads2[y], [2.0, 0.5], atol=1e-15)


def test_log_of_zero_raises():
    tape = Tape()
    with pytest.raises(OverflowError):
        log(tape.leaf([0.0, 1.0]))


def test_gather_rows_accumulates_repeats():
    tape = Tape()
    m = tape.leaf([[1.0], [2.0], [3.0]])
    out = gather_rows(m, [2, 0, 2])
    assert np.array_equal(out.data, [[3.0], [1.0], [3.0]])
    grads = tape.backward(sum_all(out))
    assert np.array_equal(grads[m], [[1.0], [0.0], [2.0]])


# (output rows, columns, gathered row indices)
_GATHER_CASES = {
    "repeated-unordered": (5, 3, [4, 0, 4, 2, 0, 4, 1]),
    "empty": (4, 2, []),
    "one-column": (6, 1, [5, 5, 0, 3, 5]),
    "rows-beyond-indices": (9, 2, [1, 7]),
}


@pytest.mark.parametrize("case", list(_GATHER_CASES))
def test_gather_rows_gradient_equals_add_at_bitwise(case):
    rows, cols, idx = _GATHER_CASES[case]
    rng = np.random.default_rng(3)
    # magnitudes far apart, so any other order of the repeated adds rounds differently
    weights = rng.normal(size=(len(idx), cols)) * 10.0 ** rng.integers(-8, 9, size=(len(idx), cols))
    tape = Tape()
    m = tape.leaf(rng.normal(size=(rows, cols)))
    grads = tape.backward(sum_all(mul(gather_rows(m, idx), weights)))
    expected = np.zeros((rows, cols))
    np.add.at(expected, np.array(idx, dtype=np.int64), weights)
    assert grads[m].shape == (rows, cols)
    assert grads[m].tobytes() == expected.tobytes()


def test_slice_reshape_concat_roundtrips():
    tape = Tape()
    m = tape.leaf(np.arange(12.0).reshape(3, 4))
    top = slice_rows(m, 0, 1)
    rest = slice_rows(m, 1, 3)
    back = concat_rows([top, rest])
    assert np.array_equal(back.data, m.data)
    flat = reshape(m, (12,))
    again = reshape(flat, (3, 4))
    assert np.array_equal(again.data, m.data)
    left = concat_cols([slice_rows(reshape(m, (3, 4)), 0, 3)])
    assert np.array_equal(left.data, m.data)
    grads = tape.backward(sum_all(back))
    assert np.array_equal(grads[m], np.ones((3, 4)))


def test_concat_flat_backward_splits():
    tape = Tape()
    a = tape.leaf([1.0, 2.0])
    b = tape.leaf([3.0])
    out = concat_rows([a, b])
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])
    grads = tape.backward(sum_all(mul(out, np.array([1.0, 10.0, 100.0]))))
    assert np.array_equal(grads[a], [1.0, 10.0])
    assert np.array_equal(grads[b], [100.0])


def test_reductions_frozen_values():
    tape = Tape()
    m = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(rowsum(m).data, [3.0, 7.0])
    assert sum_all(m).data == 10.0
    assert sum_squares(m).data == 30.0
    grads = tape.backward(sum_squares(m))
    assert np.array_equal(grads[m], 2.0 * m.data)


def test_scale_rows_tensor_and_const():
    tape = Tape()
    m = tape.leaf([[1.0, 1.0], [2.0, 2.0]])
    v = tape.leaf([3.0, 5.0])
    out = scale_rows(m, v)
    assert np.array_equal(out.data, [[3.0, 3.0], [10.0, 10.0]])
    grads = tape.backward(sum_all(out))
    assert np.array_equal(grads[v], [2.0, 4.0])
    tape2 = Tape()
    m2 = tape2.leaf([[1.0, 1.0], [2.0, 2.0]])
    out2 = scale_rows(m2, np.array([3.0, 5.0]))
    assert np.array_equal(out2.data, [[3.0, 3.0], [10.0, 10.0]])


def test_segment_reduce_sum_mean_empty_segments():
    tape = Tape()
    v = tape.leaf([[1.0], [2.0], [10.0]])
    segs = [0, 0, 2]
    total = segment_reduce(v, segs, 4, "sum")
    assert np.array_equal(total.data, [[3.0], [0.0], [10.0], [0.0]])
    mean = segment_reduce(v, segs, 4, "mean")
    assert np.array_equal(mean.data, [[1.5], [0.0], [10.0], [0.0]])
    grads = tape.backward(sum_all(mean))
    assert np.array_equal(grads[v], [[0.5], [0.5], [1.0]])


def test_segment_reduce_max_routes_gradient_to_first_winner():
    tape = Tape()
    v = tape.leaf([[1.0], [5.0], [5.0], [2.0]])
    out = segment_reduce(v, [0, 0, 0, 1], 2, "max")
    assert np.array_equal(out.data, [[5.0], [2.0]])
    grads = tape.backward(sum_all(out))
    # ties break to the earliest row
    assert np.array_equal(grads[v], [[0.0], [1.0], [0.0], [1.0]])


def test_segment_reduce_max_empty_segment_is_zero():
    tape = Tape()
    v = tape.leaf([[3.0]])
    out = segment_reduce(v, [1], 3, "max")
    assert np.array_equal(out.data, [[0.0], [3.0], [0.0]])


def test_segment_softmax_frozen():
    tape = Tape()
    logits = tape.leaf([np.log(2.0), 0.0, 1.0])
    out = segment_softmax(logits, [0, 0, 1])
    assert out.data[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert out.data[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert out.data[2] == 1.0


def test_segment_softmax_gradient_matches_finite_differences():
    def f(tape, leaves):
        y = segment_softmax(leaves["x"], [0, 0, 1, 1, 1])
        return sum_all(mul(y, np.array([1.0, 2.0, -1.0, 0.5, 3.0])))

    err = grad_check(f, {"x": np.array([0.3, -0.2, 0.7, 0.1, -0.5])})
    assert err < 1e-7


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-30, 30), min_size=1, max_size=40),
    st.data(),
)
def test_segment_softmax_sums_to_one_and_shift_invariant(values, data):
    segs = data.draw(
        st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values))
    )
    tape = Tape()
    x = np.array(values)
    y = segment_softmax(tape.leaf(x), segs).data
    seg_arr = np.array(segs)
    for s in np.unique(seg_arr):
        assert y[seg_arr == s].sum() == pytest.approx(1.0, abs=1e-12)
    shifted = segment_softmax(Tape().leaf(x + 7.5), segs).data
    assert np.allclose(y, shifted, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_segment_sum_is_permutation_invariant_bitwise(data):
    n = data.draw(st.integers(2, 30))
    values = np.array(
        data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    )
    segs = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))))
    a = segment_reduce(Tape().leaf(values[:, None]), segs, 5, "sum").data
    b = segment_reduce(Tape().leaf(values[perm][:, None]), segs[perm], 5, "sum").data
    assert np.array_equal(a, b)


def _reference_segment_sum(values, segments, num_segments):
    # one lexsort plus np.add.at per column: (segment, value) order
    out = np.zeros((num_segments, values.shape[1]))
    for c in range(values.shape[1]):
        col = values[:, c]
        order = np.lexsort((col, segments))
        np.add.at(out[:, c], segments[order], col[order])
    return out


def _reference_segment_max(values, segments, num_segments):
    # per column: the first row holding each segment's max, and the smallest
    # gap between a segment's top two values
    rows, cols = values.shape
    winner = np.full((num_segments, cols), -1)
    gap = np.inf
    for c in range(cols):
        for s in range(num_segments):
            members = np.flatnonzero(segments == s)
            if members.size == 0:
                continue
            col = values[members, c]
            winner[s, c] = members[np.argmax(col)]
            if members.size >= 2:
                top_two = np.sort(col)[-2:]
                gap = min(gap, top_two[1] - top_two[0])
    return winner, gap


def _segment_case(data, max_rows=40, max_cols=5, num_segments=7):
    rows = data.draw(st.integers(1, max_rows))
    cols = data.draw(st.integers(1, max_cols))
    # few distinct values so ties inside a segment are common
    pool = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    values = np.array(
        data.draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    # segments 0 and num_segments - 1 stay empty
    segs = np.array(
        data.draw(st.lists(st.integers(1, num_segments - 2), min_size=rows, max_size=rows))
    )
    perm = np.array(data.draw(st.permutations(range(rows))))
    return values, segs, perm


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_segment_sum_and_mean_matrix_match_reference_and_ignore_row_order(data):
    values, segs, perm = _segment_case(data)
    divisor = np.maximum(np.bincount(segs, minlength=7), 1)[:, None]
    reference = _reference_segment_sum(values, segs, 7)
    # summation order may differ from the reference, so compare relative to
    # the segment's sum of magnitudes
    scale = 1e-12 * _reference_segment_sum(np.abs(values), segs, 7)
    for mode, expected, tol in (
        ("sum", reference, scale),
        ("mean", reference / divisor, scale / divisor),
    ):
        a = segment_reduce(Tape().leaf(values), segs, 7, mode).data
        b = segment_reduce(Tape().leaf(values[perm]), segs[perm], 7, mode).data
        assert np.array_equal(a, b)
        assert np.all(np.abs(a - expected) <= tol)
        assert not a[0].any() and not a[6].any()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_segment_max_matrix_winners_and_gap_match_reference(data):
    values, segs, _ = _segment_case(data)
    winner, gap = _reference_segment_max(values, segs, 7)
    tape = Tape()
    v = tape.leaf(values)
    out = segment_reduce(v, segs, 7, "max")
    grads = tape.backward(sum_all(out))
    expected_grad = np.zeros_like(values)
    seg_idx, col_idx = np.nonzero(winner >= 0)
    expected_grad[winner[seg_idx, col_idx], col_idx] = 1.0
    assert np.array_equal(grads[v], expected_grad)
    expected_out = np.zeros((7, values.shape[1]))
    expected_out[seg_idx, col_idx] = values[winner[seg_idx, col_idx], col_idx]
    assert np.array_equal(out.data, expected_out)
    assert tape.min_kink_gap() == gap


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_segment_mean_max_equals_mean_and_max_ops_bitwise(data):
    values, segs, _ = _segment_case(data)
    weights = np.random.default_rng(len(segs)).normal(size=(7, 2 * values.shape[1]))

    def run(pool):
        tape = Tape()
        v = tape.leaf(values)
        out = pool(v)
        grads = tape.backward(sum_all(mul(out, weights)))
        return out.data, grads[v], tape.min_kink_gap()

    fused = run(lambda v: segment_mean_max(v, segs, 7))
    separate = run(
        lambda v: concat_cols([segment_reduce(v, segs, 7, "mean"), segment_reduce(v, segs, 7, "max")])
    )
    assert fused[0].tobytes() == separate[0].tobytes()
    assert fused[1].tobytes() == separate[1].tobytes()
    assert fused[2] == separate[2]
    # segments 0 and 6 are empty
    assert not fused[0][[0, 6]].any()


def test_segment_mean_max_routes_max_gradient_to_first_winner():
    tape = Tape()
    v = tape.leaf([[1.0, 4.0], [5.0, 4.0], [5.0, 0.0], [2.0, 7.0]])
    out = segment_mean_max(v, [0, 0, 0, 2], 3)
    assert np.array_equal(
        out.data, [[11 / 3, 8 / 3, 5.0, 4.0], [0.0, 0.0, 0.0, 0.0], [2.0, 7.0, 2.0, 7.0]]
    )
    assert tape.min_kink_gap() == 0.0  # the tied maxima
    grads = tape.backward(sum_all(mul(out, np.array([0.0, 0.0, 1.0, 1.0]) * np.ones((3, 1)))))
    assert np.array_equal(grads[v], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


def test_segment_mean_max_gradient_matches_finite_differences():
    segs = [0, 2, 0, 2, 2, 3, 0]  # segment 1 stays empty

    def f(tape, leaves):
        return sum_squares(segment_mean_max(leaves["x"], segs, 4))

    err = grad_check(f, {"x": np.random.default_rng(5).normal(size=(7, 3))})
    assert err < 1e-6


def test_segment_mean_max_rejects_flat_input_and_misaligned_segments():
    tape = Tape()
    with pytest.raises(ValueError):
        segment_mean_max(tape.leaf([1.0, 2.0]), [0, 1], 2)
    with pytest.raises(ValueError):
        segment_mean_max(tape.leaf(np.ones((3, 2))), [0, 1], 2)


def _two_argsort_sort(data, segments, counts):
    # the segment sort before the integer key sort: scatter each column's
    # value ranks, then argsort segment * rows + rank
    rows = data.shape[0]
    by_column = np.ascontiguousarray(data.T)
    by_value = np.argsort(by_column, axis=1)
    rank = np.empty_like(by_value)
    np.put_along_axis(rank, by_value, np.arange(rows), axis=1)
    rank += segments * rows
    order = np.argsort(rank, axis=1)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return np.take_along_axis(by_column, order, axis=1), starts


def _assert_sort_matches_reference(data, segments, num_segments):
    counts = np.bincount(segments, minlength=num_segments)
    got, got_starts = _sort_by_segment_and_value(data, segments, counts)
    want, want_starts = _two_argsort_sort(data, segments, counts)
    assert got.shape == want.shape == data.T.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_starts, want_starts)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_segment_sort_equals_two_argsort_reference_bytewise(data):
    rows = data.draw(st.integers(0, 50))
    cols = data.draw(st.integers(1, 4))
    num_segments = data.draw(st.integers(1, 9))
    # signed zeros tie in the value argsort; other values repeat often
    pool = [-0.0, 0.0] + data.draw(st.lists(st.floats(-1e3, 1e3), max_size=4))
    values = data.draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    segments = data.draw(
        st.lists(st.integers(0, num_segments - 1), min_size=rows, max_size=rows)
    )
    _assert_sort_matches_reference(
        np.array(values, dtype=np.float64).reshape(rows, cols),
        np.array(segments, dtype=np.int64),
        num_segments,
    )


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_segment_sort_equals_two_argsort_reference_above_65536_segments(seed, cols):
    rng = np.random.default_rng(seed)
    rows, num_segments = 90_000, 70_000
    values = rng.normal(size=(rows, cols))
    values[rng.random((rows, cols)) < 0.3] = -0.0
    values[rng.random((rows, cols)) < 0.2] = 0.0
    segments = rng.integers(0, num_segments, size=rows)
    _assert_sort_matches_reference(values, segments, num_segments)


@pytest.mark.parametrize("size", range(1, len(_NETWORKS)))
def test_each_sorting_network_sorts_every_zero_one_input(size):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    patterns = np.array(list(itertools.product((0.0, 1.0), repeat=size)))
    lanes = list(patterns.T.copy())
    _sort_lanes(lanes)
    assert np.all(np.diff(np.stack(lanes), axis=0) >= 0)
    assert np.array_equal(np.sum(lanes, axis=0), patterns.sum(axis=1))


@pytest.mark.parametrize("size", range(2, len(_NETWORKS)))
def test_sorting_networks_keep_the_sign_of_every_zero(size):
    # min and max of a (+0.0, -0.0) pair may both return -0.0; the network's
    # compare-exchange keeps one zero of each sign
    plus, minus = np.array([0.0]), np.array([-0.0])
    for pair in ([plus.copy(), minus.copy()], [minus.copy(), plus.copy()]):
        _sort_lanes(pair)
        assert sorted(np.signbit(np.concatenate(pair)).tolist()) == [False, True]
    patterns = np.array(list(itertools.product((0.0, -0.0), repeat=size)))
    lanes = list(patterns.T.copy())
    _sort_lanes(lanes)
    assert np.array_equal(np.signbit(lanes).sum(axis=0), np.signbit(patterns).sum(axis=1))


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=14),
    st.sampled_from([1, 2, 16, 104]),
    st.sampled_from(["signed-zero-pool", "zeros", "gaussian"]),
    st.integers(0, 2**32 - 1),
)
def test_network_sums_equal_the_value_sorted_sums_bytewise(sizes, cols, kind, seed):
    # segment sizes 0 to 12: empty segments, the networks' 1 to 8 rows and
    # the block sort's longer runs
    rng = np.random.default_rng(seed)
    segments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    shape = (segments.size, cols)
    if kind == "signed-zero-pool":
        values = rng.choice([-0.0, 0.0, 1.0, -1.0, 1e-16, 3.0], size=shape)
    elif kind == "zeros":
        values = np.where(rng.random(shape) < rng.random(), -0.0, 0.0)
    else:
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)
    counts = np.bincount(segments, minlength=len(sizes))
    want = _sorted_sums(*_sort_by_segment_and_value(values, segments, counts), counts)
    got = _run_stats(values, counts, _runs(segments, counts))[0]
    assert got.tobytes() == want.tobytes()


def test_one_rule_dispatches_every_segment_sum_and_max(monkeypatch):
    # raw ids are a plan of one call, so they and a fresh plan sort by runs
    # only for a wide matrix of at least _NETWORK_MIN_ENTRIES entries (a
    # one-graph forward's sums, at most ~100 rows, and the one-column
    # softmax sums keep the value sort); a plan whose runs are built sorts
    # by them at any size
    paths = []
    for name, path in (("_run_stats", "runs"), ("_sort_by_segment_and_value", "value")):
        real = getattr(relgat.tensor, name)
        monkeypatch.setattr(
            relgat.tensor, name, lambda *a, real=real, path=path, **kw: paths.append(path) or real(*a, **kw)
        )

    def path_of(segments, values, n):
        taken = []
        for mode in ("sum", "max"):
            paths.clear()
            segment_reduce(Tape(differentiable=False).leaf(values), segments, n, mode)
            taken += paths
        return taken

    rng = np.random.default_rng(0)
    for rows, cols, wide in ((100, 104, False), (40_000, 1, False), (2048, 16, True)):
        n = rows // 3
        segments = rng.integers(0, n, size=rows)
        values = rng.normal(size=(rows, cols))
        fresh, built = (SegmentPlan(segments, n) for _ in range(2))
        built.runs()
        want = ["runs"] * 2 if wide else ["value"] * 2
        assert path_of(segments, values, n) == want, (rows, cols)
        assert path_of(fresh, values, n) == want, (rows, cols)
        assert path_of(built, values, n) == ["runs"] * 2, (rows, cols)
        # a wide sum builds runs the plan keeps, and every later sum uses them
        assert (fresh._runs is not None) == wide
        if wide:
            assert path_of(fresh, values[:, :1], n) == ["runs"] * 2


def _values(rng, kind, shape):
    if kind == "signed-zero-pool":
        return rng.choice([-0.0, 0.0, 1.0, -1.0, 1e-16, 3.0], size=shape)
    if kind == "zeros":
        return np.where(rng.random(shape) < rng.random(), -0.0, 0.0)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)


def _segment_op_bytes(op, values, backward_weights):
    # an op's output, the gradient of a weighted sum of it and the kink gap
    tape = Tape()
    v = tape.leaf(values)
    out = op(v)
    grads = tape.backward(sum_all(mul(out, backward_weights)))
    return out.data.tobytes(), grads[v].tobytes(), tape.min_kink_gap()


@settings(deadline=None, max_examples=120)
@given(
    st.lists(
        st.one_of(st.just(0), st.just(1), st.integers(2, 8), st.integers(9, 40)),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from([1, 2, 16, 104]),
    st.sampled_from(["signed-zero-pool", "zeros", "gaussian"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_planned_segment_ops_equal_raw_id_ops_bytewise(sizes, cols, kind, by_runs, seed):
    # segment sizes 0, 1, 2 to 8 (the networks) and 9 to 40 (the block
    # sort); by_runs makes every planned call sort by runs, whatever its size
    rng = np.random.default_rng(seed)
    n = len(sizes)
    segments = rng.permutation(np.repeat(np.arange(n), sizes))
    values = _values(rng, kind, (segments.size, cols))
    plan = SegmentPlan(segments, n)
    if by_runs:
        plan.runs()
    out_weights = rng.normal(size=(n, cols))
    for mode in ("sum", "mean", "max"):
        planned, raw = (
            _segment_op_bytes(lambda v: segment_reduce(v, ids, n, mode), values, out_weights)
            for ids in (plan, segments)
        )
        assert planned == raw, mode
    # mean, max, kink gap and first winners (through the gradient)
    weights = rng.normal(size=(n, 2 * cols))
    planned, raw = (
        _segment_op_bytes(lambda v: segment_mean_max(v, ids, n), values, weights)
        for ids in (plan, segments)
    )
    assert planned == raw
    # a plan over rows of `cols` logits each against the ids id*cols + col
    flat_ids = (segments[:, None] * cols + np.arange(cols)).ravel()
    logits = values.ravel() * 1e-3
    grad_weights = rng.normal(size=logits.size)
    planned, raw = (
        _segment_op_bytes(lambda v: segment_softmax(v, ids), logits, grad_weights)
        for ids in (plan, flat_ids)
    )
    assert planned == raw
    assert (plan._runs is not None) or not by_runs


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 40)), min_size=1, max_size=10),
    st.sampled_from([1, 2, 16, 104]),
    st.sampled_from(["signed-zero-pool", "zeros", "gaussian"]),
    st.integers(0, 2**32 - 1),
)
def test_run_stats_equal_the_value_sorted_sums_and_maxima_bytewise(sizes, cols, kind, seed):
    # the runs against the value sort directly, at sizes that never dispatch
    # to them
    rng = np.random.default_rng(seed)
    segments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    values = _values(rng, kind, (segments.size, cols))
    counts = np.bincount(segments, minlength=len(sizes))
    ordered, starts = _sort_by_segment_and_value(values, segments, counts)
    top, gap, _ = relgat.tensor._sorted_max(values, segments, counts, ordered, starts, True)
    sums, run_top, run_gap = _run_stats(values, counts, _runs(segments, counts), maxima=True)
    assert sums.tobytes() == _sorted_sums(ordered, starts, counts).tobytes()
    assert run_top.tobytes() == top.tobytes()
    assert run_gap == gap


@pytest.mark.parametrize("size", [5, 12])
def test_runs_add_as_reduceat_does_not_as_reduce(size):
    # np.add.reduce over a block's last axis adds a run left to right;
    # np.add.reduceat, like the value-sorted path, adds a0 + (a1 + ... ).
    # These fixed runs of standard normals tell the two apart, so a block
    # sum through np.add.reduce fails here.
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4 * size, 3))
    segments = rng.permutation(np.repeat(np.arange(4), size))
    counts = np.bincount(segments)
    want = _sorted_sums(*_sort_by_segment_and_value(values, segments, counts), counts)
    assert _run_stats(values, counts, _runs(segments, counts))[0].tobytes() == want.tobytes()
    block = np.sort(values[np.argsort(segments, kind="stable")].reshape(4, size, 3), axis=1)
    block = block.transpose(0, 2, 1).copy()
    assert np.add.reduceat(block, [0], axis=2)[:, :, 0].tobytes() == want.tobytes()
    assert np.add.reduce(block, axis=2).tobytes() != want.tobytes()


def test_a_plan_must_fit_the_call():
    plan = SegmentPlan([0, 2, 2], 3)
    tape = Tape()
    with pytest.raises(ValueError, match="plan has 3 segments"):
        segment_reduce(tape.leaf(np.ones((3, 2))), plan, 4)
    with pytest.raises(ValueError, match="segment ids cover 3 rows"):
        segment_mean_max(tape.leaf(np.ones((4, 2))), plan, 3)
    for size in (7, 0):
        with pytest.raises(ValueError, match="segment ids cover 3 rows"):
            segment_softmax(tape.leaf(np.ones(size)), plan)
    with pytest.raises(ValueError):
        plan.ids[0] = 1  # a plan is read-only
    ids = np.array([0, 1])
    SegmentPlan(ids, 2)
    ids[0] = 1  # and leaves the caller's array writable


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_segment_max_sign_of_zero_ignores_row_order(data):
    rows = data.draw(st.integers(1, 30))
    cols = data.draw(st.integers(1, 3))
    pool = [-0.0, 0.0, -1.5, -2.0, 3.0]
    values = np.array(
        data.draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    segs = np.array(data.draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows)))
    perm = np.array(data.draw(st.permutations(range(rows))))

    def pooled(differentiable, v, s):
        tape = Tape(differentiable=differentiable)
        leaf = tape.leaf(v)
        return segment_reduce(leaf, s, 5, "max").data, segment_mean_max(leaf, s, 5).data

    expected = None
    for differentiable in (True, False):
        for v, s in ((values, segs), (values[perm], segs[perm])):
            got = pooled(differentiable, v, s)
            if expected is None:
                expected = got
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    top = expected[0]
    for seg in range(5):
        for col in range(cols):
            run = values[segs == seg, col]
            if run.size and top[seg, col] == 0:
                holds_plus_zero = np.any((run == 0) & ~np.signbit(run))
                assert np.signbit(top[seg, col]) == (not holds_plus_zero)
    assert expected[1][:, cols:].tobytes() == top.tobytes()


def test_row_softmax_rows_sum_to_one():
    tape = Tape()
    out = row_softmax(tape.leaf([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(out.data[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_untouched_leaf_gets_zero_gradient():
    tape = Tape()
    used = tape.leaf([2.0])
    unused = tape.leaf(np.ones((2, 2)))
    grads = tape.backward(sum_all(mul(used, used)))
    assert np.array_equal(grads[unused], np.zeros((2, 2)))
    assert np.array_equal(grads[used], [4.0])


def test_backward_requires_scalar_and_same_tape():
    tape = Tape()
    vec = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(vec)
    other = Tape()
    loss = sum_all(other.leaf([1.0]))
    with pytest.raises(ValueError, match="different tape"):
        tape.backward(loss)


def test_cross_tape_ops_rejected():
    a = Tape().leaf([1.0])
    b = Tape().leaf([1.0])
    with pytest.raises(ValueError):
        add(a, b)


@pytest.mark.filterwarnings("ignore:overflow")
def test_op_overflow_raises():
    tape = Tape()
    big = tape.leaf([1e308])
    with pytest.raises(OverflowError):
        mul(big, 1e10)


def test_scoring_tape_leaves_are_read_only_views_of_writable_arrays():
    params = np.arange(6.0).reshape(2, 3)
    tape = Tape(differentiable=False)
    leaf = tape.leaf(params)
    assert np.shares_memory(leaf.data, params)
    assert not leaf.data.flags.writeable
    assert params.flags.writeable
    params[0, 0] = -1.0  # the caller's array stays its own to update
    assert leaf.data[0, 0] == -1.0
    # a recording tape copies instead
    assert not np.shares_memory(Tape().leaf(params).data, params)


def test_scoring_tape_keeps_no_ops_and_cannot_differentiate():
    tape = Tape(differentiable=False)
    x = tape.leaf([[0.5, -1e-9], [2.0, 3.0]])
    y = tanh(relu(x))
    loss = sum_all(y)
    assert float(loss.data) == pytest.approx(np.tanh(0.5) + np.tanh(2.0) + np.tanh(3.0))
    # nothing holds an op result once its tensor is gone, and no kink is kept
    result = weakref.ref(y.data)
    del y
    assert result() is None
    assert tape.min_kink_gap() == np.inf
    with pytest.raises(ValueError, match="differentiable=False"):
        tape.backward(loss)
    # the same ops on a recording tape keep tanh's result for its backward
    recording = Tape()
    y = tanh(relu(recording.leaf([[0.5, -1e-9], [2.0, 3.0]])))
    kept = weakref.ref(y.data)
    del y
    assert kept() is not None
    assert recording.min_kink_gap() == 1e-9


@pytest.mark.filterwarnings("ignore:overflow")
def test_scoring_tape_checks_every_leaf_and_op_result():
    tape = Tape(differentiable=False)
    with pytest.raises(OverflowError, match="leaf value"):
        tape.leaf([[1.0, np.nan]])
    x = tape.leaf([[-1e300, 1.0], [1e300, 2.0]])
    # the product overflows; max pooling would hide the -inf and tanh the
    # +inf, so the check must fire at the op that made them
    with pytest.raises(OverflowError, match="op result"):
        mul(x, 1e300)
    huge = tape.leaf([[1e300], [-1e300]])
    with pytest.raises(OverflowError, match="op result"):
        matmul(huge, tape.leaf([[1e300]]))


def test_backward_visits_each_op_once():
    tape = Tape()
    x = tape.leaf([1.0])
    y = add(x, x)  # diamond: x used twice by one op
    z = mul(y, y)  # y used twice
    grads = tape.backward(sum_all(z))
    # d/dx (2x)^2 = 8x = 8
    assert np.array_equal(grads[x], [8.0])


def test_grad_check_passes_on_smooth_composite():
    def f(tape, leaves):
        h = tanh(matmul(leaves["x"], leaves["w"]))
        return sum_squares(add(h, leaves["b"]))

    rng = np.random.default_rng(0)
    err = grad_check(
        f,
        {
            "x": rng.normal(size=(3, 2)),
            "w": rng.normal(size=(2, 4)),
            "b": rng.normal(size=4),
        },
    )
    assert err < 1e-6


def test_grad_check_shifts_off_kink_once():
    # one parameter starts exactly on the relu kink; the +1e-3 shift fixes it
    def f(tape, leaves):
        return sum_all(relu(leaves["x"]))

    err = grad_check(f, {"x": np.array([0.0, 1.0])})
    assert err < 1e-8


def test_grad_check_raises_on_persistent_kink():
    # a - b stays zero under any uniform shift of all parameters
    def f(tape, leaves):
        return sum_all(relu(add(leaves["a"], mul(leaves["b"], -1.0))))

    with pytest.raises(KinkError):
        grad_check(f, {"a": np.array([1.0]), "b": np.array([1.0])})


def test_backward_frees_each_op_gradient_once_used():
    tape = Tape()
    x = tape.leaf(np.ones((500, 200)))
    y = x
    for _ in range(30):
        y = mul(y, 1.0001)
    loss = sum_all(y)
    tracemalloc.start()
    try:
        grads = tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the leaf's gradient plus an op's incoming and outgoing one; keeping
    # every intermediate gradient would need about 30 arrays
    assert peak < 5 * x.data.nbytes
    assert grads[x].shape == (500, 200)


_SEGMENT_IDS = [0, 2, 2, 0, 2]
_SEGMENT_OPS = {
    **{
        f"reduce-{mode}-{form}": (lambda v, mode=mode: segment_reduce(v, _SEGMENT_IDS, 3, mode), form)
        for mode in ("sum", "mean", "max")
        for form in ("flat", "matrix")
    },
    "mean-max": (lambda v: segment_mean_max(v, _SEGMENT_IDS, 3), "matrix"),
    "softmax": (lambda v: segment_softmax(v, _SEGMENT_IDS), "flat"),
}


@pytest.mark.parametrize("case", list(_SEGMENT_OPS))
def test_segment_ops_do_not_keep_their_input_alive(case):
    # a backward that held its input would keep a layer's message matrix
    # alive until the backward walk reaches it
    op, form = _SEGMENT_OPS[case]
    values = np.random.default_rng(0).normal(size=(5, 3))
    gc.collect()
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(values[:, 0] if form == "flat" else values)
        data = weakref.ref(x.data)
        out = op(x)
        del x
        assert data() is None
        # the recorded backward still runs without it
        tape.backward(sum_squares(out))
    finally:
        gc.enable()


def test_concat_rows_rejects_a_mix_of_flat_and_matrix_parts():
    tape = Tape()
    flat, matrix = tape.leaf([1.0, 2.0]), tape.leaf([[3.0, 4.0]])
    for parts in ([flat, matrix], [matrix, flat], [tape.leaf(1.0), tape.leaf(2.0)]):
        with pytest.raises(ValueError, match="concat_rows expects"):
            concat_rows(parts)


def test_segment_softmax_rejects_negative_or_misaligned_ids():
    logits = Tape().leaf([0.1, 0.2, 0.3])
    for ids in ([0, -1, 1], [-1, -1, -1], [0, 1], [0, 1, 1, 1], [[0, 1, 1]]):
        with pytest.raises(ValueError, match="segment ids"):
            segment_softmax(logits, ids)


# (x shape, w shape, blocks, shared)
_BLOCK_FORMS = {
    "shared-input": ((4, 3), (9, 2), 3, "x"),
    "blocked": ((12, 2), (6, 2), 3, None),
    "shared-kernel": ((6, 2), (2, 5), 3, "w"),
    "one-block": ((4, 3), (3, 2), 1, None),
}


@pytest.mark.parametrize("form", list(_BLOCK_FORMS))
def test_block_matmul_gradients_match_central_differences(form):
    x_shape, w_shape, blocks, shared = _BLOCK_FORMS[form]
    rng = np.random.default_rng(0)
    rows = x_shape[0] * (blocks if shared == "x" else 1)
    readout = rng.normal(size=(rows, w_shape[1]))

    def f(tape, leaves):
        out = block_matmul(leaves["x"], leaves["w"], blocks, shared=shared)
        return sum_all(mul(tanh(out), readout))

    err = grad_check(f, {"x": rng.normal(size=x_shape), "w": rng.normal(size=w_shape)})
    assert err < 1e-6


@pytest.mark.parametrize("form", list(_BLOCK_FORMS))
@pytest.mark.parametrize("f,m", [(3, 2), (1, 2), (3, 1)])
def test_block_matmul_equals_a_loop_of_matmuls_bitwise(form, f, m):
    _, _, blocks, shared = _BLOCK_FORMS[form]
    n = 1 if shared == "w" else 40
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(n if shared == "x" else blocks * n, f))
    w0 = rng.normal(size=(f, m) if shared == "w" else (blocks * f, m))
    readout = rng.normal(size=(blocks * n, m))

    def run(loop):
        tape = Tape()
        x, w = tape.leaf(x0), tape.leaf(w0)
        if loop:
            xs = [x] if shared == "x" else [tape.leaf(x0[b * n:(b + 1) * n]) for b in range(blocks)]
            ws = [w if shared == "w" else slice_rows(w, b * f, (b + 1) * f) for b in range(blocks)]
            outs = [matmul(xs[0 if shared == "x" else b], ws[b]) for b in range(blocks)]
            loss = sum_all(mul(outs[0], readout[:n]))
            for b in range(1, blocks):
                loss = add(loss, sum_all(mul(outs[b], readout[b * n:(b + 1) * n])))
            out = np.concatenate([o.data for o in outs])
        else:
            xs = [x]
            block = block_matmul(x, w, blocks, shared=shared)
            loss, out = sum_all(mul(block, readout)), block.data
        # a term recorded after the products, as the L2 penalty is in training
        grads = tape.backward(add(loss, sum_squares(w)))
        return out, np.concatenate([grads[xb] for xb in xs]), grads[w]

    for got, want in zip(run(loop=False), run(loop=True)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("form", list(_BLOCK_FORMS))
@pytest.mark.parametrize("n,m", [(0, 2), (1, 1), (1, 3), (4, 1)])
def test_block_matmul_edge_shapes_equal_a_loop_of_matmuls_bitwise(form, n, m):
    """Zero-row and one-row blocks and one output column, with both operands'
    gradients already holding another op's term when the products' backward
    runs, as a shared input's does when it also feeds a later op."""
    _, _, blocks, shared = _BLOCK_FORMS[form]
    f = 3
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(n if shared == "x" else blocks * n, f))
    w0 = rng.normal(size=(f, m) if shared == "w" else (blocks * f, m))
    readout = rng.normal(size=(blocks * n, m))

    def run(loop):
        tape = Tape()
        x, w = tape.leaf(x0), tape.leaf(w0)
        if loop:
            block = concat_rows(
                [
                    matmul(
                        x if shared == "x" else slice_rows(x, b * n, (b + 1) * n),
                        w if shared == "w" else slice_rows(w, b * f, (b + 1) * f),
                    )
                    for b in range(blocks)
                ]
            )
        else:
            block = block_matmul(x, w, blocks, shared=shared)
        loss = add(sum_all(mul(block, readout)), add(sum_squares(x), sum_squares(w)))
        grads = tape.backward(loss)
        return block.data, grads[x], grads[w]

    for got, want in zip(run(loop=False), run(loop=True)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_block_matmul_rejects_mismatched_shapes():
    tape = Tape()
    x = tape.leaf(np.ones((6, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        block_matmul(x, tape.leaf(np.ones((4, 2))), 3)  # 4 kernel rows do not split in 3
    with pytest.raises(ValueError, match="mismatch"):
        block_matmul(x, tape.leaf(np.ones((9, 2))), 3)  # 3-row kernels for 2-wide blocks
    with pytest.raises(ValueError, match="mismatch"):
        block_matmul(x, tape.leaf(np.ones((3, 2))), 3, shared="w")


def test_sum_blocks_adds_left_to_right_and_tiles_the_gradient():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(5, 6))
    tape = Tape()
    a = tape.leaf(a0)
    out = sum_blocks(a, 3)
    assert np.array_equal(out.data, (a0[:, 0:2] + a0[:, 2:4]) + a0[:, 4:6])
    readout = rng.normal(size=(5, 2))
    grads = tape.backward(sum_all(mul(out, readout)))
    assert np.array_equal(grads[a], np.tile(readout, (1, 3)))
    with pytest.raises(ValueError, match="column blocks"):
        sum_blocks(a, 4)


# ---------------------------------------------------------------------------
# fused edge ops against the primitive chains they replace


def _slot_attention(fused, g, a, tgt_rows, src_rows, mode, supports):
    # edge_attention, or the per-slot chain it replaces: every slot's query
    # products, then its key products, each a matmul of the slot's rows of g
    # and a half of its kernel, then gathers, logits and softmax
    if fused:
        return edge_attention(g, a, tgt_rows, src_rows, mode, supports)
    cols = g.shape[1]
    slots = a.shape[0] // (2 * cols)
    n = g.shape[0] // slots

    def products(start):
        return concat_rows(
            [
                matmul(slice_rows(g, s * n, (s + 1) * n), slice_rows(a, 2 * s * cols + start, 2 * s * cols + start + cols))
                for s in range(slots)
            ]
        )

    qe, ke = gather_rows(products(0), tgt_rows), gather_rows(products(cols), src_rows)
    if mode == "additive":
        logits = leaky_relu(reshape(add(qe, ke), (qe.shape[0],)), 0.2)
    else:
        logits = rowsum(mul(qe, ke))
    return segment_softmax(logits, supports)


def _slot_rows(plan, heads, slot_rows):
    # the slot row of every (edge, head), edge-major, as a layer lists them
    base = np.arange(heads) * slot_rows
    return (plan.target_rows[:, None] + base).ravel(), (plan.source_rows[:, None] + base).ravel()


def _edge_forward(fused, mode, learned, heads, plan, g0, a0, weights, alpha_weights):
    # the layer's edge path from projected features g: coefficients,
    # messages, and a loss that reads both the messages and the
    # coefficients, so that g and the coefficients each sum gradients from
    # more than one op
    tape = Tape()
    g, a = tape.leaf(g0), tape.leaf(a0)
    tgt_rows, src_rows = _slot_rows(plan, heads, g0.shape[0] // heads)
    edges, cols = plan.target_rows.size, g0.shape[1]
    alpha = np.repeat(1.0 / plan.supports.counts[plan.supports.ids], heads)
    if learned:
        alpha = _slot_attention(fused, g, a, tgt_rows, src_rows, mode, plan.supports)
    if fused:
        out = edge_messages(g, alpha, src_rows, plan.targets, plan.num_nodes, heads)
    else:
        messages = reshape(scale_rows(gather_rows(g, src_rows), alpha), (edges, heads * cols))
        out = segment_reduce(messages, plan.targets, plan.num_nodes, "sum")
    loss = sum_all(mul(out, weights))
    if learned:
        loss = add(loss, sum_all(mul(alpha, alpha_weights)))
    grads = tape.backward(loss)
    alpha_bytes = alpha.data.tobytes() if learned else b""
    leaf_grads = [grads[t].tobytes() for t in (g, a)]
    return out.data.tobytes(), alpha_bytes, leaf_grads, tape.min_kink_gap(), tape.num_recorded


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["additive", "multiplicative"]),
    st.sampled_from(["wirgat", "argat"]),
    st.integers(1, 3),
    st.booleans(),
    st.lists(st.integers(0, 12), min_size=1, max_size=4),
    st.integers(1, 7),
    st.sampled_from(["coarse", "gaussian"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_fused_edge_ops_equal_the_primitive_chain_bytewise(
    mode, kind, heads, learned, sizes, n, values, by_runs, seed
):
    # empty relations, singleton supports, ties and exact zeros (a coarse
    # grid puts additive logits on the leaky ReLU's kink) all occur; by_runs
    # makes every sum sort by runs
    from relgat.layers import EdgePlan

    rng = np.random.default_rng(seed)
    edges = [(rng.integers(n, size=size), rng.integers(n, size=size)) for size in sizes]
    plan = EdgePlan(edges, n, kind)
    if by_runs:
        plan.targets.runs()
        plan.supports.runs()
    cols, dim = 3, 1 if mode == "additive" else 2
    slots = heads * len(sizes)

    def draw(shape):
        if values == "coarse":
            return rng.integers(-2, 3, size=shape) / 2.0
        return rng.normal(size=shape)

    g0, a0 = draw((slots * n, cols)), draw((slots * 2 * cols, dim))
    weights, alpha_weights = rng.normal(size=(n, heads * cols)), rng.normal(size=plan.target_rows.size * heads)
    args = (mode, learned, heads, plan, g0, a0, weights, alpha_weights)
    fused, chain = _edge_forward(True, *args), _edge_forward(False, *args)
    assert fused[:4] == chain[:4]
    # 2 fused ops for the 6 per-slot query and key ops (two slices and a
    # matmul each), 2 concat_rows, and 10 (additive) or 9 (multiplicative)
    # edge ops; 1 for the 4 constant ones
    assert chain[4] - fused[4] == (6 * slots + (10 if mode == "additive" else 9) if learned else 3)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["additive", "multiplicative"]),
    st.integers(1, 3),
    st.sampled_from(["wirgat", "argat"]),
    st.integers(1, 3),
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
    st.integers(1, 12),
    st.sampled_from(["coarse", "gaussian", "spread"]),
    st.sampled_from(["none", "signed", "silent"]),
    st.integers(0, 2**32 - 1),
)
def test_edge_attention_equals_the_per_slot_chain_bytewise(mode, dim, kind, heads, sizes, n, values, loss, seed):
    """Values, the gradients of g and of the kernel, and the kink gap.

    Few edges over up to 12 nodes leave most slot rows unread; coarse draws
    put zeros and negatives in the kernels and g; spread kernels push logit
    gaps past exp's underflow, so that coefficients are 0; a signed loss
    gives g a gradient of +-0.0 and +-0.5 entries before edge_attention's
    backward runs, and a silent loss reads the coefficients with weight 0.
    Multiplicative logits of dimension 1 take the one-term path too.
    """
    from relgat.layers import EdgePlan

    rng = np.random.default_rng(seed)
    dim = 1 if mode == "additive" else dim
    edges = [(rng.integers(n, size=size), rng.integers(n, size=size)) for size in sizes]
    plan = EdgePlan(edges, n, kind)
    cols, slots = 2, heads * len(sizes)
    if values == "gaussian":
        g0, a0 = rng.normal(size=(slots * n, cols)), rng.normal(size=(slots * 2 * cols, dim))
    else:
        g0 = rng.integers(-2, 3, size=(slots * n, cols)) / 2.0
        a0 = rng.integers(-2, 3, size=(slots * 2 * cols, dim)) / 2.0
        if values == "spread":
            g0, a0 = g0 * 30.0, a0 * 30.0
    alpha_weights = rng.normal(size=plan.target_rows.size * heads) * (loss != "silent")
    prior = rng.integers(-1, 2, size=g0.shape) / 2.0
    prior[rng.random(g0.shape) < 0.5] = -0.0
    tgt_rows, src_rows = _slot_rows(plan, heads, slots * n // heads)

    def run(fused):
        tape = Tape()
        g, a = tape.leaf(g0), tape.leaf(a0)
        alpha = _slot_attention(fused, g, a, tgt_rows, src_rows, mode, plan.supports)
        total = sum_all(mul(alpha, alpha_weights))
        if loss == "signed":
            # recorded after the attention, so its backward adds to g first
            total = add(total, sum_all(mul(g, prior)))
        grads = tape.backward(total)
        return alpha.data.tobytes(), grads[g].tobytes(), grads[a].tobytes(), tape.min_kink_gap()

    assert run(True) == run(False)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("differentiable", [True, False])
def test_a_logit_overflowing_under_a_finite_softmax_raises(differentiable):
    # one slot of 2 nodes, node 0 attending to sources 0 and 1: queries
    # (1e200, 1e100) and keys (-1e200, -1e100) are finite, q0*k0 overflows
    # to -inf and q0*k1 does not, so the softmax reads (0, 1), finite, and
    # would hide the -inf
    tape = Tape(differentiable=differentiable)
    g, a = tape.leaf([[1e100], [1.0]]), tape.leaf([[1e100], [-1e100]])
    rows, sources, ids = np.array([0, 0]), np.array([0, 1]), np.array([0, 0])
    with pytest.raises(OverflowError, match="non-finite entries in logits of edge_attention"):
        edge_attention(g, a, rows, sources, "multiplicative", ids)
    # the additive sum q0 + k0 of -1e308 and -1e308 overflows in the same way
    g, a = tape.leaf([[-1e308], [1.0]]), tape.leaf([[1.0], [1.0]])
    with pytest.raises(OverflowError, match="logits of edge_attention"):
        edge_attention(g, a, rows, sources, "additive", ids)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("half", ["queries", "keys"])
def test_an_overflowing_query_or_key_product_raises(half):
    # g and both kernel halves are finite, one half's product with row 0 of
    # g is not; no edge reads row 0, and every row is checked all the same
    tape = Tape(differentiable=False)
    g = tape.leaf([[1e200], [1.0]])
    a = tape.leaf([[1e200], [1.0]] if half == "queries" else [[1.0], [1e200]])
    with pytest.raises(OverflowError, match=f"non-finite entries in {half} of edge_attention"):
        edge_attention(g, a, np.array([1]), np.array([1]), "additive", np.array([0]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_an_op_result_error_names_the_op():
    tape = Tape(differentiable=False)
    with pytest.raises(OverflowError, match="non-finite entries in op result of matmul"):
        matmul(tape.leaf([[1e300]]), tape.leaf([[1e300]]))
    g = tape.leaf([[1e308], [1e308]])
    with pytest.raises(OverflowError, match="non-finite entries in op result of edge_messages"):
        edge_messages(g, np.ones(2), np.array([0, 1]), np.array([0, 0]), 1, 1)


def test_fused_edge_ops_refuse_misaligned_inputs():
    tape = Tape()
    # one slot of 3 nodes with one feature, and its (2, 1) attention kernel
    q, a, g = tape.leaf(np.ones((3, 1))), tape.leaf(np.ones((2, 1))), tape.leaf(np.ones((3, 2)))
    rows = np.array([0, 1, 2])
    with pytest.raises(ValueError, match="unknown logit mode"):
        edge_attention(q, a, rows, rows, "dot", rows)
    with pytest.raises(ValueError, match="additive logits read one column"):
        edge_attention(q, tape.leaf(np.ones((2, 2))), rows, rows, "additive", rows)
    for kernel_rows in (3, 4):  # 3 rows are no whole slot; 2 slots do not split 3 rows
        with pytest.raises(ValueError, match="slot-stacked features and kernels"):
            edge_attention(q, tape.leaf(np.ones((kernel_rows, 1))), rows, rows, "additive", rows)
    with pytest.raises(ValueError, match="source rows out of range"):
        edge_attention(q, a, rows, rows + 1, "additive", rows)
    with pytest.raises(ValueError, match="3 target rows for 2 source rows"):
        edge_attention(q, a, rows, rows[:2], "additive", rows)
    with pytest.raises(ValueError, match="do not split into 2 heads"):
        edge_messages(g, np.ones(3), rows, rows, 3, 2)
    with pytest.raises(ValueError, match=r"row scale shape mismatch: 3 rows vs \(2,\)"):
        edge_messages(g, np.ones(2), rows, rows, 3, 1)
