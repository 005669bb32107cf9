"""Flat and 2-D tensors recorded on a tape, with reverse-mode gradients.

Everything the graph layers need is expressible with scalars, vectors and
matrices, so shapes are restricted to ndim <= 2. Every tensor is float64 so
finite-difference checks are meaningful.

Every public op validates its inputs, checks the result for non-finite
entries (raising OverflowError, which names the op, otherwise), and records
a backward closure on the tape. ``Tape.backward`` walks the recorded ops
once, in reverse order, and frees each op's output gradient as soon as that
op's backward has run.
A tape made with ``differentiable=False`` records nothing and serves
forwards that are only scored; it keeps every finite check.

Tensors point at their tape, never the other way round: the tape keeps leaf
ids and shapes, and backward closures capture ids and arrays, not tensors.
Reference counting therefore frees a tape and every array it recorded as
soon as the last tensor on it is dropped, without the cycle collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GradientMap",
    "KinkError",
    "LEAKY_SLOPE",
    "SegmentPlan",
    "Tape",
    "Tensor",
    "add",
    "block_matmul",
    "concat_rows",
    "edge_attention",
    "edge_messages",
    "gather_rows",
    "grad_check",
    "leaky_relu",
    "log",
    "matmul",
    "mul",
    "relu",
    "reshape",
    "row_softmax",
    "rowsum",
    "scale_rows",
    "segment_mean_max",
    "segment_reduce",
    "segment_softmax",
    "slice_rows",
    "sum_all",
    "sum_blocks",
    "sum_squares",
    "tanh",
]

LEAKY_SLOPE = 0.2  # the leaky ReLU slope of every additive attention logit


class KinkError(RuntimeError):
    """A finite-difference check sits on a non-smooth point even after shifting."""


class Tensor:
    """Immutable array bound to one tape. Created via ``Tape.leaf`` or ops."""

    __slots__ = ("tape", "id", "data")

    def __init__(self, tape: "Tape", tensor_id: int, data: np.ndarray):
        self.tape = tape
        self.id = tensor_id
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(id={self.id}, shape={self.shape})"


class GradientMap:
    """Gradients of one scalar loss with respect to every tape leaf."""

    def __init__(self, by_id: dict[int, np.ndarray]):
        self._by_id = by_id

    def __getitem__(self, leaf: Tensor) -> np.ndarray:
        try:
            return self._by_id[leaf.id]
        except KeyError:
            raise KeyError(f"tensor {leaf.id} is not a leaf of this tape") from None


class Tape:
    """Append-only record of primitive applications.

    Tensor ids increase strictly in creation order; ``backward`` visits the
    recorded ops exactly once, in reverse recording order, and returns the
    gradient for every leaf (zeros for leaves the loss never touched).
    Each op is kept as an (output id, backward) pair, and the smallest kink
    gap of any op as a running minimum.

    With differentiable=False the tape serves forwards that are only
    scored: leaves are read-only views of the given arrays, nothing is
    recorded, so each op result is freed once nothing uses it, and
    ``backward`` raises ValueError. Leaves and op results are still checked
    for non-finite entries.
    """

    def __init__(self, *, differentiable: bool = True):
        self.differentiable = differentiable
        self._ops: list[tuple[int, Callable]] = []
        self._leaves: list[tuple[int, tuple[int, ...]]] = []
        self._count = 0
        self._kink_gap = np.inf

    def _next_id(self) -> int:
        i = self._count
        self._count += 1
        return i

    @property
    def num_recorded(self) -> int:
        return self._count

    def leaf(self, data) -> Tensor:
        # a differentiable tape copies, so that writes to data before its
        # backward runs cannot reach the arrays its closures hold
        if self.differentiable:
            arr = np.array(data, dtype=np.float64)
        else:
            arr = np.asarray(data, dtype=np.float64).view()
        t = Tensor(self, self._next_id(), _frozen(arr, "leaf value"))
        if self.differentiable:
            self._leaves.append((t.id, arr.shape))
        return t

    def record(self, name: str, out: np.ndarray, backward: Callable, kink_gap: float = np.inf) -> Tensor:
        """The result of the op called name; only an error message keeps the name."""
        t = Tensor(self, self._next_id(), _frozen(np.asarray(out, dtype=np.float64), "op result", name))
        if self.differentiable:
            self._ops.append((t.id, backward))
            self._kink_gap = min(self._kink_gap, float(kink_gap))
        return t

    def min_kink_gap(self) -> float:
        """Smallest distance of any recorded pre-activation from a kink."""
        return self._kink_gap

    def backward(self, loss: Tensor) -> GradientMap:
        if not self.differentiable:
            raise ValueError("this tape was made with differentiable=False and recorded nothing")
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        if loss.ndim != 0:
            raise ValueError(f"loss must be a recorded scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {loss.id: np.ones(())}
        # an op's output gradient is complete once its backward runs, since
        # every consumer was recorded later; drop it there so intermediate
        # gradients do not pile up until the walk ends
        for out_id, backward in reversed(self._ops):
            if out_id in grads:
                backward(grads.pop(out_id), grads)
        out: dict[int, np.ndarray] = {}
        for leaf_id, shape in self._leaves:
            g = grads.get(leaf_id)
            if g is None:
                g = np.zeros(shape)
            out[leaf_id] = np.asarray(g, dtype=np.float64)
        return GradientMap(out)


def _frozen(arr: np.ndarray, what: str, op: str | None = None) -> np.ndarray:
    # the one shape and finite check of every leaf and op result
    if arr.ndim > 2:
        raise ValueError(f"tensors are at most 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise OverflowError(f"non-finite entries in {what}" + (f" of {op}" if op else ""))
    arr.setflags(write=False)
    return arr


def _acc(grads: dict[int, np.ndarray], tensor_id: int, value: np.ndarray) -> None:
    cur = grads.get(tensor_id)
    grads[tensor_id] = value if cur is None else cur + value


def _acc_products(grads: dict[int, np.ndarray], tensor_id: int, a: np.ndarray, b: np.ndarray) -> None:
    # _acc of a[k] @ b[k] for k from the last block down, bit for bit: the
    # first sum is a new array, never the incoming gradient (add's backward
    # hands one array to two ids), and each later product is made in one
    # reused scratch and added in place
    cur, total, scratch = grads.get(tensor_id), a[-1] @ b[-1], None
    if cur is not None:
        scratch, total = total, cur + total
    for k in reversed(range(len(a) - 1)):
        scratch = np.matmul(a[k], b[k], out=scratch)
        total += scratch
    grads[tensor_id] = total


def _check_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def _index_array(indices, bound: int, name: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{name} must be a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"{name} out of range [0, {bound})")
    return idx


class SegmentPlan:
    """The segment of every row, checked and counted once, for any number of
    segment ops over the same ids: ``segment_reduce``, ``segment_mean_max``
    and ``segment_softmax`` take a plan where they take ids, and make raw
    ids a plan of one call.

    A plan holds the ids, their counts and, from the first sum that sorts
    by runs, the row indices of every run size. Nothing in it comes from
    values, and it holds integer arrays only. An op given a plan gives the
    bytes its raw-id call gives.
    """

    __slots__ = ("ids", "counts", "_runs")

    def __init__(self, segments, num_segments: int):
        # the one id check and the one count of every segment op
        if num_segments < 0:
            raise ValueError("num_segments must be non-negative")
        ids = _index_array(segments, max(num_segments, 1), "segment ids")
        self.counts = np.bincount(ids, minlength=num_segments)
        # read-only, so that no op writes to a plan others share; the ids
        # are a view, so a caller's own array stays writable
        self.ids = ids.view()
        self.ids.setflags(write=False)
        self.counts.setflags(write=False)
        self._runs = None

    @property
    def num_segments(self) -> int:
        return self.counts.size

    def sorts_by_runs(self, shape: tuple[int, int]) -> bool:
        """The one dispatch rule of every segment sum and max over a
        (rows, cols) matrix: sort by runs once the plan has them, and else
        only where building them pays within the call, a matrix of more than
        one column and at least _NETWORK_MIN_ENTRIES entries. Every other sum
        takes the value sort."""
        rows, cols = shape
        return self._runs is not None or (cols > 1 and rows * cols >= _NETWORK_MIN_ENTRIES)

    def runs(self) -> list:
        if self._runs is None:
            self._runs = _runs(self.ids, self.counts)
        return self._runs


def _plan(segments, num_segments: int, rows: int) -> SegmentPlan:
    # raw ids make a plan of one call; a given plan must fit the call
    plan = segments if isinstance(segments, SegmentPlan) else SegmentPlan(segments, num_segments)
    if plan.num_segments != num_segments:
        raise ValueError(f"plan has {plan.num_segments} segments, the call {num_segments}")
    if plan.ids.size != rows:
        raise ValueError(f"segment ids cover {plan.ids.size} rows, values have {rows}")
    return plan


def _sort_by_segment_and_value(data: np.ndarray, segments: np.ndarray, counts: np.ndarray):
    # Orders every column of a (rows, cols) matrix by (segment, value) in one
    # pass: rank the values of each column, then sort the distinct integer
    # keys segment * rows + rank. Rows tied on value hold equal values, so
    # each segment's sorted run, and any sum over it, depends only on the
    # multiset of its values.
    # Returns the sorted values as (cols, rows) and each non-empty segment's
    # run start.
    rows, cols = data.shape
    by_value = np.argsort(data.T, axis=1)
    # listing the keys in value order needs no rank scatter
    key = segments[by_value]
    key *= rows
    key += np.arange(rows)
    key.sort(axis=1)
    # every column's position p lies in the same segment; removing that
    # segment's base leaves the rank, made a flat index into by_value
    key -= np.repeat(np.arange(counts.size) * rows, counts)
    key += np.arange(cols)[:, None] * rows
    source = by_value.ravel()[key]
    del by_value, key
    # flat index of (source row, column) in data
    source *= cols
    source += np.arange(cols)[:, None]
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return np.take(data, source), starts


def _sorted_sums(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # (segments, cols) sums of the sorted runs; empty segments sum to zero
    out = np.zeros((counts.size, ordered.shape[0]), dtype=ordered.dtype)
    out[counts > 0] = np.add.reduceat(ordered, starts, axis=1).T
    return out


# Comparator networks with the fewest comparators for 0 to 8 lanes (Knuth,
# TAOCP vol. 3, 5.3.4): each pair (i, j) puts the smaller value in lane i,
# and _NETWORKS[s] sorts s lanes ascending.
_NETWORKS = (
    (),
    (),
    ((0, 1),),
    ((0, 2), (0, 1), (1, 2)),
    ((0, 2), (1, 3), (0, 1), (2, 3), (1, 2)),
    ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5), (1, 2), (3, 4)),
    ((0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4), (1, 2), (4, 6), (2, 3),
     (4, 5), (1, 2), (3, 4), (5, 6)),
    ((0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3), (4, 5), (6, 7),
     (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6)),
)

# The networks cost about 0.25 ms per call whatever the input, so a plan
# used once builds runs only for wide matrices. Best of 40 calls on a 2-core
# Intel Xeon (numpy 2.4), supports of 1 to 8 rows, value sort time over
# network time: 100x104 0.86, 128x104 1.1, 512x16 1.3, 1024x16 1.8, 2048x16
# 4.3, 2048x104 7.7; one column of 4,096 or 9,720 rows (softmax
# denominators) 0.5-0.6. The bound keeps the sums of one-graph forwards (at
# most ~100 rows) on the value sort.
_NETWORK_MIN_ENTRIES = 1 << 14


def _sort_lanes(lanes: list[np.ndarray]) -> None:
    # Sorts 1 to 8 equal-shape arrays elementwise across the list, in place:
    # afterwards lanes[0] <= lanes[1] <= ... at every position.
    spare = np.empty_like(lanes[0])
    for i, j in _NETWORKS[len(lanes)]:
        # minimum and maximum each return their second operand on a tie, so
        # the swapped operands keep one zero of each sign of a (+0.0, -0.0)
        # pair, and every position keeps its multiset of values
        np.minimum(lanes[i], lanes[j], out=spare)
        np.maximum(lanes[j], lanes[i], out=lanes[j])
        lanes[i], spare = spare, lanes[i]


def _runs(segments: np.ndarray, counts: np.ndarray) -> list:
    # Per run size present, ascending: (size, the segments of that size,
    # their rows), the rows as (size, n) for the networks' runs of up to 8
    # and as (n, size) for the longer runs a block sort orders. The default
    # argsort is not stable, and need not be: a run's sum depends only on
    # its multiset.
    order = np.argsort(segments)
    starts = np.cumsum(counts) - counts
    nonempty = np.flatnonzero(counts)
    by_size = nonempty[np.argsort(counts[nonempty], kind="stable")]
    sizes, first = np.unique(counts[by_size], return_index=True)
    runs = []
    for size, which in zip(sizes.tolist(), np.split(by_size, first[1:])):
        lane = np.arange(size)
        if size < len(_NETWORKS):
            runs.append((size, which, order[starts[which] + lane[:, None]]))
        else:
            runs.append((size, which, order[starts[which][:, None] + lane]))
    return runs


def _run_stats(data: np.ndarray, counts: np.ndarray, runs: list, maxima: bool = False):
    # The (segments, cols) sums of the value-sorted path, bit for bit, from
    # each run in ascending order: runs of up to 8 rows gathered into lanes
    # and sorted by a fixed network, longer runs sorted as contiguous
    # (n, cols, size) blocks by np.sort. Both add a run as np.add.reduceat
    # does, a0 + (-0.0 + a1 + ... + a_{s-1}), pairwise past 8 terms.
    # With maxima, also each segment's max and the smallest gap between a
    # segment's top two values, as _sorted_max gives them; else None, inf.
    # np.sort's SIMD kernels may return one zero for both of a (+0.0, -0.0)
    # pair. Only a sum of zeros alone, which is -0.0 unless a +0.0 is among
    # them, and a zero max can show that, so those two are mended from the
    # unsorted run.
    shape = (counts.size, data.shape[1])
    sums = np.zeros(shape, dtype=data.dtype)
    top = np.zeros(shape, dtype=data.dtype) if maxima else None
    gap = np.inf
    for size, which, rows in runs:
        if size < len(_NETWORKS):
            lanes = list(data.take(rows, axis=0))
            _sort_lanes(lanes)
            total = lanes[0] + sum(lanes[1:], -0.0)
            last, below = lanes[-1], lanes[-2] if size > 1 else None
            held, axis = lanes, 0
        else:
            run = data.take(rows, axis=0)
            block = run.transpose(0, 2, 1).copy()
            block.sort(axis=2)
            total = np.add.reduceat(block, [0], axis=2)[:, :, 0]
            last, below = block[:, :, -1], block[:, :, -2]
            held, axis = run, 1
            lost = (total == 0) & np.signbit(total)
            if lost.any():
                total[lost & _holds_plus_zero(held, axis)] = 0.0
        sums[which] = total
        if maxima:
            zero = last == 0
            if zero.any():
                # a zero max is +0.0 whenever its run holds one
                last = np.where(zero & _holds_plus_zero(held, axis), 0.0, last)
            top[which] = last
            if below is not None:
                gap = min(gap, float(np.min(last - below)))
    return sums, top, gap


def _holds_plus_zero(runs, axis: int) -> np.ndarray:
    # whether each run holds a +0.0, over the runs' axis
    runs = np.asarray(runs)
    return np.logical_or.reduce((runs == 0) & ~np.signbit(runs), axis=axis)


def _sums(data: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    # (segments, cols) sums of a (rows, cols) matrix in value-sorted order
    if plan.sorts_by_runs(data.shape):
        return _run_stats(data, plan.counts, plan.runs())[0]
    return _sorted_sums(*_sort_by_segment_and_value(data, plan.ids, plan.counts), plan.counts)


def _sorted_max(data, segments, counts, ordered, starts, differentiable: bool):
    # Each segment's max is the last entry of its sorted run; empty segments
    # get zero. Returns the (segments, cols) maxima and, for a differentiable
    # tape only, the smallest gap between a segment's top two values and the
    # first winners (_first_winners).
    cols = data.shape[1]
    nonempty = counts > 0
    ends = starts + counts[nonempty] - 1
    top = ordered[:, ends]
    zero = top == 0
    if zero.any():
        # -0.0 and +0.0 tie in the value sort, so which one ends a run
        # depends on row order; a zero max is +0.0 whenever its run holds one
        plus = np.logical_or.reduceat((ordered == 0) & ~np.signbit(ordered), starts, axis=1)
        top[zero & plus] = 0.0
    out = np.zeros((counts.size, cols), dtype=data.dtype)
    out[nonempty] = top.T
    if not differentiable:
        return out, np.inf, None
    # distance between the top two values bounds how safe a
    # finite-difference probe is around this max
    multi = counts[nonempty] >= 2
    gap = float(np.min(top[:, multi] - ordered[:, ends[multi] - 1])) if multi.any() else np.inf
    return out, gap, _first_winners(data, segments, out)


def _maxima(data: np.ndarray, plan: SegmentPlan, differentiable: bool):
    # (sums, maxima, gap, first winners) of each segment, from one sort
    if plan.sorts_by_runs(data.shape):
        sums, top, gap = _run_stats(data, plan.counts, plan.runs(), maxima=True)
        if not differentiable:
            return sums, top, np.inf, None
        return sums, top, gap, _first_winners(data, plan.ids, top)
    ordered, starts = _sort_by_segment_and_value(data, plan.ids, plan.counts)
    top, gap, winners = _sorted_max(data, plan.ids, plan.counts, ordered, starts, differentiable)
    return _sorted_sums(ordered, starts, plan.counts), top, gap, winners


def _first_winners(data: np.ndarray, segments: np.ndarray, top: np.ndarray):
    # (segment, col, row) coordinates of the first row holding each max,
    # which takes the whole gradient
    rows = data.shape[0]
    hit_rows, hit_cols = np.nonzero(data == top[segments])
    first = np.full(top.shape, rows, dtype=np.int64)
    np.minimum.at(first, (segments[hit_rows], hit_cols), hit_rows)
    win_segs, win_cols = np.nonzero(first < rows)
    return win_segs, win_cols, first[win_segs, win_cols]


# ---------------------------------------------------------------------------
# primitive ops
#
# Backward closures capture ids, shapes and arrays, never a Tensor or a Tape,
# so a tape's op records hold no reference back to it.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_tape(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    a_id, a_data, b_id, b_data = a.id, a.data, b.id, b.data
    out = a_data @ b_data

    def backward(g, grads):
        _acc(grads, a_id, g @ b_data.T)
        _acc(grads, b_id, a_data.T @ g)

    return tape.record("matmul", out, backward)


def block_matmul(x: Tensor, w: Tensor, blocks: int, *, shared: str) -> Tensor:
    """Many small matrix products as one op: block b of the result is x_b @ w_b.

    Blocks are stacked row-wise: the result is (blocks*n, m) with block b in
    rows b*n:(b+1)*n. One operand is shared by every block. With shared="x",
    x is one (n, f) matrix and w is blocked, (blocks*f, m) with w_b its b-th
    row block; with shared="w", w is one (f, m) kernel and x is blocked,
    (blocks*n, f) with x_b its b-th row block.

    All blocks run as one ``np.matmul`` over (blocks, rows, cols) views, the
    shared operand being a broadcast view, and it gives every block the same
    BLAS call, with the same strides, that a separate ``matmul`` makes. The
    shared operand's gradient adds the block terms one at a time in reverse
    block order. Values and gradients therefore equal those of a loop of
    ``matmul`` ops recorded in block order, bit for bit.
    """
    tape = _check_tape(x, w)
    if shared not in ("x", "w"):
        raise ValueError(f"shared must be 'x' or 'w', got {shared!r}")
    if x.ndim != 2 or w.ndim != 2 or blocks < 1:
        raise ValueError(f"block_matmul expects matrices and blocks >= 1, got {x.shape}, {w.shape}")
    n = x.shape[0] if shared == "x" else x.shape[0] // blocks
    f, m = x.shape[1], w.shape[1]
    if (x.shape[0], w.shape[0]) != ((n, blocks * f) if shared == "x" else (blocks * n, f)):
        raise ValueError(f"block_matmul shape mismatch: {x.shape} @ {w.shape} in {blocks} blocks")
    x_id, w_id = x.id, w.id
    x3 = x.data[None] if shared == "x" else x.data.reshape(blocks, n, f)
    w3 = w.data.reshape(blocks, f, m) if shared == "x" else w.data[None]
    out = np.matmul(x3, w3).reshape(blocks * n, m)

    def backward(g, grads):
        g3 = g.reshape(blocks, n, m)
        if shared == "x":
            _acc_products(grads, x_id, g3, w3.transpose(0, 2, 1))
            _acc(grads, w_id, np.matmul(x3.transpose(0, 2, 1), g3).reshape(blocks * f, m))
        else:
            _acc(grads, x_id, np.matmul(g3, w3.transpose(0, 2, 1)).reshape(blocks * n, f))
            _acc_products(grads, w_id, x3.transpose(0, 2, 1), g3)

    return tape.record("block_matmul", out, backward)


def sum_blocks(a: Tensor, blocks: int) -> Tensor:
    """Adds the equal column blocks of a matrix left to right:
    (n, blocks*m) -> (n, m)."""
    if a.ndim != 2 or blocks < 1 or a.shape[1] % blocks:
        raise ValueError(f"cannot split {a.shape} into {blocks} column blocks")
    a_id, m = a.id, a.shape[1] // blocks
    out = a.data[:, :m].copy()
    for b in range(1, blocks):
        out = out + a.data[:, b * m:(b + 1) * m]

    def backward(g, grads):
        _acc(grads, a_id, np.tile(g, (1, blocks)))

    return a.tape.record("sum_blocks", out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or a (n, f) matrix plus a length-f row."""
    tape = _check_tape(a, b)
    row = a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]
    if a.shape != b.shape and not row:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    a_id, b_id = a.id, b.id

    def backward(g, grads):
        _acc(grads, a_id, g)
        _acc(grads, b_id, g.sum(axis=0) if row else g)

    return tape.record("add", a.data + b.data, backward)


def mul(a: Tensor, b) -> Tensor:
    a_id, a_data = a.id, a.data
    if isinstance(b, Tensor):
        tape = _check_tape(a, b)
        if a.shape != b.shape:
            raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
        b_id, b_data = b.id, b.data
        out = a_data * b_data

        def backward(g, grads):
            _acc(grads, a_id, g * b_data)
            _acc(grads, b_id, g * a_data)

        return tape.record("mul", out, backward)

    const = np.asarray(b, dtype=np.float64)
    if const.ndim != 0 and const.shape != a.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {const.shape}")
    out = a_data * const

    def backward(g, grads):
        _acc(grads, a_id, g * const)

    return a.tape.record("mul", out, backward)


def leaky_relu(a: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    """Elementwise max(x, slope*x). The subgradient at exactly 0 is slope."""
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"slope must lie in [0, 1), got {slope}")
    a_id = a.id
    out, gap, factor = _leaky(a.data, slope, a.tape.differentiable)

    def backward(g, grads):
        _acc(grads, a_id, g * factor)

    return a.tape.record("leaky_relu", out, backward, kink_gap=gap)


def _leaky(x: np.ndarray, slope: float, differentiable: bool):
    # max(x, slope*x), and for a backward its kink gap and factor; a scoring
    # tape keeps no kink gap and runs no backward
    out = np.where(x > 0, x, slope * x)
    if not differentiable:
        return out, np.inf, None
    gap = float(np.min(np.abs(x))) if x.size else np.inf
    return out, gap, np.where(x > 0, 1.0, slope)


def relu(a: Tensor) -> Tensor:
    return leaky_relu(a, 0.0)


def tanh(a: Tensor) -> Tensor:
    a_id = a.id
    out = np.tanh(a.data)

    def backward(g, grads):
        _acc(grads, a_id, g * (1.0 - out * out))

    return a.tape.record("tanh", out, backward)


def log(a: Tensor) -> Tensor:
    a_id, a_data = a.id, a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a_data)

    def backward(g, grads):
        _acc(grads, a_id, g / a_data)

    return a.tape.record("log", out, backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"gather_rows expects a matrix, got shape {a.shape}")
    idx = _index_array(indices, a.shape[0], "row indices")
    a_id, shape = a.id, a.shape
    out = a.data.take(idx, axis=0)

    def backward(g, grads):
        _acc(grads, a_id, _scatter_rows(g, idx, shape))

    return a.tape.record("gather_rows", out, backward)


def _scatter_rows(g, idx: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # the gradient of a row gather: one bincount over (row, col) cells adds
    # each gathered row into a zero buffer in input order, as np.add.at
    # would, bit for bit
    rows, cols = shape
    cells = (idx[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(cells, weights=np.asarray(g).ravel(), minlength=rows * cols).reshape(shape)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    n = a.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"slice [{start}:{stop}] out of range for {n} rows")
    a_id, shape = a.id, a.shape
    out = a.data[start:stop]

    def backward(g, grads):
        buf = np.zeros(shape)
        buf[start:stop] = g
        _acc(grads, a_id, buf)

    return a.tape.record("slice_rows", out, backward)


def reshape(a: Tensor, shape) -> Tensor:
    a_id, in_shape = a.id, a.shape
    out = a.data.reshape(shape)

    def backward(g, grads):
        _acc(grads, a_id, np.asarray(g).reshape(in_shape))

    return a.tape.record("reshape", out, backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Joins flat tensors end to end, or stacks matrices with equal column
    counts row-wise."""
    if not parts:
        raise ValueError("nothing to concatenate")
    tape = _check_tape(*parts)
    if any(p.ndim not in (1, 2) for p in parts) or len({p.shape[1:] for p in parts}) != 1:
        raise ValueError("concat_rows expects flat tensors, or matrices with equal column counts")
    ids = [p.id for p in parts]
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g, grads):
        for i, lo, hi in zip(ids, bounds, bounds[1:]):
            _acc(grads, i, g[lo:hi])

    return tape.record("concat_rows", np.concatenate([p.data for p in parts]), backward)


def rowsum(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"rowsum expects a matrix, got shape {a.shape}")
    a_id, shape = a.id, a.shape
    out = a.data.sum(axis=1)

    def backward(g, grads):
        _acc(grads, a_id, np.broadcast_to(g[:, None], shape))

    return a.tape.record("rowsum", out, backward)


def sum_all(a: Tensor) -> Tensor:
    a_id, shape = a.id, a.shape
    out = np.asarray(a.data.sum(), dtype=np.float64)

    def backward(g, grads):
        _acc(grads, a_id, np.broadcast_to(g, shape))

    return a.tape.record("sum_all", out, backward)


def sum_squares(a: Tensor) -> Tensor:
    a_id, a_data = a.id, a.data
    out = np.asarray((a_data * a_data).sum(), dtype=np.float64)

    def backward(g, grads):
        _acc(grads, a_id, 2.0 * g * a_data)

    return a.tape.record("sum_squares", out, backward)


def scale_rows(m: Tensor, v) -> Tensor:
    """Multiplies row i of m by v[i]. v may be a Tensor or a constant array."""
    if m.ndim != 2:
        raise ValueError(f"scale_rows expects a matrix, got shape {m.shape}")
    tape, column, v_id = _row_scale(m, v, m.shape[0])
    # a constant scale keeps no input for its backward
    m_id, m_data = m.id, None if v_id is None else m.data

    def backward(g, grads):
        _acc(grads, m_id, g * column)
        if v_id is not None:
            _acc(grads, v_id, (g * m_data).sum(axis=1))

    return tape.record("scale_rows", m.data * column, backward)


def _row_scale(m: Tensor, v, rows: int):
    # the tape, the scales as a column and the id (None for a constant
    # array) of a scale per row of m, a Tensor or a constant array
    if isinstance(v, Tensor):
        tape, c, v_id = _check_tape(m, v), v.data, v.id
    else:
        tape, c, v_id = m.tape, np.asarray(v, dtype=np.float64), None
    if c.shape != (rows,):
        raise ValueError(f"row scale shape mismatch: {rows} rows vs {c.shape}")
    return tape, c[:, None], v_id


def segment_reduce(values: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment sum of a matrix's rows: (rows, cols) -> (num_segments,
    cols). Empty segments yield zero rows.

    segments holds one id per row, or a SegmentPlan of them. Sums
    accumulate each segment in value-sorted order, so the result is bitwise
    independent of the order the rows are listed in.
    """
    if values.ndim != 2:
        raise ValueError(f"segment_reduce expects a matrix, got shape {values.shape}")
    plan = _plan(segments, num_segments, values.shape[0])
    segs, values_id = plan.ids, values.id

    # captures ids and the segment array, never data: the input can be the
    # largest matrix of a forward
    def backward(g, grads):
        _acc(grads, values_id, g[segs])

    return values.tape.record("segment_reduce", _sums(values.data, plan), backward)


def segment_mean_max(values: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment mean and max of a matrix's rows, side by side:
    (rows, cols) -> (num_segments, 2*cols). Empty segments yield zero rows.
    segments holds one id per row, or a SegmentPlan of them.

    Both halves come from one sort. The mean half is ``segment_reduce``'s
    sums over the row counts, bit for bit, and the max half's gradient goes
    to the first row holding each segment's max.
    """
    if values.ndim != 2:
        raise ValueError(f"segment_mean_max expects a matrix, got shape {values.shape}")
    rows, cols = values.shape
    plan = _plan(segments, num_segments, rows)
    segs = plan.ids
    data, values_id = values.data, values.id
    sums, top, gap, winners = _maxima(data, plan, values.tape.differentiable)
    divisor = np.maximum(plan.counts, 1)
    mean = sums / divisor[:, None]

    def backward(g, grads):
        # the max half's gradient is added before the mean half's, as the
        # backward walk over two separate ops adds them
        win_segs, win_cols, win_rows = winners
        buf = np.zeros((rows, cols))
        buf[win_rows, win_cols] = g[win_segs, cols + win_cols]
        _acc(grads, values_id, buf)
        _acc(grads, values_id, g[:, :cols].take(segs, axis=0) / divisor[segs, None])

    return values.tape.record("segment_mean_max", np.concatenate([mean, top], axis=1), backward, kink_gap=gap)


def segment_softmax(logits: Tensor, segments) -> Tensor:
    """Softmax within each segment of a flat logit vector.

    segments holds one id per logit, or a SegmentPlan over rows of k
    logits each: the softmax then runs within each (segment, column) of the
    logits read as a (rows, k) matrix, which equals a softmax over the ids
    id*k + column. Numerically stabilized by subtracting the per-segment
    max. Entries of a segment sum to 1; a singleton segment maps to exactly
    1. Empty input yields empty output.
    """
    if logits.ndim != 1:
        raise ValueError(f"segment_softmax expects a flat tensor, got {logits.shape}")
    plan, k = _softmax_plan(segments, logits.size)
    logits_id = logits.id
    y = _softmax(logits.data, plan, k)

    def backward(g, grads):
        _acc(grads, logits_id, _softmax_grad(y, g, plan, k))

    return logits.tape.record("segment_softmax", y, backward)


def _softmax_plan(segments, size: int) -> tuple[SegmentPlan, int]:
    # the plan of a softmax over size logits, and how many logits per row
    plan = segments
    if not isinstance(plan, SegmentPlan):
        ids = np.asarray(segments, dtype=np.int64)
        plan = SegmentPlan(ids, int(ids.max(initial=-1)) + 1)
    rows = plan.ids.size
    k = max(size // rows, 1) if rows else 1
    if rows * k != size:
        raise ValueError(f"segment ids cover {rows} rows, values have {size}")
    return plan, k


def _softmax(x: np.ndarray, plan: SegmentPlan, k: int) -> np.ndarray:
    # a max is exact in any order, so it needs no runs: one pass over flat ids
    flat = plan.ids if k == 1 else (plan.ids[:, None] * k + np.arange(k)).ravel()
    mx = np.full(plan.num_segments * k, -np.inf)
    np.maximum.at(mx, flat, x)
    e = np.exp(x - mx[flat])
    return e / _sums(e.reshape(-1, k), plan).take(plan.ids, axis=0).ravel()


def _softmax_grad(y: np.ndarray, g: np.ndarray, plan: SegmentPlan, k: int) -> np.ndarray:
    s = _sums((y * g).reshape(-1, k), plan)
    return y * (g - s.take(plan.ids, axis=0).ravel())


def row_softmax(m: Tensor) -> Tensor:
    """Softmax along each row of a matrix, stabilized by the row max."""
    if m.ndim != 2:
        raise ValueError(f"row_softmax expects a matrix, got shape {m.shape}")
    m_id, x = m.id, m.data
    mx = x.max(axis=1, keepdims=True) if x.size else np.zeros((x.shape[0], 1))
    e = np.exp(x - mx)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g, grads):
        s = (y * g).sum(axis=1, keepdims=True)
        _acc(grads, m_id, y * (g - s))

    return m.tape.record("row_softmax", y, backward)


# ---------------------------------------------------------------------------
# fused edge ops: each runs the numpy expressions of the primitive chain it
# replaces and adds its gradients in that chain's order, so values, kink
# gaps and gradients are the same bytes


def edge_attention(g: Tensor, kernel: Tensor, target_rows, source_rows, mode: str, supports) -> Tensor:
    """Attention coefficients of the edges between slot rows of g, as one op.

    g stacks every slot's projected features, (slots*N, F') with slot s in
    rows s*N to (s+1)*N, and kernel every slot's attention kernel,
    (slots*2F', D), whose top F' rows map to queries and bottom F' to keys.
    Queries and keys are one ``np.matmul`` each over (slots, N, F') views,
    the BLAS calls a loop of per-slot ``matmul`` ops makes. The op returns
    ``segment_softmax`` over supports of the additive logits
    ``leaky_relu(qe + ke)`` (D = 1) or the multiplicative ones
    ``rowsum(qe * ke)``, with qe and ke the query rows target_rows and the
    key rows source_rows. Queries, keys and logits are checked too: the
    softmax would turn a -inf logit into a finite weight of 0.

    Gradients add as that loop's backwards add them, keys before queries.
    With D = 1 every product has one term, so only the rows of g whose query
    or key gradient is nonzero are multiplied; every other row gets +0.0,
    as np.matmul's one-term products give it.
    """
    tape = _check_tape(g, kernel)
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown logit mode {mode!r}")
    if g.ndim != 2 or kernel.ndim != 2:
        raise ValueError(f"edge_attention expects matrices, got {g.shape}, {kernel.shape}")
    fp, dim = g.shape[1], kernel.shape[1]
    slots = kernel.shape[0] // (2 * fp) if fp else 0
    if slots < 1 or kernel.shape[0] != slots * 2 * fp or g.shape[0] % slots:
        raise ValueError(f"edge_attention expects slot-stacked features and kernels, got {g.shape}, {kernel.shape}")
    if mode == "additive" and dim != 1:
        raise ValueError("additive logits read one column")
    n = g.shape[0] // slots
    tgt = _index_array(target_rows, g.shape[0], "target rows")
    src = _index_array(source_rows, g.shape[0], "source rows")
    if tgt.size != src.size:
        raise ValueError(f"{tgt.size} target rows for {src.size} source rows")
    plan, k = _softmax_plan(supports, tgt.size)
    g_id, g_shape, a_id, a_shape = g.id, g.shape, kernel.id, kernel.shape
    g3, a3 = g.data.reshape(slots, n, fp), kernel.data.reshape(slots, 2 * fp, dim)
    shape = (slots * n, dim)
    qe = _frozen(np.matmul(g3, a3[:, :fp]).reshape(shape), "queries", "edge_attention").take(tgt, axis=0)
    ke = _frozen(np.matmul(g3, a3[:, fp:]).reshape(shape), "keys", "edge_attention").take(src, axis=0)
    gap, factor = np.inf, None
    if mode == "additive":
        x, gap, factor = _leaky((qe + ke).reshape(tgt.size), LEAKY_SLOPE, tape.differentiable)
        qe = ke = None  # the backward reads the factor alone
    else:
        x = (qe * ke).sum(axis=1)
    y = _softmax(_frozen(x, "logits", "edge_attention"), plan, k)

    def backward(grad, grads):
        gx = _softmax_grad(y, grad, plan, k)
        gx = (gx * factor)[:, None] if factor is not None else np.broadcast_to(gx[:, None], (tgt.size, dim))
        out = None
        if dim == 1:
            # np.matmul's one-term product of row r is +0.0 + full[r] * w, so
            # a row whose gradient is 0 adds +0.0; once cur + 0.0 has turned
            # every -0.0 into +0.0, that +0.0 changes nothing, in later adds too
            cur = grads.get(g_id)
            out = np.zeros(g_shape) if cur is None else cur + 0.0
        # keys first, as the per-slot products' backwards add them; a logit
        # q . k sends gx * q to its key and gx * k to its query
        for rows, other, start in ((src, qe, fp), (tgt, ke, 0)):
            full = _scatter_rows(gx if other is None else gx * other, rows, shape)
            gw = np.zeros((slots, 2 * fp, dim))
            np.matmul(g3.transpose(0, 2, 1), full.reshape(slots, n, dim), out=gw[:, start:start + fp])
            _acc(grads, a_id, gw.reshape(a_shape))
            w = a3[:, start:start + fp]
            if out is None:
                # a product of many terms takes its bytes from the dense BLAS call
                _acc(grads, g_id, np.matmul(full.reshape(slots, n, dim), w.transpose(0, 2, 1)).reshape(g_shape))
            else:
                read = np.flatnonzero(full)
                out[read] += full[read] * w[read // n, :, 0]
        if out is not None:
            grads[g_id] = out

    return tape.record("edge_attention", y, backward, kink_gap=gap)


def edge_messages(g: Tensor, coefficients, source_rows, targets, num_nodes: int, heads: int) -> Tensor:
    """The rows source_rows of g (edge-major, then head) scaled by the
    coefficients, a Tensor or a constant array, and summed per target as
    one op: (num_nodes, heads * cols). Only the sums are checked: every
    message enters one, so a non-finite message cannot hide.
    """
    if g.ndim != 2 or heads < 1:
        raise ValueError(f"edge_messages expects a matrix and heads >= 1, got {g.shape}, {heads}")
    src = _index_array(source_rows, g.shape[0], "source rows")
    edges, cols = src.size // heads, g.shape[1]
    if edges * heads != src.size:
        raise ValueError(f"{src.size} source rows do not split into {heads} heads")
    plan = _plan(targets, num_nodes, edges)
    tape, column, c_id = _row_scale(g, coefficients, src.size)
    g_id, shape = g.id, g.shape
    values = g.data.take(src, axis=0)
    out = _sums((values * column).reshape(edges, heads * cols), plan)
    if c_id is None:
        del values  # constant coefficients take no gradient

    def backward(grad, grads):
        pulled = grad.take(plan.ids, axis=0).reshape(src.size, cols)
        _acc(grads, g_id, _scatter_rows(pulled * column, src, shape))
        if c_id is not None:
            _acc(grads, c_id, (pulled * values).sum(axis=1))

    return tape.record("edge_messages", out, backward)


# ---------------------------------------------------------------------------
# finite-difference checking


def grad_check(
    f: Callable[[Tape, dict[str, Tensor]], Tensor],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    *,
    rel_floor: float = 1e-8,
    kink_tol: float = 1e-6,
    kink_shift: float = 1e-3,
) -> float:
    """Compares tape gradients of f against central differences.

    f receives a fresh tape plus one leaf per entry of params and must return
    a scalar Tensor. Returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, rel_floor) over all
    parameter entries.

    If any recorded pre-activation sits within kink_tol of a non-smooth
    point, every parameter is shifted by +kink_shift and the check restarts
    once; if the kink persists, KinkError is raised so the caller can report
    and skip the case.
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def build(p):
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in p.items()}
        loss = f(tape, leaves)
        if not isinstance(loss, Tensor) or loss.ndim != 0:
            raise ValueError("f must return a scalar Tensor")
        return tape, leaves, loss

    tape, leaves, loss = build(work)
    if tape.min_kink_gap() < kink_tol:
        work = {k: v + kink_shift for k, v in work.items()}
        tape, leaves, loss = build(work)
        if tape.min_kink_gap() < kink_tol:
            raise KinkError(
                f"pre-activation within {kink_tol} of a kink even after shifting by {kink_shift}"
            )

    gmap = tape.backward(loss)
    analytic = {k: np.array(gmap[leaves[k]], dtype=np.float64) for k in work}

    def value(p) -> float:
        _, _, out = build(p)
        return float(out.data)

    max_err = 0.0
    for name, arr in work.items():
        flat = arr.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = value(work)
            flat[i] = orig - h
            down = value(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(ana[i]), abs(numeric), rel_floor)
            max_err = max(max_err, abs(ana[i] - numeric) / denom)
    return max_err
