"""Flat and 2-D tensors recorded on a tape, with reverse-mode gradients.

Everything the graph layers need is expressible with scalars, vectors and
matrices, so shapes are restricted to ndim <= 2. Every tensor is float64 so
finite-difference checks are meaningful.

Every public op validates its inputs, checks the result for non-finite
entries (raising OverflowError otherwise), and records a backward closure on
the tape. ``Tape.backward`` walks the recorded ops once, in reverse order,
and frees each op's output gradient as soon as that op's backward has run.
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
    "Tape",
    "Tensor",
    "add",
    "block_matmul",
    "concat_cols",
    "concat_flat",
    "concat_rows",
    "gather_rows",
    "grad_check",
    "leaky_relu",
    "log",
    "matmul",
    "mul",
    "neg",
    "relu",
    "reshape",
    "row_softmax",
    "rowsum",
    "scale_rows",
    "segment_mean_max",
    "segment_reduce",
    "segment_softmax",
    "slice_rows",
    "sub",
    "sum_all",
    "sum_blocks",
    "sum_squares",
    "tanh",
]

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


class _Node:
    __slots__ = ("out_id", "backward", "kink_gap")

    def __init__(self, out_id: int, backward: Callable, kink_gap: float):
        self.out_id = out_id
        self.backward = backward
        self.kink_gap = kink_gap


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

    With differentiable=False the tape serves forwards that are only
    scored: leaves are read-only views of the given arrays, nothing is
    recorded, so each op result is freed once nothing uses it, and
    ``backward`` raises ValueError. Leaves and op results are still checked
    for non-finite entries.
    """

    def __init__(self, *, differentiable: bool = True):
        self.differentiable = differentiable
        self._ops: list[_Node] = []
        self._leaves: list[tuple[int, tuple[int, ...]]] = []
        self._count = 0

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

    def record(self, out: np.ndarray, backward: Callable, kink_gap: float = np.inf) -> Tensor:
        t = Tensor(self, self._next_id(), _frozen(np.asarray(out, dtype=np.float64), "op result"))
        if self.differentiable:
            self._ops.append(_Node(t.id, backward, float(kink_gap)))
        return t

    def min_kink_gap(self) -> float:
        """Smallest distance of any recorded pre-activation from a kink."""
        if not self._ops:
            return np.inf
        return min(node.kink_gap for node in self._ops)

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
        for node in reversed(self._ops):
            if node.out_id in grads:
                node.backward(grads.pop(node.out_id), grads)
        out: dict[int, np.ndarray] = {}
        for leaf_id, shape in self._leaves:
            g = grads.get(leaf_id)
            if g is None:
                g = np.zeros(shape)
            out[leaf_id] = np.asarray(g, dtype=np.float64)
        return GradientMap(out)


def _frozen(arr: np.ndarray, what: str) -> np.ndarray:
    # the one shape and finite check of every leaf and op result
    if arr.ndim > 2:
        raise ValueError(f"tensors are at most 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise OverflowError(f"non-finite entries in {what}")
    arr.setflags(write=False)
    return arr


def _acc(grads: dict[int, np.ndarray], tensor_id: int, value: np.ndarray) -> None:
    cur = grads.get(tensor_id)
    grads[tensor_id] = value if cur is None else cur + value


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


def _segment_ids(segments, num_segments: int, rows: int) -> np.ndarray:
    if num_segments < 0:
        raise ValueError("num_segments must be non-negative")
    segs = _index_array(segments, max(num_segments, 1), "segment ids")
    if segs.size != rows:
        raise ValueError(f"segment ids cover {segs.size} rows, values have {rows}")
    return segs


def _sort_by_segment_and_value(data: np.ndarray, segments: np.ndarray, counts: np.ndarray):
    # Orders every column of a (rows, cols) matrix by (segment, value) in one
    # pass: rank the values of each column, then sort on segment * rows + rank.
    # Rows tied on value hold equal values, so each segment's sorted run, and
    # any sum over it, depends only on the multiset of its values.
    # Returns the sorted values as (cols, rows) and each non-empty segment's
    # run start.
    rows = data.shape[0]
    by_column = np.ascontiguousarray(data.T)
    by_value = np.argsort(by_column, axis=1)
    rank = np.empty_like(by_value)
    np.put_along_axis(rank, by_value, np.arange(rows), axis=1)
    del by_value
    rank += segments * rows
    order = np.argsort(rank, axis=1)
    del rank
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return np.take_along_axis(by_column, order, axis=1), starts


def _sorted_sums(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # (segments, cols) sums of the sorted runs; empty segments sum to zero
    out = np.zeros((counts.size, ordered.shape[0]), dtype=ordered.dtype)
    out[counts > 0] = np.add.reduceat(ordered, starts, axis=1).T
    return out


def _ordered_segment_sum(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    # Accumulates each segment in value-sorted order so the result does not
    # depend on how the rows happen to be listed.
    data = values[:, None] if values.ndim == 1 else values
    counts = np.bincount(segments, minlength=num_segments)
    out = _sorted_sums(*_sort_by_segment_and_value(data, segments, counts), counts)
    return out[:, 0] if values.ndim == 1 else out


def _sorted_max(data, segments, counts, ordered, starts):
    # Each segment's max is the last entry of its sorted run; empty segments
    # get zero. Returns the (segments, cols) maxima, the smallest gap between
    # a segment's top two values, and the (segment, col, row) coordinates of
    # the first row holding each max, which takes the whole gradient.
    rows, cols = data.shape
    nonempty = counts > 0
    ends = starts + counts[nonempty] - 1
    top = ordered[:, ends]
    out = np.zeros((counts.size, cols), dtype=data.dtype)
    out[nonempty] = top.T
    # distance between the top two values bounds how safe a
    # finite-difference probe is around this max
    multi = counts[nonempty] >= 2
    gap = float(np.min(top[:, multi] - ordered[:, ends[multi] - 1])) if multi.any() else np.inf
    hit_rows, hit_cols = np.nonzero(data == out[segments])
    first = np.full((counts.size, cols), rows, dtype=np.int64)
    np.minimum.at(first, (segments[hit_rows], hit_cols), hit_rows)
    win_segs, win_cols = np.nonzero(first < rows)
    return out, gap, (win_segs, win_cols, first[win_segs, win_cols])


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

    return tape.record(out, backward)


def block_matmul(
    x: Tensor,
    w: Tensor,
    blocks: int,
    *,
    shared: str | None = None,
    window: tuple[int, int] | None = None,
) -> Tensor:
    """Many small matrix products as one op: block b of the result is x_b @ w_b.

    Blocks are stacked row-wise: the result is (blocks*n, m) with block b in
    rows b*n:(b+1)*n. x is blocked, (blocks*n, f) with x_b its b-th row
    block, or one (n, f) matrix shared by every block (shared="x"). w is
    blocked, (blocks*p, m) with w_b its b-th row block of height p, or rows
    start:stop of it for window=(start, stop); or w is one (f, m) kernel
    shared by every block (shared="w").

    Every block is a contiguous slice, so it goes through the same BLAS call
    a separate ``matmul`` makes, and a shared operand's gradient adds the
    block terms in reverse block order. Values and gradients therefore equal
    those of a loop of ``matmul`` ops recorded in block order, bit for bit.
    """
    tape = _check_tape(x, w)
    if shared not in (None, "x", "w"):
        raise ValueError(f"shared must be None, 'x' or 'w', got {shared!r}")
    if x.ndim != 2 or w.ndim != 2 or blocks < 1:
        raise ValueError(f"block_matmul expects matrices and blocks >= 1, got {x.shape}, {w.shape}")
    n = x.shape[0] if shared == "x" else x.shape[0] // blocks
    f, m = x.shape[1], w.shape[1]
    p = f if shared == "w" else w.shape[0] // blocks
    start, stop = window or (0, p)
    if (
        (shared != "x" and x.shape[0] != blocks * n)
        or (shared != "w" and w.shape[0] != blocks * p)
        or (shared == "w" and (window or w.shape[0] != f))
        or not 0 <= start <= stop <= p
        or stop - start != f
    ):
        raise ValueError(
            f"block_matmul shape mismatch: {x.shape} @ {w.shape} in {blocks} blocks,"
            f" kernel rows {window}"
        )
    x_id, x_data, w_id, w_data = x.id, x.data, w.id, w.data

    def x_block(a, b):
        return a if shared == "x" else a[b * n:(b + 1) * n]

    def w_block(a, b):
        return a if shared == "w" else a[b * p + start:b * p + stop]

    out = np.zeros((blocks * n, m))
    for b in range(blocks):
        np.matmul(x_block(x_data, b), w_block(w_data, b), out=out[b * n:(b + 1) * n])

    def backward(g, grads):
        gx = None if shared == "x" else np.zeros(x_data.shape)
        gw = None if shared == "w" else np.zeros(w_data.shape)
        for b in reversed(range(blocks)):
            g_b, x_b, w_b = g[b * n:(b + 1) * n], x_block(x_data, b), w_block(w_data, b)
            if gx is None:
                _acc(grads, x_id, g_b @ w_b.T)
            else:
                np.matmul(g_b, w_b.T, out=x_block(gx, b))
            if gw is None:
                _acc(grads, w_id, x_b.T @ g_b)
            else:
                np.matmul(x_b.T, g_b, out=w_block(gw, b))
        if gx is not None:
            _acc(grads, x_id, gx)
        if gw is not None:
            _acc(grads, w_id, gw)

    return tape.record(out, backward)


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

    return a.tape.record(out, backward)


def add(a: Tensor, b) -> Tensor:
    a_id = a.id
    if isinstance(b, Tensor):
        tape = _check_tape(a, b)
        b_id = b.id
        if a.shape == b.shape:
            out = a.data + b.data

            def backward(g, grads):
                _acc(grads, a_id, g)
                _acc(grads, b_id, g)

        elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
            out = a.data + b.data

            def backward(g, grads):
                _acc(grads, a_id, g)
                _acc(grads, b_id, g.sum(axis=0))

        else:
            raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
        return tape.record(out, backward)

    const = np.asarray(b, dtype=np.float64)
    if const.ndim != 0 and const.shape != a.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {const.shape}")
    out = a.data + const

    def backward(g, grads):
        _acc(grads, a_id, g)

    return a.tape.record(out, backward)


def neg(a: Tensor) -> Tensor:
    return mul(a, -1.0)


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        return add(a, neg(b))
    return add(a, -np.asarray(b, dtype=np.float64))


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

        return tape.record(out, backward)

    const = np.asarray(b, dtype=np.float64)
    if const.ndim != 0 and const.shape != a.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {const.shape}")
    out = a_data * const

    def backward(g, grads):
        _acc(grads, a_id, g * const)

    return a.tape.record(out, backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """Elementwise max(x, slope*x). The subgradient at exactly 0 is slope."""
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"slope must lie in [0, 1), got {slope}")
    a_id, x = a.id, a.data
    out = np.where(x > 0, x, slope * x)
    gap = float(np.min(np.abs(x))) if x.size else np.inf
    factor = np.where(x > 0, 1.0, slope)

    def backward(g, grads):
        _acc(grads, a_id, g * factor)

    return a.tape.record(out, backward, kink_gap=gap)


def relu(a: Tensor) -> Tensor:
    return leaky_relu(a, 0.0)


def tanh(a: Tensor) -> Tensor:
    a_id = a.id
    out = np.tanh(a.data)

    def backward(g, grads):
        _acc(grads, a_id, g * (1.0 - out * out))

    return a.tape.record(out, backward)


def log(a: Tensor) -> Tensor:
    a_id, a_data = a.id, a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a_data)

    def backward(g, grads):
        _acc(grads, a_id, g / a_data)

    return a.tape.record(out, backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"gather_rows expects a matrix, got shape {a.shape}")
    idx = _index_array(indices, a.shape[0], "row indices")
    a_id, shape = a.id, a.shape
    out = a.data[idx]

    def backward(g, grads):
        # one bincount over (row, col) cells adds each gathered row into a
        # zero buffer in input order, as np.add.at would, bit for bit
        rows, cols = shape
        cells = (idx[:, None] * cols + np.arange(cols)).ravel()
        buf = np.bincount(cells, weights=np.asarray(g).ravel(), minlength=rows * cols)
        _acc(grads, a_id, buf.reshape(shape))

    return a.tape.record(out, backward)


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

    return a.tape.record(out, backward)


def reshape(a: Tensor, shape) -> Tensor:
    a_id, in_shape = a.id, a.shape
    out = a.data.reshape(shape)

    def backward(g, grads):
        _acc(grads, a_id, np.asarray(g).reshape(in_shape))

    return a.tape.record(out, backward)


def _split_backward(parts: Sequence[Tensor], sizes: list[int], axis: int) -> Callable:
    ids = [p.id for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g, grads):
        for i, o, n in zip(ids, offsets, sizes):
            _acc(grads, i, g[o:o + n] if axis == 0 else g[:, o:o + n])

    return backward


def concat_flat(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("nothing to concatenate")
    tape = _check_tape(*parts)
    if any(p.ndim != 1 for p in parts):
        raise ValueError("concat_flat expects flat tensors")
    out = np.concatenate([p.data for p in parts])
    return tape.record(out, _split_backward(parts, [p.size for p in parts], 0))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("nothing to concatenate")
    tape = _check_tape(*parts)
    cols = {p.shape[1] for p in parts if p.ndim == 2}
    if any(p.ndim != 2 for p in parts) or len(cols) != 1:
        raise ValueError("concat_rows expects matrices with equal column counts")
    out = np.concatenate([p.data for p in parts], axis=0)
    return tape.record(out, _split_backward(parts, [p.shape[0] for p in parts], 0))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("nothing to concatenate")
    tape = _check_tape(*parts)
    rows = {p.shape[0] for p in parts if p.ndim == 2}
    if any(p.ndim != 2 for p in parts) or len(rows) != 1:
        raise ValueError("concat_cols expects matrices with equal row counts")
    out = np.concatenate([p.data for p in parts], axis=1)
    return tape.record(out, _split_backward(parts, [p.shape[1] for p in parts], 1))


def rowsum(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"rowsum expects a matrix, got shape {a.shape}")
    a_id, shape = a.id, a.shape
    out = a.data.sum(axis=1)

    def backward(g, grads):
        _acc(grads, a_id, np.broadcast_to(g[:, None], shape))

    return a.tape.record(out, backward)


def sum_all(a: Tensor) -> Tensor:
    a_id, shape = a.id, a.shape
    out = np.asarray(a.data.sum(), dtype=np.float64)

    def backward(g, grads):
        _acc(grads, a_id, np.broadcast_to(g, shape))

    return a.tape.record(out, backward)


def sum_squares(a: Tensor) -> Tensor:
    a_id, a_data = a.id, a.data
    out = np.asarray((a_data * a_data).sum(), dtype=np.float64)

    def backward(g, grads):
        _acc(grads, a_id, 2.0 * g * a_data)

    return a.tape.record(out, backward)


def scale_rows(m: Tensor, v) -> Tensor:
    """Multiplies row i of m by v[i]. v may be a Tensor or a constant array."""
    if m.ndim != 2:
        raise ValueError(f"scale_rows expects a matrix, got shape {m.shape}")
    m_id, m_data = m.id, m.data
    if isinstance(v, Tensor):
        tape = _check_tape(m, v)
        if v.ndim != 1 or v.size != m.shape[0]:
            raise ValueError(f"row scale shape mismatch: {m.shape} vs {v.shape}")
        v_id, column = v.id, v.data[:, None]
        out = m_data * column

        def backward(g, grads):
            _acc(grads, m_id, g * column)
            _acc(grads, v_id, (g * m_data).sum(axis=1))

        return tape.record(out, backward)

    c = np.asarray(v, dtype=np.float64)
    if c.ndim != 1 or c.size != m.shape[0]:
        raise ValueError(f"row scale shape mismatch: {m.shape} vs {c.shape}")
    column = c[:, None]
    out = m_data * column

    def backward(g, grads):
        _acc(grads, m_id, g * column)

    return m.tape.record(out, backward)


def segment_reduce(values: Tensor, segments, num_segments: int, mode: str = "sum") -> Tensor:
    """Per-segment sum, mean or max over rows. Empty segments yield zero rows.

    Sums accumulate each segment in value-sorted order, so the result is
    bitwise independent of the order the rows are listed in.
    """
    if mode not in ("sum", "mean", "max"):
        raise ValueError(f"unknown reduce mode {mode!r}")
    if values.ndim not in (1, 2):
        raise ValueError(f"segment_reduce expects flat or matrix input, got {values.shape}")
    rows = values.shape[0]
    segs = _segment_ids(segments, num_segments, rows)
    flat_in = values.ndim == 1
    data = values.data[:, None] if flat_in else values.data
    cols = data.shape[1]
    values_id = values.id
    counts = np.bincount(segs, minlength=num_segments)

    if mode in ("sum", "mean"):
        out = _ordered_segment_sum(data, segs, num_segments)
        if mode == "mean":
            out = out / np.maximum(counts, 1)[:, None]

        def backward(g, grads):
            g2 = np.asarray(g)
            if flat_in:
                g2 = g2[:, None]
            pulled = g2[segs]
            if mode == "mean":
                pulled = pulled / np.maximum(counts, 1)[segs, None]
            _acc(grads, values_id, pulled[:, 0] if flat_in else pulled)

        out_final = out[:, 0] if flat_in else out
        return values.tape.record(out_final, backward)

    # max: gradient routes to the first maximal row entry of each segment
    out, gap, (win_segs, win_cols, win_rows) = _sorted_max(
        data, segs, counts, *_sort_by_segment_and_value(data, segs, counts)
    )

    def backward(g, grads):
        g2 = np.asarray(g)
        if flat_in:
            g2 = g2[:, None]
        buf = np.zeros((rows, cols))
        buf[win_rows, win_cols] = g2[win_segs, win_cols]
        _acc(grads, values_id, buf[:, 0] if flat_in else buf)

    out_final = out[:, 0] if flat_in else out
    return values.tape.record(out_final, backward, kink_gap=gap)


def segment_mean_max(values: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment mean and max of a matrix's rows, side by side:
    (rows, cols) -> (num_segments, 2*cols). Empty segments yield zero rows.

    Both halves come from one value sort, and equal those of
    ``concat_cols([segment_reduce(.., "mean"), segment_reduce(.., "max")])``
    bit for bit: values, gradient and kink gap.
    """
    if values.ndim != 2:
        raise ValueError(f"segment_mean_max expects a matrix, got shape {values.shape}")
    rows, cols = values.shape
    segs = _segment_ids(segments, num_segments, rows)
    data, values_id = values.data, values.id
    counts = np.bincount(segs, minlength=num_segments)
    ordered, starts = _sort_by_segment_and_value(data, segs, counts)
    divisor = np.maximum(counts, 1)
    mean = _sorted_sums(ordered, starts, counts) / divisor[:, None]
    top, gap, (win_segs, win_cols, win_rows) = _sorted_max(data, segs, counts, ordered, starts)

    def backward(g, grads):
        # the max half's gradient is added before the mean half's, as the
        # backward walk over two separate ops adds them
        buf = np.zeros((rows, cols))
        buf[win_rows, win_cols] = g[win_segs, cols + win_cols]
        _acc(grads, values_id, buf)
        _acc(grads, values_id, g[segs, :cols] / divisor[segs, None])

    return values.tape.record(np.concatenate([mean, top], axis=1), backward, kink_gap=gap)


def segment_softmax(logits: Tensor, segments) -> Tensor:
    """Softmax within each segment of a flat logit vector.

    Numerically stabilized by subtracting the per-segment max. Entries of a
    segment sum to 1; a singleton segment maps to exactly 1. Empty input
    yields empty output.
    """
    if logits.ndim != 1:
        raise ValueError(f"segment_softmax expects a flat tensor, got {logits.shape}")
    segs = np.asarray(segments, dtype=np.int64)
    if segs.ndim != 1 or segs.size != logits.size:
        raise ValueError("segment ids must align with the logits")
    if segs.size and segs.min() < 0:
        raise ValueError("segment ids must be non-negative")
    logits_id = logits.id
    n = int(segs.max()) + 1 if segs.size else 0
    x = logits.data
    if x.size:
        mx = np.full(n, -np.inf)
        np.maximum.at(mx, segs, x)
        e = np.exp(x - mx[segs])
        denom = _ordered_segment_sum(e, segs, n)
        y = e / denom[segs]
    else:
        y = np.zeros(0)

    def backward(g, grads):
        if y.size == 0:
            _acc(grads, logits_id, np.zeros(0))
            return
        s = _ordered_segment_sum(y * g, segs, n)
        _acc(grads, logits_id, y * (g - s[segs]))

    return logits.tape.record(y, backward)


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

    return m.tape.record(y, backward)


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
