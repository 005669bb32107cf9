"""Span tracing of relgat from outside the package.

``install`` wraps relgat's public functions and methods in place, with no
change to the package's code. A function is replaced in every ``relgat``
module that holds it, i.e. in its defining module and in every module that
imported the name, so calls through either route open a span. Each span
keeps its name, start, end, the span that caused it (the innermost span open
when it started) and the process it ran in; the run id is stored once per
trace. Spans stay in memory and are written out when the run ends.

Sweep trials that run in forked pool workers record their spans in the
worker. The traced trial function attaches them to the trial's record, and
the traced record append in the parent strips them off again before the
record is written, so the records on disk are unchanged. Under a pool that
does not fork, workers import relgat afresh and record nothing; the worker
metrics then read 0 and the run says so.

Backward closures recorded on the tape cannot be wrapped from outside, so
the backward pass is timed only as a whole (``Tape.backward``).
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SPAN_KEY = "_perfbench_spans"

# (span name, defining module, attribute)
FUNCTIONS = [
    ("graph.batch_graphs", "relgat.graph", "batch_graphs"),
    ("graph.parse_dataset", "relgat.graph", "parse_dataset"),
    ("layers.attention_logits", "relgat.layers", "attention_logits"),
    ("layers.attention_coefficients", "relgat.layers", "attention_coefficients"),
    ("layers.compose_kernels", "relgat.layers", "compose_kernels"),
    ("tensor.segment_reduce", "relgat.tensor", "segment_reduce"),
    ("tensor.segment_softmax", "relgat.tensor", "segment_softmax"),
    ("tensor.gather_rows", "relgat.tensor", "gather_rows"),
    ("tensor.matmul", "relgat.tensor", "matmul"),
    ("models.graph_gather", "relgat.models", "graph_gather"),
    ("models.loss", "relgat.models", "masked_cross_entropy"),
    ("models.loss", "relgat.models", "weighted_cross_entropy"),
    ("models.save_checkpoint", "relgat.models", "save_checkpoint"),
    ("models.load_checkpoint", "relgat.models", "load_checkpoint"),
    ("training.train", "relgat.training", "train"),
    ("training.evaluate", "relgat.training", "evaluate"),
    ("training.adam_step", "relgat.training", "adam_step"),
    ("training.drop_edges", "relgat.training", "drop_edges"),
    ("training.feature_mask", "relgat.training", "feature_mask"),
    ("search.run_sweep", "relgat.search", "run_sweep"),
]

# (span name, defining module, class, method); RgatLayer spans add the layer's name
METHODS = [
    ("layers.RgatLayer.forward", "relgat.layers", "RgatLayer", "forward"),
    ("models.forward", "relgat.models", "NodeClassifier", "forward"),
    ("models.forward", "relgat.models", "GraphClassifier", "forward"),
    ("tensor.Tape.backward", "relgat.tensor", "Tape", "backward"),
]


class Tracer:
    """In-memory span store for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.main_pid = os.getpid()
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._clear()

    def _clear(self) -> None:
        self.pid = os.getpid()
        self.name = array.array("q")
        self.parent = array.array("q")
        self.proc = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.proc.append(self.pid)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # -- worker spans -------------------------------------------------------

    def export(self) -> dict:
        """Hands this worker's spans to the parent and starts a fresh store."""
        out = {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "proc": self.proc.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        self._clear()
        return out

    def merge(self, spans: dict) -> None:
        """Adds a worker's spans; its root spans become children of the span
        open here, which is the sweep that ran the trial."""
        offset = len(self.start)
        cause = self.stack[-1] if self.stack else -1
        remap = []
        for name in spans["names"]:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            remap.append(self._name_ids[name])
        self.name.extend(remap[n] for n in spans["name"])
        self.parent.extend(cause if p < 0 else p + offset for p in spans["parent"])
        self.proc.extend(spans["proc"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        for key, value in spans["counters"].items():
            self.counters[key] += value

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, after=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name_of(args) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def _trial_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(payload):
            if not tracer.active:
                return fn(payload)
            in_worker = os.getpid() != tracer.main_pid
            if in_worker:
                tracer._clear()
            tracer.counters["search.payload_bytes"] += len(pickle.dumps(payload))
            idx = tracer.open("search.trial")
            try:
                record = fn(payload)
            finally:
                tracer.close(idx)
            if in_worker:
                record = dict(record)
                record[SPAN_KEY] = tracer.export()
            return record

        return traced

    def _append_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(path, record):
            spans = record.pop(SPAN_KEY, None) if isinstance(record, dict) else None
            if spans is not None:
                tracer.merge(spans)
            if not tracer.active:
                return fn(path, record)
            idx = tracer.open("search.append")
            try:
                return fn(path, record)
            finally:
                tracer.close(idx)

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relgat" or mod_name.startswith("relgat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import relgat  # noqa: F401  (loads every submodule)

        hooks = {
            "graph.batch_graphs": _count_batched_edges,
            "models.save_checkpoint": _count_checkpoint_bytes,
            "tensor.Tape.backward": _count_recorded_ops,
        }
        for name, module, attr in FUNCTIONS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace_everywhere(fn, self._wrap(name, fn, hooks.get(name)))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            name_of = (lambda a, n=name: f"{n}.{a[0].name}") if cls_name == "RgatLayer" else None
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, hooks.get(name), name_of))
        search = sys.modules["relgat.search"]
        for attr, make in (("_run_trial", self._trial_wrapper), ("_append_record", self._append_wrapper)):
            fn = getattr(search, attr, None)
            if fn is None:
                self.missing.append(f"relgat.search.{attr}")
                continue
            self._replace_everywhere(fn, make(fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self.active = False

    def write(self, path: Path) -> None:
        doc = {
            "run": self.run_id,
            "columns": ["name", "parent", "pid", "start", "end"],
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "pid": self.proc.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _count_batched_edges(tracer, args, kwargs, out):
    tracer.counters["graph.batch_graphs.edges"] += out.graph.num_edges


def _count_checkpoint_bytes(tracer, args, kwargs, out):
    directory = Path(args[0] if args else kwargs["directory"])
    tracer.counters["models.checkpoint_bytes"] += sum(
        p.stat().st_size for p in directory.iterdir() if p.is_file()
    )


def _count_recorded_ops(tracer, args, kwargs, out):
    tracer.counters["tensor.ops_recorded"] += args[0].num_recorded
    tracer.counters["tensor.backward_calls"] += 1


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(parent, proc, start, end):
    """Span duration minus the time its same-process children take, which
    run one after another."""
    dur = end - start
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = proc[has_parent] == proc[parent[has_parent]]
    return dur - np.bincount(parent[same], weights=dur[same], minlength=dur.size)


def layer_metrics(tracer: Tracer, parallelism: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers over every span recorded, plus notes on what the
    trace could not see."""
    names = np.array(tracer.names, dtype=object)
    name = np.frombuffer(tracer.name, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    proc = np.frombuffer(tracer.proc, dtype=np.int64)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    label = names[name] if name.size else np.zeros(0, dtype=object)
    dur = end - start
    self_t = _self_times(parent, proc, start, end)
    c = tracer.counters
    notes = [f"not found, so not traced: {m}" for m in tracer.missing]

    def mask(span):
        return label == span

    def calls(span):
        return int(mask(span).sum())

    def total(span):
        return float(dur[mask(span)].sum())

    def self_total(span):
        return float(self_t[mask(span)].sum())

    # evaluate time spent inside train(): ancestors precede their children
    is_train = (label == "training.train").tolist()
    in_train = [False] * label.size
    for i, p in enumerate(parent.tolist()):
        in_train[i] = is_train[i] or (p >= 0 and in_train[p])
    in_train = np.array(in_train, dtype=bool)
    eval_in_train = float(dur[mask("training.evaluate") & in_train].sum())
    train_s = total("training.train")

    main = proc == tracer.main_pid
    trials = mask("search.trial")
    worker_trials = trials & ~main
    worker_parses = mask("graph.parse_dataset") & ~main
    n_worker_parses = int(worker_parses.sum())
    # a worker is one process in one sweep's pool
    n_workers = len(set(zip(parent[worker_trials].tolist(), proc[worker_trials].tolist())))
    busy = float(dur[worker_trials].sum())
    sweep_window = parallelism * total("search.run_sweep")
    n_trials = int(trials.sum())
    if n_trials and not worker_trials.any():
        notes.append("no spans came back from pool workers (pool does not fork)")

    backward_calls = c.get("tensor.backward_calls", 0.0)
    out = {
        "graph.batch_graphs.calls": calls("graph.batch_graphs"),
        "graph.batch_graphs.self_s": self_total("graph.batch_graphs"),
        "graph.batch_graphs.edges": int(c.get("graph.batch_graphs.edges", 0)),
        "graph.parse_dataset.calls": calls("graph.parse_dataset"),
        "graph.parse_dataset.s": total("graph.parse_dataset"),
        "layers.RgatLayer.forward.layer1.self_s": self_total("layers.RgatLayer.forward.layer1"),
        "layers.RgatLayer.forward.layer2.self_s": self_total("layers.RgatLayer.forward.layer2"),
        "layers.attention_logits.s": total("layers.attention_logits"),
        "layers.attention_coefficients.s": total("layers.attention_coefficients"),
        "layers.compose_kernels.calls": calls("layers.compose_kernels"),
        "tensor.matmul.calls": calls("tensor.matmul"),
        "tensor.matmul.s": total("tensor.matmul"),
        "tensor.gather_rows.calls": calls("tensor.gather_rows"),
        "tensor.gather_rows.s": total("tensor.gather_rows"),
        "tensor.segment_reduce.calls": calls("tensor.segment_reduce"),
        "tensor.segment_reduce.s": total("tensor.segment_reduce"),
        "tensor.segment_softmax.calls": calls("tensor.segment_softmax"),
        "tensor.segment_softmax.s": total("tensor.segment_softmax"),
        "tensor.Tape.backward.s": total("tensor.Tape.backward"),
        "tensor.ops_recorded_per_step": (
            c.get("tensor.ops_recorded", 0.0) / backward_calls if backward_calls else 0.0
        ),
        "models.forward.s": total("models.forward"),
        "models.graph_gather.s": total("models.graph_gather"),
        "models.loss.s": total("models.loss"),
        "models.save_checkpoint.s": total("models.save_checkpoint"),
        "models.load_checkpoint.s": total("models.load_checkpoint"),
        "models.checkpoint_bytes": int(c.get("models.checkpoint_bytes", 0)),
        "training.train.s": train_s,
        "training.evaluate.calls": calls("training.evaluate"),
        "training.evaluate.s": total("training.evaluate"),
        "training.evaluate.train_share": eval_in_train / train_s if train_s else 0.0,
        "training.adam_step.s": total("training.adam_step"),
        "training.drop_edges.s": total("training.drop_edges"),
        "training.feature_mask.s": total("training.feature_mask"),
        "search.trials": n_trials,
        "search.trial_s": float(dur[trials].mean()) if n_trials else 0.0,
        "search.trial_s_max": float(dur[trials].max()) if n_trials else 0.0,
        "search.payload_bytes": c.get("search.payload_bytes", 0.0) / n_trials if n_trials else 0.0,
        "search.parse_per_trial": n_worker_parses / n_trials if n_trials else 0.0,
        "search.parse_useful_frac": n_workers / n_worker_parses if n_worker_parses else 0.0,
        "search.worker_idle_frac": 1.0 - busy / sweep_window if sweep_window else 0.0,
        "search.append_s": total("search.append"),
        "trace.spans": int(label.size),
    }
    return out, notes
