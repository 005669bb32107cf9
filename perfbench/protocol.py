"""One workload run: set-up, reference check, then the train, checkpoint,
eval and sweep phases, with every operation and output check accounted.

An operation is a training epoch, an eval call or a sweep trial. A failed
operation is counted and the phase goes on, so the failure count and its
base are always reported. Units of work repeat until the run time is
used and each phase has its minimum count; a traced run does exactly the
minimum, so its counts repeat from run to run.

The phases' units are interleaved in time. On a shared machine, other
tenants' load can slow a core by a third for seconds to minutes at a time;
interleaving spreads every phase over the run's fast and slow stretches
alike. Every metric is taken over all of a phase's samples in the run: the
median set-up build, train call and sweep call, the eval p50 over every
sample, and the eval p95 as the median over rounds of each round's p95.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import relgat
from relgat.search import _train_config
from workloads import MASTER_SEED, PARALLELISM, Workload, build_model

REFERENCE_SEED = 0
REFERENCE_EPOCHS = 3
# reordered float64 sums move a 3-epoch loss by ~1e-14; 1e-9 leaves room
REFERENCE_LOSS_RTOL = 1e-9
ATTENTION_TOL = 1e-12
SETUP_MIN_SAMPLES = 3
SETUP_EVERY = 2  # one set-up sample ahead of every second unit
EVAL_ROUND_GRAPHS = 20  # consecutive samples; a round's p95 is about its 19th of 20
MIN_UNITS = (3, 10, 2)  # train calls, eval rounds, sweeps

perf_counter = time.perf_counter


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    checks: dict[str, dict] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0, error: BaseException | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error is not None and len(self.errors) < 20:
            self.errors.append("".join(traceback.format_exception_only(type(error), error)).strip())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())


def train_config(config: dict, epochs: int, seed: int):
    """The TrainConfig a sweep trial builds, with patience = epochs so that
    no call stops early."""
    return _train_config(config, seed, {"epochs": epochs, "patience": epochs})


def _collect() -> None:
    """relgat's tapes are reference cycles, so their arrays are freed only by
    the cycle collector. Collecting before each unit starts every unit from
    the same heap; otherwise peak memory and in-unit collection pauses would
    depend on how many units ran before."""
    gc.collect()


# ---------------------------------------------------------------------------
# set-up and output checks


class Setup:
    """Builds the inputs, the model and the serialized dataset, and keeps
    the time of every build. Builds are spread through the run, so their
    median sees its fast and slow stretches alike."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed, self.times = w, seed, []

    def build(self):
        t0 = perf_counter()
        task = self.w.build(self.seed)
        config = self.w.config()
        model = build_model(self.w, task, config, self.seed)
        relgat.serialize_dataset(task)
        self.times.append(perf_counter() - t0)
        return task, config, model


def reference_check(w: Workload, reference: dict, ledger: Ledger) -> dict:
    """Trains on the reference seed's inputs and compares the final train
    loss and accuracy with the values recorded for the workload."""
    task = w.build(REFERENCE_SEED)
    config = w.config()
    model = build_model(w, task, config, REFERENCE_SEED)
    last = relgat.train(model, task, train_config(config, REFERENCE_EPOCHS, REFERENCE_SEED)).history[-1]
    got = {"train_loss": last["train_loss"], "train_accuracy": last["train_accuracy"]}
    want = reference.get(w.name)
    if want is None:
        ledger.check("reference_values", False, f"no reference recorded for {w.name}")
        return got
    n_train = len(task.split.train)
    ok = math.isclose(got["train_loss"], want["train_loss"], rel_tol=REFERENCE_LOSS_RTOL) and (
        abs(got["train_accuracy"] - want["train_accuracy"]) <= 1.0 / n_train + 1e-12
    )
    ledger.check("reference_values", ok, f"got {got}, want {want}")
    return got


def attention_check(task, seed: int, ledger: Ledger) -> None:
    """Coefficients from large random logits on one batch sum to 1 over
    every softmax support, for both normalizations."""
    if isinstance(task, relgat.NodeTask):
        graph = task.graph
    else:
        graph = relgat.batch_graphs([task.graphs[i] for i in task.split.test]).graph
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    worst = 0.0
    for kind in ("wirgat", "argat"):
        tape = relgat.Tape()
        logits = [tape.leaf(20.0 * rng.standard_normal(len(t))) for t, _ in graph.edges]
        alpha = relgat.attention_coefficients(logits, graph.edges, n, kind).coefficient_values()
        keys = np.concatenate(
            [t + (r * n if kind == "wirgat" else 0) for r, (t, _) in enumerate(graph.edges)]
        )
        sums = np.bincount(keys, weights=alpha)[np.unique(keys)]
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    ledger.check("attention_sums_to_one", worst <= ATTENTION_TOL, f"max |sum - 1| = {worst:.3e}")


# ---------------------------------------------------------------------------
# phases


class TrainPhase:
    """Unit: one train() call from the same initial weights. In a traced
    run each unit makes an untraced call first, to weigh the tracing
    overhead against."""

    def __init__(self, w, task, config, model, seed, ledger, tracer=None):
        self.model, self.task, self.ledger, self.tracer = model, task, ledger, tracer
        self.init = {k: v.copy() for k, v in model.params.items()}
        self.tcfg = train_config(config, w.epochs, seed)
        self.rates, self.finals, self.walls, self.untraced_walls = [], [], [], []

    def _call(self):
        self.model.params = {k: v.copy() for k, v in self.init.items()}
        t0 = perf_counter()
        try:
            result = relgat.train(self.model, self.task, self.tcfg)
        except Exception as exc:  # a diverged or crashed call loses all its epochs
            self.ledger.ops(self.tcfg.epochs, self.tcfg.epochs, exc)
            return None
        wall = perf_counter() - t0
        self.ledger.ops(result.epochs_run)
        self.finals.append(result.history[-1])
        return result.epochs_run, wall

    def unit(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False
            done = self._call()
            self.tracer.active = True
            if done is not None:
                self.untraced_walls.append(done[1])
            _collect()
        done = self._call()
        if done is not None:
            epochs, wall = done
            self.walls.append(wall)
            self.rates.append(epochs / wall)

    def finish(self) -> None:
        finals, epochs = self.finals, self.tcfg.epochs
        self.ledger.check(
            "train_runs_every_epoch",
            bool(finals) and all(f["epoch"] == epochs - 1 for f in finals),
            f"{len(finals)} calls of {epochs} epochs",
        )
        self.ledger.check(
            "train_is_deterministic",
            bool(finals) and len({json.dumps(f, sort_keys=True) for f in finals}) == 1,
            f"final epoch of call 1: {finals[0] if finals else None}",
        )


class EvalPhase:
    """Unit: a round of per-graph evaluations. Each sample is one graph
    evaluated with evaluate(model, one_graph_task, "test") under learned
    and then constant attention: the paper's comparison, and one mode of
    latency rather than a mixture of two."""

    def __init__(self, task, model, ledger):
        self.model, self.ledger = model, ledger
        if isinstance(task, relgat.NodeTask):
            self.one_graph = [task]
        else:
            self.one_graph = [
                relgat.GraphTask(
                    task.graphs,
                    task.labels,
                    relgat.Split(train=task.split.train, validation=(), test=(i,)),
                )
                for i in task.split.test
            ]
        self.rounds: list[list[float]] = []  # latencies in ms
        self.graphs_done = 0

    def _evaluate(self, target, constant: bool) -> bool:
        try:
            metrics = relgat.evaluate(self.model, target, "test", constant=constant)
        except Exception as exc:
            self.ledger.ops(1, 1, exc)
            return False
        ok = math.isfinite(metrics["loss"])
        self.ledger.ops(1, 0 if ok else 1)
        return ok

    def unit(self) -> None:
        latencies = []
        for _ in range(EVAL_ROUND_GRAPHS):
            target = self.one_graph[self.graphs_done % len(self.one_graph)]
            self.graphs_done += 1
            t0 = perf_counter()
            learned = self._evaluate(target, constant=False)
            constant = self._evaluate(target, constant=True)
            if learned and constant:
                latencies.append((perf_counter() - t0) * 1e3)
        self.rounds.append(latencies)

    def latencies(self) -> list[float]:
        return [ms for r in self.rounds for ms in r]

    def p95(self) -> float:
        """The median over rounds of each round's p95. A round's samples
        are consecutive, so a slow stretch of the machine raises the p95 of
        the rounds it covers and not the run's; a pause every k-th call,
        k up to 10, still raises every round's p95."""
        return statistics.median(float(np.percentile(r, 95)) for r in self.rounds if r)


class SweepPhase:
    """Unit: one whole run_sweep call on an empty record file."""

    def __init__(self, w, task, scratch, ledger):
        self.w, self.task, self.scratch, self.ledger = w, task, scratch, ledger
        self.space = w.space()
        self.rates, self.seen = [], []

    def unit(self) -> None:
        w = self.w
        with tempfile.TemporaryDirectory(dir=self.scratch) as d:
            t0 = perf_counter()
            try:
                records = relgat.run_sweep(
                    self.task,
                    self.space,
                    w.sweep_trials,
                    MASTER_SEED,
                    Path(d) / "trials.jsonl",
                    logit_mode=w.logit_mode,
                    norm_kind=w.norm_kind,
                    parallelism=PARALLELISM,
                    overrides={"epochs": w.sweep_epochs, "patience": w.sweep_epochs},
                )
            except Exception as exc:
                self.ledger.ops(w.sweep_trials, w.sweep_trials, exc)
                return
            wall = perf_counter() - t0
        bad = sum(r.get("status") != "ok" for r in records)
        self.ledger.ops(w.sweep_trials, max(bad, w.sweep_trials - len(records)))
        self.rates.append(len(records) * 60.0 / wall)
        self.seen.append(records)

    def finish(self) -> None:
        n, seen = self.w.sweep_trials, self.seen
        complete = bool(seen) and all(
            [r["trial"] for r in recs] == list(range(n)) and all(r["status"] == "ok" for r in recs)
            for recs in seen
        )
        self.ledger.check("sweep_records_ok_and_complete", complete, f"{len(seen)} sweeps of {n} trials")
        self.ledger.check(
            "sweep_is_deterministic",
            bool(seen) and len({json.dumps(recs, sort_keys=True) for recs in seen}) == 1,
            f"{len(seen)} sweeps compared",
        )


def interleave(phases, shares, min_units, seconds: float, before) -> None:
    """Runs the phases' units mixed in time, each phase getting its share of
    the time, until `seconds` have passed and every phase has its minimum
    number of units. before(k) runs ahead of the k-th unit, outside its
    timing."""
    used = [0.0] * len(phases)
    counts = [0] * len(phases)
    deadline = perf_counter() + seconds
    k = 0
    while True:
        short = [i for i in range(len(phases)) if counts[i] < min_units[i]]
        if perf_counter() >= deadline:
            if not short:
                return
            candidates = short
        else:
            candidates = range(len(phases))
        i = min(candidates, key=lambda j: used[j] / shares[j])
        before(k)
        t0 = perf_counter()
        phases[i].unit()
        used[i] += perf_counter() - t0
        counts[i] += 1
        k += 1


def checkpoint_round_trip(model, scratch: Path, ledger: Ledger) -> None:
    with tempfile.TemporaryDirectory(dir=scratch) as d:
        relgat.save_checkpoint(d, model.params, model.config.to_dict())
        loaded, _ = relgat.load_checkpoint(d)
    ok = list(loaded) == list(model.params) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(model.params.values(), loaded.values())
    )
    ledger.check("checkpoint_round_trip_bitwise", ok, f"{len(loaded)} parameters")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (pool
    workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# one run


def run(w: Workload, seed: int, seconds: float, tracer, scratch: Path, reference: dict) -> dict:
    ledger = Ledger()
    setup = Setup(w, seed)
    for _ in range(SETUP_MIN_SAMPLES):
        task, config, model = setup.build()
    reference_got = reference_check(w, reference, ledger)
    attention_check(task, seed, ledger)

    train = TrainPhase(w, task, config, model, seed, ledger, tracer)
    evals = EvalPhase(task, model, ledger)
    sweep = SweepPhase(w, task, scratch, ledger)
    traced = tracer is not None
    if traced:
        tracer.install()
        tracer.active = True

    def before(k: int) -> None:
        if not traced and k % SETUP_EVERY == 0:
            setup.build()
        _collect()

    try:
        interleave(
            (train, evals, sweep), w.shares, MIN_UNITS, 0.0 if traced else seconds, before
        )
        checkpoint_round_trip(model, scratch, ledger)
    finally:
        if traced:
            tracer.uninstall()
    train.finish()
    sweep.finish()

    min_eval = MIN_UNITS[1] * EVAL_ROUND_GRAPHS
    latencies = evals.latencies()
    out = {
        "ledger": ledger,
        "config": config,
        "reference_got": reference_got,
        "counts": {
            "setup_samples": len(setup.times),
            "train_calls": len(train.rates),
            "epochs_per_train_call": w.epochs,
            "eval_graphs": len(latencies),
            "sweeps": len(sweep.rates),
            "trials_per_sweep": w.sweep_trials,
        },
    }
    end_to_end = {
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": peak_rss_mb(),
    }
    if train.rates:
        end_to_end["train_epochs_per_s"] = statistics.median(train.rates)
    if len(latencies) >= min_eval:
        end_to_end["eval_graph_ms_p50"] = float(np.percentile(latencies, 50))
        end_to_end["eval_graph_ms_p95"] = evals.p95()
    if sweep.rates:
        end_to_end["sweep_trials_per_min"] = statistics.median(sweep.rates)
    out["end_to_end"] = end_to_end
    if traced and train.walls and train.untraced_walls:
        traced_wall = statistics.median(train.walls)
        out["trace_overhead_frac"] = traced_wall / statistics.median(train.untraced_walls) - 1.0
    return out


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}
