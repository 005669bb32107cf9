"""Random hyperparameter search with resumable trial records.

A search space is an ordered mapping of names to priors. Configurations are
sampled with an independent generator per trial, seeded from (master_seed,
trial_id), so any subset of trials can be reproduced without running the
others. Results append to a JSONL file, one fsynced line per trial, and a
rerun skips trial ids already present once it has checked that they were
recorded by the same sweep.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import GraphTask, NodeTask, Split
from .models import (
    L2_GROUPS,
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    config_hash,
)
from .training import DivergenceError, TrainConfig, kfold_split, train

__all__ = [
    "LogUniform",
    "MultiplesOf",
    "OneOf",
    "Uniform",
    "best_trial",
    "build_model",
    "inductive_space",
    "load_space",
    "run_sweep",
    "sample_config",
    "transductive_space",
    "trial_seeds",
]


def _check_types(prior, kind: type, *fields: str) -> None:
    # a space file is JSON, so a prior's field can hold any JSON value
    for name in fields:
        value = getattr(prior, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{type(prior).__name__} field {name!r} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        _check_types(self, numbers.Real, "low", "high")
        if not self.low < self.high:
            raise ValueError("need low < high")

    def sample(self, rng: np.random.Generator):
        return float(rng.uniform(self.low, self.high))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) and self.low <= value <= self.high


@dataclass(frozen=True)
class LogUniform:
    low: float
    high: float

    def __post_init__(self):
        _check_types(self, numbers.Real, "low", "high")
        if not 0 < self.low < self.high:
            raise ValueError("need 0 < low < high")

    def sample(self, rng: np.random.Generator):
        return float(np.exp(rng.uniform(math.log(self.low), math.log(self.high))))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) and self.low <= value <= self.high


@dataclass(frozen=True)
class OneOf:
    options: tuple

    def __init__(self, *options):
        if not options:
            raise ValueError("need at least one option")
        object.__setattr__(self, "options", tuple(options))

    def sample(self, rng: np.random.Generator):
        return self.options[int(rng.integers(len(self.options)))]

    def contains(self, value) -> bool:
        return value in self.options


@dataclass(frozen=True)
class MultiplesOf:
    """Uniform over low, low+step, ..., capped at high."""

    step: int
    low: int
    high: int

    def __post_init__(self):
        _check_types(self, numbers.Integral, "step", "low", "high")
        if self.step < 1 or self.low < self.step or self.high < self.low:
            raise ValueError("need step >= 1 and step <= low <= high")
        if self.low % self.step or self.high % self.step:
            raise ValueError("bounds must be multiples of the step")

    @property
    def options(self) -> tuple[int, ...]:
        return tuple(range(self.low, self.high + 1, self.step))

    def sample(self, rng: np.random.Generator):
        opts = self.options
        return int(opts[int(rng.integers(len(opts)))])

    def contains(self, value) -> bool:
        return value in self.options


_LEGACY_STEPS = {"multiples_of_four": 4, "multiples_of_eight": 8}


def _prior_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "uniform":
        return Uniform(d["low"], d["high"])
    if kind == "log_uniform":
        return LogUniform(d["low"], d["high"])
    if kind == "one_of":
        if not isinstance(d["options"], list):
            raise ValueError(f"one_of field 'options' must be a list, got {d['options']!r}")
        return OneOf(*[tuple(o) if isinstance(o, list) else o for o in d["options"]])
    if kind == "multiples_of":
        return MultiplesOf(d["step"], d["low"], d["high"])
    if kind in _LEGACY_STEPS:
        return MultiplesOf(_LEGACY_STEPS[kind], d["low"], d["high"])
    raise ValueError(f"unknown prior kind {kind!r}")


def load_space(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not all(isinstance(d, dict) for d in doc.values()):
        raise ValueError(f"{path}: a space maps names to prior objects")
    try:
        return {name: _prior_from_dict(d) for name, d in doc.items()}
    except KeyError as exc:
        raise ValueError(f"{path}: a prior lacks {exc.args[0]!r}") from None


def sample_config(space: dict, rng: np.random.Generator) -> dict:
    """One draw per prior, in the space's declaration order."""
    return {name: prior.sample(rng) for name, prior in space.items()}


def transductive_space() -> dict:
    return {
        "hidden_units": MultiplesOf(4, 4, 20),
        "heads": OneOf(1, 2, 4),
        "feature_dropout": Uniform(0.0, 0.8),
        "edge_dropout": Uniform(0.0, 0.8),
        "basis_w": OneOf(None, 5, 10, 20, 30),
        "basis_a": OneOf(None, 5, 10, 20, 30),
        "l2_layer1_w": LogUniform(1e-6, 1e-1),
        "l2_layer1_a": LogUniform(1e-6, 1e-1),
        "l2_layer2_w": LogUniform(1e-6, 1e-1),
        "l2_layer2_a": LogUniform(1e-6, 1e-1),
        "learning_rate": LogUniform(1e-5, 1e-1),
        "use_bias": OneOf(True, False),
    }


def inductive_space() -> dict:
    return {
        "graph_units": MultiplesOf(8, 32, 128),
        "dense_units": MultiplesOf(8, 32, 128),
        "heads": OneOf(1, 2, 4, 8),
        "feature_dropout": Uniform(0.0, 0.8),
        "edge_dropout": Uniform(0.0, 0.8),
        "l2_layer1_w": LogUniform(1e-6, 1e-1),
        "l2_layer1_a": LogUniform(1e-6, 1e-1),
        "l2_layer2_w": LogUniform(1e-6, 1e-1),
        "l2_layer2_a": LogUniform(1e-6, 1e-1),
        "learning_rate": LogUniform(1e-5, 1e-1),
        "use_bias": OneOf(True, False),
    }


# the space names a trial reads, by task kind; the variant sets logit_mode
# and norm_kind, a trial never sets embed_dim, and node tasks train full-batch
_READ_BY_EVERY_TRIAL = {"heads", "use_bias", "feature_dropout", "edge_dropout", "learning_rate", "l2"} | {
    f"l2_{group}" for group in L2_GROUPS
}
_READ_BY_TRIALS = {
    "node": _READ_BY_EVERY_TRIAL | {"hidden_units", "basis_w", "basis_a"},
    "graph": _READ_BY_EVERY_TRIAL | {"graph_units", "dense_units", "batch_size"},
}


def trial_seeds(master_seed: int, trial_id: int) -> tuple[int, int, int]:
    """(sample, model, train) seeds derived from the master seed and trial
    id; independent of every other trial."""
    state = np.random.SeedSequence([master_seed, trial_id]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _l2_from_config(config: dict) -> dict[str, float]:
    """L2 weight per kernel group: l2_<group>, else the all-group l2;
    groups left unset or at weights <= 0 are left out. A NaN weight is
    kept, for TrainConfig to refuse; a weight that is not a real number
    raises ValueError."""
    out = {}
    for group in L2_GROUPS:
        field = f"l2_{group}"
        value = config.get(field)
        if value is None:
            field, value = "l2", config.get("l2")
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"L2 weight {field!r} must be a number, got {value!r}")
        if not value <= 0:
            out[group] = float(value)
    return out


def _train_config(config: dict, train_seed: int, overrides: dict | None) -> TrainConfig:
    kwargs = {
        "learning_rate": float(config.get("learning_rate", 0.01)),
        "feature_dropout": float(config.get("feature_dropout", 0.0)),
        "edge_dropout": float(config.get("edge_dropout", 0.0)),
        "l2": _l2_from_config(config),
        "seed": train_seed,
    }
    if "batch_size" in config:
        kwargs["batch_size"] = int(config["batch_size"])
    if overrides:
        kwargs.update(overrides)
    return TrainConfig(**kwargs)


def build_model(task, hyper: dict, rng: np.random.Generator):
    """The classifier for a task, from the `relgat train` flags or from a
    sweep trial's sampled configuration plus its variant. hyper maps the
    search spaces' names, logit_mode, norm_kind and embed_dim to values;
    sizes it lacks take the flags' defaults, and embed_dim counts only for
    one-hot features. A basis size for a graph task raises ValueError."""
    shared = {
        "heads": int(hyper.get("heads", 1)),
        "logit_mode": hyper["logit_mode"],
        "norm_kind": hyper["norm_kind"],
        "use_bias": bool(hyper.get("use_bias", True)),
    }
    if isinstance(task, NodeTask):
        graph = task.graph
        return NodeClassifier(
            rng,
            NodeClassifierConfig(
                in_dim=graph.feature_dim,
                num_relations=graph.num_relations,
                num_classes=task.labels.num_classes,
                hidden_units=int(hyper.get("hidden_units", 16)),
                basis_w=hyper.get("basis_w"),
                basis_a=hyper.get("basis_a"),
                one_hot=graph.one_hot_features,
                embed_dim=hyper.get("embed_dim") if graph.one_hot_features else None,
                **shared,
            ),
        )
    if hyper.get("basis_w") is not None or hyper.get("basis_a") is not None:
        raise ValueError("basis_w and basis_a apply to node tasks only")
    graph0 = task.graphs[0]
    return GraphClassifier(
        rng,
        GraphClassifierConfig(
            feature_dim=graph0.feature_dim,
            num_relations=graph0.num_relations,
            num_tasks=task.labels.graph_classes.shape[1],
            num_classes=task.labels.num_classes,
            graph_units=int(hyper.get("graph_units", 32)),
            dense_units=int(hyper.get("dense_units", 64)),
            **shared,
        ),
    )


@dataclass(frozen=True)
class _Sweep:
    """What every trial of one sweep shares, task included, so a trial runs
    on the task it was given. Each pool worker receives it once."""

    task: NodeTask | GraphTask
    space: dict
    master_seed: int
    variant: dict
    overrides: dict | None
    folds: int | None
    fold_limit: int | None


# set once in each pool worker, by the pool's initializer, so that a trial
# is submitted to the pool as its id alone; the parent process never sets it
_worker_sweep: _Sweep | None = None


def _init_worker(sweep: _Sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_trial(trial_id: int) -> dict:
    """Executes one trial of the sweep this pool worker was given;
    importable at module top level so process pools can pickle it."""
    return _trial(_worker_sweep, trial_id)


def _trial(sweep: _Sweep, trial_id: int) -> dict:
    """Trains one trial of a sweep and returns its record."""
    sample_seed, model_seed, train_seed = trial_seeds(sweep.master_seed, trial_id)
    config = sample_config(sweep.space, np.random.default_rng(sample_seed))
    record = {
        "trial": trial_id,
        "seed": train_seed,
        "config": config,
        "config_hash": config_hash(config),
        "variant": sweep.variant,
        "status": "ok",
    }
    try:
        record["objective"], record["metrics"] = _objective(sweep, config, model_seed, train_seed, record)
    except DivergenceError as exc:
        record["status"] = "diverged"
        record["objective"] = None
        record["error"] = str(exc)
    return record


def _objective(sweep: _Sweep, config: dict, model_seed: int, train_seed: int, record: dict):
    """Trains the trial's model on the task, or for graph tasks with folds
    on each of the first fold_limit folds of train + validation, and
    returns the objective with the record's metrics. A node model's basis
    sizes, as its layers clamp them to relations x heads, go into the
    record as trained_basis before it trains."""
    task = sweep.task
    hyper = {**config, **sweep.variant}
    tcfg = _train_config(config, train_seed, sweep.overrides)

    def fit(on):
        model = build_model(on, hyper, np.random.default_rng(model_seed))
        if isinstance(model, NodeClassifier):
            record["trained_basis"] = {"basis_w": model.layer1.basis_w, "basis_a": model.layer1.basis_a}
        return train(model, on, tcfg)

    if sweep.folds is None:
        result = fit(task)
        metric = "val_accuracy" if isinstance(task, NodeTask) else "val_metric"
        return result.best_metric, {
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            metric: result.best_metric,
        }

    pool = np.sort(
        np.concatenate(
            [
                np.asarray(task.split.train, dtype=np.int64),
                np.asarray(task.split.validation, dtype=np.int64),
            ]
        )
    )
    assignments = kfold_split(pool.size, sweep.folds, train_seed)
    limit = sweep.folds if sweep.fold_limit is None else min(sweep.fold_limit, sweep.folds)
    fold_metrics = []
    for i in range(limit):
        tr, va = assignments[i]
        split = Split(
            train=tuple(int(v) for v in pool[tr]),
            validation=tuple(int(v) for v in pool[va]),
            test=tuple(task.split.test),
        )
        fold_metrics.append(fit(GraphTask(task.graphs, task.labels, split)).best_metric)
    return float(np.mean(fold_metrics)), {
        "fold_metrics": fold_metrics,
        "folds_run": limit,
    }


def _completed_trials(path: Path) -> dict[int, dict]:
    """Records already in path, by trial id.

    A last line that lacks its newline or does not parse was torn by a crash
    mid-append: it is cut from the file, with a warning, so its trial runs
    again and the next record starts on a line of its own. A malformed line
    anywhere else is an error.
    """
    done = {}
    if not path.exists():
        return done
    lines = path.read_bytes().splitlines(keepends=True)
    kept = 0
    for number, line in enumerate(lines, start=1):
        try:
            if not line.endswith(b"\n"):
                raise ValueError("unterminated line")
            if line.strip():
                record = json.loads(line)
                done[record["trial"]] = record
        except (ValueError, KeyError, TypeError):
            if number < len(lines):
                raise ValueError(f"{path}: malformed trial record on line {number}") from None
            warnings.warn(f"{path}: dropping torn last line {number}; its trial runs again")
            with open(path, "r+b") as fh:
                fh.truncate(kept)
                os.fsync(fh.fileno())
        kept += len(line)
    return done


def _check_resumed(path: Path, record: dict, space: dict, master_seed: int, variant: dict) -> None:
    """A kept record must hold the seed, variant and configuration that this
    sweep derives for its trial id; otherwise the file belongs to another
    sweep and resuming it would mix the two."""
    trial = record["trial"]
    sample_seed, _, train_seed = trial_seeds(master_seed, trial)
    expected = {
        "seed": train_seed,
        "variant": variant,
        "config_hash": config_hash(sample_config(space, np.random.default_rng(sample_seed))),
    }
    for key, value in expected.items():
        if record.get(key) != value:
            raise ValueError(
                f"{path}: trial {trial} was recorded by a different sweep ({key} differs)"
            )


def _append_record(path: Path, record: dict) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def run_sweep(
    task,
    space: dict,
    num_trials: int,
    master_seed: int,
    record_path,
    *,
    logit_mode: str = "additive",
    norm_kind: str = "wirgat",
    parallelism: int = 1,
    overrides: dict | None = None,
    folds: int | None = None,
    fold_limit: int | None = None,
) -> list[dict]:
    """Runs (or resumes) a random search and returns all records in trial
    order. Trials already present in record_path are not recomputed; a
    record whose seed, variant or configuration differs from what this call
    derives for its trial id raises ValueError, and so do folds or a
    fold_limit on a node task, a fold_limit without folds, fewer than 2
    folds, a fold_limit below 1 and a space name that no trial of the task
    reads, before any record is written."""
    if num_trials < 1:
        raise ValueError("need at least one trial")
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    if isinstance(task, NodeTask) and (folds is not None or fold_limit is not None):
        raise ValueError("folds and fold_limit apply to graph tasks only")
    if fold_limit is not None and folds is None:
        raise ValueError("fold_limit applies only with folds")
    if folds is not None and folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if fold_limit is not None and fold_limit < 1:
        raise ValueError(f"fold_limit must be positive, got {fold_limit}")
    kind = "node" if isinstance(task, NodeTask) else "graph"
    unread = sorted(set(space) - _READ_BY_TRIALS[kind])
    if unread:
        raise ValueError(f"no trial of a {kind} task reads the space names {', '.join(map(repr, unread))}")
    path = Path(record_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    variant = {"logit_mode": logit_mode, "norm_kind": norm_kind}
    done = _completed_trials(path)
    for record in done.values():
        _check_resumed(path, record, space, master_seed, variant)
    sweep = _Sweep(task, space, master_seed, variant, overrides, folds, fold_limit)
    trials = [i for i in range(num_trials) if i not in done]
    if parallelism == 1:
        for trial_id in trials:
            _append_record(path, _trial(sweep, trial_id))
    else:
        with ProcessPoolExecutor(parallelism, initializer=_init_worker, initargs=(sweep,)) as pool:
            # appended in trial order, so the file is the same at any parallelism
            futures = [pool.submit(_run_trial, trial_id) for trial_id in trials]
            for fut in futures:
                _append_record(path, fut.result())

    records = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    records.sort(key=lambda r: r["trial"])
    return records


def best_trial(records: list[dict]) -> dict:
    """Highest-objective successful trial."""
    ok = [r for r in records if r.get("status") == "ok" and r.get("objective") is not None]
    if not ok:
        raise ValueError("no successful trials")
    return max(ok, key=lambda r: r["objective"])
