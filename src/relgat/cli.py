"""Command line entry points.

Subcommands: gen (synthetic benchmark corpus), train, eval, sweep, stats.
Every artifact embeds the tool version, a hash of the exact configuration,
and the seed, so runs can be traced back to their inputs. Exit codes: 0 on
success, 1 when training diverges or an evaluation overflows (a forward
meets a non-finite value), 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .graph import (
    GraphFormatError,
    GraphTask,
    LabelSet,
    NodeTask,
    Split,
    generate_planted,
    parse_dataset,
    serialize_dataset,
)
from .models import (
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from .search import (
    _train_config,
    best_trial,
    build_model,
    inductive_space,
    load_space,
    run_sweep,
    transductive_space,
)
from .stats import cdf_tables, pairwise_pvalues
from .training import DivergenceError, evaluate, train

__all__ = ["main"]


def _split_indices(n: int, seed: int, train_frac: float, val_frac: float) -> Split:
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    return Split(
        train=tuple(int(i) for i in np.sort(order[:n_train])),
        validation=tuple(int(i) for i in np.sort(order[n_train : n_train + n_val])),
        test=tuple(int(i) for i in np.sort(order[n_train + n_val :])),
    )


def _cmd_gen(args) -> int:
    for flag, frac in (("--train-frac", args.train_frac), ("--val-frac", args.val_frac)):
        if not 0.0 <= frac <= 1.0:  # NaN fails too
            raise ValueError(f"{flag} must lie in [0, 1], got {frac}")
    if args.train_frac + args.val_frac > 1.0:
        raise ValueError(f"--train-frac {args.train_frac} and --val-frac {args.val_frac} add up to more than 1")
    pairs = generate_planted(
        args.seed,
        args.graphs,
        args.nodes,
        args.relations,
        feature_dim=args.feature_dim,
        noise_edges=args.noise_edges,
    )
    graphs = tuple(g for g, _ in pairs)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    split = _split_indices(len(pairs), args.seed, args.train_frac, args.val_frac)
    task = GraphTask(graphs, labels, split)
    doc = json.loads(serialize_dataset(task))
    doc["provenance"] = {
        "tool_version": __version__,
        "seed": args.seed,
        "config_hash": config_hash(
            {
                "graphs": args.graphs,
                "nodes": args.nodes,
                "relations": args.relations,
                "feature_dim": args.feature_dim,
                "noise_edges": args.noise_edges,
                "train_frac": args.train_frac,
                "val_frac": args.val_frac,
            }
        ),
    }
    Path(args.out).write_text(json.dumps(doc, separators=(",", ":")))
    print(f"wrote {args.graphs} graphs to {args.out}")
    return 0


def _write_metrics(path: Path, history: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in history:
            epoch = record["epoch"]
            for key, value in record.items():
                if key == "epoch":
                    continue
                split, _, metric = key.partition("_")
                split = {"train": "train", "val": "validation"}[split]
                fh.write(
                    json.dumps(
                        {
                            "trial": 0,
                            "epoch": epoch,
                            "split": split,
                            "metric": metric,
                            "value": value,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def _cmd_train(args) -> int:
    task = parse_dataset(Path(args.data).read_text())
    kind = "node" if isinstance(task, NodeTask) else "graph"
    ignored = {"node": ("graph_units", "dense_units"), "graph": ("hidden_units", "embed_dim")}[kind]
    given = " or ".join("--" + n.replace("_", "-") for n in ignored if getattr(args, n) is not None)
    if given:
        raise ValueError(f"a {kind} task takes no {given}")
    if args.embed_dim is not None and not task.graph.one_hot_features:
        raise ValueError("--embed-dim applies to one-hot node features only")
    # a width left unset takes build_model's default
    hyper = {**{k: v for k, v in vars(args).items() if v is not None}, "use_bias": not args.no_bias}
    model = build_model(task, hyper, np.random.default_rng(args.seed))
    tcfg = _train_config(hyper, args.seed, {"epochs": args.epochs, "patience": args.patience})
    result = train(model, task, tcfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_config = model.config.to_dict()
    run_config = {
        "model": model_config,
        "task": kind,
        "train": asdict(tcfg),
    }
    save_checkpoint(
        out,
        model.params,
        run_config,
        extra={"tool_version": __version__, "seed": args.seed, "task": kind},
    )
    _write_metrics(out / "metrics.jsonl", result.history)
    final = {}
    for split in ("train", "validation", "test"):
        if task.split.part(split):
            final[split] = evaluate(model, task, split)
    summary = {
        "tool_version": __version__,
        "config_hash": config_hash(run_config),
        "seed": args.seed,
        "task": kind,
        "best_epoch": result.best_epoch,
        "best_metric": result.best_metric,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
        "final": final,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _rebuild_model(manifest: dict):
    config = manifest["config"]
    kind = config.get("task") or manifest.get("task")
    kinds = {
        "node": (NodeClassifier, NodeClassifierConfig),
        "graph": (GraphClassifier, GraphClassifierConfig),
    }
    if kind not in kinds:
        raise GraphFormatError(f"checkpoint has unknown task kind {kind!r}")
    model_cls, config_cls = kinds[kind]
    try:
        model_config = config_cls.from_dict(config["model"])
    except TypeError as exc:
        raise GraphFormatError(f"checkpoint model config does not fit a {kind} model: {exc}") from None
    return model_cls(np.random.default_rng(0), model_config)


def _cmd_eval(args) -> int:
    task = parse_dataset(Path(args.data).read_text())
    params, manifest = load_checkpoint(args.checkpoint)
    config = manifest.get("config")
    if not isinstance(config, dict) or not isinstance(config.get("model"), dict):
        raise GraphFormatError("checkpoint manifest lacks config.model")
    if config_hash(config) != manifest.get("config_hash"):
        raise GraphFormatError("checkpoint config does not match its config_hash")
    model = _rebuild_model(manifest)
    model_kind = "node" if isinstance(model, NodeClassifier) else "graph"
    data_kind = "node" if isinstance(task, NodeTask) else "graph"
    if model_kind != data_kind:
        raise GraphFormatError(f"checkpoint holds a {model_kind} model, the dataset a {data_kind} task")
    missing = sorted(model.params.keys() - params.keys())
    if missing:
        raise GraphFormatError(f"checkpoint lacks model parameters {missing}")
    for name, value in params.items():
        if name not in model.params:
            raise GraphFormatError(f"checkpoint parameter {name!r} not in model")
        if model.params[name].shape != value.shape:
            raise GraphFormatError(f"checkpoint parameter {name!r} has wrong shape")
    model.params = params
    metrics = evaluate(model, task, args.split, constant=args.constant)
    report = {
        "tool_version": __version__,
        "config_hash": manifest.get("config_hash"),
        "split": args.split,
        "constant_attention": args.constant,
        "metrics": metrics,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_sweep(args) -> int:
    task = parse_dataset(Path(args.data).read_text())
    if args.space:
        space = load_space(args.space)
    elif isinstance(task, NodeTask):
        space = transductive_space()
    else:
        space = inductive_space()
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.patience is not None:
        overrides["patience"] = args.patience
    records = run_sweep(
        task,
        space,
        args.trials,
        args.seed,
        args.out,
        logit_mode=args.logit_mode,
        norm_kind=args.norm_kind,
        parallelism=args.parallelism,
        overrides=overrides or None,
        folds=args.folds,
        fold_limit=args.fold_limit,
    )
    ok = [r for r in records if r["status"] == "ok"]
    summary = {
        "tool_version": __version__,
        "seed": args.seed,
        "trials": len(records),
        "succeeded": len(ok),
        "diverged": len(records) - len(ok),
    }
    if ok:
        top = best_trial(records)
        summary["best"] = {
            "trial": top["trial"],
            "objective": top["objective"],
            "config": top["config"],
            "config_hash": top["config_hash"],
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    doc = json.loads(Path(args.samples).read_text())
    if not isinstance(doc, dict) or not doc:
        raise GraphFormatError("samples file must map names to value lists")
    samples = {str(k): np.asarray(v, dtype=np.float64) for k, v in doc.items()}
    report = {
        "tool_version": __version__,
        "pairwise": pairwise_pvalues(samples, method=args.method),
        "cdf": cdf_tables(samples),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relgat",
        description="Relational graph attention: data, training, search, analysis.",
    )
    p.add_argument("--version", action="version", version=f"relgat {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic graph-classification corpus")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--graphs", type=int, default=100)
    g.add_argument("--nodes", type=int, default=20)
    g.add_argument("--relations", type=int, default=4)
    g.add_argument("--feature-dim", type=int, default=8)
    g.add_argument("--noise-edges", type=int, default=40)
    g.add_argument("--train-frac", type=float, default=0.6)
    g.add_argument("--val-frac", type=float, default=0.2)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    t = sub.add_parser("train", help="train a model and write a checkpoint")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--logit-mode", choices=["additive", "multiplicative"], default="additive")
    t.add_argument("--norm-kind", choices=["wirgat", "argat"], default="wirgat")
    t.add_argument("--heads", type=int, default=1)
    # widths default to None, so that a flag the task kind ignores is seen
    t.add_argument("--hidden-units", type=int, default=None, help="node tasks; default 16")
    t.add_argument("--embed-dim", type=int, default=None, help="node tasks with one-hot features")
    t.add_argument("--graph-units", type=int, default=None, help="graph tasks; default 32")
    t.add_argument("--dense-units", type=int, default=None, help="graph tasks; default 64")
    t.add_argument("--basis-w", type=int, default=None)
    t.add_argument("--basis-a", type=int, default=None)
    t.add_argument("--no-bias", action="store_true")
    t.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=0.01)
    t.add_argument("--epochs", type=int, default=200)
    t.add_argument("--patience", type=int, default=30)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--feature-dropout", type=float, default=0.0)
    t.add_argument("--edge-dropout", type=float, default=0.0)
    t.add_argument("--l2", type=float, default=None, help="weight for all four kernel groups")
    t.add_argument("--l2-layer1-w", dest="l2_layer1_w", type=float, default=None)
    t.add_argument("--l2-layer1-a", dest="l2_layer1_a", type=float, default=None)
    t.add_argument("--l2-layer2-w", dest="l2_layer2_w", type=float, default=None)
    t.add_argument("--l2-layer2-a", dest="l2_layer2_a", type=float, default=None)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", choices=["train", "validation", "test"], default="test")
    e.add_argument(
        "--constant",
        action="store_true",
        help="replace learned attention with uniform weights over each support",
    )
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("sweep", help="random hyperparameter search")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="JSONL record file (appended, resumable)")
    s.add_argument("--space", default=None, help="JSON prior file; default depends on task")
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--logit-mode", choices=["additive", "multiplicative"], default="additive")
    s.add_argument("--norm-kind", choices=["wirgat", "argat"], default="wirgat")
    s.add_argument("--parallelism", type=int, default=1)
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--patience", type=int, default=None)
    s.add_argument("--folds", type=int, default=None)
    s.add_argument("--fold-limit", type=int, default=None)
    s.set_defaults(func=_cmd_sweep)

    st = sub.add_parser("stats", help="rank tests and CDF tables for metric samples")
    st.add_argument("--samples", required=True, help="JSON file mapping names to value lists")
    st.add_argument("--method", choices=["auto", "exact", "approx"], default="auto")
    st.add_argument("--out", default=None)
    st.set_defaults(func=_cmd_stats)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
