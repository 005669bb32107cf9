"""Priors, search-space files, and the resumable sweep runner."""

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from relgat.graph import (
    GraphTask,
    LabelSet,
    NodeTask,
    Split,
    build_graph,
    generate_planted,
    with_self_relation,
)
from relgat import search
from relgat.models import (
    GraphClassifier,
    GraphClassifierConfig,
    NodeClassifier,
    NodeClassifierConfig,
    config_hash,
)
from relgat.search import (
    LogUniform,
    MultiplesOf,
    OneOf,
    Uniform,
    best_trial,
    inductive_space,
    load_space,
    run_sweep,
    sample_config,
    transductive_space,
    trial_seeds,
)
from relgat.training import TrainConfig, train

RNG = np.random.default_rng


def test_uniform_support_and_determinism():
    prior = Uniform(0.0, 0.8)
    draws = [prior.sample(RNG(0)) for _ in range(5)]
    assert all(prior.contains(d) for d in draws)
    assert draws[0] == Uniform(0.0, 0.8).sample(RNG(0))
    with pytest.raises(ValueError):
        Uniform(1.0, 0.5)


def test_log_uniform_range_and_log_spread():
    prior = LogUniform(1e-5, 1e-1)
    rng = RNG(1)
    draws = np.array([prior.sample(rng) for _ in range(4000)])
    assert draws.min() >= 1e-5 and draws.max() <= 1e-1
    # half the mass below the geometric midpoint
    mid = np.sqrt(1e-5 * 1e-1)
    frac = (draws < mid).mean()
    assert 0.45 < frac < 0.55
    with pytest.raises(ValueError):
        LogUniform(0.0, 1.0)


def test_one_of_uniform_frequencies():
    prior = OneOf(None, 5, 10, 20, 30)
    rng = RNG(2)
    draws = [prior.sample(rng) for _ in range(5000)]
    assert all(prior.contains(d) for d in draws)
    for option in prior.options:
        freq = sum(d == option for d in draws) / 5000
        assert abs(freq - 0.2) < 0.02


def test_multiples_of_options():
    prior = MultiplesOf(4, 4, 20)
    assert prior.options == (4, 8, 12, 16, 20)
    assert all(prior.contains(prior.sample(RNG(i))) for i in range(10))
    assert not prior.contains(6)
    with pytest.raises(ValueError):
        MultiplesOf(4, 4, 18)
    with pytest.raises(ValueError):
        MultiplesOf(8, 4, 16)


_KINDS = {Uniform: "uniform", LogUniform: "log_uniform", OneOf: "one_of", MultiplesOf: "multiples_of"}


def test_space_round_trip(tmp_path):
    # the default spaces, written as JSON from their priors' fields, load
    # back equal and in order
    for space in (transductive_space(), inductive_space()):
        doc = {name: {"kind": _KINDS[type(p)], **dataclasses.asdict(p)} for name, p in space.items()}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        back = load_space(path)
        assert list(back) == list(space) and back == space


def test_a_one_of_prior_whose_only_option_is_a_list_round_trips(tmp_path):
    doc = {"pair": {"kind": "one_of", "options": [[1, 2]]}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    space = load_space(path)
    # one option, the pair, and never the values 1 and 2 on their own
    assert space["pair"].options == ((1, 2),)
    assert space["pair"].sample(RNG(0)) == (1, 2)


def test_legacy_prior_kind_names_load(tmp_path):
    doc = {
        "hidden_units": {"kind": "multiples_of_four", "low": 4, "high": 20},
        "graph_units": {"kind": "multiples_of_eight", "low": 32, "high": 128},
    }
    path = tmp_path / "space_legacy.json"
    path.write_text(json.dumps(doc))
    space = load_space(path)
    assert space["hidden_units"].step == 4
    assert space["graph_units"].step == 8


def test_sample_config_types_and_order():
    cfg = sample_config(transductive_space(), RNG(3))
    assert list(cfg) == list(transductive_space())
    assert cfg["hidden_units"] % 4 == 0
    assert cfg["heads"] in (1, 2, 4)
    assert 0.0 <= cfg["feature_dropout"] <= 0.8
    assert cfg["basis_w"] in (None, 5, 10, 20, 30)
    assert isinstance(cfg["use_bias"], bool)
    assert 1e-5 <= cfg["learning_rate"] <= 1e-1
    icfg = sample_config(inductive_space(), RNG(4))
    assert icfg["graph_units"] % 8 == 0 and 32 <= icfg["graph_units"] <= 128
    assert icfg["heads"] in (1, 2, 4, 8)
    assert "basis_w" not in icfg


def test_trial_seeds_deterministic_and_distinct():
    a = trial_seeds(7, 0)
    assert a == trial_seeds(7, 0)
    assert a != trial_seeds(7, 1)
    assert a != trial_seeds(8, 0)
    assert len(set(a)) == 3


def _tiny_task(n_graphs=8):
    pairs = generate_planted(0, n_graphs, 6, 4, feature_dim=3, noise_edges=2)
    graphs = tuple(g for g, _ in pairs)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    split = Split(
        train=tuple(range(n_graphs - 4)),
        validation=(n_graphs - 4, n_graphs - 3),
        test=(n_graphs - 2, n_graphs - 1),
    )
    return GraphTask(graphs, labels, split)


_TINY_SPACE = {
    "graph_units": MultiplesOf(8, 8, 16),
    "learning_rate": LogUniform(1e-3, 1e-1),
}


def test_run_sweep_resume_skips_done_trials(tmp_path):
    task = _tiny_task()
    path = tmp_path / "records.jsonl"
    first = run_sweep(
        task, _TINY_SPACE, 2, 11, path, overrides={"epochs": 2, "patience": 2}
    )
    assert [r["trial"] for r in first] == [0, 1]
    text_before = path.read_text()
    second = run_sweep(
        task, _TINY_SPACE, 4, 11, path, overrides={"epochs": 2, "patience": 2}
    )
    assert [r["trial"] for r in second] == [0, 1, 2, 3]
    # the first two lines were not rewritten
    assert second[0] == first[0] and second[1] == first[1]
    assert path.read_text().startswith(text_before)


def test_run_sweep_resume_drops_torn_last_line(tmp_path):
    task = _tiny_task()
    budget = {"epochs": 2, "patience": 2}
    clean = run_sweep(task, _TINY_SPACE, 3, 11, tmp_path / "clean.jsonl", overrides=budget)
    lines = (tmp_path / "clean.jsonl").read_text().splitlines(keepends=True)
    path = tmp_path / "torn.jsonl"
    # trials 0 and 1 landed; the append of trial 2 stopped half way
    torn = next(line for line in lines if json.loads(line)["trial"] == 2)
    kept = [line for line in lines if json.loads(line)["trial"] != 2]
    path.write_text("".join(kept) + torn[: len(torn) // 2])
    with pytest.warns(UserWarning, match="torn last line 3"):
        resumed = run_sweep(task, _TINY_SPACE, 3, 11, path, overrides=budget)
    assert resumed == clean
    assert sorted(path.read_text().splitlines()) == sorted(line.rstrip("\n") for line in lines)

    # only the last line may be torn
    path.write_text(torn[: len(torn) // 2] + "\n" + "".join(kept))
    with pytest.raises(ValueError, match="malformed trial record on line 1"):
        run_sweep(task, _TINY_SPACE, 3, 11, path, overrides=budget)


def test_run_sweep_records_are_reproducible(tmp_path):
    task = _tiny_task()
    a = run_sweep(
        task, _TINY_SPACE, 2, 5, tmp_path / "a.jsonl", overrides={"epochs": 2, "patience": 2}
    )
    b = run_sweep(
        task, _TINY_SPACE, 2, 5, tmp_path / "b.jsonl", overrides={"epochs": 2, "patience": 2}
    )
    assert a == b
    for record in a:
        assert record["status"] == "ok"
        assert set(record) >= {"trial", "seed", "config", "config_hash", "variant", "objective"}
        assert record["variant"] == {"logit_mode": "additive", "norm_kind": "wirgat"}


def test_run_sweep_fold_limit(tmp_path):
    task = _tiny_task(10)
    records = run_sweep(
        task,
        _TINY_SPACE,
        1,
        3,
        tmp_path / "folds.jsonl",
        overrides={"epochs": 2, "patience": 2},
        folds=4,
        fold_limit=2,
    )
    metrics = records[0]["metrics"]
    assert metrics["folds_run"] == 2
    assert len(metrics["fold_metrics"]) == 2
    assert records[0]["objective"] == pytest.approx(
        float(np.mean(metrics["fold_metrics"]))
    )


@pytest.mark.parametrize("fold_limit", [0, -1])
def test_run_sweep_rejects_a_fold_limit_below_one(tmp_path, fold_limit):
    # no fold would run, leaving a NaN objective marked "ok"
    path = tmp_path / "folds.jsonl"
    with pytest.raises(ValueError, match="fold_limit"):
        run_sweep(_tiny_task(10), _TINY_SPACE, 1, 3, path, folds=4, fold_limit=fold_limit)
    assert not path.exists()


@pytest.mark.parametrize(
    "kind,folds,fold_limit,message",
    [
        ("node", 3, 2, "graph tasks only"),
        ("node", 3, None, "graph tasks only"),
        ("node", None, 2, "graph tasks only"),
        ("graph", None, 2, "only with folds"),
        ("graph", 0, None, "at least 2"),
        ("graph", 1, 1, "at least 2"),
    ],
)
def test_run_sweep_refuses_fold_arguments_that_would_do_nothing(tmp_path, kind, folds, fold_limit, message):
    # a node task never folds, and a fold_limit without folds limits nothing
    task = _self_relation_node_task() if kind == "node" else _tiny_task(10)
    path = tmp_path / "sub" / "folds.jsonl"
    with pytest.raises(ValueError, match=message):
        run_sweep(task, _TINY_SPACE, 1, 3, path, folds=folds, fold_limit=fold_limit)
    assert not path.parent.exists()


_READ_BY_BOTH = {
    "heads": OneOf(1),
    "use_bias": OneOf(True),
    "feature_dropout": Uniform(0.0, 0.1),
    "edge_dropout": Uniform(0.0, 0.1),
    "learning_rate": LogUniform(1e-3, 1e-1),
    "l2": OneOf(1e-4),
    "l2_layer2_a": OneOf(1e-3),
}


@pytest.mark.parametrize(
    "kind,names",
    [
        ("node", {"hidden_units": OneOf(4), "basis_w": OneOf(None), "basis_a": OneOf(1)}),
        ("graph", {"graph_units": OneOf(4), "dense_units": OneOf(4), "batch_size": OneOf(2)}),
    ],
)
def test_run_sweep_takes_every_name_a_trial_reads(tmp_path, kind, names):
    task = _self_relation_node_task() if kind == "node" else _tiny_task(10)
    space = {**_READ_BY_BOTH, **names}
    (record,) = run_sweep(task, space, 1, 3, tmp_path / "r.jsonl", overrides={"epochs": 1, "patience": 1})
    assert record["status"] == "ok" and sorted(record["config"]) == sorted(space)


@pytest.mark.parametrize(
    "kind,name",
    [
        ("graph", "x"),
        ("graph", "learning_rte"),
        ("graph", "logit_mode"),
        ("node", "norm_kind"),
        ("node", "embed_dim"),
        ("graph", "hidden_units"),
        ("node", "graph_units"),
        ("node", "dense_units"),
        ("node", "batch_size"),
        ("graph", "basis_w"),
        ("graph", "basis_a"),
    ],
)
def test_run_sweep_refuses_a_space_name_no_trial_reads(tmp_path, kind, name):
    # the variant sets logit_mode and norm_kind, a trial never sets
    # embed_dim, and node tasks train full-batch
    task = _self_relation_node_task() if kind == "node" else _tiny_task(10)
    path = tmp_path / "sub" / "r.jsonl"
    with pytest.raises(ValueError, match=f"no trial of a {kind} task reads the space names '{name}'$"):
        run_sweep(task, {**_READ_BY_BOTH, name: OneOf(4)}, 1, 3, path)
    assert not path.parent.exists()


def test_parallel_sweep_submits_trial_ids_only(tmp_path, monkeypatch):
    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    task = _tiny_task()
    budget = {"epochs": 2, "patience": 2}
    run_sweep(task, _TINY_SPACE, 3, 9, tmp_path / "p.jsonl", parallelism=2, overrides=budget)
    # the task reaches each worker once, through the pool's initializer
    assert submitted == [(0,), (1,), (2,)]
    run_sweep(task, _TINY_SPACE, 3, 9, tmp_path / "s.jsonl", overrides=budget)
    lines = {name: sorted((tmp_path / name).read_bytes().splitlines()) for name in ("p.jsonl", "s.jsonl")}
    assert lines["p.jsonl"] == lines["s.jsonl"]


def test_parallel_sweep_writes_records_in_trial_order(tmp_path, monkeypatch):
    # trial 0 finishes last; the pool forks after the patch, so its workers
    # run the slowed trial too
    real = search._trial

    def slow_first(sweep, trial_id):
        if trial_id == 0:
            time.sleep(1.0)
        return real(sweep, trial_id)

    monkeypatch.setattr(search, "_trial", slow_first)
    task = _tiny_task()
    budget = {"epochs": 2, "patience": 2}
    files = []
    for name in ("a.jsonl", "b.jsonl"):
        run_sweep(task, _TINY_SPACE, 3, 9, tmp_path / name, parallelism=2, overrides=budget)
        files.append((tmp_path / name).read_bytes())
    assert [json.loads(line)["trial"] for line in files[0].splitlines()] == [0, 1, 2]
    assert files[0] == files[1]


def test_run_sweep_parallel_matches_serial(tmp_path):
    task = _tiny_task()
    serial = run_sweep(
        task, _TINY_SPACE, 2, 9, tmp_path / "s.jsonl", overrides={"epochs": 2, "patience": 2}
    )
    parallel = run_sweep(
        task,
        _TINY_SPACE,
        2,
        9,
        tmp_path / "p.jsonl",
        parallelism=2,
        overrides={"epochs": 2, "patience": 2},
    )
    assert sorted(json.dumps(r, sort_keys=True) for r in serial) == sorted(
        json.dumps(r, sort_keys=True) for r in parallel
    )


def _self_relation_graph_task():
    pairs = generate_planted(1, 16, 6, 4, feature_dim=3, noise_edges=4)
    labels = LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    split = Split(train=tuple(range(8)), validation=tuple(range(8, 14)), test=(14, 15))
    return GraphTask(tuple(with_self_relation(g) for g, _ in pairs), labels, split)


def _self_relation_node_task():
    rng = RNG(2)
    n = 24
    triples = {(int(r), int(t), int(s)) for r, t, s in rng.integers((2, n, n), size=(60, 3))}
    graph = with_self_relation(build_graph(n, 2, sorted(triples), one_hot=True))
    labels = LabelSet("node", 3, node_classes={i: int(c) for i, c in enumerate(rng.integers(3, size=n))})
    return NodeTask(graph, labels, Split(tuple(range(12)), tuple(range(12, 20)), tuple(range(20, n))))


def test_a_sweep_record_names_the_basis_sizes_its_layers_clamped(tmp_path):
    # 3 relations x 1 head: a drawn basis of 30 trains as 3; the record
    # keeps the draw in its config and hash, so a resume still matches it
    task = _self_relation_node_task()
    space = {"hidden_units": OneOf(4), "heads": OneOf(1), "basis_w": OneOf(30), "basis_a": OneOf(None)}
    with pytest.warns(UserWarning, match="clamping"):
        (record,) = run_sweep(task, space, 1, 0, tmp_path / "r.jsonl", overrides={"epochs": 1, "patience": 1})
    assert record["config"]["basis_w"] == 30
    assert record["config_hash"] == config_hash(record["config"])
    assert record["trained_basis"] == {"basis_w": 3, "basis_a": None}


def _direct_model(task, config, seed):
    """The trial's model, built from its sampled configuration without the
    sweep's own builder."""
    rng = RNG(seed)
    if isinstance(task, NodeTask):
        g = task.graph
        cfg = NodeClassifierConfig(
            in_dim=g.feature_dim,
            num_relations=g.num_relations,
            num_classes=task.labels.num_classes,
            hidden_units=config["hidden_units"],
            one_hot=True,
        )
        return NodeClassifier(rng, cfg)
    g = task.graphs[0]
    cfg = GraphClassifierConfig(
        feature_dim=g.feature_dim,
        num_relations=g.num_relations,
        num_tasks=1,
        num_classes=task.labels.num_classes,
        graph_units=config["graph_units"],
    )
    return GraphClassifier(rng, cfg)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("kind", ["graph", "node"])
def test_sweep_trial_equals_direct_train_on_self_relation_task(tmp_path, kind, parallelism):
    # edge dropout spares the self relation in a sweep trial as it does in train()
    task = _self_relation_graph_task() if kind == "graph" else _self_relation_node_task()
    units = "graph_units" if kind == "graph" else "hidden_units"
    space = {
        units: MultiplesOf(4, 4, 8),
        "edge_dropout": Uniform(0.4, 0.7),
        "learning_rate": LogUniform(1e-2, 1e-1),
    }
    master_seed = 21
    records = run_sweep(
        task,
        space,
        2,
        master_seed,
        tmp_path / "records.jsonl",
        parallelism=parallelism,
        overrides={"epochs": 3, "patience": 3},
    )
    assert [r["trial"] for r in records] == [0, 1]
    for record in records:
        sample_seed, model_seed, train_seed = trial_seeds(master_seed, record["trial"])
        config = sample_config(space, RNG(sample_seed))
        assert record["config"] == config and record["seed"] == train_seed
        tcfg = TrainConfig(
            learning_rate=config["learning_rate"],
            epochs=3,
            patience=3,
            edge_dropout=config["edge_dropout"],
            seed=train_seed,
        )
        result = train(_direct_model(task, config, model_seed), task, tcfg)
        metric = "val_metric" if kind == "graph" else "val_accuracy"
        assert record["status"] == "ok"
        assert record["objective"] == result.best_metric
        assert record["metrics"] == {
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            metric: result.best_metric,
        }


@pytest.mark.parametrize(
    "config,expected",
    [
        ({"l2": 1e-3}, dict.fromkeys(["layer1_w", "layer1_a", "layer2_w", "layer2_a"], 1e-3)),
        (
            {"l2": 1e-3, "l2_layer2_a": 5e-2},
            {"layer1_w": 1e-3, "layer1_a": 1e-3, "layer2_w": 1e-3, "layer2_a": 5e-2},
        ),
        ({"l2": 1e-3, "l2_layer1_w": 0.0}, {"layer1_a": 1e-3, "layer2_w": 1e-3, "layer2_a": 1e-3}),
        ({"l2": None, "l2_layer1_w": None, "learning_rate": 0.1}, {}),
        ({}, {}),
    ],
    ids=["all-groups", "per-group-override", "per-group-zero-drops", "none-set", "empty"],
)
def test_l2_rule(config, expected):
    assert search._l2_from_config(config) == expected


def test_best_trial_ignores_failures():
    records = [
        {"trial": 0, "status": "diverged", "objective": None},
        {"trial": 1, "status": "ok", "objective": 0.4},
        {"trial": 2, "status": "ok", "objective": 0.9},
    ]
    assert best_trial(records)["trial"] == 2
    with pytest.raises(ValueError):
        best_trial([records[0]])
