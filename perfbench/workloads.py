"""The benchmark's workloads: seeded inputs, search spaces and models.

Every workload runs the same protocol as the paper: train a model, evaluate
it graph by graph under learned and constant attention, and sweep a search
space. A workload fixes the data, the search space and how the run's time
is shared between the three phases. The trained and evaluated model is the
search space's first sampled configuration, so the train and eval phases
see the same models as the sweep.

The workload seed makes the data, the split and the model's initial
weights. The sweep's master seed is fixed, so every run samples the same
trial configurations and the sweep's cost does not swing with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import relgat
from relgat.search import OneOf, trial_seeds

MASTER_SEED = 0  # the sweep's master seed
PARALLELISM = 2  # sweep pool workers, one per core


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]  # seed -> NodeTask | GraphTask
    space: Callable[[], dict]
    logit_mode: str
    norm_kind: str
    epochs: int  # per train() call; patience equals it, so no run stops early
    sweep_trials: int
    sweep_epochs: int
    shares: tuple[float, float, float]  # train, eval, sweep share of --seconds

    def config(self) -> dict:
        """The sweep's trial-0 configuration."""
        sample_seed = trial_seeds(MASTER_SEED, 0)[0]
        return relgat.sample_config(self.space(), np.random.default_rng(sample_seed))


def planted_task(seed: int, n_graphs: int, nodes: int, noise_edges: int):
    """generate_planted corpus with 4 relations plus self, split 60/20/20."""
    pairs = relgat.generate_planted(seed, n_graphs, nodes, 4, feature_dim=4, noise_edges=noise_edges)
    graphs = tuple(relgat.with_self_relation(g) for g, _ in pairs)
    labels = relgat.LabelSet(
        kind="graph",
        num_classes=2,
        num_tasks=1,
        graph_classes=np.array([[y] for _, y in pairs], dtype=np.int64),
    )
    order = np.random.default_rng(seed).permutation(n_graphs)
    a, b = 6 * n_graphs // 10, 8 * n_graphs // 10
    split = relgat.Split(
        train=tuple(sorted(order[:a].tolist())),
        validation=tuple(sorted(order[a:b].tolist())),
        test=tuple(sorted(order[b:].tolist())),
    )
    return relgat.GraphTask(graphs, labels, split)


def onehot_task(seed: int, nodes: int = 1000, relations: int = 12, edges: int = 2500, classes: int = 4):
    """One graph with distinct uniform (relation, target, source) edges,
    one-hot node features and uniform labels, split 50/25/25."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(relations * nodes * nodes, size=edges, replace=False)
    rel, rest = np.divmod(flat, nodes * nodes)
    tgt, src = np.divmod(rest, nodes)
    graph = relgat.with_self_relation(
        relgat.build_graph(nodes, relations, zip(rel.tolist(), tgt.tolist(), src.tolist()), one_hot=True)
    )
    node_classes = rng.integers(classes, size=nodes)
    labels = relgat.LabelSet(
        "node", classes, node_classes={i: int(c) for i, c in enumerate(node_classes)}
    )
    order = rng.permutation(nodes)
    a, b = nodes // 2, 3 * nodes // 4
    split = relgat.Split(
        train=tuple(sorted(order[:a].tolist())),
        validation=tuple(sorted(order[a:b].tolist())),
        test=tuple(sorted(order[b:].tolist())),
    )
    return relgat.NodeTask(graph, labels, split)


def build_model(w: Workload, task, config: dict, seed: int):
    """The model a sweep trial would build for this configuration."""
    rng = np.random.default_rng(seed)
    if isinstance(task, relgat.NodeTask):
        g = task.graph
        return relgat.NodeClassifier(
            rng,
            relgat.NodeClassifierConfig(
                in_dim=g.feature_dim,
                num_relations=g.num_relations,
                num_classes=task.labels.num_classes,
                hidden_units=int(config["hidden_units"]),
                heads=int(config["heads"]),
                logit_mode=w.logit_mode,
                norm_kind=w.norm_kind,
                basis_w=config.get("basis_w"),
                basis_a=config.get("basis_a"),
                use_bias=bool(config.get("use_bias", True)),
                one_hot=g.one_hot_features,
            ),
        )
    g0 = task.graphs[0]
    return relgat.GraphClassifier(
        rng,
        relgat.GraphClassifierConfig(
            feature_dim=g0.feature_dim,
            num_relations=g0.num_relations,
            num_tasks=task.labels.num_tasks,
            num_classes=task.labels.num_classes,
            graph_units=int(config["graph_units"]),
            dense_units=int(config["dense_units"]),
            heads=int(config["heads"]),
            logit_mode=w.logit_mode,
            norm_kind=w.norm_kind,
            use_bias=bool(config.get("use_bias", True)),
        ),
    )


def _fixed(**values) -> Callable[[], dict]:
    return lambda: {name: OneOf(value) for name, value in values.items()}


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance planted-rule configuration
        Workload(
            name="planted-graph",
            build=lambda seed: planted_task(seed, 100, 20, 60),
            space=_fixed(graph_units=16, dense_units=16, heads=2, learning_rate=0.01),
            logit_mode="multiplicative",
            norm_kind="argat",
            epochs=3,
            sweep_trials=2,
            sweep_epochs=2,
            shares=(0.35, 0.4, 0.25),
        ),
        Workload(
            name="onehot-node",
            build=onehot_task,
            space=_fixed(
                hidden_units=16,
                heads=1,
                feature_dropout=0.3,
                edge_dropout=0.2,
                basis_w=6,
                basis_a=6,
                l2_layer1_w=5e-4,
                learning_rate=0.01,
            ),
            logit_mode="additive",
            norm_kind="wirgat",
            epochs=4,
            sweep_trials=2,
            sweep_epochs=2,
            shares=(0.15, 0.6, 0.25),
        ),
        Workload(
            name="sweep-p2",
            build=lambda seed: planted_task(seed, 60, 16, 40),
            space=relgat.inductive_space,
            logit_mode="additive",
            norm_kind="wirgat",
            epochs=4,
            sweep_trials=4,
            sweep_epochs=3,
            shares=(0.2, 0.35, 0.45),
        ),
    )
}
