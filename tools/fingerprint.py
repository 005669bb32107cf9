"""Prints sha256 fingerprints of what relgat computes on the benchmark's
workloads, so that two source trees can be shown to give the same bytes.

    python3 tools/fingerprint.py --seeds 1 2

Run from the root of a source checkout: relgat is imported from src/ and
the workloads from perfbench/, which this script only reads. For every
workload and seed it prints one JSON line of hashes (sha256, first 16 hex
digits) of

- data: the workload task's serialize_dataset document, the document a
  parse_dataset round trip of it serializes to, and, for graph tasks, the
  edge arrays of batch_graphs over each non-empty split;
- history: the 3-epoch train() histories of two models built alike from the
  workload's model and trial-0 configuration, with patience 3, as the
  benchmark trains it; both train on the same task object, so the second
  scores the split batches, and their plans, that the first one's run kept
  with the task;
- params: the best parameters each train() returns, by name, shape and
  bytes;
- evaluate: after each train(), two rounds of evaluate() under learned and
  then constant attention, on the train, validation and test splits and on
  every one-graph test task the benchmark's eval phase scores; the second
  round scores kept batches whose plans have built their runs;
- sweep: the records of a 4-trial run_sweep over the workload's space,
  3 epochs per trial, on the benchmark's pool of PARALLELISM workers,
  which fork after the fits above and so inherit the batches they kept.

After the workloads, one gen line per seed hashes the file `relgat gen
--seed SEED` writes with its default flags, and with --relations 3
--noise-edges 0: the corpus, its split, its feature width and its
provenance.

--grid adds one line per logit mode, normalization kind and head count
(1 to 3) of a graph model trained with feature and edge dropout and L2 on
the planted-graph task, hashing its histories, parameters and evaluations
in the same way.
Two trees give the same bytes when their outputs are equal line for line.

    python3 tools/fingerprint.py --seeds 1 2 --grid --against HEAD

--against REF runs this script, with the same options, on a `git archive`
of REF and then on this working tree, prints the lines that differ as a
unified diff, and exits 1 if any does, 0 if none, and 2 if either tree
could not be fingerprinted.
"""

import os

# one BLAS thread, as the benchmark pins it; set before numpy loads
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import relgat  # noqa: E402
import relgat.cli  # noqa: E402
from relgat.search import _train_config  # noqa: E402
from workloads import MASTER_SEED, PARALLELISM, WORKLOADS, build_model  # noqa: E402

EPOCHS = 3
SWEEP_TRIALS = 4


def _hash(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _params_hash(params: dict) -> str:
    return _hash(*[p for name, v in params.items() for p in (name, list(v.shape), v.tobytes())])


def _data_hash(task) -> str:
    doc = relgat.serialize_dataset(task)
    parts = [doc.encode(), relgat.serialize_dataset(relgat.parse_dataset(doc)).encode()]
    if isinstance(task, relgat.GraphTask):
        for split in ("train", "validation", "test"):
            if task.split.part(split):
                batch = relgat.batch_graphs([task.graphs[i] for i in task.split.part(split)])
                parts += [p for pair in batch.graph.edges for a in pair for p in (a.dtype.str, a.tobytes())]
    return _hash(*parts)


def _scored_tasks(task) -> list:
    """The task's non-empty splits, then every one-graph test task."""
    parts = [(task, split) for split in ("train", "validation", "test") if task.split.part(split)]
    if isinstance(task, relgat.GraphTask):
        for i in task.split.test:
            split = relgat.Split(train=task.split.train, validation=(), test=(i,))
            parts.append((relgat.GraphTask(task.graphs, task.labels, split), "test"))
    return parts


def _fit_hashes(new_model, task, tcfg) -> dict:
    scored = _scored_tasks(task)
    histories, params, scores = [], [], []
    for _ in range(2):
        model = new_model()
        result = relgat.train(model, task, tcfg)
        histories.append(result.history)
        params.append(_params_hash(result.params))
        scores += [
            relgat.evaluate(model, on, split, constant=constant)
            for _ in range(2)
            for on, split in scored
            for constant in (False, True)
        ]
    return {"history": _hash(histories), "params": _hash(params), "evaluate": _hash(scores)}


def workload_hashes(name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    task, config = w.build(seed), w.config()
    tcfg = _train_config(config, seed, {"epochs": EPOCHS, "patience": EPOCHS})
    out = {"workload": name, "seed": seed, "data": _data_hash(task), **_fit_hashes(lambda: build_model(w, task, config, seed), task, tcfg)}
    with tempfile.TemporaryDirectory() as d:
        records = relgat.run_sweep(
            task,
            w.space(),
            SWEEP_TRIALS,
            MASTER_SEED,
            Path(d) / "trials.jsonl",
            logit_mode=w.logit_mode,
            norm_kind=w.norm_kind,
            parallelism=PARALLELISM,
            overrides={"epochs": EPOCHS, "patience": EPOCHS},
        )
    out["sweep"] = _hash(records)
    return out


GEN_FLAGS = {"defaults": [], "relations3-noise0": ["--relations", "3", "--noise-edges", "0"]}


def gen_hashes(seed: int) -> dict:
    out = {"gen": "relgat gen", "seed": seed}
    with tempfile.TemporaryDirectory() as d:
        for key, flags in GEN_FLAGS.items():
            path = Path(d) / f"{key}.json"
            # gen prints what it wrote; these lines are the script's output
            with contextlib.redirect_stdout(io.StringIO()):
                relgat.cli.main(["gen", "--seed", str(seed), *flags, "--out", str(path)])
            out[key] = _hash(path.read_bytes())
    return out


def grid_hashes(seed: int):
    task = WORKLOADS["planted-graph"].build(seed)
    g0 = task.graphs[0]
    tcfg = relgat.TrainConfig(
        epochs=EPOCHS,
        patience=EPOCHS,
        feature_dropout=0.2,
        edge_dropout=0.2,
        l2={"layer1_w": 1e-3, "layer1_a": 1e-3, "layer2_w": 1e-3, "layer2_a": 1e-3},
        seed=seed,
    )
    for mode in ("additive", "multiplicative"):
        for kind in ("wirgat", "argat"):
            for heads in (1, 2, 3):
                config = relgat.GraphClassifierConfig(
                    feature_dim=g0.feature_dim,
                    num_relations=g0.num_relations,
                    num_tasks=1,
                    num_classes=2,
                    graph_units=6 * heads,
                    dense_units=8,
                    heads=heads,
                    logit_mode=mode,
                    norm_kind=kind,
                )
                key = {"grid": f"{mode}/{kind}/heads{heads}", "seed": seed}
                hashes = _fit_hashes(lambda: relgat.GraphClassifier(np.random.default_rng(seed), config), task, tcfg)
                yield {**key, **hashes}


def _fingerprint(root: Path, options: list) -> list:
    # the output lines of this script run from a copy in the tree at root,
    # which it then reads
    script = root / "tools" / "fingerprint.py"
    if script.resolve() != Path(__file__).resolve():
        script.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, script)
    proc = subprocess.run([sys.executable, str(script), *options], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"fingerprinting {root} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def against(ref: str, options: list) -> int:
    with tempfile.TemporaryDirectory() as d:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True)
        if archive.returncode:
            print(f"fingerprint: git archive {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", d], input=archive.stdout, check=True)
        try:
            theirs = _fingerprint(Path(d), options)
            ours = _fingerprint(ROOT, options)
        except RuntimeError as exc:
            print(f"fingerprint: {exc}", file=sys.stderr)
            return 2
    diff = list(difflib.unified_diff(theirs, ours, ref, "this tree", n=0, lineterm=""))
    for line in diff:
        print(line)
    print(f"{len(ours)} lines, {'equal to' if not diff else 'differing from'} {ref}'s {len(theirs)}", file=sys.stderr)
    return 1 if diff else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--grid", action="store_true", help="add the logit mode x kind x heads grid")
    p.add_argument("--against", metavar="REF", help="compare with a git archive of REF; exit 1 on a difference")
    args = p.parse_args(argv)
    if args.against:
        options = ["--seeds", *map(str, args.seeds)] + (["--grid"] if args.grid else [])
        return against(args.against, options)
    for seed in args.seeds:
        for name in sorted(WORKLOADS):
            print(json.dumps(workload_hashes(name, seed), sort_keys=True), flush=True)
        print(json.dumps(gen_hashes(seed), sort_keys=True), flush=True)
        if args.grid:
            for line in grid_hashes(seed):
                print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
