"""Runs one relgat benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload planted-graph --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; relgat is imported from its src/
directory. With --trace 0 the run prints the end-to-end metrics that
BENCHMARK.json declares; with --trace 1 it wraps relgat's functions in spans
and prints the per-layer metrics instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier
lines give the provenance, the sample counts and every output check. The
full result, and for a traced run the spans, are written to perfbench/out/.
The exit code is 0 when every output check passed and no operation failed,
1 when not, and 2 when the run could not start.
"""

import os

# one BLAS thread per process, so the two sweep workers never load more than
# the two cores; set before numpy loads, and inherited by pool workers
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "relgat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, why: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_thread_pin": BLAS_PIN,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    if not (SRC / "relgat" / "__init__.py").is_file():
        return _fail(f"no relgat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relgat

    if Path(relgat.__file__).resolve().parent != (SRC / "relgat").resolve():
        return _fail(f"imported relgat from {relgat.__file__}, not from {SRC}")

    import protocol
    import spans
    from workloads import PARALLELISM, WORKLOADS

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer(run_id) if args.trace else None
    reference = protocol.load_reference(BENCH_DIR / "reference.json")
    result = protocol.run(workload, args.seed, args.seconds, tracer, OUT_DIR, reference)
    ledger = result["ledger"]
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0

    notes = []
    if args.trace:
        declared = spec["per_layer"]
        values, notes = spans.layer_metrics(tracer, PARALLELISM)
        values["failed_ops_frac"] = failed_frac
        if "trace_overhead_frac" in result:
            values["trace.overhead_frac"] = result["trace_overhead_frac"]
        tracer.write(OUT_DIR / f"{run_id}.spans.json.gz")
        notes.append(
            "Tape.backward is timed as a whole: its per-op closures cannot be "
            "wrapped from outside; per-op spans need named tape ops"
        )
    else:
        declared = spec["end_to_end"]
        values = result["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values
    }
    missing = sorted(m["name"] for m in declared if m["name"] not in values)
    if missing:
        ledger.check("every_metric_measured", False, f"missing: {missing}")

    record = {
        "provenance": provenance(args, whys[args.workload]),
        "config": result["config"],
        "counts": result["counts"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ops_frac": failed_frac,
        "checks": ledger.checks,
        "errors": ledger.errors,
        "reference_got": result["reference_got"],
        "notes": notes,
        "metrics": metrics,
    }
    (OUT_DIR / f"{run_id}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("counts " + json.dumps(record["counts"], sort_keys=True))
    for name, check in ledger.checks.items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    for error in ledger.errors:
        print(f"error {error}")
    print(f"failed_ops_frac {failed_frac} = {ledger.failed}/{ledger.attempted} operations")
    for note in notes:
        print(f"note {note}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
