"""End-to-end benchmark of lapscat.

Usage, from the root of a lapscat source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat of an operation runs in a fresh interpreter (`child.py`),
one at a time: a closed loop with one client, the way each CLI call
starts.  A run repeats whole rounds of the workload's operations, at
least MIN_ROUNDS of them, and starts no round that would end past
`--seconds`.  Per operation each figure is the lowest over its repeats,
which a slow spell on a shared machine moves less than their median;
`setup_s` and `run_s` add up over operations and `peak_rss_mb` is the
largest.  Outputs are checked here, after each repeat, outside the
timed interpreter.

With `--trace 1` every round runs each operation untraced and then
traced, and the run reports the per-layer figures of `spans.py` from
each operation's fastest traced repeat, with the tracing overhead.

The last line of standard output is the result object; the line before
it records the rounds, the BLAS thread count, the allocator setting,
every repeat, and `reference_s`: the median over the run's repeats of a
fixed computation timed in each child after its work (see `child.py`).
It is no metric; it shows whether the machine ran slow during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench"
BLAS_THREADS = 1      # fixed for every child, at most nproc
MIN_ROUNDS = 3
CHILD_TIMEOUT = 150.0
# the ceilings glibc's dynamic thresholds reach on 64-bit (mmap 32 MiB,
# trim twice that), set from the start
MALLOC_THRESHOLDS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}


class BenchError(Exception):
    pass


@dataclass
class Sample:
    setup_s: float
    run_s: float
    rss_mb: float
    status: str
    detail: str
    scores: dict = field(default_factory=dict)
    spans: list | None = None
    ready: float = 0.0
    artifact_mb: float = 0.0
    reference_s: float = 0.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("LAPSCAT_THREADS", None)
    # Fixed glibc thresholds: the dynamic mmap threshold otherwise makes
    # the peak resident set depend on allocation history (the length of
    # the checkout's path, the order of imports).
    env.update(MALLOC_THRESHOLDS)
    return env


def _tree_mb(path: str) -> float:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / 1e6


def run_once(op: workloads.Operation, traced: bool, root: str, env: dict) -> Sample:
    op_dir = os.path.dirname(op.spec["result"])
    out = os.path.join(op_dir, "out")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(op.spec["result"]):
        os.remove(op.spec["result"])
    spec_path = os.path.join(op_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(dict(op.spec, trace=traced), fh)

    with open(os.path.join(op_dir, "stdout.txt"), "w") as so, \
            open(os.path.join(op_dir, "stderr.txt"), "w") as se:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path], cwd=root, env=env, stdout=so, stderr=se
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{op.name}: no result within {CHILD_TIMEOUT} s") from None
    if code != 0 or not os.path.exists(op.spec["result"]):
        with open(os.path.join(op_dir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{op.name}: interpreter exited with {code}\n{tail}")
    with open(op.spec["result"]) as fh:
        res = json.load(fh)
    src = os.path.join(root, "src", "lapscat")
    if os.path.dirname(os.path.abspath(res["lapscat"])) != src:
        raise BenchError(f"{op.name}: imported lapscat from {res['lapscat']}, not {src}")

    status, detail, scores = op.check(res, out)
    return Sample(
        setup_s=res["ready"] - start,
        run_s=res["done"] - res["ready"],
        rss_mb=res["rss_mb"],
        status=status,
        detail=detail,
        scores=scores,
        spans=res.get("spans"),
        ready=res["ready"],
        artifact_mb=_tree_mb(out) if op.spec["kind"] == "cli" else 0.0,
        reference_s=res["reference_s"],
    )


def lowest(samples: list[Sample], key: str) -> float:
    return min(getattr(s, key) for s in samples)


def end_to_end(ops, plain) -> dict:
    return {
        "setup_s": sum(lowest(plain[op.name], "setup_s") for op in ops),
        "run_s": sum(lowest(plain[op.name], "run_s") for op in ops),
        "peak_rss_mb": max(lowest(plain[op.name], "rss_mb") for op in ops),
    }


def per_layer(ops, plain, traced) -> dict:
    best = {op.name: min(traced[op.name], key=lambda s: s.run_s) for op in ops}
    values = spans.layer_values([(best[op.name].spans, best[op.name].ready) for op in ops])
    traced_run = sum(s.run_s for s in best.values())
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - end_to_end(ops, plain)["run_s"]
    values["trace.top_level_share"] = values.pop("trace.top_level_s") / traced_run
    values["cli.artifact_mb"] = sum(s.artifact_mb for s in best.values())
    for name in ("reconstruction.jaccard_fixed", "reconstruction.jaccard_otsu",
                 "reconstruction.arc_separation_ratio"):
        values[name] = 0.0
    for s in best.values():
        values.update(s.scores)
    return values


def report(values: dict, declared: list[dict]) -> dict:
    missing = {m["name"] for m in declared} - set(values)
    extra = set(values) - {m["name"] for m in declared}
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True,
                        help="non-negative; becomes the scenarios' seed field")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "lapscat", "__init__.py")):
            raise BenchError("no lapscat source tree at ./src/lapscat; "
                             "run from the root of the repository")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        work = os.path.join(root, WORK_DIR, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        ops = workloads.build(args.workload, args.seed, work)
        env = child_env(root)

        plain = {op.name: [] for op in ops}
        traced = {op.name: [] for op in ops}
        min_rounds = 1 if args.trace else MIN_ROUNDS
        start = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            for op in ops:
                plain[op.name].append(run_once(op, False, root, env))
                if args.trace:
                    traced[op.name].append(run_once(op, True, root, env))
            rounds += 1
            now = time.monotonic()
            if rounds >= min_rounds and now - start + (now - round_start) > args.seconds:
                break

        every = [(op, s) for op in ops for s in plain[op.name] + traced[op.name]]
        failed = sum(1 for _op, s in every if s.status != workloads.PASS)
        # an operation with a named fault may fail in that way only
        correct = all(s.status == workloads.PASS
                      or (s.status == workloads.FAULT and op.fault is not None)
                      for op, s in every)
        if args.trace:
            metrics = report(per_layer(ops, plain, traced), declared["per_layer"])
        else:
            metrics = report(end_to_end(ops, plain), declared["end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "malloc": MALLOC_THRESHOLDS, "rounds": rounds,
        "reference_s": statistics.median(s.reference_s for _op, s in every),
        "operations": {
            op.name: {
                "fault": op.fault,
                "setup_s": [s.setup_s for s in plain[op.name]],
                "run_s": [s.run_s for s in plain[op.name]],
                "rss_mb": [s.rss_mb for s in plain[op.name]],
                "traced_run_s": [s.run_s for s in traced[op.name]],
                "failed": sum(1 for s in plain[op.name] + traced[op.name]
                              if s.status != workloads.PASS),
                "status": sorted({s.status for s in plain[op.name] + traced[op.name]}),
                "detail": (plain[op.name] + traced[op.name])[-1].detail,
            }
            for op in ops
        },
    }))
    print(json.dumps({
        "correct": correct, "attempted": len(every), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
