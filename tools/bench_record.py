"""Paired ``perfbench/run.py --trace 0`` runs on two trees, written to one JSON record.

Run from the repository root of the change tree, with the parent tree
unpacked elsewhere:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/bench_record.py --parent /tmp/parent --output BENCH.json

For each of the three workloads and each of ``SEEDS``, the benchmark
runs for ``SECONDS`` = 8 s, ``PAIRS`` = 10 times on each tree (ten pairs
are what a claimed gain is judged on), the trees alternating and the
first of each pair alternating too, so that drift of the machine
reaches both.  The record keeps every run's
summary line (the end-to-end metrics, ``correct`` and ``failed``), and
per metric and tree the median and the interquartile range of the runs,
and for each lower-is-better time metric the number of pairs in which
the change tree's value is the lower.  Provenance: the start and end
times, the run settings, each tree's git HEAD (None outside git),
whether its ``src/`` differs from that HEAD and a SHA-256 of its
``src/`` files, and the machine block of the benchmark's own
``result.json`` (core count, CPU, Python, numpy, scipy, BLAS and thread
settings).  BLAS is pinned to one thread, as the benchmark pins it.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the change tree
WORKLOADS = ("forward", "hadamard", "inverse")
SEEDS = (1, 4242)
PAIRS = 10
SECONDS = 8.0
TIMES = ("setup_s", "wall_cal", "item_p50_cal")  # lower is better; pairs won are counted


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree")
    parser.add_argument("--output", type=Path, required=True, help="the JSON record to write")
    return parser.parse_args(argv)


def tree_identity(tree: Path) -> dict:
    """Git HEAD, whether src/ differs from it, and a digest of the
    package sources of a tree."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode())
        digest.update(path.read_bytes())
    head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True)
    return {"git_head": head.stdout.strip() or None,
            "src_differs_from_head": bool(dirty.stdout.strip()) if head.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced benchmark run: its summary line and its machine block."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=tree, env=env, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    result = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0" / "result.json"
    machine = json.loads(result.read_text())["provenance"]
    return summary, {k: v for k, v in machine.items() if k not in ("git_commit", "samples")}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def compare(runs: dict) -> dict:
    """Per metric: median and IQR on each tree, and pairs won by the change."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        values = {tree: [r["metrics"][name]["value"] for r in runs[tree]] for tree in runs}
        entry = {tree: quartiles(v) for tree, v in values.items()}
        entry["unit"] = runs["parent"][0]["metrics"][name]["unit"]
        if name in TIMES:
            entry["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(values["parent"], values["change"]))
        out[name] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent, "change": ROOT}
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    results, machine = [], None
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                for name in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    summary, machine = run_once(trees[name], workload, seed)
                    runs[name].append(summary)
                    wall = summary["metrics"]["wall_cal"]["value"]
                    print(f"{workload} seed{seed} pair{k} {name} wall_cal={wall:.4g} "
                          f"failed={summary['failed']}", flush=True)
            results.append({"workload": workload, "seed": seed, "metrics": compare(runs),
                            "runs": runs})
    record = {
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seconds_per_run": SECONDS,
        "pairs": PAIRS,
        "trees": {name: tree_identity(tree) for name, tree in trees.items()},
        "machine": machine,
        "results": results,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
