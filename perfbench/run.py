"""Benchmark of torsion_minkowski on its forward, inverse and hadamard workloads.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

``--trace 0`` is the untraced pass and prints the end-to-end metrics;
``--trace 1`` runs every item untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; every
failed item is printed before it, with its item id.  The full result, with
provenance and per-item records, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>/result.json``.
See perfbench/README.md for the workloads and metrics.
"""

import os

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)  # before numpy loads; not when imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import torsion_minkowski  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3  # untraced passes, so that each item's median has three samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'smoke' is the reduced item set of the benchmark's tests")
    parser.add_argument("--emit-inputs", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, workdir: Path):
    """Generate the inputs in SETUP_REPEATS fresh processes; time each one."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--size", args.size, "--emit-inputs", str(workdir / "inputs.json")],
                       check=True, stdout=subprocess.DEVNULL)
        seconds.append(time.perf_counter() - start)
    return seconds, json.loads((workdir / "inputs.json").read_text())


def run_item(workload, item) -> dict:
    """Time one item; a raised error or a failed check makes it a failure."""
    start = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception as exc:  # every item failure is counted, not fatal
        return {"id": item["id"], "seconds": time.perf_counter() - start,
                "errors": [f"{type(exc).__name__}: {exc}"], "values": {}}
    seconds = time.perf_counter() - start
    try:
        errors, values = workload.check(item, result)
    except Exception as exc:
        errors, values = [f"check raised {type(exc).__name__}: {exc}"], {}
    return {"id": item["id"], "seconds": seconds, "errors": errors, "values": values}


class Calibration:
    """Fixed work close to the program's own: a qhull Delaunay triangulation
    of 20,000 points, sparse CG on a 150 x 150 grid Laplacian and a loop of
    Python arithmetic.

    The program cannot change this work, so its time follows only the speed
    of the machine.  On a shared 2-core host that speed changes by 30% or
    more within seconds, for minutes at a time, in user CPU time as much
    as in wall time.  Each item is therefore measured against the mean of
    the kernel times just before and just after it.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        self.points = np.random.default_rng(0).random((20_000, 2))
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(150, 150))
        self.matrix = (sp.kron(line, sp.eye(150)) + sp.kron(sp.eye(150), line)).tocsr()
        self.samples: list[float] = []

    def measure(self) -> None:
        import numpy as np
        from scipy.sparse.linalg import cg
        from scipy.spatial import Delaunay

        start = time.perf_counter()
        Delaunay(self.points)
        cg(self.matrix, np.ones(self.matrix.shape[0]), rtol=1e-14, maxiter=150)
        acc = 0
        for i in range(300_000):
            acc += i * i
        self.samples.append(time.perf_counter() - start)


def timed_passes(workload, seconds: float, min_passes: int = 1,
                 cal: Calibration | None = None):
    """Whole passes over the items: at least ``min_passes``, then more until
    the next one would end after ``seconds``.  ``cal`` is measured before
    the first item and after every item; each record's ``cal_s`` is the
    mean of the two kernel times around it.

    Returns each pass's wall time and the records of every item run.
    """
    walls, records = [], []
    start = time.perf_counter()
    if cal:
        cal.measure()
    while True:
        t0 = time.perf_counter()
        for item in workload.items:
            record = run_item(workload, item)
            if cal:
                cal.measure()
                record["cal_s"] = statistics.fmean(cal.samples[-2:])
            records.append(record)
        walls.append(time.perf_counter() - t0)
        if (len(walls) >= min_passes
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return walls, records


def calibrated(record) -> float:
    """An item's time in units of the calibration time around it."""
    return record["seconds"] / record["cal_s"]


class Paired:
    """Each item of ``workload`` twice in a row: untraced, then traced into
    ``rec``, so that both runs of an item meet the same machine speed."""

    def __init__(self, workload, rec: spans.Recorder):
        self.workload, self.rec = workload, rec
        self.items = [dict(item, traced=traced)
                      for item in workload.items for traced in (False, True)]

    def run(self, item):
        if not item["traced"]:
            return self.workload.run(item)
        with spans.installed(self.rec):
            return self.workload.run(item)

    def check(self, item, result):
        return self.workload.check(item, result)


def item_medians(records, value=lambda r: r["seconds"]) -> list[float]:
    """Median time of each item over the passes that ran it."""
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r["id"], []).append(value(r))
    return [statistics.median(t) for t in times.values()]


def end_to_end(name: str, setup_s, records, cal_samples):
    """End-to-end metrics, and the raw values reported beside them.

    A pass takes the sum of the items' median times, which a slow moment
    of the machine moves less than it moves any one pass.  The ``_cal``
    metrics take each item time over its record's ``cal_s`` first.
    """
    per_item = item_medians(records)
    per_item_cal = item_medians(records, calibrated)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_cal": (sum(per_item_cal), "cal"),
        "item_p50_cal": (statistics.median(per_item_cal), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"wall_s": (sum(per_item), "s"),
           "item_p50_s": (statistics.median(per_item), "s"),
           "calibration_s": (statistics.median(cal_samples), "s")}
    for value, (owner, margin, bar) in workloads.ACCURACY.items():
        measured = [r["values"][value] for r in records if value in r["values"]]
        if owner == name and measured:
            raw[value] = (max(measured), "ratio")
            metrics[margin] = (1.0 - max(measured) / bar, "ratio")
        else:
            metrics[margin] = (workloads.NOT_MEASURED, "ratio")
    return metrics, raw


def per_layer(rec: spans.Recorder, untraced, traced_passes: int, traced) -> dict:
    """Layer metrics of the traced runs, and the trace's own cost.

    ``trace.attributed_frac`` is the spans' self time over the traced item
    time, probes left out of both.  ``trace.overhead_frac`` compares the
    calibrated times of the traced and the untraced runs of the items.
    """
    metrics = spans.layer_metrics(rec.spans, traced_passes)
    own = spans.self_times(rec.spans)
    probe = sum(s.seconds for s in rec.spans if s.name == spans.PROBE)
    attributed = sum(t for s, t in zip(rec.spans, own) if s.name != spans.PROBE)
    traced_s = sum(r["seconds"] for r in traced)
    metrics["trace.attributed_frac"] = (attributed / (traced_s - probe), "ratio")
    metrics["trace.overhead_frac"] = (
        sum(item_medians(traced, calibrated))
        / sum(item_medians(untraced, calibrated)) - 1.0, "ratio")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy
    import scipy

    out = {}
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[module.__name__] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError, ValueError):
            out[module.__name__] = "unknown"
    return out


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(samples: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "git_commit": _git_commit(),
        "samples": samples,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(torsion_minkowski.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"torsion_minkowski imported from outside {SRC}")
    if args.emit_inputs:
        inputs = workloads.make_inputs(args.workload, args.seed,
                                       args.emit_inputs.parent, args.size)
        args.emit_inputs.write_text(json.dumps(inputs))
        return 0

    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for stale in workdir.glob("*"):
        stale.unlink()
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s, inputs = setup(args, workdir)
    workload = workloads.WORKLOADS[args.workload](inputs, workdir, args.seed)

    cal = Calibration()
    layers = {}
    if args.trace:
        # Layer metrics only; the untraced runs are there to measure the
        # trace's overhead against, and one pass does for that.
        rec = spans.Recorder()
        walls, records = timed_passes(Paired(workload, rec), args.seconds, cal=cal)
        untraced = records[0::2]
        layers = per_layer(rec, untraced, len(walls), records[1::2])
    else:
        walls, records = timed_passes(workload, args.seconds, MIN_PASSES, cal=cal)
        untraced = records
    samples = {"setup_s": len(setup_s), "passes": len(walls), "calibration": len(cal.samples)}
    metrics, raw = end_to_end(args.workload, setup_s, untraced, cal.samples)

    def table(named: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}

    failed = [r for r in records if r["errors"]]
    raw["fail_frac"] = (len(failed) / len(records), "ratio")
    for r in failed:
        for error in r["errors"]:
            print(f"FAIL {args.workload} {r['id']}: {error}")
    for name, (value, unit) in {**metrics, **raw, **layers}.items():
        print(f"{name} {value:.6g} {unit}")
    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "provenance": provenance(samples),
        "end_to_end": table(metrics), "reported": table(raw), "per_layer": table(layers),
        "items": records,
    }, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": table(layers if args.trace else metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
