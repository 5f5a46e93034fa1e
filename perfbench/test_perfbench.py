"""Tests of the benchmark itself: metric names, self time, span install and
removal, and a reduced-size run of each workload.

Run with ``python3 -m pytest perfbench``.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_file_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m["name"]
        assert m["better"] in ("higher", "lower")
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    clock = itertools.chain([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0], itertools.count(11.0))
    rec = spans.Recorder(clock=lambda: next(clock))
    root = rec.open("root")
    a = rec.open("a")
    g = rec.open("g")
    rec.close(g)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    assert [s.parent for s in rec.spans] == [-1, root, a, root]
    assert spans.self_times(rec.spans) == [3.0, 2.0, 1.0, 4.0]
    assert spans.has_ancestor(rec.spans, g, "root")
    assert not spans.has_ancestor(rec.spans, b, "a")
    with pytest.raises(RuntimeError):
        rec.open("c")
        rec.close(root)


def _package_attributes():
    return {(m.__name__, attr): value for m in spans._package_modules()
            for attr, value in vars(m).items()}


def test_traced_pass_restores_every_wrapped_name():
    from torsion_minkowski import cli, mesh, minkowski_solver, torsion_fem

    before = _package_attributes()
    triangulate = mesh.triangulate
    rec = spans.Recorder()
    with spans.installed(rec):
        assert minkowski_solver.triangulate is mesh.triangulate is not triangulate
        assert "torsion_minkowski.torsion_fem.assemble" in spans.installed_wrappers()
        assert "torsion_minkowski.cli.solve_minkowski" in spans.installed_wrappers()
        body = workloads.tm.regular_polygon(6)
        torsion_fem.solve_on_polygon(body, 0.2)
    assert [s.name for s in rec.spans] == [
        "mesh.triangulate", "support_geometry.metrics", spans.PROBE,
        "torsion_fem.solve_torsion", "torsion_fem.assemble"]
    assert spans.installed_wrappers() == []
    assert minkowski_solver.triangulate is mesh.triangulate is triangulate
    assert cli.solve_minkowski is minkowski_solver.solve_minkowski
    after = _package_attributes()
    assert all(after[key] is value for key, value in before.items())


class _WrapperSpy:
    """Workload whose one item reports the span wrappers installed while it runs."""

    items = [{"id": "spy"}]

    def run(self, item):
        return spans.installed_wrappers()

    def check(self, item, installed):
        return [f"wrapper {name}" for name in installed], {}


def test_untraced_pass_installs_no_span():
    walls, records = run.timed_passes(_WrapperSpy(), seconds=0.0)
    assert len(walls) == 1
    assert records[0]["errors"] == []
    # --trace 1 runs each item untraced, then traced
    walls, (untraced, traced) = run.timed_passes(
        run.Paired(_WrapperSpy(), spans.Recorder()), seconds=0.0)
    assert untraced["errors"] == []
    assert "wrapper torsion_minkowski.minkowski_solver.triangulate" in traced["errors"]
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("workload", ["forward", "inverse", "hadamard"])
def test_smoke_run(workload):
    """One reduced pass untraced and one traced, through the command line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    result = json.loads((HERE / "out" / f"{workload}-seed7-trace1" / "result.json")
                        .read_text())
    assert set(result["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for kind in ("end_to_end", "per_layer"):
        for name, metric in result[kind].items():
            assert metric["unit"] == units[name], name
    assert result["provenance"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
