import json
import re

import numpy as np
import pytest

from torsion_minkowski import (
    Polygon,
    TargetMeasure,
    metrics,
    polygon_to_dict,
    solve_on_polygon,
    translate,
    triangulate,
)
from torsion_minkowski import torsion_fem
from torsion_minkowski.cli import main, parse_spec
from torsion_minkowski.errors import InvariantViolation
from torsion_minkowski.verify_suite import polygon_corpus
from conftest import SQUARE_COEFF


@pytest.fixture()
def unit_square_file(tmp_path):
    path = tmp_path / "unit_square.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


@pytest.fixture()
def square_target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "angles_deg": [0, 90, 180, 270],
        "weights": [0.28113] * 4,
        "options": {"mesh_h": 0.03, "tol": 0.01},
    }))
    return str(path)


# ----------------------------------------------------------- parse_spec


def test_parse_polygon(unit_square_file):
    body = parse_spec(unit_square_file)
    assert isinstance(body, Polygon)
    assert body.area == pytest.approx(1.0)


def test_parse_target_angles(square_target_file):
    target = parse_spec(square_target_file)
    assert isinstance(target, TargetMeasure)
    assert len(target) == 4
    assert np.allclose(target.weights, 0.28113, atol=1e-9)


def test_parse_rejects_non_spanning(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"angles_deg": [0, 90], "weights": [1, 1]}))
    with pytest.raises(InvariantViolation):
        parse_spec(str(path))


def test_parse_rejects_zero_weight(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270],
                                "weights": [1, 0, 1, 1]}))
    with pytest.raises(InvariantViolation):
        parse_spec(str(path))


def test_parse_rejects_malformed_payloads(tmp_path, capsys):
    cases = [
        ("arr.json", json.dumps([1, 2, 3])),
        ("text_weights.json", json.dumps({"angles_deg": [0, 90, 180, 270],
                                          "weights": ["a", "b", "c", "d"]})),
        ("text_verts.json", json.dumps({"vertices": "abc"})),
        ("no_verts.json", json.dumps({"vertices": []})),
        ("flat_verts.json", json.dumps({"vertices": [1, 2, 3]})),
        ("broken.json", "{not json"),
        ("no_kind.json", json.dumps({"area": 1.0})),
        ("no_normals.json", json.dumps({"weights": [1, 1, 1, 1]})),
    ]
    for name, text in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(["torsion", "--input", str(path)]) == 1, name
    capsys.readouterr()
    path = tmp_path / "list_options.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270], "weights": [0.28113] * 4,
                                "options": [0.03]}))
    assert main(["solve", "--input", str(path)]) == 1
    assert "'options' must be an object" in capsys.readouterr().err


def test_hadamard_rejects_bad_bodies(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"body": {"vertices": [[0, 0], [1, 0], [0, 1]]}}))
    assert main(["hadamard", "--input", str(path)]) == 1
    path.write_text(json.dumps({"body": "nope", "body_prime": "nope"}))
    assert main(["hadamard", "--input", str(path)]) == 1
    capsys.readouterr()


def test_parse_round_trip(tmp_path, square_target_file):
    target = parse_spec(square_target_file)
    again_path = tmp_path / "again.json"
    again_path.write_text(json.dumps({
        "normals": target.normals.tolist(),
        "weights": target.weights.tolist(),
    }))
    again = parse_spec(str(again_path))
    assert np.allclose(again.normals, target.normals, atol=1e-12)
    assert np.allclose(again.weights, target.weights, atol=1e-12)


# ------------------------------------------------------------- commands


def _assert_multigrid_diagnostics(diag, path, mesh_h):
    # the reported levels and operator complexity are those of a direct solve
    body = parse_spec(path)
    field = solve_on_polygon(body, mesh_h * metrics(body).circumradius)
    assert diag["levels"] == field.levels >= 1
    assert diag["operator_complexity"] == field.operator_complexity
    assert 1.0 < diag["operator_complexity"] <= 1.4


def test_torsion_command(unit_square_file, tmp_path, capsys):
    out = tmp_path / "tau.json"
    code = main(["torsion", "--input", unit_square_file,
                 "--mesh-h", "0.03", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["tau_energy"] - SQUARE_COEFF) / SQUARE_COEFF < 0.005
    diag = payload["diagnostics"]
    assert 0 < diag["min_angle_deg"] <= 60 <= diag["max_angle_deg"] < 180
    assert 0 < diag["cg_iterations"] <= 25
    _assert_multigrid_diagnostics(diag, unit_square_file, 0.03)


def test_torsion_command_on_a_far_translated_body(tmp_path):
    p = polygon_corpus(42, 5)[4]
    far = translate(p, 1e3 * metrics(p).circumradius * np.array([0.6, 0.8]))
    path = tmp_path / "far.json"
    path.write_text(json.dumps(polygon_to_dict(far)))
    out = tmp_path / "tau.json"
    assert main(["torsion", "--input", str(path), "--mesh-h", "0.02",
                 "--output", str(out)]) == 0
    tau = solve_on_polygon(p, 0.02 * metrics(p).circumradius).tau_energy
    assert json.loads(out.read_text())["tau_energy"] == pytest.approx(tau, rel=1e-10)


def test_maximum_principle_violation_exit_code(unit_square_file, sink_load, capsys):
    assert main(["torsion", "--input", unit_square_file, "--mesh-h", "0.05"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MaximumPrincipleViolation: "), lines


def test_singular_system_exit_code(unit_square_file, singular_interior, capsys):
    # h = 0.099: the interior system is the coarsest level
    body = parse_spec(unit_square_file)
    mesh = triangulate(body, 0.14 * metrics(body).circumradius)
    assert (~mesh.is_boundary).sum() <= torsion_fem.COARSE_SIZE
    assert main(["torsion", "--input", unit_square_file, "--mesh-h", "0.14"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: LinearSolveFailure: "), lines


def test_measure_command(unit_square_file, tmp_path):
    out = tmp_path / "mu.json"
    code = main(["measure", "--input", unit_square_file,
                 "--mesh-h", "0.03", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    weights = np.asarray(payload["weights"])
    assert np.abs(weights - 2 * SQUARE_COEFF).max() < 0.02 * 2 * SQUARE_COEFF
    assert payload["closure_defect"] < 1e-3
    assert payload["nodes"] > 0
    diag = payload["diagnostics"]
    assert 0 < diag["min_angle_deg"] <= 60 <= diag["max_angle_deg"] < 180
    assert 0 < diag["cg_iterations"] <= 25
    _assert_multigrid_diagnostics(diag, unit_square_file, 0.03)


def test_solve_command_recovers_unit_square(square_target_file, tmp_path):
    out = tmp_path / "report.json"
    log = tmp_path / "log.csv"
    code = main(["solve", "--input", square_target_file,
                 "--output", str(out), "--log", str(log)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]
    h = np.asarray(payload["support_numbers"])
    assert np.abs(h - 0.5).max() < 0.01
    header = log.read_text().splitlines()[0]
    assert header == "iter,J,residual,tau,inradius,circumradius,step"


def test_solve_unbalanced_exit_code(tmp_path, capsys):
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270],
                                "weights": [1.0, 1.0, 2.0, 1.0]}))
    code = main(["solve", "--input", str(path)])
    assert code == 1
    assert "UnbalanceableMeasure" in capsys.readouterr().err


def test_non_finite_input_exit_code(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")
    cases = [
        ("solve", {"angles_deg": [0, 90, 180, 270],
                   "weights": [0.28113, nan, 0.28113, 0.28113]}),
        ("solve", {"angles_deg": [0, 90, 180, 270],
                   "weights": [0.28113, inf, 0.28113, 0.28113]}),
        ("solve", {"angles_deg": [0, nan, 180, 270], "weights": [0.28113] * 4}),
        ("solve", {"angles_deg": [0, 90, inf, 270], "weights": [0.28113] * 4}),
        ("torsion", {"vertices": [[0, 0], [1, 0], [1, nan], [0, 1]]}),
    ]
    for k, (command, payload) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(payload))  # writes NaN / Infinity literals
        assert main([command, "--input", str(path)]) == 1, payload
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_bad_weights_share_one_error_type(tmp_path, capsys):
    w = 0.28113
    cases = {
        "zero": [w, 0.0, w, w],
        "negative": [w, -w, w, w],
        "nan": [w, float("nan"), w, w],
        "column": [[w]] * 4,
    }
    kinds = set()
    for name, weights in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270], "weights": weights}))
        assert main(["solve", "--input", str(path)]) == 1, name
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (name, lines)
        kinds.add(lines[0].split(":")[1].strip())
    assert kinds == {"UnbalanceableMeasure"}


def test_missing_input_file_exit_code(capsys):
    code = main(["torsion", "--input", "/nonexistent/file.json"])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err


def test_solve_non_convergence_exit_code(tmp_path, capsys):
    # a rectangle target (balanced, asymmetric) cannot converge in one step
    path = tmp_path / "hard.json"
    path.write_text(json.dumps({
        "angles_deg": [0, 90, 180, 270],
        "weights": [0.5, 0.2, 0.5, 0.2],
        "options": {"max_iters": 1, "mesh_h": 0.04},
    }))
    out = tmp_path / "partial.json"
    code = main(["solve", "--input", str(path), "--output", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["converged"] is False
    assert payload["iterations"] <= 1
    assert payload["diagnostics"]["stop_reason"] == "iteration_cap"
    assert "iteration_cap" in capsys.readouterr().err


def test_solve_stall_warns_and_writes_the_report_to_stdout(tmp_path, capsys):
    # a 1e-4 residual lies below this rectangle's discretization floor
    path = tmp_path / "rectangle.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270],
                                "weights": [0.2, 0.6, 0.2, 0.6]}))
    assert main(["solve", "--input", str(path), "--tol", "1e-4"]) == 3
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["diagnostics"]["stop_reason"] == "line_search_stall"
    assert err.startswith("warning: solve did not converge: line_search_stall"), err


def test_solve_log_determinism(square_target_file, tmp_path):
    logs = []
    for k in range(2):
        log = tmp_path / f"log{k}.csv"
        code = main(["solve", "--input", square_target_file,
                     "--output", str(tmp_path / f"r{k}.json"),
                     "--log", str(log)])
        assert code == 0
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_hadamard_command(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "body": {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
        "body_prime": {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
        "s_values": [0.01],
    }))
    out = tmp_path / "had.json"
    code = main(["hadamard", "--input", str(path),
                 "--mesh-h", "0.04", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mismatches"][0] < 0.03
    # one refined solve per body: the body, then the sum at s = 0.01
    iterations = payload["cg_iterations"]
    assert len(iterations) == 2
    assert all(isinstance(k, int) and 1 <= k <= 25 for k in iterations)


def test_verify_command_smoke(tmp_path):
    out = tmp_path / "checks.json"
    log = tmp_path / "summary.csv"
    code = main(["verify", "--mesh-h", "0.06", "--seed", "7",
                 "--output", str(out), "--log", str(log)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"]
    assert {c["name"] for c in payload["checks"]} == {
        "brunn_minkowski", "continuity", "homogeneity"}
    lines = log.read_text().splitlines()
    assert lines[0] == "name,trials,failures,worst_margin"
    assert len(lines) == 4


def test_usage_errors_exit_1(unit_square_file, capsys):
    # exit 2 means numerical failure, so argparse's own usage status is remapped
    for argv in (["torsion", "--input", unit_square_file, "--tol", "0.1"],
                 ["torsion", "--input", unit_square_file, "--bogus"],
                 ["torsion", "--input", unit_square_file, "--mesh-h", "abc"],
                 ["torsion", "--input", unit_square_file, "--mesh-h", "nan"],
                 ["solve"]):
        assert main(argv) == 1, argv
    capsys.readouterr()


def test_each_subcommand_lists_only_its_flags(capsys):
    expected = {
        "torsion": {"--input", "--output", "--mesh-h"},
        "measure": {"--input", "--output", "--mesh-h"},
        "solve": {"--input", "--output", "--mesh-h", "--tol", "--max-iters", "--log"},
        "verify": {"--output", "--mesh-h", "--seed", "--log"},
        "hadamard": {"--input", "--output", "--mesh-h"},
    }
    for name, flags in expected.items():
        assert main([name, "--help"]) == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == flags, name


def test_run_config_validation(capsys):
    assert main(["torsion"]) == 1  # no input path
    assert main(["bogus", "--input", "x"]) == 1
    assert main(["verify", "--mesh-h", "-0.1"]) == 1
    capsys.readouterr()


def test_wrong_input_kind(unit_square_file, square_target_file, capsys):
    assert main(["solve", "--input", unit_square_file]) == 1
    assert main(["torsion", "--input", square_target_file]) == 1
    capsys.readouterr()


def _one_error_line(err: str) -> bool:
    # argparse prints usage lines above its one "prog: error: ..." line
    return sum("error:" in line for line in err.splitlines()) == 1 and "Traceback" not in err


@pytest.fixture()
def input_files(tmp_path, unit_square_file):
    target = tmp_path / "plain_target.json"
    target.write_text(json.dumps({"angles_deg": [0, 90, 180, 270], "weights": [0.28113] * 4}))
    pair = tmp_path / "pair.json"
    square = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    pair.write_text(json.dumps({"body": square, "body_prime": square, "s_values": [0.01]}))
    return {"torsion": unit_square_file, "measure": unit_square_file,
            "solve": str(target), "hadamard": str(pair)}


NUMERIC_FLAG_CASES = [
    (command, flag, value)
    for command, flag in [("torsion", "--mesh-h"), ("measure", "--mesh-h"),
                          ("hadamard", "--mesh-h"), ("verify", "--mesh-h"),
                          ("solve", "--mesh-h"), ("solve", "--tol"), ("solve", "--max-iters")]
    for value in ("0", "-1", "nan", "inf")
] + [("verify", "--seed", "-1"), ("verify", "--seed", "nan"),  # seed 0 is a valid corpus seed
     ("torsion", "--mesh-h", "1e-300"),  # MeshTooFine before any boundary sample is built
     ("torsion", "--mesh-h", "1e-310"),  # the sample count overflows
     ("torsion", "--mesh-h", "1e-323")]  # the spacing underflows to 0


@pytest.mark.parametrize("command,flag,value", NUMERIC_FLAG_CASES)
def test_bad_numeric_flag_exits_1(command, flag, value, input_files, capsys):
    argv = [command, flag, value]
    if command in input_files:
        argv += ["--input", input_files[command]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err), err


@pytest.mark.parametrize("command", ["torsion", "measure", "hadamard"])
@pytest.mark.parametrize("size,code", [
    (1e100, 2),  # the norm of the load vector overflows: LinearSolveFailure
    (1e120, 1),  # the centroid overflows
    (1e200, 1),  # the area overflows
])
def test_huge_polygon_exits_with_one_error_line(command, size, code, tmp_path, capsys):
    square = {"vertices": [[0, 0], [size, 0], [size, size], [0, size]]}
    payload = ({"body": square, "body_prime": square, "s_values": [0.01]}
               if command == "hadamard" else square)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--input", str(path)]) == code
    err = capsys.readouterr().err
    assert _one_error_line(err), err


def _huge_square_target(tmp_path, weight):
    path = tmp_path / "huge_target.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270], "weights": [weight] * 4}))
    return str(path)


def test_solve_converges_on_weights_whose_squares_overflow(tmp_path, capsys):
    # the balance test and the closure defect take the moment's norm by hypot
    weight = 1e200
    assert main(["solve", "--input", _huge_square_target(tmp_path, weight)]) == 0
    out, err = capsys.readouterr()
    h = np.asarray(json.loads(out)["support_numbers"])
    # the answer scales as the cube root of the weights: the unit square's are 0.28113
    assert np.abs(h / (0.5 * (weight / 0.28113) ** (1.0 / 3.0)) - 1.0).max() < 0.01
    assert err == ""


def test_solve_rejects_weights_whose_solution_overflows(tmp_path, capsys):
    assert main(["solve", "--input", _huge_square_target(tmp_path, 1e300)]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "InvariantViolation" in err, err


@pytest.mark.parametrize("options,needle", [
    ({"max_iter": 1}, "max_iter"),
    ({"tol": "abc"}, "options"),
    ({"mesh_h": [0.03]}, "options"),
    ({"max_iters": 2.7}, "options"),
    ({"max_iters": True}, "options"),
    ({"tol": True}, "options"),
])
def test_bad_target_file_options_exit_1(options, needle, tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"angles_deg": [0, 90, 180, 270], "weights": [0.28113] * 4,
                                "options": options}))
    assert main(["solve", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "ParseError" in err and needle in err, err
