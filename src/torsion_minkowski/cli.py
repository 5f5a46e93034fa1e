"""Command-line entry point.

Subcommands
-----------
torsion   read a polygon, solve the torsion problem, report both rigidity
          estimators and shape diagnostics
measure   read a polygon, write its torsion measure
solve     read a target-measure spec, run the inverse solver, write the
          solve report (and optionally a CSV convergence log)
verify    run the seeded verification corpus and write the summary
hadamard  finite-difference check of the derivative formula for two bodies

Each subcommand takes only the flags it reads (``SUBCOMMAND_FLAGS``).
Mesh resolutions on the command line are relative to each body's
circumradius.  Exit status: 0 success, 1 validation or usage error,
2 numerical failure, 3 non-convergence (partial report still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import boundary_measure as bm
from .errors import (
    InvariantViolation,
    NoConvergence,
    ParseError,
    TorsionMinkowskiError,
)
from .minkowski_solver import (
    SolveOptions,
    SolveReport,
    TargetMeasure,
    project_balance,
    solve_minkowski,
)
from .support_geometry import Polygon, angles_to_normals, metrics, support_spec_of
from .torsion_fem import solve_on_polygon
from .verify_suite import run_verify_corpus

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_NO_CONVERGENCE = 3

LOG_COLUMNS = ("iter", "J", "residual", "tau", "inradius", "circumradius", "step")

# Defaults live in RunConfig.
FLAGS = {
    "--input": {"dest": "input_path", "metavar": "FILE", "required": True,
                "help": "input JSON file"},
    "--output": {"dest": "output_path", "metavar": "FILE",
                 "help": "output JSON file (stdout if absent)"},
    "--mesh-h": {"type": float, "help": "mesh spacing relative to the circumradius"},
    "--tol": {"type": float, "help": "l1 measure residual to stop at"},
    "--max-iters": {"type": int, "help": "descent iteration cap"},
    "--seed": {"type": int, "help": "corpus seed"},
    "--log": {"dest": "log_path", "metavar": "FILE", "help": "CSV log file"},
}
SUBCOMMAND_FLAGS = {
    "torsion": ("--input", "--output", "--mesh-h"),
    "measure": ("--input", "--output", "--mesh-h"),
    "solve": ("--input", "--output", "--mesh-h", "--tol", "--max-iters", "--log"),
    "verify": ("--output", "--mesh-h", "--seed", "--log"),
    "hadamard": ("--input", "--output", "--mesh-h"),
}


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    output_path: str | None = None
    mesh_h: float = 0.02
    tol: float = 1e-2
    max_iters: int = 120
    seed: int = 42
    log_path: str | None = None

    def __post_init__(self):
        if self.subcommand not in SUBCOMMAND_FLAGS:
            raise InvariantViolation(f"unknown subcommand {self.subcommand!r}")
        if self.subcommand != "verify" and not self.input_path:
            raise InvariantViolation(f"subcommand {self.subcommand!r} needs --input")
        if not (self.mesh_h > 0 and self.tol > 0 and self.max_iters > 0):  # NaN fails too
            raise InvariantViolation("numeric options must be positive")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return data


def _as_float_array(values, path: str, field_name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field '{field_name}' must be numeric") from exc


def _parse_polygon(vertices, path: str, field_name: str) -> Polygon:
    return Polygon.from_vertices(_as_float_array(vertices, path, field_name))


def parse_spec(path: str):
    """Read a problem spec: a polygon or a target measure.

    Polygon files carry a ``vertices`` field; target files carry
    ``weights`` plus either ``normals`` or ``angles_deg``.  All module
    invariants are enforced here, so downstream code sees typed,
    validated objects.
    """
    data = _load_json(path)
    if "vertices" in data:
        return _parse_polygon(data["vertices"], path, "vertices")
    if "weights" not in data:
        raise ParseError(f"{path}: expected a 'vertices' or 'weights' field")
    weights = _as_float_array(data["weights"], path, "weights")
    if weights.ndim != 1 or np.any(weights <= 0):
        raise InvariantViolation("weights must be a flat list of values > 0")
    if "normals" in data:
        normals = _as_float_array(data["normals"], path, "normals")
    elif "angles_deg" in data:
        angles = _as_float_array(data["angles_deg"], path, "angles_deg")
        normals = angles_to_normals(np.deg2rad(angles))
    else:
        raise ParseError(f"{path}: target needs 'normals' or 'angles_deg'")
    if normals.ndim != 2 or normals.shape[0] != len(weights):
        raise ParseError(f"{path}: normals and weights must have matching length")
    return project_balance(weights, normals)


def _spec_options(path: str) -> dict:
    opts = _load_json(path).get("options", {})
    if not isinstance(opts, dict):
        raise ParseError(f"{path}: 'options' must be an object")
    return opts


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_log(report: SolveReport, path: str) -> None:
    rows = [",".join(LOG_COLUMNS)]
    for rec in report.diagnostics.get("iterations_log", []):
        rows.append(",".join(
            str(rec["iter"]) if col == "iter" else f"{rec[col]:.12g}"
            for col in LOG_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _solve_input_polygon(config: RunConfig):
    """Parse the input polygon and solve its torsion problem at the
    configured relative spacing; returns (metrics, field)."""
    body = parse_spec(config.input_path)
    if not isinstance(body, Polygon):
        raise InvariantViolation(f"'{config.subcommand}' expects a polygon input")
    m = metrics(body)
    return m, solve_on_polygon(body, config.mesh_h * m.circumradius)


def _cmd_torsion(config: RunConfig) -> int:
    m, field = _solve_input_polygon(config)
    mesh = field.mesh
    _write_json({
        "tau_energy": field.tau_energy,
        "tau_mass": field.tau_mass,
        "estimator_gap": field.estimator_gap,
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "diagnostics": {
            "area": m.area,
            "inradius": m.inradius,
            "circumradius": m.circumradius,
            "diameter": m.diameter,
            "centroid": m.centroid.tolist(),
        },
    }, config.output_path)
    return EXIT_OK


def _cmd_measure(config: RunConfig) -> int:
    _, field = _solve_input_polygon(config)
    mu = bm.facet_measure(field)
    payload = mu.to_dict()
    payload["total_mass"] = mu.total_mass
    payload["closure_defect"] = mu.closure_defect
    _write_json(payload, config.output_path)
    return EXIT_OK


def _cmd_solve(config: RunConfig) -> int:
    target = parse_spec(config.input_path)
    if not isinstance(target, TargetMeasure):
        raise InvariantViolation("'solve' expects a target-measure input")
    file_opts = _spec_options(config.input_path)
    try:
        opts = SolveOptions(
            mesh_h=float(file_opts.get("mesh_h", config.mesh_h)),
            tol=float(file_opts.get("tol", config.tol)),
            max_iters=int(file_opts.get("max_iters", config.max_iters)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{config.input_path}: malformed 'options': {exc}") from exc
    try:
        report = solve_minkowski(target, opts)
    except NoConvergence as exc:
        if exc.report is not None:
            _write_json(exc.report.to_dict(), config.output_path)
            if config.log_path:
                _write_log(exc.report, config.log_path)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _write_json(report.to_dict(), config.output_path)
    if config.log_path:
        _write_log(report, config.log_path)
    if not report.converged:
        print(f"warning: solve did not converge (residual "
              f"{report.residual_history[-1]:.3g})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    reports = run_verify_corpus(seed=config.seed, mesh_h=config.mesh_h)
    payload = {"checks": [r.to_dict() for r in reports],
               "pass": all(r.ok for r in reports)}
    _write_json(payload, config.output_path)
    if config.log_path:
        rows = ["name,trials,failures,worst_margin"]
        rows += [r.csv_row() for r in reports]
        with open(config.log_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return EXIT_OK if payload["pass"] else EXIT_NUMERICAL


def _cmd_hadamard(config: RunConfig) -> int:
    data = _load_json(config.input_path)
    bodies = {}
    for key in ("body", "body_prime"):
        if key not in data:
            raise ParseError(f"{config.input_path}: missing '{key}'")
        obj = data[key]
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise ParseError(f"{config.input_path}: '{key}' must be a polygon object")
        bodies[key] = _parse_polygon(obj["vertices"], config.input_path, f"{key}.vertices")
    body, body_prime = bodies["body"], bodies["body_prime"]
    s_values = _as_float_array(data.get("s_values", [0.02, 0.01, 0.005]),
                               config.input_path, "s_values")
    mesh_h = config.mesh_h * metrics(body).circumradius
    rep = bm.hadamard_fd_check(support_spec_of(body), support_spec_of(body_prime),
                               s_values, mesh_h=mesh_h)
    _write_json({
        "s_values": rep.s_values.tolist(),
        "fd_quotients": rep.fd_quotients.tolist(),
        "predicted_slope": rep.predicted_slope,
        "mismatches": rep.mismatches.tolist(),
        "extrapolated_quotient": rep.extrapolated_quotient,
        "extrapolated_mismatch": rep.extrapolated_mismatch,
        "monotone_tail": rep.monotone_tail,
    }, config.output_path)
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Dispatch one subcommand and map errors onto exit statuses."""
    handlers = {
        "torsion": _cmd_torsion,
        "measure": _cmd_measure,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "hadamard": _cmd_hadamard,
    }
    try:
        return handlers[config.subcommand](config)
    except (ParseError, InvariantViolation) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TorsionMinkowskiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torsion-minkowski",
        description="Planar Minkowski problem for torsional rigidity.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in SUBCOMMAND_FLAGS.items():
        # flags left off the command line stay out of the namespace
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        config = RunConfig(**vars(ns))
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
