"""Command-line entry point.

Subcommands
-----------
torsion   read a polygon, solve the torsion problem, report the rigidity
          and shape diagnostics
measure   read a polygon, write its torsion measure
solve     read a target-measure spec, run the inverse solver, write the
          solve report (and optionally a CSV convergence log)
verify    run the seeded verification corpus and write the summary
hadamard  finite-difference check of the derivative formula for two bodies

Each subcommand takes only the flags it reads (``SUBCOMMAND_FLAGS``)
and passes on only the flags given, so each setting's default and check
live in the library.  Mesh resolutions on the command line are relative
to each body's circumradius.  Exit status: 0 success, 1 validation or
usage error, 2 numerical failure, 3 non-convergence (partial report
still written).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import boundary_measure as bm
from .errors import (
    InvariantViolation,
    NoConvergence,
    ParseError,
    TorsionMinkowskiError,
)
from .mesh import REL_MESH_H, check_mesh
from .minkowski_solver import (
    SolveOptions,
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
SOLVE_OPTIONS = ("mesh_h", "tol", "max_iters")  # settable by a flag or the target file

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


def _parse_polygon(obj, path: str, field_name: str) -> Polygon:
    """The polygon object ``{"vertices": [[x, y], ...]}`` at field
    ``field_name`` of a file (``""`` for the whole file)."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError(f"{path}: '{field_name}' must be a polygon object")
    prefix = f"{field_name}." if field_name else ""
    return Polygon.from_vertices(_as_float_array(obj["vertices"], path, prefix + "vertices"))


def parse_spec(path: str):
    """Read a problem spec file: a polygon or a target measure."""
    return _spec_from(_load_json(path), path)


def _spec_from(data: dict, path: str):
    """Polygon files carry a ``vertices`` field; target files carry
    ``weights`` plus either ``normals`` or ``angles_deg``.  The module
    invariants are enforced by the constructors called here (the weights
    by ``project_balance``), so downstream code sees typed, validated
    objects.
    """
    if "vertices" in data:
        return _parse_polygon(data, path, "")
    if "weights" not in data:
        raise ParseError(f"{path}: expected a 'vertices' or 'weights' field")
    weights = _as_float_array(data["weights"], path, "weights")
    if "normals" in data:
        normals = _as_float_array(data["normals"], path, "normals")
    elif "angles_deg" in data:
        angles = _as_float_array(data["angles_deg"], path, "angles_deg")
        normals = angles_to_normals(np.deg2rad(angles))
    else:
        raise ParseError(f"{path}: target needs 'normals' or 'angles_deg'")
    return project_balance(weights, normals)


def _file_options(data: dict, path: str) -> dict:
    """A target file's ``options``, each read like its flag: the flag's
    type converts the value's text, so neither ``2.7`` nor ``true`` is an
    iteration cap."""
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError(f"{path}: 'options' must be an object")
    unknown = sorted(set(opts) - set(SOLVE_OPTIONS))
    if unknown:
        raise ParseError(f"{path}: unknown key(s) {', '.join(unknown)} in 'options' "
                         f"(accepted: {', '.join(SOLVE_OPTIONS)})")
    try:
        return {key: FLAGS["--" + key.replace("_", "-")]["type"](str(value))
                for key, value in opts.items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed 'options': {exc}") from exc


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(columns), *rows]) + "\n")


def _solve_input_polygon(args: dict):
    """Parse the input polygon and solve its torsion problem at the
    given relative spacing; returns (metrics, field)."""
    body = parse_spec(args["input_path"])
    if not isinstance(body, Polygon):
        raise InvariantViolation(f"'{args['subcommand']}' expects a polygon input")
    m = metrics(body)
    return m, solve_on_polygon(body, args.get("mesh_h", REL_MESH_H) * m.circumradius)


def _solve_diagnostics(field) -> dict:
    """What the torsion solve did: the mesh's angle extremes, the CG
    iteration count and error estimate, and the multigrid levels and
    operator complexity."""
    quality = check_mesh(field.mesh)
    return {"min_angle_deg": quality.min_angle_deg,
            "max_angle_deg": quality.max_angle_deg,
            "cg_iterations": field.cg_iterations,
            "cg_error_estimate": field.cg_error_estimate,
            "levels": field.levels,
            "operator_complexity": field.operator_complexity}


def _cmd_torsion(args: dict) -> int:
    m, field = _solve_input_polygon(args)
    mesh = field.mesh
    _write_json({
        "tau_energy": field.tau_energy,
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "diagnostics": {
            "area": mesh.polygon.area,
            "inradius": m.inradius,
            "circumradius": m.circumradius,
            "diameter": m.diameter,
            "centroid": mesh.polygon.centroid.tolist(),
            **_solve_diagnostics(field),
        },
    }, args.get("output_path"))
    return EXIT_OK


def _cmd_measure(args: dict) -> int:
    _, field = _solve_input_polygon(args)
    mu = bm.facet_measure(field)
    payload = mu.to_dict()
    payload["total_mass"] = mu.total_mass
    payload["closure_defect"] = mu.closure_defect
    payload["nodes"] = field.mesh.n_nodes
    payload["diagnostics"] = _solve_diagnostics(field)
    _write_json(payload, args.get("output_path"))
    return EXIT_OK


def _cmd_solve(args: dict) -> int:
    path = args["input_path"]
    data = _load_json(path)
    target = _spec_from(data, path)
    if not isinstance(target, TargetMeasure):
        raise InvariantViolation("'solve' expects a target-measure input")
    opts = {key: args[key] for key in SOLVE_OPTIONS if key in args}
    opts.update(_file_options(data, path))  # file options take precedence
    try:
        report, message = solve_minkowski(target, SolveOptions(**opts)), None
    except NoConvergence as exc:
        report = exc.report
        message = f"error: solve stopped on {report.diagnostics['stop_reason']}: {exc}"
    _write_json(report.to_dict(), args.get("output_path"))
    if args.get("log_path"):
        _write_csv(args["log_path"], LOG_COLUMNS, (
            ",".join(str(rec["iter"]) if col == "iter" else f"{rec[col]:.12g}"
                     for col in LOG_COLUMNS)
            for rec in report.diagnostics["iterations_log"]))
    if message is None and not report.converged:
        message = (f"warning: solve did not converge: {report.diagnostics['stop_reason']} "
                   f"(residual {report.residual_history[-1]:.3g})")
    if message is not None:
        print(message, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_verify(args: dict) -> int:
    given = {key: args[key] for key in ("seed", "mesh_h") if key in args}
    reports = run_verify_corpus(**given)
    payload = {"checks": [r.to_dict() for r in reports],
               "pass": all(r.ok for r in reports)}
    _write_json(payload, args.get("output_path"))
    if args.get("log_path"):
        _write_csv(args["log_path"], ("name", "trials", "failures", "worst_margin"),
                   (f"{r.name},{r.trials},{r.failures},{r.worst_margin:.6g}" for r in reports))
    return EXIT_OK if payload["pass"] else EXIT_NUMERICAL


def _cmd_hadamard(args: dict) -> int:
    path = args["input_path"]
    data = _load_json(path)
    body, body_prime = (_parse_polygon(data.get(key), path, key) for key in ("body", "body_prime"))
    s_values = _as_float_array(data.get("s_values", [0.02, 0.01, 0.005]), path, "s_values")
    mesh_h = args.get("mesh_h", REL_MESH_H) * metrics(body).circumradius
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
        "cg_iterations": list(rep.cg_iterations),
        "cg_error_estimate": list(rep.cg_error_estimate),
    }, args.get("output_path"))
    return EXIT_OK


def run(args: dict) -> int:
    """Dispatch one subcommand and map errors onto exit statuses.

    ``args`` maps ``subcommand`` and the ``dest`` of each flag given on
    the command line to its value; flags not given are absent.
    """
    handlers = {
        "torsion": _cmd_torsion,
        "measure": _cmd_measure,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "hadamard": _cmd_hadamard,
    }
    try:
        return handlers[args["subcommand"]](args)
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
    return run(vars(ns))


if __name__ == "__main__":
    sys.exit(main())
