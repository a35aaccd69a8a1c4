"""Scenario-driven command line: forward, reconstruct, verify, selftest.

Scenarios are JSON documents (schema_version 1) with nested blocks for
geometry, boundary condition, probe, spectral parameters, evaluation
grid, reconstruction options and outputs; a key a block does not take
is a validation error.  All artifacts are written deterministically:
floats are serialized with repr (shortest round-trip), JSON keys are
sorted, CSV rows follow RFC-4180, and repeated runs at a fixed BLAS
thread count are byte-identical.  Each command reads the scenario,
computes, then writes: it reads the output directory (checking the
outputs block) before any work, but makes no directory and writes no file
before its last computation, so a run refused with exit 2 or 3 leaves nothing.

Exit codes: 0 success, 1 check failure, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import boundary_ops, data_operator, reconstruction
from .boundary_ops import BoundaryCondition
from .data_operator import _write_csv, _write_json
from .errors import (
    LapscatError,
    NumericalError,
    ScenarioError,
    ValidationError,
)
from .geometry import (
    make_curve,
    make_grid,
    make_probe,
    make_screen,
    validate_grid_covers,
    validate_separation,
)
from .kernels import SpectralParam

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_ALLOWED_EXPR_NAMES = {
    "pi": np.pi,
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
}


@dataclass
class Scenario:
    """Parsed scenario: everything needed to drive one pipeline run."""

    geometry: dict
    boundary_condition: dict
    probe: dict
    spectral: dict
    grid: dict | None = None
    reconstruction: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
            )
        required = ("geometry", "boundary_condition", "probe", "spectral")
        for key in required:
            if raw.get(key) is None:
                raise ScenarioError(f"scenario missing required block {key!r}")
        blocks = (*required, "grid", "reconstruction", "noise", "outputs")
        unknown = set(raw) - set(blocks) - {"seed", "schema_version"}
        if unknown:
            raise ScenarioError(f"unknown scenario blocks: {sorted(unknown)}")
        parsed = {key: _value(raw, "scenario", key, {}, _object)
                  for key in blocks if raw.get(key) is not None}
        return cls(**parsed, seed=_value(raw, "scenario", "seed", 0, _count))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(raw)


def _value(block: dict, name: str, key: str, default, convert=float):
    """``block[key]`` (``default`` if absent) passed through ``convert``;
    a value it rejects is a ScenarioError naming the block and key."""
    value = block.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}.{key} = {value!r} is invalid: {exc}") from exc


def _keys(block: dict, name: str, keys: tuple) -> dict:
    """``block``, refused if it holds a key outside ``keys``: a misspelled
    key would otherwise read as its default."""
    unknown = set(block) - set(keys)
    if unknown:
        raise ScenarioError(f"unknown keys in {name}: {sorted(unknown)}; expected {list(keys)}")
    return block


def _object(value) -> dict:
    """A scenario block: a JSON object, not a list of key/value pairs."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _count(value) -> int:
    """A whole number: an int or an integral float, not a bool (int()
    would read 32.5 as 32, and True or "32" as a count)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a whole number, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def _margin_band(value) -> float | None:
    """grid.margin_band: absent, or a finite band >= 0 (a negative one would
    score grid points on the boundary itself)."""
    if value is None:
        return None
    band = float(value)
    if not 0.0 <= band < math.inf:
        raise ValueError("expected a finite band >= 0")
    return band


def _floats(value, shape=(2,)) -> list:
    """Nested list of finite floats of the given shape (a point or bounds)."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("expected finite numbers")
    return arr.tolist()


def _eval_expr(node, names: dict):
    """Value of a parsed coefficient expression.  Only numbers, the names
    (t and pi), + - * / **, unary minus and calls of the named functions
    are allowed; anything else, attribute access included, is refused."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)  # float powers overflow where int ones run on
    if isinstance(node, ast.Name) and node.id in names and not callable(names[node.id]):
        return names[node.id]
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _EXPR_OPS:
        operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,)
        return _EXPR_OPS[type(node.op)](*(_eval_expr(a, names) for a in operands))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
            and callable(names.get(node.func.id))):
        return names[node.func.id](*(_eval_expr(a, names) for a in node.args))
    raise ScenarioError(f"coefficient expression may not contain {ast.unparse(node)!r}")


def _eval_coefficient(spec):
    """Resolve a coefficient spec: number, list of nodal values, or
    an expression in the parameter t (see `_eval_expr`)."""
    if spec is None or isinstance(spec, (int, float)):
        return spec
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if isinstance(spec, str):
        try:
            tree = ast.parse(spec, mode="eval").body
        except (SyntaxError, ValueError, RecursionError) as exc:  # NUL bytes, deep nesting
            raise ScenarioError(f"cannot parse coefficient expression {spec!r}: {exc}") from exc

        def fn(t):
            try:
                return _eval_expr(tree, {**_ALLOWED_EXPR_NAMES, "t": t})
            except Exception as exc:
                raise ScenarioError(
                    f"cannot evaluate coefficient expression {spec!r}: {exc}"
                ) from exc
        return fn
    raise ScenarioError("coefficient must be a number, list, or expression string")


def build_pipeline(scn: Scenario):
    """Materialize geometry, condition, probe, spectral parameter, grid."""
    gblock = _keys(scn.geometry, "geometry", ("shape", "params", "n_nodes", "screen"))
    shape = gblock.get("shape")
    params = gblock.get("params")
    n_nodes = _value(gblock, "geometry", "n_nodes", 128, _count)
    screen_block = _value(gblock, "geometry", "screen", None,
                          lambda v: None if v is None else _object(v))
    cluster = None
    if screen_block is not None:
        _keys(screen_block, "geometry.screen", ("interval", "grading_beta"))
        interval = _value(screen_block, "geometry.screen", "interval", None, _floats)
        beta = _value(screen_block, "geometry.screen", "grading_beta", 0.0)
        if beta != 0.0:  # out of [0, 1), NaN too, is refused by the grading map
            cluster = (*interval, beta)
    try:
        geom = make_curve(shape, params, n_nodes=n_nodes, cluster=cluster)
        screen = None
        if screen_block is not None:
            screen = make_screen(geom, interval)
    except LapscatError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ScenarioError(f"bad geometry block: {exc}") from exc

    bblock = _keys(scn.boundary_condition, "boundary_condition",
                   ("kind", "coefficient", "lambda_bound"))
    bc = BoundaryCondition(
        kind=bblock.get("kind", "D"),
        coefficient=_value(bblock, "boundary_condition", "coefficient", None, _eval_coefficient),
        screen=screen,
        lambda_bound=_value(bblock, "boundary_condition", "lambda_bound", 0.0),
    )

    pblock = _keys(scn.probe, "probe", ("center", "radius", "n_points", "layout"))
    probe = make_probe(
        center=_value(pblock, "probe", "center", (0.0, 0.0), _floats),
        radius=_value(pblock, "probe", "radius", 4.0),
        n_points=_value(pblock, "probe", "n_points", 64, _count),
        layout=pblock.get("layout", "ring"),
    )
    if not validate_separation(geom, probe, margin=1e-6):
        raise ScenarioError("probe region touches or overlaps the scatterer")

    _keys(scn.spectral, "spectral", ("lambda", "truncation_floor"))
    lam = SpectralParam(_value(scn.spectral, "spectral", "lambda", 1.0))

    grid = None
    if scn.grid is not None:
        _keys(scn.grid, "grid", ("bounds", "resolution", "margin_band"))
        grid = make_grid(
            _value(scn.grid, "grid", "bounds", [[-2.5, 2.5], [-2.5, 2.5]],
                   lambda v: _floats(v, (2, 2))),
            _value(scn.grid, "grid", "resolution", 64, _count),
        )
        _value(scn.grid, "grid", "margin_band", None, _margin_band)  # refused before assembly
        if not validate_grid_covers(geom, grid):
            raise ScenarioError("evaluation grid does not cover the scatterer")
    return geom, screen, bc, probe, lam, grid


def _outdir(scn: Scenario, override: str | None) -> str:
    """The output directory, read (and its block checked) before any work;
    the commands make it only when they write."""
    return override or _keys(scn.outputs, "outputs", ("dir",)).get("dir", "out")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _data(scn: Scenario):
    """(pipeline, noisy F, M, M's sign report, noise level), the data stage of
    forward and reconstruct; warns on stderr if M lacks the admissible class.
    `assemble_F` takes M and its report from the geometry, so M is assembled
    and analysed once."""
    geom, _screen, bc, probe, lam, _grid = pipeline = build_pipeline(scn)
    noise_level = _value(_keys(scn.noise, "noise", ("level",)), "noise", "level", 0.0)
    m_op = boundary_ops.assemble_M(bc, geom, lam)
    report = boundary_ops.sign_check(m_op)
    f_op = data_operator.assemble_F(bc, geom, probe, lam)
    target = boundary_ops.admissible_class(bc, geom)
    if report.classification != target:
        print(f"warning: {m_op.kind} is {report.classification}, not {target or 'one-signed'}, "
              f"at lambda {lam.lam!r}; the range test does not apply", file=sys.stderr)
    f_op = data_operator.add_noise(f_op, noise_level, scn.seed)
    return pipeline, f_op, m_op, report, noise_level


def run_forward(scn: Scenario, out_dir: str | None = None) -> dict:
    """Assemble M and F; write sign report, spectrum CSV, matrix dumps."""
    out = _outdir(scn, out_dir)
    (geom, _, _, probe, lam, _), f_op, m_op, report, noise_level = _data(scn)
    payload = {
        "kind": m_op.kind,
        "lambda": lam.lam,
        "n_nodes": geom.n_nodes,
        "active_nodes": m_op.size,
        "classification": report.classification,
        "eig_min": report.eig_min,
        "eig_max": report.eig_max,
        "noise_level": noise_level,
        "probe_points": probe.points.shape[0],
    }
    m_matrix = m_op.matrix
    # the writes need only the payload, M's matrix and F: dropping the
    # geometry frees its assembly plan and its kept M before them
    del geom, m_op
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "sign_report.json"), payload)
    data_operator.write_spectrum_csv(f_op, os.path.join(out, "spectrum.csv"))
    data_operator.write_matrix_csv(m_matrix, os.path.join(out, "M_matrix.csv"))
    data_operator.write_matrix_csv(f_op.matrix, os.path.join(out, "F_matrix.csv"))
    return payload


def _arc_sweep_args(scn: Scenario) -> dict:
    """`reconstruction.arc_sweep`'s keyword arguments from the scenario's
    reconstruction.arc_sweep block, read before any assembly."""
    block = _keys(_value(scn.reconstruction, "reconstruction", "arc_sweep", {}, _object),
                  "reconstruction.arc_sweep", ("arc_length", "count", "shape", "params", "n_quad"))
    name = "reconstruction.arc_sweep"
    return {
        "shape": block.get("shape", scn.geometry.get("shape")),
        "params": block.get("params", scn.geometry.get("params")),
        "arc_length": _value(block, name, "arc_length", math.pi / 8.0),
        "count": _value(block, name, "count", 32, _count),
        "n_quad": _value(block, name, "n_quad", 128, _count),
    }


def _arc_sweep(args, screen, probe, f_op, floor):
    """Screen scenarios: the report of the arc sweep and the rows of arcs.csv."""
    centers, indicators, inside = reconstruction.arc_sweep(
        f_op, probe, interval=screen.endpoint_params, truncation_floor=floor, **args)
    mean_in = float(np.mean(indicators[inside]))
    mean_out = float(np.mean(indicators[~inside]))
    report = {
        "arc_length": args["arc_length"],
        "count": args["count"],
        "mean_inside": mean_in,
        "mean_outside": mean_out,
        "separation_ratio": mean_in / mean_out,
    }
    return report, zip(centers.tolist(), indicators.tolist(), inside.astype(int).tolist())


def run_reconstruct(scn: Scenario, out_dir: str | None = None) -> dict:
    """Full pipeline: data operator, indicator sweep, segmentation, files."""
    rblock = _keys(scn.reconstruction, "reconstruction", ("mode", "rule", "level", "arc_sweep"))
    floor = _value(scn.spectral, "spectral", "truncation_floor",
                   reconstruction.DEFAULT_TRUNCATION_FLOOR)
    if scn.grid is None and scn.geometry.get("screen") is None:
        raise ScenarioError("reconstruct needs a grid block or a geometry.screen block")
    arcs = None if scn.geometry.get("screen") is None else _arc_sweep_args(scn)
    out = _outdir(scn, out_dir)
    (geom, screen, bc, probe, lam, grid), f_op = _data(scn)[:2]

    summary: dict = {"lambda": lam.lam, "bc_kind": bc.kind}
    if screen is not None:
        summary["arc_sweep"], arc_rows = _arc_sweep(arcs, screen, probe, f_op, floor)
    if grid is not None:
        igrid = reconstruction.sweep(
            f_op, probe, grid,
            mode=rblock.get("mode", "picard"),
            truncation_floor=floor,
        )
        seg = reconstruction.segment(
            igrid,
            geom=None if screen is not None else geom,
            rule=rblock.get("rule", "fixed_threshold"),
            level=_value(rblock, "reconstruction", "level",
                         reconstruction.DEFAULT_THRESHOLD_LEVEL),
            margin_band=_value(scn.grid, "grid", "margin_band", None, _margin_band),
        )
        summary["threshold"] = seg.threshold
        summary["jaccard"] = seg.jaccard
        summary["accuracy"] = seg.accuracy
        summary["truncation_k"] = igrid.truncation_k

    os.makedirs(out, exist_ok=True)
    if screen is not None:
        _write_csv(os.path.join(out, "arcs.csv"), arc_rows,
                   ("center", "indicator", "inside_screen"))
        _write_json(os.path.join(out, "arc_report.json"), summary["arc_sweep"])
    if grid is not None:
        reconstruction.write_indicator_csv(igrid, os.path.join(out, "indicator.csv"))
        reconstruction.write_indicator_pgm(igrid, os.path.join(out, "indicator.pgm"))
        reconstruction.write_metrics_json(
            os.path.join(out, "metrics.json"), seg, igrid, f_op,
            extra={"lambda": lam.lam, "bc_kind": bc.kind, "seed": scn.seed},
        )
    return summary


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def run_verify(
    scn: Scenario | None = None,
    out_dir: str | None = None,
    seed: int = 0,
) -> tuple[dict, bool]:
    """Run the full tier of the check registry; write verify_report.json."""
    from .selftest import run_checks

    out = _outdir(scn, out_dir) if (scn or out_dir) else None
    t0 = time.perf_counter()
    checks = run_checks("full", seed=seed)
    n_failed = sum(not c["passed"] for c in checks)
    report = {
        "all_passed": n_failed == 0,
        "n_checks": len(checks),
        "n_failed": n_failed,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "checks": checks,
    }
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "verify_report.json"), report)
    return report, n_failed == 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    if args.lam is not None:
        scn.spectral["lambda"] = args.lam
    if args.nodes is not None:
        scn.geometry["n_nodes"] = args.nodes
    if args.seed is not None:
        scn.seed = args.seed
    return scn


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapscat",
        description="Laplace-domain scattering: assembly, reconstruction, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("forward", "reconstruct", "verify", "selftest"):
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--scenario", default=None,
                           required=name in ("forward", "reconstruct"))
            if name != "verify":
                p.add_argument("--lambda", dest="lam", type=float, default=None)
                p.add_argument("--nodes", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_all

            n_pass, n_fail = run_all()
            return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE
        if args.command in ("forward", "reconstruct"):
            scn = _apply_overrides(load_scenario(args.scenario), args)
            run = run_forward if args.command == "forward" else run_reconstruct
            print(json.dumps(run(scn, args.out), indent=2, sort_keys=True))
            return EXIT_OK
        # verify
        scn = load_scenario(args.scenario) if args.scenario is not None else None
        seed = args.seed if args.seed is not None else (scn.seed if scn else 0)
        report, ok = run_verify(scn, args.out, seed=seed)
        print(f"verify: {report['n_checks'] - report['n_failed']}/"
              f"{report['n_checks']} checks passed "
              f"({report['elapsed_seconds']}s)")
        return EXIT_OK if ok else EXIT_CHECK_FAILURE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
