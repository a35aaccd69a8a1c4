"""Scenario-driven command line: forward, reconstruct, verify, selftest.

A scenario is a JSON document (schema_version 1) of blocks: geometry,
boundary condition, probe, spectral parameters, evaluation grid,
reconstruction options, noise and outputs.  `_TABLE` gives each key, the
top-level ones included, its converter and default; `main` reads the
document once with `_resolve`, which checks every key before any work, and
`verify` builds its scenario's pipeline, refusing what `forward` refuses.
Artifacts are deterministic: floats are written with repr, JSON keys are
sorted, CSV rows follow RFC-4180, and repeated runs at a fixed BLAS thread
count are byte-identical.  A command makes no directory and writes no file
before its last computation, so a run refused with exit 2 or 3 leaves nothing.

Exit codes: 0 success, 1 check failure, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import boundary_ops, data_operator, reconstruction
from .boundary_ops import LAYER, BoundaryCondition
from .data_operator import _write_csv, _write_json
from .errors import NumericalError, ScenarioError, ValidationError
from .geometry import (
    _SHAPE_PARAMS,
    _shape_functions,
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

_ALLOWED_EXPR_NAMES = {name: getattr(np, name)
                       for name in ("pi", "cos", "sin", "exp", "sqrt", "abs")}
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
}


def load_scenario(path: str):
    """The JSON document at ``path``, as parsed; `_resolve` reads it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc


def _convert(name: str, value, convert):
    """``convert(value)``; a value it refuses is a ScenarioError naming it.
    A converter returns the resolved value, or raises TypeError or
    ValueError saying what it expected."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name} = {value!r} is invalid: {exc}") from exc


def _checked(convert, within, expected: str):
    """The converter ``convert``, refusing what ``within`` rejects (NaN too)."""
    def check(value):
        value = convert(value)
        if not within(value):
            raise ValueError(f"expected {expected}")
        return value
    return check


def _kind(*kinds):
    """The converter taking a value of one of ``kinds`` as it is, but not a
    bool: True == 1, so float() would read true as 1.0 and a count as 1."""
    return _checked(lambda value: value,
                    lambda value: isinstance(value, kinds) and not isinstance(value, bool),
                    " or ".join(kind.__name__ for kind in kinds))


_object = _kind(dict)  # a block: a JSON object, not a list of key/value pairs
_text = _kind(str)
_number = _kind(int, float)  # not "2": float() would read it as 2.0


def _real(value) -> float:
    return float(_number(value))


def _count(value) -> int:
    """A whole number: an int or an integral float (int() would read 32.5
    as 32, and True or "32" as a count)."""
    if not float(_number(value)).is_integer():  # inf and NaN neither
        raise ValueError("expected a whole number")
    return int(value)


def _floats(value, shape=(2,)) -> list:
    """Nested list of finite floats of the given shape (a point, bounds or
    nodal values).  Each element must be a `_number`: numpy alone reads
    "0" as 0.0 and true as 1.0."""
    arr = np.asarray(value, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    for number in arr.flat:
        _number(number)
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError("expected finite numbers")
    return arr.tolist()


def _optional(convert, absent=None):
    """``convert``, or ``absent`` for an absent (or null) value."""
    return lambda value: absent if value is None else convert(value)


def _one_of(choices):
    return _checked(_text, lambda value: value in choices, f"one of {sorted(choices)}")


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
    """Resolve a coefficient spec: number (not a bool), list of nodal
    values, or an expression in the parameter t (see `_eval_expr`).  An
    expression is evaluated once here, on a read-only t as the nodes'
    parameters are, so what assembly would refuse is refused on reading."""
    if spec is None or type(spec) in (int, float):
        return spec
    if isinstance(spec, list):
        return np.asarray(_floats(spec, (len(spec),)))
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
        sample = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        sample.flags.writeable = False
        with np.errstate(all="ignore"):  # a pole is the nodes' business
            fn(sample)
        return fn
    raise TypeError("expected a number, a list or an expression string")


_FRACTION = _checked(_real, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_AT_LEAST_0 = _checked(_real, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")

# Every scenario value, "block.key" -> (converter, default); "scenario" is
# the document's top level, and its blocks are its keys.  A default goes
# through its converter, so a required key has one that it refuses.  A
# block is a key of its parent, listed before its own keys, which are read
# only when the block is given.
_TABLE = {
    "scenario.schema_version": (
        _checked(_number, lambda n: n == SCHEMA_VERSION, str(SCHEMA_VERSION)), None),
    "scenario.seed": (_checked(_count, lambda n: n >= 0, "a whole number >= 0"), 0),
    "scenario.geometry": (_object, None),
    "scenario.boundary_condition": (_object, None),
    "scenario.probe": (_object, None),
    "scenario.spectral": (_object, None),
    "scenario.grid": (_optional(_object), None),
    "scenario.reconstruction": (_optional(_object, {}), {}),
    "scenario.noise": (_optional(_object, {}), {}),
    "scenario.outputs": (_optional(_object, {}), {}),
    "geometry.shape": (_one_of(_SHAPE_PARAMS), None),
    "geometry.params": (_optional(_object), None),
    "geometry.n_nodes": (_count, 128),
    "geometry.screen": (_optional(_object), None),
    "geometry.screen.interval": (_floats, None),
    "geometry.screen.grading_beta": (_real, 0.0),
    "boundary_condition.kind": (_one_of(LAYER), "D"),
    "boundary_condition.coefficient": (_eval_coefficient, None),
    "boundary_condition.lambda_bound": (_real, 0.0),
    "probe.center": (_floats, (0.0, 0.0)),
    "probe.radius": (_real, 4.0),
    "probe.n_points": (_count, 64),
    "probe.layout": (_text, "ring"),
    "spectral.lambda": (_real, 1.0),
    "spectral.truncation_floor": (_FRACTION, reconstruction.DEFAULT_TRUNCATION_FLOOR),
    "grid.bounds": (functools.partial(_floats, shape=(2, 2)), [[-2.5, 2.5], [-2.5, 2.5]]),
    "grid.resolution": (_count, 64),
    "grid.margin_band": (_optional(_AT_LEAST_0), None),  # None: 0.1 x the diameter
    "reconstruction.mode": (_one_of(reconstruction.SWEEP_MODES), "picard"),
    "reconstruction.rule": (_one_of(reconstruction.SEGMENT_RULES), "fixed_threshold"),
    "reconstruction.level": (_FRACTION, reconstruction.DEFAULT_THRESHOLD_LEVEL),
    "reconstruction.arc_sweep": (_object, {}),
    "reconstruction.arc_sweep.arc_length": (
        _checked(_real, lambda x: 0.0 < x < 2.0 * math.pi, "a length in (0, 2 pi)"),
        math.pi / 8.0),
    "reconstruction.arc_sweep.count": (_checked(_count, lambda n: n >= 1, "a count >= 1"), 32),
    "reconstruction.arc_sweep.n_quad": (_checked(_count, lambda n: n >= 2, "a count >= 2"), 128),
    # None: the geometry's shape, and its params if the shape is the geometry's
    "reconstruction.arc_sweep.shape": (_optional(_one_of(_SHAPE_PARAMS)), None),
    "reconstruction.arc_sweep.params": (_optional(_object), None),
    "noise.level": (_AT_LEAST_0, 0.0),
    "outputs.dir": (_text, "out"),
}
_BLOCKS: dict = {}  # block -> its keys, in table order: a nested block after its parent
for _block, _dot, _key in (name.rpartition(".") for name in _TABLE):
    _BLOCKS.setdefault(_block, []).append(_key)


def _resolve(document, overrides: dict | None = None) -> dict:
    """Every value of the scenario document by its path ("seed",
    "geometry.n_nodes"), converted and checked, with ``overrides`` (by
    `_TABLE` name, None for none) in place of the document's: the one
    place that reads a scenario.  An unknown key, a refused value or a
    curve `make_curve` would refuse is a validation error naming the block
    and key, raised before any work."""
    values = {"scenario": _convert("scenario", document, _object)}
    for block, keys in _BLOCKS.items():
        doc = values.get(block)
        if doc is None:
            continue
        unknown = set(doc) - set(keys)
        if unknown:
            raise ScenarioError(f"unknown keys in {block}: {sorted(unknown)}; expected {keys}")
        for key in keys:
            name = f"{block}.{key}"
            convert, default = _TABLE[name]
            value = (overrides or {}).get(name)
            value = doc.get(key, default) if value is None else value
            values[name.removeprefix("scenario.")] = _convert(name, value, convert)
    sweep = "reconstruction.arc_sweep."
    if values[sweep + "shape"] in (None, values["geometry.shape"]):  # else its own defaults
        values[sweep + "shape"] = values["geometry.shape"]
        if values[sweep + "params"] is None:
            values[sweep + "params"] = values["geometry.params"]
    for curve in ("geometry.", sweep):  # the test arcs' curve is built after assembly
        shape = values[curve + "shape"]
        _convert(curve + "params", values[curve + "params"], lambda p: _shape_functions(shape, p))
    return values


def build_pipeline(v: dict):
    """Materialize geometry, condition, probe, spectral parameter, grid
    from a scenario's resolved values (`_resolve`)."""
    interval, beta = v.get("geometry.screen.interval"), v.get("geometry.screen.grading_beta")
    geom = make_curve(v["geometry.shape"], v["geometry.params"], n_nodes=v["geometry.n_nodes"],
                      cluster=(*interval, beta) if beta else None)  # NaN: refused there
    screen = None if v["geometry.screen"] is None else make_screen(geom, interval)
    bc = BoundaryCondition(
        kind=v["boundary_condition.kind"],
        coefficient=v["boundary_condition.coefficient"],
        screen=screen,
        lambda_bound=v["boundary_condition.lambda_bound"],
    )
    boundary_ops.nodal_coefficient(bc, geom)  # refused here as assemble_M refuses it
    probe = make_probe(v["probe.center"], v["probe.radius"], v["probe.n_points"],
                       layout=v["probe.layout"])
    if not validate_separation(geom, probe, margin=1e-6):
        raise ScenarioError("probe region touches or overlaps the scatterer")
    lam = SpectralParam(v["spectral.lambda"])
    grid = None if v["grid"] is None else make_grid(v["grid.bounds"], v["grid.resolution"])
    if grid is not None and not validate_grid_covers(geom, grid):
        raise ScenarioError("evaluation grid does not cover the scatterer")
    return geom, screen, bc, probe, lam, grid


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _data(v: dict):
    """(pipeline, noisy F, M, M's sign report), the data stage of forward
    and reconstruct; warns on stderr if M lacks the admissible class.
    `assemble_F` takes M and its report from the geometry, so M is assembled
    and analysed once."""
    geom, _screen, bc, probe, lam, _grid = pipeline = build_pipeline(v)
    m_op = boundary_ops.assemble_M(bc, geom, lam)
    report = boundary_ops.sign_check(m_op)
    f_op = data_operator.assemble_F(bc, geom, probe, lam)
    target = boundary_ops.admissible_class(bc, geom)
    if report.classification != target:
        print(f"warning: {m_op.kind} is {report.classification}, not {target or 'one-signed'}, "
              f"at lambda {lam.lam!r}; the range test does not apply", file=sys.stderr)
    f_op = data_operator.add_noise(f_op, v["noise.level"], v["seed"])
    return pipeline, f_op, m_op, report


def run_forward(v: dict, out_dir: str | None = None) -> dict:
    """Assemble M and F; write sign report, spectrum CSV, matrix dumps."""
    out = out_dir or v["outputs.dir"]
    (geom, _, _, probe, lam, _), f_op, m_op, report = _data(v)
    payload = {
        "kind": m_op.kind,
        "lambda": lam.lam,
        "n_nodes": geom.n_nodes,
        "active_nodes": m_op.size,
        "classification": report.classification,
        "eig_min": report.eig_min,
        "eig_max": report.eig_max,
        "noise_level": v["noise.level"],
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


def run_reconstruct(v: dict, out_dir: str | None = None) -> dict:
    """Full pipeline: data operator, indicator sweep, segmentation, files."""
    if v["grid"] is None and v["geometry.screen"] is None:
        raise ScenarioError("reconstruct needs a grid block or a geometry.screen block")
    out = out_dir or v["outputs.dir"]
    (geom, screen, bc, probe, lam, grid), f_op = _data(v)[:2]
    floor = v["spectral.truncation_floor"]

    summary: dict = {"lambda": lam.lam, "bc_kind": bc.kind}
    if screen is not None:
        arc = {key: v["reconstruction.arc_sweep." + key]
               for key in ("shape", "params", "arc_length", "count", "n_quad")}
        centers, indicators, inside = reconstruction.arc_sweep(
            f_op, probe, interval=screen.endpoint_params, truncation_floor=floor, **arc)
        mean_in, mean_out = (float(np.mean(indicators[side])) for side in (inside, ~inside))
        summary["arc_sweep"] = {"arc_length": arc["arc_length"], "count": arc["count"],
                                "mean_inside": mean_in, "mean_outside": mean_out,
                                "separation_ratio": mean_in / mean_out}
        arc_rows = zip(centers.tolist(), indicators.tolist(), inside.astype(int).tolist())
    if grid is not None:
        igrid = reconstruction.sweep(f_op, probe, grid, mode=v["reconstruction.mode"],
                                     truncation_floor=floor)
        seg = reconstruction.segment(
            igrid,
            geom=None if screen is not None else geom,
            rule=v["reconstruction.rule"],
            level=v["reconstruction.level"],
            margin_band=v["grid.margin_band"],
        )
        summary.update(threshold=seg.threshold, jaccard=seg.jaccard, accuracy=seg.accuracy,
                       truncation_k=igrid.truncation_k)

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
            extra={"lambda": lam.lam, "bc_kind": bc.kind, "seed": v["seed"]},
        )
    return summary


def run_verify(out_dir: str | None = None, seed: int = 0) -> tuple[dict, bool]:
    """Run the full tier of the check registry; write verify_report.json
    to ``out_dir`` if one is given."""
    from .selftest import run_checks

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
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "verify_report.json"), report)
    return report, n_failed == 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

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
            overrides = {"spectral.lambda": args.lam, "geometry.n_nodes": args.nodes,
                         "scenario.seed": args.seed}
            v = _resolve(load_scenario(args.scenario), overrides)
            run = run_forward if args.command == "forward" else run_reconstruct
            print(json.dumps(run(v, args.out), indent=2, sort_keys=True))
            return EXIT_OK
        # verify: the scenario gives the seed and the output directory, and
        # is refused where forward would refuse it before assembly
        v = {}
        if args.scenario is not None:
            v = _resolve(load_scenario(args.scenario))
            build_pipeline(v)
        seed = v.get("seed", 0) if args.seed is None else _convert(
            "--seed", args.seed, _TABLE["scenario.seed"][0])
        report, ok = run_verify(args.out or v.get("outputs.dir"), seed=seed)
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
