"""Scenario-driven command line: forward, reconstruct, verify, selftest.

Scenarios are JSON documents (schema_version 1) with nested blocks for
geometry, boundary condition, probe, spectral parameters, evaluation
grid, reconstruction options and outputs.  All artifacts are written
deterministically: floats are serialized with repr (shortest
round-trip), JSON keys are sorted, CSV rows follow RFC-4180.

Exit codes: 0 success, 1 check failure, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import boundary_ops, data_operator, reconstruction
from .boundary_ops import BoundaryCondition
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
    schema_version: int = SCHEMA_VERSION

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
            if key not in raw:
                raise ScenarioError(f"scenario missing required block {key!r}")
        known = set(required) | {
            "grid", "reconstruction", "noise", "outputs", "seed", "schema_version",
        }
        unknown = set(raw) - known
        if unknown:
            raise ScenarioError(f"unknown scenario blocks: {sorted(unknown)}")
        return cls(
            geometry=dict(raw["geometry"]),
            boundary_condition=dict(raw["boundary_condition"]),
            probe=dict(raw["probe"]),
            spectral=dict(raw["spectral"]),
            grid=dict(raw["grid"]) if raw.get("grid") is not None else None,
            reconstruction=dict(raw.get("reconstruction", {})),
            noise=dict(raw.get("noise", {})),
            outputs=dict(raw.get("outputs", {})),
            seed=int(raw.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "geometry": self.geometry,
            "boundary_condition": self.boundary_condition,
            "probe": self.probe,
            "spectral": self.spectral,
        }
        if self.grid is not None:
            out["grid"] = self.grid
        if self.reconstruction:
            out["reconstruction"] = self.reconstruction
        if self.noise:
            out["noise"] = self.noise
        if self.outputs:
            out["outputs"] = self.outputs
        return out


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(raw)


def _eval_coefficient(spec, label: str):
    """Resolve a coefficient spec: number, list of nodal values, or
    an expression in the parameter t (restricted numpy namespace)."""
    if spec is None or isinstance(spec, (int, float)):
        return spec
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if isinstance(spec, str):
        def fn(t, _expr=spec):
            try:
                return eval(  # noqa: S307 - namespace is closed
                    _expr, {"__builtins__": {}}, {**_ALLOWED_EXPR_NAMES, "t": t}
                )
            except Exception as exc:
                raise ScenarioError(
                    f"cannot evaluate {label} expression {_expr!r}: {exc}"
                ) from exc
        return fn
    raise ScenarioError(f"{label} must be a number, list, or expression string")


def build_pipeline(scn: Scenario):
    """Materialize geometry, condition, probe, spectral parameter, grid."""
    gblock = scn.geometry
    shape = gblock.get("shape")
    params = gblock.get("params")
    n_nodes = int(gblock.get("n_nodes", 128))
    screen_block = gblock.get("screen")
    cluster = None
    if screen_block is not None:
        interval = screen_block.get("interval")
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
            raise ScenarioError("screen.interval must be [start, end]")
        beta = float(screen_block.get("grading_beta", 0.0))
        if beta > 0.0:
            cluster = (float(interval[0]), float(interval[1]), beta)
    try:
        geom = make_curve(shape, params, n_nodes=n_nodes, cluster=cluster)
        screen = None
        if screen_block is not None:
            screen = make_screen(geom, (float(interval[0]), float(interval[1])))
    except LapscatError:
        raise
    except (TypeError, KeyError) as exc:
        raise ScenarioError(f"bad geometry block: {exc}") from exc

    bblock = scn.boundary_condition
    bc = BoundaryCondition(
        kind=bblock.get("kind", "D"),
        coefficient=_eval_coefficient(bblock.get("coefficient"), "coefficient"),
        screen=screen,
        lambda_bound=float(bblock.get("lambda_bound", 0.0)),
    )

    pblock = scn.probe
    probe = make_probe(
        center=tuple(pblock.get("center", (0.0, 0.0))),
        radius=float(pblock.get("radius", 4.0)),
        n_points=int(pblock.get("n_points", 64)),
        layout=pblock.get("layout", "ring"),
    )
    if not validate_separation(geom, probe, margin=1e-6):
        raise ScenarioError("probe region touches or overlaps the scatterer")

    sblock = scn.spectral
    lam_value = float(sblock.get("lambda", 1.0))
    if lam_value <= bc.lambda_bound:
        raise ScenarioError(
            f"lambda {lam_value} must exceed lambda_bound {bc.lambda_bound}"
        )
    lam = SpectralParam(lam_value, lower_bound=bc.lambda_bound)

    grid = None
    if scn.grid is not None:
        bounds = scn.grid.get("bounds", [[-2.5, 2.5], [-2.5, 2.5]])
        grid = make_grid(
            (tuple(bounds[0]), tuple(bounds[1])),
            int(scn.grid.get("resolution", 64)),
        )
        if not validate_grid_covers(geom, grid):
            raise ScenarioError("evaluation grid does not cover the scatterer")
    return geom, screen, bc, probe, lam, grid


# ----------------------------------------------------------------------
# artifact helpers
# ----------------------------------------------------------------------

def _json_default(obj):
    # numpy scalars (bool_, float64, ...) slip into reports easily and
    # the stdlib encoder rejects most of them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _outdir(scn: Scenario, override: str | None) -> str:
    out = override or scn.outputs.get("dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def run_forward(scn: Scenario, out_dir: str | None = None) -> dict:
    """Assemble M and F; write sign report, spectrum CSV, matrix dumps."""
    out = _outdir(scn, out_dir)
    geom, _screen, bc, probe, lam, _grid = build_pipeline(scn)
    m_op = boundary_ops.assemble_M(bc, geom, lam)
    report = boundary_ops.sign_check(m_op)
    f_op = data_operator._data_operator(bc, m_op, probe)
    noise_level = float(scn.noise.get("level", 0.0))
    if noise_level > 0.0:
        f_op = data_operator.add_noise(f_op, noise_level, scn.seed)

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
    _write_json(os.path.join(out, "sign_report.json"), payload)
    data_operator.write_spectrum_csv(f_op, os.path.join(out, "spectrum.csv"))
    data_operator.write_matrix_csv(m_op.matrix, os.path.join(out, "M_matrix.csv"))
    data_operator.write_matrix_csv(f_op.matrix, os.path.join(out, "F_matrix.csv"))
    return payload


def _arc_sweep_report(scn, geom, screen, bc, probe, lam, f_op, out):
    """Screen scenarios: indicator per test arc swept along the carrier."""
    block = scn.reconstruction.get("arc_sweep", {})
    arc_len = float(block.get("arc_length", math.pi / 8.0))
    count = int(block.get("count", 32))
    n_quad = int(block.get("n_quad", 128))
    arc_shape = block.get("shape", scn.geometry.get("shape"))
    arc_params = block.get("params", scn.geometry.get("params"))
    floor = float(scn.spectral.get("truncation_floor", 1e-8))
    centers = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    a0, b0 = screen.endpoint_params
    rows = []
    for c in centers:
        arc = reconstruction.TestArc(
            arc_shape, arc_params, (c - 0.5 * arc_len, c + 0.5 * arc_len)
        )
        tv = reconstruction.make_screen_test_vector(probe, arc, lam, n_quad=n_quad)
        w = reconstruction.picard_indicator(f_op, tv, truncation_floor=floor)
        lo = (c - 0.5 * arc_len) % (2.0 * math.pi)
        hi = lo + arc_len
        inside = (lo >= a0 - 1e-12) and (hi <= b0 + 1e-12)
        rows.append((float(c), float(w), bool(inside)))
    inside_vals = [w for _, w, ins in rows if ins]
    outside_vals = [w for _, w, ins in rows if not ins]
    mean_in = float(np.mean(inside_vals)) if inside_vals else 0.0
    mean_out = float(np.mean(outside_vals)) if outside_vals else 0.0
    ratio = math.inf if mean_out == 0.0 else mean_in / mean_out
    with open(os.path.join(out, "arcs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "indicator", "inside_screen"])
        for c, w, ins in rows:
            writer.writerow([repr(c), repr(w), int(ins)])
    report = {
        "arc_length": arc_len,
        "count": count,
        "mean_inside": mean_in,
        "mean_outside": mean_out,
        "separation_ratio": ratio,
    }
    _write_json(os.path.join(out, "arc_report.json"), report)
    return report


def run_reconstruct(scn: Scenario, out_dir: str | None = None) -> dict:
    """Full pipeline: data operator, indicator sweep, segmentation, files."""
    out = _outdir(scn, out_dir)
    geom, screen, bc, probe, lam, grid = build_pipeline(scn)
    f_op = data_operator.assemble_F(bc, geom, probe, lam)
    noise_level = float(scn.noise.get("level", 0.0))
    if noise_level > 0.0:
        f_op = data_operator.add_noise(f_op, noise_level, scn.seed)

    summary: dict = {"lambda": lam.lam, "bc_kind": bc.kind}
    if screen is not None:
        summary["arc_sweep"] = _arc_sweep_report(
            scn, geom, screen, bc, probe, lam, f_op, out
        )

    if grid is not None:
        rblock = scn.reconstruction
        floor = float(scn.spectral.get("truncation_floor", 1e-8))
        igrid = reconstruction.sweep(
            f_op, probe, grid,
            mode=rblock.get("mode", "picard"),
            truncation_floor=floor,
        )
        margin = scn.grid.get("margin_band") if scn.grid else None
        seg = reconstruction.segment(
            igrid,
            geom=None if screen is not None else geom,
            rule=rblock.get("rule", "fixed_threshold"),
            level=float(rblock.get("level", reconstruction.DEFAULT_THRESHOLD_LEVEL)),
            margin_band=float(margin) if margin is not None else None,
        )
        reconstruction.write_indicator_csv(igrid, os.path.join(out, "indicator.csv"))
        reconstruction.write_indicator_pgm(igrid, os.path.join(out, "indicator.pgm"))
        reconstruction.write_metrics_json(
            os.path.join(out, "metrics.json"), seg, igrid, f_op,
            extra={"lambda": lam.lam, "bc_kind": bc.kind, "seed": scn.seed},
        )
        summary["threshold"] = seg.threshold
        summary["jaccard"] = seg.jaccard
        summary["accuracy"] = seg.accuracy
        summary["truncation_k"] = igrid.truncation_k
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
    out = _outdir(scn, out_dir) if (scn or out_dir) else None
    if out:
        _write_json(os.path.join(out, "verify_report.json"), report)
    return report, n_failed == 0


def run_selftest() -> tuple[int, int]:
    from .selftest import run_all

    return run_all()


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
            p.add_argument("--lambda", dest="lam", type=float, default=None)
            p.add_argument("--nodes", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            n_pass, n_fail = run_selftest()
            return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE
        scn = None
        if args.scenario is not None:
            scn = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "forward":
            payload = run_forward(scn, args.out)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "reconstruct":
            payload = run_reconstruct(scn, args.out)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_OK
        # verify
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
