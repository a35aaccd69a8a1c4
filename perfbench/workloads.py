"""The benchmark's workloads: operations, their inputs and their checks.

An operation is one call of `child.py` in a fresh interpreter.  Its
check reads what the operation returned or wrote and compares it with
`oracles` (closed forms and the benchmark's own kite polygon) or with a
property the method must have.  Checks return `(status, detail,
scores)`; scores are figures the traced pass reports.  The status is
PASS, FAULT when the operation failed in the way its named `fault`
predicts, or WRONG for any other failure.

Operations with a `fault` fail every time today because of that program
fault.  Their inputs do not depend on the seed, so the share of failed
operations is the same in every run.  Their checks tell the named
failure from any other: a crash, a missing artifact or a wrong field
elsewhere in the same pipeline is WRONG, not FAULT.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

PROBE = {"center": [0.0, 0.0], "radius": 4.0, "n_points": 64}
CIRCLE = {"shape": "circle", "params": {"radius": 1.0}}
KITE = {"shape": "kite", "params": None}
RADIUS = 1.0
RHO = PROBE["radius"]

LEADING = 10          # eigenvalues of F compared with the closed form
M_LEADING = 40        # most negative eigenvalues of M_D compared
RTOL = 1e-6
KITE_MARGIN = 0.1     # scoring margin band around the kite
THRESHOLD_LEVEL = 0.05
# Floors measured on the parent commit (see README): the fixed threshold
# scores Jaccard 0.889-0.943 on this kite scenario over seeds 0-17 (but
# 0.729 on seed 408, which is why no operation depends on that rule
# passing); arc separation 2064.
JACCARD_FLOOR = 0.85
ARC_RATIO_FLOOR = 1000.0
FAULT_SEED = 0        # seed field of the scenarios that fail today
SWEEP_LAMBDAS = [0.5, 2.0, 8.0, 32.0, 128.0]
KITE_LAMBDAS = [0.5, 2.0, 8.0, 32.0]
ARC_LENGTH = math.pi / 8.0
SCREEN = (0.0, math.pi)
GRID_ARTIFACTS = ("indicator.csv", "indicator.pgm", "metrics.json")
SCORE_ATOL = 0.01     # lapscat's own Jaccard against the benchmark's

PASS, FAULT, WRONG = "pass", "fault", "wrong"


def _status(ok) -> str:
    return PASS if ok else WRONG


@dataclass
class Operation:
    """`spec` tells `child.py` what to run; a CLI operation names its
    `command` and, if it takes one, its `scenario`."""

    name: str
    spec: dict
    check: Callable[[dict, str], tuple]
    fault: str | None = None
    scenario: dict | None = None


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _cli_ok(res: dict) -> str | None:
    if res["error"] is not None:
        return res["error"]
    if res["value"] != 0:
        return f"exit code {res['value']}"
    return None


# ----------------------------------------------------------------------
# reconstruct
# ----------------------------------------------------------------------


def _scenario(seed, geometry, n_nodes, bc, lam, **blocks) -> dict:
    scn = {
        "schema_version": 1,
        "seed": seed,
        "geometry": {**geometry, "n_nodes": n_nodes},
        "boundary_condition": {"kind": bc},
        "probe": {**PROBE, "layout": "ring"},
        "spectral": {"lambda": lam, "truncation_floor": 1e-8},
    }
    scn.update(blocks)
    return scn


def _grid(resolution: int) -> dict:
    return {"bounds": [[-2.5, 2.5], [-2.5, 2.5]], "resolution": resolution,
            "margin_band": KITE_MARGIN}


def _grid_outputs(res: dict, out: str):
    """The CLI exit and the grid artifacts; on failure a WRONG detail,
    else the indicator table and `metrics.json`."""
    err = _cli_ok(res)
    if err:
        return err, None
    missing = [f for f in GRID_ARTIFACTS if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return f"missing {', '.join(missing)}", None
    header, table = _read_csv(os.path.join(out, "indicator.csv"))
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    columns = {h: table[:, i] for i, h in enumerate(header)}
    return None, (table[:, :2], columns, metrics)


def _scored_alike(metrics: dict, j: float) -> str | None:
    """lapscat scores its own segmentation (winding number, distance to
    the boundary); that score must agree with the benchmark's."""
    if abs(metrics["jaccard"] - j) > SCORE_ATOL:
        return f"lapscat scores jaccard {metrics['jaccard']:.4f}, the benchmark {j:.4f}"
    return None


def _check_kite_otsu(cache: dict):
    """Jaccard of the program's Otsu segmentation.  The fixed 0.05 * max
    rule on the same Picard field must reach the floor, so the field
    itself is checked; the named fault is an Otsu threshold below that
    rule's, which marks too much of the grid."""
    def check(res, out):
        err, fields = _grid_outputs(res, out)
        if err:
            return WRONG, err, {}
        points, cols, metrics = fields
        picard, threshold = cols["picard"], metrics["threshold"]
        fixed = THRESHOLD_LEVEL * picard.max()
        j = oracles.kite_jaccard(points, picard >= threshold, KITE_MARGIN, cache)
        j_fixed = oracles.kite_jaccard(points, picard >= fixed, KITE_MARGIN, cache)
        scores = {"reconstruction.jaccard_otsu": j, "reconstruction.jaccard_fixed": j_fixed}
        detail = f"jaccard {j:.4f}, fixed rule {j_fixed:.4f} (floor {JACCARD_FLOOR})"
        unlike = _scored_alike(metrics, j)
        if unlike:
            return WRONG, unlike, scores
        if j_fixed < JACCARD_FLOOR:
            return WRONG, detail + ": the Picard field itself is off", scores
        if j >= JACCARD_FLOOR:
            return PASS, detail, scores
        if threshold < fixed:
            return FAULT, detail + f": Otsu threshold {threshold:.4g} < {fixed:.4g}", scores
        return WRONG, detail + f": Otsu threshold {threshold:.4g} >= {fixed:.4g}", scores

    return check


def _check_kite_inf(cache: dict):
    """The `inf` column thresholded at 0.05 * max against the kite.  The
    Picard column of the same run, segmented by the program at the
    fixed rule, must reach the floor; the named fault is an `inf`
    column that is identically 0."""
    def check(res, out):
        err, fields = _grid_outputs(res, out)
        if err:
            return WRONG, err, {}
        points, cols, metrics = fields
        picard_mask = cols["picard"] >= metrics["threshold"]
        j_picard = oracles.kite_jaccard(points, picard_mask, KITE_MARGIN, cache)
        detail = f"picard jaccard {j_picard:.4f}"
        unlike = _scored_alike(metrics, j_picard)
        if unlike:
            return WRONG, unlike, {}
        if j_picard < JACCARD_FLOOR:
            return WRONG, f"{detail} (floor {JACCARD_FLOOR})", {}
        inf = cols["inf"]
        if not np.all(np.isfinite(inf)) or inf.min() < 0.0:
            return WRONG, f"{detail}; inf column not finite and non-negative", {}
        if inf.max() == 0.0:
            return FAULT, f"{detail}; inf column is identically 0", {}
        j = oracles.kite_jaccard(points, inf >= THRESHOLD_LEVEL * inf.max(), KITE_MARGIN, cache)
        detail += f"; inf jaccard {j:.4f} (floor {JACCARD_FLOOR})"
        return _status(j >= JACCARD_FLOOR), detail, {}

    return check


def _check_circle_forward(res, out):
    err = _cli_ok(res)
    if err:
        return WRONG, err, {}
    lam = 2.0
    _, spec = _read_csv(os.path.join(out, "spectrum.csv"))
    e_f = oracles.max_relative_error(
        spec[:LEADING, 1], oracles.circle_fd_eigenvalues(lam, RADIUS, RHO, LEADING)
    )
    m = np.loadtxt(os.path.join(out, "M_matrix.csv"), delimiter=",")
    e_m = oracles.max_relative_error(
        np.linalg.eigvalsh(0.5 * (m + m.T))[:M_LEADING],
        oracles.circle_md_eigenvalues(lam, RADIUS, M_LEADING),
    )
    ok = e_f <= RTOL and e_m <= RTOL
    return _status(ok), f"F rel err {e_f:.2e}, M rel err {e_m:.2e}", {}


def _check_screen(res, out):
    err = _cli_ok(res)
    if err:
        return WRONG, err, {}
    _, arcs = _read_csv(os.path.join(out, "arcs.csv"))
    lo = np.mod(arcs[:, 0] - 0.5 * ARC_LENGTH, 2.0 * math.pi)
    hi = lo + ARC_LENGTH
    tol = 1e-9
    on = (lo >= SCREEN[0] - tol) & (hi <= SCREEN[1] + tol)
    off = (lo >= SCREEN[1] - tol) & (hi <= 2.0 * math.pi + tol)
    ratio = float(np.mean(arcs[on, 1]) / np.mean(arcs[off, 1]))
    detail = f"on/off arc ratio {ratio:.1f} (floor {ARC_RATIO_FLOOR})"
    return _status(ratio >= ARC_RATIO_FLOOR), detail, {
        "reconstruction.arc_separation_ratio": ratio
    }


def reconstruct(seed: int) -> list[Operation]:
    cache: dict = {}
    otsu = dict(
        grid=_grid(128), noise={"level": 1e-3},
        reconstruction={"mode": "picard", "rule": "otsu"},
    )
    kite_inf = dict(
        grid=_grid(32), noise={"level": 1e-3},
        reconstruction={"mode": "both", "rule": "fixed_threshold", "level": THRESHOLD_LEVEL},
    )
    screen = dict(
        reconstruction={"arc_sweep": {"count": 32, "arc_length": ARC_LENGTH}},
    )
    screen_geom = {**CIRCLE, "screen": {"interval": list(SCREEN), "grading_beta": 0.6}}
    cli = {"command": "reconstruct"}
    return [
        Operation("kite_otsu", cli, _check_kite_otsu(cache),
                  fault="Otsu threshold marks about half the grid (ROADMAP item 4)",
                  scenario=_scenario(FAULT_SEED, KITE, 256, "N", 2.0, **otsu)),
        Operation("circle_forward", {"command": "forward"}, _check_circle_forward,
                  scenario=_scenario(seed, CIRCLE, 512, "D", 2.0)),
        Operation("circle_screen", cli, _check_screen,
                  scenario=_scenario(seed, screen_geom, 256, "D", 2.0, **screen)),
        Operation("kite_inf", cli, _check_kite_inf(cache),
                  fault="noisy F is indefinite, so the inf indicator is 0 everywhere "
                        "(ROADMAP item 4)",
                  scenario=_scenario(FAULT_SEED, KITE, 128, "D", 2.0, **kite_inf)),
    ]


# ----------------------------------------------------------------------
# lambda_sweep
# ----------------------------------------------------------------------


def _spectra_checker(oracle, past_cap=False):
    """Leading eigenvalues of each F against the closed form.  Where
    `past_cap`, refusing with a NumericalError also passes, since past
    the resolvable cap refusing is a correct answer; a finite spectrum
    off the closed form is the named fault, and any other error or a
    non-finite spectrum is WRONG."""
    def check(res, _out):
        if res["error"] is not None:
            return _status(past_cap and res["refused"]), res["error"], {}
        worst = 0.0
        finite = True
        for row in res["value"]:
            got = np.asarray(row["eigenvalues"][:LEADING], dtype=float)
            finite = finite and bool(np.all(np.isfinite(got)))
            want = oracle(row["lambda"], RADIUS, RHO, LEADING)
            worst = max(worst, oracles.max_relative_error(got, want))
        detail = f"worst rel err {worst:.2e}"
        if worst <= RTOL:
            return PASS, detail, {}
        if past_cap and finite:
            return FAULT, detail + ", no error raised", {}
        return WRONG, detail if finite else detail + ", non-finite eigenvalues", {}

    return check


def _check_kite_definite(res, _out):
    if res["error"] is not None:
        return WRONG, res["error"], {}
    bad = []
    for row in res["value"]:
        mu = np.asarray(row["eigenvalues"])
        kept = mu[np.abs(mu) >= 1e-8 * np.abs(mu[0])]
        if row["sign"] != "definite_positive" or np.any(kept <= 0.0):
            bad.append(f"lambda={row['lambda']}: {row['sign']}, "
                       f"{np.count_nonzero(kept <= 0)} non-positive eigenvalues")
    return _status(not bad), "; ".join(bad) or "M_N definite, F positive", {}


def _check_lambda_bound(res, _out):
    if res["error"] is not None:
        return WRONG, res["error"], {}
    circle, kite = res["value"]
    root = oracles.theta_bound_root(-0.5, RADIUS)
    lo, hi = circle["transition"] or (math.nan, math.nan)
    ok = lo <= root <= hi and kite["bound"] == 0.0
    return _status(ok), f"root {root:.5f} in ({lo:.4f}, {hi:.4f}); kite bound {kite['bound']}", {}


def _spectra(geometry, n_nodes, bc, lambdas, sign_check=False) -> dict:
    return {"kind": "spectra", "geometry": {**geometry, "n_nodes": n_nodes}, "bc": bc,
            "probe": PROBE, "lambdas": lambdas, "sign_check": sign_check}


def lambda_sweep(_seed: int) -> list[Operation]:
    bound_cases = {"kind": "lambda_bound", "cases": [
        {"geometry": {**CIRCLE, "n_nodes": 128}, "theta": -0.5},
        {"geometry": {**KITE, "n_nodes": 128}, "theta": 1.0},
    ]}
    return [
        Operation("circle_D", _spectra(CIRCLE, 256, "D", SWEEP_LAMBDAS),
                  _spectra_checker(oracles.circle_fd_eigenvalues)),
        Operation("circle_N", _spectra(CIRCLE, 256, "N", SWEEP_LAMBDAS),
                  _spectra_checker(oracles.circle_fn_eigenvalues)),
        Operation("kite_N", _spectra(KITE, 256, "N", KITE_LAMBDAS, sign_check=True),
                  _check_kite_definite),
        Operation("lambda_bound", bound_cases, _check_lambda_bound),
        Operation("circle_D_400", _spectra(CIRCLE, 256, "D", [400.0]),
                  _spectra_checker(oracles.circle_fd_eigenvalues, past_cap=True),
                  fault="lambda past resolvable_lambda_cap returns a wrong spectrum "
                        "without error (ROADMAP item 3)"),
    ]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _stdout(out: str) -> str:
    with open(os.path.join(os.path.dirname(out), "stdout.txt")) as fh:
        return fh.read()


def _check_verify(res, out):
    err = _cli_ok(res)
    if err:
        return WRONG, err, {}
    with open(os.path.join(out, "verify_report.json")) as fh:
        report = json.load(fh)
    said = re.search(r"verify: (\d+)/(\d+) checks passed", _stdout(out))
    n = report["n_checks"]
    ok = (report["all_passed"] and report["n_failed"] == 0 and n >= 6
          and said is not None and said.group(1) == said.group(2) == str(n))
    return _status(ok), f"{n - report['n_failed']}/{n} checks passed", {}


def _check_selftest(res, out):
    err = _cli_ok(res)
    if err:
        return WRONG, err, {}
    text = _stdout(out)
    said = re.search(r"selftest: (\d+) passed, (\d+) failed", text)
    if said is None:
        return WRONG, "no selftest summary line", {}
    n_pass, n_fail = int(said.group(1)), int(said.group(2))
    listed = text.count("[PASS]")
    ok = n_fail == 0 and n_pass >= 35 and listed == n_pass
    return _status(ok), f"{n_pass} passed, {n_fail} failed, {listed} listed", {}


def verify(seed: int) -> list[Operation]:
    return [
        Operation("verify", {"command": "verify"}, _check_verify,
                  scenario=_scenario(seed, CIRCLE, 128, "D", 2.0)),
        Operation("selftest", {"command": "selftest"}, _check_selftest),
    ]


WORKLOADS = {
    "reconstruct": reconstruct,
    "lambda_sweep": lambda_sweep,
    "verify": verify,
}


def build(workload: str, seed: int, work: str) -> list[Operation]:
    """Write each operation's inputs under `work`; return the operations
    with their child specs completed (paths, argv)."""
    ops = WORKLOADS[workload](seed)
    for op in ops:
        op_dir = os.path.join(work, op.name)
        os.makedirs(op_dir)
        if "command" in op.spec:
            argv = [op.spec["command"]]
            if op.scenario is not None:
                path = os.path.join(op_dir, "scenario.json")
                with open(path, "w") as fh:
                    json.dump(op.scenario, fh, indent=2)
                argv += ["--scenario", path, "--out", os.path.join(op_dir, "out")]
            op.spec = {"kind": "cli", "argv": argv}
        op.spec = dict(op.spec, result=os.path.join(op_dir, "result.json"))
    return ops
