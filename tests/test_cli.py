"""End-to-end tests of the command line: scenarios, artifacts, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from lapscat import boundary_ops
from lapscat.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    Scenario,
    build_pipeline,
    main,
)
from lapscat.errors import ScenarioError


def write_scenario(path, **blocks):
    base = {
        "schema_version": 1,
        "geometry": {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64},
        "boundary_condition": {"kind": "D"},
        "probe": {"center": [0.0, 0.0], "radius": 4.0, "n_points": 32},
        "spectral": {"lambda": 2.0},
    }
    base.update(blocks)
    path.write_text(json.dumps(base))
    return str(path)


def test_scenario_round_trip():
    raw = {
        "schema_version": 1,
        "seed": 3,
        "geometry": {"shape": "kite", "n_nodes": 96},
        "boundary_condition": {"kind": "N"},
        "probe": {"radius": 5.0, "n_points": 48},
        "spectral": {"lambda": 4.0},
        "grid": {"resolution": 32},
        "noise": {"level": 0.01},
    }
    scn = Scenario.from_dict(raw)
    assert Scenario.from_dict(scn.to_dict()).to_dict() == scn.to_dict()
    assert scn.seed == 3
    assert scn.grid == {"resolution": 32}


def test_scenario_rejects_malformed_documents():
    good = {
        "schema_version": 1,
        "geometry": {"shape": "circle", "params": {"radius": 1.0}},
        "boundary_condition": {"kind": "D"},
        "probe": {},
        "spectral": {"lambda": 2.0},
    }
    with pytest.raises(ScenarioError):
        Scenario.from_dict({**good, "schema_version": 2})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({k: v for k, v in good.items() if k != "spectral"})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({**good, "extras": {}})
    with pytest.raises(ScenarioError):
        Scenario.from_dict(["not", "an", "object"])


def test_coefficient_expression_evaluation():
    scn = Scenario.from_dict(
        {
            "schema_version": 1,
            "geometry": {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 32},
            "boundary_condition": {
                "kind": "theta",
                "coefficient": "1.0 + 0.5*cos(t)",
            },
            "probe": {"n_points": 16},
            "spectral": {"lambda": 2.0},
        }
    )
    _, _, bc, _, _, _ = build_pipeline(scn)
    t = np.linspace(0.0, 2 * np.pi, 7)
    np.testing.assert_allclose(bc.coefficient(t), 1.0 + 0.5 * np.cos(t), rtol=1e-15)
    # the expression namespace is closed: no builtins leak through
    scn.boundary_condition["coefficient"] = "__import__('os').getcwd()"
    _, _, bad, _, _, _ = build_pipeline(scn)
    with pytest.raises(ScenarioError):
        bad.coefficient(t)


def test_forward_writes_artifacts(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "scn.json")
    out = tmp_path / "out"
    assert main(["forward", "--scenario", scenario, "--out", str(out)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "definite_negative"
    assert payload["lambda"] == 2.0
    report = json.loads((out / "sign_report.json").read_text())
    assert report == payload
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "magnitude"]
    eigs = np.array([float(r[1]) for r in rows[1:]])
    # Dirichlet data operator is negative definite: every eigenvalue < 0
    assert np.all(eigs < 0.0)
    assert (out / "M_matrix.csv").exists()
    assert (out / "F_matrix.csv").exists()


def test_forward_reruns_are_byte_identical(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path / "scn.json", noise={"level": 0.05}, seed=5
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["forward", "--scenario", scenario, "--out", str(out1)]) == EXIT_OK
    assert main(["forward", "--scenario", scenario, "--out", str(out2)]) == EXIT_OK
    for name in ("spectrum.csv", "F_matrix.csv", "sign_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # a different noise seed must change the data operator
    out3 = tmp_path / "c"
    assert (
        main(["forward", "--scenario", scenario, "--seed", "6", "--out", str(out3)])
        == EXIT_OK
    )
    assert (out1 / "F_matrix.csv").read_bytes() != (out3 / "F_matrix.csv").read_bytes()
    capsys.readouterr()


def test_flag_overrides(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "scn.json")
    out = tmp_path / "out"
    code = main(
        [
            "forward",
            "--scenario",
            scenario,
            "--lambda",
            "3.5",
            "--nodes",
            "96",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == 3.5
    assert payload["n_nodes"] == 96


def test_reconstruct_writes_indicator_artifacts(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path / "scn.json",
        grid={"bounds": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 21,
              "margin_band": 0.2},
        reconstruction={"rule": "fixed_threshold", "level": 0.2},
    )
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["jaccard"] > 0.8
    assert summary["truncation_k"] >= 1
    with open(out / "indicator.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "picard"]
    assert len(rows) == 1 + 21 * 21
    pgm = (out / "indicator.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "21 21" and pgm[2] == "255"
    pixels = [int(v) for line in pgm[3:] for v in line.split()]
    assert len(pixels) == 441 and min(pixels) >= 0 and max(pixels) <= 255
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["jaccard"] == summary["jaccard"]
    assert metrics["bc_kind"] == "D"


def test_reconstruct_screen_arc_report(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path / "scn.json",
        geometry={
            "shape": "circle",
            "params": {"radius": 1.0},
            "n_nodes": 96,
            "screen": {"interval": [0.0, 3.141592653589793], "grading_beta": 0.6},
        },
        probe={"center": [0.0, 0.0], "radius": 4.0, "n_points": 48},
        reconstruction={"arc_sweep": {"arc_length": 0.39269908169872414,
                                      "count": 16, "n_quad": 64}},
    )
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    report = json.loads((out / "arc_report.json").read_text())
    assert summary["arc_sweep"] == report
    assert report["separation_ratio"] > 10.0
    with open(out / "arcs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["center", "indicator", "inside_screen"]
    assert len(rows) == 17
    assert {r[2] for r in rows[1:]} == {"0", "1"}


def test_validation_exit_codes(tmp_path, capsys):
    cases = [
        # spectral parameter at or below the declared bound
        dict(boundary_condition={"kind": "D", "lambda_bound": 8.3}),
        dict(geometry={"shape": "hexagon", "params": None}),
        dict(grid={"resolution": 1}),
        # a screen covering the whole boundary is not a screen
        dict(
            geometry={
                "shape": "circle",
                "params": {"radius": 1.0},
                "n_nodes": 64,
                "screen": {"interval": [0.0, 6.283185307179586]},
            }
        ),
        # probe ring inside the scatterer
        dict(probe={"center": [0.0, 0.0], "radius": 0.5, "n_points": 16}),
    ]
    for i, blocks in enumerate(cases):
        scenario = write_scenario(tmp_path / f"scn{i}.json", **blocks)
        out = tmp_path / f"out{i}"
        code = main(["forward", "--scenario", scenario, "--out", str(out)])
        assert code == EXIT_VALIDATION, f"case {i}: expected 2, got {code}"
        err = capsys.readouterr().err
        assert "validation error:" in err


def test_numerical_exit_code_on_overflow(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "scn.json", spectral={"lambda": 1e7})
    out = tmp_path / "out"
    code = main(["forward", "--scenario", scenario, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure:" in capsys.readouterr().err


def test_verify_passes_and_detects_injected_fault(tmp_path, capsys, monkeypatch):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("[PASS]")) == 6
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert report["n_failed"] == 0

    # the fault: a sign error in the hypersingular operator, so every
    # Neumann M comes out negative definite
    assemble_M = boundary_ops.assemble_M

    def negated_neumann(bc, geom, lam):
        op = assemble_M(bc, geom, lam)
        return dataclasses.replace(op, matrix=-op.matrix) if bc.kind == "N" else op

    monkeypatch.setattr(boundary_ops, "assemble_M", negated_neumann)
    out2 = tmp_path / "fault"
    code = main(["verify", "--out", str(out2)])
    assert code == EXIT_CHECK_FAILURE
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("[FAIL] definiteness_suite") for ln in lines)
    report = json.loads((out2 / "verify_report.json").read_text())
    assert report["n_failed"] == 1


def test_selftest_exit_code(capsys):
    assert main(["selftest"]) == EXIT_OK
    capsys.readouterr()
