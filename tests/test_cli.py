"""End-to-end tests of the command line: scenarios, artifacts, exit codes."""

import csv
import dataclasses
import gc
import json
import pathlib
import weakref

import numpy as np
import pytest

from lapscat import boundary_ops, cli, data_operator
from lapscat.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
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
    v = cli._resolve(raw)
    assert v["seed"] == 3
    for block in ("geometry", "boundary_condition", "probe", "spectral", "grid", "noise"):
        assert v[block] == raw[block]
        assert all(v[f"{block}.{key}"] == value for key, value in raw[block].items())
    # an absent key reads as its default, an absent optional block as None
    assert v["grid.bounds"] == [[-2.5, 2.5], [-2.5, 2.5]]
    assert v["reconstruction.mode"] == "picard" and v["geometry.screen"] is None


def test_scenario_rejects_malformed_documents():
    good = {
        "schema_version": 1,
        "geometry": {"shape": "circle", "params": {"radius": 1.0}},
        "boundary_condition": {"kind": "D"},
        "probe": {},
        "spectral": {"lambda": 2.0},
    }
    with pytest.raises(ScenarioError):
        cli._resolve({**good, "schema_version": 2})
    with pytest.raises(ScenarioError):
        cli._resolve({k: v for k, v in good.items() if k != "spectral"})
    with pytest.raises(ScenarioError):
        cli._resolve({**good, "extras": {}})
    with pytest.raises(ScenarioError):
        cli._resolve(["not", "an", "object"])
    with pytest.raises(ScenarioError):  # True == 1
        cli._resolve({**good, "schema_version": True})


def test_coefficient_expression_evaluation():
    doc = {
        "schema_version": 1,
        "geometry": {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 32},
        "boundary_condition": {
            "kind": "theta",
            "coefficient": "1.0 + 0.5*cos(t)",
        },
        "probe": {"n_points": 16},
        "spectral": {"lambda": 2.0},
    }
    _, _, bc, _, _, _ = build_pipeline(cli._resolve(doc))
    t = np.linspace(0.0, 2 * np.pi, 7)
    np.testing.assert_allclose(bc.coefficient(t), 1.0 + 0.5 * np.cos(t), rtol=1e-15)
    # the expression namespace is closed: no builtins leak through, and the
    # expression is tried on reading the scenario
    doc["boundary_condition"]["coefficient"] = "__import__('os').getcwd()"
    with pytest.raises(ScenarioError, match="coefficient expression"):
        cli._resolve(doc)


@pytest.mark.parametrize("expr", [
    "().__class__.__base__.__subclasses__().__len__() + 0*t",  # attribute access
    "t.__class__",
    "cos(t, out=t)",
    "cos(t, t)",  # in place: t is read-only, as the nodes' parameters are
    "cos",
    "pi(t)",
    "t if t else 1",
    "[t][0]",
    "True + t",
    "9**9**9",  # an int power would run on; a float one overflows
    "1 +",
])
def test_coefficient_expression_refuses_all_but_arithmetic(tmp_path, capsys, expr):
    scenario = write_scenario(
        tmp_path / "scn.json", boundary_condition={"kind": "theta", "coefficient": expr}
    )
    for command in ("forward", "verify"):
        assert main([command, "--scenario", scenario, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "coefficient expression" in capsys.readouterr().err


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


def test_forward_analyses_M_once(tmp_path, capsys, monkeypatch):
    # one eigvalsh of M feeds the sign report and the condition guard;
    # F applies M^{-1} by a solve, so no eigh of M is made
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            calls[_name] += np.shape(a) == (32, 32)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    scenario = write_scenario(
        tmp_path / "scn.json",
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 32},
        probe={"center": [0.0, 0.0], "radius": 4.0, "n_points": 16},
    )
    assert main(["forward", "--scenario", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"eigvalsh": 1, "eigh": 0}


@pytest.mark.parametrize("screen", [False, True])
def test_forward_drops_the_geometry_before_writing(tmp_path, capsys, monkeypatch, screen):
    # the writes need only the payload, M's matrix and F; the geometry, its
    # assembly plan and its kept M are freed by reference counting alone
    geoms = []
    make_curve = cli.make_curve

    def watched_curve(*args, **kwargs):
        geom = make_curve(*args, **kwargs)
        geoms.append(weakref.ref(geom))
        return geom

    monkeypatch.setattr(cli, "make_curve", watched_curve)
    alive = []
    write = data_operator.write_matrix_csv

    def spying_write(mat, path):
        alive.append(geoms[0]() is not None)
        write(mat, path)

    monkeypatch.setattr(data_operator, "write_matrix_csv", spying_write)
    geometry = {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64}
    if screen:
        geometry["screen"] = {"interval": [0.0, 3.14159], "grading_beta": 0.5}
    scenario = write_scenario(tmp_path / "scn.json", geometry=geometry)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = main(["forward", "--scenario", scenario, "--out", str(tmp_path / "out")])
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert code == EXIT_OK
    assert len(geoms) == 1
    assert alive == [False, False]


@pytest.mark.parametrize("shape, n, bc", [
    # M_alpha of the kite at alpha = -10 is indefinite at lambda 2
    ("kite", 128, {"kind": "alpha", "coefficient": -10.0}),
    # M_theta at theta = -40 comes out negative definite, the wrong class
    ("circle", 128, {"kind": "theta", "coefficient": -40.0}),
])
@pytest.mark.parametrize("command", ["forward", "reconstruct"])
def test_warns_when_M_lacks_the_admissible_class(tmp_path, capsys, command, shape, n, bc):
    params = {"radius": 1.0} if shape == "circle" else None
    scenario = write_scenario(
        tmp_path / "scn.json",
        geometry={"shape": shape, "params": params, "n_nodes": n},
        boundary_condition=bc,
        grid={"resolution": 8},
    )
    assert main([command, "--scenario", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1
    assert "definite_positive" in warnings[0]


def test_benchmark_scenarios_do_not_warn(tmp_path, capsys, monkeypatch):
    # the four reconstruct scenarios of perfbench/workloads.py
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for op in workloads.reconstruct(1):
        path = tmp_path / f"{op.name}.json"
        path.write_text(json.dumps(op.scenario))
        argv = [op.spec["command"], "--scenario", str(path), "--out", str(tmp_path / op.name)]
        assert main(argv) == EXIT_OK, op.name
        assert "warning" not in capsys.readouterr().err, op.name


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


def test_arc_sweep_on_another_shape_takes_that_shape_s_defaults(tmp_path, capsys):
    # a kite sweep on a circle screen was given the circle's params, which
    # the kite refused (exit 2); a sweep on the geometry's shape still is
    for shape, params in (("circle", {"radius": 1.0}), ("kite", None)):
        scenario = write_scenario(
            tmp_path / "scn.json", geometry=SCREEN,
            reconstruction={"arc_sweep": {"count": 8, "n_quad": 32, "shape": shape}})
        assert cli._resolve(cli.load_scenario(scenario))["reconstruction.arc_sweep.params"] \
            == params
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "arc_report.json").exists()


def test_reconstruct_refuses_arc_sweep_without_inside_arc(tmp_path, capsys):
    # no arc of length 3.2 fits in [0, 3.14159]: the report would compare
    # the outside arcs with nothing
    scenario = write_scenario(
        tmp_path / "scn.json",
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
                  "screen": {"interval": [0.0, 3.14159]}},
        reconstruction={"arc_sweep": {"arc_length": 3.2, "count": 8}},
    )
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error:" in capsys.readouterr().err
    assert not (out / "arc_report.json").exists()


def test_verify_takes_no_scenario_overrides(capsys):
    # --lambda and --nodes change a forward or reconstruct scenario only
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lambda", "5"])
    assert exc.value.code == EXIT_VALIDATION
    assert "--lambda" in capsys.readouterr().err


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    # a check's generator raised ValueError: one failed check and exit 1
    out = tmp_path / "verify"
    assert main(["verify", "--seed", "-1", "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error: --seed = -1 is invalid" in capsys.readouterr().err
    assert not out.exists()


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
        # a negative noise level used to be skipped silently
        dict(noise={"level": -0.5}),
        # non-finite values: a NaN bound ignored the floor, a NaN or
        # infinite noise level died in eigh with a traceback
        dict(boundary_condition={"kind": "D", "lambda_bound": float("nan")}),
        dict(noise={"level": float("nan")}),
        dict(noise={"level": float("inf")}),
        # a screen grading outside [0, 1) used to run ungraded
        dict(geometry={**SCREEN, "screen": {"interval": [0.0, 3.14], "grading_beta": -0.5}}),
        dict(geometry={**SCREEN, "screen": {"interval": [0.0, 3.14],
                                            "grading_beta": float("nan")}}),
        # a negative band scored points on the boundary; a NaN or infinite
        # one ran the whole sweep before segmentation refused it
        dict(grid={"resolution": 8, "margin_band": -0.1}),
        dict(grid={"resolution": 8, "margin_band": float("nan")}),
        dict(grid={"resolution": 8, "margin_band": float("inf")}),
    ]
    for i, blocks in enumerate(cases):
        scenario = write_scenario(tmp_path / f"scn{i}.json", **blocks)
        out = tmp_path / f"out{i}"
        code = main(["forward", "--scenario", scenario, "--out", str(out)])
        assert code == EXIT_VALIDATION, f"case {i}: expected 2, got {code}"
        err = capsys.readouterr().err
        assert "validation error:" in err


# a small grid, so that reconstruct has something to reconstruct
GRID = dict(grid={"resolution": 8})
MALFORMED_VALUES = {
    "spectral_lambda": dict(spectral={"lambda": "two"}),
    "geometry_n_nodes": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": "many"}
    ),
    "seed": dict(seed="abc"),
    "grid_resolution": dict(grid={"resolution": "fine"}),
    "probe_center": dict(probe={"center": 3.0, "radius": 4.0, "n_points": 32}),
    "geometry_list": dict(geometry=["circle", 64]),
    "noise_level": dict(noise={"level": "high"}),
    "screen_list": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
                  "screen": [0.0, 3.14]}
    ),
    "shape_param": dict(geometry={"shape": "circle", "params": {"radius": "big"}}),
    "shape_center": dict(geometry={"shape": "circle", "params": {"center": ["a", 0.0]}}),
    "coefficient_list": dict(boundary_condition={"kind": "alpha", "coefficient": ["a"]}),
    "arc_sweep_list": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
                  "screen": {"interval": [0.0, 3.14]}},
        reconstruction={"arc_sweep": [16]},
    ),
    # blocks given as lists of key/value pairs, which dict() would accept
    "probe_pairs": dict(probe=[["radius", 5.0], ["n_points", 32]]),
    "screen_pairs": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
                  "screen": [["interval", [0.0, 3.14]]]}
    ),
    "arc_sweep_pairs": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
                  "screen": {"interval": [0.0, 3.14]}},
        reconstruction={"arc_sweep": [["count", 16], ["arc_length", 0.3]]},
    ),
    # numbers given as strings or bools, which float() read: each ran to
    # exit 0, "2" as lambda 2.0 and true as lambda 1
    "lambda_string": dict(spectral={"lambda": "2"}),
    "lambda_bool": dict(spectral={"lambda": True}),
    "noise_level_string": dict(noise={"level": "1e-3"}),
    "truncation_floor_string": dict(spectral={"lambda": 2.0, "truncation_floor": "1e-8"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_scenario_values_are_validation_errors(case, tmp_path, capsys):
    # values of the wrong type are a validation error naming the block and
    # key, not a traceback with the check-failure exit code; the grid keeps
    # reconstruct from refusing the scenario for having nothing to do
    scenario = write_scenario(tmp_path / "scn.json", **{**GRID, **MALFORMED_VALUES[case]})
    code = main(["reconstruct", "--scenario", scenario, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "validation error:" in err


SCREEN = {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64,
          "screen": {"interval": [0.0, 3.14]}}
# a misspelled key or shape parameter would read as its default: each
# scenario below ran to exit 0 with the default in its place
MISSPELLED_KEYS = {
    "geometry": ("n_node", dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_node": 32})),
    "geometry.screen": ("grading_bta", dict(
        geometry={**SCREEN, "screen": {"interval": [0.0, 3.14], "grading_bta": 0.6}})),
    "boundary_condition": ("lambda_bnd", dict(
        boundary_condition={"kind": "D", "lambda_bnd": 3})),
    "probe": ("n_point", dict(probe={"center": [0.0, 0.0], "radius": 4.0, "n_point": 16})),
    "spectral": ("lamda", dict(spectral={"lamda": 50})),
    "grid": ("resolutoin", dict(grid={"resolutoin": 16})),
    "reconstruction": ("levle", dict(reconstruction={"levle": 0.2})),
    "reconstruction.arc_sweep": ("cuont", dict(
        geometry=SCREEN, reconstruction={"arc_sweep": {"cuont": 8}})),
    "noise": ("levle", dict(noise={"levle": 0.1})),
    "outputs": ("dri", dict(outputs={"dri": "elsewhere"})),
    "circle": ("raduis", dict(geometry={"shape": "circle", "params": {"raduis": 0.5}})),
    "ellipse": ("centre", dict(
        geometry={"shape": "ellipse", "params": {"a": 1.0, "b": 0.5, "centre": [1, 0]}})),
    "kite": ("scale", dict(geometry={"shape": "kite", "params": {"scale": 0.5}})),
    "peanut": ("scael", dict(geometry={"shape": "peanut", "params": {"scael": 0.5}})),
}


@pytest.mark.parametrize("case", sorted(MISSPELLED_KEYS))
def test_misspelled_keys_are_validation_errors(case, tmp_path, capsys, monkeypatch):
    typo, blocks = MISSPELLED_KEYS[case]
    scenario = write_scenario(tmp_path / "scn.json", **{**GRID, **blocks})
    monkeypatch.chdir(tmp_path)   # outputs.dir is read only without --out
    assert main(["reconstruct", "--scenario", scenario]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown") and repr(typo) in err


def _no_assembly(*args, **kwargs):
    raise AssertionError("assemble_M called on a scenario that should be refused")


# int() read a fractional count as its floor: each scenario below ran to
# exit 0 with a result
FRACTIONAL_COUNTS = {
    "scenario.seed": dict(seed=2.5),
    "geometry.n_nodes": dict(
        geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 32.5}),
    "probe.n_points": dict(probe={"center": [0.0, 0.0], "radius": 4.0, "n_points": 16.7}),
    "grid.resolution": dict(grid={"resolution": 16.9}),
    "reconstruction.arc_sweep.count": dict(
        geometry=SCREEN, reconstruction={"arc_sweep": {"count": 8.5}}),
    "reconstruction.arc_sweep.n_quad": dict(
        geometry=SCREEN, reconstruction={"arc_sweep": {"n_quad": 64.5}}),
}


@pytest.mark.parametrize("key", sorted(FRACTIONAL_COUNTS))
def test_fractional_counts_are_refused_before_assembly(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(boundary_ops, "assemble_M", _no_assembly)
    scenario = write_scenario(tmp_path / "scn.json", **{**GRID, **FRACTIONAL_COUNTS[key]})
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_VALIDATION
    assert f"validation error: {key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, count", [(3, 3), (64.0, 64), (-2, -2)])
def test_count_takes_whole_numbers(value, count):
    assert cli._count(value) == count and type(cli._count(value)) is int


@pytest.mark.parametrize("value", [32.5, True, False, "32", None, [32],
                                   float("inf"), float("nan")])
def test_count_refuses_all_but_whole_numbers(value):
    with pytest.raises((TypeError, ValueError)):
        cli._count(value)


PROBE = {"center": [0.0, 0.0], "radius": 4.0, "n_points": 32}
INF, NAN = float("inf"), float("nan")


# JSON numbers past the float range load as inf, and NaN as nan: the probe
# was refused as "touching the scatterer" and the grid failed in bessel_k
# after M and F were built
@pytest.mark.parametrize("name, blocks", [
    ("probe radius", dict(probe={**PROBE, "radius": INF})),
    ("probe radius", dict(probe={**PROBE, "radius": NAN})),
    ("probe.center", dict(probe={**PROBE, "center": [INF, 0.0]})),
    ("probe.center", dict(probe={**PROBE, "center": [0.0, NAN]})),
    ("grid.bounds", dict(grid={"bounds": [[-INF, 2.5], [-2.5, 2.5]], "resolution": 8})),
    ("grid.bounds", dict(grid={"bounds": [[-2.5, 2.5], [-2.5, NAN]], "resolution": 8})),
])
@pytest.mark.parametrize("command", ["forward", "reconstruct", "verify"])
def test_non_finite_probe_and_grid_are_refused_before_assembly(
        command, name, blocks, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(boundary_ops, "assemble_M", _no_assembly)
    scenario = write_scenario(tmp_path / "scn.json", **{**GRID, **blocks})
    out = tmp_path / "out"
    assert main([command, "--scenario", scenario, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and name in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "reconstruct"])
def test_misspelled_outputs_key_is_refused_before_any_assembly(
        command, tmp_path, capsys, monkeypatch):
    # the outputs block is checked when the command starts, not when it
    # writes, so a typo there costs no assembly, sweep or segmentation
    def no_assembly(*args, **kwargs):
        raise AssertionError("assemble_M called before the outputs block was checked")

    monkeypatch.setattr(boundary_ops, "assemble_M", no_assembly)
    scenario = write_scenario(tmp_path / "scn.json", **GRID, outputs={"dri": "elsewhere"})
    monkeypatch.chdir(tmp_path)
    assert main([command, "--scenario", scenario]) == EXIT_VALIDATION
    assert "'dri'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]


def test_numerical_exit_code_on_overflow(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "scn.json", spectral={"lambda": 1e7})
    out = tmp_path / "out"
    code = main(["forward", "--scenario", scenario, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure:" in capsys.readouterr().err


def test_forward_refuses_lambda_past_resolvable_cap(tmp_path, capsys):
    # kite, n=256, lambda=200 (cap 75.1): forward used to exit 0 with an
    # "indefinite" sign report for an operator that is definite
    scenario = write_scenario(
        tmp_path / "scn.json",
        geometry={"shape": "kite", "n_nodes": 256},
        boundary_condition={"kind": "N"},
        spectral={"lambda": 200.0},
    )
    out = tmp_path / "out"
    code = main(["forward", "--scenario", scenario, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "resolvable cap" in capsys.readouterr().err
    assert not (out / "sign_report.json").exists()


SCREEN_GRID = dict(geometry=SCREEN, grid={"resolution": 8})
# runs refused with exit 2 or 3, while reading the scenario or while
# computing: none may leave its output directory, or a screen's arc files
REFUSED_RUNS = {
    "misspelled_key": ("forward", EXIT_VALIDATION, dict(spectral={"lamda": 50})),
    "rule": ("reconstruct", EXIT_VALIDATION,
             dict(SCREEN_GRID, reconstruction={"rule": "otsuu"})),
    "mode": ("reconstruct", EXIT_VALIDATION,
             dict(SCREEN_GRID, reconstruction={"mode": "inff"})),
    "level": ("reconstruct", EXIT_VALIDATION,
              dict(GRID, reconstruction={"level": 1.5})),
    "noise": ("forward", EXIT_VALIDATION, dict(noise={"level": -0.5})),
    "negative_margin_band": ("reconstruct", EXIT_VALIDATION,
                             dict(grid={"resolution": 8, "margin_band": -0.1})),
    "nan_margin_band": ("reconstruct", EXIT_VALIDATION,
                        dict(grid={"resolution": 8, "margin_band": float("nan")})),
    "inf_margin_band": ("reconstruct", EXIT_VALIDATION,
                        dict(grid={"resolution": 8, "margin_band": float("inf")})),
    # the circle's resolvable cap is 169
    "past_cap": ("forward", EXIT_NUMERICAL, dict(spectral={"lambda": 400.0})),
}


@pytest.mark.parametrize("case", sorted(REFUSED_RUNS))
def test_refused_run_leaves_nothing_on_disk(case, tmp_path, capsys):
    command, exit_code, blocks = REFUSED_RUNS[case]
    scenario = write_scenario(tmp_path / "scn.json", **blocks)
    out = tmp_path / "out"
    assert main([command, "--scenario", scenario, "--out", str(out)]) == exit_code
    capsys.readouterr()
    assert not out.exists()


def _refused_before_assembly(command, blocks, tmp_path, capsys, monkeypatch, *flags) -> str:
    """stderr of a run that must exit 2 before any assembly of M, leaving no
    file or directory beside its scenario."""
    monkeypatch.setattr(boundary_ops, "assemble_M", _no_assembly)
    monkeypatch.chdir(tmp_path)
    scenario = write_scenario(tmp_path / "scn.json", **blocks)
    assert main([command, "--scenario", scenario, *flags]) == EXIT_VALIDATION
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    return err


# a scenario that reads every key of the table: a screen and a grid
FULL = dict(SCREEN_GRID, boundary_condition={"kind": "D"}, probe=PROBE, spectral={"lambda": 2.0})


@pytest.mark.parametrize("value", [True, {"x": 1}])
@pytest.mark.parametrize("name", sorted(cli._TABLE))
@pytest.mark.parametrize("command", ["forward", "reconstruct", "verify"])
def test_every_table_entry_refuses_a_wrong_type_before_assembly(
        command, name, value, tmp_path, capsys, monkeypatch):
    blocks = json.loads(json.dumps(FULL))
    cli._resolve({"schema_version": 1, **blocks})  # reads as it is
    *path, key = name.removeprefix("scenario.").split(".")
    doc = blocks
    for part in path:
        doc = doc.setdefault(part, {})
    doc[key] = value
    _refused_before_assembly(command, blocks, tmp_path, capsys, monkeypatch)


# the first six were refused (exit 2) only after M and F were assembled, or
# not at all under forward, which ignored the reconstruction block; the rest
# ran the whole pipeline and then died with a traceback and exit 1, in
# os.makedirs, in the boundary condition's lookup, in numpy's generator and
# in the curve of the test arcs
REFUSED_LATE = {
    "noise.level": ("noise.level", dict(noise={"level": -0.5}), ()),
    "level": ("reconstruction.level", dict(reconstruction={"level": 1.5}), ()),
    "rule": ("reconstruction.rule", dict(reconstruction={"rule": "otsuu"}), ()),
    "mode": ("reconstruction.mode", dict(reconstruction={"mode": "inff"}), ()),
    "truncation_floor": ("spectral.truncation_floor",
                         dict(spectral={"lambda": 2.0, "truncation_floor": 2.0}), ()),
    "arc_length": ("reconstruction.arc_sweep.arc_length",
                   dict(reconstruction={"arc_sweep": {"arc_length": 7.0}}), ()),
    "outputs_dir_number": ("outputs.dir", dict(outputs={"dir": 5}), ()),
    "outputs_dir_list": ("outputs.dir", dict(outputs={"dir": ["a"]}), ()),
    "kind_list": ("boundary_condition.kind", dict(boundary_condition={"kind": ["D"]}), ()),
    "negative_seed": ("scenario.seed", dict(seed=-1, noise={"level": 1e-3}), ()),
    "negative_seed_flag": ("scenario.seed", dict(noise={"level": 1e-3}), ("--seed", "-1")),
    "arc_params_string": ("reconstruction.arc_sweep.params",
                          dict(reconstruction={"arc_sweep": {"params": {"radius": "big"}}}), ()),
}


# verify takes no --seed from the table: test_verify_refuses_a_negative_seed
@pytest.mark.parametrize("command, case", [
    (command, case) for command in ("forward", "reconstruct", "verify")
    for case in sorted(REFUSED_LATE) if (command, case) != ("verify", "negative_seed_flag")])
def test_values_refused_late_are_refused_before_assembly(
        command, case, tmp_path, capsys, monkeypatch):
    key, blocks, flags = REFUSED_LATE[case]
    err = _refused_before_assembly(command, {**FULL, **blocks},
                                   tmp_path, capsys, monkeypatch, *flags)
    assert f"validation error: {key} = " in err


# numpy read a list's "0" as 0.0 and its false as 0.0 (true as 1.0): each
# scenario below ran to exit 0
SHIFTED = {"shape": "circle", "params": {"radius": 0.4, "center": [0.5, 0.5]}, "n_nodes": 64}
LIST_ELEMENTS = {
    ("probe.center", "string"): dict(probe={**PROBE, "center": ["0", "0"]}),
    ("probe.center", "bool"): dict(probe={**PROBE, "center": [False, False]}),
    ("grid.bounds", "string"): dict(grid={"bounds": [["-2.5", "2.5"], [-2.5, 2.5]],
                                          "resolution": 8}),
    ("grid.bounds", "bool"): dict(geometry=SHIFTED, grid={"bounds": [[False, 2.5], [-2.5, 2.5]],
                                                          "resolution": 8}),
    ("geometry.screen.interval", "string"): dict(
        geometry={**SCREEN, "screen": {"interval": ["0", 3.14]}}),
    ("geometry.screen.interval", "bool"): dict(
        geometry={**SCREEN, "screen": {"interval": [False, 3]}}),
    ("boundary_condition.coefficient", "string"): dict(
        boundary_condition={"kind": "alpha", "coefficient": ["1.5"] * 64}),
    ("boundary_condition.coefficient", "bool"): dict(
        boundary_condition={"kind": "alpha", "coefficient": [True] * 64}),
}


@pytest.mark.parametrize("key, element", sorted(LIST_ELEMENTS))
def test_list_elements_must_be_numbers(key, element, tmp_path, capsys, monkeypatch):
    blocks = {**FULL, **LIST_ELEMENTS[key, element]}
    err = _refused_before_assembly("reconstruct", blocks, tmp_path, capsys, monkeypatch)
    assert f"validation error: {key} = " in err


@pytest.mark.parametrize("kind, coef", [("D", 5.0), ("N", "cos(t)")])
@pytest.mark.parametrize("command", ["forward", "reconstruct", "verify"])
def test_coefficient_on_D_or_N_is_refused_before_assembly(
        command, kind, coef, tmp_path, capsys, monkeypatch):
    # each ran plain D or N to exit 0, the coefficient unread
    blocks = {**FULL, "boundary_condition": {"kind": kind, "coefficient": coef}}
    err = _refused_before_assembly(command, blocks, tmp_path, capsys, monkeypatch)
    assert f"{kind} condition takes no coefficient" in err


# each ran verify to exit 0 while forward refused it: verify read the keys
# of the scenario but never built its curve, condition, probe or grid
BUILT_LATE = {
    "coefficient_on_D": dict(boundary_condition={"kind": "D", "coefficient": 5.0}),
    "alpha_without_coefficient": dict(boundary_condition={"kind": "alpha"}),
    "probe_layout": dict(probe={**PROBE, "layout": "rings"}),
    "probe_overlaps_scatterer": dict(probe={**PROBE, "radius": 1.0}),
    "probe_n_points": dict(probe={**PROBE, "n_points": 4}),
    "grid_misses_scatterer": dict(grid={"bounds": [[-0.5, 0.5], [-0.5, 0.5]], "resolution": 8}),
    "odd_n_nodes": dict(geometry={"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 63}),
    # the coefficient was checked against the curve only in assemble_M
    "alpha_list_of_16_on_64_nodes": dict(
        boundary_condition={"kind": "alpha", "coefficient": [1.0] * 16}),
    "alpha_list_holding_a_zero": dict(
        boundary_condition={"kind": "alpha", "coefficient": [1.0] * 63 + [0.0]}),
    "alpha_of_both_signs_on_a_screen": dict(
        geometry=SCREEN, boundary_condition={"kind": "alpha", "coefficient": "cos(t) + 0.3"}),
}


@pytest.mark.parametrize("case", sorted(BUILT_LATE))
@pytest.mark.parametrize("command", ["forward", "verify"])
def test_verify_refuses_what_forward_refuses(command, case, tmp_path, capsys, monkeypatch):
    _refused_before_assembly(command, BUILT_LATE[case], tmp_path, capsys, monkeypatch)


# float() read "1" and true as 1.0: each ran to exit 0, a string or bool
# geometry radius as the unit circle
@pytest.mark.parametrize("params", [{"radius": "1"}, {"radius": True}, {"center": [0.0, "0"]}])
@pytest.mark.parametrize("curve", ["geometry", "arc_sweep"])
def test_shape_parameters_take_numbers_only(curve, params, tmp_path, capsys, monkeypatch):
    blocks = {"geometry": dict(geometry={**SCREEN, "params": params}),
              "arc_sweep": dict(reconstruction={"arc_sweep": {"params": params}})}[curve]
    err = _refused_before_assembly("forward", {**FULL, **blocks}, tmp_path, capsys, monkeypatch)
    assert "not a number" in err


# null reads as an absent block where the block is optional, and 1.0 is
# schema_version 1; a null seed or arc_sweep is refused
NULLS_AND_FLOATS = {
    "reconstruction_null": (EXIT_OK, dict(reconstruction=None)),
    "noise_null": (EXIT_OK, dict(noise=None)),
    "outputs_null": (EXIT_OK, dict(outputs=None)),
    "grid_null": (EXIT_OK, dict(grid=None)),
    "screen_null": (EXIT_OK, dict(geometry={**SCREEN, "screen": None})),
    "schema_version_float": (EXIT_OK, dict(schema_version=1.0)),
    "seed_null": (EXIT_VALIDATION, dict(seed=None)),
    "arc_sweep_null": (EXIT_VALIDATION, dict(reconstruction={"arc_sweep": None})),
}


@pytest.mark.parametrize("case", sorted(NULLS_AND_FLOATS))
def test_null_and_float_values_keep_their_verdicts(case, tmp_path, capsys):
    code, blocks = NULLS_AND_FLOATS[case]
    scenario = write_scenario(tmp_path / "scn.json", **blocks)
    assert main(["forward", "--scenario", scenario, "--out", str(tmp_path / "out")]) == code
    capsys.readouterr()


@pytest.mark.parametrize("command", ["forward", "reconstruct"])
def test_a_run_resolves_its_scenario_once(command, tmp_path, capsys, monkeypatch):
    # run_forward or run_reconstruct and then build_pipeline each resolved it
    calls = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda *args: calls.append(args) or resolve(*args))
    scenario = write_scenario(tmp_path / "scn.json", **GRID)
    assert main([command, "--scenario", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_reconstruct_refuses_nothing_to_reconstruct_before_assembly(tmp_path, capsys,
                                                                    monkeypatch):
    # neither a grid nor a screen: there is nothing to compute past F
    def assemble_M(*args):
        raise AssertionError("reconstruct assembled M")

    monkeypatch.setattr(boundary_ops, "assemble_M", assemble_M)
    scenario = write_scenario(tmp_path / "scn.json")
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scenario, "--out", str(out)]) == EXIT_VALIDATION
    assert "needs a grid block or a geometry.screen block" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("band", [-0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["forward", "reconstruct", "verify"])
def test_bad_margin_band_is_refused_before_assembly(tmp_path, capsys, monkeypatch,
                                                    command, band):
    def assemble_M(*args):
        raise AssertionError(f"{command} assembled M")

    monkeypatch.setattr(boundary_ops, "assemble_M", assemble_M)
    scenario = write_scenario(tmp_path / "scn.json",
                              grid={"resolution": 8, "margin_band": band})
    out = tmp_path / "out"
    assert main([command, "--scenario", scenario, "--out", str(out)]) == EXIT_VALIDATION
    assert "grid.margin_band" in capsys.readouterr().err
    assert not out.exists()


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
