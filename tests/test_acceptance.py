"""Acceptance suite: ten end-to-end behaviors, one test and one line each.

Each test prints a single [PASS]/[FAIL] line (visible with -s, or in the
captured output on failure) and then asserts the stated thresholds, so a
red test always shows its measured numbers.
"""

import csv
import json
import math
import time

import numpy as np

from scipy import special

from lapscat import boundary_ops, data_operator, time_domain
from lapscat.boundary_ops import BoundaryCondition
from lapscat.cli import _resolve, run_forward, run_reconstruct
from lapscat.geometry import (
    _signed_distance,
    make_curve,
    make_grid,
    make_probe,
    make_screen,
)
from lapscat.kernels import SpectralParam, fundamental_solution
from lapscat.reconstruction import (
    TestArc,
    make_screen_test_vector,
    make_test_vector,
    picard_indicator,
    segment,
    sweep,
)
from lapscat.selftest import REGISTRY, run_all

LAM2 = SpectralParam(2.0)


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name} ({detail})")


def _sov_circle_sl_eigenvalue(m: int, lam: float, radius: float) -> float:
    """Separation of variables on the circle: R I_m(sR) K_m(sR), s=sqrt(lam)."""
    z = math.sqrt(lam) * radius
    return radius * float(special.iv(m, z) * special.kv(m, z))


def _brute_force_circle_sl_eigenvalue(m: int, lam: float) -> float:
    """512-node dense quadrature of the mode integral, no operator code.

    The unit-circle single-layer trace is a convolution with
    K0(2 s sin(u/2)) / (2 pi), so its mode-m eigenvalue is
    (1/pi) int_0^pi K0(2 s sin(u/2)) cos(m u) du.  The integrand is
    log-singular at u = 0; panels are graded geometrically into the
    singularity and uniform elsewhere, 8-point Gauss-Legendre per
    panel, 64 panels, 512 nodes total.
    """
    s = math.sqrt(lam)
    delta = math.pi / 32.0
    edges = (
        [0.0]
        + [delta * 0.62**k for k in range(31, 0, -1)]
        + list(np.linspace(delta, math.pi, 33))
    )
    gn, gw = np.polynomial.legendre.leggauss(8)
    total = 0.0
    count = 0
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (b - a) * gn + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw
        kern = special.k0(2.0 * s * np.sin(0.5 * u))
        total += float(np.sum(w * kern * np.cos(m * u)))
        count += u.size
    assert count == 512
    return total / math.pi


def test_criterion_1_circle_operator_accuracy():
    t0 = time.time()
    # independent dense-quadrature values first, checked against the
    # separation-of-variables closed form
    worst_bf = 0.0
    sov = {}
    for m in range(21):
        exact = _sov_circle_sl_eigenvalue(m, 1.0, 1.0)
        brute = _brute_force_circle_sl_eigenvalue(m, 1.0)
        sov[m] = exact
        worst_bf = max(worst_bf, abs(brute - exact) / abs(exact))
    assert worst_bf < 1e-6, f"brute force disagrees with closed form: {worst_bf:.2e}"

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    # the single-layer trace is minus M_D
    sl = -boundary_ops.assemble_M(boundary_ops.BoundaryCondition("D"), geom, SpectralParam(1.0)).matrix
    sw = np.sqrt(geom.weights)
    worst = 0.0
    for m in range(21):
        v = sw * np.cos(m * geom.params)
        v /= np.linalg.norm(v)
        rq = float(v @ sl @ v)
        worst = max(worst, abs(rq - sov[m]) / abs(sov[m]))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        1,
        "circle operator accuracy",
        ok,
        f"worst rel {worst:.2e}, brute-force check {worst_bf:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


def _full_check(name: str):
    """(passed, figures) of the named check in the registry's full tier."""
    check, = (c for n, c, tier in REGISTRY if n == name and tier == "full")
    return check()


def test_criterion_2_sign_definiteness_suite():
    # D/N/alpha/theta on the circle and the kite at n = 128, lambda = 1 and 4
    ok, figures = _full_check("definiteness_suite")
    n_cases, failures = figures["n_cases"], figures["failures"]
    _report(2, "sign-definiteness suite", ok and n_cases == 16,
            f"{n_cases - len(failures)}/{n_cases} cases")
    assert n_cases == 16
    assert ok, failures


def test_criterion_3_jump_relation():
    # densities 1, cos t and 1 + 0.3 sin 2t on the 128-node circle, lambda = 2
    ok, figures = _full_check("jump_relation")
    _report(3, "single-layer jump relation", ok, f"worst rel {figures['worst_residual']:.2e}")
    assert figures["tolerance"] == 1e-4
    assert ok


def test_criterion_4_gram_identity_with_convergence():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    res_200 = boundary_ops.gram_identity_residual(geom, 1.0, 2.0, 12.0, 200)["residual"]
    res_400 = boundary_ops.gram_identity_residual(geom, 1.0, 2.0, 12.0, 400)["residual"]
    ratio = res_400 / res_200
    ok = res_200 <= 1e-2 and ratio <= 0.5
    _report(
        4,
        "two-parameter volume identity",
        ok,
        f"residual {res_200:.2e}, refinement ratio {ratio:.3f}",
    )
    assert res_200 <= 1e-2
    assert ratio <= 0.5


def test_criterion_5_exterior_reproduction_and_dichotomy():
    interior = {
        "circle": [(0.0, 0.0), (0.4, 0.2), (-0.3, 0.5), (0.2, -0.6), (-0.5, -0.3)],
        "kite": [(-0.5, 0.0), (-0.8, 0.4), (-0.2, -0.5), (0.0, 0.2), (-0.9, 0.1)],
    }
    exterior = [(2.0, 0.5), (0.0, -2.4), (-2.6, 0.0)]
    tol = {"circle": 1e-6, "kite": 1e-4}
    targets = 3.0 * np.stack(
        [np.cos(np.arange(8) * np.pi / 4.0), np.sin(np.arange(8) * np.pi / 4.0)],
        axis=1,
    )
    probe = make_probe((0.0, 0.0), 4.0, 64)
    details = []
    all_ok = True
    for shape, params in (("circle", {"radius": 1.0}), ("kite", None)):
        geom = make_curve(shape, params, n_nodes=256)
        inside = _signed_distance(geom, np.array(interior[shape] + exterior)) < 0.0
        assert inside.tolist() == [True] * len(interior[shape]) + [False] * len(exterior)
        m = boundary_ops.assemble_M(BoundaryCondition(kind="D"), geom, LAM2)
        sw = np.sqrt(geom.weights)
        worst = 0.0
        for src in interior[shape]:
            xs = np.asarray(src)[None, :]
            trace = fundamental_solution(LAM2, xs, geom.nodes)
            phi = -np.linalg.solve(m.matrix, sw * trace) / sw
            vals = boundary_ops.evaluate_potential(geom, "SL", phi, targets, LAM2)
            exact = fundamental_solution(LAM2, xs, targets)
            worst = max(worst, float(np.max(np.abs(vals - exact) / np.abs(exact))))
        f = data_operator.assemble_F(BoundaryCondition("D"), geom, probe, LAM2)
        w_in = [
            picard_indicator(f, make_test_vector(probe, np.asarray(p), LAM2))
            for p in interior[shape]
        ]
        w_out = [
            picard_indicator(f, make_test_vector(probe, np.asarray(p), LAM2))
            for p in exterior
        ]
        dichotomy = min(w_in) / max(w_out)
        shape_ok = worst <= tol[shape] and dichotomy >= 10.0
        all_ok &= shape_ok
        details.append(f"{shape}: rel {worst:.1e}, dichotomy {dichotomy:.0f}x")
        assert worst <= tol[shape], f"{shape} reproduction {worst:.2e}"
        assert dichotomy >= 10.0, f"{shape} dichotomy {dichotomy:.1f}"
    _report(5, "exterior reproduction + range dichotomy", all_ok, "; ".join(details))


def test_criterion_6_reconstruction_benchmarks():
    grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), 64)
    jaccard_floor = {"circle": 0.85, "kite": 0.75}
    details = []
    all_ok = True
    for shape, params in (("circle", {"radius": 1.0}), ("kite", None)):
        geom = make_curve(shape, params, n_nodes=128)
        probe = make_probe((0.0, 0.0), 4.0, 64)
        for kind in ("D", "N"):
            t0 = time.time()
            f = data_operator.assemble_F(BoundaryCondition(kind), geom, probe, LAM2)
            igrid = sweep(f, probe, grid)
            seg = segment(
                igrid, geom, rule="fixed_threshold", level=0.05, margin_band=0.1
            )
            elapsed = time.time() - t0
            case_ok = (
                seg.accuracy >= 0.90
                and seg.jaccard >= jaccard_floor[shape]
                and elapsed < 60.0
            )
            all_ok &= case_ok
            details.append(f"{shape}/{kind}: J={seg.jaccard:.3f} acc={seg.accuracy:.3f}")
            assert seg.accuracy >= 0.90, f"{shape}/{kind} accuracy {seg.accuracy}"
            assert seg.jaccard >= jaccard_floor[shape], (
                f"{shape}/{kind} jaccard {seg.jaccard}"
            )
            assert elapsed < 60.0
    _report(6, "obstacle reconstruction benchmarks", all_ok, "; ".join(details))


def test_criterion_7_screen_benchmark():
    geom = make_curve(
        "circle", {"radius": 1.0}, n_nodes=96, cluster=(0.0, math.pi, 0.6)
    )
    screen = make_screen(geom, (0.0, math.pi))
    probe = make_probe((0.0, 0.0), 4.0, 48)
    f = data_operator.assemble_F(
        BoundaryCondition("D", screen=screen), geom, probe, LAM2
    )
    arc_len = math.pi / 8.0
    inside, outside = [], []
    for c in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        arc = TestArc("circle", {"radius": 1.0}, (c - arc_len / 2, c + arc_len / 2))
        w = picard_indicator(f, make_screen_test_vector(probe, arc, LAM2, n_quad=64))
        lo = (c - arc_len / 2) % (2.0 * math.pi)
        (inside if lo + arc_len <= math.pi + 1e-12 else outside).append(w)
    ratio = float(np.mean(inside) / np.mean(outside))
    ok = ratio >= 10.0
    _report(7, "half-circle screen benchmark", ok, f"separation ratio {ratio:.1f}")
    assert ratio >= 10.0


def test_criterion_8_truncation_bound_grid():
    t0 = time.time()
    pulses = [time_domain.PulseProfile(0.01), time_domain.PulseProfile(0.1)]
    lambdas = [4.0, 9.0, 25.0]
    horizons = [2.0, 5.0]

    def envelope(lam, t_circ, eps):
        return (math.exp(-math.sqrt(lam) * t_circ) + eps) / math.sqrt(lam)

    n_cells = 0
    n_failed = 0
    worst_measured_step = 0.0
    worst_bound_step = 0.0
    for k in range(20):
        dim = 10 + (k * 7) % 41
        model = time_domain.make_random_surrogate(dim, float(k % 2), seed=100 + k)
        rep = time_domain.verify_bound(model, pulses, lambdas, horizons)
        n_cells += rep["n_cells"]
        n_failed += rep["n_failed"]
        for t_circ in horizons:
            for pulse in pulses:
                sub = sorted(
                    (
                        c
                        for c in rep["cells"]
                        if c["t_circ"] == t_circ and c["epsilon"] == pulse.epsilon
                    ),
                    key=lambda c: c["lambda"],
                )
                for a, b in zip(sub, sub[1:]):
                    if a["measured"] == 0.0:
                        continue
                    env_ratio = envelope(b["lambda"], t_circ, pulse.epsilon) / envelope(
                        a["lambda"], t_circ, pulse.epsilon
                    )
                    worst_measured_step = max(
                        worst_measured_step, (b["measured"] / a["measured"]) / env_ratio
                    )
                    worst_bound_step = max(
                        worst_bound_step, (b["bound"] / a["bound"]) / env_ratio
                    )
    elapsed = time.time() - t0
    ok = (
        n_cells == 240
        and n_failed == 0
        and worst_measured_step <= 1.05
        and worst_bound_step <= 1.25
    )
    _report(
        8,
        "time-domain truncation bound",
        ok,
        f"{n_cells} cells, {n_failed} violations, decay steps "
        f"{worst_measured_step:.3f}/{worst_bound_step:.3f} of envelope, "
        f"{elapsed:.1f}s",
    )
    assert n_cells == 240
    assert n_failed == 0
    # both the measured error and the bound must shrink across the
    # lambda grid at least as fast as (1/sqrt(lam)) (e^{-sqrt(lam) t} + eps)
    assert worst_measured_step <= 1.05
    assert worst_bound_step <= 1.25


def test_criterion_9_laplace_and_norm_identities():
    worst_laplace = 0.0
    worst_addition = 0.0
    norm_violations = 0
    t_pairs = ((0.3, 1.1), (1.7, 0.4))
    t_grid = np.linspace(0.05, 6.0, 12)
    for k in range(10):
        model = time_domain.make_random_surrogate(8 + 2 * k, float(k % 2), 200 + k)
        for mat in (model.a_perturbed, model.a_free):
            worst_laplace = max(
                worst_laplace, time_domain.laplace_identity_residual(mat, 4.0)
            )
            for t, s in t_pairs:
                lhs = time_domain.cosine_family(mat, t + s)
                rhs = time_domain.cosine_family(mat, t) @ time_domain.cosine_family(
                    mat, s
                ) + mat @ time_domain.sine_family(mat, t) @ time_domain.sine_family(
                    mat, s
                )
                worst_addition = max(
                    worst_addition,
                    float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0)),
                )
            sb = math.sqrt(max(time_domain.eig_max(mat), 0.0))
            for t in t_grid:
                cos_bound = math.cosh(sb * t)
                sin_bound = math.sinh(sb * t) / sb if sb > 0 else min(t, 1.0)
                if np.linalg.norm(time_domain.cosine_family(mat, t), 2) > cos_bound * (
                    1 + 1e-10
                ):
                    norm_violations += 1
                if np.linalg.norm(time_domain.sine_family(mat, t), 2) > sin_bound * (
                    1 + 1e-10
                ):
                    norm_violations += 1
    ok = worst_laplace <= 1e-6 and worst_addition <= 1e-10 and norm_violations == 0
    _report(
        9,
        "transform and addition identities",
        ok,
        f"laplace {worst_laplace:.1e}, addition {worst_addition:.1e}, "
        f"norm violations {norm_violations}",
    )
    assert worst_laplace <= 1e-6
    assert worst_addition <= 1e-10
    assert norm_violations == 0


def test_criterion_10_determinism_formats_selftest(tmp_path):
    t0 = time.time()
    scenario = _resolve(
        {
            "schema_version": 1,
            "seed": 4,
            "geometry": {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 64},
            "boundary_condition": {"kind": "D"},
            "probe": {"center": [0.0, 0.0], "radius": 4.0, "n_points": 32},
            "spectral": {"lambda": 2.0},
            "grid": {"bounds": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 21,
                     "margin_band": 0.2},
            "noise": {"level": 0.02},
        }
    )
    artifacts = (
        "sign_report.json", "spectrum.csv", "M_matrix.csv", "F_matrix.csv",
        "indicator.csv", "indicator.pgm", "metrics.json",
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        run_forward(scenario, str(out))
        run_reconstruct(scenario, str(out))
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in artifacts
    )

    # every artifact parses under its declared format
    for name in ("sign_report.json", "metrics.json"):
        assert isinstance(json.loads((outs[0] / name).read_text()), dict)
    for name in ("spectrum.csv", "M_matrix.csv", "F_matrix.csv", "indicator.csv"):
        with open(outs[0] / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        start = 1 if name in ("spectrum.csv", "indicator.csv") else 0
        for row in rows[start:]:
            for cell in row:
                float(cell)
    pgm = (outs[0] / "indicator.pgm").read_text().split()
    assert pgm[0] == "P2"
    width, height, maxval = int(pgm[1]), int(pgm[2]), int(pgm[3])
    pixels = [int(v) for v in pgm[4:]]
    assert len(pixels) == width * height
    assert all(0 <= p <= maxval for p in pixels)

    n_pass, n_fail = run_all()
    elapsed = time.time() - t0
    ok = identical and n_fail == 0 and elapsed < 300.0
    _report(
        10,
        "determinism, formats, selftest",
        ok,
        f"byte-identical={identical}, selftest {n_pass} passed "
        f"{n_fail} failed, {elapsed:.1f}s",
    )
    assert identical
    assert n_fail == 0
    assert elapsed < 300.0
