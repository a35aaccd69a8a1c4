"""The check registry behind `lapscat selftest` and `lapscat verify`.

Each REGISTRY entry is `(name, check, tier)`.  A check is a
zero-argument callable returning `(passed, detail)`, where detail is a
message or a dict of figures; `verify` writes the figures to its
report.  The `fast` tier, run by `selftest` in a few seconds, exercises
closed forms, analytic circle spectra, operator identities,
reconstruction dichotomies and the time-domain bound.  The `full` tier,
run by `verify`, repeats the operator identities on finer
discretisations, more cases and the kite, and checks the time-domain
bound on surrogates seeded by the run.  Both use only the runtime
dependencies.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from functools import partial

import numpy as np

from . import boundary_ops as bo
from . import data_operator as do
from . import reconstruction as rc
from . import time_domain as td
from .geometry import (
    _signed_distance,
    make_curve,
    make_grid,
    make_probe,
    make_screen,
)
from .kernels import (
    SpectralParam,
    _bessel_i0,
    bessel_k,
    fundamental_solution,
)

# ----------------------------------------------------------------------
# modified Bessel products for the circle spectra (pure numpy)
# ----------------------------------------------------------------------

def _bessel_i_ladder(max_order: int, x: float) -> np.ndarray:
    """I_0..I_max by Miller's downward recurrence, normalized to I_0."""
    start = max_order + 24 + int(x)
    vals = np.zeros(start + 2)
    vals[start] = 1e-30
    for k in range(start, 0, -1):
        vals[k - 1] = vals[k + 1] + (2.0 * k / x) * vals[k]
        if abs(vals[k - 1]) > 1e250:
            vals[: k + 2] /= 1e250
    i0 = float(_bessel_i0(np.asarray(x)))
    return vals[: max_order + 1] * (i0 / vals[0])


def _bessel_k_ladder(max_order: int, x: float) -> np.ndarray:
    """K_0..K_max by stable upward recurrence from the kernel routines."""
    out = np.zeros(max_order + 1)
    out[0] = float(bessel_k(0, np.asarray(x)))
    if max_order >= 1:
        out[1] = float(bessel_k(1, np.asarray(x)))
    for k in range(1, max_order):
        out[k + 1] = out[k - 1] + (2.0 * k / x) * out[k]
    return out


def circle_sl_eigenvalue_oracle(m: int, radius: float, lam_value: float) -> float:
    """Mode-m eigenvalue of the single-layer trace on a circle."""
    x = math.sqrt(lam_value) * radius
    iv = _bessel_i_ladder(m + 1, x)
    kv = _bessel_k_ladder(m + 1, x)
    return radius * iv[m] * kv[m]


def circle_dlp_eigenvalue_oracle(m: int, radius: float, lam_value: float) -> float:
    """Mode-m eigenvalue of the hypersingular trace on a circle."""
    x = math.sqrt(lam_value) * radius
    iv = _bessel_i_ladder(m + 2, x)
    kv = _bessel_k_ladder(m + 2, x)
    if m == 0:
        ip, kp = iv[1], -kv[1]
    else:
        ip = 0.5 * (iv[m - 1] + iv[m + 1])
        kp = -0.5 * (kv[m - 1] + kv[m + 1])
    return lam_value * radius * ip * kp


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

_K0_AT_1 = 0.42102443824070834  # K_0(1), frozen reference constant
_K0_AT_5 = 0.0036910983340425942  # K_0(5), frozen reference constant
_ELLIPSE_PERIMETER_2_1 = 9.688448220547675  # a=2, b=1


def _check_kernel_2d_value():
    lam = SpectralParam(1.0)
    val = fundamental_solution(lam, np.zeros((1, 2)), np.array([[1.0, 0.0]])).item()
    err = abs(val - _K0_AT_1 / (2.0 * math.pi))
    return err < 1e-12, f"2d kernel at r=1: err {err:.1e}"


def _check_kernel_2d_far_value():
    # sqrt(lambda) r = 5 lies on the Chebyshev branch of K_0 (z > 2)
    lam = SpectralParam(4.0)
    val = fundamental_solution(lam, np.zeros((1, 2)), np.array([[2.5, 0.0]])).item()
    exact = _K0_AT_5 / (2.0 * math.pi)
    err = abs(val - exact) / exact
    return err < 1e-12, f"2d kernel at sqrt(lambda) r=5: rel err {err:.1e}"


def _check_kernel_gradient_fd():
    # the layer kernels' derivatives of g against central differences: along
    # n_y at the nodes (DL) and along a direction d at the target (SL derivative)
    lam = SpectralParam(2.0)
    geom = make_curve("ellipse", {"a": 1.2, "b": 0.7}, n_nodes=8)
    x = np.array([[0.3, -0.2]])
    d = np.array([[0.6, 0.8]])
    h = 1e-6

    def central(dx, dy):
        fp = fundamental_solution(lam, x + dx, geom.nodes + dy)
        fm = fundamental_solution(lam, x - dx, geom.nodes - dy)
        return (fp - fm) / (2.0 * h)

    layer = partial(bo._layer_matrix, sources=geom.nodes, targets=x, lam=lam, normals=geom.normals)
    errs = {
        "DL": layer("DL")[0] - central(0.0, h * geom.normals),
        "SL derivative": layer("SL", directions=d)[0] - central(h * d, 0.0),
    }
    worst = {name: float(np.max(np.abs(e))) for name, e in errs.items()}
    detail = ", ".join(f"{name} {e:.1e}" for name, e in worst.items())
    return max(worst.values()) < 1e-6, f"layer kernels vs finite differences of g: err {detail}"


def _check_ellipse_perimeter():
    geom = make_curve("ellipse", {"a": 2.0, "b": 1.0}, n_nodes=256)
    err = abs(geom.perimeter() - _ELLIPSE_PERIMETER_2_1)
    return err < 1e-10, f"ellipse perimeter: err {err:.1e}"


def _check_containment():
    geom = make_curve("kite", None, n_nodes=128)
    inside = _signed_distance(geom, np.array([[-0.5, 0.0], [2.0, 2.0]])) < 0.0
    return inside.tolist() == [True, False], "kite containment classifications"


def _check_screen_node_count():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    screen = make_screen(geom, (0.0, math.pi))
    return screen.n_active == 32, f"screen [0, pi) carries {screen.n_active}/64 nodes"


def _check_probe_disk_weights():
    # cell counting overestimates the disk area by ~8.5% at 81 cells
    # (boundary cells poke out); the estimate tightens with resolution
    coarse = float(np.sum(make_probe((0.0, 0.0), 1.0, 81, layout="disk_grid").weights))
    fine = float(np.sum(make_probe((0.0, 0.0), 1.0, 4096, layout="disk_grid").weights))
    rel_c = abs(coarse - math.pi) / math.pi
    rel_f = abs(fine - math.pi) / math.pi
    ok = rel_c < 0.10 and rel_f < 0.02 and rel_f < rel_c
    return ok, f"disk grid weight sums {coarse:.4f} / {fine:.4f} vs pi"


def _check_kress_constant_mode():
    # R is circulant, so R 1 is one row's sum: every gap, folded as R folds it
    gaps = np.arange(64)
    err = abs(float(np.sum(bo._kress_vector(64)[np.minimum(gaps, 64 - gaps)])))
    return err < 1e-12, f"log rule on constants: err {err:.1e}"


_SHAPES = {"circle": {"radius": 1.0}, "kite": None}
_DENSITIES = {
    "1": np.ones_like,
    "cos t": np.cos,
    "1 + 0.3 sin 2t": lambda t: 1.0 + 0.3 * np.sin(2 * t),
}


def _circle_oracle(kind: str, n: int, lam: float, modes: int, tol: float):
    """Rayleigh quotients of the SL or DL trace on the unit circle
    against the closed-form mode eigenvalues."""
    single_layer = kind == "SL"
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n)
    # the trace is minus M_D (SL) or M_N (DL)
    bc = bo.BoundaryCondition(kind="D" if single_layer else "N")
    trace = -bo.assemble_M(bc, geom, SpectralParam(lam)).matrix
    oracle = circle_sl_eigenvalue_oracle if single_layer else circle_dlp_eigenvalue_oracle
    sw = np.sqrt(geom.weights)
    worst = 0.0
    for m in range(modes):
        v = sw * np.cos(m * geom.params)
        v /= np.linalg.norm(v)
        rq = float(v @ trace @ v)
        exact = oracle(m, 1.0, lam)
        worst = max(worst, abs(rq - exact) / abs(exact))
    return worst < tol, {"worst_rel_error": worst, "tolerance": tol}


def _definiteness(shapes: tuple, n: int, lams: tuple):
    """Sign class of M for D/N/alpha/theta on each shape and lambda, against
    the condition's admissible class."""
    conditions = [bo.BoundaryCondition(kind=kind, coefficient=coef)
                  for kind, coef in (("D", None), ("N", None), ("alpha", 1.0), ("theta", 1.0))]
    failures = []
    for shape in shapes:
        geom = make_curve(shape, _SHAPES[shape], n_nodes=n)
        for lam_val in lams:
            lam = SpectralParam(lam_val)
            for bc in conditions:
                got = bo.sign_check(bo.assemble_M(bc, geom, lam)).classification
                if got != bo.admissible_class(bc, geom):
                    failures.append(f"{shape}/{bc.kind}/lambda={lam_val}: {got}")
    n_cases = len(shapes) * len(lams) * len(conditions)
    return not failures, {"n_cases": n_cases, "failures": failures}


def _jump_relation(densities: tuple, tol: float):
    """Normal-derivative jump of the single layer on the unit circle,
    worst over the named densities of `_DENSITIES`."""
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    stack = np.stack([_DENSITIES[d](geom.params) for d in densities], axis=1)
    worst = float(np.max(bo.jump_relation_residual(geom, lam, stack, "SL")))
    return worst < tol, {"worst_residual": worst, "tolerance": tol}


def _gram_identity(n: int, resolution: int, tol: float):
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n)
    figures = bo.gram_identity_residual(geom, 1.0, 2.0, 12.0, resolution)
    return figures["residual"] < tol, {**figures, "tolerance": tol}


def _exterior_reproduction(n: int, sources: dict, targets: tuple, tol: dict):
    """Exterior Dirichlet fields of point sources inside each shape,
    reproduced by a single layer whose density solves M phi = -trace."""
    targets = np.asarray(targets)
    lam = SpectralParam(2.0)
    worst = {}
    for shape, points in sources.items():
        geom = make_curve(shape, _SHAPES[shape], n_nodes=n)
        m = bo.assemble_M(bo.BoundaryCondition(kind="D"), geom, lam)
        sw = np.sqrt(geom.weights)
        worst[shape] = 0.0
        for src in points:
            x = np.asarray(src)
            trace = fundamental_solution(lam, x[None, :], geom.nodes)
            phi = -np.linalg.solve(m.matrix, sw * trace) / sw
            vals = bo.evaluate_potential(geom, "SL", phi, targets, lam)
            exact = fundamental_solution(lam, x[None, :], targets)
            worst[shape] = max(worst[shape], float(np.max(np.abs(vals - exact) / np.abs(exact))))
    passed = all(worst[shape] < tol[shape] for shape in worst)
    return passed, {"worst": worst, "tolerance": dict(tol)}


_DIRICHLET = bo.BoundaryCondition(kind="D")


def _circle_data():
    """Dirichlet data operator of the 64-node unit circle, probed by a
    32-point ring of radius 4 at lambda = 2."""
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    probe = make_probe((0.0, 0.0), 4.0, 32)
    lam = SpectralParam(2.0)
    return geom, probe, lam, do.assemble_F(_DIRICHLET, geom, probe, lam)


def _check_inverse_contract():
    # F applies M^{-1} by a solve; numpy's explicit inverse is the reference
    geom, probe, lam, f = _circle_data()
    g = do.radiation_matrix("D", geom, probe, lam)
    m = bo.assemble_M(_DIRICHLET, geom, lam).matrix  # the M that F solved with
    explicit = g @ np.linalg.inv(m) @ g.T
    err = float(np.linalg.norm(f.matrix - explicit) / np.linalg.norm(explicit))
    return err < 1e-10, f"F against G inv(M) G^T: {err:.1e}"


def _check_lambda_bound_estimation():
    # alpha = 1 is admissible at every lambda; theta = -0.5 turns definite
    # where its mode-0 eigenvalue theta - nu_0(lambda) changes sign
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    bound, _ = bo.estimate_lambda_bound(bo.BoundaryCondition("alpha", 1.0), geom)
    _, report = bo.estimate_lambda_bound(bo.BoundaryCondition("theta", -0.5), geom)
    lo, hi = report["transition"]
    f_lo, f_hi = (-0.5 - circle_dlp_eigenvalue_oracle(0, 1.0, v) for v in (lo, hi))
    return (bound == 0.0 and f_lo < 0.0 < f_hi,
            f"alpha=1 bound {bound}; theta=-0.5 mode 0 {f_lo:.2e} at {lo:.4f}, "
            f"{f_hi:.2e} at {hi:.4f}")


def _check_screen_compression():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    screen = make_screen(geom, (0.0, math.pi))
    lam = SpectralParam(2.0)
    full = bo.assemble_M(bo.BoundaryCondition(kind="D"), geom, lam).matrix
    sub = bo.assemble_M(bo.BoundaryCondition(kind="D", screen=screen), geom, lam)
    idx = screen.active_indices
    exact_sub = np.array_equal(sub.matrix, full[np.ix_(idx, idx)])
    definite = bo.sign_check(sub).classification == "definite_negative"
    return exact_sub and definite, "principal submatrix, definiteness preserved"


def _check_data_operator_spectrum():
    geom, probe, lam, f = _circle_data()
    sym = float(np.linalg.norm(f.matrix - f.matrix.T) / np.linalg.norm(f.matrix))
    mags = np.abs(f.eigenvalues)
    sorted_ok = bool(np.all(np.diff(mags) <= 1e-15 * mags[0]))
    negative = bool(np.all(f.eigenvalues < 0.0))
    ok = sym < 1e-10 and sorted_ok and negative
    return ok, f"symmetry {sym:.1e}, ordered, all eigenvalues negative"


def _check_noise_determinism():
    geom, probe, lam, f = _circle_data()
    n1 = do.add_noise(f, 0.05, seed=7)
    n2 = do.add_noise(f, 0.05, seed=7)
    same = np.array_equal(n1.matrix, n2.matrix)
    clean = np.array_equal(do.add_noise(f, 0.0, seed=7).matrix, f.matrix)
    return same and clean, "seeded noise reproducible; zero level is identity"


def _check_picard_top_mode():
    geom, probe, lam, f = _circle_data()
    g = rc.TestVector(values=f.eigenvectors[:, 0])
    w = rc.picard_indicator(f, g)
    err = abs(w - abs(f.eigenvalues[0])) / abs(f.eigenvalues[0])
    return err < 1e-10, f"top eigenvector indicator vs |mu_1|: rel {err:.1e}"


def _check_inf_equals_picard():
    """The Lagrange point c* = mu^-1 gamma / (gamma^T mu^-1 gamma) in
    eigen-coordinates is feasible, attains the inf indicator, and no
    feasible perturbation c* + z (z orthogonal to gamma) undercuts it."""
    geom, probe, lam, f = _circle_data()
    g = rc.make_test_vector(probe, (0.3, 0.2), lam)
    w = rc.inf_indicator(f, g)
    k = rc._retained(f, rc.DEFAULT_TRUNCATION_FLOOR)
    mu, gamma = f.eigenvalues[:k], f.eigenvectors[:, :k].T @ g.values
    c_star = (gamma / mu) / float(gamma @ (gamma / mu))
    z = np.random.default_rng(0).standard_normal((24, k))
    z -= np.outer(z @ gamma, gamma) / (gamma @ gamma)
    z *= (np.logspace(-3, 0, 24) * np.linalg.norm(c_star) / np.linalg.norm(z, axis=1))[:, None]
    feasible = abs(float(gamma @ c_star) - 1.0)
    attained = abs(abs(float(mu @ c_star**2)) - w) / w
    undercut = max(0.0, float(np.max(w - np.abs((c_star + z) ** 2 @ mu))) / w)
    ok = feasible < 1e-8 and attained < 1e-8 and undercut < 1e-8
    return ok, (f"Lagrange point: feasibility {feasible:.1e}, attains the inf indicator "
                f"to rel {attained:.1e}, perturbations undercut it by {undercut:.1e}")


def _check_indicator_dichotomy():
    geom, probe, lam, f = _circle_data()
    w_in = rc.picard_indicator(f, rc.make_test_vector(probe, (0.2, 0.1), lam))
    w_out = rc.picard_indicator(f, rc.make_test_vector(probe, (1.8, 0.0), lam))
    ratio = w_in / max(w_out, 1e-300)
    return ratio > 1e3, f"inside/outside indicator ratio {ratio:.1e}"


def _check_segmentation():
    geom, probe, lam, f = _circle_data()
    grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), 48)
    igrid = rc.sweep(f, probe, grid)
    seg = rc.segment(igrid, geom=geom, level=0.05)
    return seg.jaccard >= 0.85, f"support recovery Jaccard {seg.jaccard:.3f}"


def _check_screen_arc_separation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128, cluster=(0.0, math.pi, 0.6))
    screen = make_screen(geom, (0.0, math.pi))
    probe = make_probe((0.0, 0.0), 4.0, 48)
    lam = SpectralParam(2.0)
    f = do.assemble_F(bo.BoundaryCondition(kind="D", screen=screen), geom, probe, lam)
    _, w, inside = rc.arc_sweep(
        f, probe, "circle", {"radius": 1.0}, screen.endpoint_params,
        arc_length=math.pi / 8.0, count=16, n_quad=96,
    )
    ratio = float(np.mean(w[inside]) / np.mean(w[~inside]))
    return ratio >= 10.0, f"screen arc separation ratio {ratio:.1f}"


def _check_cos_families():
    a = -np.diag([1.0, 4.0, 9.0])
    c = td.cosine_family(a, 0.0)
    ok0 = np.allclose(c, np.eye(3), atol=1e-14)
    c2 = td.cosine_family(a, 0.7)
    ok1 = abs(c2[1, 1] - math.cos(2.0 * 0.7)) < 1e-12
    return ok0 and ok1, "cosine family at t=0 and on a diagonal generator"


_LAPLACE_TOL = 1e-6
_ADDITION_TOL = 1e-10


def _addition_residual(a: np.ndarray, t: float = 0.3, tc: float = 1.7) -> float:
    """Relative residual of S(t + tc) = C(tc) S(t) + S(tc) C(t)."""
    lhs = td.sine_family(a, t + tc)
    rhs = td.cosine_family(a, tc) @ td.sine_family(a, t) + td.sine_family(
        a, tc
    ) @ td.cosine_family(a, t)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def _bound_cells(model: td.SurrogateModel, widths: tuple) -> dict:
    """The truncation bound on the lambda x horizon grid {4, 25} x {2}."""
    pulses = [td.PulseProfile(w) for w in widths]
    return td.verify_bound(model, pulses, [4.0, 25.0], [2.0])


def _check_addition_identity():
    res = _addition_residual(td.make_random_surrogate(16, 0.0, seed=3).a_perturbed)
    return res < _ADDITION_TOL, f"trigonometric addition identity: rel {res:.1e}"


def _check_sine_integral_of_cosine():
    model = td.make_random_surrogate(12, 0.0, seed=5)
    a = model.a_free
    t = 1.3
    n = 400
    ts = np.linspace(0.0, t, 2 * n + 1)
    vals = td.cosine_family(a, ts)
    h = t / (2 * n)
    simpson = (h / 3.0) * (
        vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0) + 2.0 * vals[2:-2:2].sum(axis=0)
    )
    res = float(np.linalg.norm(simpson - td.sine_family(a, t)))
    return res < 1e-8, f"sine family equals integrated cosine family: {res:.1e}"


def _check_operator_norm_bounds():
    ok = True
    worst = 0.0
    for seed in range(3):
        model = td.make_random_surrogate(20, 1.0, seed=seed)
        sb = math.sqrt(model.lambda_bound)
        for t in (0.2, 1.0, 3.0):
            cnorm = float(np.linalg.norm(td.cosine_family(model.a_perturbed, t), 2))
            snorm = float(np.linalg.norm(td.sine_family(model.a_perturbed, t), 2))
            cb = math.cosh(sb * t)
            sball = td._sinh_over(sb, t)
            ok &= cnorm <= cb * (1 + 1e-12) and snorm <= sball * (1 + 1e-12)
            worst = max(worst, cnorm / cb, snorm / max(sball, 1e-300))
    return bool(ok), f"hyperbolic norm bounds, worst ratio {worst:.3f}"


def _check_laplace_identity():
    model = td.make_random_surrogate(16, 0.0, seed=11)
    res = td.laplace_identity_residual(model.a_free, 1.0)
    return res < _LAPLACE_TOL, f"resolvent transform identity residual {res:.1e}"


def _check_pulse_short_width_limit():
    model = td.make_random_surrogate(14, 0.0, seed=2)
    pulse = td.PulseProfile(1e-4)
    f = np.ones(model.dim)
    t = 1.0
    u = td.pulse_response(model, pulse, f, t)
    ref = (td.sine_family(model.a_perturbed, t) @ f) * pulse.mass()
    rel = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
    return rel < 1e-3, f"short pulse approaches impulse response: rel {rel:.1e}"


def _check_truncated_zero_perturbation():
    model = td.make_random_surrogate(12, 0.0, seed=4)
    zero = td.SurrogateModel(a_perturbed=model.a_free.copy(), a_free=model.a_free.copy(),
                             lambda_bound=model.lambda_bound, probe_mask=model.probe_mask)
    f_tr = td.assemble_F_truncated(zero, td.PulseProfile(0.05), 4.0, 2.0)
    norm = float(np.linalg.norm(f_tr))
    return norm == 0.0, f"zero perturbation gives exactly zero data: norm {norm}"


def _check_lemma_constants():
    b = td.lemma_bound(9.0, 0.0, 4.0, 2.0, 0.5)
    ok = abs(b.c1 - 3.0) < 1e-14 and abs(b.c2 - 4.0) < 1e-14 and abs(b.c3 - 2.0) < 1e-14
    return ok, f"bound constants c1={b.c1}, c2={b.c2}, c3={b.c3}"


def _check_truncation_bound():
    rep = _bound_cells(td.make_random_surrogate(16, 0.0, seed=9), (0.05,))
    return rep["all_passed"], f"{rep['n_cells'] - rep['n_failed']}/{rep['n_cells']} grid cells under bound"


def _time_domain_bounds(dim: int, widths: tuple, seed: int = 0):
    """Truncation bound, Laplace and addition identities on two random
    surrogates (lambda_bound 0 and 1, seeds `seed` and `seed + 1`)."""
    ok = True
    details = []
    for i, lam_bound in enumerate((0.0, 1.0)):
        model = td.make_random_surrogate(dim, lam_bound, seed=seed + i)
        rep = _bound_cells(model, widths)
        lap = td.laplace_identity_residual(model.a_free, 1.0)
        add = _addition_residual(model.a_perturbed)
        ok = ok and rep["all_passed"] and lap < _LAPLACE_TOL and add < _ADDITION_TOL
        details += [
            {"lambda_bound": lam_bound, "n_failed": rep["n_failed"], "n_cells": rep["n_cells"]},
            {"laplace_residual": lap},
            {"addition_residual": add},
        ]
    return bool(ok), {"details": details}


def _check_ideal_decay():
    model = td.make_random_surrogate(16, 0.0, seed=13)
    n4, n16, n64 = (float(np.linalg.norm(td.assemble_F_ideal(model, lam), 2))
                    for lam in (4.0, 16.0, 64.0))
    # second-order decay: a 4x step in lambda must beat the 1/lambda rate,
    # and the rate itself must improve toward 1/16 as lambda grows
    ok = n16 / n4 < 0.25 and n64 / n16 < n16 / n4
    return ok, f"data norm decay factors {n16 / n4:.3f}, {n64 / n16:.3f}"


def _check_cli_roundtrip():
    from . import cli

    scenario = {
        "schema_version": 1,
        "seed": 0,
        "geometry": {"shape": "circle", "params": {"radius": 1.0}, "n_nodes": 32},
        "boundary_condition": {"kind": "D"},
        "probe": {"center": [0.0, 0.0], "radius": 4.0, "n_points": 16},
        "spectral": {"lambda": 2.0},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        v = cli._resolve(cli.load_scenario(path))
        same = all(v[f"geometry.{key}"] == value for key, value in scenario["geometry"].items())
        blobs = []
        for out in (os.path.join(tmp, "o1"), os.path.join(tmp, "o2")):
            cli.run_forward(v, out)
            with open(os.path.join(out, "spectrum.csv"), "rb") as fh:
                blobs.append(fh.read())
    return same and blobs[0] == blobs[1], "scenario round-trip; forward artifacts byte-identical"


REGISTRY = [
    ("kernel_2d_value", _check_kernel_2d_value, "fast"),
    ("kernel_2d_far_value", _check_kernel_2d_far_value, "fast"),
    ("kernel_gradient", _check_kernel_gradient_fd, "fast"),
    ("ellipse_perimeter", _check_ellipse_perimeter, "fast"),
    ("containment", _check_containment, "fast"),
    ("screen_node_count", _check_screen_node_count, "fast"),
    ("probe_disk_weights", _check_probe_disk_weights, "fast"),
    ("log_rule_constants", _check_kress_constant_mode, "fast"),
    ("circle_single_layer_spectrum",
     partial(_circle_oracle, "SL", n=64, lam=2.0, modes=11, tol=1e-8), "fast"),
    ("circle_hypersingular_spectrum",
     partial(_circle_oracle, "DL", n=64, lam=2.0, modes=11, tol=1e-8), "fast"),
    ("definiteness_suite", partial(_definiteness, ("circle",), n=64, lams=(2.0,)), "fast"),
    ("jump_relation", partial(_jump_relation, ("cos t",), tol=1e-4), "fast"),
    ("gram_identity", partial(_gram_identity, n=64, resolution=120, tol=2e-3), "fast"),
    ("exterior_reproduction",
     partial(
         _exterior_reproduction, n=128, sources={"circle": ((0.3, 0.1),)},
         targets=((2.5, 0.5), (0.0, 3.0)), tol={"circle": 1e-6},
     ), "fast"),
    ("inverse_contract", _check_inverse_contract, "fast"),
    ("lambda_bound_estimation", _check_lambda_bound_estimation, "fast"),
    ("screen_compression", _check_screen_compression, "fast"),
    ("data_operator_spectrum", _check_data_operator_spectrum, "fast"),
    ("noise_determinism", _check_noise_determinism, "fast"),
    ("picard_top_mode", _check_picard_top_mode, "fast"),
    ("inf_equals_picard", _check_inf_equals_picard, "fast"),
    ("indicator_dichotomy", _check_indicator_dichotomy, "fast"),
    ("segmentation", _check_segmentation, "fast"),
    ("screen_arc_separation", _check_screen_arc_separation, "fast"),
    ("cosine_family_basics", _check_cos_families, "fast"),
    ("addition_identity", _check_addition_identity, "fast"),
    ("sine_is_integrated_cosine", _check_sine_integral_of_cosine, "fast"),
    ("operator_norm_bounds", _check_operator_norm_bounds, "fast"),
    ("laplace_identity", _check_laplace_identity, "fast"),
    ("pulse_short_width_limit", _check_pulse_short_width_limit, "fast"),
    ("truncated_zero_perturbation", _check_truncated_zero_perturbation, "fast"),
    ("lemma_constants", _check_lemma_constants, "fast"),
    ("truncation_bound", _check_truncation_bound, "fast"),
    ("ideal_data_decay", _check_ideal_decay, "fast"),
    ("cli_roundtrip", _check_cli_roundtrip, "fast"),
    ("circle_single_layer_oracle",
     partial(_circle_oracle, "SL", n=128, lam=1.0, modes=21, tol=1e-6), "full"),
    ("definiteness_suite",
     partial(_definiteness, ("circle", "kite"), n=128, lams=(1.0, 4.0)), "full"),
    ("jump_relation", partial(_jump_relation, tuple(_DENSITIES), tol=1e-4), "full"),
    ("gram_identity", partial(_gram_identity, n=128, resolution=200, tol=2e-3), "full"),
    ("exterior_reproduction",
     partial(
         _exterior_reproduction, n=256,
         sources={
             "circle": ((0.0, 0.0), (0.4, 0.2), (-0.3, 0.5)),
             "kite": ((-0.5, 0.0), (-0.8, 0.4), (-0.2, -0.5)),
         },
         targets=((2.5, 0.5), (0.0, 3.0), (-2.0, -1.5), (3.0, -0.5)),
         tol={"circle": 1e-6, "kite": 1e-4},
     ), "full"),
    ("time_domain_bounds", partial(_time_domain_bounds, dim=24, widths=(0.01, 0.1)), "full"),
]
# checks that draw their random surrogates from the run's seed
_SEEDED = ("time_domain_bounds",)


def run_checks(tier: str, seed: int = 0) -> list[dict]:
    """Run the checks of one tier in registry order.

    Returns one dict per check: its name, `passed`, its figures (or its
    message as `detail`) and `elapsed` seconds.  `seed` goes to the
    checks named in `_SEEDED`.  A check that raises fails with the
    exception as its detail instead of aborting the run.
    """
    results = []
    for name, check, entry_tier in REGISTRY:
        if entry_tier != tier:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = check(seed=seed) if name in _SEEDED else check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        figures = detail if isinstance(detail, dict) else {"detail": detail}
        results.append({"name": name, "passed": bool(ok), **figures, "elapsed": round(elapsed, 3)})
        text = detail if isinstance(detail, str) else json.dumps(detail, default=str)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {text} ({elapsed:.2f}s)")
    return results


def run_all() -> tuple[int, int]:
    """Run the fast tier (`lapscat selftest`); returns (n_pass, n_fail)."""
    t_start = time.perf_counter()
    results = run_checks("fast")
    n_pass = sum(r["passed"] for r in results)
    n_fail = len(results) - n_pass
    print(f"selftest: {n_pass} passed, {n_fail} failed "
          f"({time.perf_counter() - t_start:.1f}s total)")
    return n_pass, n_fail
