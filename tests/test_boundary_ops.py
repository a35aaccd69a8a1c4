"""Boundary-integral operator tests.

The separation-of-variables eigenvalues on the unit circle are the main
oracle.  They were computed first with scipy.special and frozen below:

    single-layer trace,  mode m:  mu_m = R I_m(s R) K_m(s R)
    hypersingular trace, mode m:  nu_m = lam R I'_m(s R) K'_m(s R)

with s = sqrt(lam), at lam = 1, R = 1 (scipy.special.iv/kv/ivp/kvp).
Two independent confirmations are run live: adaptive quadrature of the
kernel integral, and a 512-node composite Gauss-Legendre brute force.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from lapscat.errors import (
    AssemblyError,
    CoefficientError,
    DomainError,
    InversionError,
    SpectralParameterError,
)
from lapscat.boundary_ops import (
    BoundaryCondition,
    BoundaryOperator,
    OVERSAMPLE,
    _trig_upsample,
    assemble_M,
    assemble_gamma0_SL,
    assemble_gamma1_DL,
    compress_to_screen,
    estimate_lambda_bound,
    evaluate_potential,
    gram_identity_residual,
    invert_M,
    jump_relation_residual,
    kress_log_weights,
    resolvable_lambda_cap,
    sign_check,
    trig_diff_matrix,
)
from lapscat.geometry import make_curve, make_screen
from lapscat.kernels import SpectralParam

TWO_PI = 2.0 * math.pi

# I_m(1) K_m(1), frozen from scipy.special.iv/kv
SL_CIRCLE_EIGS = {
    0: 0.5330446749562686,
    1: 0.3401733509048675,
    2: 0.2205680942365663,
    3: 0.15742381179815224,
    4: 0.12106943984074957,
    5: 0.09798750082924212,
    6: 0.08216993288763998,
    7: 0.07069667286187134,
    8: 0.06201007637963873,
    9: 0.0552116767426825,
    10: 0.04974942972055118,
    11: 0.045266356620231984,
    12: 0.041521754705482944,
    13: 0.03834758721552822,
    14: 0.03562306675152435,
    15: 0.03325918010616692,
    16: 0.031188907241777815,
    17: 0.02936083658965915,
    18: 0.027734878636359008,
    19: 0.02627931636985878,
    20: 0.0249687308869687,
}

# I'_m(1) K'_m(1), frozen from scipy.special.ivp/kvp (all negative)
DL_CIRCLE_EIGS = {
    0: -0.3401733509048675,
    1: -0.7169797355012849,
    2: -1.1310709582977747,
    3: -1.5876330732220278,
    4: -2.06481669376569,
    5: -2.5513072070952476,
    6: -3.0424596708005964,
    7: -3.536226974865336,
    8: -4.031599063099156,
    9: -4.528025569207377,
    10: -5.025181988736574,
}

# root of lam |I'_1... binding mode 0:  lam |I'_0 K'_0|(sqrt(lam)) = 1.2,
# frozen from scipy.optimize.brentq (the coercivity transition for the
# constant jump coefficient -1.2 on the unit circle)
THETA_MINUS_1_2_TRANSITION = 6.605776504907098


def circle_rayleigh(matrix, geom, m):
    """Rayleigh quotient of the weighted matrix on the mode-m cosine."""
    v = np.sqrt(geom.weights) * np.cos(m * geom.params)
    return float(v @ matrix @ v) / float(v @ v)


def test_frozen_sl_eigs_match_live_scipy():
    for m, want in SL_CIRCLE_EIGS.items():
        assert want == float(special.iv(m, 1.0) * special.kv(m, 1.0))
    for m, want in DL_CIRCLE_EIGS.items():
        assert want == float(special.ivp(m, 1.0) * special.kvp(m, 1.0))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sl_eigs_confirmed_by_adaptive_quadrature():
    # mu_m = (1/2pi) int_0^{2pi} K_0(2 |sin(u/2)|) cos(m u) du at lam = R = 1
    # (quad flags roundoff near its 1e-14 target; the check below is 1e-12)
    for m in (0, 1, 5, 20):
        val, _ = integrate.quad(
            lambda u: special.kv(0, 2.0 * abs(np.sin(0.5 * u))) * np.cos(m * u),
            0.0,
            TWO_PI,
            points=[0.0, TWO_PI],
            limit=400,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        val /= TWO_PI
        assert abs(val - SL_CIRCLE_EIGS[m]) < 1e-12


def test_sl_eigs_confirmed_by_dense_brute_force():
    # 512-node composite 8-point Gauss-Legendre: 31 uniform panels on
    # [pi/32, pi] plus 33 panels graded geometrically into the log
    # singularity at u = 0; integrand is even about 0 and pi
    xg, wg = np.polynomial.legendre.leggauss(8)
    delta = math.pi / 32.0
    edges = [0.0] + [delta * 0.62**k for k in range(31, 0, -1)]
    edges += list(np.linspace(delta, math.pi, 33))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    assert nodes.size == 512
    kvals = special.kv(0, 2.0 * np.sin(0.5 * nodes))
    for m, want in SL_CIRCLE_EIGS.items():
        mu = float(np.sum(weights * kvals * np.cos(m * nodes))) / math.pi
        assert abs(mu - want) / want < 1e-8


def test_assembled_sl_matches_oracle():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    op = assemble_gamma0_SL(geom, SpectralParam(1.0))
    worst = 0.0
    for m, want in SL_CIRCLE_EIGS.items():
        got = circle_rayleigh(op.matrix, geom, m)
        worst = max(worst, abs(got - want) / want)
    assert worst < 1e-6


def test_assembled_dl_matches_oracle():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    op = assemble_gamma1_DL(geom, SpectralParam(1.0))
    worst = 0.0
    for m, want in DL_CIRCLE_EIGS.items():
        got = circle_rayleigh(op.matrix, geom, m)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6


def test_sl_oracle_scales_with_radius_and_lambda():
    # mu_m(R, lam) = R I_m(s R) K_m(s R); spot-check off the frozen grid
    geom = make_curve("circle", {"radius": 1.7}, n_nodes=128)
    lam = SpectralParam(3.0)
    op = assemble_gamma0_SL(geom, lam)
    s = math.sqrt(3.0)
    for m in (0, 2, 7):
        want = 1.7 * float(special.iv(m, s * 1.7) * special.kv(m, s * 1.7))
        got = circle_rayleigh(op.matrix, geom, m)
        assert abs(got - want) / want < 1e-9


def test_kress_log_weights_integrate_cosines():
    # (1/2pi) int ln(4 sin^2((t-u)/2)) cos(m u) du = -cos(m t)/m  (m >= 1)
    # and 0 for m = 0; the product rule reproduces this exactly through
    # the Nyquist mode
    n = 32
    r = kress_log_weights(n)
    t = TWO_PI * np.arange(n) / n
    assert np.max(np.abs(r @ np.ones(n))) < 1e-13
    for m in (1, 2, 5, 15, 16):
        got = r @ np.cos(m * t)
        want = -(TWO_PI / m) * np.cos(m * t)
        assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(AssemblyError):
        kress_log_weights(7)


def test_trig_diff_matrix_exact_on_band():
    n = 16
    d = trig_diff_matrix(n)
    t = TWO_PI * np.arange(n) / n
    for m in range(1, n // 2):
        np.testing.assert_allclose(d @ np.sin(m * t), m * np.cos(m * t), atol=1e-11)
        np.testing.assert_allclose(d @ np.cos(m * t), -m * np.sin(m * t), atol=1e-11)
    # the band-edge cosine is annihilated by convention (real symmetric rule)
    np.testing.assert_allclose(d @ np.cos((n // 2) * t), 0.0, atol=1e-11)
    with pytest.raises(AssemblyError):
        trig_diff_matrix(9)


def test_trig_upsample_preserves_band_and_nyquist():
    n, factor = 32, 2
    tau = TWO_PI * np.arange(n) / n
    fine = TWO_PI * np.arange(n * factor) / (n * factor)
    for m in (0, 1, 5, 15):
        up = _trig_upsample(np.cos(m * tau), factor)
        np.testing.assert_allclose(up, np.cos(m * fine), atol=1e-12)
    # Nyquist cosine: the symmetric (real) interpolant is cos((n/2) tau)
    up = _trig_upsample(np.cos((n // 2) * tau), factor)
    np.testing.assert_allclose(up, np.cos((n // 2) * fine), atol=1e-12)


def test_operator_symmetry_and_metadata():
    geom = make_curve("kite", n_nodes=64)
    lam = SpectralParam(2.0)
    sl = assemble_gamma0_SL(geom, lam)
    dl = assemble_gamma1_DL(geom, lam)
    assert sl.symmetry_residual() == 0.0
    assert dl.symmetry_residual() == 0.0
    assert sl.size == 64 and dl.size == 64
    assert sl.lam.lam == 2.0


def test_sign_definiteness_suite():
    # the four operator families keep their definite sign on convex and
    # non-convex obstacles at small and moderate lambda
    expected = {
        "D": "definite_negative",
        "N": "definite_positive",
        "alpha": "definite_negative",
        "theta": "definite_positive",
    }
    for shape, params in (("circle", {"radius": 1.0}), ("kite", None)):
        geom = make_curve(shape, params, n_nodes=128)
        for lam_val in (1.0, 4.0):
            lam = SpectralParam(lam_val)
            for kind, coef in (("D", None), ("N", None), ("alpha", 1.0), ("theta", 1.0)):
                op = assemble_M(BoundaryCondition(kind, coefficient=coef), geom, lam)
                rep = sign_check(op)
                assert rep.classification == expected[kind], (shape, kind, lam_val)
                if expected[kind] == "definite_negative":
                    assert rep.eig_max < 0.0
                else:
                    assert rep.eig_min > 0.0


def test_assemble_M_matrix_structure():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    lam = SpectralParam(1.5)
    sl = assemble_gamma0_SL(geom, lam).matrix
    dl = assemble_gamma1_DL(geom, lam).matrix
    np.testing.assert_allclose(
        assemble_M(BoundaryCondition("D"), geom, lam).matrix, -sl, atol=0
    )
    np.testing.assert_allclose(
        assemble_M(BoundaryCondition("N"), geom, lam).matrix, -dl, atol=0
    )
    m_alpha = assemble_M(BoundaryCondition("alpha", coefficient=2.0), geom, lam)
    np.testing.assert_allclose(m_alpha.matrix, -(np.eye(32) / 2.0 + sl), atol=1e-15)
    m_theta = assemble_M(BoundaryCondition("theta", coefficient=-0.5), geom, lam)
    np.testing.assert_allclose(m_theta.matrix, -0.5 * np.eye(32) - dl, atol=1e-15)


def test_reused_plan_matches_fresh_geometry():
    # the second assembly on a geometry runs on its cached plan; it must
    # equal, bit for bit, an assembly on a freshly built copy
    def build():
        return make_curve("kite", n_nodes=64, cluster=(0.0, math.pi, 0.6))

    def conditions(geom):
        return [
            BoundaryCondition("D"),
            BoundaryCondition("N"),
            BoundaryCondition("alpha", coefficient=-0.7),
            BoundaryCondition("theta", coefficient=1.3),
            BoundaryCondition("N", screen=make_screen(geom, (0.0, math.pi))),
        ]

    geom = build()
    for bc in conditions(geom):
        assemble_M(bc, geom, SpectralParam(0.5))
    lam = SpectralParam(3.0)
    for i, bc in enumerate(conditions(geom)):
        fresh = build()
        np.testing.assert_array_equal(
            assemble_M(bc, geom, lam).matrix,
            assemble_M(conditions(fresh)[i], fresh, lam).matrix,
        )


def test_assembly_plan_does_not_keep_geometry_alive():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    assemble_M(BoundaryCondition("N"), geom, SpectralParam(2.0))
    ref = weakref.ref(geom)
    del geom
    gc.collect()
    assert ref() is None


def test_maue_assembly_evaluates_i0_once_per_pair(monkeypatch):
    import lapscat.boundary_ops as boundary_ops
    import lapscat.kernels as kernels

    seen = []
    real_i0 = kernels._bessel_i0

    def counting(z):
        seen.append(np.size(z))
        return real_i0(z)

    for module in (kernels, boundary_ops):
        monkeypatch.setattr(module, "_bessel_i0", counting)
    geom = make_curve("kite", n_nodes=32)
    n_f = OVERSAMPLE * geom.n_nodes
    for lam_val in (0.5, 2.0):
        seen.clear()
        assemble_M(BoundaryCondition("N"), geom, SpectralParam(lam_val))
        assert seen == [n_f * (n_f - 1) // 2]


def test_coefficient_resolution_forms():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    lam = SpectralParam(1.0)
    by_scalar = assemble_M(BoundaryCondition("alpha", coefficient=1.0), geom, lam)
    by_array = assemble_M(
        BoundaryCondition("alpha", coefficient=np.ones(16)), geom, lam
    )
    by_callable = assemble_M(
        BoundaryCondition("alpha", coefficient=lambda t: np.ones_like(t)), geom, lam
    )
    np.testing.assert_array_equal(by_scalar.matrix, by_array.matrix)
    np.testing.assert_array_equal(by_scalar.matrix, by_callable.matrix)


def test_boundary_condition_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    lam = SpectralParam(1.0)
    with pytest.raises(DomainError):
        BoundaryCondition("robin")
    with pytest.raises(CoefficientError):
        BoundaryCondition("alpha")
    with pytest.raises(SpectralParameterError):
        BoundaryCondition("D", lambda_bound=-1.0)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("alpha", coefficient=0.0), geom, lam)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("alpha", coefficient=np.ones(7)), geom, lam)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("theta", coefficient=np.nan), geom, lam)
    with pytest.raises(SpectralParameterError):
        assemble_M(BoundaryCondition("D", lambda_bound=2.0), geom, SpectralParam(1.5))


def test_assembly_accepts_minimum_node_count():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=8)
    op = assemble_gamma0_SL(geom, SpectralParam(1.0))
    assert op.size == 8


def test_assembly_overflow_guard():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    with pytest.raises(AssemblyError):
        assemble_gamma0_SL(geom, SpectralParam(1.0e7))


def test_invert_M_contract():
    geom = make_curve("kite", n_nodes=64)
    lam = SpectralParam(2.0)
    op = assemble_M(BoundaryCondition("D"), geom, lam)
    inv = invert_M(op)
    eye = np.eye(64)
    assert np.max(np.abs(op.matrix @ inv.matrix - eye)) < 1e-8
    assert inv.symmetry_residual() == 0.0
    assert inv.kind == "M_D_inverse"
    assert inv.space_tags == (op.space_tags[1], op.space_tags[0])


def test_invert_M_refuses_singular():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    bad = BoundaryOperator(
        matrix=np.diag(np.concatenate([np.ones(15), [1e-14]])),
        kind="M_D",
        lam=SpectralParam(1.0),
        geom=geom,
    )
    with pytest.raises(InversionError):
        invert_M(bad)


def test_screen_compression_is_principal_submatrix():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    screen = make_screen(geom, (0.0, math.pi))
    lam = SpectralParam(2.0)
    full = assemble_M(BoundaryCondition("D"), geom, lam)
    idx = screen.active_indices
    sub = compress_to_screen(full, screen)
    assert sub.size == 32
    np.testing.assert_array_equal(sub.matrix, full.matrix[np.ix_(idx, idx)])
    via_bc = assemble_M(BoundaryCondition("D", screen=screen), geom, lam)
    np.testing.assert_array_equal(via_bc.matrix, sub.matrix)
    # a negative definite matrix stays negative definite on the subspace
    assert sign_check(sub).classification == "definite_negative"


def test_jump_relation_three_densities():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    t = geom.params
    for dens in (np.ones_like(t), np.cos(t), 1.0 + 0.5 * np.sin(2.0 * t)):
        assert jump_relation_residual(geom, lam, dens, kind="SL") < 1e-4
        assert jump_relation_residual(geom, lam, dens, kind="DL") < 1e-4
    with pytest.raises(DomainError):
        jump_relation_residual(geom, lam, np.zeros_like(t), kind="SL")
    with pytest.raises(DomainError):
        jump_relation_residual(geom, lam, np.ones_like(t), kind="volume")


def test_gram_identity_residual_small_config():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    res = gram_identity_residual(
        geom, 1.0, 2.0, volume_radius=12.0, volume_resolution=120
    )
    assert res < 1e-2
    with pytest.raises(DomainError):
        gram_identity_residual(geom, 1.0, 1.0)


def test_gram_identity_peak_memory():
    # the volume sums run over blocks of points; one (n, all points)
    # pass peaked at 70 MB on this configuration, the blocks at 25 MB
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    tracemalloc.start()
    try:
        gram_identity_residual(geom, 1.0, 2.0, volume_radius=12.0, volume_resolution=120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_exterior_reproduction_from_interior_sources():
    # solving M_D phi = -trace reproduces the kernel of an interior
    # source everywhere outside
    from lapscat.kernels import fundamental_solution

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    minv = invert_M(assemble_M(BoundaryCondition("D"), geom, lam))
    sw = np.sqrt(geom.weights)
    ang = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    targets = np.stack([3.0 * np.cos(ang), 3.0 * np.sin(ang)], axis=1)
    for x in ((0.0, 0.0), (0.3, 0.1), (-0.2, 0.25), (0.1, -0.3), (-0.35, -0.1)):
        trace = fundamental_solution(2, lam, geom.nodes, np.array(x))
        phi = -(minv.matrix @ (sw * trace)) / sw
        field = evaluate_potential(geom, "SL", phi, targets, lam)
        ref = fundamental_solution(2, lam, targets, np.array(x))
        assert np.linalg.norm(field - ref) / np.linalg.norm(ref) < 1e-6


def test_evaluate_potential_matches_mode_expansion():
    # SL of cos(m.) on the circle is R I_m(s R) K_m(s r) cos(m.) outside
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    s = math.sqrt(2.0)
    for m in (0, 1, 3):
        dens = np.cos(m * geom.params)
        far = evaluate_potential(geom, "SL", dens, np.array([[2.0, 0.0]]), lam)
        want = float(special.iv(m, s) * special.kv(m, s * 2.0))
        assert abs(far[0] - want) / abs(want) < 1e-12
        with pytest.warns(UserWarning):
            near = evaluate_potential(geom, "SL", dens, np.array([[1.05, 0.0]]), lam)
        want_near = float(special.iv(m, s) * special.kv(m, s * 1.05))
        assert abs(near[0] - want_near) / abs(want_near) < 1e-10


def test_evaluate_potential_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    lam = SpectralParam(1.0)
    with pytest.raises(DomainError):
        evaluate_potential(geom, "volume", np.ones(32), np.array([[2.0, 0.0]]), lam)
    with pytest.raises(DomainError):
        evaluate_potential(geom, "SL", np.ones(16), np.array([[2.0, 0.0]]), lam)


def test_resolvable_lambda_cap_scaling():
    # band ceiling grows with node count until the precision ceiling
    # (26/diameter)^2 takes over
    c32 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=32))
    c64 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=64))
    c256 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=256))
    assert c32 == (32 * OVERSAMPLE / 8.0) ** 2
    assert c64 == c256 == (26.0 / 2.0) ** 2
    kite = make_curve("kite", n_nodes=128)
    assert resolvable_lambda_cap(kite) == pytest.approx((26.0 / kite.diameter()) ** 2)


def test_lambda_bound_zero_for_always_definite_kinds():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    for bc in (
        BoundaryCondition("D"),
        BoundaryCondition("N"),
        BoundaryCondition("alpha", coefficient=1.0),
    ):
        bound, report = estimate_lambda_bound(bc, geom)
        assert bound == 0.0
        assert all(report["definite"])
        assert report["certified_up_to"] == report["resolvable_cap"]


def test_lambda_bound_locates_theta_transition():
    # frozen scipy.optimize.brentq transition, re-derived live
    def binding(lmb):
        s = math.sqrt(lmb)
        return lmb * abs(float(special.ivp(0, s) * special.kvp(0, s))) - 1.2

    from scipy.optimize import brentq

    live = brentq(binding, 1.0, 50.0)
    assert abs(live - THETA_MINUS_1_2_TRANSITION) < 1e-9

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    bc = BoundaryCondition("theta", coefficient=-1.2)
    bound, report = estimate_lambda_bound(bc, geom)
    assert abs(bound - THETA_MINUS_1_2_TRANSITION) < 0.15
    lo, hi = report["transition"]
    assert lo <= bound <= hi
    # above the bound the operator really is definite
    op = assemble_M(bc, geom, SpectralParam(bound * 1.1))
    assert sign_check(op).classification == "definite_positive"
    below = assemble_M(bc, geom, SpectralParam(bound * 0.8))
    assert sign_check(below).classification == "indefinite"


def test_lambda_bound_infinite_for_sign_changing_alpha():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    bc = BoundaryCondition("alpha", coefficient=lambda t: np.sign(np.cos(t)) * 0.5)
    bound, report = estimate_lambda_bound(bc, geom)
    assert bound == math.inf
    assert report["certified_up_to"] == report["resolvable_cap"]


def test_lambda_bound_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    with pytest.raises(SpectralParameterError):
        estimate_lambda_bound(BoundaryCondition("D"), geom, lam_min=2.0, lam_max=1.0)


@given(
    st.floats(min_value=0.2, max_value=12.0),
    st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=12, deadline=None)
def test_sl_positive_definite_property(lam_value, radius):
    geom = make_curve("circle", {"radius": radius}, n_nodes=32)
    op = assemble_gamma0_SL(geom, SpectralParam(lam_value))
    assert np.linalg.eigvalsh(op.matrix)[0] > 0.0
