"""Tests for the matrix-surrogate harness and the truncation bound.

The truncated-operator reference value below was computed independently
with scipy.integrate.quad: each entry of the horizon integral was
evaluated by adaptive nested quadrature (outer integral over observation
time, inner integral over the source convolution), working directly from
eigendecompositions of the two generator matrices.  The Frobenius norm
of that entrywise-integrated matrix was frozen here; the package's
closed-form assembly must reproduce it.  The second pin, at a horizon
inside the pulse, was frozen from the same nested quadrature.  The matrix
in data/truncated_inside_pulse_mpmath40.npy is `_mpmath_truncated`
(40-digit mpmath eigensystems and quadrature) at a horizon inside a
narrow pulse, where the operator is about 4e-7 of each of its two sides.
"""

import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapscat.errors import (
    DomainError,
    SpectralParameterError,
    ValidationError,
)
from lapscat.time_domain import (
    LemmaBound,
    PulseProfile,
    SurrogateModel,
    _damped,
    assemble_F_ideal,
    assemble_F_truncated,
    cosine_family,
    eig_max,
    laplace_identity_residual,
    lemma_bound,
    make_random_surrogate,
    pulse_response,
    sine_family,
    verify_bound,
)

# Frozen first: Frobenius norm of the truncated operator at
# dim=6, lambda_bound=1, seed=11, bump pulse eps=0.3, lambda=4, horizon=1.3,
# from the adaptive nested-quadrature reference described above.
TRUNCATED_NORM_REFERENCE = 0.02014039290381836
# Same model, pulse and lambda at horizon 0.2, inside the pulse.
TRUNCATED_NORM_INSIDE_PULSE = 2.7611726830558682e-06


def test_truncated_operator_matches_adaptive_quadrature_reference():
    model = make_random_surrogate(6, 1.0, 11)
    f = assemble_F_truncated(model, PulseProfile(0.3), 4.0, 1.3)
    norm = np.linalg.norm(f)
    assert abs(norm - TRUNCATED_NORM_REFERENCE) < 1e-9 * TRUNCATED_NORM_REFERENCE


def test_truncated_operator_inside_the_pulse_matches_quadrature_reference():
    model = make_random_surrogate(6, 1.0, 11)
    norm = np.linalg.norm(assemble_F_truncated(model, PulseProfile(0.3), 4.0, 0.2))
    assert abs(norm - TRUNCATED_NORM_INSIDE_PULSE) < 1e-9 * TRUNCATED_NORM_INSIDE_PULSE


def _mpmath_truncated(model, epsilon, lam, t_circ):
    """F_T for a bump pulse from 40-digit eigensystems of both generators,
    with Phi_a in closed form and mpmath quadrature over the pulse."""
    with mpmath.workdps(40):
        s, eps, t = mpmath.sqrt(lam), mpmath.mpf(epsilon), mpmath.mpf(t_circ)
        mass = mpmath.mpf(PulseProfile._bump_mass())  # the profile's own normalisation

        def chi(u):
            x = u / eps
            return mpmath.exp(-1 / (x * (1 - x))) / (eps * mass) if 0 < x < 1 else 0

        def phi(a, lag):
            w = mpmath.sqrt(a)  # imaginary for a < 0: cosh, sinh(w L)/w stay real
            c, sn = mpmath.cosh(w * lag), (mpmath.sinh(w * lag) / w if a != 0 else lag)
            return (1 - mpmath.exp(-s * lag) * mpmath.re(c + s * sn)) / (lam - a)

        def side(mat):
            ev, vec = mpmath.eigsy(mpmath.matrix(mat.tolist()))
            fn = [mpmath.quad(lambda u: chi(u) * mpmath.exp(-s * u) * phi(a, t - u),
                              [0, min(eps, t)]) for a in ev]
            return vec * mpmath.diag(fn) * vec.T

        diff = side(model.a_perturbed) - side(model.a_free)
        out = np.array(diff.tolist(), dtype=float)
    out[~model.probe_mask, :] = 0.0
    out[:, ~model.probe_mask] = 0.0
    return out


TRUNCATED_INSIDE_PULSE_TABLE = os.path.join(
    os.path.dirname(__file__), "data", "truncated_inside_pulse_mpmath40.npy"
)


def test_truncated_operator_inside_a_narrow_pulse_matches_mpmath():
    # horizon eps/2 inside a bump of width 0.01: ||F_T|| = 2.0e-13 while
    # each side is 4.7e-7.  The closed form alone cancelled there to a
    # relative error of 6.9e-6; its Taylor series and the dropped fn(0)
    # identity term keep it to 2e-10
    model = make_random_surrogate(16, 0.0, 0)
    ref = np.load(TRUNCATED_INSIDE_PULSE_TABLE)
    f = assemble_F_truncated(model, PulseProfile(0.01), 4.0, 0.005)
    assert np.linalg.norm(f - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("dim", [6, 12])
@pytest.mark.parametrize("lam", [4.0, 9.0])
@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_long_horizon_box_pulse_is_laplace_transform_of_the_box(dim, lam, eps):
    # past the pulse the horizon tail is below e^{-30}: F_T tends to the
    # box's Laplace transform (1 - e^{-s eps})/(s eps) times F_ideal
    model = make_random_surrogate(dim, 1.0, 3)
    s = math.sqrt(lam)
    ref = -math.expm1(-s * eps) / (s * eps) * assemble_F_ideal(model, lam)
    f = assemble_F_truncated(model, PulseProfile(eps, "box"), lam, 30.0)
    assert np.linalg.norm(f - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ideal_operator_is_masked_resolvent_difference():
    model = make_random_surrogate(9, 2.0, 4)
    lam = 7.0
    f = assemble_F_ideal(model, lam)
    eye = np.eye(model.dim)
    direct = np.linalg.inv(lam * eye - model.a_perturbed) - np.linalg.inv(
        lam * eye - model.a_free
    )
    idx = np.where(model.probe_mask)[0]
    block = np.zeros_like(direct)
    block[np.ix_(idx, idx)] = direct[np.ix_(idx, idx)]
    assert np.max(np.abs(f - block)) < 1e-12
    # unobserved rows and columns are exactly zero
    assert np.all(f[~model.probe_mask, :] == 0.0)
    assert np.all(f[:, ~model.probe_mask] == 0.0)


@pytest.mark.parametrize("lam", [25.0, 64.0])
def test_ideal_operator_matches_extended_precision_resolvents(lam):
    # at large lambda F is a small difference of two resolvents of norm
    # ~1/lam; the spectral form must not lose digits to that cancellation
    model = make_random_surrogate(14, 0.0, 2)
    with mpmath.workdps(40):
        eye = mpmath.eye(model.dim)
        diff = (lam * eye - mpmath.matrix(model.a_perturbed.tolist())) ** -1 - (
            lam * eye - mpmath.matrix(model.a_free.tolist())
        ) ** -1
        ref = np.array(diff.tolist(), dtype=float)
    ref[~model.probe_mask, :] = 0.0
    ref[:, ~model.probe_mask] = 0.0
    f = assemble_F_ideal(model, lam)
    assert np.linalg.norm(f - ref) <= 1e-13 * np.linalg.norm(ref)


def test_ideal_operator_spectral_validation():
    model = make_random_surrogate(6, 1.0, 0)
    with pytest.raises(SpectralParameterError):
        assemble_F_ideal(model, 1.0)  # must strictly exceed the bound
    with pytest.raises(SpectralParameterError):
        assemble_F_ideal(model, 0.5)
    # a spectral parameter sitting on an eigenvalue is rejected even if
    # it clears the declared bound
    edge = SurrogateModel(
        a_perturbed=np.diag([1.0, -1.0, -2.0]),
        a_free=np.diag([-1.0, -1.0, -1.0]),
        lambda_bound=1.0,
        probe_mask=np.array([True, True, False]),
    )
    with pytest.raises(SpectralParameterError):
        assemble_F_ideal(edge, 1.0 + 1e-13)


def test_cosine_family_diagonal_branches():
    # negative eigenvalue oscillates, zero freezes at 1, positive grows
    a = np.diag([-4.0, 0.0, 0.25])
    t = 1.3
    c = cosine_family(a, t)
    expect = np.diag([math.cos(2.0 * t), 1.0, math.cosh(0.5 * t)])
    assert np.max(np.abs(c - expect)) < 1e-14 * math.cosh(0.5 * t)
    np.testing.assert_array_equal(cosine_family(a, 0.0), np.eye(3))
    with pytest.raises(DomainError):
        cosine_family(a, -0.1)


def test_sine_family_diagonal_branches():
    a = np.diag([-4.0, 0.0, 0.25])
    t = 1.3
    s = sine_family(a, t)
    expect = np.diag([math.sin(2.0 * t) / 2.0, t, math.sinh(0.5 * t) / 0.5])
    assert np.max(np.abs(s - expect)) < 1e-14 * math.sinh(0.5 * t) / 0.5
    np.testing.assert_array_equal(sine_family(a, 0.0), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        sine_family(a, -0.1)


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_damped_sine_growth_branch_has_no_cancellation(s):
    # e^{-st} sinh(w t) / w for a = w^2 > 0 just past the power-series
    # range, where e^{wt} - e^{-wt} loses digits to cancellation
    w = np.sqrt(np.logspace(-5.9, 0, 60))
    t = 1.0
    got = _damped(w * w, t, s)[1]
    exact = math.exp(-s * t) * np.sinh(w * t) / w
    assert np.max(np.abs(got - exact) / exact) < 2e-15


def test_families_take_an_array_of_times_with_one_eigh(monkeypatch):
    from lapscat import selftest

    a = make_random_surrogate(12, 0.0, seed=5).a_free
    ts = np.linspace(0.0, 1.3, 9)
    for family in (cosine_family, sine_family):
        stacked = family(a, ts)
        assert stacked.shape == (9, 12, 12)
        for k, tk in enumerate(ts):
            np.testing.assert_array_equal(stacked[k], family(a, float(tk)))
    for bad in (np.array([0.5, -0.1]), np.array([0.5, np.nan]), np.empty(0), np.ones((2, 12))):
        with pytest.raises(DomainError):
            cosine_family(a, bad)

    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    passed, _ = selftest._check_sine_integral_of_cosine()
    assert passed
    # two for the model's eigensystems, one for the 801 cosine times
    # and one for the sine family
    assert len(calls) == 4


def test_sine_family_is_time_integral_of_cosine():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    a = 0.5 * (a + a.T)
    t = 1.7
    gn, gw = np.polynomial.legendre.leggauss(60)
    nodes = 0.5 * t * (gn + 1.0)
    weights = 0.5 * t * gw
    acc = sum(w * cosine_family(a, ti) for ti, w in zip(nodes, weights))
    target = sine_family(a, t)
    assert np.linalg.norm(acc - target) < 1e-13 * np.linalg.norm(target)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=25, deadline=None)
def test_cosine_addition_identity(t, s):
    # Cos(t+s) = Cos(t)Cos(s) + A Sin(t)Sin(s), uniformly on mixed spectra
    a = _ADDITION_MATRIX
    lhs = cosine_family(a, t + s)
    rhs = cosine_family(a, t) @ cosine_family(a, s) + a @ sine_family(
        a, t
    ) @ sine_family(a, s)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(lhs), 1.0)


_ADDITION_RNG = np.random.default_rng(3)
_ADDITION_MATRIX = _ADDITION_RNG.standard_normal((5, 5))
_ADDITION_MATRIX = 0.5 * (_ADDITION_MATRIX + _ADDITION_MATRIX.T)


def test_propagator_norm_bounds():
    # with spectrum below b, ||Cos(t)|| <= cosh(sqrt(b) t) and the sine
    # family obeys the matching sinh bound (time up to 6)
    for seed in (0, 5, 9):
        model = make_random_surrogate(10, 1.0, seed)
        for mat in (model.a_perturbed, model.a_free):
            sb = math.sqrt(max(eig_max(mat), 0.0))
            for t in np.linspace(0.05, 6.0, 12):
                cos_bound = math.cosh(sb * t)
                sin_bound = math.sinh(sb * t) / sb if sb > 0 else min(t, 1.0)
                assert np.linalg.norm(cosine_family(mat, t), 2) <= cos_bound * (
                    1.0 + 1e-10
                )
                assert np.linalg.norm(sine_family(mat, t), 2) <= sin_bound * (
                    1.0 + 1e-10
                )


def test_laplace_identity_residual_small():
    for seed in (0, 1, 2):
        model = make_random_surrogate(8, 1.0, seed)
        assert laplace_identity_residual(model.a_perturbed, 4.0) < 1e-10
        assert laplace_identity_residual(model.a_free, 4.0) < 1e-10
    model = make_random_surrogate(8, 1.0, 0)
    with pytest.raises(SpectralParameterError):
        laplace_identity_residual(model.a_perturbed, eig_max(model.a_perturbed))


def test_pulse_profile_support_and_mass():
    for kind in ("bump", "box"):
        for eps in (0.01, 0.3, 1.7):
            pulse = PulseProfile(eps, kind)
            assert abs(pulse.mass() - 1.0) < 1e-9
            x = np.array([-1e-9, eps, eps + 1e-9, 2 * eps])
            assert np.all(pulse(x) == 0.0)
            inside = np.linspace(eps * 0.1, eps * 0.9, 7)
            assert np.all(pulse(inside) >= 0.0)
            assert pulse(np.array([eps / 2])) > 0.0
    with pytest.raises(ValidationError):
        PulseProfile(0.0)
    with pytest.raises(ValidationError):
        PulseProfile(0.1, "triangle")


def test_lemma_constants_closed_form():
    # at lambda_bound=0 the hyperbolic factors collapse to rationals
    b = lemma_bound(9.0, 0.0, 4.0, 2.0, 0.5)
    assert b.c1 == 3.0
    assert b.c2 == 4.0
    assert b.c3 == 2.0
    expected = (
        3.0 * math.exp(-6.0)
        + 0.5 * (4.0 * (1.0 - math.exp(-1.5)) + 2.0 * math.exp(-1.5))
    ) / 3.0
    assert math.isclose(b.total, expected, rel_tol=1e-15)
    assert isinstance(b, LemmaBound)


def test_lemma_bound_monotonicity():
    totals_t = [lemma_bound(9.0, 0.0, 4.0, tc, 0.05).total for tc in (1.0, 2.0, 3.0, 4.0)]
    assert all(a > b for a, b in zip(totals_t, totals_t[1:]))
    totals_eps = [lemma_bound(9.0, 0.0, 4.0, 2.0, e).total for e in (0.01, 0.1, 0.3)]
    assert all(a < b for a, b in zip(totals_eps, totals_eps[1:]))
    totals_lam = [lemma_bound(lam, 0.0, 4.0, 2.0, 0.1).total for lam in (4.0, 9.0, 25.0)]
    assert all(a > b for a, b in zip(totals_lam, totals_lam[1:]))


def test_lemma_bound_validation():
    with pytest.raises(SpectralParameterError):
        lemma_bound(3.0, 0.0, 4.0, 2.0, 0.5)  # lambda below lambda_circ
    with pytest.raises(SpectralParameterError):
        lemma_bound(9.0, 4.0, 4.0, 2.0, 0.5)  # lambda_circ not past the bound
    with pytest.raises(ValidationError):
        lemma_bound(9.0, 0.0, 4.0, 0.4, 0.5)  # horizon shorter than the pulse
    with pytest.raises(ValidationError):
        lemma_bound(9.0, 0.0, 4.0, 2.0, 0.0)


def test_truncated_operator_validation():
    model = make_random_surrogate(6, 1.0, 11)
    pulse = PulseProfile(0.3)
    with pytest.raises(SpectralParameterError):
        assemble_F_truncated(model, pulse, 1.0, 1.3)
    with pytest.raises(DomainError):
        assemble_F_truncated(model, pulse, 4.0, 0.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda m: assemble_F_truncated(m, PulseProfile(0.3), 4.0, _NAN), DomainError),
        (lambda m: assemble_F_truncated(m, PulseProfile(0.3), 4.0, _INF), DomainError),
        (lambda m: lemma_bound(4.0, 1.0, 4.0, _INF, 0.3), DomainError),
        (lambda m: assemble_F_ideal(m, _NAN), SpectralParameterError),
        (lambda m: assemble_F_truncated(m, PulseProfile(0.3), _NAN, 1.3), SpectralParameterError),
        (lambda m: PulseProfile(_NAN), ValidationError),
        (lambda m: PulseProfile(_INF), ValidationError),
        (lambda m: SurrogateModel(m.a_perturbed, m.a_free, _NAN, m.probe_mask), ValidationError),
    ],
    ids=["F_T-nan-horizon", "F_T-inf-horizon", "bound-inf-horizon", "F-nan-lambda",
         "F_T-nan-lambda", "nan-epsilon", "inf-epsilon", "nan-lambda_bound"],
)
def test_non_finite_inputs_raise_the_module_errors(call, error):
    # no non-finite input may come back as a plausible or NaN operator
    model = make_random_surrogate(6, 1.0, 11)
    with pytest.raises(error):
        call(model)


def test_truncated_operator_vanishes_without_perturbation():
    same = np.diag([-1.0, -2.0, -3.0])
    model = SurrogateModel(
        a_perturbed=same,
        a_free=same,
        lambda_bound=0.0,
        probe_mask=np.array([True, True, True]),
    )
    f = assemble_F_truncated(model, PulseProfile(0.2), 4.0, 1.5)
    np.testing.assert_array_equal(f, np.zeros((3, 3)))
    np.testing.assert_array_equal(assemble_F_ideal(model, 4.0), np.zeros((3, 3)))


def test_truncation_error_decreases_with_horizon():
    model = make_random_surrogate(6, 1.0, 11)
    pulse = PulseProfile(0.3)
    ideal = assemble_F_ideal(model, 4.0)
    errs = [
        np.linalg.norm(ideal - assemble_F_truncated(model, pulse, 4.0, tc), 2)
        for tc in (1.0, 2.0, 4.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    # each measured error sits under the closed-form bound
    for tc, err in zip((1.0, 2.0, 4.0), errs):
        assert err <= lemma_bound(4.0, 1.0, 4.0, tc, 0.3).total


def test_verify_bound_report():
    model = make_random_surrogate(6, 1.0, 11)
    report = verify_bound(model, [PulseProfile(0.1)], [4.0, 9.0], [1.0, 2.0])
    assert report["all_passed"] is True
    assert report["n_failed"] == 0
    assert report["n_cells"] == 4
    assert report["dim"] == 6
    for cell in report["cells"]:
        assert cell["passed"]
        assert cell["slack"] > 1.0
        assert cell["measured"] <= cell["bound"]


def test_verify_bound_reuses_the_model_eigensystems(monkeypatch):
    # both eigensystems are computed when the model is built; checking the
    # bound on a built model factors and solves nothing more
    model = make_random_surrogate(12, 1.0, 3)
    calls = []
    for name in ("eigh", "solve", "inv"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = verify_bound(model, [PulseProfile(0.1)], [4.0, 9.0], [2.0])
    assert report["all_passed"] is True
    assert calls == []


def test_pulse_response_basics():
    model = make_random_surrogate(6, 1.0, 11)
    pulse = PulseProfile(0.3)
    f = np.ones(6)
    assert np.all(pulse_response(model, pulse, f, 0.0) == 0.0)
    u = pulse_response(model, pulse, f, 1.0)
    assert u.shape == (6,)
    assert np.all(np.isfinite(u)) and np.linalg.norm(u) > 0.0
    with pytest.raises(DomainError):
        pulse_response(model, pulse, f, -1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_pulse_response_rejects_non_finite_time(t):
    # NaN raised a bare ValueError; inf returned NaNs with a RuntimeWarning
    model = make_random_surrogate(6, 1.0, 11)
    with pytest.raises(DomainError, match="finite"):
        pulse_response(model, PulseProfile(0.3), np.ones(6), t)


def test_pulse_response_rejects_wrong_length_f():
    # a length mismatch used to fail inside a matmul
    model = make_random_surrogate(6, 1.0, 11)
    for f in (np.ones(5), np.ones(7)):
        with pytest.raises(DomainError, match="shape"):
            pulse_response(model, PulseProfile(0.3), f, 1.0)


def test_random_surrogate_spectra_and_determinism():
    a = make_random_surrogate(12, 2.0, 7)
    b = make_random_surrogate(12, 2.0, 7)
    np.testing.assert_array_equal(a.a_perturbed, b.a_perturbed)
    np.testing.assert_array_equal(a.a_free, b.a_free)
    np.testing.assert_array_equal(a.probe_mask, b.probe_mask)
    c = make_random_surrogate(12, 2.0, 8)
    assert np.any(c.a_perturbed != a.a_perturbed)
    assert eig_max(a.a_perturbed) <= 2.0
    assert eig_max(a.a_free) <= -1.0  # strictly dissipative free generator
    assert 3 <= int(np.sum(a.probe_mask)) <= 12
    zero_bound = make_random_surrogate(10, 0.0, 3)
    assert eig_max(zero_bound.a_perturbed) <= -1.0
    with pytest.raises(ValidationError):
        make_random_surrogate(2, 1.0, 0)


def test_surrogate_model_validation():
    ok = np.diag([-1.0, -2.0])
    mask = np.array([True, False])
    with pytest.raises(ValidationError):
        SurrogateModel(np.diag([1.0, -1.0]), ok, 0.5, mask)  # exceeds bound
    with pytest.raises(ValidationError):
        SurrogateModel(ok, np.diag([0.5, -1.0]), 0.0, mask)  # free not dissipative
    with pytest.raises(ValidationError):
        SurrogateModel(ok, ok, 0.0, np.array([False, False]))
    with pytest.raises(ValidationError):
        SurrogateModel(np.array([[0.0, 1.0], [0.0, 0.0]]), ok, 0.0, mask)
