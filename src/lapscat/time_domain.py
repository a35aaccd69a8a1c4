"""Wave-family verification harness on finite self-adjoint surrogates.

The Laplace-domain data operator has a time-domain realization through
cosine/sine operator families Cos(t) = cos(t sqrt(-A)), Sin(t) =
(-A)^{-1/2} sin(t sqrt(-A)) defined by spectral calculus; truncating the
time integral of the masked scattered wave at horizon t_circ and
smearing the source over a pulse of width epsilon perturbs the operator
by an explicitly bounded amount.  This module realizes the families,
the truncated and ideal operators, and the closed-form truncation bound
with constants c1, c2, c3, on matrix surrogates: the bound only needs
self-adjointness and spectral caps, which finite symmetric matrices
satisfy exactly.  A SurrogateModel diagonalizes both generators once;
the ideal operator (fn = 1/(lam - a), less its constant 1/lam) and the
truncated one (less fn(0)) are both the masked difference
1_B[V_p fn(L_p) V_p^T - V_f fn(L_f) V_f^T]1_B.  Swapping the time and
pulse integrals of the horizon integral, then two integrations by parts
with S_a'' = a S_a, S_a(0) = 0, S_a'(0) = 1, give the truncated one's
  fn(a) = int_0^{min(eps, t_circ)} chi(u) e^{-s u} Phi_a(t_circ - u) du,
  Phi_a(L) = int_0^L e^{-s t} S_a(t) dt = (1 - e^{-s L}(C_a(L) + s S_a(L))) / (lam - a),
with s = sqrt(lam) and C_a, S_a the scalar cosine and sine branches.

A note on the bound's min{t,1} ingredient (the x=0 convention
x^{-1} sinh(x t) -> min{t,1}): as a sine-family norm bound it requires
the spectrum to sit at or below -1.  The default surrogate generator
therefore keeps both matrices' spectra <= -1 whenever the spectral cap
lambda_bound is 0, so the truncation inequality holds exactly for every
generated model rather than only heuristically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    QuadratureError,
    SpectralParameterError,
    ValidationError,
)
from .kernels import _gl_panels

SYMMETRY_TOL = 1e-12


# ----------------------------------------------------------------------
# scalar spectral functions (vectorized over eigenvalues)
# ----------------------------------------------------------------------

def _damped(a: np.ndarray, t, s: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-s t) cos- and sin-branch values, overflow-safe for a > 0
    (broadcasts a, t).  The sine takes a power series near a = 0 (where
    a = 0 always falls) and expm1 for small w t, against cancellation."""
    a_b, t_b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
    cos, sin = np.empty_like(a_b), np.empty_like(a_b)
    x = a_b * t_b * t_b
    small = np.abs(x) < 1e-6
    neg = a_b <= 0.0
    t_n, w_n = t_b[neg], np.sqrt(-a_b[neg])
    damp = np.exp(-s * t_n)
    cos[neg] = damp * np.cos(t_n * w_n)
    osc = ~small[neg]
    sin[neg & ~small] = damp[osc] * np.sin(t_n[osc] * w_n[osc]) / w_n[osc]
    t_p, w_p = t_b[~neg], np.sqrt(a_b[~neg])
    grow = np.exp((w_p - s) * t_p)
    cos[~neg] = 0.5 * (grow + np.exp(-(w_p + s) * t_p))
    sin[~neg] = (-0.5 / w_p) * grow * np.expm1(-2.0 * w_p * t_p)
    xs = x[small]
    sin[small] = np.exp(-s * t_b[small]) * t_b[small] * (1.0 + xs / 6.0 + xs * xs / 120.0)
    return cos, sin


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------

def _check_symmetric(mat: np.ndarray, name: str) -> None:
    res = np.linalg.norm(mat - mat.T) / max(np.linalg.norm(mat), 1e-300)
    if res > SYMMETRY_TOL:
        raise ValidationError(f"{name} not symmetric: residual {res:.2e}")


@dataclass(frozen=True)
class SurrogateModel:
    """Pair of symmetric matrices standing in for the two generators.

    a_perturbed has spectrum <= lambda_bound, a_free is negative
    semidefinite, probe_mask marks the observed coordinates (the 0/1
    diagonal restriction).  Both eigensystems (eigenvalues ascending,
    eigenvectors as columns) are computed once, at construction.
    """

    a_perturbed: np.ndarray
    a_free: np.ndarray
    lambda_bound: float
    probe_mask: np.ndarray
    eig_perturbed: tuple[np.ndarray, np.ndarray] = field(init=False)
    eig_free: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        ap = np.asarray(self.a_perturbed, dtype=float)
        af = np.asarray(self.a_free, dtype=float)
        if ap.shape != af.shape or ap.ndim != 2 or ap.shape[0] != ap.shape[1]:
            raise ValidationError("surrogate matrices must be square, same shape")
        _check_symmetric(ap, "a_perturbed")
        _check_symmetric(af, "a_free")
        if not (math.isfinite(self.lambda_bound) and self.lambda_bound >= 0):
            raise ValidationError("lambda_bound must be finite and non-negative")
        mask = np.asarray(self.probe_mask, dtype=bool)
        if mask.shape != (ap.shape[0],) or not np.any(mask):
            raise ValidationError("probe_mask must mark at least one coordinate")
        eig_p, eig_f = np.linalg.eigh(ap), np.linalg.eigh(af)
        tol = 1e-10 * (1.0 + abs(self.lambda_bound))
        if eig_p[0][-1] > self.lambda_bound + tol:
            raise ValidationError(f"a_perturbed max eigenvalue {eig_p[0][-1]:.6g} "
                                  f"exceeds lambda_bound {self.lambda_bound}")
        if eig_f[0][-1] > tol:
            raise ValidationError("a_free must be negative semidefinite")
        for name, value in (("a_perturbed", ap), ("a_free", af), ("probe_mask", mask),
                            ("eig_perturbed", eig_p), ("eig_free", eig_f)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.a_free.shape[0]

    def masked_difference(self, fn) -> np.ndarray:
        """1_B[fn(A_pert) - fn(A_free)]1_B by spectral calculus.

        fn maps an array of eigenvalues to the values of the function;
        the output is symmetric and zero off the observed block.
        """
        (ev_p, v_p), (ev_f, v_f) = self.eig_perturbed, self.eig_free
        diff = (v_p * fn(ev_p)) @ v_p.T - (v_f * fn(ev_f)) @ v_f.T
        out = np.zeros_like(diff)
        idx = np.ix_(self.probe_mask, self.probe_mask)
        out[idx] = diff[idx]
        return 0.5 * (out + out.T)


def eig_max(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[-1])


@dataclass(frozen=True)
class PulseProfile:
    """Non-negative unit-mass source profile supported in [0, epsilon].

    kind 'bump' is the C-infinity bump exp(-1/(x(1-x))) rescaled to the
    support and normalized; 'box' is the flat 1/epsilon profile.
    """

    epsilon: float
    kind: str = "bump"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError("pulse width epsilon must be finite and positive")
        if self.kind not in ("bump", "box"):
            raise ValidationError(f"unknown pulse kind {self.kind!r}")

    @staticmethod
    def _bump_raw(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        xi = x[inside]
        out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
        return out

    @staticmethod
    @lru_cache(maxsize=None)
    def _bump_mass() -> float:
        x, weights = _gl_panels(0.0, 1.0, 1.0, 200)
        return float(np.sum(weights * PulseProfile._bump_raw(x)))

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "box":
            return np.where((s >= 0.0) & (s < self.epsilon), 1.0 / self.epsilon, 0.0)
        x = s / self.epsilon
        return self._bump_raw(x) / (self.epsilon * self._bump_mass())

    def mass(self) -> float:
        if self.kind == "box":
            return 1.0  # exact by construction
        s, weights = _gl_panels(0.0, self.epsilon, self.epsilon, 400)
        return float(np.sum(weights * self(s)))


@dataclass(frozen=True)
class LemmaBound:
    """Closed-form truncation bound and its constituent constants."""

    c1: float
    c2: float
    c3: float
    total: float


# ----------------------------------------------------------------------
# operator families
# ----------------------------------------------------------------------

def _spectral_family(a: np.ndarray, t, branch: int) -> np.ndarray:
    """`_damped` branch 0 (cos) or 1 (sin) of A by spectral calculus, undamped
    (symmetric output); for 1-d times, one matrix per time from one eigh."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0 or not np.all(times >= 0):
        raise DomainError("times must be non-negative: a scalar or a non-empty 1-d array")
    a = np.asarray(a, dtype=float)
    _check_symmetric(a, "A")
    eigvals, vecs = np.linalg.eigh(a)
    outs = [(vecs * _damped(eigvals, ti, 0.0)[branch]) @ vecs.T for ti in np.atleast_1d(times)]
    outs = [0.5 * (out + out.T) for out in outs]
    return outs[0] if times.ndim == 0 else np.stack(outs)


def cosine_family(a: np.ndarray, t) -> np.ndarray:
    """Cos(t) = cos(t sqrt(-A)) by spectral calculus (symmetric output);
    a 1-d array of times gives one matrix per time."""
    return _spectral_family(a, t, 0)


def sine_family(a: np.ndarray, t) -> np.ndarray:
    """Sin(t) = (-A)^{-1/2} sin(t sqrt(-A)), with the t limit at zero modes;
    a 1-d array of times gives one matrix per time."""
    return _spectral_family(a, t, 1)


def laplace_identity_residual(a: np.ndarray, lam: float) -> float:
    """Max relative residual of the two Laplace-transform identities.

    Integrates exp(-sqrt(lam) t) Cos(t) and ... Sin(t) over [0, t_max],
    with t_max set so the integrand tail is below 1e-12 relative, and
    compares against sqrt(lam) (lam I - A)^{-1} and (lam I - A)^{-1}.
    """
    a = np.asarray(a, dtype=float)
    _check_symmetric(a, "A")
    eigvals, vecs = np.linalg.eigh(a)
    amax = float(eigvals[-1])
    # tolerance guard: lam equal to amax up to rounding would leave a
    # zero spectral gap and a divergent tail integral
    if lam <= amax + 1e-9 * max(1.0, abs(amax)):
        raise SpectralParameterError(
            f"lambda {lam} must exceed the top of the spectrum {amax:.6g}"
        )
    s = math.sqrt(lam)
    gap = s - math.sqrt(max(amax, 0.0))
    t_max = 30.0 / gap  # e^{-gap t} below ~1e-13
    w_osc = math.sqrt(max(-float(eigvals[0]), 0.0))
    width = min(0.25, 2.0 * math.pi / (8.0 * w_osc)) if w_osc > 0 else 0.25
    if t_max > 200000.0 * width:
        raise QuadratureError(
            "spectral gap too small: resolving the tail would need more "
            "than 200000 quadrature panels"
        )
    nodes, weights = _gl_panels(0.0, t_max, width, 8)

    cos_vals, sin_vals = _damped(eigvals[:, None], nodes[None, :], s)
    int_cos = cos_vals @ weights
    int_sin = sin_vals @ weights

    resolvent = (vecs / (lam - eigvals)) @ vecs.T
    lhs_cos = (vecs * int_cos) @ vecs.T
    lhs_sin = (vecs * int_sin) @ vecs.T
    r1 = np.linalg.norm(lhs_cos - s * resolvent) / np.linalg.norm(s * resolvent)
    r2 = np.linalg.norm(lhs_sin - resolvent) / np.linalg.norm(resolvent)
    return float(max(r1, r2))


def pulse_response(
    model: SurrogateModel,
    pulse: PulseProfile,
    f: np.ndarray,
    t: float,
) -> np.ndarray:
    """u(t) = int_0^t Sin(t - s) pulse(s) f ds for the perturbed generator."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time must be finite and non-negative, got {t!r}")
    f = np.asarray(f, dtype=float)
    eigvals, vecs = model.eig_perturbed
    if f.shape != eigvals.shape:
        raise DomainError(f"f must have shape {eigvals.shape}, got {f.shape}")
    upper = min(t, pulse.epsilon)
    if upper <= 0.0:
        return np.zeros_like(f)
    nodes, weights = _gl_panels(0.0, upper, pulse.epsilon / 8.0, 12)
    chi = pulse(nodes)
    sinvals = _damped(eigvals[:, None], t - nodes[None, :], 0.0)[1]
    coef = sinvals @ (weights * chi)
    return (vecs * coef) @ (vecs.T @ f)


def _check_lambda(model: SurrogateModel, lam: float) -> None:
    if not (math.isfinite(lam) and lam > model.lambda_bound):
        raise SpectralParameterError(
            f"lambda {lam} must be finite and exceed lambda_bound {model.lambda_bound}"
        )


def _check_horizon(t_circ: float) -> None:
    if not (math.isfinite(t_circ) and t_circ > 0):
        raise DomainError(f"truncation horizon must be finite and positive, got {t_circ!r}")


def assemble_F_ideal(model: SurrogateModel, lam: float) -> np.ndarray:
    """Masked resolvent difference 1_B[(lam-A_pert)^{-1}-(lam-A_free)^{-1}]1_B."""
    _check_lambda(model, lam)
    for ev, _ in (model.eig_perturbed, model.eig_free):
        if np.min(np.abs(lam - ev)) < 1e-12 * max(1.0, abs(lam)):
            raise SpectralParameterError("lambda numerically inside the spectrum")
    # (lam - a)^{-1} = 1/lam + a / (lam (lam - a)); the 1/lam I terms cancel, and leaving
    # them out keeps the eigenvectors' orthogonality error (times 1/lam) out of F
    return model.masked_difference(lambda ev: ev / (lam * (lam - ev)))


def _truncated_side(
    eigvals: np.ndarray,
    pulse: PulseProfile,
    s: float,
    t_circ: float,
) -> np.ndarray:
    """Per-eigenvalue horizon integral int_0^{t_circ} e^{-s t} u_a(t) dt.

    u_a is the pulse convolution of the scalar sine branch.  One
    Gauss-Legendre rule over the pulse integrates chi(u) e^{-s u}
    Phi_a(t_circ - u), Phi_a in closed form (module docstring) or, where
    (s + sqrt|a|) L < 1 and that form cancels, by the Taylor series of
    f = e^{-s t} S_a: f'' + 2s f' + (lam - a) f = 0, f(0) = 0, f'(0) = 1.
    """
    nodes, weights = _gl_panels(0.0, min(pulse.epsilon, t_circ), pulse.epsilon / 8.0, 12)
    a, lag = np.broadcast_arrays(eigvals[:, None], t_circ - nodes[None, :])
    cos, sin = _damped(a, lag, s)
    phi = (1.0 - cos - s * sin) / (s * s - a)
    small = (s + np.sqrt(np.abs(a))) * lag < 1.0
    if small.any():
        am, lm = a[small], lag[small]
        d_prev, d, total = 0.0, lm, 0.5 * lm   # d = c_k L^k, below L / (k-1)! here
        for k in range(1, 21):
            d_prev, d = d, -(2.0 * s * k * d + (s * s - am) * lm * d_prev) * lm / (k * (k + 1))
            total += d / (k + 2)
        phi[small] = lm * total
    return phi @ (weights * pulse(nodes) * np.exp(-s * nodes))


def assemble_F_truncated(
    model: SurrogateModel,
    pulse: PulseProfile,
    lam: float,
    t_circ: float,
) -> np.ndarray:
    """Truncated data operator: horizon t_circ, pulse width epsilon.

    int_0^{t_circ} e^{-sqrt(lam) t} 1_B [u_pert(t) - u_free(t)] 1_B dt
    computed per eigenbasis of each generator.
    """
    _check_lambda(model, lam)
    _check_horizon(t_circ)
    s = math.sqrt(lam)
    # fn(0) I cancels; leaving it out keeps the eigenvectors' rounding (times fn(0)) out of F
    fn0 = _truncated_side(np.zeros(1), pulse, s, t_circ)
    return model.masked_difference(lambda ev: _truncated_side(ev, pulse, s, t_circ) - fn0)


# ----------------------------------------------------------------------
# the truncation bound
# ----------------------------------------------------------------------

def _sinh_over(x: float, t: float) -> float:
    """x^{-1} sinh(x t), extended by the convention min{t,1} at x = 0."""
    if x == 0.0:
        return min(t, 1.0)
    return math.sinh(x * t) / x


def lemma_bound(
    lam: float,
    lambda_bound: float,
    lambda_circ: float,
    t_circ: float,
    epsilon: float,
) -> LemmaBound:
    """Closed-form bound on ||F_ideal - F_truncated|| for the surrogates.

    Requires lam >= lambda_circ > lambda_bound >= 0 and t_circ > epsilon > 0.
    """
    if not (lambda_bound >= 0 and lambda_circ > lambda_bound and lam >= lambda_circ):
        raise SpectralParameterError(
            "need lambda >= lambda_circ > lambda_bound >= 0, got "
            f"{lam}, {lambda_circ}, {lambda_bound}"
        )
    _check_horizon(t_circ)
    if not (t_circ > epsilon > 0):
        raise ValidationError("need t_circ > epsilon > 0")
    sb = math.sqrt(lambda_bound)
    sc = math.sqrt(lambda_circ)
    sl = math.sqrt(lam)
    c1 = (lambda_circ / (lambda_circ - lambda_bound)) * (
        math.cosh(sb * t_circ) / sc + _sinh_over(sb, t_circ)
    ) + (1.0 / sc + min(t_circ, 1.0))
    c2 = math.cosh(sb * epsilon) + _sinh_over(sb, epsilon) / epsilon + 2.0
    c3 = math.cosh(sb * t_circ) + 1.0
    total = (
        c1 * math.exp(-sl * t_circ)
        + epsilon * (c2 * (1.0 - math.exp(-sl * epsilon)) + c3 * math.exp(-sl * epsilon))
    ) / sl
    return LemmaBound(c1=c1, c2=c2, c3=c3, total=total)


def make_random_surrogate(dim: int, lambda_bound: float, seed: int) -> SurrogateModel:
    """Random surrogate pair: shifted tridiagonal Laplacian plus rank 3.

    The free matrix is a scaled second-difference operator shifted so
    its spectrum lies in [-c, -1]; the perturbed matrix adds a low-rank
    symmetric term and is shifted to put its top eigenvalue strictly
    below lambda_bound (below -1 when lambda_bound is 0; see the module
    docstring for why).
    """
    if dim < 3:
        raise ValidationError("surrogate dimension must be at least 3")
    rng = np.random.default_rng(seed)
    scale = 0.8 + 0.4 * rng.random()
    free = scale * (
        -2.0 * np.eye(dim)
        + np.eye(dim, k=1)
        + np.eye(dim, k=-1)
    )
    shift = 1.0 + 0.3 * rng.random()
    free = free - shift * np.eye(dim) - eig_max(free) * np.eye(dim)
    # top of spectrum now exactly at -shift <= -1

    u = rng.standard_normal((dim, 3))
    u, _ = np.linalg.qr(u)
    c = rng.uniform(-2.0, 2.0, size=3)
    pert = free + (u * c) @ u.T
    if lambda_bound > 0:
        target = lambda_bound * (0.3 + 0.65 * rng.random())
    else:
        target = -(1.05 + 0.45 * rng.random())
    pert = pert + (target - eig_max(pert)) * np.eye(dim)

    block = max(3, dim // 3)
    start = int(rng.integers(0, dim - block + 1))
    mask = np.zeros(dim, dtype=bool)
    mask[start : start + block] = True
    return SurrogateModel(
        a_perturbed=0.5 * (pert + pert.T),
        a_free=0.5 * (free + free.T),
        lambda_bound=lambda_bound,
        probe_mask=mask,
    )


def verify_bound(
    model: SurrogateModel,
    pulse_family: list[PulseProfile],
    lambda_grid: list[float],
    t_circ_grid: list[float],
) -> dict:
    """Check measured truncation error against the closed-form bound.

    The bound is taken at lambda_circ = lambda.  Every (lambda, t_circ,
    pulse) cell reports measured norm, bound and slack; a single
    violation flips the overall pass flag (the inequality holds exactly
    for admissible surrogates, so a violation indicates an implementation
    or quadrature defect, and the report says which tuple failed).
    """
    cells = []
    all_pass = True
    for lam in lambda_grid:
        f_ideal = assemble_F_ideal(model, lam)
        for t_circ in t_circ_grid:
            for pulse in pulse_family:
                bound = lemma_bound(lam, model.lambda_bound, lam, t_circ, pulse.epsilon)
                f_trunc = assemble_F_truncated(model, pulse, lam, t_circ)
                measured = float(np.linalg.norm(f_ideal - f_trunc, 2))
                passed = measured <= bound.total * (1.0 + 1e-12)
                all_pass &= passed
                cells.append(
                    {
                        "lambda": lam,
                        "t_circ": t_circ,
                        "epsilon": pulse.epsilon,
                        "pulse": pulse.kind,
                        "measured": measured,
                        "bound": bound.total,
                        "slack": bound.total / measured if measured > 0 else math.inf,
                        "passed": passed,
                    }
                )
    return {
        "dim": model.dim,
        "lambda_bound": model.lambda_bound,
        "n_cells": len(cells),
        "n_failed": sum(0 if c["passed"] else 1 for c in cells),
        "all_passed": all_pass,
        "cells": cells,
    }
