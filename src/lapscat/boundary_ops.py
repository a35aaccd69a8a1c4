"""Boundary integral operators for (-Delta + lambda) on closed curves.

Discretization is Nystrom on equispaced parameter nodes.  The single
layer trace gamma0 SL splits its kernel logarithmically,

    (1/2pi) K_0(s r(t, u)) = C1(t, u) log(4 sin^2((t-u)/2)) + C2(t, u),
    C1 = -(1/4pi) I_0(s r),      s = sqrt(lambda),

with C1, C2 smooth and periodic, and applies the trigonometric product
quadrature for the log factor plus the trapezoid rule for the rest.
The hypersingular trace gamma1 DL is reduced by the Maue identity

    gamma1 DL = d/ds SL d/ds - lambda * SL_{n.n'}

(tangential derivatives via the spectral differentiation matrix,
SL_{n.n'} the single layer weighted by the normals' inner product).

Both are assembled on a grid refined OVERSAMPLE times and projected
back.  All lambda-independent parts form a per-geometry assembly plan,
built on the first assembly and freed with the geometry; an assembly
then evaluates I_0 and K_0 once per node pair, for SL and SL_{n.n'}.

All operator matrices live in *weighted nodal coordinates*: a trace or
density u on Gamma is represented by the vector (sqrt(w_j) u(q_j)), so
the Euclidean inner product equals the discrete L2(Gamma) product and
self-adjoint operators have symmetric matrices.  Sign conventions match
the factorized resolvent: M_D = -gamma0 SL (negative definite),
M_N = -gamma1 DL (positive definite), M_alpha = -(1/alpha + gamma0 SL),
M_theta = theta - gamma1 DL.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssemblyError,
    CoefficientError,
    DomainError,
    GeometryError,
    InversionError,
    QuadratureError,
    SpectralParameterError,
    TruncationError,
)
from .geometry import BoundaryGeometry, ScreenGeometry, distance_to_boundary
from .kernels import (
    EULER_GAMMA,
    SpectralParam,
    _bessel_i0,
    _k01,
    _radial_dg,
    _radial_g,
)

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# condition number above which invert_M refuses to proceed
CONDITION_CAP = 1e12

# Internal quadrature oversampling for operator assembly.  The product
# rule is exact only while kernel content plus test mode stay inside the
# quadrature band, and the differentiation matrix annihilates the
# band-edge cosine; assembling on a refined grid and projecting back
# keeps every coarse-grid mode strictly inside the exact band.
OVERSAMPLE = 2

_SPACE_TAGS = {
    "gamma0_SL": ("H^{-1/2}(Gamma)", "H^{1/2}(Gamma)"),
    "gamma1_DL": ("H^{1/2}(Gamma)", "H^{-1/2}(Gamma)"),
    "M_D": ("H^{-1/2}(Gamma)", "H^{1/2}(Gamma)"),
    "M_N": ("H^{1/2}(Gamma)", "H^{-1/2}(Gamma)"),
    "M_alpha": ("L^2(Gamma)", "L^2(Gamma)"),
    "M_theta": ("H^{1/2}(Gamma)", "H^{-1/2}(Gamma)"),
}


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense symmetric matrix realization of a boundary operator.

    ``matrix`` acts on weight-scaled nodal vectors (see module docstring).
    For screen compressions only the active nodes are kept.
    """

    matrix: np.ndarray
    kind: str
    lam: SpectralParam
    geom: BoundaryGeometry
    screen: ScreenGeometry | None = None
    space_tags: tuple[str, str] = ("", "")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def symmetry_residual(self) -> float:
        a = self.matrix
        denom = np.linalg.norm(a)
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(a - a.T) / denom)


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition selecting the operator family M_lambda.

    kind: 'D' | 'N' | 'alpha' | 'theta'.  ``coefficient`` may be a
    scalar, an array of nodal values, or a callable of the shape
    parameter t; it is resolved against a geometry at assembly time.
    ``lambda_bound`` is the lambda_Lambda floor for admissible lambda.
    """

    kind: str
    coefficient: object = None
    screen: ScreenGeometry | None = None
    lambda_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("D", "N", "alpha", "theta"):
            raise DomainError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind in ("alpha", "theta") and self.coefficient is None:
            raise CoefficientError(f"{self.kind} condition requires a coefficient")
        if self.lambda_bound < 0:
            raise SpectralParameterError("lambda_bound must be non-negative")

    def resolve_coefficient(self, geom: BoundaryGeometry) -> np.ndarray:
        c = self.coefficient
        if callable(c):
            vals = np.asarray(c(geom.params), dtype=float)
        else:
            vals = np.asarray(c, dtype=float)
            if vals.ndim == 0:
                vals = np.full(geom.n_nodes, float(vals))
        if vals.shape != (geom.n_nodes,):
            raise CoefficientError(
                f"coefficient resolves to shape {vals.shape}, expected ({geom.n_nodes},)"
            )
        if not np.all(np.isfinite(vals)):
            raise CoefficientError("coefficient has non-finite nodal values")
        return vals


@dataclass(frozen=True)
class SignReport:
    classification: str  # definite_positive | definite_negative | indefinite
    eig_min: float
    eig_max: float
    tolerance: float


# ----------------------------------------------------------------------
# quadrature ingredients
# ----------------------------------------------------------------------

def kress_log_weights(n: int) -> np.ndarray:
    """Product-quadrature matrix R for the log(4 sin^2((t-u)/2)) factor.

    R[i, j] integrates the log singularity against the trigonometric
    interpolant; exact for integrands of trigonometric degree < n/2.
    """
    if n % 2 != 0 or n < 4:
        raise AssemblyError("log-singularity rule needs an even node count >= 4")
    d = np.arange(n)
    td = TWO_PI * d / n
    m = np.arange(1, n // 2)
    rvec = -(4.0 * np.pi / n) * (np.cos(np.outer(d, m) * TWO_PI / n) / m).sum(axis=1)
    rvec -= (4.0 * np.pi / n**2) * np.cos(0.5 * n * td)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return rvec[idx]


def trig_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix on n equispaced periodic nodes."""
    if n % 2 != 0:
        raise AssemblyError("spectral differentiation matrix needs even n")
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / n)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True)
class _AssemblyPlan:
    """Lambda-independent part of the oversampled Nystrom rule.  Pair
    values are kept on the strict upper triangle of the refined grid, in
    the row-major order of ``upper``; R is not bitwise symmetric, so both
    R[i, j] and R[j, i] are kept."""

    fine: BoundaryGeometry   # the curve refined OVERSAMPLE times
    prolong: np.ndarray      # isometry, coarse -> fine weighted coordinates
    upper: np.ndarray        # (nf, nf) mask of the strict upper triangle
    r: np.ndarray            # |q_i - q_j|
    logsin: np.ndarray       # log(4 sin^2((tau_i - tau_j)/2))
    kress_ij: np.ndarray     # R[i, j]
    kress_ji: np.ndarray     # R[j, i]
    kress_diag: float        # R[i, i]
    nn: np.ndarray           # n_i . n_j, as (normals @ normals.T)[i, j]
    dmat: np.ndarray         # spectral differentiation matrix
    sqrt_jac: np.ndarray
    inv_sqrt_jac: np.ndarray


def _assembly_plan(geom: BoundaryGeometry) -> _AssemblyPlan:
    """The geometry's plan, built on its first assembly and kept in the
    instance ``__dict__`` (hence ``object.__setattr__`` on the frozen
    dataclass), so it is freed with the geometry."""
    plan = vars(geom).get("_assembly_plan")
    if plan is not None:
        return plan
    fine = _refined_geometry(geom, OVERSAMPLE)
    nf = fine.n_nodes
    upper = np.triu(np.ones((nf, nf), dtype=bool), 1)
    iu, ju = np.nonzero(upper)
    interp = _trig_upsample(np.eye(geom.n_nodes), OVERSAMPLE)
    kress = kress_log_weights(nf)
    sj = np.sqrt(fine.jacobians)
    plan = _AssemblyPlan(
        fine=fine,
        prolong=np.sqrt(fine.weights)[:, None] * interp / np.sqrt(geom.weights)[None, :],
        upper=upper,
        r=np.linalg.norm(fine.nodes[iu] - fine.nodes[ju], axis=-1),
        logsin=np.log(4.0 * np.sin(0.5 * (fine.params[iu] - fine.params[ju])) ** 2),
        kress_ij=kress[upper],
        kress_ji=kress.T[upper],
        kress_diag=float(kress[0, 0]),
        nn=(fine.normals @ fine.normals.T)[upper],
        dmat=trig_diff_matrix(nf),
        sqrt_jac=sj,
        inv_sqrt_jac=1.0 / sj,
    )
    object.__setattr__(geom, "_assembly_plan", plan)
    return plan


def _sl_core(plan: _AssemblyPlan, lam: SpectralParam, nn_weight: bool):
    """Symmetric kernel cores (B, B_nn) with quadrature folded in.

    The weighted single-layer matrix is J^{1/2} B J^{1/2}; B_nn (None
    unless ``nn_weight``) carries the n(x).n(y) factor of the Maue
    remainder.  Both come from one kernel pass over the upper triangle.
    """
    s = lam.sqrt_lam
    h = TWO_PI / plan.fine.n_nodes
    z = s * plan.r
    i0 = _bessel_i0(z)
    k0 = _k01(0, z, i0)

    def fold(c1, smooth, diag):
        hc2 = h * (smooth - c1 * plan.logsin)
        tri = 0.5 * ((plan.kress_ij * c1 + hc2) + (plan.kress_ji * c1 + hc2))
        core = np.empty(plan.upper.shape)
        core[plan.upper] = tri
        core.T[plan.upper] = tri
        np.fill_diagonal(core, diag)
        return core

    with np.errstate(over="ignore", invalid="ignore"):
        c1 = -(0.25 / np.pi) * i0
        smooth = (0.5 / np.pi) * k0
        # coincidence limit of the smooth part (same with or without the
        # normal-normal factor, which tends to 1 quadratically)
        c2_diag = (0.5 / np.pi) * (-np.log(0.5 * s * plan.fine.jacobians) - EULER_GAMMA)
        diag = plan.kress_diag * (-0.25 / np.pi) + h * c2_diag
        core = fold(c1, smooth, diag)
        core_nn = fold(c1 * plan.nn, smooth * plan.nn, diag) if nn_weight else None
    return core, core_nn


def _refined_geometry(geom: BoundaryGeometry, factor: int) -> BoundaryGeometry:
    """Spectrally upsampled copy of the geometry (factor x the nodes).

    Nodes are interpolated trigonometrically; tangents come from the
    spectral derivative of the interpolant so quadrature weights stay
    consistent with the refined node set.
    """
    nf = geom.n_nodes * factor
    nodes = _trig_upsample(geom.nodes, factor)
    spec = np.fft.fft(nodes, axis=0)
    k = np.fft.fftfreq(nf, d=1.0 / nf)
    k[nf // 2] = 0.0
    tangents = np.real(np.fft.ifft(1j * k[:, None] * spec, axis=0))
    jac = np.linalg.norm(tangents, axis=1)
    if np.any(jac <= 0):
        raise AssemblyError("refined parametrization degenerated (zero Jacobian)")
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1) / jac[:, None]
    tau = TWO_PI * np.arange(nf) / nf
    periodic_part = _trig_upsample(geom.shape_params - geom.params, factor)
    return BoundaryGeometry(
        nodes=nodes,
        tangents=tangents,
        normals=normals,
        weights=(TWO_PI / nf) * jac,
        closed=True,
        param_range=(0.0, TWO_PI),
        params=tau,
        shape_params=(tau + periodic_part) % TWO_PI,
        shape=geom.shape,
        cluster=geom.cluster,
    )


def _assemble(geom: BoundaryGeometry, lam: SpectralParam, kind: str) -> BoundaryOperator:
    """gamma0 SL or (Maue) gamma1 DL on the refined grid, projected back."""
    if not geom.closed:
        raise AssemblyError("boundary operator assembly requires a closed curve")
    if geom.n_nodes < 8:
        raise AssemblyError("need at least 8 nodes for the splitting rule")
    plan = _assembly_plan(geom)
    maue = kind == "gamma1_DL"
    core, core_nn = _sl_core(plan, lam, nn_weight=maue)
    sj = plan.sqrt_jac
    if maue:
        inv_sj = plan.inv_sqrt_jac
        # symmetric already: dmat is antisymmetric and appears on both sides
        t1 = (inv_sj[:, None] * (plan.dmat @ core @ plan.dmat)) * inv_sj[None, :]
        t2 = -lam.lam * (sj[:, None] * core_nn * sj[None, :])
        mat_f = t1 + t2
    else:
        mat_f = core * np.outer(sj, sj)
    p = plan.prolong
    mat = p.T @ mat_f @ p
    if not np.all(np.isfinite(mat)):
        raise AssemblyError(
            "operator entries overflowed; sqrt(lambda) * diameter is too "
            "large for double precision at this resolution"
        )
    return BoundaryOperator(
        matrix=0.5 * (mat + mat.T), kind=kind, lam=lam, geom=geom,
        space_tags=_SPACE_TAGS[kind],
    )


def assemble_gamma0_SL(geom: BoundaryGeometry, lam: SpectralParam) -> BoundaryOperator:
    """Weighted Nystrom matrix of the single-layer trace gamma0 SL_lambda.

    Positive definite for every lambda > 0; spectrally accurate on
    analytic curves thanks to the log-splitting rule.
    """
    return _assemble(geom, lam, "gamma0_SL")


def assemble_gamma1_DL(geom: BoundaryGeometry, lam: SpectralParam) -> BoundaryOperator:
    """Weighted matrix of the hypersingular trace gamma1 DL_lambda.

    Maue reduction: tangential-derivative sandwich of the single layer
    plus the lambda-weighted normal-normal single layer.  Negative
    definite for lambda > 0.
    """
    return _assemble(geom, lam, "gamma1_DL")


# ----------------------------------------------------------------------
# the M family
# ----------------------------------------------------------------------

def compress_to_screen(op: BoundaryOperator, screen: ScreenGeometry) -> BoundaryOperator:
    """Discrete R_Sigma M R_Sigma^*: the active-node principal submatrix."""
    if screen.parent is not op.geom and screen.parent.n_nodes != op.geom.n_nodes:
        raise GeometryError("screen parent does not match the operator geometry")
    idx = screen.active_indices
    sub = np.ascontiguousarray(op.matrix[np.ix_(idx, idx)])
    return BoundaryOperator(
        matrix=sub, kind=op.kind, lam=op.lam, geom=op.geom, screen=screen,
        space_tags=op.space_tags,
    )


def assemble_M(
    bc: BoundaryCondition, geom: BoundaryGeometry, lam: SpectralParam
) -> BoundaryOperator:
    """Assemble M_lambda for the given boundary condition (screen-aware)."""
    if lam.lam <= bc.lambda_bound:
        raise SpectralParameterError(
            f"lambda {lam.lam} must exceed the condition's bound {bc.lambda_bound}"
        )
    if bc.kind in ("alpha", "theta"):
        coef = bc.resolve_coefficient(geom)
    if bc.kind == "alpha":
        if np.any(np.abs(coef) < 1e-14):
            raise CoefficientError("alpha has (numerically) zero nodal values")
        if bc.screen is not None:
            active = coef[bc.screen.active_mask]
            if np.any(active > 0) and np.any(active < 0):
                raise CoefficientError("alpha must have constant sign on a screen")
    single_layer = bc.kind in ("D", "alpha")
    base = (assemble_gamma0_SL if single_layer else assemble_gamma1_DL)(geom, lam).matrix
    if bc.kind in ("D", "N"):
        mat = -base
    elif bc.kind == "alpha":
        mat = -(np.diag(1.0 / coef) + base)
    else:  # theta
        mat = np.diag(coef) - base
    kind = "M_" + bc.kind

    op = BoundaryOperator(
        matrix=0.5 * (mat + mat.T), kind=kind, lam=lam, geom=geom,
        space_tags=_SPACE_TAGS[kind],
    )
    if bc.screen is not None:
        op = compress_to_screen(op, bc.screen)
    return op


def sign_check(op: BoundaryOperator) -> SignReport:
    """Classify definiteness by the extreme eigenvalues."""
    mat = op.matrix if isinstance(op, BoundaryOperator) else np.asarray(op)
    res = np.linalg.norm(mat - mat.T) / max(np.linalg.norm(mat), 1e-300)
    if res > 1e-8:
        raise DomainError(f"sign_check expects a symmetric matrix, residual {res:.2e}")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    tol = 1e-12 * float(np.max(np.abs(eigs))) if eigs.size else 0.0
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo > tol:
        cls = "definite_positive"
    elif hi < -tol:
        cls = "definite_negative"
    else:
        cls = "indefinite"
    return SignReport(classification=cls, eig_min=lo, eig_max=hi, tolerance=tol)


def invert_M(op: BoundaryOperator) -> BoundaryOperator:
    """Symmetric inverse of an M matrix, refusing past the condition cap."""
    mat = 0.5 * (op.matrix + op.matrix.T)
    eigs, vecs = np.linalg.eigh(mat)
    amax = float(np.max(np.abs(eigs)))
    amin = float(np.min(np.abs(eigs)))
    cond = math.inf if amin == 0.0 else amax / amin
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise InversionError(
            f"operator {op.kind} numerically singular: condition estimate {cond:.3e}"
        )
    inv = (vecs / eigs) @ vecs.T
    inv = 0.5 * (inv + inv.T)
    return BoundaryOperator(
        matrix=inv, kind=op.kind + "_inverse", lam=op.lam, geom=op.geom,
        screen=op.screen, space_tags=(op.space_tags[1], op.space_tags[0]),
    )


def resolvable_lambda_cap(geom: BoundaryGeometry) -> float:
    """Largest lambda whose operator spectrum this geometry can certify.

    Two ceilings apply.  Band limit: the product rule is exact while
    kernel content (width about sqrt(lambda) * max |dq/dtau|) plus the
    probed mode stay inside the oversampled quadrature band.  Precision
    limit: the log splitting cancels terms of size I_0(sqrt(lambda) *
    diam), so once that magnitude times machine epsilon reaches the
    smallest eigenvalues, signs become unreliable at any node count.
    Both are returned with a safety factor of about 2 in sqrt(lambda).
    """
    rho = float(np.max(geom.jacobians))
    band = (geom.n_nodes * OVERSAMPLE / (8.0 * rho)) ** 2
    precision = (26.0 / geom.diameter()) ** 2
    return min(band, precision)


def estimate_lambda_bound(
    bc: BoundaryCondition,
    geom: BoundaryGeometry,
    lam_min: float = 1e-3,
    lam_max: float | None = None,
    tol: float = 1e-2,
) -> tuple[float, dict]:
    """Estimate lambda_Lambda by bisection on the definiteness transition.

    Scans a geometric ladder of lambda values for the first sign-definite
    M_lambda, then bisects between the last indefinite and the first
    definite value.  Returns (bound, report).  A condition definite on
    the whole ladder reports bound 0; one never definite up to the
    ladder top reports inf (with the certified range in the report).
    The default ladder top is the resolution cap of the geometry, so the
    answer never rests on unresolved band-edge eigenvalues.
    """
    probe = BoundaryCondition(
        kind=bc.kind, coefficient=bc.coefficient, screen=bc.screen, lambda_bound=0.0
    )
    cap = resolvable_lambda_cap(geom)
    if lam_max is None:
        lam_max = min(1024.0, cap)
    if lam_max <= lam_min:
        raise SpectralParameterError(
            f"ladder top {lam_max} must exceed ladder bottom {lam_min}"
        )

    def definite(lam_val: float) -> bool:
        op = assemble_M(probe, geom, SpectralParam(lam_val))
        return sign_check(op).classification != "indefinite"

    ladder = []
    v = lam_min
    while v <= lam_max:
        ladder.append(v)
        v *= 4.0
    if ladder[-1] < lam_max:
        ladder.append(lam_max)
    flags = [definite(v) for v in ladder]
    report = {"ladder": ladder, "definite": flags, "resolvable_cap": cap,
              "certified_up_to": lam_max}
    if all(flags):
        return 0.0, report
    if not flags[-1]:
        return math.inf, report
    hi_idx = next(i for i in range(len(flags)) if flags[i] and all(flags[i:]))
    lo, hi = ladder[hi_idx - 1], ladder[hi_idx]
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if definite(mid):
            hi = mid
        else:
            lo = mid
    report["transition"] = (lo, hi)
    return hi, report


# ----------------------------------------------------------------------
# off-surface evaluation
# ----------------------------------------------------------------------

def _trig_upsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Zero-padded FFT interpolation of periodic nodal data (axis 0)."""
    n = values.shape[0]
    spec = np.fft.fft(values, axis=0)
    nf = n * factor
    out = np.zeros((nf,) + values.shape[1:], dtype=complex)
    half = n // 2
    out[:half] = spec[:half]
    out[nf - half + 1:] = spec[half + 1:]
    # split the Nyquist coefficient over +-n/2 to keep the interpolant real
    out[half] = 0.5 * spec[half]
    out[nf - half] = 0.5 * spec[half]
    return np.real(np.fft.ifft(out, axis=0)) * factor


def evaluate_potential(
    geom: BoundaryGeometry,
    kind: str,
    density: np.ndarray,
    targets: np.ndarray,
    lam: SpectralParam,
    upsample: int = 8,
) -> np.ndarray:
    """Layer potential (SL or DL) of a nodal density at off-surface targets.

    Densities are plain nodal values (not weight-scaled).  Targets closer
    to the boundary than two node spacings trigger a near-singular
    warning and are evaluated on an FFT-upsampled quadrature instead.
    """
    if kind not in ("SL", "DL"):
        raise DomainError(f"potential kind must be 'SL' or 'DL', got {kind!r}")
    density = np.asarray(density, dtype=float)
    if density.shape != (geom.n_nodes,):
        raise DomainError("density must be a full nodal vector")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))

    dists = distance_to_boundary(geom, targets)
    if np.any(dists <= 0.0):
        raise DomainError("targets must be strictly off-surface")
    spacing = float(np.max(geom.weights))
    near = dists < 2.0 * spacing

    out = np.empty(targets.shape[0])
    far = ~near
    if np.any(far):
        out[far] = _layer_sum(kind, geom, density, targets[far], lam)
    if np.any(near):
        warnings.warn(
            "near-singular potential evaluation; using upsampled quadrature",
            stacklevel=2,
        )
        fine = _refined_geometry(geom, upsample)
        dens = _trig_upsample(density, upsample)
        out[near] = _layer_sum(kind, fine, dens, targets[near], lam)
    return out


def _layer_sum(kind, src: BoundaryGeometry, dens, targets, lam: SpectralParam, directions=None):
    """Trapezoid sum of the SL or DL potential of the nodal density
    ``dens`` on ``src`` at off-surface targets; with ``directions``, the
    SL potential's derivative along them instead."""
    diff = targets[:, None, :] - src.nodes[None, :, :]    # (m, n, 2)
    r = np.linalg.norm(diff, axis=-1)
    if directions is not None:
        # grad_x g = g'(r) (x - y)/r
        proj = np.einsum("mnk,mk->mn", diff, directions) / r
        ker = _radial_dg(2, lam.sqrt_lam, r) * proj
    elif kind == "SL":
        ker = _radial_g(2, lam.sqrt_lam, r)
    else:
        # d/dn_y g = g'(r) * (y - x) . n_y / r
        proj = -np.einsum("mnk,nk->mn", diff, src.normals) / r
        ker = _radial_dg(2, lam.sqrt_lam, r) * proj
    return ker @ (src.weights * dens)


def jump_relation_residual(
    geom: BoundaryGeometry,
    lam: SpectralParam,
    density: np.ndarray,
    kind: str = "SL",
    h0: float | None = None,
    upsample: int = 16,
) -> float:
    """Residual of the trace-jump law across Gamma, by Richardson ladder.

    For SL the jump of the normal derivative equals -density; for DL the
    jump of the Dirichlet trace equals +density.  Two-sided offsets at
    h, h/2, h/4 are extrapolated twice; non-contracting differences
    raise a diagnostic error.
    """
    if kind not in ("SL", "DL"):
        raise DomainError("kind must be 'SL' or 'DL'")
    density = np.asarray(density, dtype=float)
    scale = geom.perimeter() / TWO_PI
    if h0 is None:
        h0 = 0.05 * scale
    fine = _refined_geometry(geom, upsample)
    fine_dens = _trig_upsample(density, upsample)
    directions = geom.normals if kind == "SL" else None

    def jump(h: float) -> np.ndarray:
        outer = _layer_sum(kind, fine, fine_dens, geom.nodes + h * geom.normals, lam, directions)
        inner = _layer_sum(kind, fine, fine_dens, geom.nodes - h * geom.normals, lam, directions)
        return outer - inner

    j1, j2, j4 = jump(h0), jump(0.5 * h0), jump(0.25 * h0)
    d1 = np.linalg.norm(j2 - j1)
    d2 = np.linalg.norm(j4 - j2)
    if d2 > 0.95 * d1 and d2 > 1e-12:
        raise QuadratureError(
            f"jump extrapolation not contracting: {d1:.3e} -> {d2:.3e}"
        )
    r1 = 2.0 * j2 - j1
    r2 = 2.0 * j4 - j2
    extrap = (4.0 * r2 - r1) / 3.0

    target = -density if kind == "SL" else density
    w = geom.weights
    num = math.sqrt(float(np.sum(w * (extrap - target) ** 2)))
    den = math.sqrt(float(np.sum(w * target**2)))
    if den == 0.0:
        raise DomainError("zero density in jump test")
    return num / den


# ----------------------------------------------------------------------
# operator-identity diagnostics
# ----------------------------------------------------------------------

def gram_identity_residual(
    geom: BoundaryGeometry,
    lambda1: float,
    lambda2: float,
    volume_radius: float = 12.0,
    volume_resolution: int = 200,
) -> float:
    """Residual of the two-parameter difference identity for M_D.

    M_{z} - M_{w} = (z - w) * Gram with Gram_{jk} the volume integral of
    g_w(y_j, u) g_z(u, y_k) over the plane, truncated to a disk.  The
    truncation is guarded by comparing against a 25% larger disk.
    """
    if lambda1 == lambda2:
        raise DomainError("gram identity is degenerate at lambda1 == lambda2")
    if lambda1 <= 0 or lambda2 <= 0:
        raise DomainError("spectral parameters must be positive")
    if volume_resolution < 8:
        raise DomainError("volume_resolution too small")

    big_radius = 1.25 * volume_radius
    cell = 2.0 * big_radius / round(volume_resolution * 1.25)
    n_cells = int(round(2.0 * big_radius / cell))
    coords = -big_radius + cell * (np.arange(n_cells) + 0.5)
    gx, gy = np.meshgrid(coords, coords, indexing="xy")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    rad = np.linalg.norm(pts, axis=1)

    s1 = math.sqrt(lambda1)
    s2 = math.sqrt(lambda2)

    def gram_for(u: np.ndarray, area: float) -> np.ndarray:
        n = geom.n_nodes
        out = np.zeros((n, n))
        # blocks of volume points bound the (n, block) kernel temporaries
        for lo in range(0, u.shape[0], 4096):
            blk = u[lo : lo + 4096]
            d1 = np.linalg.norm(geom.nodes[:, None, :] - blk[None, :, :], axis=-1)
            k_z = _radial_g(2, s1, d1)      # g_{lambda1}(y_j, u)
            k_w = _radial_g(2, s2, d1)      # g_{lambda2}(y_j, u)
            out += (k_w * area) @ k_z.T
        return out

    # cells near the curve see the kernels' log singularity; refine them
    # with a sub-midpoint rule so the global error stays O(cell^2)
    band = distance_to_boundary(geom, pts) <= 2.5 * cell
    inner_mask = (rad <= volume_radius) & ~band
    annulus_mask = (rad > volume_radius) & (rad <= big_radius)
    gram = gram_for(pts[inner_mask], cell * cell)
    sub = 8
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy = np.meshgrid(offs, offs, indexing="xy")
    shift = cell * np.stack([ox.ravel(), oy.ravel()], axis=1)
    near_pts = (pts[band & (rad <= volume_radius)][:, None, :] + shift[None, :, :])
    gram += gram_for(near_pts.reshape(-1, 2), (cell / sub) ** 2)
    gram_tail = gram_for(pts[annulus_mask], cell * cell)

    sw = np.sqrt(geom.weights)
    weighted = lambda g: sw[:, None] * g * sw[None, :]  # noqa: E731
    m1 = assemble_M(BoundaryCondition(kind="D"), geom, SpectralParam(lambda1)).matrix
    m2 = assemble_M(BoundaryCondition(kind="D"), geom, SpectralParam(lambda2)).matrix

    lhs = m1 - m2
    rhs = (lambda1 - lambda2) * weighted(gram)
    denom = np.linalg.norm(lhs)
    residual = float(np.linalg.norm(lhs - rhs) / denom)
    tail_share = float(
        abs(lambda1 - lambda2) * np.linalg.norm(weighted(gram_tail)) / denom
    )
    if tail_share > 0.5 * max(residual, 1e-3):
        raise TruncationError(
            f"volume truncation dominates: annulus share {tail_share:.3e} "
            f"vs residual {residual:.3e}; increase volume_radius"
        )
    return residual
