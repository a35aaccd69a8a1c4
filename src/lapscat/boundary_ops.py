"""Boundary integral operators for (-Delta + lambda) on closed curves.

Discretization is Nystrom on equispaced parameter nodes.  The single
layer trace gamma0 SL splits its kernel logarithmically,

    (1/2pi) K_0(s r(t, u)) = C1(t, u) log(4 sin^2((t-u)/2)) + C2(t, u),
    C1 = -(1/4pi) I_0(s r),      s = sqrt(lambda),

with C1, C2 smooth and periodic.  The product rule R for the log factor
and the trapezoid rule (step h) for the rest both act on C1, so

    R C1 + h C2 = I_0 W + (h/2pi) K_0,   W = -(1/4pi)(R - h log(4 sin^2((t-u)/2))),

a circulant, lambda-independent W in which the terms of size I_0 cancel
once.  The hypersingular trace gamma1 DL is reduced by the Maue identity

    gamma1 DL = d/ds SL d/ds - lambda * SL_{n.n'}

(SL_{n.n'} the single layer weighted by the normals' inner product).

Both kernels are folded into a symmetric core C on a grid refined
OVERSAMPLE times.  With P the weighted prolongation from the coarse
grid, J the refined Jacobians and D the spectral derivative, which is
antisymmetric, every assembly is a congruence with two lambda-
independent (2n x n) factors SP = J^{1/2} P and Q = D J^{-1/2} P:

    gamma0 SL = SP^T C SP,    gamma1 DL = -Q^T C Q - lambda SP^T C_nn SP.

SP and W by gap d = 0..nf/2 form a per-geometry assembly plan, built on
the first assembly and freed with the geometry; Q joins it on the first
Maue assembly (N or theta).  No core is stored.  With U' the strict
upper triangle of C plus half its diagonal, F^T C F = X + X^T for
X = F^T (U' F), exactly symmetric.  An assembly walks U' once, by row
ranges of the refined curve of at most _BLOCK node pairs but at least
_PANEL_ROWS rows; each range recomputes its distances (and normals, for
C_nn), evaluates I_0 and K_0 once per node pair and multiplies straight
into T = U' F.

All operator matrices live in *weighted nodal coordinates*: a trace or
density u on Gamma is represented by the vector (sqrt(w_j) u(q_j)), so
the Euclidean inner product equals the discrete L2(Gamma) product and
self-adjoint operators have symmetric matrices.  Sign conventions match
the factorized resolvent: M_D = -gamma0 SL (negative definite),
M_N = -gamma1 DL (positive definite), M_alpha = -(1/alpha + gamma0 SL),
M_theta = theta - gamma1 DL.  A screen is an index set on its curve's
nodes, and its M the principal submatrix of the curve's M there.

M is the one operator assembled here (`assemble_M`); the traces are
minus M_D and M_N.  An assembled `BoundaryOperator` carries its
read-only matrix, its condition and lambda, and makes its sign report
(`sign_check`) once.  A geometry keeps the last operator assembled on
it: `assemble_M` called again with the same condition object and an
equal lambda returns that same object, so classifying M and then
forming F at the same lambda assembles and analyses M once.  Neither
the operator nor its condition refers back to the geometry, so
reference counting alone frees the geometry and what it keeps.

Off the surface, `_layer_matrix` is the one sampler of g and dg/dn_y
from source points to targets: the layer potentials, the jump ladder,
the Gram volume factors, G of `data_operator` (by the table `LAYER`)
and the range test's fields g_z in `reconstruction` all use it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AssemblyError,
    CoefficientError,
    DomainError,
    GeometryError,
    QuadratureError,
    SingularityError,
    SpectralParameterError,
    TruncationError,
)
from .geometry import TWO_PI, BoundaryGeometry, ScreenGeometry, distance_to_boundary
from .geometry import _BLOCK, _by_row_blocks, _curve, _distances, _plane_norm
from .kernels import (
    COINCIDENCE_TOL,
    EULER_GAMMA,
    SpectralParam,
    _bessel_i0,
    _gauss_legendre,
    _k01,
    _radial_dg,
    _radial_g,
)

# Internal quadrature oversampling for operator assembly.  The product
# rule is exact only while kernel content plus test mode stay inside the
# quadrature band, and the spectral derivative annihilates the band-edge
# cosine; assembling on a refined grid and projecting back
# keeps every coarse-grid mode strictly inside the exact band.
OVERSAMPLE = 2

# The BLAS splits a product's inner dimension one way on one thread and
# another on several unless that dimension is a multiple of 32 or at most
# 384 (measured on OpenBLAS 0.3.31, Haswell kernels): each product of the
# assembly is padded on the left with zero columns to such a width, so M
# keeps its bits at any BLAS thread count where the refined node count is
# such a width too
_GEMM_DEPTH = 32

# rows of a row range at least: thinner products stream their factor from
# memory for few flops.  Up to n = 520 every range of _BLOCK pairs has 32
# rows or more; above, the first ranges hold 32 rows and more pairs
_PANEL_ROWS = 32

# estimate_lambda_bound's bisection bracket and relative stopping width
BOUND_LAM_MIN, BOUND_LAM_MAX, BOUND_TOL = 1e-3, 1024.0, 1e-2

# refinement of the off-surface quadratures: near-singular potential
# targets, and the jump ladder's largest offset h0.  The trapezoid error
# at offset h and fine node spacing delta falls like exp(-2 pi h / delta),
# so each halved offset of the ladder doubles its rung's refinement:
# 4, 8 and 16 at h0, h0/2 and h0/4
_NEAR_UPSAMPLE, _JUMP_UPSAMPLE = 8, 4

# the layer each condition's M and G are built from: M is minus its trace
# (gamma0 SL or gamma1 DL) plus the coefficient term, G samples its kernel
LAYER = {"D": "SL", "alpha": "SL", "N": "DL", "theta": "DL"}


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition selecting the operator family M_lambda.

    kind: 'D' | 'N' | 'alpha' | 'theta'.  ``coefficient`` (alpha and theta
    only) is a scalar, an array of nodal values, or a callable of the shape
    parameter t (``geom.shape_params``, not the quadrature parameter of a
    graded curve); it is resolved against a geometry at assembly time.
    An array or list is kept as a read-only copy, so a condition cannot
    change under the M its geometry keeps for it (see `assemble_M`).
    ``lambda_bound`` is the lambda_Lambda floor for admissible lambda.
    """

    kind: str
    coefficient: object = None
    screen: ScreenGeometry | None = None
    lambda_bound: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in LAYER:  # a list is unhashable
            raise DomainError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind in ("alpha", "theta") and self.coefficient is None:
            raise CoefficientError(f"{self.kind} condition requires a coefficient")
        if self.kind in ("D", "N") and self.coefficient is not None:
            raise CoefficientError(f"{self.kind} condition takes no coefficient")
        if not 0.0 <= self.lambda_bound < math.inf:
            raise SpectralParameterError("lambda_bound must be finite and non-negative")
        if isinstance(self.coefficient, (list, np.ndarray)):
            coef = np.array(self.coefficient)
            coef.flags.writeable = False
            object.__setattr__(self, "coefficient", coef)

    def resolve_coefficient(self, geom: BoundaryGeometry) -> np.ndarray:
        c = self.coefficient
        if callable(c):
            vals = np.asarray(c(geom.shape_params), dtype=float)
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
    condition: float  # max|mu| / min|mu| over the eigenvalues, inf if singular


@dataclass(frozen=True)
class BoundaryOperator:
    """An assembled M_lambda: its read-only symmetric matrix, the condition
    it holds and lambda.

    ``matrix`` acts on weight-scaled nodal vectors (see module docstring);
    a screen condition's keeps only the active nodes.
    """

    matrix: np.ndarray
    bc: BoundaryCondition
    lam: SpectralParam

    @property
    def kind(self) -> str:
        return "M_" + self.bc.kind

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _report(self) -> SignReport:
        mat = self.matrix
        res = np.linalg.norm(mat - mat.T) / max(np.linalg.norm(mat), 1e-300)
        if res > 1e-8:
            raise DomainError(f"sign_check expects a symmetric matrix, residual {res:.2e}")
        # an exactly symmetric matrix is its own symmetric part, bit for bit
        eigs = np.linalg.eigvalsh(mat if res == 0.0 else 0.5 * (mat + mat.T))
        amax, amin = float(np.max(np.abs(eigs))), float(np.min(np.abs(eigs)))
        tol = 1e-12 * amax
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo > tol:
            cls = "definite_positive"
        elif hi < -tol:
            cls = "definite_negative"
        else:
            cls = "indefinite"
        cond = math.inf if amin == 0.0 else amax / amin
        return SignReport(classification=cls, eig_min=lo, eig_max=hi, condition=cond)


# ----------------------------------------------------------------------
# quadrature ingredients
# ----------------------------------------------------------------------

def _kress_vector(n: int) -> np.ndarray:
    """The product rule R for the log(4 sin^2((t-u)/2)) factor, by folded gap:
    R[i, j] = v[min(d, n - d)], d = (i - j) mod n, integrates the log
    singularity against the trigonometric interpolant, exactly for integrands
    of trigonometric degree < n/2.  v[d] = -(4pi/n) sum_{m<n/2} cos(m t_d)/m
    - (4pi/n^2)(-1)^d for d = 0..n/2: the first half of one irfft of a_m = 1/m
    (m = 1..n/2)."""
    if n % 2 != 0 or n < 4:
        raise AssemblyError("log-singularity rule needs an even node count >= 4")
    return -TWO_PI * np.fft.irfft(np.r_[0.0, 1.0 / np.arange(1, n // 2 + 1)], n)[:n // 2 + 1]


def _spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dtau of the trigonometric interpolant of periodic nodal data
    (axis 0, even node count), with the band-edge mode dropped so the
    rule is real and antisymmetric.  Returns an owned real array."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    k = k.reshape((n,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(1j * k * np.fft.fft(values, axis=0), axis=0).real.copy()


@dataclass(frozen=True)
class _AssemblyPlan:
    """Lambda-independent part of the oversampled Nystrom rule; `_sl_core`
    recomputes the pair geometry block by block from ``fine``."""

    fine: BoundaryGeometry   # the curve refined OVERSAMPLE times
    wvec: np.ndarray         # W by gap d = 0..nf/2: W[i, i ± d] = wvec[d]; wvec[0] = -(1/4pi) R[i, i]
    sp: np.ndarray           # J^{1/2} P, P the coarse -> fine isometry
    q: np.ndarray | None     # D J^{-1/2} P, D the spectral derivative; None until a Maue assembly


def _factor_columns(geom: BoundaryGeometry, derivative: bool):
    """The (nf, n) interpolation columns of P (or their spectral derivative)
    and the scale sqrt(h / w_j) of column j, P = J^{1/2} sqrt(h / w) interp.
    Shifts commute with upsampling and the spectral derivative: column j
    is column 0 moved OVERSAMPLE j down, a window of the doubled one."""
    n, nf = geom.n_nodes, OVERSAMPLE * geom.n_nodes
    col = _trig_upsample(np.eye(1, n)[0], OVERSAMPLE)
    if derivative:
        col = _spectral_derivative(col)
    cols = sliding_window_view(np.r_[col, col], nf)[nf:0:-OVERSAMPLE].T
    return cols, np.sqrt((TWO_PI / nf) / geom.weights)


def _assembly_plan(geom: BoundaryGeometry, maue: bool = False) -> _AssemblyPlan:
    """The geometry's plan, built on its first assembly and kept in the
    instance ``__dict__`` (hence ``object.__setattr__`` on the frozen
    dataclass), so it is freed with the geometry.  Q is added on the
    first call with ``maue``; SP is never rebuilt."""
    plan = vars(geom).get("_assembly_plan")
    if plan is not None and (plan.q is not None or not maue):
        return plan
    if plan is None:
        fine = _refined_geometry(geom, OVERSAMPLE)
        nf = fine.n_nodes
        logsin = np.log(4.0 * np.sin((np.pi / nf) * np.arange(1, nf // 2 + 1)) ** 2)
        # W[d] = -(1/4pi)(R[d] - h log(4 sin^2(pi d / nf))), with no log term at d = 0
        wvec = (-0.25 / np.pi) * (_kress_vector(nf) - (TWO_PI / nf) * np.r_[0.0, logsin])
        cols, scale = _factor_columns(geom, derivative=False)
        # row-major factors: the rounding of the BLAS congruences depends on the layout
        sp = np.multiply(fine.jacobians[:, None], cols, order="C") * scale
        plan = _AssemblyPlan(fine=fine, wvec=wvec, sp=sp, q=None)
    if maue:
        cols, scale = _factor_columns(geom, derivative=True)
        plan = replace(plan, q=np.multiply(cols, scale, order="C"))
    object.__setattr__(geom, "_assembly_plan", plan)
    return plan


@lru_cache(maxsize=64)
def _strict_upper(rows: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a (rows x rows) square."""
    mask = np.triu(np.ones((rows, rows), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _row_blocks(nf: int):
    """Row ranges [lo, hi) of an (nf x nf) strict upper triangle, each of at
    most _BLOCK pairs (row i holds nf - 1 - i) but at least _PANEL_ROWS rows
    (the last range may hold fewer)."""
    ends = np.cumsum(np.arange(nf - 1, -1, -1))   # pairs in rows 0..i
    lo = 0
    while lo < nf:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + _PANEL_ROWS, int(np.searchsorted(ends, done + _BLOCK, "right")))
        yield lo, min(hi, nf)
        lo = hi


def _pairs(a: np.ndarray, up: np.ndarray) -> np.ndarray:
    """A row range's node pairs, flat, from its (rows, nf - lo) array: those
    right of its leading square, then those of the square's mask ``up``."""
    rows = up.shape[0]
    return np.concatenate([a[:, rows:].reshape(-1), a[:, :rows][up]])


def _sl_core(plan: _AssemblyPlan, lam: SpectralParam, maue: bool) -> list:
    """The products T = U' F of the kernel core with the trace's factors:
    [U' SP] for the single layer, [U' Q, U'_nn SP] for the Maue trace.

    C is the symmetric refined-grid core with quadrature folded in: I_0 W[d]
    + (h/2pi) K_0 at pair (i, j), d the gap j - i folded to 0..nf/2 (see
    the module docstring), and the coincidence limit on its diagonal; C_nn
    is C times n_i . n_j off the diagonal.  U' is C's strict upper triangle
    plus half its diagonal, so F^T C F = X + X^T with X = F^T U' F.  U' goes
    by the row ranges of `_row_blocks`, one `_multiply_block` each.
    """
    fine, s = plan.fine, lam.sqrt_lam
    nf = fine.n_nodes
    gap = np.arange(nf)
    w_gap = plan.wvec[np.minimum(gap, nf - gap)]
    # row i is W over the gaps j - i (mod nf), j = 0..nf-1: a window of the doubled row
    w_rows = sliding_window_view(np.r_[w_gap, w_gap], nf)[nf:0:-1]
    # coincidence limit of the smooth part (same with or without the
    # normal-normal factor, which tends to 1 quadratically)
    c2_diag = (0.5 / np.pi) * (-np.log(0.5 * s * fine.jacobians) - EULER_GAMMA)
    half_diag = 0.5 * (plan.wvec[0] + (TWO_PI / nf) * c2_diag)
    out = [np.empty_like(f) for f in ((plan.q, plan.sp) if maue else (plan.sp,))]
    for lo, hi in _row_blocks(nf):
        _multiply_block(plan, s, w_rows, half_diag, lo, hi, out, maue)
    return out


def _multiply_block(plan: _AssemblyPlan, s: float, w_rows, half_diag, lo: int, hi: int,
                    out: list, maue: bool) -> None:
    """Rows [lo, hi) of each product in ``out``.

    The range's pairs, the rectangle right of its leading square and that
    square's strict upper triangle, take one kernel pass that evaluates each
    pair once and folds it as I_0 W + (h/2pi) K_0 at s |q_i - q_j|.  Its
    rows of U', padded on the left with zeros to a width that is a multiple
    of _GEMM_DEPTH, then multiply straight into T[lo:hi] = U'[lo:hi, lo:]
    F[lo:]: SP, or for the Maue trace Q and then SP with U'_nn.
    """
    fine = plan.fine
    nf = fine.n_nodes
    rows, rect = hi - lo, (hi - lo) * (nf - hi)
    up = _strict_upper(rows)
    z = _pairs(_distances(fine.nodes[lo:hi], fine.nodes[lo:]), up)
    z *= s
    vals = _bessel_i0(z)
    k0 = _k01(0, z, vals)
    vals *= _pairs(w_rows[lo:hi, lo:], up)
    k0 *= 1.0 / nf   # h / 2pi
    vals += k0
    start = max(0, lo - (lo - nf) % _GEMM_DEPTH)
    panel = np.zeros((rows, nf - start))
    core = panel[:, lo - start:]   # U'[lo:hi, lo:]
    core[:, rows:] = vals[:rect].reshape(rows, -1)
    square = core[:, :rows]
    square[up] = vals[rect:]
    np.fill_diagonal(square, half_diag[lo:hi])
    np.matmul(panel, (plan.q if maue else plan.sp)[start:], out=out[0][lo:hi])
    if maue:
        nx, ny = fine.normals.T
        core *= np.multiply.outer(nx[lo:hi], nx[lo:]) + np.multiply.outer(ny[lo:hi], ny[lo:])
        np.fill_diagonal(square, half_diag[lo:hi])
        np.matmul(panel, plan.sp[start:], out=out[1][lo:hi])


def _refined_geometry(geom: BoundaryGeometry, factor: int) -> BoundaryGeometry:
    """Spectrally upsampled copy of the geometry (factor x the nodes).

    Nodes are interpolated trigonometrically; tangents come from the
    spectral derivative of the interpolant so quadrature weights stay
    consistent with the refined node set.  Read-only, as every curve.
    """
    nf = geom.n_nodes * factor
    nodes = _trig_upsample(geom.nodes, factor)
    tau = TWO_PI * np.arange(nf) / nf
    periodic_part = _trig_upsample(geom.shape_params - geom.params, factor)
    return _curve(nodes, _spectral_derivative(nodes), tau, (tau + periodic_part) % TWO_PI,
                  AssemblyError)


def _trace(geom: BoundaryGeometry, lam: SpectralParam, layer: str) -> np.ndarray:
    """gamma0 SL (``layer`` "SL") or, by the Maue identity, gamma1 DL
    ("DL"): congruences F^T C F = X + X^T of the refined-grid cores with
    the plan's factors SP and Q, X = F^T T from the products T = U' F of
    `_sl_core`, so the matrix is exactly symmetric.

    Refuses lambda above the geometry's resolvable cap, where the
    assembled operator loses its sign (see `resolvable_lambda_cap`).
    """
    if geom.n_nodes < 8:
        raise AssemblyError("need at least 8 nodes for the splitting rule")
    cap = resolvable_lambda_cap(geom)
    if lam.lam > cap:
        raise AssemblyError(
            f"lambda {lam.lam} exceeds the resolvable cap {cap:.4g} of "
            "this geometry; the assembled operator cannot be trusted there"
        )
    maue = layer == "DL"
    plan = _assembly_plan(geom, maue)
    products = _sl_core(plan, lam, maue)   # [U' Q, U'_nn SP] or [U' SP]
    x = plan.sp.T @ products.pop()   # each T is freed once its X is formed
    mat = np.add(x, x.T)
    del x
    if maue:
        # -lambda (X_s + X_s^T) - (X_q + X_q^T)
        mat *= -lam.lam
        x = plan.q.T @ products.pop()
        mat -= np.add(x, x.T)
    return mat


# ----------------------------------------------------------------------
# the M family
# ----------------------------------------------------------------------

def _screen_indices(screen: ScreenGeometry | None, geom: BoundaryGeometry):
    """The geometry's nodes a condition on ``screen`` holds on: the screen's
    active indices, or all of them (a full slice) without a screen.  A
    screen made on a curve of another node count is refused."""
    if screen is None:
        return slice(None)
    if screen.active_mask.shape != (geom.n_nodes,):
        raise GeometryError(f"screen of {screen.active_mask.size} nodes on a geometry "
                            f"of {geom.n_nodes}")
    return screen.active_indices


def nodal_coefficient(bc: BoundaryCondition, geom: BoundaryGeometry) -> np.ndarray | None:
    """The condition's coefficient at the geometry's nodes (None for D and
    N), refused where M cannot take it: of the wrong shape or not finite,
    or alpha (numerically) zero at a node or of both signs on a screen."""
    if bc.kind not in ("alpha", "theta"):
        return None
    coef = bc.resolve_coefficient(geom)
    if bc.kind == "alpha":
        if np.any(np.abs(coef) < 1e-14):
            raise CoefficientError("alpha has (numerically) zero nodal values")
        active = coef[_screen_indices(bc.screen, geom)]
        if bc.screen is not None and np.any(active > 0) and np.any(active < 0):
            raise CoefficientError("alpha must have constant sign on a screen")
    return coef


def assemble_M(
    bc: BoundaryCondition, geom: BoundaryGeometry, lam: SpectralParam
) -> BoundaryOperator:
    """Assemble M_lambda for the given boundary condition; on a screen, the
    principal submatrix at its active nodes.

    The geometry keeps the last operator: a call with the same condition
    object and an equal lambda returns that object unassembled, and any
    other call drops it and assembles anew.
    """
    active = _screen_indices(bc.screen, geom)
    kept = vars(geom).pop("_kept_M", None)
    if kept is not None and kept.bc is bc and kept.lam == lam:
        object.__setattr__(geom, "_kept_M", kept)
        return kept
    del kept  # not held through the new assembly
    if lam.lam <= bc.lambda_bound:
        raise SpectralParameterError(
            f"lambda {lam.lam} must exceed the condition's bound {bc.lambda_bound}"
        )
    coef = nodal_coefficient(bc, geom)
    trace = _trace(geom, lam, LAYER[bc.kind])
    if bc.kind in ("D", "N"):
        mat = -trace
    elif bc.kind == "alpha":
        mat = -(np.diag(1.0 / coef) + trace)
    else:  # theta
        mat = np.diag(coef) - trace
    # symmetric already, as the trace is
    if bc.screen is not None:
        mat = np.ascontiguousarray(mat[np.ix_(active, active)])
    mat.flags.writeable = False
    op = BoundaryOperator(matrix=mat, bc=bc, lam=lam)
    object.__setattr__(geom, "_kept_M", op)
    return op


def sign_check(op: BoundaryOperator) -> SignReport:
    """Classify definiteness by the extreme eigenvalues; add the condition
    number.  The report is made once per operator object."""
    return op._report


def admissible_class(bc: BoundaryCondition, geom: BoundaryGeometry) -> str | None:
    """The sign class M_lambda keeps as lambda -> inf: negative definite for
    D and alpha > 0, positive definite for N, theta and alpha < 0 (alpha on
    every active node), None for alpha of mixed sign."""
    active = _screen_indices(bc.screen, geom)
    if bc.kind != "alpha":
        return "definite_negative" if bc.kind == "D" else "definite_positive"
    coef = bc.resolve_coefficient(geom)[active]
    return ("definite_negative" if np.all(coef > 0)
            else "definite_positive" if np.all(coef < 0) else None)


def resolvable_lambda_cap(geom: BoundaryGeometry) -> float:
    """Largest lambda whose operator spectrum this geometry can certify.

    Two ceilings apply.  Band limit: the product rule is exact while
    kernel content (width about sqrt(lambda) * max |dq/dtau|) plus the
    probed mode stay inside the oversampled quadrature band.  Precision
    limit: the log splitting cancels terms of size I_0(sqrt(lambda) *
    diam), so once that magnitude times machine epsilon reaches the
    smallest eigenvalues, signs become unreliable at any node count.
    Both are returned with a safety factor of about 2 in sqrt(lambda).
    Worked out once per geometry and kept in its ``__dict__``.
    """
    cap = vars(geom).get("_lambda_cap")
    if cap is None:
        rho = float(np.max(geom.jacobians))
        band = (geom.n_nodes * OVERSAMPLE / (8.0 * rho)) ** 2
        precision = (26.0 / geom.diameter()) ** 2
        cap = min(band, precision)
        object.__setattr__(geom, "_lambda_cap", cap)
    return cap


def estimate_lambda_bound(bc: BoundaryCondition, geom: BoundaryGeometry) -> tuple[float, dict]:
    """Estimate lambda_Lambda by one bisection in log lambda.

    The predicate is "M_lambda has the condition's `admissible_class`".  M
    is built from the resolvent (-Delta + lambda)^-1, so it increases with
    lambda and the admissible lambda form one interval [lambda_Lambda, inf).
    Probes the top, min(BOUND_LAM_MAX, resolvable cap), first: a condition
    with no admissible class, or whose M lacks it there, reports inf.  Then
    probes BOUND_LAM_MIN, where the class reports 0.  Otherwise bisects at
    sqrt(lo hi) until hi - lo <= BOUND_TOL max(1, hi) and returns hi.
    Returns (bound, report).
    """
    probe = replace(bc, lambda_bound=0.0)
    cap = resolvable_lambda_cap(geom)
    lam_max = min(BOUND_LAM_MAX, cap)
    if lam_max <= BOUND_LAM_MIN:
        raise SpectralParameterError(
            f"bisection top {lam_max:.4g} must exceed its bottom {BOUND_LAM_MIN}"
        )
    target = admissible_class(bc, geom)
    probes, flags = [], []
    report = {"probes": probes, "definite": flags, "resolvable_cap": cap,
              "certified_up_to": lam_max}

    def admissible(lam_val: float) -> bool:
        op = assemble_M(probe, geom, SpectralParam(lam_val))
        probes.append(lam_val)
        flags.append(sign_check(op).classification == target)
        return flags[-1]

    if not admissible(lam_max):
        return math.inf, report
    if admissible(BOUND_LAM_MIN):
        return 0.0, report
    lo, hi = BOUND_LAM_MIN, lam_max
    while hi - lo > BOUND_TOL * max(1.0, hi):
        mid = math.sqrt(lo * hi)
        if admissible(mid):
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
    near = dists < 2.0 * float(np.max(geom.weights))

    out = np.empty(targets.shape[0])
    out[~near] = (_layer_matrix(kind, geom.nodes, targets[~near], lam, geom.normals)
                  @ (geom.weights * density))
    if np.any(near):
        warnings.warn("near-singular potential evaluation; using upsampled quadrature",
                      stacklevel=2)
        fine = _refined_geometry(geom, _NEAR_UPSAMPLE)
        dens = _trig_upsample(density, _NEAR_UPSAMPLE)
        out[near] = (_layer_matrix(kind, fine.nodes, targets[near], lam, fine.normals)
                     @ (fine.weights * dens))
    return out


def _layer_matrix(kind, sources, targets, lam: SpectralParam, normals=None, directions=None):
    """Trapezoid kernel matrix of the SL potential, or of the DL potential
    with the sources' unit ``normals``, from the source points to the
    targets (weights not applied); with ``directions``, of the SL
    potential's derivative along them instead (see the module docstring
    for its callers).  Filled in row blocks of at most _BLOCK entries, so
    no (targets, sources) temporary outlives its block.  Raises
    SingularityError when a target coincides with a source."""
    sl = directions is None and kind == "SL"

    def block(x, *along):
        dx = sources[:, 0] - x[:, 0, None]    # (m, n) planes of y - x
        dy = sources[:, 1] - x[:, 1, None]
        # only the SL kernel is done with the planes once it has r
        r = _plane_norm(dx, dy) if sl else np.sqrt(dx * dx + dy * dy)
        if np.any(r < COINCIDENCE_TOL):
            raise SingularityError("layer kernel at coincident points")
        if sl:
            return _radial_g(lam.sqrt_lam, r)
        dg = _radial_dg(lam.sqrt_lam, r)
        if along:
            # grad_x g = g'(r) (x - y)/r
            dx *= along[0][:, 0, None]
            dy *= along[0][:, 1, None]
            dx += dy
            dx /= r
            return -dg * dx
        # d/dn_y g = g'(r) (y - x) . n_y / r
        dg /= r
        dx *= dg
        dx *= normals[:, 0]
        dy *= dg
        dy *= normals[:, 1]
        dx += dy
        return dx

    aligned = () if directions is None else (directions,)
    return _by_row_blocks(targets, block, *aligned, width=len(sources))


def jump_relation_residual(
    geom: BoundaryGeometry,
    lam: SpectralParam,
    density: np.ndarray,
    kind: str = "SL",
) -> float | np.ndarray:
    """Residual of the trace-jump law across Gamma, by Richardson ladder.

    For SL the jump of the normal derivative equals -density; for DL the
    jump of the Dirichlet trace equals +density.  Two-sided offsets at
    h0, h0/2, h0/4 are extrapolated twice; non-contracting differences
    raise a diagnostic error.  Each offset h samples the curve refined
    _JUMP_UPSAMPLE h0 / h times (4, 8, 16), so every rung has the same
    ratio n / (10 pi) of offset to mean fine node spacing, the ratio of
    the smallest offset on the 16 x curve (4.07 at n = 128).  An (n, k)
    stack of densities gives k residuals, from one kernel matrix per
    offset and side.
    """
    if kind not in ("SL", "DL"):
        raise DomainError("kind must be 'SL' or 'DL'")
    density = np.asarray(density, dtype=float)
    if not (density.ndim in (1, 2) and len(density) == geom.n_nodes
            and np.all(np.isfinite(density))):
        raise DomainError(f"density must be a finite (n,) or (n, k) array, n = {geom.n_nodes}")
    w = geom.weights
    cols = density.reshape(geom.n_nodes, -1).T
    norms = [math.sqrt(float(np.sum(w * c**2))) for c in cols]
    if 0.0 in norms:
        raise DomainError("zero density in jump test")
    h0 = 0.05 * geom.perimeter() / TWO_PI

    def jump(rung: int) -> list:
        # the rung at h0 / rung on the curve refined _JUMP_UPSAMPLE * rung times
        factor = _JUMP_UPSAMPLE * rung
        fine = _refined_geometry(geom, factor)
        fine_dens = [fine.weights * c for c in _trig_upsample(cols.T, factor).T]
        layer = partial(_layer_matrix, kind, fine.nodes, lam=lam, normals=fine.normals,
                        directions=geom.normals if kind == "SL" else None)
        h = h0 / rung
        # one side's matrix at a time; a matrix-vector product per density,
        # not one matmul, keeps each density's sums those of a call with it alone
        outer = layer(geom.nodes + h * geom.normals)
        sides = [outer @ v for v in fine_dens]
        del outer
        inner = layer(geom.nodes - h * geom.normals)
        return [p - inner @ v for p, v in zip(sides, fine_dens)]

    out = []
    ladder = zip(jump(1), jump(2), jump(4))
    for i, ((j1, j2, j4), dens, den) in enumerate(zip(ladder, cols, norms)):
        d1 = np.linalg.norm(j2 - j1)
        d2 = np.linalg.norm(j4 - j2)
        if d2 > 0.95 * d1 and d2 > 1e-12:
            raise QuadratureError(
                f"jump extrapolation not contracting for density {i}: {d1:.3e} -> {d2:.3e}"
            )
        extrap = (4.0 * (2.0 * j4 - j2) - (2.0 * j2 - j1)) / 3.0
        target = -dens if kind == "SL" else dens
        out.append(math.sqrt(float(np.sum(w * (extrap - target) ** 2))) / den)
    return out[0] if density.ndim == 1 else np.array(out)


# ----------------------------------------------------------------------
# operator-identity diagnostics
# ----------------------------------------------------------------------

# a leaf of the volume rule is split while its side exceeds both
# _FINEST_LEAF cell and cell * d / _GRADING; the 2 x 2 Gauss rule on each
# leaf is exact on bicubics, which lets leaves grow this fast away from
# the curve
_GRADING, _FINEST_LEAF = 0.075, 0.25

# volume points per block of the Gram sums
_GRAM_BLOCK = 1024


def _volume_rule(geom: BoundaryGeometry, radius: float, resolution: int):
    """Centres (m, 2) and areas (m,) of the leaves of the graded quadtree
    of `gram_identity_residual`; they tile a square of half-width >= radius.
    With cell = 2 radius / resolution, the top leaves have side 64 cell
    and a leaf is quartered while its side exceeds _FINEST_LEAF cell and
    cell d / _GRADING, d its centre's distance to the curve less its
    half-diagonal."""
    cell = 2.0 * radius / resolution
    side = 64.0 * cell
    m = math.ceil(resolution / 64)  # top cells per side: m side >= 2 radius
    top = side * (np.arange(m) - 0.5 * (m - 1))
    centres = np.stack(np.meshgrid(top, top), axis=-1).reshape(-1, 2)
    quarters = 0.25 * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    pts, areas = [], []
    while centres.size:
        d = distance_to_boundary(geom, centres) - side / math.sqrt(2.0)
        split = (side > _FINEST_LEAF * cell) & (_GRADING * side > cell * d)
        pts.append(centres[~split])
        areas.append(np.full(pts[-1].shape[0], side * side))
        centres = (centres[split][:, None, :] + side * quarters).reshape(-1, 2)
        side *= 0.5
    return np.concatenate(pts), np.concatenate(areas)


def _gram_tail_bound(geom: BoundaryGeometry, s1: float, s2: float, radius: float) -> float:
    """T sum_j w_j >= |W^{1/2} Gram_tail W^{1/2}|_F for |u| > radius (see
    `gram_identity_residual`); needs max_j |y_j| < radius < inf."""
    rho = float(np.max(np.hypot(geom.nodes[:, 0], geom.nodes[:, 1])))
    if not rho < radius < math.inf:
        raise DomainError(
            f"volume_radius must be finite and exceed max |y_j| = {rho:.6g}, got {radius!r}"
        )
    gap = radius - rho
    total = s1 + s2
    tail = radius / gap * math.exp(-total * gap) / (4.0 * math.sqrt(s1 * s2) * total)
    return tail * float(np.sum(geom.weights))


def gram_identity_residual(
    geom: BoundaryGeometry,
    lambda1: float,
    lambda2: float,
    volume_radius: float = 12.0,
    volume_resolution: int = 200,
) -> dict:
    """Residual of the two-parameter difference identity for M_D: a dict
    of the `residual`, the number of `volume_points` and the `tail_share`.

    M_{z} - M_{w} = (z - w) * Gram with Gram_{jk} the volume integral of
    g_w(y_j, u) g_z(u, y_k) over the plane, by the 2 x 2 tensor Gauss-
    Legendre points of the leaves of `_volume_rule`.  With cell =
    2 R / volume_resolution, R = volume_radius and d a leaf's centre
    distance to the curve less its half-diagonal, a leaf has side at most
    max(cell/4, cell d / _GRADING), at most 64 cell; the rule is exact on
    bicubics over each leaf, so smooth leaves far from the curve may be
    large and the leaves the kernels' logarithms cross stay small.
    Leaves centred beyond R are left out; their points lie beyond r' =
    min(|centre| - half-diagonal) over them, and the tail |u| > r' is
    bounded in closed form.  With rho = max_j |y_j| < r',
    s_i = sqrt(lambda_i) and S = s1 + s2:

        |u - y_j| >= |u| - rho and K_0(x) < K_{1/2}(x) = sqrt(pi/2x) e^{-x}, so
        g_w g_z <= e^{-S(|u| - rho)} / (8 pi sqrt(s1 s2) (|u| - rho)); in polar
        form, as |u|/(|u| - rho) <= r'/(r' - rho), |Gram_tail[j, k]| <= T =
        r'/(r' - rho) e^{-S(r' - rho)} / (4 sqrt(s1 s2) S),

    so |W^{1/2} Gram_tail W^{1/2}|_F <= T sum_j w_j.  A tail share
    |z - w| T sum_j w_j / |M_z - M_w| above half of max(residual, 1e-3)
    raises TruncationError.  The sums go over blocks of _GRAM_BLOCK volume
    points, whose (n, _GRAM_BLOCK) kernel factors fill in node-row blocks
    of at most _BLOCK entries.
    """
    if not (0 < lambda1 < math.inf and 0 < lambda2 < math.inf):
        raise DomainError(f"spectral parameters must be positive and finite: {lambda1}, {lambda2}")
    if lambda1 == lambda2:
        raise DomainError("gram identity is degenerate at lambda1 == lambda2")
    if volume_resolution < 8:
        raise DomainError("volume_resolution too small")
    lam1, lam2 = SpectralParam(lambda1), SpectralParam(lambda2)
    s1, s2 = lam1.sqrt_lam, lam2.sqrt_lam
    _gram_tail_bound(geom, s1, s2, volume_radius)  # refuses a bad R before any work
    centres, areas = _volume_rule(geom, volume_radius, volume_resolution)
    rad = np.hypot(centres[:, 0], centres[:, 1])
    keep = rad <= volume_radius
    inner = float(np.min(rad[~keep] - np.sqrt(0.5 * areas[~keep])))
    tail_bound = _gram_tail_bound(geom, s1, s2, inner)
    # the 2 x 2 Gauss points of each kept leaf, leaf by leaf
    gn, gw = _gauss_legendre(2)
    offsets = np.stack(np.meshgrid(gn, gn), axis=-1).reshape(-1, 2)
    half_sides = 0.5 * np.sqrt(areas[keep])
    pts = (centres[keep][:, None, :] + half_sides[:, None, None] * offsets).reshape(-1, 2)
    areas = (0.25 * areas[keep][:, None] * np.multiply.outer(gw, gw).ravel()).ravel()
    n_points = pts.shape[0]
    # zero-area points pad the sum to a multiple of 64 terms, which OpenBLAS
    # blocks alike on any thread count; the norms below are pairwise sums
    pad = -n_points % 64
    pts = np.concatenate([pts, np.repeat(pts[:1], pad, axis=0)])
    areas = np.concatenate([areas, np.zeros(pad)])

    gram = np.zeros((geom.n_nodes, geom.n_nodes))
    # blocks of volume points fix the sums and bound the (n, block) factors;
    # a multiple of 64, so the padding keeps every block's sum thread-independent
    for lo in range(0, pts.shape[0], _GRAM_BLOCK):
        block = slice(lo, lo + _GRAM_BLOCK)
        # g_{lambda2}(y_j, u) times g_{lambda1}(u, y_k): (n, block) from node-row blocks
        g2 = _layer_matrix("SL", pts[block], geom.nodes, lam2)
        g2 *= areas[block]
        gram += g2 @ _layer_matrix("SL", pts[block], geom.nodes, lam1).T

    sw = np.sqrt(geom.weights)
    m1, m2 = (assemble_M(BoundaryCondition(kind="D"), geom, v).matrix for v in (lam1, lam2))
    lhs = m1 - m2
    rhs = (lambda1 - lambda2) * (sw[:, None] * gram * sw[None, :])
    denom = math.sqrt(float(np.sum(lhs * lhs)))
    residual = math.sqrt(float(np.sum((lhs - rhs) ** 2))) / denom
    tail_share = abs(lambda1 - lambda2) * tail_bound / denom
    if tail_share > 0.5 * max(residual, 1e-3):
        raise TruncationError(
            f"volume truncation dominates: tail bound share {tail_share:.3e} "
            f"vs residual {residual:.3e}; increase volume_radius"
        )
    return {"residual": residual, "volume_points": n_points, "tail_share": tail_share}
