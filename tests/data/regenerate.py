"""Rebuild the frozen data of this directory from the code under ``src/``.

    PYTHONPATH=src python tests/data/regenerate.py [golden] [mpmath] [i0]

With no argument it does all three; it is slow (about a minute) and the
test suite never runs it.

golden   assembly_golden.npz: M of each condition (D, N, alpha -0.7,
         theta 1.3) on the circle, kite and ellipse at n = 64 and lambda
         0.5 and 32, as upper triangles in row-major order.
mpmath   ellipse_lam32_mpmath34.npz: the same upper triangles of M_D and
         M_N on the ellipse at lambda 32, from the discrete rule of
         `boundary_ops` (C = I_0 W + K_0 / nf off the diagonal, the
         coincidence limit on it, M_D = -SP^T C SP and M_N = Q^T C Q +
         lambda SP^T C_nn SP) carried out in 34-digit mpmath on the
         float64 plan and the float64 sqrt(lambda).  The float64
         assembly's distance from it is its rounding error alone.
i0       prints the Chebyshev coefficients, and their powers, of the
         large-argument I_0 table of `kernels` (I_0(z) e^-z sqrt(z) in
         x = 15.5 / z - 1), from 40-digit mpmath, for `kernels._I0_LARGE`
         and `I0_CHEBYSHEV` in tests/test_kernels.py.
"""

from __future__ import annotations

import os
import sys

import mpmath
import numpy as np

from lapscat.boundary_ops import BoundaryCondition, _assembly_plan, assemble_M
from lapscat.geometry import make_curve
from lapscat.kernels import SpectralParam

HERE = os.path.dirname(os.path.abspath(__file__))
CONDITIONS = (("D", None), ("N", None), ("alpha", -0.7), ("theta", 1.3))


def golden() -> None:
    upper = np.triu_indices(64)
    cells = {}
    for shape in ("circle", "kite", "ellipse"):
        geom = make_curve(shape, n_nodes=64)
        for lam in (0.5, 32.0):
            for kind, coef in CONDITIONS:
                m = assemble_M(BoundaryCondition(kind, coefficient=coef), geom, SpectralParam(lam))
                cells[f"{shape}_{kind}_{lam:g}"] = m.matrix[upper]
    np.savez_compressed(os.path.join(HERE, "assembly_golden.npz"), **cells)


def _congruence(cols, core):
    """F^T core F for F given by its columns and a symmetric core by its rows."""
    core_f = [[mpmath.fdot(row, col) for row in core] for col in cols]
    k = len(cols)
    out = [[None] * k for _ in range(k)]
    for p in range(k):
        for q in range(p, k):
            out[p][q] = out[q][p] = mpmath.fdot(cols[p], core_f[q])
    return out


def mpmath_reference(n: int = 64, lam: float = 32.0) -> dict:
    """Upper triangles of M_D and M_N on the ellipse, in 34-digit mpmath."""
    geom = make_curve("ellipse", n_nodes=n)
    plan = _assembly_plan(geom, maue=True)
    fine, nf = plan.fine, plan.fine.n_nodes
    mpf = mpmath.mpf
    with mpmath.workdps(34):
        s = mpf(SpectralParam(lam).sqrt_lam)
        pts = [(mpf(x), mpf(y)) for x, y in fine.nodes]
        nrm = [(mpf(x), mpf(y)) for x, y in fine.normals]
        w = [mpf(v) for v in plan.wvec]
        euler = mpmath.euler
        core = [[None] * nf for _ in range(nf)]
        core_nn = [[None] * nf for _ in range(nf)]
        for i in range(nf):
            diag = w[0] + (-mpmath.log(s * mpf(fine.jacobians[i]) / 2) - euler) / nf
            core[i][i] = core_nn[i][i] = diag
            for j in range(i + 1, nf):
                z = s * mpmath.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                d = j - i
                c = mpmath.besseli(0, z) * w[min(d, nf - d)] + mpmath.besselk(0, z) / nf
                core[i][j] = core[j][i] = c
                core_nn[i][j] = core_nn[j][i] = c * (nrm[i][0] * nrm[j][0] + nrm[i][1] * nrm[j][1])
        sp = [[mpf(v) for v in col] for col in plan.sp.T]
        q = [[mpf(v) for v in col] for col in plan.q.T]
        sl = _congruence(sp, core)
        qcq = _congruence(q, core)
        snn = _congruence(sp, core_nn)
        lam_mp = mpf(lam)
        upper = list(zip(*np.triu_indices(n)))
        return {
            "D": np.array([float(-sl[a][b]) for a, b in upper]),
            "N": np.array([float(qcq[a][b] + lam_mp * snn[a][b]) for a, b in upper]),
        }


def mpmath_file() -> None:
    np.savez_compressed(os.path.join(HERE, "ellipse_lam32_mpmath34.npz"), **mpmath_reference())


def i0_table(terms: int = 24, nodes: int = 64):
    """(Chebyshev, power) coefficients of I_0(z) e^-z sqrt(z), z = 15.5 / (1 + x),
    on x in [-1, 1]: the first ``terms`` coefficients of the interpolant at
    ``nodes`` Chebyshev points, and the powers of their truncated series."""
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / nodes for j in range(nodes)]
        vals = []
        for t in theta:
            z = mpmath.mpf(15.5) / (1 + mpmath.cos(t))
            vals.append(mpmath.besseli(0, z) * mpmath.exp(-z) * mpmath.sqrt(z))
        cheb = [2 * mpmath.fsum(v * mpmath.cos(k * t) for v, t in zip(vals, theta)) / nodes
                for k in range(terms)]
        cheb[0] /= 2
        # T_k in powers by T_{k+1} = 2 x T_k - T_{k-1}, exactly
        polys = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
        while len(polys) < terms:
            nxt = [mpmath.mpf(0)] + [2 * v for v in polys[-1]]
            for m, v in enumerate(polys[-2]):
                nxt[m] -= v
            polys.append(nxt)
        power = [mpmath.fsum(c * p[m] for c, p in zip(cheb, polys) if m < len(p))
                 for m in range(terms)]
        return [float(c) for c in cheb], [float(v) for v in power]


def i0_print() -> None:
    cheb, power = i0_table()
    print("I0_CHEBYSHEV =", cheb)
    print("_I0_LARGE =", power)


if __name__ == "__main__":
    jobs = {"golden": golden, "mpmath": mpmath_file, "i0": i0_print}
    for name in sys.argv[1:] or list(jobs):
        jobs[name]()
