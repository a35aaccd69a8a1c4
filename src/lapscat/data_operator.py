"""Near-field data operator linking probe measurements to the boundary.

The scattered-field data operator factorizes as F = G M^{-1} G^T where
G carries a boundary density to field values on the probe region and M
is the boundary operator of the active condition.  In weighted nodal
coordinates G becomes W_B^{1/2} A W_Gamma^{1/2} with A the plain kernel
sample matrix, so F is symmetric and its nonzero spectrum has the sign
of M (congruence).  A is the layer kernel matrix of `boundary_ops` from
the boundary nodes to the probe points: Dirichlet and delta-type
conditions radiate through the single-layer kernel, Neumann and
delta'-type through the double-layer kernel (`boundary_ops.LAYER`).
M^{-1} acts on G^T by one solve, never as an explicit inverse; the one
eigenvalue pass over M (`boundary_ops.sign_check`) gives both its sign
class and the condition number that guards the solve.  `assemble_F`
takes M and its sign report from the geometry's last assembly when the
condition object and lambda are the same (see `boundary_ops.assemble_M`),
so classifying M and then forming F at that lambda assembles M once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .boundary_ops import (
    LAYER,
    BoundaryCondition,
    BoundaryOperator,
    _layer_matrix,
    assemble_M,
    sign_check,
)
from .errors import DegenerateOperatorError, DomainError, InversionError
from .geometry import BoundaryGeometry, ProbeRegion
from .kernels import SpectralParam

# condition number of M above which F is refused (the solve keeps no digit)
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class DataOperator:
    """Symmetric probe-space data matrix with its spectral decomposition.

    ``matrix`` acts on weight-scaled probe vectors.  ``eigenvalues`` are
    sorted by decreasing magnitude; ``eigenvectors[:, k]`` is the
    (Euclidean-orthonormal) eigenvector of ``eigenvalues[k]``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lam: SpectralParam


def radiation_matrix(
    bc_kind: str,
    geom: BoundaryGeometry,
    probe: ProbeRegion,
    lam: SpectralParam,
    active_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted boundary-to-probe map G (single or double layer kernel)."""
    if bc_kind not in LAYER:
        raise DomainError(f"unknown boundary condition kind {bc_kind!r}")
    if active_indices is not None:
        # the kernel is sampled entrywise: the active nodes alone give G's columns
        geom = replace(geom, **{f.name: getattr(geom, f.name)[active_indices]
                                for f in fields(geom) if f.name != "shape"})
    a = _layer_matrix(LAYER[bc_kind], geom, probe.points, lam)
    return np.sqrt(probe.weights)[:, None] * a * np.sqrt(geom.weights)[None, :]


def assemble_F(
    bc: BoundaryCondition,
    geom: BoundaryGeometry,
    probe: ProbeRegion,
    lam: SpectralParam,
) -> DataOperator:
    """Assemble and eigendecompose the data operator F = G M^{-1} G^T."""
    return _data_operator(bc, assemble_M(bc, geom, lam), probe)


def _data_operator(bc: BoundaryCondition, m_op: BoundaryOperator,
                   probe: ProbeRegion) -> DataOperator:
    """F from an assembled M of the condition ``bc``; an M past the
    condition cap is refused."""
    geom, lam = m_op.geom, m_op.lam
    report = sign_check(m_op)
    if not report.condition <= CONDITION_CAP:  # NaN is refused too
        raise InversionError(f"operator {m_op.kind} numerically singular: "
                             f"condition estimate {report.condition:.3e}")
    active = bc.screen.active_indices if bc.screen is not None else None
    g = radiation_matrix(bc.kind, geom, probe, lam, active)
    f = g @ np.linalg.solve(m_op.matrix, g.T)
    f = 0.5 * (f + f.T)
    eigvals, eigvecs = _sorted_eigh(f)
    return DataOperator(matrix=f, eigenvalues=eigvals, eigenvectors=eigvecs, lam=lam)


def _sorted_eigh(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigvals, eigvecs = np.linalg.eigh(f)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return eigvals[order], eigvecs[:, order]


def add_noise(op: DataOperator, relative_level: float, seed: int) -> DataOperator:
    """Perturb F by a symmetric random matrix of prescribed relative size.

    The perturbation E is scaled so that ||E||_2 = relative_level *
    ||F||_2 exactly; level 0 returns the operator unchanged.
    """
    if not 0.0 <= relative_level < np.inf:
        raise DomainError("relative noise level must be finite and non-negative")
    if seed < 0:
        raise DomainError(f"noise seed must be non-negative, got {seed!r}")
    if relative_level == 0.0:
        return op
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(op.matrix.shape)
    e = 0.5 * (e + e.T)
    e_norm = np.linalg.norm(e, 2)
    if e_norm == 0.0:  # pragma: no cover - measure-zero draw
        raise DegenerateOperatorError("degenerate noise draw")
    f_norm = np.linalg.norm(op.matrix, 2)
    f = op.matrix + (relative_level * f_norm / e_norm) * e
    eigvals, eigvecs = _sorted_eigh(f)
    return DataOperator(matrix=f, eigenvalues=eigvals, eigenvectors=eigvecs, lam=op.lam)


def _write_lines(path: str, lines, header: tuple[str, ...] | None = None) -> None:
    """CSV file of already joined lines, each ended by CRLF as in
    ``csv.writer``'s default (RFC-4180) dialect."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        fh.writelines(line + "\r\n" for line in lines)


def _repr_line(row) -> str:
    """CSV line of Python numbers, each its repr (none needs quoting)."""
    return ",".join(map(repr, row))


def _write_csv(path: str, rows, header: tuple[str, ...] | None = None) -> None:
    """CSV of rows of Python numbers (`_repr_line`), in ``csv.writer``'s
    default dialect.  The matrix and indicator writers build most lines
    themselves, so that a value they meet twice is formatted once."""
    _write_lines(path, map(_repr_line, rows), header)


def _json_default(obj):
    # numpy scalars (bool_, float64, ...) slip into reports easily and
    # the stdlib encoder rejects most of them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: str, payload: dict) -> None:
    """JSON report: sorted keys, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_spectrum_csv(op: DataOperator, path: str) -> None:
    """Magnitude-sorted spectrum as CSV (index, eigenvalue, magnitude)."""
    mu = op.eigenvalues
    rows = zip(range(mu.size), mu.tolist(), np.abs(mu).tolist())
    _write_csv(path, rows, ("index", "eigenvalue", "magnitude"))


# bytes of the longest float repr, -2.2250738585072014e-308
_REPR_WIDTH = 24


def _slots(reprs: list[str]) -> np.ndarray:
    """Fixed-width rows of bytes: each repr, NUL padding, then a comma, so
    that a run of rows less its NULs reads "a,b,c,"."""
    slots = np.full((len(reprs), _REPR_WIDTH + 1), ord(","), dtype=np.uint8)
    text = np.array(reprs, dtype=f"S{_REPR_WIDTH}")
    slots[:, :-1] = text.view(np.uint8).reshape(-1, _REPR_WIDTH)
    return slots


def _matrix_lines(a: np.ndarray):
    """The CSV lines of a 2-D float array, one per row.

    A square array whose float64 bits equal its transpose's, as M and F
    do (each is 0.5 (X + X^T)), has each entry on or right of the
    diagonal formatted once.  The entries right of it wait in one packed
    store of fixed-width slots (`_slots`), row j's n - 1 - j slots from
    start[j] on; row i reads its first i entries back as column i of the
    rows above, a[j, i] being slot i - 1 - j of row j.  Any other array,
    one symmetric only up to == included (-0.0 and 0.0 differ in repr),
    is written one repr per entry (`_repr_line`).
    """
    n = a.shape[0]
    bits = a.view(np.uint64)
    if a.shape != (n, n) or not np.array_equal(bits, bits.T):
        yield from (_repr_line(row.tolist()) for row in a)
        return
    j = np.arange(n)
    start = j * (2 * n - 1 - j) // 2
    first = start - j - 1  # a[j, i] is in slot first[j] + i
    store = np.empty((n * (n - 1) // 2, _REPR_WIDTH + 1), dtype=np.uint8)
    for i, row in enumerate(a):
        reprs = list(map(repr, row[i:].tolist()))
        store[start[i]:start[i] + n - 1 - i] = _slots(reprs[1:])
        line = store[first[:i] + i].tobytes().translate(None, b"\0").decode()
        yield line + ",".join(reprs)


def write_matrix_csv(mat: np.ndarray, path: str) -> None:
    """Dense matrix dump, one CSV row per matrix row, written row by row.

    The bytes are those of every entry written as its repr (`_write_csv`);
    a bitwise-symmetric matrix formats each mirrored pair once
    (`_matrix_lines`).
    """
    _write_lines(path, _matrix_lines(np.asarray(mat, dtype=float)))
