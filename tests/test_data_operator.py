"""Data-operator synthesis tests: F = G M^{-1} G^T on the probe region."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from lapscat import data_operator
from lapscat.boundary_ops import BoundaryCondition, BoundaryOperator, assemble_M, sign_check
from lapscat.data_operator import (
    _data_operator,
    _sorted_eigh,
    _write_csv,
    add_noise,
    assemble_F,
    radiation_matrix,
    write_matrix_csv,
    write_spectrum_csv,
)
from lapscat.errors import DomainError, InversionError, SingularityError
from lapscat.geometry import ProbeRegion, make_curve, make_probe, make_screen
from lapscat.kernels import SpectralParam, fundamental_solution

LAM = SpectralParam(2.0)


def small_setup(kind="D", coefficient=None, n_nodes=64, n_probe=32):
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n_nodes)
    probe = make_probe((0.0, 0.0), 4.0, n_probe)
    bc = BoundaryCondition(kind, coefficient=coefficient)
    return geom, probe, bc


def test_f_symmetric_and_signed_per_condition():
    # the nonzero spectrum of F inherits the sign of M by congruence
    for kind, coef, negative in (
        ("D", None, True),
        ("N", None, False),
        ("alpha", 1.0, True),
        ("theta", 1.0, False),
    ):
        geom, probe, bc = small_setup(kind, coef)
        f = assemble_F(bc, geom, probe, LAM)
        assert np.array_equal(f.matrix, f.matrix.T)
        tiny = 1e-12 * np.abs(f.eigenvalues[0])
        if negative:
            assert np.all(f.eigenvalues <= tiny)
        else:
            assert np.all(f.eigenvalues >= -tiny)


def _explicit_F(bc, geom, probe):
    """G inv(M) G^T with numpy's explicit inverse of M."""
    active = bc.screen.active_indices if bc.screen is not None else None
    g = radiation_matrix(bc.kind, geom, probe, LAM, active)
    return g @ np.linalg.inv(assemble_M(bc, geom, LAM).matrix) @ g.T


def _relative(f, explicit):
    return np.linalg.norm(f - explicit) / np.linalg.norm(explicit)


def test_f_equals_explicit_factorization():
    # F applies M^{-1} by one solve; the explicit inverse agrees to rounding
    probe = make_probe((0.0, 0.0), 4.0, 32)
    for shape, params in (("circle", {"radius": 1.0}), ("kite", None)):
        for n in (64, 256):
            geom = make_curve(shape, params, n_nodes=n)
            for kind, coef in (("D", None), ("N", None), ("alpha", -0.7), ("theta", 1.3)):
                bc = BoundaryCondition(kind, coefficient=coef)
                f = assemble_F(bc, geom, probe, LAM).matrix
                assert np.array_equal(f, f.T)
                err = _relative(f, _explicit_F(bc, geom, probe))
                assert err < 1e-13, (shape, n, kind, err)


def test_f_screen_uses_compressed_operator():
    geom = make_curve(
        "circle", {"radius": 1.0}, n_nodes=64, cluster=(0.0, math.pi, 0.5)
    )
    probe = make_probe((0.0, 0.0), 4.0, 32)
    screen = make_screen(geom, (0.0, math.pi))
    for kind in ("D", "N"):
        bc = BoundaryCondition(kind, screen=screen)
        assert assemble_M(bc, geom, LAM).size == screen.n_active
        f = assemble_F(bc, geom, probe, LAM)
        assert _relative(f.matrix, _explicit_F(bc, geom, probe)) < 1e-13


@pytest.mark.parametrize("kind, screened", [("D", False), ("N", False), ("N", True)])
def test_sign_check_then_F_assembles_and_analyses_M_once(monkeypatch, kind, screened):
    # classifying M and then forming F at the same lambda, the way a lambda
    # sweep certifies each F, runs one Nystrom core and one eigvalsh of M
    import lapscat.boundary_ops as boundary_ops

    def build():
        geom = make_curve("kite", n_nodes=64)
        screen = make_screen(geom, (0.0, math.pi)) if screened else None
        return BoundaryCondition(kind, screen=screen), geom

    probe = make_probe((0.0, 0.0), 4.0, 32)
    want = assemble_F(*build(), probe, LAM)
    cores, eigs = [], []
    real_core, real_eigvalsh = boundary_ops._sl_core, np.linalg.eigvalsh
    monkeypatch.setattr(boundary_ops, "_sl_core",
                        lambda *a, **k: cores.append(1) or real_core(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r, **k: eigs.append(a.shape) or real_eigvalsh(a, *r, **k))
    bc, geom = build()
    m_op = assemble_M(bc, geom, LAM)
    report = sign_check(m_op)
    f = assemble_F(bc, geom, probe, LAM)
    assert len(cores) == 1 and eigs == [m_op.matrix.shape]
    assert report.classification == ("definite_negative" if kind == "D" else "definite_positive")
    np.testing.assert_array_equal(f.matrix, want.matrix)
    np.testing.assert_array_equal(f.eigenvalues, want.eigenvalues)


def test_data_operator_refuses_singular_M():
    # condition 1e14, then inf: past the cap either way
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    probe = make_probe((0.0, 0.0), 4.0, 8)
    for smallest in (1e-14, 0.0):
        bad = BoundaryOperator(
            matrix=np.diag(np.concatenate([np.ones(15), [smallest]])),
            kind="M_D",
            lam=SpectralParam(1.0),
            geom=geom,
        )
        with pytest.raises(InversionError, match="M_D numerically singular"):
            _data_operator(BoundaryCondition("D"), bad, probe)


@pytest.mark.parametrize("kind", ["D", "N"])
def test_screen_radiation_matrix_is_the_active_columns(kind):
    # a screen's G samples the kernel at its active nodes only; the values
    # are those of the full G's active columns, bit for bit
    geom = make_curve(
        "circle", {"radius": 1.0}, n_nodes=128, cluster=(0.0, math.pi, 0.6)
    )
    probe = make_probe((0.0, 0.0), 4.0, 32)
    active = make_screen(geom, (0.0, math.pi)).active_indices
    np.testing.assert_array_equal(
        radiation_matrix(kind, geom, probe, LAM, active),
        radiation_matrix(kind, geom, probe, LAM)[:, active],
    )


def test_radiation_matrix_entries():
    geom, probe, _ = small_setup()
    g_sl = radiation_matrix("D", geom, probe, LAM)
    i, j = 3, 17
    want = (
        math.sqrt(probe.weights[i])
        * fundamental_solution(LAM, probe.points[i], geom.nodes[j])
        * math.sqrt(geom.weights[j])
    )
    assert abs(g_sl[i, j] - want) < 1e-15 * abs(want)
    with pytest.raises(DomainError):
        radiation_matrix("robin", geom, probe, LAM)


@pytest.mark.parametrize("shape, params", [
    ("circle", {"radius": 1.0}),
    ("kite", None),
    ("ellipse", {"a": 2.0, "b": 1.0}),
], ids=["circle", "kite", "ellipse"])
def test_double_layer_columns_match_normal_differences(shape, params):
    # N and theta radiate through d/dn_y g(b, y): every entry of G against
    # a central difference of the fundamental solution along n_y
    geom = make_curve(shape, params, n_nodes=64)
    probe = make_probe((0.0, 0.0), 4.0, 32)
    g_dl = radiation_matrix("N", geom, probe, LAM)
    h = 1e-5
    b = probe.points[:, None, :]
    fp, fm = (fundamental_solution(LAM, b, geom.nodes + s * h * geom.normals)
              for s in (1.0, -1.0))
    want = np.sqrt(probe.weights)[:, None] * ((fp - fm) / (2.0 * h)) * np.sqrt(geom.weights)
    assert np.max(np.abs(g_dl - want)) <= 1e-7 * np.max(np.abs(want))
    np.testing.assert_array_equal(radiation_matrix("theta", geom, probe, LAM), g_dl)


@pytest.mark.parametrize("kind", ["D", "N"])
def test_radiation_matrix_refuses_a_probe_point_on_a_node(kind):
    geom, probe, _ = small_setup()
    points = probe.points.copy()
    points[5] = geom.nodes[9]
    on_node = ProbeRegion(points=points, weights=probe.weights)
    with pytest.raises(SingularityError):
        radiation_matrix(kind, geom, on_node, LAM)


def test_eigensystem_contract():
    geom, probe, bc = small_setup("D")
    f = assemble_F(bc, geom, probe, LAM)
    mags = np.abs(f.eigenvalues)
    assert np.all(np.diff(mags) <= 1e-15 * mags[0])  # sorted by magnitude
    # orthonormal eigenvectors reproducing the matrix
    v = f.eigenvectors
    np.testing.assert_allclose(v.T @ v, np.eye(f.matrix.shape[0]), atol=1e-12)
    recon = (v * f.eigenvalues) @ v.T
    np.testing.assert_allclose(recon, f.matrix, atol=1e-14 * mags[0])


def test_rotational_symmetry_makes_f_circulant():
    # concentric circle + ring probe: rotating by one probe step is a
    # symmetry of the whole arrangement, so F must be circulant
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    probe = make_probe((0.0, 0.0), 4.0, 64)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    m = f.matrix
    scale = np.max(np.abs(m))
    for k in (1, 7, 33):
        shifted = np.roll(np.roll(m, k, axis=0), k, axis=1)
        assert np.max(np.abs(shifted - m)) < 1e-12 * scale


def test_spectrum_decays_rapidly():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    probe = make_probe((0.0, 0.0), 4.0, 64)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    mags = np.abs(f.eigenvalues)
    assert mags[10] / mags[0] < 1e-3
    assert mags[20] / mags[0] < 1e-8


def test_add_noise_contract():
    geom, probe, bc = small_setup("D")
    f = assemble_F(bc, geom, probe, LAM)
    noisy = add_noise(f, 0.05, seed=4)
    delta = noisy.matrix - f.matrix
    rel = np.linalg.norm(delta, 2) / np.linalg.norm(f.matrix, 2)
    assert abs(rel - 0.05) < 1e-12
    assert np.array_equal(noisy.matrix, noisy.matrix.T)
    # deterministic in the seed
    again = add_noise(f, 0.05, seed=4)
    np.testing.assert_array_equal(noisy.matrix, again.matrix)
    other = add_noise(f, 0.05, seed=5)
    assert not np.array_equal(noisy.matrix, other.matrix)
    assert add_noise(f, 0.0, seed=1) is f
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            add_noise(f, bad, seed=1)


def test_add_noise_refuses_a_negative_seed():
    # numpy's generator raised ValueError, a traceback after F was assembled
    geom, probe, bc = small_setup("D")
    f = assemble_F(bc, geom, probe, LAM)
    with pytest.raises(DomainError, match="seed"):
        add_noise(f, 0.05, seed=-1)


def test_sorted_eigh_orders_by_magnitude():
    vals, vecs = _sorted_eigh(np.diag([1.0, -3.0, 2.0]))
    np.testing.assert_array_equal(vals, [-3.0, 2.0, 1.0])
    np.testing.assert_array_equal(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_spectrum_csv_format(tmp_path):
    geom, probe, bc = small_setup("D", n_nodes=32, n_probe=16)
    f = assemble_F(bc, geom, probe, LAM)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(f, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "magnitude"]
    assert len(rows) == 17
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == f.eigenvalues[k]  # repr round-trip is exact
        assert float(row[2]) == abs(f.eigenvalues[k])
    # byte-identical on rewrite
    first = path.read_bytes()
    write_spectrum_csv(f, str(path))
    assert path.read_bytes() == first


def test_matrix_csv_roundtrip(tmp_path):
    mat = np.array([[1.5, -2.25], [3.0, 1e-17]])
    path = tmp_path / "m.csv"
    write_matrix_csv(mat, str(path))
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    np.testing.assert_array_equal(np.array(rows), mat)


def test_matrix_csv_peak_memory(tmp_path):
    # converting the whole 512^2 matrix to Python floats at once peaked
    # at 8.47 MB; one row at a time stays well under 1 MB
    mat = np.random.default_rng(0).standard_normal((512, 512))
    tracemalloc.start()
    try:
        write_matrix_csv(mat, str(tmp_path / "m.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_shared_csv_writer_matches_stdlib_csv(tmp_path):
    # the artifacts were written through csv.writer with repr'd floats;
    # the shared row writer must reproduce those bytes exactly
    floats = np.array([
        [-1.5, 5e-324, 1.7976931348623157e308, 3.0],
        [-0.0, -2.2250738585072014e-308, 1e22, -7.0],
        [0.1, 1e-17, -123456789.0, 2.0],
    ])
    ints = np.array([0, 1, -12])
    rows = [f + [i] for f, i in zip(floats.tolist(), ints.tolist())]
    header = ("a", "b", "c", "d", "flag")
    ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
    with open(ref_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for frow, i in zip(floats, ints):
            writer.writerow([repr(float(v)) for v in frow] + [int(i)])
    _write_csv(str(path), rows, header)
    assert path.read_bytes() == ref_path.read_bytes()
    # headerless matrix dump, as write_matrix_csv writes it
    with open(ref_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for frow in floats:
            writer.writerow([repr(float(v)) for v in frow])
    write_matrix_csv(floats, str(path))
    assert path.read_bytes() == ref_path.read_bytes()


def _csv_reference(mat, path):
    # the matrix dump as it was first written: csv.writer, one repr per entry
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(mat, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def _special_symmetric():
    # symmetric up to ==, not bit for bit: written one repr per entry
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 9))
    mat = x + x.T
    mat[1, 4], mat[4, 1] = -0.0, 0.0  # equal, but their reprs differ
    mat[2, 5] = mat[5, 2] = np.nan
    mat[0, 6] = mat[6, 0] = 5e-324
    mat[2, 3] = mat[3, 2] = -2.2250738585072014e-308  # the longest repr
    mat[0, 3] = mat[3, 0] = 1.7976931348623157e308
    mat[3, 6] = mat[6, 3] = -1.7976931348623157e308
    mat[7, 7] = -0.0
    return mat


def _special_bitwise_symmetric():
    # the same special values, each mirrored bit for bit, so that NaN,
    # 5e-324 and the longest repr go through the store of shared reprs
    mat = _special_symmetric()
    mat[4, 1] = -0.0
    return mat


def _noisy_f():
    geom, probe, bc = small_setup("D", n_nodes=32, n_probe=24)
    return add_noise(assemble_F(bc, geom, probe, LAM), 1e-3, seed=4).matrix


def _half_mirrored():
    # symmetric but in every other column below the diagonal
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 12))
    mat = x + x.T
    off = np.tril(np.ones(mat.shape, dtype=bool), -1)
    off[:, ::2] = False
    mat[off] = x[off]
    return mat


WRITER_CASES = {
    "special_symmetric": _special_symmetric,
    "special_bitwise_symmetric": _special_bitwise_symmetric,
    "one_by_one": lambda: np.array([[-0.0]]),
    "wide": lambda: np.random.default_rng(1).standard_normal((3, 7)),
    "tall": lambda: np.random.default_rng(2).standard_normal((7, 3)),
    "non_symmetric": lambda: np.random.default_rng(3).standard_normal((10, 10)),
    "half_mirrored": _half_mirrored,
    "fortran_order": lambda: np.asfortranarray(_special_symmetric()),
    "fortran_order_bitwise_symmetric": lambda: np.asfortranarray(_special_bitwise_symmetric()),
    "noisy_F": _noisy_f,
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_matrix_csv_bytes_match_the_csv_writer(case, tmp_path):
    # a repr shared with the mirror entry must give the same bytes as one
    # repr per entry
    mat = WRITER_CASES[case]()
    ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
    _csv_reference(mat, ref_path)
    write_matrix_csv(mat, str(path))
    assert path.read_bytes() == ref_path.read_bytes()


# reprs each dump takes: n(n+1)/2 for a bitwise-symmetric n x n matrix,
# one per entry for any other
REPR_CALLS = {
    "special_bitwise_symmetric": 45,
    "fortran_order_bitwise_symmetric": 45,
    "noisy_F": 300,
    "one_by_one": 1,
    "special_symmetric": 81,
    "half_mirrored": 144,
    "non_symmetric": 100,
    "wide": 21,
    "tall": 21,
}


@pytest.mark.parametrize("case", sorted(REPR_CALLS))
def test_matrix_csv_repr_calls(case, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(data_operator, "repr", lambda x: calls.append(x) or repr(x),
                        raising=False)
    write_matrix_csv(WRITER_CASES[case](), str(tmp_path / "m.csv"))
    assert len(calls) == REPR_CALLS[case]


def test_matrix_csv_noisy_F_is_exactly_symmetric():
    # so the dump above shares every off-diagonal repr
    f = _noisy_f()
    np.testing.assert_array_equal(f.view(np.uint64), f.T.view(np.uint64))


def test_symmetric_matrix_csv_peak_memory(tmp_path):
    # the shared reprs wait in a store of 25-byte slots, one per pair off
    # the diagonal: 3.27 MB for a 512^2 matrix, 3.39 MB traced in all
    x = np.random.default_rng(0).standard_normal((512, 512))
    mat = x + x.T
    tracemalloc.start()
    try:
        write_matrix_csv(mat, str(tmp_path / "m.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
