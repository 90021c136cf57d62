"""The batched text writers equal the per-element loops they replaced, byte
for byte: the sparse ``k l re im`` format (state files and ``.2d``), the
gnuplot magnitude grid and the ``spinsim run`` FID/FFT rows."""

import math
import warnings

import numpy as np
import pytest

from spinsim import acquisition as acq, cli, dynamics as dyn

CUT = 1e-14


# --- the replaced per-element loops, kept verbatim as references -----------

def ref_format_state(rho):
    dim = rho.shape[0]
    out = [f"dim {dim}"]
    for k in range(dim):
        for l in range(dim):
            z = rho[k, l]
            if abs(z) >= 1e-14:
                out.append(f"{k + 1} {l + 1} {z.real:.12g} {z.imag:.12g}")
    return "\n".join(out) + "\n"


def ref_to_text(ds):
    out = [f"t1_points {ds.t1_points}", f"t2_points {ds.t2_points}",
           f"dwell1 {ds.dwell1:.12g}", f"dwell2 {ds.dwell2:.12g}"]
    for i in range(ds.t1_points):
        for j in range(ds.t2_points):
            z = ds.data[i, j]
            if abs(z) >= 1e-14:
                out.append(f"{i + 1} {j + 1} {z.real:.12g} {z.imag:.12g}")
    return "\n".join(out) + "\n"


def ref_to_gnuplot_grid(ds):
    f1, f2, spec = ds.fft2()
    mag = np.abs(spec)
    blocks = []
    for i, x in enumerate(f1):
        rows = [f"{x:.12g} {y:.12g} {mag[i, j]:.12g}" for j, y in enumerate(f2)]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def ref_fid_rows(fid, dwell):
    rows = [f"{m * dwell:.12g},{z.real:.12g},{z.imag:.12g}"
            for m, z in enumerate(fid)]
    return "\n".join(rows) + "\n"


def ref_fft_rows(freqs, vals):
    rows = [f"{f:.12g},{z.real:.12g},{z.imag:.12g}"
            for f, z in zip(freqs, vals)]
    return "\n".join(rows) + "\n"


# --- inputs -----------------------------------------------------------------

# parts at and around the cut, exact and signed zeros, extremes
EDGE = [0.0, -0.0, CUT, -CUT, math.nextafter(CUT, 0), math.nextafter(CUT, 1),
        CUT / math.sqrt(2), math.nextafter(CUT / math.sqrt(2), 0),
        math.nextafter(CUT / math.sqrt(2), 1), 0.6 * CUT, 0.8 * CUT,
        5e-324, 1e300, -1e300, 1.0, -1.0, 0.1, 123456789.123456789]


def random_matrix(rng, shape):
    """Complex values spread over 1e-20..1e10 with edge parts mixed in."""
    n = int(np.prod(shape))
    mag = 10.0 ** rng.uniform(-20, 10, size=(2, n))
    parts = rng.choice([-1.0, 1.0], size=(2, n)) * mag
    edge = rng.random((2, n)) < 0.3
    parts[edge] = rng.choice(EDGE, size=int(edge.sum()))
    # pairs near |z| = 1e-14 with both parts below the cut
    near = rng.random(n) < 0.1
    phi = rng.uniform(0, 2 * math.pi, size=int(near.sum()))
    r = CUT * (1 + rng.uniform(-1e-15, 1e-15, size=phi.size) * 4)
    parts[0, near], parts[1, near] = r * np.cos(phi), r * np.sin(phi)
    return (parts[0] + 1j * parts[1]).reshape(shape)


def dataset(data, dwell1=1e-3, dwell2=2.5e-4):
    return acq.Dataset2D(dwell1, dwell2, data)


# --- tests ------------------------------------------------------------------

@pytest.fixture(params=["loop", "batched"])
def sparse_path(request, monkeypatch):
    """Run a test once with every matrix on the element loop of
    ``format_sparse`` and once with every matrix on its batched path."""
    monkeypatch.setattr(dyn, "_SPARSE_SMALL", 10**9 if request.param == "loop" else 0)
    return request.param


@pytest.mark.parametrize("seed, shape", [
    (0, (1, 1)), (1, (4, 4)), (2, (8, 8)), (3, (16, 16)), (4, (7, 13)),
    (5, (1, 40)), (6, (40, 1)), (7, (64, 33))])
def test_sparse_writers_match_loops(seed, shape, sparse_path):
    mat = random_matrix(np.random.default_rng(seed), shape)
    ds = dataset(mat)
    assert ds.to_text() == ref_to_text(ds)
    if shape[0] == shape[1]:
        assert dyn.format_state(mat) == ref_format_state(mat)


def test_sparse_cut_matches_scalar_abs(sparse_path):
    # many pairs with |z| within a few ulp of the cut, both parts below it
    rng = np.random.default_rng(11)
    phi = rng.uniform(0, 2 * math.pi, size=20000)
    r = CUT * (1 + rng.integers(-8, 9, size=phi.size) * 2.0 ** -52)
    ds = dataset((r * np.cos(phi) + 1j * r * np.sin(phi)).reshape(100, 200))
    assert ds.to_text() == ref_to_text(ds)


def test_sparse_special_values(sparse_path):
    vals = np.array([0.0, -0.0, CUT, -CUT, np.inf, -np.inf, np.nan])
    mat = np.empty((vals.size, vals.size), dtype=complex)
    mat.real, mat.imag = vals[:, None], vals[None, :]
    mat[1, 2] = complex(-0.0, 1.0)
    mat[2, 1] = complex(1.0, -0.0)
    assert dyn.format_state(mat) == ref_format_state(mat)
    real = np.array([[0.0, -2.5], [CUT, 1e-15]])
    assert dyn.format_state(real) == ref_format_state(real)


def test_sparse_all_below_cut_writes_header_only(sparse_path):
    mat = np.full((4, 4), 1e-15 + 1e-15j)
    mat[0, 0] = -0.0
    assert dyn.format_state(mat) == ref_format_state(mat) \
        == "dim 4\n"
    ds = dataset(mat[:2])
    assert ds.to_text() == ref_to_text(ds)
    assert ds.to_text().count("\n") == 4


def test_sparse_small_matrix_paths():
    # the default threshold sends a 4x4 state to the loop and a 16x16 one
    # to the batched path; an element whose |z| overflows a float (the loop's
    # abs() raises) falls back to the batched path and is written
    assert 16 <= dyn._SPARSE_SMALL < 256
    rng = np.random.default_rng(3)
    for n in (2, 4, 8, 16):
        mat = random_matrix(rng, (n, n))
        assert dyn.format_state(mat) == ref_format_state(mat)
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 2] = complex(1.5e308, 1.5e308)
    mat[3, 0] = 0.5
    with pytest.raises(OverflowError):
        dyn._format_sparse_loop("dim 4", mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = dyn.format_state(mat)
        assert text == ref_format_state(mat)
    assert text.splitlines()[1:] == ["2 3 1.5e+308 1.5e+308", "4 1 0.5 0"]


def test_sparse_rows_cross_slice_boundaries(monkeypatch):
    rng = np.random.default_rng(5)
    big = rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))
    big[rng.random(big.shape) < 0.1] = 0
    assert np.count_nonzero(big) > dyn._SPARSE_SLICE
    assert dyn.format_state(big) == ref_format_state(big)
    monkeypatch.setattr(dyn, "_SPARSE_SLICE", 7)
    for shape in [(7, 1), (8, 8), (9, 5)]:
        ds = dataset(random_matrix(rng, shape))
        assert ds.to_text() == ref_to_text(ds)


@pytest.mark.parametrize("seed, shape, dwells", [
    (0, (1, 1), (1e-3, 1e-3)), (1, (8, 16), (1e-3, 2.5e-4)),
    (2, (16, 8), (3e-3, 7e-4)), (3, (5, 12), (0.1, 1 / 3)),
    (4, (32, 64), (2e-3, 5e-4))])
def test_gnuplot_grid_matches_loop(seed, shape, dwells):
    ds = dataset(random_matrix(np.random.default_rng(seed), shape), *dwells)
    assert ds.to_gnuplot_grid() == ref_to_gnuplot_grid(ds)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 1024])
def test_fid_fft_rows_match_loops(n):
    rng = np.random.default_rng(n)
    fid = random_matrix(rng, (n,))
    if n:
        fid[0] = complex(-0.0, 0.0)
    dwell = 1e-3 / 3
    times = [m * dwell for m in range(n)]
    assert cli._complex_rows(times, fid) == ref_fid_rows(fid, dwell)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, dwell)) if n else np.zeros(0)
    assert cli._complex_rows(freqs.tolist(), fid) == ref_fft_rows(freqs, fid)
