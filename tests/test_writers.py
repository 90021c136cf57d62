"""The batched text writers equal the per-element loops they replaced, byte
for byte: the sparse ``k l re im`` format (state files and ``.2d``), the
gnuplot magnitude grid and the ``spinsim run`` FID/FFT rows.  The files the
CLI streams chunk by chunk equal the joined texts."""

import errno
import math
import os
import tracemalloc
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
    f1 = np.fft.fftshift(np.fft.fftfreq(ds.t1_points, ds.dwell1))
    f2 = np.fft.fftshift(np.fft.fftfreq(ds.t2_points, ds.dwell2))
    mag = np.abs(np.fft.fftshift(np.fft.fft2(ds.data)))
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
    ``dyn.sparse_chunks`` and once with every matrix on its batched path."""
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


# --- the streamed files ------------------------------------------------------

def rows_below_cut(rng):
    """A 7 x 9 dataset whose rows 2 and 5 hold only entries below the cut."""
    data = random_matrix(rng, (7, 9))
    data[[1, 4]] = 0.5 * CUT * np.exp(1j * rng.uniform(0, 7, size=(2, 9)))
    data[[1, 4], 3] = -0.0
    return dataset(data)


def read(path):
    return path.read_bytes().decode("utf-8")


@pytest.fixture
def recorded(monkeypatch):
    """The states and datasets that ``cli.main`` hands to the writers."""
    seen = {"states": [], "datasets": []}
    state_chunks, run_2d = dyn.state_chunks, acq.run_2d

    def record_state(rho):
        seen["states"].append(rho)
        return state_chunks(rho)

    def record_dataset(*args, **kwargs):
        seen["datasets"].append(run_2d(*args, **kwargs))
        return seen["datasets"][-1]

    monkeypatch.setattr(dyn, "state_chunks", record_state)
    monkeypatch.setattr(acq, "run_2d", record_dataset)
    return seen


def test_streamed_cli_files_equal_joined_texts(tmp_path, recorded, monkeypatch):
    # 7 rows per slice on the batched path: the kept entries of the states
    # and of the 16-column dataset cross slice boundaries inside a row
    monkeypatch.setattr(dyn, "_SPARSE_SLICE", 7)
    monkeypatch.setattr(dyn, "_SPARSE_SMALL", 0)
    assert cli.main(["run", "citrate.spin", "epr.pp",
                     "--out", str(tmp_path / "r")]) == 0
    assert cli.main(["protocol", "dj2:f1", "demo3.spin", "--write-2d",
                     "--t1-points", "8", "--t2-points", "16",
                     "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["tomo", "citrate.spin", "--protocol", "epr",
                     "--out", str(tmp_path / "t")]) == 0
    run_rho, dj2_rho, recon = recorded["states"]
    assert read(tmp_path / "r" / "epr.state") == dyn.format_state(run_rho)
    assert read(tmp_path / "p" / "dj2_f1.state") == dyn.format_state(dj2_rho)
    assert read(tmp_path / "t" / "epr_tomo.state") == dyn.format_state(recon)
    [ds] = recorded["datasets"]             # dj2's: tomo synthesizes none
    assert ds.data.shape == (8, 16)
    assert np.count_nonzero(np.abs(ds.data) >= CUT) > dyn._SPARSE_SLICE
    text = read(tmp_path / "p" / "dj2_f1.2d")
    assert text == ds.to_text() == ref_to_text(ds)
    grid = read(tmp_path / "p" / "dj2_f1.grid")
    assert grid == ds.to_gnuplot_grid() == ref_to_gnuplot_grid(ds)


@pytest.mark.parametrize("slice_rows", [1, 5, 4096])
def test_write_streams_chunks_byte_for_byte(tmp_path, monkeypatch, slice_rows):
    monkeypatch.setattr(dyn, "_SPARSE_SLICE", slice_rows)
    monkeypatch.setattr(dyn, "_SPARSE_SMALL", 0)
    ds = rows_below_cut(np.random.default_rng(slice_rows))
    cli._write(tmp_path / "a.2d", ds.text_chunks())
    cli._write(tmp_path / "a.grid", ds.grid_chunks())
    cli._write(tmp_path / "a.state", dyn.state_chunks(ds.data[:, :7]))
    assert read(tmp_path / "a.2d") == ds.to_text() == ref_to_text(ds)
    assert read(tmp_path / "a.grid") == ds.to_gnuplot_grid() \
        == ref_to_gnuplot_grid(ds)
    assert read(tmp_path / "a.state") == ref_format_state(ds.data[:, :7])
    assert not any(line.startswith(("2 ", "5 "))
                   for line in read(tmp_path / "a.2d").splitlines())


def test_chunks_hold_one_slice_each(monkeypatch):
    monkeypatch.setattr(dyn, "_SPARSE_SLICE", 5)
    monkeypatch.setattr(dyn, "_SPARSE_SMALL", 0)
    ds = dataset(np.ones((3, 4), dtype=complex))
    chunks = list(ds.text_chunks())
    assert [c.count("\n") for c in chunks] == [4, 5, 5, 2]
    grid = list(ds.grid_chunks())
    assert len(grid) == 4 and grid[-1] == "\n"
    assert [c.count("\n") for c in grid[:3]] == [3, 5, 5]


def test_write_2d_peak_memory_below_the_text(tmp_path):
    # each of the .2d and .grid texts is about 10 MB at the default grid;
    # held whole, joined and encoded they took the peak above 40 MB
    tracemalloc.start()
    try:
        code = cli.main(["protocol", "dj2:f1", "demo3.spin", "--write-2d",
                         "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "dj2_f1.2d").stat().st_size > 9e6
    assert (tmp_path / "dj2_f1.grid").stat().st_size > 9e6
    assert peak < 20e6


def test_error_while_chunks_are_written_is_one_line(tmp_path, capsys, monkeypatch):
    def failing(self):
        yield "0 0 0\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(acq.Dataset2D, "grid_chunks", failing)
    code = cli.main(["protocol", "dj2:f1", "demo3.spin", "--write-2d",
                     "--t1-points", "8", "--t2-points", "16",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    path = str(tmp_path / "dj2_f1.grid")
    assert err == f"spinsim: error: cannot write {path!r}: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_while_writing_is_one_line(tmp_path, capsys):
    # the file opens, and the write fails once the buffer reaches the device
    (tmp_path / "dj2_f1.2d").symlink_to("/dev/full")
    code = cli.main(["protocol", "dj2:f1", "demo3.spin", "--write-2d",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    path = str(tmp_path / "dj2_f1.2d")
    assert err == f"spinsim: error: cannot write {path!r}: No space left on device\n"
    assert not (tmp_path / "dj2_f1.grid").exists()
