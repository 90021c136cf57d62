import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import acquisition as acq, core, dynamics as dyn
from spinsim import protocols as pr
from spinsim import pulselang as pl
from spinsim.acceptance import random_system


def records(cat):
    """Every catalog line as its ``by_id`` record, in id order."""
    return [cat.by_id(tid) for tid in range(1, len(cat) + 1)]


@pytest.fixture(scope="module")
def shifted_citrate_es():
    # carrier off center so multiple-quantum omega_1 peaks avoid the axial
    # ridge and no two lines sit at exactly opposite frequencies
    sys_ = core.SpinSystem.create("citrate+40", [67.75, 12.25],
                                  [[0, 15], [15, 0]])
    return core.eigensystem(sys_)


def test_equilibrium_stick_spectrum(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    spec = acq.detect_small_angle(citrate_es, rho, 10.0)
    assert len(spec.amplitude) == 4
    assert (spec.amplitude > 0).all()


def test_pps_stick_spectrum(citrate_es, citrate_cat):
    rep = pr.pseudopure_2spin(citrate_es, "00")
    spec = acq.detect_small_angle(citrate_es, rep.final_state, 10.0)
    touching = {k + 1 for k, (lo, up) in enumerate(zip(citrate_cat.lower,
                                                       citrate_cat.upper))
                if "00" in (citrate_es.labels[lo], citrate_es.labels[up])}
    live = {k + 1 for k, a in enumerate(spec.amplitude) if abs(a) > 1e-12}
    assert live == touching
    vals = [spec.amplitude[t - 1] / citrate_cat.by_id(t).intensity
            for t in touching]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_saturated_state_is_silent(citrate_es):
    rho = np.zeros((4, 4), dtype=complex)
    spec = acq.detect_small_angle(citrate_es, rho, 10.0)
    assert (spec.amplitude == 0).all()


@pytest.mark.parametrize("beta", [0.0, 180.0, -360.0, math.inf, math.nan])
def test_small_angle_rejects_silent_pulses(citrate_es, beta):
    # sin(beta) is 0 or undefined: the readout would divide by it
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(acq.AcquisitionError, match="detection pulse"):
        acq.detect_small_angle(citrate_es, rho, beta)


def test_stick_total_invariant_under_relabeling(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    total = sum(acq.detect_small_angle(
        citrate_es, rho, 10.0).amplitude)
    labels = list(citrate_es.labels)
    ia, ib = labels.index("01"), labels.index("10")
    labels[ia], labels[ib] = labels[ib], labels[ia]
    es2 = dataclasses.replace(citrate_es, labels=tuple(labels))
    total2 = sum(acq.detect_small_angle(
        es2, dyn.equilibrium_deviation(es2), 10.0).amplitude)
    assert total2 == pytest.approx(total, abs=1e-12)


def test_fid_of_diagonal_state_is_zero(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    fid = acq.acquire_fid(citrate_es, rho, 64, 1e-3)
    assert np.abs(fid).max() == 0.0


def test_fid_points_power_of_two(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(acq.AcquisitionError, match="power of two"):
        acq.acquire_fid(citrate_es, rho, 100, 1e-3)
    with pytest.raises(acq.AcquisitionError, match="power of two"):
        acq.fft_spectrum(np.zeros(100, dtype=complex), 1e-3)


def test_single_coherence_line_position(citrate_es, citrate_cat):
    es, cat = citrate_es, citrate_cat
    t = cat.by_id(1)
    mat = np.zeros((4, 4), dtype=complex)
    mat[t.upper, t.lower] = 1.0
    mat[t.lower, t.upper] = 1.0
    rho = mat
    points, dwell = 1024, 1e-3
    fid = acq.acquire_fid(es, rho, points, dwell)
    freqs, spec = acq.fft_spectrum(fid, dwell)
    peak = freqs[int(np.argmax(np.abs(spec)))]
    assert abs(peak - t.freq_hz) <= 1.0 / (points * dwell)


def test_parseval(citrate_es):
    es = citrate_es
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = (a + a.conj().T) / 2
    fid = acq.acquire_fid(es, rho, 512, 1e-3)
    _, spec = acq.fft_spectrum(fid, 1e-3)
    et = np.sum(np.abs(fid) ** 2)
    ef = np.sum(np.abs(spec) ** 2) / 512
    assert abs(et - ef) <= 1e-10 * max(1.0, et)


def test_tomo_diagonal_equilibrium_roundtrip(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    sol, under = acq.tomo_diagonal(citrate_es, rho)
    assert not under
    assert np.abs(sol - np.real(np.diag(rho))).max() <= 1e-10


def test_tomo_diagonal_epr(citrate_es):
    rho = pr.epr_pure_projector(citrate_es)
    sol, under = acq.tomo_diagonal(citrate_es, rho)
    # solution carries the trace-free gauge; compare centered references
    ref = np.real(np.diag(rho))
    ref = ref - ref.mean()
    assert np.abs(sol - ref).max() <= 1e-10


def test_tomo_diagonal_zero_state(citrate_es):
    rho = np.zeros((4, 4), dtype=complex)
    sol, _ = acq.tomo_diagonal(citrate_es, rho)
    assert np.abs(sol).max() <= 1e-12


def test_tomo_diagonal_underdetermined_flag():
    # exactly equivalent spins 2,3: cross-sector transitions carry zero
    # intensity and the observable graph no longer connects all levels
    sys_ = core.SpinSystem.create(
        "a2b", [200.0, -100.0, -100.0],
        [[0, 6, 6], [6, 0, 6], [6, 6, 0]],
        [[0, -30, -30], [-30, 0, -180], [-30, -180, 0]])
    es = core.eigensystem(sys_)
    rho = dyn.equilibrium_deviation(es)
    with pytest.warns(UserWarning, match="underdetermined"):
        _, under = acq.tomo_diagonal(es, rho)
    assert under


def test_tomo_offdiagonal_epr(shifted_citrate_es):
    es = shifted_citrate_es
    rho = pr.epr_create(es).final_state
    coherences = acq.tomo_offdiagonal_2d(es, rho, t1_points=128,
                                         t2_points=256)
    i00, i11 = es.index_of_label("00"), es.index_of_label("11")
    top = max(coherences, key=lambda r: r.magnitude)
    assert {top.k, top.l} == {i00, i11}
    assert abs(top.order) == 2
    assert top.magnitude == pytest.approx(2 / 3, abs=1e-6)
    others = [r.magnitude for r in coherences if {r.k, r.l} != {i00, i11}]
    assert max(others) <= 1e-6
    # the dominant non-axial omega_1 peak sits at the DQ frequency
    f_dq = (es.energies[i11] - es.energies[i00]) / (2 * math.pi)
    dataset = acq.tomo_dataset(es, rho, 128, 256)
    bin1 = 1.0 / (128 * dataset.dwell1)
    peaks = [p for p in acq.peak_pick_2d(dataset) if abs(p[0]) > bin1]
    assert peaks
    assert abs(abs(peaks[0][0]) - abs(f_dq)) <= bin1


def test_tomo_offdiagonal_diagonal_state(citrate_es):
    # a diagonal state has no evolving coherence; with ideal pulses even
    # the axial response vanishes, so nothing rises above numerical noise
    rho = dyn.equilibrium_deviation(citrate_es)
    coherences = acq.tomo_offdiagonal_2d(citrate_es, rho, t1_points=64,
                                         t2_points=128)
    assert max(r.magnitude for r in coherences) <= 1e-8
    dataset = acq.tomo_dataset(citrate_es, rho, 64, 128)
    bin1 = 1.0 / (64 * dataset.dwell1)
    for f1, _, mag in acq.peak_pick_2d(dataset):
        assert mag <= 1e-10 or abs(f1) <= bin1


def test_coherence_order_assignment(shifted_citrate_es):
    es = shifted_citrate_es
    # f[a, b]: the omega_1 frequency of element (a, b); none on the diagonal
    f = (es.energies[None, :] - es.energies[:, None]) / (2 * math.pi)
    np.fill_diagonal(f, np.inf)
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(4))
        l = int(rng.integers(4))
        if k == l:
            continue
        mat = np.zeros((4, 4), dtype=complex)
        mat[k, l] = 0.7
        mat[l, k] = 0.7
        rho = mat
        dataset = acq.tomo_dataset(es, rho, 128, 256)
        bin1 = 1.0 / (128 * dataset.dwell1)
        peaks = [p for p in acq.peak_pick_2d(dataset) if abs(p[0]) > bin1]
        if not peaks:      # tiny transfer amplitude for this element
            continue
        a, b = np.unravel_index(np.argmin(np.abs(f - peaks[0][0])), f.shape)
        order = int(round(es.mz[a] - es.mz[b]))
        assert abs(order) == abs(int(round(es.mz[k] - es.mz[l])))


# the top |f| of these systems rounds just above the default dwell's
# Nyquist frequency
NYQUIST_EDGES = [[29820.528196969815],
                 [29820.528196969815, -29820.528196969815]]


@pytest.mark.parametrize("offsets", NYQUIST_EDGES)
def test_tomo_offdiagonal_at_nyquist(offsets):
    # the measurement still runs and reports every element
    es = core.eigensystem(core.SpinSystem.create("edge", offsets))
    rho = dyn.equilibrium_deviation(es)
    coherences = acq.tomo_offdiagonal_2d(es, rho, t1_points=32, t2_points=64)
    assert acq.tomo_dataset(es, rho, 32, 64).data.shape == (32, 64)
    assert [(r.k, r.l) for r in coherences] == list(
        zip(*np.triu_indices(es.dim, 1)))
    assert all(math.isfinite(r.magnitude) for r in coherences)


def loop_peak_pick(dataset, rel_threshold=0.05):
    """Reference for acq.peak_pick_2d: the per-cell loop it replaced."""
    n1, n2 = dataset.data.shape
    win = np.outer(np.hanning(n1) if n1 > 1 else np.ones(1),
                   np.hanning(n2) if n2 > 1 else np.ones(1))
    spec = np.fft.fftshift(np.fft.fft2(dataset.data * win))
    f1ax = np.fft.fftshift(np.fft.fftfreq(n1, dataset.dwell1))
    f2ax = np.fft.fftshift(np.fft.fftfreq(n2, dataset.dwell2))
    mag = np.abs(spec)
    mmax = mag.max()
    if mmax == 0.0:
        return []
    peaks = []
    df1 = f1ax[1] - f1ax[0] if n1 > 1 else 0.0
    df2 = f2ax[1] - f2ax[0] if n2 > 1 else 0.0
    for i in range(n1):
        for j in range(n2):
            v = mag[i, j]
            if v < rel_threshold * mmax:
                continue
            im, ip = (i - 1) % n1, (i + 1) % n1
            jm, jp = (j - 1) % n2, (j + 1) % n2
            # along a length-1 axis a cell has no neighbours
            if ((n1 == 1 or (v >= mag[im, j] and v > mag[ip, j]))
                    and (n2 == 1 or (v >= mag[i, jm] and v > mag[i, jp]))):
                w = mag[im, j] + v + mag[ip, j]
                c1 = f1ax[i] + df1 * (mag[ip, j] - mag[im, j]) / w
                w = mag[i, jm] + v + mag[i, jp]
                c2 = f2ax[j] + df2 * (mag[i, jp] - mag[i, jm]) / w
                peaks.append((float(c1), float(c2), float(v)))
    peaks.sort(key=lambda p: -p[2])
    return peaks


def hex_peaks(peaks):
    return [tuple(float.hex(x) for x in p) for p in peaks]


def test_peak_pick_matches_loop_on_ghz(demo3_es):
    rho = pr.ghz_create(demo3_es).final_state
    dataset = acq.tomo_dataset(demo3_es, rho, 256, 512)
    want = loop_peak_pick(dataset)
    assert want
    assert hex_peaks(acq.peak_pick_2d(dataset)) == hex_peaks(want)


@pytest.mark.parametrize("shape", [(1, 64), (64, 1)])
def test_peak_pick_one_line_on_a_single_row_or_column(shape):
    # a 1D grid: one strong line gives exactly one peak, at its frequency
    dwell = 1e-3
    t = np.arange(max(shape)) * dwell
    data = np.exp(2j * math.pi * 125.0 * t).reshape(shape)
    peaks = acq.peak_pick_2d(acq.Dataset2D(dwell, dwell, data))
    assert len(peaks) == 1
    f1, f2, _ = peaks[0]
    assert (f1, f2)[shape.index(64)] == pytest.approx(125.0, abs=1.0)
    assert (f1, f2)[shape.index(1)] == 0.0


@pytest.mark.parametrize("shape", [(16, 32), (8, 1), (1, 8), (1, 1),
                                   (2, 4), (3, 5)])
def test_peak_pick_matches_loop_on_random_data(shape, monkeypatch):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(20):
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dataset = acq.Dataset2D(1e-3, 2.5e-4, data)
        assert (hex_peaks(acq.peak_pick_2d(dataset))
                == hex_peaks(loop_peak_pick(dataset)))
    # plateaus: spectra of a few integers, so equal neighbours and equal
    # peaks (the ties of the sort) occur on every grid with room for them,
    # and 1 sits exactly at the threshold when 20 is the maximum
    spectra = [rng.choice([-20, -2, -1, 0, 1, 2, 3], size=shape).astype(complex)
               for _ in range(20)]
    plateaus = ties = 0
    for spec in spectra:
        monkeypatch.setattr(np.fft, "fft2", lambda a, spec=spec: spec)
        dataset = acq.Dataset2D(1e-3, 2.5e-4, np.zeros(shape, dtype=complex))
        want = loop_peak_pick(dataset)
        assert hex_peaks(acq.peak_pick_2d(dataset)) == hex_peaks(want)
        mag = np.abs(spec)
        plateaus += sum(np.count_nonzero(mag == np.roll(mag, 1, axis))
                        for axis in (0, 1) if shape[axis] > 1)
        ties += len(want) - len({p[2] for p in want})
    # on one row or column a cell is its own wraparound neighbour, so it is
    # never above it and no peak is found, by either version
    assert plateaus > 0 or shape == (1, 1)
    assert ties > 0 or min(shape) == 1


@pytest.mark.parametrize("n", [1, 2, 4, 16, 256, 1024, 4096])
def test_hann_dft_matches_per_element_exponentials(n):
    # the formula _hann_dft replaced: one exponential per bin and point
    bins = np.array([-3 * n - 1, -n, -1, 0, 1, n // 2, n - 1, n, n + 1,
                     5 * n + 3])
    k = np.outer(bins, np.arange(n)) % n
    want = np.hanning(n) * np.exp(-2j * np.pi / n * k)
    got = acq._hann_dft(n, bins)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def _reference_design(es, cat, t1_points, t2_points, dwell1, dwell2):
    """The scalar loop that built the tomography design matrix, term by term.

    Kept as the reference for the array code in tomo_offdiagonal_2d, which
    must give the same matrix bit for bit: the CLI sorts coherences by
    magnitude, and at the 1e-16 noise floor their order follows rounding.
    Returns the real design matrix and the (j1, j2) bin of each row.
    """
    dim = es.dim
    u90 = dyn.hard_pulse_unitary(es, 90.0, 90.0)
    u45 = dyn.hard_pulse_unitary(es, 45.0, 270.0)
    fplus = es.lowering_operator().conj().T
    lines = records(cat)
    hmat = np.array([[u45[t.upper, m] * np.conj(u45[t.lower, m])
                      * fplus[t.lower, t.upper] for m in range(dim)]
                     for t in lines])
    gten = np.einsum("ma,mc->mac", u90, np.conj(u90))
    kten = np.einsum("bm,mac->bac", hmat, gten)

    def dirichlet(freq_hz, bin_index, points, dwell):
        phi = 2 * math.pi * freq_hz * dwell - 2 * math.pi * bin_index / points
        num = 1.0 - np.exp(1j * phi * points)
        den = 1.0 - np.exp(1j * phi)
        if abs(den) < 1e-12:
            return complex(points)
        return complex(num / den)

    comps = [(a, c) for a in range(dim) for c in range(dim)]
    f1_of = {(a, c): float(es.energies[c] - es.energies[a]) / (2 * math.pi)
             for a, c in comps}
    bins1 = sorted({int(round(f1_of[ac] * t1_points * dwell1)) % t1_points
                    for ac in comps})
    bins2 = sorted({int(round(t.freq_hz * t2_points * dwell2)) % t2_points
                    for t in lines})
    uppers = [(k, l) for k in range(dim) for l in range(k + 1, dim)]
    obs_rows, obs_bins, lineamp_at = [], [], {}
    for t_idx, t in enumerate(lines):
        for j2 in bins2:
            d2 = dirichlet(t.freq_hz, j2, t2_points, dwell2)
            if abs(d2) > 1e-9:
                lineamp_at.setdefault(j2, []).append((t_idx, d2))
    for j1 in bins1:
        d1_of = {}
        for ac in comps:
            d1 = dirichlet(f1_of[ac], j1, t1_points, dwell1)
            if abs(d1) > 1e-9:
                d1_of[ac] = d1
        if not d1_of:
            continue
        for j2 in bins2:
            row = np.zeros(2 * len(uppers) + dim, dtype=complex)
            for (t_idx, d2) in lineamp_at.get(j2, ()):
                for (a, c), d1 in d1_of.items():
                    w = kten[t_idx, a, c] * d1 * d2
                    if a == c:
                        row[2 * len(uppers) + a] += w
                    elif a < c:
                        e = uppers.index((a, c))
                        row[2 * e] += w
                        row[2 * e + 1] += 1j * w
                    else:
                        e = uppers.index((c, a))
                        row[2 * e] += w
                        row[2 * e + 1] += -1j * w
            obs_rows.append(row)
            obs_bins.append((j1, j2))
    a_mat = np.array(obs_rows)
    return np.vstack([a_mat.real, a_mat.imag]), tuple(zip(*obs_bins))


def bits(x):
    """The IEEE bit patterns of a float64 or complex128 array, signed zeros
    told apart."""
    return np.ascontiguousarray(x).view(np.uint64)


def spy_tomo_halves(monkeypatch):
    """Record what acq._tomo_design returns (one entry per model built) and
    what acq._peak_data returns (one entry per state), with a fresh model
    map, so each eigensystem's model is built in the test that spies."""
    designs, peaks = [], []

    def spy(fn, out):
        def wrapped(*args):
            out.append(fn(*args))
            return out[-1]
        return wrapped

    monkeypatch.setattr(acq, "_TOMO_MODELS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(acq, "_tomo_design", spy(acq._tomo_design, designs))
    monkeypatch.setattr(acq, "_peak_data", spy(acq._peak_data, peaks))
    return designs, peaks


def random_es(n, seed):
    """The eigensystem of a seeded random oriented system of n spins."""
    rng = np.random.default_rng(seed)
    offs = rng.uniform(-300, 300, n).tolist()
    j = np.triu(rng.uniform(0, 15, (n, n)), 1)
    d = np.triu(rng.uniform(-200, 200, (n, n)), 1)
    return core.eigensystem(core.SpinSystem.create(f"r{n}", offs, j + j.T,
                                                   d + d.T))


def tomo_test_es(system, request):
    """A shipped system's fixture, the Nyquist edge system ``edge<i>``, or
    the seeded random system ``random<n>`` of n spins."""
    if system.startswith("edge"):
        offsets = NYQUIST_EDGES[int(system[4:])]
        return core.eigensystem(core.SpinSystem.create("edge", offsets))
    if system.startswith("random"):
        n = int(system[6:])
        return random_es(n, 30 + n)
    return request.getfixturevalue(f"{system}_es")


# 256 x 1024 are the CLI defaults; t1 counts of 48 and 1 check the peak-bin
# spectrum against fft2 off powers of two and on a single row
@pytest.mark.parametrize("system, t1_points, t2_points", [
    ("citrate", 64, 32), ("demo3", 32, 16), ("demo4", 16, 8),
    ("citrate", 256, 1024), ("demo3", 48, 16), ("citrate", 1, 32),
    ("edge0", 32, 64), ("edge1", 32, 64), ("random1", 16, 32),
    ("random2", 24, 64), ("random3", 32, 16), ("random4", 16, 8)])
def test_tomo_design_matrix_matches_scalar_loop(system, t1_points, t2_points,
                                                request, monkeypatch):
    es = tomo_test_es(system, request)
    cat = core.transition_catalog(es)
    designs, peaks = spy_tomo_halves(monkeypatch)
    # the model uses the default dwells as computed, not dataset.dwell2,
    # which the acquire line rounds to 12 digits
    dwell = acq.default_tomo_dwell(es)
    a_ref, bins = _reference_design(es, cat, t1_points, t2_points, dwell, dwell)
    rng = np.random.default_rng(es.dim)
    for _ in range(2):
        rho = random_hermitian(rng, es.dim)
        peaks.clear()
        acq.tomo_offdiagonal_2d(es, rho, t1_points=t1_points,
                                t2_points=t2_points)
        assert len(designs) == 1 and len(peaks) == 1
        assert np.array_equal(bits(designs[0][3]), bits(a_ref))
        # the peak bins read from line amplitudes against the fft2 of the
        # synthesized time-domain data of the same readout
        dataset = acq.tomo_dataset(es, rho, t1_points, t2_points)
        b_ref = np.fft.fft2(dataset.data)[bins]
        b_ref = np.concatenate([b_ref.real, b_ref.imag])
        assert np.max(np.abs(peaks[0] - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))


def fresh_eigensystem(name):
    """A new eigensystem of a shipped system, outside core.eigensystem's map,
    so no tomography model of another test belongs to it."""
    from importlib import resources
    text = resources.files("spinsim").joinpath(
        "data", "systems", name).read_text(encoding="utf-8")
    sys_ = core.parse_spin_system(text, source=name)
    return core.diagonalize(core.build_hamiltonian(sys_), sys_)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def coherence_bits(coherences):
    return [(r.k, r.l, r.order, float.hex(r.freq_hz), float.hex(r.value.real),
             float.hex(r.value.imag), float.hex(r.magnitude))
            for r in coherences]


@pytest.mark.parametrize("t1_points, t2_points, message", [
    (0, 16, "t1 points must be at least 1, got 0"),
    (-4, 16, "t1 points must be at least 1, got -4"),
    (8, 0, "points must be a power of two, got 0"),
    (8, 3, "points must be a power of two, got 3")])
def test_tomo_grid_checked_before_the_model(t1_points, t2_points, message):
    # the model divides by the point counts; a bad grid must end in the
    # grid's error before any of that arithmetic warns
    es = fresh_eigensystem("citrate.spin")
    rho = dyn.equilibrium_deviation(es)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(acq.AcquisitionError, match=f"^{message}$"):
            acq.tomo_offdiagonal_2d(es, rho, t1_points=t1_points,
                                    t2_points=t2_points)
        with pytest.raises(acq.AcquisitionError, match=f"^{message}$"):
            acq.tomo_dataset(es, rho, t1_points, t2_points)
    assert es not in acq._TOMO_MODELS


def test_tomo_model_is_built_once_per_eigensystem_and_grid(monkeypatch):
    calls = []
    design_sums = acq._design_sums

    def counting(*args):
        calls.append(args)
        return design_sums(*args)

    monkeypatch.setattr(acq, "_design_sums", counting)
    es = fresh_eigensystem("demo3.spin")
    rng = np.random.default_rng(5)
    first, second = random_hermitian(rng, 8), random_hermitian(rng, 8)
    acq.tomo_offdiagonal_2d(es, first, t1_points=32, t2_points=16)
    assert len(calls) == 1
    model = acq._TOMO_MODELS[es]
    assert model.grid == (32, 16)
    for arr in (model.bins1, model.bins2, model.pinv):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # a second state on the model: no new build, and the bits of a cold
    # build on a new eigensystem of the same system
    warm = acq.tomo_offdiagonal_2d(es, second, t1_points=32, t2_points=16)
    assert len(calls) == 1
    assert acq._TOMO_MODELS[es] is model
    cold = acq.tomo_offdiagonal_2d(fresh_eigensystem("demo3.spin"), second,
                                   t1_points=32, t2_points=16)
    assert len(calls) == 2
    assert coherence_bits(warm) == coherence_bits(cold)
    # another grid replaces the model
    acq.tomo_offdiagonal_2d(es, second, t1_points=16, t2_points=16)
    assert len(calls) == 3
    assert acq._TOMO_MODELS[es].grid == (16, 16)


def test_tomo_model_is_freed_with_its_eigensystem(monkeypatch):
    monkeypatch.setattr(acq, "_TOMO_MODELS", weakref.WeakKeyDictionary())
    es = fresh_eigensystem("citrate.spin")
    acq.tomo_offdiagonal_2d(es, dyn.equilibrium_deviation(es),
                            t1_points=16, t2_points=16)
    assert len(acq._TOMO_MODELS) == 1
    del es
    gc.collect()
    assert len(acq._TOMO_MODELS) == 0


# small grids on which the design matrix is well conditioned (condition
# number on its range 11, 405 and 2.2e3); citrate's 4 unobservable columns
# leave lstsq's minimum-norm solution
@pytest.mark.parametrize("system, t1_points, t2_points, rank", [
    ("citrate", 16, 16, 12), ("demo3", 32, 16, 61), ("demo4", 32, 16, 253)])
def test_tomo_kept_solve_matches_dense_lstsq(system, t1_points, t2_points, rank,
                                             request, monkeypatch):
    es = request.getfixturevalue(f"{system}_es")
    designs, peaks = spy_tomo_halves(monkeypatch)
    rng = np.random.default_rng(28)
    for _ in range(3):
        coherences = acq.tomo_offdiagonal_2d(
            es, random_hermitian(rng, es.dim), t1_points=t1_points,
            t2_points=t2_points)
        a_real = designs[0][3]
        want, _, want_rank, _ = np.linalg.lstsq(a_real, peaks[-1], rcond=None)
        assert want_rank == rank
        got = [part for c in coherences for part in (c.value.real, c.value.imag)]
        assert np.max(np.abs(np.array(got) - want[:len(got)])) <= 1e-12
    assert len(designs) == 1
    assert np.linalg.matrix_rank(acq._TOMO_MODELS[es].pinv) == rank


def per_line_design_sums(kten, d1, d2, dim):
    """Reference for acq._design_sums: the per-line loop it replaced, which
    gathers each element class from every line's terms."""
    upper_k, upper_l = np.triu_indices(dim, 1)
    kl = upper_k * dim + upper_l
    lk = upper_l * dim + upper_k
    aa = np.arange(dim) * (dim + 1)
    n_up, n1, n2 = len(kl), d1.shape[1], d2.shape[1]
    s_plus = np.zeros((2, n2, n_up, n1))
    s_minus = np.zeros((2, n2, n_up, n1))
    s_diag = np.zeros((2, n2, dim, n1))

    def cmul(xr, xi, yr, yi):
        return np.array([xr * yr - xi * yi, xr * yi + xi * yr])

    for t_idx in range(len(kten)):
        k = kten[t_idx].reshape(-1, 1)
        kd = cmul(k.real, k.imag, d1.real, d1.imag)
        y = d2[t_idx][:, None, None]
        term = cmul(kd[0], kd[1], y.real, y.imag)
        s_plus += term[:, :, kl]
        s_plus += term[:, :, lk]
        s_minus += term[:, :, kl]
        s_minus -= term[:, :, lk]
        s_diag += term[:, :, aa]
    return s_plus, s_minus, s_diag


def test_design_sums_match_per_line_loop(monkeypatch):
    rng = np.random.default_rng(12)
    dim, n1, n2 = 3, 5, 4

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # zero factors of both signs: their +-0 terms must leave the sums' bits
    # as the loop's
    d1 = cnormal(dim * dim, n1)
    d1[[1, 4], [0, 3]] = 0.0
    d1[2, 1] = complex(-0.0, 0.0)
    kten = cnormal(5, dim, dim)
    kten[0, 1, 2] = kten[4, 0, 0] = 0.0
    kten[4, 2, 1] = complex(0.0, -0.0)
    d2 = cnormal(5, n2)
    d2[[0, 2, 4], [1, 3, 2]] = 0.0
    want = per_line_design_sums(kten, d1, d2, dim)
    # one block of all 4 t2 bins, blocks of 1 bin, and blocks of 3 bins,
    # the last of them partial
    for block_bins in (4, 1, 3):
        monkeypatch.setattr(acq, "_DESIGN_BLOCK", block_bins * dim * dim * n1)
        got = acq._design_sums(kten, d1, d2, dim)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("build", [pr.c2swap_4spin, pr.c3not_4spin])
def test_tomo_4spin_gate_outputs_roundtrip(build, demo4_es):
    es = demo4_es
    rho = build(es).final_state
    diag, _ = acq.tomo_diagonal(es, rho)
    table = acq.tomo_offdiagonal_2d(es, rho, t1_points=32, t2_points=16)
    _, fidelity = acq.reconstruct_density(diag, table, reference=rho)
    assert fidelity >= 0.999999


def test_scale_calibration_epr(citrate_es):
    rho = pr.epr_create(citrate_es).final_state
    ratio = acq.tomo_scale_calibration(citrate_es, rho)
    assert ratio <= 1e-10


def test_scale_calibration_detects_dq_error(citrate_es):
    es = citrate_es
    rho = pr.epr_create(es).final_state.copy()
    i00, i11 = es.index_of_label("00"), es.index_of_label("11")
    rho[i00, i11] *= 0.5
    rho[i11, i00] *= 0.5
    ratio = acq.tomo_scale_calibration(es, rho)
    assert ratio > 0.05


def test_scale_calibration_diagonal_state(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    # the (iv) and (iii) norms agree: no double-quantum term to tell apart
    ratio = acq.tomo_scale_calibration(citrate_es, rho)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_reconstruct_zero_coherences(citrate_es):
    diag = np.array([0.5, 0.1, -0.2, -0.4])
    rho, fid = acq.reconstruct_density(diag, ())
    assert np.allclose(rho, np.diag(diag))
    assert fid is None


def test_reconstruct_random_states_roundtrip(shifted_citrate_es):
    # diagonal plus one random coherence, 200 cases
    es = shifted_citrate_es
    rng = np.random.default_rng(23)
    worst = 1.0
    for _ in range(200):
        pops = rng.normal(size=4)
        pops -= pops.mean()
        mat = np.diag(pops).astype(complex)
        k, l = rng.choice(4, size=2, replace=False)
        z = (rng.normal() + 1j * rng.normal()) * 0.5
        mat[k, l] += z
        mat[l, k] += np.conj(z)
        rho = mat
        diag, _ = acq.tomo_diagonal(es, rho)
        table = acq.tomo_offdiagonal_2d(es, rho, t1_points=64,
                                        t2_points=128)
        _, fid = acq.reconstruct_density(diag, table, reference=rho)
        worst = min(worst, fid)
    assert worst >= 0.99


def test_zcosy_citrate(citrate_es, citrate_cat):
    cm = acq.zcosy_connectivity(citrate_es, 0.05, citrate_cat)
    assert cm.m.shape == (4, 4)
    assert np.array_equal(cm.m, cm.m.T)
    assert not np.any(np.diag(cm.m))
    assert int(np.sum(cm.m == 0) - 4) == 4   # two parallel pairs, both ways
    es, cat = citrate_es, citrate_cat
    for i, a in enumerate(cm.ids):
        for j, b in enumerate(cm.ids):
            ta, tb = cat.by_id(a), cat.by_id(b)
            shared = {ta.lower, ta.upper} & {tb.lower, tb.upper}
            if i == j:
                continue
            assert (cm.m[i, j] != 0) == (len(shared) == 1)


def test_zcosy_single_spin():
    es = core.eigensystem(core.SpinSystem.create("one", [50.0]))
    cm = acq.zcosy_connectivity(es)
    assert cm.m.shape == (1, 1) and cm.m[0, 0] == 0


def test_zcosy_demo3_unconnected(demo3_es, demo3_cat):
    cm = acq.zcosy_connectivity(demo3_es, 0.05, demo3_cat)
    assert cm.m.shape == (8, 8)
    assert len(cm.unconnected) == 1


def test_zcosy_time_domain_agrees(shifted_citrate_es):
    es = shifted_citrate_es
    cat = core.transition_catalog(es)
    cm = acq.zcosy_connectivity(es, 0.05, cat)
    signs = acq.zcosy_time_domain(es, 10.0, 512, catalog=cat)
    assert np.array_equal(signs, cm.m)


@pytest.mark.parametrize("system", ["demo3", "demo4"])
def test_zcosy_time_domain_shipped(system, request):
    es = request.getfixturevalue(f"{system}_es")
    cat = request.getfixturevalue(f"{system}_cat")
    cm = acq.zcosy_connectivity(es, 0.05, cat)
    signs = acq.zcosy_time_domain(es, 10.0, 1024, catalog=cat)
    ids = [t - 1 for t in cm.ids]
    assert np.array_equal(signs[np.ix_(ids, ids)], cm.m)
    for u in cm.unconnected:
        obs = np.flatnonzero(cat.observable_at(0.05))
        assert not signs[u - 1, obs].any()


def test_zcosy_rejects_a_foreign_catalog(demo3, demo3_es):
    other = core.eigensystem(random_system(np.random.default_rng(3), 3))
    foreign = core.transition_catalog(other)
    with pytest.raises(acq.AcquisitionError, match="not the transition catalog"):
        acq.zcosy_time_domain(demo3_es, 10.0, 256, catalog=foreign)
    with pytest.raises(acq.AcquisitionError, match="not the transition catalog"):
        acq.zcosy_connectivity(demo3_es, 0.05, foreign)
    own = core.transition_catalog(demo3_es)
    # an equal catalog of another object, from an uncached eigensystem
    equal = core.transition_catalog(
        core.diagonalize(core.build_hamiltonian(demo3), demo3))
    want = acq.zcosy_time_domain(demo3_es, 10.0, 256)
    for cat in (own, equal):
        assert np.array_equal(acq.zcosy_time_domain(demo3_es, 10.0, 256,
                                                    catalog=cat), want)
        got = acq.zcosy_connectivity(demo3_es, 0.05, cat)
        ref = acq.zcosy_connectivity(demo3_es, 0.05)
        assert np.array_equal(got.m, ref.m)
        assert (got.ids, got.unconnected) == (ref.ids, ref.unconnected)


def scalar_zcosy_basis(freqs):
    """Reference: 0 Hz, then +f and -f of each line in turn, each kept
    unless within 1e-9 of an entry kept before it."""
    basis = [0.0]
    for f in freqs:
        for s in (f, -f):
            if not any(abs(s - b) < 1e-9 for b in basis):
                basis.append(s)
    return basis


def per_pair_zcosy_signs(es, beta_deg, t1_points, catalog, rel_threshold=0.15):
    """Reference: the Z-COSY sign matrix with every cosine coefficient
    summed by a scalar loop over the basis, one pair at a time."""
    dwell1 = acq.default_tomo_dwell(es)
    ntr = len(catalog)
    freqs = catalog.freq_hz.tolist()
    beta = pl.HardPulse(beta_deg, pl.PhaseSpec(degrees=0.0))
    program = pl.PulseProgram((beta, pl.Delay(symbol="t1"), beta, pl.Grad(), beta))
    t1 = np.arange(t1_points) * dwell1
    rho = pl.execute(program, es, dyn.equilibrium_deviation(es), t1=t1)
    amps = acq.line_amplitudes(es, rho)
    basis = scalar_zcosy_basis(freqs)
    bmat = np.array([np.exp(2j * math.pi * f * t1) for f in basis]).T
    coef, *_ = np.linalg.lstsq(bmat, amps, rcond=None)

    def cosine_coef(i, j):
        c = 0.0 + 0.0j
        for s in (freqs[i], -freqs[i]):
            for kb, fb in enumerate(basis):
                if abs(fb - s) < 1e-9:
                    c += coef[kb, j]
        return c

    diag = [cosine_coef(i, i) for i in range(ntr)]
    ref = max(diag, key=abs)
    quad = abs(ref.imag) > abs(ref.real)
    diag_sign = 1 if (ref.imag if quad else ref.real) > 0 else -1
    signs = np.zeros((ntr, ntr), dtype=int)
    for i in range(ntr):
        for j in range(ntr):
            if i == j:
                continue
            c = cosine_coef(i, j)
            norm = math.sqrt(abs(diag[i]) * abs(diag[j]))
            if norm == 0.0 or abs(c) <= rel_threshold * norm:
                continue
            raw = 1 if (c.imag if quad else c.real) > 0 else -1
            signs[i, j] = -1 if raw == diag_sign else 1
    return signs


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_zcosy_time_domain_matches_per_pair_reference():
    rng = np.random.default_rng(2024)
    systems = [core.eigensystem(random_system(rng, int(rng.integers(2, 5))))
               for _ in range(40)]
    # weak coupling puts one of spin 2's lines at 0 Hz (its basis entry
    # matches both +f and -f) and two of spin 1's at 120 Hz (one entry)
    special = core.eigensystem(core.SpinSystem.create(
        "zero+double", [120.0, 8.0, -47.0],
        [[0, 10, 10], [10, 0, 6], [10, 6, 0]]), weak=True)
    freq = core.transition_catalog(special).freq_hz
    assert np.count_nonzero(np.abs(freq) < 1e-9) == 1
    assert np.count_nonzero(np.abs(freq - 120.0) < 1e-9) == 2
    for es in systems + [special]:
        cat = core.transition_catalog(es)
        want = per_pair_zcosy_signs(es, 10.0, 256, cat)
        assert np.array_equal(acq.zcosy_time_domain(es, 10.0, 256, catalog=cat),
                              want)
    # the 0 Hz line's doubled coefficient shows in which peaks pass a cut
    cat = core.transition_catalog(special)
    for cut in np.geomspace(1e-3, 3.0, 12):
        assert np.array_equal(
            acq.zcosy_time_domain(special, 10.0, 256, catalog=cat,
                                  rel_threshold=cut),
            per_pair_zcosy_signs(special, 10.0, 256, cat, rel_threshold=cut))


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_zcosy_basis_matches_scalar_dedupe(monkeypatch):
    captured = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        captured.append(a)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    rng = np.random.default_rng(7)
    systems = [core.eigensystem(random_system(rng, n)) for n in (2, 3, 4)]
    # a 0 Hz line (+f and -f share one entry) and two lines at 120 Hz
    systems.append(core.eigensystem(core.SpinSystem.create(
        "zero+double", [120.0, 8.0, -47.0],
        [[0, 10, 10], [10, 0, 6], [10, 6, 0]]), weak=True))
    t1_points = 64
    for es in systems:
        cat = core.transition_catalog(es)
        captured.clear()
        acq.zcosy_time_domain(es, 10.0, t1_points, catalog=cat)
        t1 = np.arange(t1_points) * acq.default_tomo_dwell(es)
        basis = scalar_zcosy_basis(cat.freq_hz.tolist())
        want = np.array([np.exp(2j * math.pi * f * t1) for f in basis]).T
        assert len(captured) == 1
        assert np.array_equal(bits(captured[0]), bits(want))
    assert len(basis) < 2 * len(cat) + 1       # the last system dropped some


def test_dataset2d_exports(citrate_es):
    prog = pl.parse_program("delay t1\npulse 90 y\ngrad\npulse 45 -y\n"
                            "acquire 16 0.002\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=8, dwell1=0.002)
    text = ds.to_text()
    assert text.startswith("t1_points 8\nt2_points 16\n")
    grid = ds.to_gnuplot_grid()
    assert "\n\n" in grid

    # the 90-grad pair leaves no population difference from equilibrium;
    # a 45-degree pulse first gives t1-modulated signal
    prog = pl.parse_program("pulse 45 x\ndelay t1\npulse 90 y\ngrad\n"
                            "pulse 45 -y\nacquire 16 0.002\n")
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=8, dwell1=0.002)
    text = ds.to_text()
    lines = text.splitlines()
    assert lines[:2] == ["t1_points 8", "t2_points 16"]
    assert lines[2:4] == ["dwell1 0.002", "dwell2 0.002"]
    assert text.endswith("\n")
    # one row-major `i j re im` row per element at or above the cut
    rows = [ln.split() for ln in lines[4:]]
    kept = np.hypot(ds.data.real, ds.data.imag) >= 1e-14
    assert len(rows) == np.count_nonzero(kept) > 0
    ij = [(int(i) - 1, int(j) - 1) for i, j, _, _ in rows]
    assert ij == sorted(ij) == list(zip(*np.nonzero(kept)))
    back = np.array([complex(float(re_), float(im_)) for _, _, re_, im_ in rows])
    assert np.allclose(back, ds.data[kept], rtol=1e-11, atol=0)

    grid = ds.to_gnuplot_grid()
    assert grid.endswith("\n") and not grid.endswith("\n\n")
    blocks = grid[:-1].split("\n\n")
    assert len(blocks) == 8
    f1 = np.fft.fftshift(np.fft.fftfreq(8, 0.002))
    f2 = np.fft.fftshift(np.fft.fftfreq(16, 0.002))
    spec = np.fft.fftshift(np.fft.fft2(ds.data))
    peak = np.abs(spec).max()
    for i, block in enumerate(blocks):
        vals = np.array([[float(v) for v in ln.split()]
                         for ln in block.split("\n")])
        assert vals.shape == (16, 3)
        assert np.allclose(vals[:, 0], f1[i], rtol=1e-11, atol=0)
        assert np.allclose(vals[:, 1], f2, rtol=1e-11, atol=0)
        assert np.allclose(vals[:, 2], np.abs(spec[i]), rtol=1e-11,
                           atol=1e-11 * peak)


@st.composite
def spin_system(draw, sizes):
    """The eigensystem of a random oriented system of one of ``sizes`` spins."""
    n = draw(st.sampled_from(sizes))
    offs = [draw(st.floats(-300, 300)) for _ in range(n)]
    j = np.zeros((n, n))
    d = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = draw(st.floats(0, 15))
            d[i, k] = d[k, i] = draw(st.floats(-200, 200))
    return core.eigensystem(core.SpinSystem.create("h", offs, j, d))


@st.composite
def stacked_case(draw):
    """A random n = 1..3 system, Hermitian state and 2D program."""
    es = draw(spin_system((1, 2, 3)))
    cat = core.transition_catalog(es)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(es.dim, es.dim)) + 1j * rng.normal(size=(es.dim, es.dim))
    rho0 = (a + a.conj().T) / 2

    rows = draw(st.sampled_from([0, 2, 3, 4]))
    fixed = ["x", "y", "-x", "-y", "deg:33.5"]
    phases = fixed + (["$P"] if rows else [])
    angle = st.floats(-360, 360).map(lambda v: f"{v:.6f}")
    ins = st.one_of(
        st.builds(lambda tid, ang, ph: f"selpulse t{tid} {ang} {ph}",
                  st.integers(1, len(cat)), angle, st.sampled_from(phases)),
        st.builds(lambda ang, ph: f"pulse {ang} {ph}", angle, st.sampled_from(phases)),
        st.just("grad"),
        st.floats(0, 0.01).map(lambda v: f"delay {v:.6g}"))
    lines = draw(st.lists(ins, max_size=6))
    lines.insert(draw(st.integers(0, len(lines))), "delay t1")
    if rows:
        cycle = ["cycle P"] + [
            f"row {draw(st.sampled_from(fixed))} {draw(st.sampled_from('+-'))}"
            for _ in range(rows)]
        lines = cycle + lines
    text = "\n".join(lines + ["acquire 16 0.001"]) + "\n"
    return es, cat, rho0, pl.parse_program(text), draw(st.integers(1, 8)), \
        draw(st.floats(1e-4, 1e-2))


@settings(max_examples=60, deadline=None)
@given(stacked_case())
def test_run_2d_stack_matches_row_by_row(case):
    es, cat, rho0, program, t1_points, dwell1 = case
    ds = acq.run_2d(program, es, rho0, t1_points, dwell1)
    prefix = pl.PulseProgram(program.instructions[:-1], program.cycle)
    fplus = es.lowering_operator().conj().T
    t2 = np.arange(16) * 0.001
    for m in range(t1_points):
        rho = pl.execute(prefix, es, rho0, t1=m * dwell1)
        ref = acq.acquire_fid(es, rho, 16, 0.001)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(ds.data[m] - ref).max() <= 1e-12 * scale
        # the definition: Tr(rho(t2) F+) under free evolution
        dense = np.einsum("tkl,lk->t", dyn.free_evolution(es, rho, t2), fplus)
        assert np.abs(dense - ref).max() <= 1e-12 * scale


def test_run_2d_without_t1_repeats_the_fid(citrate_es):
    prog = pl.parse_program("pulse 90 y\nacquire 16 0.002\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=4, dwell1=0.002)
    prefix = pl.PulseProgram(prog.instructions[:-1])
    fid = acq.acquire_fid(citrate_es, pl.execute(prefix, citrate_es, rho),
                          16, 0.002)
    assert ds.data.shape == (4, 16)
    assert all(np.array_equal(row, fid) for row in ds.data)


def test_run_2d_rejects_a_stack_of_initial_states(citrate_es):
    prog = pl.parse_program("pulse 90 y\nacquire 8 0.001\n")
    rho = np.stack([dyn.equilibrium_deviation(citrate_es)] * 3)
    with pytest.raises(acq.AcquisitionError,
                       match=r"^a 2D run starts from one 4 x 4 state, "
                             r"got shape \(3, 4, 4\)$"):
        acq.run_2d(prog, citrate_es, rho, t1_points=4, dwell1=0.002)


# ---------------------------------------------------------------------------
# acquire_fid: the per-level phases against the dense definition, and the
# line table of small systems against the formula it has always used

def table_fid(es, rho, points, dwell):
    """The K x points table FID: one exponential per line and point."""
    fplus = es.lowering_operator().conj().T
    w = rho * fplus.T
    k, l = np.nonzero((np.abs(w) > 1e-16).reshape(-1, es.dim, es.dim).any(axis=0))
    if k.size == 0:
        return np.zeros(w.shape[:-2] + (points,), dtype=complex)
    freqs = (es.energies[l] - es.energies[k]) / (2 * math.pi)
    t = np.arange(points) * dwell
    return w[..., k, l] @ np.exp(2j * math.pi * freqs[:, None] * t)


def dense_fid(es, rho, points, dwell):
    """Tr(rho(t) F+), rho propagated element by element in the eigenbasis,
    F+ built from Kronecker products and rotated into it."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    fplus = np.zeros((es.dim, es.dim), dtype=complex)
    for i in range(es.n):
        op = np.eye(1, dtype=complex)
        for m in range(es.n):
            op = np.kron(op, sp if m == i else np.eye(2))
        fplus += op
    fplus = es.vectors.conj().T @ fplus @ es.vectors
    gap = es.energies[:, None] - es.energies[None, :]
    out = np.empty(rho.shape[:-2] + (points,), dtype=complex)
    for m in range(points):
        rho_t = rho * np.exp(-1j * gap * (m * dwell))
        out[..., m] = np.einsum("...kl,lk->...", rho_t, fplus)
    return out


def random_states(es, rows, seed):
    """Random Hermitian states: one d x d state when rows is 0, else a
    stack of that many."""
    rng = np.random.default_rng(seed)
    shape = (max(rows, 1), es.dim, es.dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mat = (a + a.conj().transpose(0, 2, 1)) / 2
    return mat if rows else mat[0]


def factored(es, rho):
    """Whether acquire_fid takes the per-level phases for rho."""
    fplus = es.lowering_operator().conj().T
    w = (rho * fplus.T).reshape(-1, es.dim, es.dim)
    lines = np.count_nonzero((np.abs(w) > 1e-16).any(axis=0))
    return lines >= acq._FACTORED_LINES * w.shape[0] * es.dim


def assert_matches_dense(es, rho, points, dwell):
    ref = dense_fid(es, rho, points, dwell)
    fid = acq.acquire_fid(es, rho, points, dwell)
    assert fid.shape == ref.shape
    assert np.abs(fid - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=25, deadline=None)
@given(spin_system((5, 6)), st.sampled_from([0, 1, 2, 3, 8]),
       st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 1e-3))
def test_acquire_fid_matches_dense_5_6_spins(es, rows, seed, dwell):
    assert_matches_dense(es, random_states(es, rows, seed), 64, dwell)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("rows", [0, 3, 16])
def test_acquire_fid_matches_dense_8_spins(rows):
    from spinsim.acceptance import random_system
    es = core.eigensystem(random_system(np.random.default_rng(8), 8))
    rho = random_states(es, rows, rows)
    # a single state and 3 rows on the phases, 16 rows on the table
    assert factored(es, rho) == (rows < 16)
    assert_matches_dense(es, rho, 64, 2e-4)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_acquire_fid_paths_cover_both_sides():
    rng = np.random.default_rng(5)
    from spinsim.acceptance import random_system
    es = core.eigensystem(random_system(rng, 5))
    assert factored(es, random_states(es, 0, 1))
    assert not factored(es, random_states(es, 2, 1))
    for rows in (0, 1, 2):
        assert_matches_dense(es, random_states(es, rows, rows), 256, 3e-4)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=60, deadline=None)
@given(spin_system((1, 2, 3, 4)), st.sampled_from([0, 1, 2, 5, 64]),
       st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 1e-2))
def test_acquire_fid_small_systems_keep_the_table(es, rows, seed, dwell):
    rho = random_states(es, rows, seed)
    assert not factored(es, rho)
    assert np.array_equal(acq.acquire_fid(es, rho, 32, dwell),
                          table_fid(es, rho, 32, dwell))


@pytest.mark.parametrize("system", ["citrate_es", "compound1_es", "demo3_es",
                                    "demo4_es"])
def test_acquire_fid_shipped_systems_keep_the_table(system, request):
    es = request.getfixturevalue(system)
    prefix = pl.parse_program("pulse 90 y\n")
    pulsed = pl.execute(prefix, es, dyn.equilibrium_deviation(es))
    for rho in (pulsed, random_states(es, 0, 3), random_states(es, 7, 4)):
        assert np.array_equal(acq.acquire_fid(es, rho, 1024, 2e-4),
                              table_fid(es, rho, 1024, 2e-4))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_acquire_fid_table_memory_is_bounded():
    import tracemalloc
    es = core.eigensystem(random_system(np.random.default_rng(8), 8))
    rho = random_states(es, 12, 12)
    # 12 states, all 11440 lines: below the factored threshold
    assert not factored(es, rho)
    es.lowering_operator()
    tracemalloc.start()
    try:
        fid = acq.acquire_fid(es, rho, 1024, 2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 11440 x 1024 table alone is 187 MB; 64-point slices 12 MB
    assert fid.shape == (12, 1024)
    assert peak < 64e6


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("n, rows, points", [(5, 2, 1024), (6, 5, 512),
                                             (8, 12, 256)])
def test_acquire_fid_slices_match_the_whole_table(n, rows, points):
    es = core.eigensystem(random_system(np.random.default_rng(n), n))
    rho = random_states(es, rows, n)
    lines = np.count_nonzero((np.abs(rho * es.lowering_operator()) > 1e-16)
                             .any(axis=0))
    # 256-, 64- and 64-point slices
    assert not factored(es, rho) and lines * points > acq._TABLE_ENTRIES
    assert np.array_equal(bits(acq.acquire_fid(es, rho, points, 2e-4)),
                          bits(table_fid(es, rho, points, 2e-4)))


def assert_lines_match_scalar_loops(es, rho, stack):
    """The column code against the per-line loops it replaced: one numpy
    scalar product per line (array times scalar for a stack), and the stick
    spectrum sorted as (freq, amplitude, tid) tuples."""
    cat = core.transition_catalog(es)
    fplus = es.lowering_operator().conj().T
    ref = [stack[..., t.upper, t.lower] * fplus[t.lower, t.upper]
           for t in records(cat)]
    assert np.array_equal(bits(acq.line_amplitudes(es, stack)),
                          bits(np.stack(ref, axis=-1)))
    ref = [rho[t.upper, t.lower] * fplus[t.lower, t.upper]
           for t in records(cat)]
    assert np.array_equal(bits(acq.line_amplitudes(es, rho)),
                          bits(np.array(ref)))

    rho = dyn.crush_gradient(rho)
    pops = np.real(np.diag(rho))
    s = math.sin(math.radians(10.0))
    lines = [(t.freq_hz, s * (pops[t.lower] - pops[t.upper]) * t.intensity,
              t.tid) for t in records(cat)]
    spec = acq.detect_small_angle(es, rho, 10.0)
    assert np.array_equal(bits(spec.amplitude),
                          bits(np.array([a for _, a, _ in lines])))
    rows = sorted(lines, key=lambda r: (r[0], r[2]))
    assert spec.to_csv() == "\n".join(f"{f:.12g},{a:.12g}"
                                      for f, a, _ in rows) + "\n"


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=40, deadline=None)
@given(spin_system((1, 2, 3, 4, 5)), st.integers(0, 2 ** 32 - 1))
def test_line_columns_match_scalar_loops(es, seed):
    assert_lines_match_scalar_loops(es, random_states(es, 0, seed),
                                    random_states(es, 5, seed + 1))


@pytest.mark.parametrize("system", ["citrate_es", "compound1_es", "demo3_es",
                                    "demo4_es"])
def test_line_columns_match_scalar_loops_shipped(system, request):
    es = request.getfixturevalue(system)
    rho = dyn.apply_unitary(dyn.equilibrium_deviation(es),
                            dyn.hard_pulse_unitary(es, 90.0, 90.0))
    assert_lines_match_scalar_loops(
        es, rho, dyn.free_evolution(es, rho, np.arange(8) * 1e-3))
