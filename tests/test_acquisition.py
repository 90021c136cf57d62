import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import acquisition as acq, core, dynamics as dyn
from spinsim import protocols as pr
from spinsim import pulselang as pl


@pytest.fixture(scope="module")
def shifted_citrate_es():
    # carrier off center so multiple-quantum omega_1 peaks avoid the axial
    # ridge and no two lines sit at exactly opposite frequencies
    sys_ = core.SpinSystem.create("citrate+40", [67.75, 12.25],
                                  [[0, 15], [15, 0]])
    return core.eigensystem(sys_)


def test_equilibrium_stick_spectrum(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    spec = acq.detect_small_angle(citrate_es, rho, 10.0, citrate_cat)
    assert len(spec.lines) == 4
    assert all(a > 0 for _, a, _ in spec.lines)


def test_pps_stick_spectrum(citrate_es, citrate_cat):
    rep = pr.pseudopure_2spin(citrate_es, "00", citrate_cat)
    spec = acq.detect_small_angle(citrate_es, rep.final_state, 10.0,
                                  citrate_cat)
    touching = {t.tid for t in citrate_cat.entries
                if "00" in (citrate_es.labels[t.lower],
                            citrate_es.labels[t.upper])}
    amps = {tid: a for _, a, tid in spec.lines}
    live = {tid for tid, a in amps.items() if abs(a) > 1e-12}
    assert live == touching
    vals = [amps[t] / citrate_cat.by_id(t).intensity for t in touching]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_saturated_state_is_silent(citrate_es, citrate_cat):
    rho = dyn.DeviationDensityMatrix(np.zeros((4, 4), dtype=complex),
                                     citrate_es)
    spec = acq.detect_small_angle(citrate_es, rho, 10.0, citrate_cat)
    assert all(a == 0 for _, a, _ in spec.lines)


def test_stick_total_invariant_under_relabeling(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    total = sum(a for _, a, _ in acq.detect_small_angle(
        citrate_es, rho, 10.0, citrate_cat).lines)
    es2 = citrate_es.with_swapped_labels("01", "10")
    cat2 = core.transition_catalog(es2)
    total2 = sum(a for _, a, _ in acq.detect_small_angle(
        es2, dyn.equilibrium_deviation(es2), 10.0, cat2).lines)
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
    rho = dyn.DeviationDensityMatrix(mat, es)
    points, dwell = 1024, 1e-3
    fid = acq.acquire_fid(es, rho, points, dwell)
    freqs, spec = acq.fft_spectrum(fid, dwell)
    peak = freqs[int(np.argmax(np.abs(spec)))]
    assert abs(peak - t.freq_hz) <= 1.0 / (points * dwell)


def test_parseval(citrate_es, citrate_cat):
    es = citrate_es
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = dyn.DeviationDensityMatrix((a + a.conj().T) / 2, es)
    fid = acq.acquire_fid(es, rho, 512, 1e-3)
    _, spec = acq.fft_spectrum(fid, 1e-3)
    et = np.sum(np.abs(fid) ** 2)
    ef = np.sum(np.abs(spec) ** 2) / 512
    assert abs(et - ef) <= 1e-10 * max(1.0, et)


def test_tomo_diagonal_equilibrium_roundtrip(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    sol, under = acq.tomo_diagonal(citrate_es, rho, catalog=citrate_cat)
    assert not under
    assert np.abs(sol - rho.populations()).max() <= 1e-10


def test_tomo_diagonal_epr(citrate_es, citrate_cat):
    rho = dyn.DeviationDensityMatrix(pr.epr_pure_projector(citrate_es),
                                     citrate_es)
    sol, under = acq.tomo_diagonal(citrate_es, rho, catalog=citrate_cat)
    # solution carries the trace-free gauge; compare centered references
    ref = np.real(np.diag(rho.mat))
    ref = ref - ref.mean()
    assert np.abs(sol - ref).max() <= 1e-10


def test_tomo_diagonal_zero_state(citrate_es, citrate_cat):
    rho = dyn.DeviationDensityMatrix(np.zeros((4, 4), dtype=complex),
                                     citrate_es)
    sol, _ = acq.tomo_diagonal(citrate_es, rho, catalog=citrate_cat)
    assert np.abs(sol).max() <= 1e-12


def test_tomo_diagonal_underdetermined_flag():
    # exactly equivalent spins 2,3: cross-sector transitions carry zero
    # intensity and the observable graph no longer connects all levels
    sys_ = core.SpinSystem.create(
        "a2b", [200.0, -100.0, -100.0],
        [[0, 6, 6], [6, 0, 6], [6, 6, 0]],
        [[0, -30, -30], [-30, 0, -180], [-30, -180, 0]])
    es = core.eigensystem(sys_)
    cat = core.transition_catalog(es)
    rho = dyn.equilibrium_deviation(es)
    with pytest.warns(UserWarning, match="underdetermined"):
        _, under = acq.tomo_diagonal(es, rho, catalog=cat)
    assert under


def test_tomo_offdiagonal_epr(shifted_citrate_es):
    es = shifted_citrate_es
    cat = core.transition_catalog(es)
    rho = pr.epr_create(es, cat).final_state
    dataset, table = acq.tomo_offdiagonal_2d(es, rho, t1_points=128,
                                             t2_points=256, catalog=cat)
    i00, i11 = es.index_of_label("00"), es.index_of_label("11")
    top = max(table.rows, key=lambda r: r.magnitude)
    assert {top.k, top.l} == {i00, i11}
    assert abs(top.order) == 2
    assert top.magnitude == pytest.approx(2 / 3, abs=1e-6)
    others = [r.magnitude for r in table.rows if {r.k, r.l} != {i00, i11}]
    assert max(others) <= 1e-6
    # the dominant non-axial omega_1 peak sits at the DQ frequency
    f_dq = (es.energies[i11] - es.energies[i00]) / (2 * math.pi)
    bin1 = 1.0 / (128 * dataset.dwell1)
    peaks = [p for p in acq.peak_pick_2d(dataset) if abs(p[0]) > bin1]
    assert peaks
    assert abs(abs(peaks[0][0]) - abs(f_dq)) <= bin1


def test_tomo_offdiagonal_diagonal_state(citrate_es, citrate_cat):
    # a diagonal state has no evolving coherence; with ideal pulses even
    # the axial response vanishes, so nothing rises above numerical noise
    rho = dyn.equilibrium_deviation(citrate_es)
    dataset, table = acq.tomo_offdiagonal_2d(
        citrate_es, rho, t1_points=64, t2_points=128, catalog=citrate_cat)
    assert max(r.magnitude for r in table.rows) <= 1e-8
    bin1 = 1.0 / (64 * dataset.dwell1)
    for f1, _, mag in acq.peak_pick_2d(dataset):
        assert mag <= 1e-10 or abs(f1) <= bin1


def test_tomo_folding_guard(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(acq.AcquisitionError, match="dwell1 must be at most"):
        acq.tomo_offdiagonal_2d(citrate_es, rho, t1_points=32, t2_points=64,
                                dwell1=1.0, catalog=citrate_cat)


def test_coherence_order_assignment(shifted_citrate_es):
    es = shifted_citrate_es
    cat = core.transition_catalog(es)
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(4))
        l = int(rng.integers(4))
        if k == l:
            continue
        mat = np.zeros((4, 4), dtype=complex)
        mat[k, l] = 0.7
        mat[l, k] = 0.7
        rho = dyn.DeviationDensityMatrix(mat, es)
        dataset, _ = acq.tomo_offdiagonal_2d(es, rho, t1_points=128,
                                             t2_points=256, catalog=cat)
        bin1 = 1.0 / (128 * dataset.dwell1)
        peaks = [p for p in acq.peak_pick_2d(dataset) if abs(p[0]) > bin1]
        if not peaks:      # tiny transfer amplitude for this element
            continue
        _, _, order = acq.assign_order_from_f1(es, peaks[0][0])
        assert abs(order) == abs(int(round(es.mz[k] - es.mz[l])))


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
    lines = cat.entries
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
                    if abs(w) < 1e-14:
                        continue
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


@pytest.mark.parametrize("system, t1_points, t2_points", [
    ("citrate", 64, 32), ("demo3", 32, 16), ("demo4", 16, 8)])
def test_tomo_design_matrix_matches_scalar_loop(system, t1_points, t2_points,
                                                request, monkeypatch):
    es = request.getfixturevalue(f"{system}_es")
    cat = core.transition_catalog(es)
    captured = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        captured.append((a, b))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    # the model uses the default dwells as computed, not dataset.dwell2,
    # which the acquire line rounds to 12 digits
    dwell = acq.default_tomo_dwell(es)
    a_ref, bins = _reference_design(es, cat, t1_points, t2_points, dwell, dwell)
    rng = np.random.default_rng(es.dim)
    for _ in range(2):
        a = rng.normal(size=(es.dim, es.dim)) + 1j * rng.normal(size=(es.dim, es.dim))
        rho = dyn.DeviationDensityMatrix((a + a.conj().T) / 2, es)
        captured.clear()
        dataset, _ = acq.tomo_offdiagonal_2d(es, rho, t1_points=t1_points,
                                             t2_points=t2_points, catalog=cat)
        b_ref = np.fft.fft2(dataset.data)[bins]
        assert len(captured) == 1
        a_new, b_new = captured[0]
        assert np.array_equal(a_new, a_ref)
        assert np.array_equal(b_new, np.concatenate([b_ref.real, b_ref.imag]))


@pytest.mark.parametrize("build", [pr.c2swap_4spin, pr.c3not_4spin])
def test_tomo_4spin_gate_outputs_roundtrip(build, demo4_es, demo4_cat):
    es, cat = demo4_es, demo4_cat
    rho = build(es, cat).final_state
    diag, _ = acq.tomo_diagonal(es, rho, catalog=cat)
    _, table = acq.tomo_offdiagonal_2d(es, rho, t1_points=32, t2_points=16,
                                       catalog=cat)
    _, fidelity = acq.reconstruct_density(es, diag, table, reference=rho)
    assert fidelity >= 0.999999


def test_scale_calibration_epr(citrate_es, citrate_cat):
    rho = pr.epr_create(citrate_es, citrate_cat).final_state
    cal = acq.tomo_scale_calibration(citrate_es, rho, citrate_cat)
    assert cal.ratio <= 1e-10
    assert cal.scale == 1.0


def test_scale_calibration_detects_dq_error(citrate_es, citrate_cat):
    es = citrate_es
    rho = pr.epr_create(es, citrate_cat).final_state.copy()
    i00, i11 = es.index_of_label("00"), es.index_of_label("11")
    rho.mat[i00, i11] *= 0.5
    rho.mat[i11, i00] *= 0.5
    cal = acq.tomo_scale_calibration(es, rho, citrate_cat)
    assert cal.ratio > 0.05


def test_scale_calibration_diagonal_state(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    cal = acq.tomo_scale_calibration(citrate_es, rho, citrate_cat)
    n3 = math.sqrt(sum(abs(v) ** 2 for v in cal.amp_iii.values()))
    n4 = math.sqrt(sum(abs(v) ** 2 for v in cal.amp_iv.values()))
    assert n3 == pytest.approx(n4, rel=1e-9)


def test_reconstruct_zero_coherences(citrate_es):
    diag = np.array([0.5, 0.1, -0.2, -0.4])
    rho, fid = acq.reconstruct_density(citrate_es, diag,
                                       acq.CoherenceTable(rows=()))
    assert np.allclose(rho.mat, np.diag(diag))
    assert fid is None


def test_reconstruct_random_states_roundtrip(shifted_citrate_es):
    # diagonal plus one random coherence, 200 cases
    es = shifted_citrate_es
    cat = core.transition_catalog(es)
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
        rho = dyn.DeviationDensityMatrix(mat, es)
        diag, _ = acq.tomo_diagonal(es, rho, catalog=cat)
        _, table = acq.tomo_offdiagonal_2d(es, rho, t1_points=64,
                                           t2_points=128, catalog=cat)
        _, fid = acq.reconstruct_density(es, diag, table, 1.0, reference=rho)
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
        obs = [t.tid - 1 for t in cat.observable_entries()]
        assert not signs[u - 1, obs].any()


def test_dataset2d_exports(citrate_es, citrate_cat):
    prog = pl.parse_program("delay t1\npulse 90 y\ngrad\npulse 45 -y\n"
                            "acquire 16 0.002\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=8, dwell1=0.002,
                    catalog=citrate_cat)
    text = ds.to_text()
    assert text.startswith("t1_points 8\nt2_points 16\n")
    grid = ds.to_gnuplot_grid()
    assert "\n\n" in grid

    # the 90-grad pair leaves no population difference from equilibrium;
    # a 45-degree pulse first gives t1-modulated signal
    prog = pl.parse_program("pulse 45 x\ndelay t1\npulse 90 y\ngrad\n"
                            "pulse 45 -y\nacquire 16 0.002\n")
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=8, dwell1=0.002,
                    catalog=citrate_cat)
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
    f1, f2, spec = ds.fft2()
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
def stacked_case(draw):
    """A random n = 1..3 system, Hermitian state and 2D program."""
    n = draw(st.integers(1, 3))
    offs = [draw(st.floats(-300, 300)) for _ in range(n)]
    j = np.zeros((n, n))
    d = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = draw(st.floats(0, 15))
            d[i, k] = d[k, i] = draw(st.floats(-200, 200))
    es = core.eigensystem(core.SpinSystem.create("h", offs, j, d))
    cat = core.transition_catalog(es)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(es.dim, es.dim)) + 1j * rng.normal(size=(es.dim, es.dim))
    rho0 = dyn.DeviationDensityMatrix((a + a.conj().T) / 2, es)

    rows = draw(st.sampled_from([0, 2, 3, 4]))
    fixed = ["x", "y", "-x", "-y", "deg:33.5"]
    phases = fixed + (["$P"] if rows else [])
    angle = st.floats(-360, 360).map(lambda v: f"{v:.6f}")
    ins = st.one_of(
        st.builds(lambda tid, ang, ph: f"selpulse t{tid} {ang} {ph}",
                  st.integers(1, len(cat.entries)), angle, st.sampled_from(phases)),
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
    ds = acq.run_2d(program, es, rho0, t1_points, dwell1, cat)
    prefix = pl.PulseProgram(program.instructions[:-1], program.cycle)
    fplus = es.lowering_operator().conj().T
    t2 = np.arange(16) * 0.001
    for m in range(t1_points):
        rho = pl.execute_cycled(prefix, es, rho0, cat, t1=m * dwell1)
        ref = acq.acquire_fid(es, rho, 16, 0.001)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(ds.data[m] - ref).max() <= 1e-12 * scale
        # the definition: Tr(rho(t2) F+) under free evolution
        dense = np.einsum("tkl,lk->t", dyn.free_evolution(es, rho, t2).mat, fplus)
        assert np.abs(dense - ref).max() <= 1e-12 * scale


def test_run_2d_without_t1_repeats_the_fid(citrate_es, citrate_cat):
    prog = pl.parse_program("pulse 90 y\nacquire 16 0.002\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    ds = acq.run_2d(prog, citrate_es, rho, t1_points=4, dwell1=0.002,
                    catalog=citrate_cat)
    prefix = pl.PulseProgram(prog.instructions[:-1])
    fid = acq.acquire_fid(citrate_es, pl.execute(prefix, citrate_es, rho,
                                                 citrate_cat), 16, 0.002)
    assert ds.data.shape == (4, 16)
    assert all(np.array_equal(row, fid) for row in ds.data)
