import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import core
from spinsim import dynamics as dyn


def random_system_strategy(nmax=4, oriented=True):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, nmax))
        offs = [draw(st.floats(-300, 300)) for _ in range(n)]
        j = np.zeros((n, n))
        d = np.zeros((n, n))
        for i in range(n):
            for k in range(i + 1, n):
                j[i, k] = j[k, i] = draw(st.floats(0, 15))
                if oriented:
                    d[i, k] = d[k, i] = draw(st.floats(-200, 200))
        return core.SpinSystem.create("h", offs, j, d)
    return build()


def test_single_spin_hamiltonian():
    sys1 = core.SpinSystem.create("one", [100.0])
    h = core.build_hamiltonian(sys1)
    assert np.allclose(np.diag(h), [math.pi * 100, -math.pi * 100])
    assert np.allclose(h, np.diag(np.diag(h)))


def test_hamiltonian_traceless_hermitian(citrate):
    h = core.build_hamiltonian(citrate)
    assert abs(np.trace(h)) == 0.0
    assert np.array_equal(h, h.conj().T)


@settings(max_examples=40, deadline=None)
@given(random_system_strategy())
def test_hamiltonian_commutes_with_fz(sys_):
    h = core.build_hamiltonian(sys_)
    fz = total_operator(sys_.n, "z")
    comm = h @ fz - fz @ h
    hnorm = np.linalg.norm(h)
    assert np.linalg.norm(comm) <= 1e-12 * max(1.0, hnorm)


@settings(max_examples=40, deadline=None)
@given(random_system_strategy())
def test_weak_and_full_agree_on_diagonal(sys_):
    hw = core.build_hamiltonian(sys_, weak=True)
    hf = core.build_hamiltonian(sys_, weak=False)
    assert np.allclose(np.diag(hw), np.diag(hf), atol=1e-10)


def test_mixing_angle_citrate(citrate):
    assert core.mixing_angle_ab(citrate) == pytest.approx(7.6, abs=0.05)


def test_mixing_angle_limits():
    weak = core.SpinSystem.create("w", [1e6, -1e6], [[0, 15], [15, 0]])
    assert abs(core.mixing_angle_ab(weak)) < 1e-3
    equal = core.SpinSystem.create("e", [27.75, -27.75],
                                   [[0, 55.5], [55.5, 0]])
    assert core.mixing_angle_ab(equal) == pytest.approx(22.5, abs=1e-9)
    sym = core.SpinSystem.create("s", [0.0, 0.0], [[0, 15], [15, 0]])
    assert core.mixing_angle_ab(sym) == pytest.approx(45.0, abs=1e-9)


def test_mixing_angle_needs_two_spins():
    sys3 = core.SpinSystem.create("three", [1.0, 2.0, 3.0])
    with pytest.raises(core.SpinSystemError):
        core.mixing_angle_ab(sys3)


def test_weak_mode_gives_product_basis(citrate):
    es = core.eigensystem(citrate, weak=True)
    # every eigenvector must be a single product state (columns permute
    # the identity)
    mags = np.abs(es.vectors)
    assert np.allclose(mags.max(axis=0), 1.0, atol=1e-12)
    assert np.allclose(mags.sum(axis=0), 1.0, atol=1e-12)
    assert set(es.labels) == {"00", "01", "10", "11"}


def test_citrate_mixing_vectors(citrate, citrate_es):
    theta = math.radians(core.mixing_angle_ab(citrate))
    es = citrate_es
    v01 = es.vectors[:, es.index_of_label("01")]
    v10 = es.vectors[:, es.index_of_label("10")]
    # product order: 00, 01, 10, 11
    assert v01[1] == pytest.approx(math.cos(theta), abs=1e-9)
    assert v01[2] == pytest.approx(math.sin(theta), abs=1e-9)
    assert v10[1] == pytest.approx(-math.sin(theta), abs=1e-9)
    assert v10[2] == pytest.approx(math.cos(theta), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(random_system_strategy())
def test_eigensystem_invariants(sys_):
    h = core.build_hamiltonian(sys_)
    es = core.diagonalize(h, sys_)
    v = es.vectors
    assert np.abs(v @ v.conj().T - np.eye(es.dim)).max() <= 1e-12
    hnorm = np.linalg.norm(h)
    for k in range(es.dim):
        res = np.linalg.norm(h @ v[:, k] - es.energies[k] * v[:, k])
        assert res <= 1e-10 * max(1.0, hnorm)
    assert abs(es.energies.sum()) <= 1e-9 * max(1.0, hnorm)
    assert sorted(es.labels) == sorted(
        core.label_of_index(k, sys_.n) for k in range(es.dim))
    # manifold support: each eigenvector lives in one M_z manifold
    pmz = core.product_mz(sys_.n)
    for k in range(es.dim):
        outside = v[pmz != es.mz[k], k]
        assert np.abs(outside).max() <= 1e-10 if outside.size else True
    # energies ascend within each manifold
    for m in set(es.mz.tolist()):
        block = es.energies[es.mz == m]
        assert np.all(np.diff(block) >= -1e-12)


def test_three_spin_manifold_sizes():
    rng = np.random.default_rng(5)
    offs = rng.uniform(-200, 200, 3)
    d = np.zeros((3, 3))
    for i in range(3):
        for k in range(i + 1, 3):
            d[i, k] = d[k, i] = rng.uniform(-150, 150)
    sys_ = core.SpinSystem.create("r3", offs, d_hz=d)
    es = core.eigensystem(sys_)
    sizes = [int(np.sum(es.mz == m)) for m in (1.5, 0.5, -0.5, -1.5)]
    assert sizes == [1, 3, 3, 1]


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 15), (4, 56),
                                     (5, 210)])
def test_sq_transition_count(n, count):
    assert core.sq_transition_count(n) == count


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_catalog_size_matches_formula(n):
    rng = np.random.default_rng(n)
    offs = rng.uniform(-200, 200, n)
    j = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = rng.uniform(1, 10)
    es = core.eigensystem(core.SpinSystem.create("r", offs, j))
    cat = core.transition_catalog(es)
    brute = sum(1 for a in range(es.dim) for b in range(es.dim)
                if es.mz[a] - es.mz[b] == 1)
    assert len(cat) == core.sq_transition_count(n) == brute


def test_catalog_citrate(citrate_es, citrate_cat):
    cat = citrate_cat
    assert len(cat) == 4
    # descending intensity, ties by ascending frequency
    intens = cat.intensity.tolist()
    assert intens == sorted(intens, reverse=True)
    assert cat.freq_hz[0] < cat.freq_hz[1]
    # inner lines are the strong pair for an AB system
    assert cat.intensity[0] == pytest.approx(cat.intensity[1], abs=1e-12)


def test_weakly_coupled_equal_intensities():
    sys_ = core.SpinSystem.create("w", [500.0, -500.0], [[0, 2], [2, 0]])
    es = core.eigensystem(sys_, weak=True)
    cat = core.transition_catalog(es)
    assert np.ptp(cat.intensity) <= 1e-10


def test_intensity_equalization_rate():
    # the four AB intensities approach equality at first order in J/dv
    spreads = []
    for ratio in (10.0, 100.0):
        dv = 15.0 * ratio
        sys_ = core.SpinSystem.create("ab", [dv / 2, -dv / 2],
                                      [[0, 15.0], [15.0, 0]])
        cat = core.transition_catalog(core.eigensystem(sys_))
        spread = np.ptp(cat.intensity) / np.mean(cat.intensity)
        assert spread <= 2.5 / ratio
        spreads.append(spread)
    assert spreads[1] <= spreads[0] / 5


def test_offset_shift_moves_frequencies(citrate, citrate_es, citrate_cat):
    shift = 37.0
    moved = core.SpinSystem.create(
        "c+", citrate.offset_hz + shift, citrate.j_hz, citrate.d_hz)
    cat2 = core.transition_catalog(core.eigensystem(moved))
    es = citrate_es
    es2 = core.eigensystem(moved)
    for lo, up, freq in zip(citrate_cat.lower, citrate_cat.upper,
                            citrate_cat.freq_hz):
        moved_line = cat2.by_labels(es2, es.labels[lo], es.labels[up])
        assert moved_line.freq_hz == pytest.approx(freq + shift, abs=1e-9)


def test_threshold_flags(demo3_es):
    cat = core.transition_catalog(demo3_es)
    assert np.count_nonzero(cat.observable_at(0.05)) == 9
    assert cat.observable_at(0.0).all()
    # no column or field reads as a threshold-free flag
    assert not hasattr(cat, "observable")
    assert not hasattr(cat.by_id(1), "observable")


def assert_catalog_lookups(es, cat):
    """Brute force over every ordered pair of eigenstates: each Delta M = -1
    pair is one line, found in both orders; every other pair is none."""
    sq = [(a, b) for a in range(es.dim) for b in range(es.dim)
          if es.mz[a] - es.mz[b] == 1]
    assert len(cat) == len(sq)
    tids = []
    for a in range(es.dim):
        for b in range(es.dim):
            if (a, b) in sq:
                t = cat.by_pair(a, b)
                assert (t.lower, t.upper) == (a, b)
                assert cat.by_pair(b, a) == t == cat.by_id(t.tid)
                assert cat.by_labels(es, es.labels[b], es.labels[a]) == t
                tids.append(t.tid)
            elif (b, a) not in sq:
                with pytest.raises(KeyError):
                    cat.by_pair(a, b)
    assert sorted(tids) == list(range(1, len(cat) + 1))
    for bad in ((-1, 0), (0, es.dim)):
        with pytest.raises(KeyError):
            cat.by_pair(*bad)
    for bad in (0, len(cat) + 1):
        with pytest.raises(KeyError):
            cat.by_id(bad)
    keys = [(-t.intensity, t.freq_hz, t.lower, t.upper)
            for t in map(cat.by_id, range(1, len(cat) + 1))]
    assert keys == sorted(keys)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=30, deadline=None)
@given(random_system_strategy(nmax=5), st.sampled_from([0.0, 0.05, 0.5]))
def test_catalog_lookups_random(sys_, threshold):
    es = core.eigensystem(sys_)
    cat = core.transition_catalog(es)
    assert_catalog_lookups(es, cat)
    # ids run by descending intensity, so the observable lines come first
    obs = cat.observable_at(threshold)
    assert np.array_equal(obs, np.sort(obs)[::-1])


@pytest.mark.parametrize("name", ["citrate", "compound1", "demo3", "demo4"])
def test_catalog_lookups_shipped(name, request):
    es = request.getfixturevalue(f"{name}_es")
    assert_catalog_lookups(es, core.transition_catalog(es))


def test_catalog_columns_read_only(citrate, citrate_es, citrate_cat):
    # one catalog per eigensystem, built on the first call
    assert core.transition_catalog(citrate_es) is citrate_cat
    assert core.transition_catalog(core.eigensystem(citrate)) is not citrate_cat
    for col in (citrate_cat.lower, citrate_cat.upper, citrate_cat.freq_hz,
                citrate_cat.intensity, citrate_cat.pair_tid):
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 1


def test_spin_file_roundtrip(demo3):
    text = core.format_spin_system(demo3)
    again = core.parse_spin_system(text)
    assert again.n == demo3.n
    assert np.allclose(again.offset_hz, demo3.offset_hz)
    assert np.allclose(again.j_hz, demo3.j_hz)
    assert np.allclose(again.d_hz, demo3.d_hz)


def test_spin_file_errors():
    with pytest.raises(core.SpinSystemError):
        core.parse_spin_system("")
    with pytest.raises(core.SpinSystemError, match="malformed"):
        core.parse_spin_system("nspins two\n")
    with pytest.raises(core.SpinSystemError, match="bad spin pair"):
        core.parse_spin_system("nspins 2\noffset_hz 0 0\nj_hz 1 5 3\n")


def test_validation_errors():
    with pytest.raises(core.SpinSystemError):
        core.SpinSystem.create("big", list(range(9)))
    with pytest.raises(core.SpinSystemError):
        core.SpinSystem.create("asym", [0, 0], [[0, 1], [2, 0]])
    with pytest.raises(core.SpinSystemError):
        core.SpinSystem.create("nan", [float("nan"), 0.0])


@pytest.mark.parametrize("field", ["j_hz", "d_hz"])
def test_validation_requires_exact_symmetry(field):
    near = {field: [[0, 10.0], [10.00001, 0]]}
    with pytest.raises(core.SpinSystemError, match=f"{field} must be symmetric"):
        core.SpinSystem.create("near", [0, 0], **near)
    one_ulp = {field: [[0, 0.1 + 0.2], [0.3, 0]]}
    with pytest.raises(core.SpinSystemError, match=f"{field} must be symmetric"):
        core.SpinSystem.create("ulp", [0, 0], **one_ulp)


@pytest.mark.parametrize("field", ["j_hz", "d_hz"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validation_reports_non_finite_coupling(field, bad):
    with pytest.raises(core.SpinSystemError, match="non-finite value"):
        core.SpinSystem.create("bad", [0, 0], **{field: [[0, bad], [bad, 0]]})
    with pytest.raises(core.SpinSystemError, match="non-finite value"):
        core.SpinSystem.create("bad", [0, 0], **{field: [[0, bad], [1.0, 0]]})


# ---------------------------------------------------------------------------
# the array builders against the code they replaced, bit for bit

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # I- : |alpha> -> |beta>
_ID2 = np.eye(2, dtype=complex)
_AXES = {"x": _SX, "y": _SY, "z": _SZ, "-": _SM}


def spin_operator(n, i, axis):
    """Reference: I_{i,axis} as a dense Kronecker product; spin 0 is the
    most significant label bit."""
    op = np.array([[1.0 + 0j]])
    for k in range(n):
        op = np.kron(op, _AXES[axis] if k == i else _ID2)
    return op


def total_operator(n, axis):
    """Reference: F_axis = sum_i I_{i,axis}."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        out += spin_operator(n, i, axis)
    return out


def dense_hamiltonian(sys_, weak=False):
    """Reference: H as a sum of dense Kronecker operator products."""
    n = sys_.n
    h = np.zeros((2**n, 2**n), dtype=complex)
    iz = [spin_operator(n, i, "z") for i in range(n)]
    ix = [spin_operator(n, i, "x") for i in range(n)]
    iy = [spin_operator(n, i, "y") for i in range(n)]
    for i in range(n):
        h += 2 * math.pi * sys_.offset_hz[i] * iz[i]
    for i in range(n):
        for j in range(i + 1, n):
            zz = iz[i] @ iz[j]
            if sys_.j_hz[i, j] != 0.0:
                if weak:
                    h += 2 * math.pi * sys_.j_hz[i, j] * zz
                else:
                    dot = zz + ix[i] @ ix[j] + iy[i] @ iy[j]
                    h += 2 * math.pi * sys_.j_hz[i, j] * dot
            if sys_.d_hz[i, j] != 0.0:
                dot = zz + ix[i] @ ix[j] + iy[i] @ iy[j]
                h += 2 * math.pi * sys_.d_hz[i, j] * (3 * zz - dot)
    return h


def loop_catalog(es, threshold=0.05):
    """Reference: catalog rows from a Python loop over all state pairs."""
    fme = es.lowering_operator()
    raw = []
    for lo in range(es.dim):
        for up in range(es.dim):
            if es.mz[up] == es.mz[lo] - 1:
                inten = float(abs(fme[up, lo]) ** 2)
                freq = float((es.energies[lo] - es.energies[up]) / (2 * math.pi))
                raw.append((lo, up, freq, inten))
    raw.sort(key=lambda r: (-r[3], r[2], r[0], r[1]))
    max_i = max((r[3] for r in raw), default=0.0)
    return [(lo, up, fr, inten, bool(max_i > 0 and inten >= threshold * max_i))
            for lo, up, fr, inten in raw]


def catalog_rows(cat, threshold):
    """Every line as the fields of its ``by_id`` record and its
    observability at ``threshold``."""
    obs = cat.observable_at(threshold).tolist()
    return [(t.lower, t.upper, t.freq_hz, t.intensity, obs[t.tid - 1])
            for t in map(cat.by_id, range(1, len(cat) + 1))]


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def assert_lowering_matches_reference(es):
    """F- within 1e-13 of its largest entry of the dense V^H F- V, and
    exactly 0 outside the blocks from one M_z manifold to the next."""
    v = es.vectors
    fm = es.lowering_operator()
    ref = v.conj().T @ total_operator(es.n, "-") @ v
    assert np.abs(fm - ref).max() <= 1e-13 * np.abs(ref).max()
    adjacent = es.mz[:, None] == es.mz[None, :] - 1     # row one quantum lower
    assert not fm[~adjacent].any()


def greedy_labels(es):
    """Reference: the greedy max-overlap labelling, visiting every
    (product state, eigenstate) pair of each manifold."""
    pmz = core.product_mz(es.n)
    labels = [""] * es.dim
    conflicts = 0
    for m in sorted(set(pmz.tolist()), reverse=True):
        idx = np.flatnonzero(pmz == m)
        cols = np.flatnonzero(es.mz == m)
        overlaps = np.abs(es.vectors[np.ix_(idx, cols)]) ** 2
        order = np.dstack(np.unravel_index(
            np.argsort(-overlaps, axis=None, kind="stable"), overlaps.shape))[0]
        first_choice = {int(np.argmax(overlaps[:, e])): e for e in range(idx.size)}
        used_p, used_e = set(), set()
        for p_loc, e_loc in order:
            if p_loc in used_p or e_loc in used_e:
                continue
            used_p.add(int(p_loc))
            used_e.add(int(e_loc))
            labels[cols[e_loc]] = core.label_of_index(int(idx[p_loc]), es.n)
            if first_choice.get(int(p_loc)) not in (None, int(e_loc)):
                conflicts += 1
    return tuple(labels), conflicts


def assert_matches_references(sys_, weak):
    h = core.build_hamiltonian(sys_, weak=weak)
    assert_same_bits(h, dense_hamiltonian(sys_, weak=weak))
    es = core.diagonalize(h, sys_)
    assert (es.labels, es.label_conflicts) == greedy_labels(es)
    assert_lowering_matches_reference(es)
    cat = core.transition_catalog(es)
    for threshold in (0.0, 0.05, 0.5):
        assert catalog_rows(cat, threshold) == loop_catalog(es, threshold)
    for threshold in (-0.05, 1.0, math.nan):
        with pytest.raises(core.SpinSystemError, match=r"\[0, 1\)"):
            cat.observable_at(threshold)


@st.composite
def reference_systems(draw, nmax=7):
    """Systems of 1..nmax spins; a few shared offset values make degenerate
    levels, and couplings are zero, negative or positive."""
    n = draw(st.integers(1, nmax))
    hz = st.floats(-300, 300)
    offs = [draw(st.one_of(st.sampled_from([0.0, 40.0, -40.0]), hz))
            for _ in range(n)]
    j = np.zeros((n, n))
    d = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = draw(st.one_of(st.just(0.0), st.floats(-20, 20)))
            d[i, k] = d[k, i] = draw(st.one_of(st.just(0.0), hz))
    return core.SpinSystem.create("ref", offs, j, d)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=40, deadline=None)
@given(reference_systems(), st.booleans())
def test_builders_match_dense_references(sys_, weak):
    assert_matches_references(sys_, weak)


def loop_diagonalize(h, sys_):
    """Reference: diagonalize with a phase fix per column and the
    per-pair greedy labelling of ``greedy_labels``."""
    n = sys_.n
    pmz = core.product_mz(n)
    energies = np.zeros(2**n)
    vectors = np.zeros((2**n, 2**n), dtype=complex)
    mz = np.zeros(2**n)
    pos = 0
    for m in sorted(set(pmz.tolist()), reverse=True):
        idx = np.flatnonzero(pmz == m)
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        for col in range(idx.size):
            vec = v[:, col]
            k = int(np.argmax(np.abs(vec)))
            vectors[idx, pos + col] = vec * np.conj(vec[k] / abs(vec[k]))
            energies[pos + col] = w[col]
            mz[pos + col] = m
        pos += idx.size
    es = core.EigenSystem(n, energies, vectors, ("",) * 2**n, mz)
    return es, greedy_labels(es)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=60, deadline=None)
@given(reference_systems(nmax=8), st.booleans(), st.booleans())
def test_diagonalize_matches_loop_reference(sys_, weak, phased):
    h = core.build_hamiltonian(sys_, weak=weak)
    if phased:      # D H D^H, D diagonal: complex, with the same M_z blocks
        ph = np.exp(1j * np.arange(h.shape[0]))
        h = ph[:, None] * h * ph.conj()[None, :]
    es = core.diagonalize(h, sys_)
    ref, labelling = loop_diagonalize(h, sys_)
    for got, want in ((es.energies, ref.energies), (es.vectors, ref.vectors),
                      (es.mz, ref.mz)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (es.labels, es.label_conflicts) == labelling


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("name", ["citrate.spin", "compound1.spin",
                                  "demo3.spin", "demo4.spin"])
@pytest.mark.parametrize("weak", [False, True])
def test_builders_match_references_shipped(name, weak):
    from importlib import resources
    text = resources.files("spinsim").joinpath(
        "data", "systems", name).read_text(encoding="utf-8")
    assert_matches_references(core.parse_spin_system(text, source=name), weak)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_builders_match_references_eight_spins():
    rng = np.random.default_rng(8)
    offs = rng.uniform(-300, 300, 8)
    offs[5] = offs[2]
    j = np.triu(rng.uniform(-20, 20, (8, 8)) * (rng.random((8, 8)) < 0.7), 1)
    d = np.triu(rng.uniform(-200, 200, (8, 8)) * (rng.random((8, 8)) < 0.7), 1)
    assert_matches_references(
        core.SpinSystem.create("r8", offs, j + j.T, d + d.T), weak=False)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("n", range(1, 9))
def test_lowering_operator_matches_reference(n):
    rng = np.random.default_rng(n)
    offs = rng.uniform(-300, 300, n)
    j = np.triu(rng.uniform(-20, 20, (n, n)), 1)
    d = np.triu(rng.uniform(-200, 200, (n, n)), 1)
    es = core.eigensystem(core.SpinSystem.create("r", offs, j + j.T, d + d.T))
    assert_lowering_matches_reference(es)


def dense_hard_pulse(es, theta_deg, phase_deg):
    """Reference: V^H K V, K the Kronecker product of n single-spin
    rotations exp(-i theta I_phi) = cos(theta/2) - 2i sin(theta/2) I_phi."""
    th, ph = math.radians(theta_deg), math.radians(phase_deg)
    i_phi = math.cos(ph) * _SX + math.sin(ph) * _SY
    u1 = math.cos(th / 2) * _ID2 - 2j * math.sin(th / 2) * i_phi
    k = np.array([[1.0 + 0j]])
    for _ in range(es.n):
        k = np.kron(k, u1)
    return es.vectors.conj().T @ k @ es.vectors


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=40, deadline=None)
@given(reference_systems(nmax=8), st.booleans(),
       st.one_of(st.sampled_from([0.0, 90.0, 180.0, -90.0, 720.0]),
                 st.floats(-720, 720)),
       st.one_of(st.sampled_from([0.0, 90.0, 270.0]), st.floats(0, 360)))
def test_hard_pulse_matches_dense_reference(sys_, weak, theta, phase):
    es = core.diagonalize(core.build_hamiltonian(sys_, weak=weak), sys_)
    u = dyn.hard_pulse_unitary(es, theta, phase)
    assert u.shape == (es.dim, es.dim)
    assert np.abs(u - dense_hard_pulse(es, theta, phase)).max() <= 1e-13


def test_manifold_vectors_are_the_blocks_of_vectors(demo4_es):
    es = demo4_es
    blocks = es.manifold_vectors()
    assert es.manifold_vectors() is blocks
    assert [cols.stop - cols.start for cols, _ in blocks] == [1, 4, 6, 4, 1]
    rebuilt = np.zeros_like(es.vectors)
    pmz = core.product_mz(es.n)
    for cols, v in blocks:
        rebuilt[np.ix_(np.flatnonzero(pmz == es.mz[cols.start]),
                       np.arange(cols.start, cols.stop))] = v
    assert np.array_equal(rebuilt, es.vectors)
    with pytest.raises(ValueError, match="read-only"):
        blocks[1][1][0, 0] = 1.0
    # an eigensystem not made by diagonalize gathers the same blocks
    bare = core.EigenSystem(es.n, es.energies, es.vectors, es.labels, es.mz)
    for (cols, v), (bare_cols, bare_v) in zip(blocks, bare.manifold_vectors()):
        assert cols == bare_cols and np.array_equal(v, bare_v)


def test_lowering_operator_built_once_and_read_only(demo3):
    es = core.eigensystem(demo3)
    fme = es.lowering_operator()
    assert es.lowering_operator() is fme
    with pytest.raises(ValueError, match="read-only"):
        fme[0, 0] = 1.0


# ---------------------------------------------------------------------------
# eigensystem: one shared, read-only object per Hamiltonian

def copy_system(sys_, name="copy"):
    return core.SpinSystem.create(name, sys_.offset_hz.copy(),
                                  sys_.j_hz.copy(), sys_.d_hz.copy())


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=30, deadline=None)
@given(reference_systems(nmax=8), st.booleans())
def test_cached_eigensystem_matches_diagonalize(sys_, weak):
    es = core.eigensystem(sys_, weak=weak)
    # a hit: the same object, whatever the name
    assert core.eigensystem(copy_system(sys_), weak=weak) is es
    fresh = core.diagonalize(core.build_hamiltonian(sys_, weak=weak), sys_)
    assert fresh is not es
    for got, want in ((es.energies, fresh.energies), (es.vectors, fresh.vectors),
                      (es.mz, fresh.mz)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (es.labels, es.label_conflicts) == (fresh.labels,
                                               fresh.label_conflicts)
    cat, fresh_cat = core.transition_catalog(es), core.transition_catalog(fresh)
    for col in ("lower", "upper", "freq_hz", "intensity", "pair_tid"):
        assert np.array_equal(getattr(cat, col), getattr(fresh_cat, col))


def test_weak_and_strong_eigensystems_are_distinct(citrate):
    strong = core.eigensystem(citrate)
    weak = core.eigensystem(citrate, weak=True)
    assert strong is not weak
    assert core.eigensystem(citrate) is strong
    assert core.eigensystem(citrate, weak=True) is weak
    assert not np.array_equal(strong.energies, weak.energies)


@pytest.mark.parametrize("field, entry", [("offset_hz", (0,)),
                                          ("j_hz", (0, 1)), ("d_hz", (0, 1))])
def test_changed_system_gets_a_fresh_eigensystem(demo3, field, entry):
    sys_ = copy_system(demo3)
    es = core.eigensystem(sys_)
    arr = getattr(sys_, field)
    arr[entry] += 7.5
    arr[entry[::-1]] = arr[entry]
    changed = core.eigensystem(sys_)
    assert changed is not es
    want = core.diagonalize(core.build_hamiltonian(sys_), sys_)
    assert np.array_equal(changed.energies, want.energies)
    assert not np.array_equal(changed.energies, es.energies)
    # validated on every call: a broken system raises
    if field != "offset_hz":
        arr[entry] += 1.0
        with pytest.raises(core.SpinSystemError, match="symmetric"):
            core.eigensystem(sys_)


def test_label_conflict_warns_on_every_call():
    sys_ = core.SpinSystem.create("equal", [50.0, 50.0], [[0, 10], [10, 0]])
    sites = []
    for _ in range(3):
        with pytest.warns(UserWarning, match="1 eigenstate.*best-overlap") as rec:
            es = core.eigensystem(sys_)
        sites.append([(w.filename, w.lineno) for w in rec])
    # the same line as the uncached reference
    with pytest.warns(UserWarning, match="best-overlap") as rec:
        core.diagonalize(core.build_hamiltonian(sys_), sys_)
    sites.append([(w.filename, w.lineno) for w in rec])
    assert es.label_conflicts == 1
    assert all(s == sites[0] and len(s) == 1 for s in sites)


def test_eigensystem_arrays_read_only(demo4_es):
    for arr in (demo4_es.energies, demo4_es.vectors, demo4_es.mz):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_eigensystem_fields_cannot_be_reassigned(citrate):
    es = core.eigensystem(citrate)
    for name, value in (("labels", ("11", "10", "01", "00")), ("n", 3),
                        ("energies", -es.energies), ("_catalog", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(es, name, value)
    assert core.eigensystem(citrate) is es
    assert es.index_of_label("00") == 0


def test_eigensystem_cache_is_bounded():
    systems = [core.SpinSystem.create(f"s{k}", [100.0 + k, -37.0 - k],
                                      [[0, 12.5], [12.5, 0]])
               for k in range(core._EIGEN_CACHE_SIZE + 3)]
    first = []
    for s in systems:
        first.append(core.eigensystem(s))
        assert len(core._EIGEN_CACHE) <= core._EIGEN_CACHE_SIZE
    # the most recent ones are kept, the oldest ones are rebuilt
    assert core.eigensystem(systems[-1]) is first[-1]
    assert core.eigensystem(systems[0]) is not first[0]
    assert len(core._EIGEN_CACHE) == core._EIGEN_CACHE_SIZE



@pytest.mark.parametrize("entries, message", [
    (None, "Hamiltonian dimension does not match system"),
    ({(3, 3): np.nan}, "Hamiltonian has a non-finite entry"),
    ({(1, 2): 1.0}, "Hamiltonian is not Hermitian"),
    # |00> (M_z = 1) coupled to |01> (M_z = 0)
    ({(0, 1): 1.0, (1, 0): 1.0}, "Hamiltonian mixes M_z manifolds"),
    # norms that overflow unless H is scaled first
    ({(1, 2): 1e300}, "Hamiltonian is not Hermitian"),
    ({(0, 1): 1e300, (1, 0): 1e300}, "Hamiltonian mixes M_z manifolds"),
    ({(1, 2): 1e308}, "Hamiltonian is not Hermitian"),
    ({(0, 1): 1e308, (1, 0): 1e308}, "Hamiltonian mixes M_z manifolds"),
])
@pytest.mark.filterwarnings("error")
def test_diagonalize_rejects(entries, message):
    sys_ = core.SpinSystem.create("ab", [67.75, 12.25], [[0, 15], [15, 0]])
    h = core.build_hamiltonian(sys_)
    if entries is None:
        h = h[:3, :3]
    for kl, value in (entries or {}).items():
        h[kl] = value
    with pytest.raises(core.SpinSystemError, match=message):
        core.diagonalize(h, sys_)


@pytest.mark.parametrize("big", [2.0 ** 480, 1e300, 1e308,
                                 np.finfo(float).max])
@pytest.mark.filterwarnings("error")
def test_norm_scale_is_a_power_of_two_into_one_to_two(big):
    assert core._norm_scale(np.array([[0.5, 2.0 ** 479], [-3.0, 1j]])) == 1.0
    for a in (np.array([[1.0, -big], [0.0, 2.0]]),
              np.array([0.0, 1j * big, -1e-300])):
        scale = core._norm_scale(a)
        assert math.frexp(scale)[0] == 0.5
        assert 1.0 <= np.max(np.abs(a / scale)) < 2.0
