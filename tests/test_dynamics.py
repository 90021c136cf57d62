import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import core, dynamics as dyn


def label_perm(es):
    return [es.index_of_label(l) for l in ("00", "01", "10", "11")]


def test_equilibrium_two_spin(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    pops = np.real(np.diag(rho))[label_perm(citrate_es)]
    assert np.allclose(pops, [1, 0, 0, -1], atol=1e-12)
    assert abs(np.trace(rho)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equilibrium_traceless_and_span(n):
    rng = np.random.default_rng(n + 40)
    sys_ = core.SpinSystem.create("r", rng.uniform(-100, 100, n))
    es = core.eigensystem(sys_)
    rho = dyn.equilibrium_deviation(es)
    pops = np.real(np.diag(rho))
    assert abs(pops.sum()) <= 1e-12
    assert pops.max() - pops.min() == pytest.approx(n, abs=1e-12)


def test_selective_pulse_identity_and_spinor(citrate_es):
    es = citrate_es
    lo, up = es.index_of_label("00"), es.index_of_label("10")
    u0 = dyn.selective_pulse_unitary(es, lo, up, 0.0, 0.0)
    assert np.allclose(u0, np.eye(4))
    u2pi = dyn.selective_pulse_unitary(es, lo, up, 360.0, 0.0)
    block = np.eye(4, dtype=complex)
    block[lo, lo] = block[up, up] = -1.0
    assert np.abs(u2pi - block).max() <= 1e-12
    assert np.abs(u2pi @ u2pi - np.eye(4)).max() <= 1e-12


def test_selective_pulse_rejects_non_sq(citrate_es):
    es = citrate_es
    with pytest.raises(dyn.DynamicsError):
        dyn.selective_pulse_unitary(es, es.index_of_label("00"),
                                    es.index_of_label("11"), 90, 0)
    with pytest.raises(dyn.DynamicsError):
        dyn.selective_pulse_unitary(es, es.index_of_label("01"),
                                    es.index_of_label("10"), 90, 0)


def test_eq11_pulse_product(citrate_es):
    es = citrate_es
    perm = label_perm(es)
    u = dyn.selective_pulse_unitary(es, es.index_of_label("10"),
                                    es.index_of_label("11"), 180, 180) \
        @ dyn.selective_pulse_unitary(es, es.index_of_label("00"),
                                      es.index_of_label("10"), 90, 0)
    ulab = u[np.ix_(perm, perm)]
    eq11 = (1 / math.sqrt(2)) * np.array(
        [[1, 0, -1j, 0],
         [0, math.sqrt(2), 0, 0],
         [0, 0, 0, 1j * math.sqrt(2)],
         [1, 0, 1j, 0]])
    assert np.abs(ulab - eq11).max() <= 1e-12
    # applied to the pure |00> projector it yields the EPR projector
    p0 = np.zeros((4, 4), dtype=complex)
    p0[0, 0] = 1.0
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.abs(ulab @ p0 @ ulab.conj().T - eq12).max() <= 1e-12


def test_hard_pulse_single_spin():
    sys1 = core.SpinSystem.create("one", [50.0])
    es = core.eigensystem(sys1)
    u = dyn.hard_pulse_unitary(es, 180.0, 0.0)
    assert np.abs(u - np.array([[0, -1j], [-1j, 0]])).max() <= 1e-12


def test_hard_pulse_two_turns(citrate_es):
    u = dyn.hard_pulse_unitary(citrate_es, 720.0, 0.0)
    assert np.abs(u - np.eye(4)).max() <= 1e-12


def test_hard_pulse_inverse(citrate_es):
    ua = dyn.hard_pulse_unitary(citrate_es, 37.0, 123.0)
    ub = dyn.hard_pulse_unitary(citrate_es, -37.0, 123.0)
    assert np.abs(ua @ ub - np.eye(4)).max() <= 1e-12


def test_crush_gradient(citrate_es):
    es = citrate_es
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = (a + a.conj().T) / 2
    crushed = dyn.crush_gradient(rho)
    assert np.allclose(crushed, np.diag(np.diag(rho)))
    twice = dyn.crush_gradient(crushed)
    assert np.array_equal(twice, crushed)


def test_free_evolution_diagonal_invariant(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    out = dyn.free_evolution(citrate_es, rho, 0.123)
    assert np.allclose(out, rho)
    same = dyn.free_evolution(citrate_es, rho, 0.0)
    assert np.array_equal(same, rho)


def test_free_evolution_dq_phase():
    # carrier placed so that the double-quantum frequency is positive
    sys_ = core.SpinSystem.create("dq", [-65.0, 35.0], [[0, 42], [42, 0]])
    es = core.eigensystem(sys_)
    i00, i11 = es.index_of_label("00"), es.index_of_label("11")
    f_dq = (es.energies[i11] - es.energies[i00]) / (2 * math.pi)
    assert f_dq > 1.0
    mat = np.zeros((4, 4), dtype=complex)
    mat[i00, i11] = 0.5
    mat[i11, i00] = 0.5
    out = dyn.free_evolution(es, mat, 1.0 / (4 * f_dq))
    # the (11,00) element acquires -pi/2, its conjugate +pi/2
    assert np.angle(out[i11, i00]) == pytest.approx(-math.pi / 2, abs=1e-9)
    assert np.angle(out[i00, i11]) == pytest.approx(+math.pi / 2, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-720, 720))
def test_population_update_closed_form(p_i, p_j, theta):
    q_i, q_j = dyn.selective_population_update(p_i, p_j, theta)
    c2 = math.cos(math.radians(theta) / 2) ** 2
    assert q_i == pytest.approx(p_i * c2 + p_j * (1 - c2), abs=1e-12)
    assert q_i + q_j == pytest.approx(p_i + p_j, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-720, 720),
       st.floats(0, 360))
def test_population_update_matches_conjugation(citrate_es, p_i, p_j, theta,
                                               phase):
    es = citrate_es
    lo, up = es.index_of_label("00"), es.index_of_label("10")
    mat = np.zeros((4, 4), dtype=complex)
    mat[lo, lo], mat[up, up] = p_i, p_j
    u = dyn.selective_pulse_unitary(es, lo, up, theta, phase)
    out = dyn.crush_gradient(dyn.apply_unitary(mat, u))
    q_i, q_j = dyn.selective_population_update(p_i, p_j, theta)
    assert abs(out[lo, lo] - q_i) <= 1e-12
    assert abs(out[up, up] - q_j) <= 1e-12
    # untouched level stays put
    other = es.index_of_label("11")
    assert abs(out[other, other]) <= 1e-12


def test_selective_pulse_conserves_pair_sum(citrate_es):
    es = citrate_es
    rho = dyn.equilibrium_deviation(es)
    lo, up = es.index_of_label("00"), es.index_of_label("01")
    u = dyn.selective_pulse_unitary(es, lo, up, 70.0, 30.0)
    out = dyn.crush_gradient(dyn.apply_unitary(rho, u))
    pops0, pops1 = np.real(np.diag(rho)), np.real(np.diag(out))
    assert pops1[lo] + pops1[up] == pytest.approx(pops0[lo] + pops0[up],
                                                  abs=1e-12)
    for k in range(4):
        if k not in (lo, up):
            assert pops1[k] == pytest.approx(pops0[k], abs=1e-12)


@functools.cache
def coupled_system(n):
    """Eigensystem and catalog of a fixed strongly coupled n-spin system."""
    rng = np.random.default_rng(300 + n)
    j = np.triu(rng.uniform(-40, 40, (n, n)), 1)
    d = np.triu(rng.uniform(-150, 150, (n, n)), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # degenerate-label conflicts
        es = core.eigensystem(core.SpinSystem.create(
            f"c{n}", rng.uniform(-200, 200, n), j + j.T, d + d.T))
        return es, core.transition_catalog(es)


def random_states(es, seed, stack, zeros, real):
    """A (d, d) matrix, or a (stack, d, d) one, of random entries; a share
    ``zeros`` of them exact zeros of either sign, all imaginary parts
    exact zeros if ``real``."""
    rng = np.random.default_rng(seed)
    shape = (es.dim, es.dim) if stack is None else (stack, es.dim, es.dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if real:
        a = a.real
    return a * (rng.random(shape) >= zeros)     # x * False is -0.0 for x < 0


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def assert_pulse_matches_dense(es, r, s, mat, theta, phase):
    want = dyn.apply_unitary(
        mat, dyn.selective_pulse_unitary(es, r, s, theta, phase))
    assert_same_bits(dyn.apply_selective_pulse(es, mat, r, s, theta, phase), want)


_ANGLES = st.sampled_from((0.0, 90.0, 180.0, 360.0, -90.0)) | st.floats(-720, 720)
# x, y, -x, -y and the deg: phases of the pulse language
_PULSE_PHASES = st.sampled_from((0.0, 90.0, 180.0, 270.0)) | st.floats(-360, 360)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), line=st.integers(0, 10 ** 6), swap=st.booleans(),
       theta=_ANGLES, phase=_PULSE_PHASES,
       stack=st.sampled_from((None, 1, 3)), zeros=st.sampled_from((0.0, 0.6, 0.95)),
       real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_selective_pulse_matches_dense_bits(n, line, swap, theta, phase, stack,
                                            zeros, real, seed):
    es, cat = coupled_system(n)
    lo, up = cat.lower[line % len(cat)], cat.upper[line % len(cat)]
    r, s = (up, lo) if swap else (lo, up)
    assert_pulse_matches_dense(es, int(r), int(s),
                               random_states(es, seed, stack, zeros, real),
                               theta, phase)


def test_selective_pulse_matches_dense_bits_8_spins():
    es, cat = coupled_system(8)
    for k, (stack, zeros, theta, phase) in enumerate(
            [(None, 0.0, 90.0, 0.0), (None, 0.9, 180.0, 33.25),
             (2, 0.0, -90.0, 270.0), (None, 0.0, 360.0, 90.0)]):
        line = (k * 2857) % len(cat)
        assert_pulse_matches_dense(es, int(cat.upper[line]), int(cat.lower[line]),
                                   random_states(es, k, stack, zeros, False),
                                   theta, phase)


def test_pure_part_extraction(citrate_es):
    es = citrate_es
    vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    dev = 1.5 * (np.outer(vec, vec.conj()) - np.eye(4) / 4)
    coeff, got = dyn.pure_part(dev)
    assert coeff == pytest.approx(1.5, abs=1e-12)
    assert abs(np.vdot(vec, got)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_state_serialization_roundtrip(citrate_es):
    es = citrate_es
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = (a + a.conj().T) / 2
    text = dyn.format_state(rho)
    assert text.startswith("dim 4\n")
    back = dyn.parse_state(text, es)
    assert np.abs(back - rho).max() <= 1e-10


def test_state_serialization_drops_tiny(citrate_es):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1e-15
    mat[1, 1] = 1.0
    text = dyn.format_state(mat)
    assert text == "dim 4\n2 2 1 0\n"
