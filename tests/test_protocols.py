import dataclasses
import itertools
import math

import numpy as np
import pytest

from spinsim import core, dynamics as dyn, protocols as pr, pulselang as pl


PPS_EXPECTED = {
    "00": [1, -1 / 3, -1 / 3, -1 / 3],
    "01": [-1 / 3, 1, -1 / 3, -1 / 3],
    "10": [-1 / 3, -1 / 3, 1, -1 / 3],
    # the mirrored sequence reaches |11> with a negative pure-part sign
    "11": [1 / 3, 1 / 3, 1 / 3, -1],
}


@pytest.mark.parametrize("target", ["00", "01", "10", "11"])
def test_pseudopure_targets(citrate_es, target):
    rep = pr.pseudopure_2spin(citrate_es, target)
    perm = [citrate_es.index_of_label(l) for l in ("00", "01", "10", "11")]
    pops = np.real(np.diag(rep.final_state))[perm]
    assert np.allclose(pops, PPS_EXPECTED[target], atol=1e-12)
    assert rep.metrics["pps_fidelity"] >= 0.999
    assert rep.metrics["others_spread"] <= 1e-10
    off = rep.final_state - np.diag(np.diag(rep.final_state))
    assert np.abs(off).max() <= 1e-12


def test_pseudopure_program_reruns_bit_exact(citrate_es):
    rep = pr.pseudopure_2spin(citrate_es, "00")
    prog = pl.parse_program(rep.program_text)
    again = pl.execute(prog, citrate_es, dyn.equilibrium_deviation(citrate_es))
    assert np.array_equal(again, rep.final_state)


def test_pseudopure_needs_two_spins(demo3_es):
    with pytest.raises(pr.ProtocolError):
        pr.pseudopure_2spin(demo3_es, "00")


def test_pops_pair(demo3_es, demo3_cat):
    es, cat = demo3_es, demo3_cat
    t = cat.by_labels(es, "000", "001")
    rep = pr.pops_pair(es, t.tid)
    assert rep.name == f"pops{t.tid}"
    assert rep.program_text == "selpulse (000,001) 180 x\ngrad\n"
    assert rep.info == {"pair": "000,001"}
    scale = rep.metrics["scale"]
    i0, i1 = es.index_of_label("000"), es.index_of_label("001")
    expect = np.zeros((8, 8), dtype=complex)
    expect[i0, i0] = scale
    expect[i1, i1] = -scale
    assert np.abs(rep.final_state - expect).max() <= 1e-12
    assert scale == pytest.approx(1.0, abs=1e-12)


def test_pops_zero_for_equal_populations(demo3_es, demo3_cat):
    # a transition inside the same-population manifold pair gives scale 1;
    # manufacture equal populations by a saturating 90 deg pulse first
    es, cat = demo3_es, demo3_cat
    t = cat.by_labels(es, "000", "001")
    rho = dyn.equilibrium_deviation(es)
    u = dyn.selective_pulse_unitary(es, t.lower, t.upper, 90.0, 0.0)
    rho = dyn.crush_gradient(dyn.apply_unitary(rho, u))
    u180 = dyn.selective_pulse_unitary(es, t.lower, t.upper, 180.0, 0.0)
    inverted = dyn.crush_gradient(dyn.apply_unitary(rho, u180))
    assert np.abs(rho - inverted).max() <= 1e-12


def test_pops_requires_observable(demo3_es, demo3_cat):
    weakest = demo3_cat.by_id(int(np.argmin(demo3_cat.intensity)) + 1)
    assert not demo3_cat.observable_at(0.05)[weakest.tid - 1]
    with pytest.raises(pr.ProtocolError, match="not observable"):
        pr.pops_pair(demo3_es, weakest.tid)


@pytest.mark.parametrize("f", ["f1", "f2", "f3", "f4"])
def test_dj_one_qubit_verdicts(citrate_es, f):
    rep = pr.dj_one_qubit(citrate_es, f)
    assert rep.info["verdict"] == pr.DJ1_TRUTH[f]


def test_dj_weak_f2_equals_f1_on_input_lines(citrate):
    # with Table-1 permutation matrices in the weak limit, f1 and f2 differ
    # only in the work-qubit lines
    es = core.eigensystem(citrate, weak=True)
    cat = core.transition_catalog(es)
    from spinsim.acquisition import line_amplitudes
    amps = {}
    for f in ("f1", "f2"):
        rep = pr.dj_one_qubit(es, f)
        amps[f] = line_amplitudes(es, rep.final_state)
    t_in1 = cat.by_labels(es, "00", "10").tid
    t_in2 = cat.by_labels(es, "01", "11").tid
    for tid in (t_in1, t_in2):
        assert abs(amps["f1"][tid - 1]) == pytest.approx(
            abs(amps["f2"][tid - 1]), abs=1e-12)


def test_epr_state(citrate_es):
    rep = pr.epr_create(citrate_es)
    assert rep.metrics["dq_amplitude"] == pytest.approx(0.5, abs=1e-12)
    assert rep.metrics["sq_amplitude"] <= 1e-12
    assert rep.metrics["zq_amplitude"] <= 1e-12
    assert rep.metrics["fidelity"] == pytest.approx(1.0, abs=1e-12)


def row_programs(prog):
    """Each row of the program's phase cycle as a one-row program."""
    cycle = prog.cycle
    return [dataclasses.replace(prog, cycle=pl.PhaseCycle(cycle.slots, (row,), (1,)))
            for row in cycle.rows]


def test_epr_cycle_rows_identical(citrate_es):
    rep = pr.epr_create(citrate_es)
    prog = pl.parse_program(rep.program_text)
    rho0 = dyn.equilibrium_deviation(citrate_es)
    states = [pl.execute(one, citrate_es, rho0) for one in row_programs(prog)]
    for s in states[1:]:
        assert np.abs(s - states[0]).max() <= 1e-12
    cycled = pl.execute(prog, citrate_es, rho0)
    assert np.abs(cycled - states[0]).max() <= 1e-12


def test_epr_reduced_states_maximally_mixed(citrate_es):
    proj = pr.epr_pure_projector(citrate_es)
    # rows and columns in label order, one axis per label qubit
    perm = np.argsort([int(lab, 2) for lab in citrate_es.labels])
    qubits = proj[np.ix_(perm, perm)].reshape(2, 2, 2, 2)
    for red in (np.einsum("ajbj->ab", qubits), np.einsum("iaib->ab", qubits)):
        assert np.abs(red - np.eye(2) / 2).max() <= 1e-12


def test_ghz_state(demo3_es):
    rep = pr.ghz_create(demo3_es)
    assert rep.metrics["tq_amplitude"] == pytest.approx(0.5, abs=1e-9)
    assert rep.metrics["zq_offdiag_amplitude"] <= 1e-9
    assert rep.metrics["sq_amplitude"] <= 1e-9
    assert rep.metrics["dq_amplitude"] <= 1e-9
    assert rep.metrics["state_error"] <= 1e-9


def test_ghz_cycle_rows_identical(demo3_es):
    rep = pr.ghz_create(demo3_es)
    prog = pl.parse_program(rep.program_text)
    tid = int(rep.info["pops_transition"][1:])
    rho0 = pr.pops_pair(demo3_es, tid).final_state
    states = [pl.execute(one, demo3_es, rho0) for one in row_programs(prog)]
    assert len(states) == 16
    for s in states[1:]:
        assert np.abs(s - states[0]).max() <= 1e-12


def test_gate_identity_is_empty(compound1_es):
    rep = pr.gate_library_2spin(compound1_es, 1)
    assert rep.metrics["n_pulses"] == 0
    assert rep.metrics["truth_table_ok"] == 1.0


def test_all_gates_truth_tables(compound1_es):
    for g in range(1, 25):
        rep = pr.gate_library_2spin(compound1_es, g)
        assert rep.metrics["truth_table_ok"] == 1.0, f"gate {g}"


def test_cnot_is_single_pulse(compound1_es):
    # the permutation swapping |10> and |11> only
    perm = (0, 1, 3, 2)
    gate = pr.GATE_PERMUTATIONS.index(perm) + 1
    rep = pr.gate_library_2spin(compound1_es, gate)
    assert rep.metrics["n_pulses"] == 1
    assert "selpulse (10,11) 180" in rep.program_text


def test_gate_composition(compound1_es):
    rng = np.random.default_rng(4)
    perms = pr.GATE_PERMUTATIONS
    for _ in range(10):
        g1, g2 = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        p1, p2 = perms[g1 - 1], perms[g2 - 1]
        composed = tuple(p2[p1[k]] for k in range(4))
        g12 = perms.index(composed) + 1
        r1 = pr.gate_library_2spin(compound1_es, g1)
        r2 = pr.gate_library_2spin(compound1_es, g2)
        r12 = pr.gate_library_2spin(compound1_es, g12)
        combined = pl.parse_program(r1.program_text + r2.program_text)
        rho0 = dyn.equilibrium_deviation(compound1_es)
        a = pl.execute(combined, compound1_es, rho0)
        b = pl.execute(pl.parse_program(r12.program_text), compound1_es,
                       rho0)
        assert np.abs(np.diag(a) - np.diag(b)).max() <= 1e-12


def test_c3not(demo4_es):
    rep = pr.c3not_4spin(demo4_es)
    assert rep.metrics["truth_table_ok"] == 1.0
    # applying the gate twice restores equilibrium populations
    prog = pl.parse_program(rep.program_text * 2)
    rho0 = dyn.equilibrium_deviation(demo4_es)
    out = pl.execute(prog, demo4_es, rho0)
    assert np.abs(np.real(np.diag(out)) - np.real(np.diag(rho0))).max() <= 1e-12


def test_c2swap_eq20(demo4_es):
    es = demo4_es
    i1110 = es.index_of_label("1110")
    i1101 = es.index_of_label("1101")
    i1010 = es.index_of_label("1010")
    rin = np.zeros((16, 16), dtype=complex)
    rin[i1110, i1110] = 1.0
    rin[i1010, i1010] = -1.0
    rep = pr.c2swap_4spin(es, rho0=rin)
    expect = np.zeros((16, 16), dtype=complex)
    expect[i1101, i1101] = 1.0
    expect[i1010, i1010] = -1.0
    assert np.abs(rep.final_state - expect).max() <= 1e-12


def test_c2swap_matches_pops(demo4_es):
    rep = pr.c2swap_4spin(demo4_es)
    assert rep.metrics["pops_output_error"] <= 1e-10
    assert rep.metrics["truth_table_ok"] == 1.0


@pytest.mark.parametrize("f", sorted(pr.DJ2_PATTERNS))
def test_dj_two_qubit_verdicts(demo3_es, f):
    rep = pr.dj_two_qubit_2d(demo3_es, f, t1_points=256, t2_points=1024)
    assert rep.info["verdict"] == pr.DJ2_TRUTH[f]
    from spinsim import acquisition as acq
    dataset = acq.run_2d(pl.parse_program(rep.program_text), demo3_es,
                         dyn.equilibrium_deviation(demo3_es), 256,
                         acq.default_tomo_dwell(demo3_es))
    assert dataset.data.shape == (256, 1024)


@pytest.mark.parametrize("f", sorted(pr.DJ2_PATTERNS))
def test_dj2_runs_its_t1_prefix_once(demo3_es, monkeypatch, f):
    # one free evolution per call: U_f acts on the identity reference's t1
    # stack, and what the verdict reads is, bit for bit, the t1 stack of
    # the emitted program (and of f1's for the reference; f1 reads its own
    # stack once, as both)
    from spinsim import acquisition as acq
    calls, read = [], []
    evolve, peaks = dyn.free_evolution, acq.hann_peaks_2d

    def counting(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    def recording(es, rho, *args):
        read.append(rho)
        return peaks(es, rho, *args)

    monkeypatch.setattr(dyn, "free_evolution", counting)
    monkeypatch.setattr(acq, "hann_peaks_2d", recording)
    rep = pr.dj_two_qubit_2d(demo3_es, f, 64, 256)
    assert len(calls) == 1 and len(read) == 1
    monkeypatch.undo()

    def stack(text):
        return acq.t1_stack(pl.parse_program(text), demo3_es,
                            dyn.equilibrium_deviation(demo3_es), 64,
                            acq.default_tomo_dwell(demo3_es))[1]

    f1 = pr.dj_two_qubit_2d(demo3_es, "f1", 64, 256)
    want = stack(rep.program_text)
    if f != "f1":
        want = np.stack([stack(f1.program_text), want])
    assert np.array_equal(read[0], want)


def _remapped_demo3(demo3_es):
    labels = list(demo3_es.labels)
    ia, ib = labels.index("011"), labels.index("101")
    labels[ia], labels[ib] = labels[ib], labels[ia]
    return dataclasses.replace(demo3_es, labels=tuple(labels))


def test_dj2_label_remap_option(demo3_es):
    # swapping two input-manifold labels is exposed as a relabeled system;
    # the algorithm still classifies correctly
    es2 = _remapped_demo3(demo3_es)
    rep = pr.dj_two_qubit_2d(es2, "f1", t1_points=256, t2_points=1024)
    assert rep.info["verdict"] == "constant"
    rep = pr.dj_two_qubit_2d(es2, "f5", t1_points=256, t2_points=1024)
    assert rep.info["verdict"] == "balanced"


def test_protocol_report_format(citrate_es):
    rep = pr.epr_create(citrate_es)
    text = rep.format_report()
    assert text.startswith("name=epr\n")
    assert "dq_amplitude=0.5\n" in text


def _shipped_program(name):
    from importlib import resources
    return resources.files("spinsim").joinpath(
        "data", "programs", name).read_text(encoding="utf-8")


def test_shipped_programs_match_emitters(citrate_es, demo3_es):
    es = citrate_es
    emitted = {f"pps{t}.pp": pr.pseudopure_2spin(es, t)
               for t in ("00", "01", "10", "11")}
    emitted.update({f"dj1_{f}.pp": pr.dj_one_qubit(es, f)
                    for f in pr.DJ1_TRUTH})
    emitted["epr.pp"] = pr.epr_create(es)
    for name, rep in emitted.items():
        assert _shipped_program(name) == rep.program_text, name
    ghz = pr.ghz_create(demo3_es).program_text
    assert _shipped_program("ghz.pp").endswith(ghz)


def _fft2_dj2(es, f, t1_points, t2_points):
    """Reference: the DJ2 classifier on full Hann-windowed fft2 spectra.

    Returns (info, metrics, program_text), or the ProtocolError message."""
    from spinsim import acquisition as acq
    try:
        dwell1 = dwell2 = acq.default_tomo_dwell(es)
        work = pr._work_transitions(es)
        for t in work:
            if abs(es.mz[t.lower] - es.mz[t.upper]) != 1:
                raise pr.ProtocolError("work transitions must be single quantum")
        pattern = pr.DJ2_PATTERNS[f]
        text = "pulse 90 y\ndelay t1\n"
        for bit, t in zip(pattern, work):
            if bit:
                text += (f"selpulse ({es.labels[t.lower]},{es.labels[t.upper]})"
                         " 180 x\n")
        text += f"acquire {t2_points} {dwell2:.12g}\n"
        program = pl.parse_program(text, source=f"dj2_{f}")
        rho0 = dyn.equilibrium_deviation(es)
        dataset = acq.run_2d(program, es, rho0, t1_points, dwell1)
        win = np.outer(np.hanning(t1_points), np.hanning(t2_points))
        spec = np.abs(np.fft.fft2(dataset.data * win))
        ref_text = f"pulse 90 y\ndelay t1\nacquire {t2_points} {dwell2:.12g}\n"
        ref = acq.run_2d(pl.parse_program(ref_text, source="dj2_ref"),
                         es, rho0, t1_points, dwell1)
        ref_spec = np.abs(np.fft.fft2(ref.data * win))

        def bin1(freq):
            return int(round(freq * t1_points * dwell1)) % t1_points

        def bin2(freq):
            return int(round(freq * t2_points * dwell2)) % t2_points

        outcomes = {}
        ref_max = 0.0
        lines = pr._input_lines(es)
        refs = {}
        for line, partner, _ in lines:
            r = float(ref_spec[bin1(line.freq_hz), bin2(line.freq_hz)])
            refs[line.tid] = r
            ref_max = max(ref_max, r)
        grid = f"the {t1_points}x{t2_points} grid"
        if ref_max == 0.0:
            raise pr.ProtocolError(f"{grid} reads no reference signal at the "
                                   "input-qubit lines")
        for line, partner, _ in lines:
            r = refs[line.tid]
            if r < 0.01 * ref_max or partner.intensity < 1e-9:
                continue
            if bin2(line.freq_hz) == bin2(partner.freq_hz):
                raise pr.ProtocolError(f"{grid} puts the diagonal and cross "
                                       f"peaks of t{line.tid} in one column")
            d = float(spec[bin1(line.freq_hz), bin2(line.freq_hz)])
            x = float(spec[bin1(line.freq_hz), bin2(partner.freq_hz)])
            if d >= 0.5 * r and x < 0.5 * r:
                outcomes[line.tid] = "diag"
            elif x >= 0.5 * r and d < 0.5 * r:
                outcomes[line.tid] = "cross"
            else:
                outcomes[line.tid] = "lost"
        if not outcomes:
            raise pr.ProtocolError("no usable input-qubit lines for classification")
    except pr.ProtocolError as exc:
        return str(exc)
    kinds = set(outcomes.values())
    verdict = "constant" if kinds in ({"diag"}, {"cross"}) else "balanced"
    info = {"verdict": verdict, "function": f,
            "pattern": "".join(str(b) for b in pattern),
            "outcomes": ",".join(f"t{tid}:{kind}"
                                 for tid, kind in sorted(outcomes.items()))}
    metrics = {"verdict_balanced": 0.0 if verdict == "constant" else 1.0,
               "n_lines_used": float(len(outcomes))}
    return info, metrics, text


def _bin_dj2(es, f, t1_points, t2_points):
    try:
        rep = pr.dj_two_qubit_2d(es, f, t1_points, t2_points)
    except pr.ProtocolError as exc:
        return str(exc)
    return rep.info, rep.metrics, rep.program_text


def _data_hann_magnitudes(data, rows, cols):
    """|fft2(data * outer(hann, hann))| at rows x cols, from the synthesized
    data: |(h1 E1[rows]) @ data @ (h2 E2[:, cols])|, the readout DJ2 used
    before it read line amplitudes."""
    def dft(n, bins):
        k = np.outer(bins, np.arange(n)) % n
        return np.hanning(n) * np.exp(-2j * np.pi / n * k)

    n1, n2 = data.shape
    return np.abs(dft(n1, rows) @ data @ dft(n2, cols).T)


def _random_3spin(seed):
    rng = np.random.default_rng(1300 + seed)
    offs = rng.uniform(-250, 250, 3)
    j = np.triu(rng.uniform(-10, 10, (3, 3)), 1)
    d = np.triu(rng.uniform(-250, 250, (3, 3)), 1)
    return core.eigensystem(core.SpinSystem.create("r3", offs, j + j.T, d + d.T))


def _check_bin_magnitudes(es):
    """The line-amplitude readout against the windowed DFT of run_2d's data
    (and that against a full fft2) at the bins DJ2 reads, for every
    function's program, within 1e-12 of the identity reference's (f1's)
    largest magnitude there.  Each call reads the reference's and the
    function's t1 stacks together."""
    from spinsim import acquisition as acq
    dwell = acq.default_tomo_dwell(es)
    rho0 = dyn.equilibrium_deviation(es)
    lines = pr._input_lines(es)
    for t1_points, t2_points in ((32, 16), (64, 256), (256, 1024)):
        rows = sorted({int(round(line.freq_hz * t1_points * dwell))
                       for line, _, _ in lines})
        cols = sorted({int(round(t.freq_hz * t2_points * dwell))
                       for line, partner, _ in lines for t in (line, partner)})
        win = np.outer(np.hanning(t1_points), np.hanning(t2_points))
        _, reference = pr._dj2_program(es, "f1", t2_points, dwell)
        _, ref = acq.t1_stack(reference, es, rho0, t1_points, dwell)
        for f in sorted(pr.DJ2_PATTERNS):       # f1 first
            _, program = pr._dj2_program(es, f, t2_points, dwell)
            data = acq.run_2d(program, es, rho0, t1_points, dwell).data
            want = _data_hann_magnitudes(data, rows, cols)
            full = np.abs(np.fft.fft2(data * win))
            wrapped = np.ix_(np.mod(rows, t1_points), np.mod(cols, t2_points))
            assert np.abs(want - full[wrapped]).max() <= 1e-12 * full.max()
            if f == "f1":
                ref_max = want.max()
            acquire, rho = acq.t1_stack(program, es, rho0, t1_points, dwell)
            _, got = acq.hann_peaks_2d(es, np.stack([ref, rho]), acquire,
                                       rows, cols)
            assert got.shape == (len(rows), len(cols))
            err = np.abs(got - want).max()
            assert err <= 1e-12 * ref_max, (f, t1_points, t2_points,
                                            err / ref_max)


@pytest.mark.parametrize("remap", [False, True])
def test_dj2_bin_magnitudes_match_fft2(demo3_es, remap):
    _check_bin_magnitudes(_remapped_demo3(demo3_es) if remap else demo3_es)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("seed", range(12))
def test_dj2_bin_magnitudes_match_fft2_random(seed):
    _check_bin_magnitudes(_random_3spin(seed))


@pytest.mark.parametrize("grid, message", [
    ((1, 1), "the 1x1 grid puts the diagonal and cross peaks of t6 in one column"),
    ((1, 2), "the 1x2 grid reads no reference signal at the input-qubit lines"),
    ((2, 1024), "the 2x1024 grid reads no reference signal at the "
                "input-qubit lines"),
    ((256, 2), "the 256x2 grid reads no reference signal at the "
               "input-qubit lines"),
])
def test_dj2_rejects_unreadable_grids(demo3_es, grid, message):
    # a 2-point Hann window is all zeros, and one t2 column cannot hold a
    # diagonal and a cross peak apart: no verdict, for every function
    for f in sorted(pr.DJ2_PATTERNS):
        with pytest.raises(pr.ProtocolError) as exc:
            pr.dj_two_qubit_2d(demo3_es, f, *grid)
        assert str(exc.value) == message
        assert _fft2_dj2(demo3_es, f, *grid) == message


@pytest.mark.parametrize("grid", [(1, 1), (1, 2), (3, 16), (32, 16),
                                  (64, 256), (256, 1024)])
def test_dj2_reports_match_fft2_classifier(demo3_es, grid):
    for f in sorted(pr.DJ2_PATTERNS):
        assert (_bin_dj2(demo3_es, f, *grid)
                == _fft2_dj2(demo3_es, f, *grid)), f


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("seed", range(12))
def test_dj2_reports_match_fft2_classifier_random(seed):
    es = _random_3spin(seed)
    for grid in ((256, 1024), (32, 64)):
        for f in sorted(pr.DJ2_PATTERNS):
            assert (_bin_dj2(es, f, *grid)
                    == _fft2_dj2(es, f, *grid)), (f, grid)


# ---------------------------------------------------------------------------
# the GHZ ladder and the coherence-order metrics against per-element loops

def _ladder_loop(es):
    """The ladder search as a loop over every candidate pair of states."""
    catalog = core.transition_catalog(es)
    i000, i111 = es.index_of_label("000"), es.index_of_label("111")
    i001 = es.index_of_label("001")
    best = None
    for x in range(es.dim):
        if es.mz[x] != 0.5 or x == i001:
            continue
        for y in range(es.dim):
            if es.mz[y] != -0.5:
                continue
            ta = catalog.by_pair(i000, x)
            tb = catalog.by_pair(x, y)
            tc = catalog.by_pair(y, i111)
            key = (-(ta.intensity * tb.intensity * tc.intensity), x, y)
            if best is None or key < best[0]:
                best = (key, (ta.tid, tb.tid, tc.tid))
    return best[1]


def _order_maxima_loop(es, rho):
    """Largest |rho[k, l]|, k != l, of coherence orders 0, 1 and 2, one
    element at a time."""
    by_order = {}
    for k in range(es.dim):
        for l in range(es.dim):
            if k == l:
                continue
            q = abs(int(round(es.mz[k] - es.mz[l])))
            by_order[q] = max(by_order.get(q, 0.0), abs(rho[k, l]))
    return [float(by_order.get(q, 0.0)) for q in (0, 1, 2)]


def _bits(values):
    return [float(v).hex() for v in values]


def _random_system(rng, n, weak):
    """A seeded oriented n-spin system; ``weak`` drops the dipolar couplings
    and truncates J, which makes every line intensity exactly 1."""
    offs = rng.uniform(-250, 250, n)
    j = np.triu(rng.uniform(-10, 10, (n, n)), 1)
    d = np.triu(rng.uniform(-250, 250, (n, n)), 1) * (not weak)
    sys_ = core.SpinSystem.create(f"r{n}", offs, j + j.T, d + d.T)
    return core.eigensystem(sys_, weak=weak)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_ghz_ladder_and_metrics_match_loops():
    rng = np.random.default_rng(1400)
    for case in range(200):
        # equal intensities in the weak cases leave the choice to the indices
        es = _random_system(rng, 3, weak=case % 4 == 3)
        ladder = tuple(t.tid for t in pr.find_ghz_ladder(es))
        assert ladder == _ladder_loop(es), case
        # threshold 0: every line is observable, so the protocol runs
        rep = pr.ghz_create(es, 0.0)
        assert rep.info["ladder"] == ",".join(f"t{tid}" for tid in ladder)
        got = [rep.metrics[k] for k in ("zq_offdiag_amplitude",
                                        "sq_amplitude", "dq_amplitude")]
        assert _bits(got) == _bits(_order_maxima_loop(es, rep.final_state)), case


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_epr_sq_amplitude_matches_loop():
    rng = np.random.default_rng(1401)
    for case in range(200):
        es = _random_system(rng, 2, weak=case % 4 == 3)
        rep = pr.epr_create(es)
        rho = rep.final_state
        sq = max(abs(rho[k, l]) for k in range(4) for l in range(4)
                 if abs(es.mz[k] - es.mz[l]) == 1)
        coeff, _ = dyn.pure_part(rep.final_state)
        scale = abs(coeff) if coeff != 0 else 1.0
        assert _bits([rep.metrics["sq_amplitude"]]) == _bits([sq / scale]), case


@pytest.mark.parametrize("n", [2, 3])
def test_order_maxima_match_loop_on_dense_matrices(n):
    # magnitudes spread over the whole float range, where hypot matters
    rng = np.random.default_rng(1402 + n)
    es = core.eigensystem(core.SpinSystem.create(
        "r", rng.uniform(-250, 250, n), np.zeros((n, n)), np.zeros((n, n))))
    for case in range(200):
        mat = (rng.standard_normal((es.dim, es.dim))
               + 1j * rng.standard_normal((es.dim, es.dim)))
        mat *= 10.0 ** rng.uniform(-300, 300, (es.dim, es.dim))
        assert (_bits(pr._order_maxima(es, mat, (0, 1, 2)))
                == _bits(_order_maxima_loop(es, mat))), case
