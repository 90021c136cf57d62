import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import core, dynamics as dyn, pulselang as pl

EPR_TEXT = """# EPR with the eight-row cycle
cycle P1 P2
row x -x +
row -x x +
row y y +
row -y -y +
row x -x +
row -x x +
row y y +
row -y -y +
selpulse t2 90 $P1
selpulse t3 180 $P2
"""


def test_parse_single_instruction():
    prog = pl.parse_program("selpulse t3 90 x\n")
    assert len(prog.instructions) == 1
    ins = prog.instructions[0]
    assert ins.ref.tid == 3
    assert ins.angle_deg == 90.0
    assert ins.phase.degrees == 0.0


def test_parse_epr_cycle():
    prog = pl.parse_program(EPR_TEXT)
    assert len(prog.instructions) == 2
    assert len(prog.cycle.rows) == 8
    assert prog.cycle.slots == ("P1", "P2")
    assert prog.cycle.rows[0] == (0.0, 180.0)
    assert prog.cycle.rows[2] == (90.0, 90.0)


def test_parse_errors_carry_location():
    with pytest.raises(pl.PulseProgramError) as err:
        pl.parse_program("selpulse t3 ninety x\n", source="prog.pp")
    assert str(err.value).startswith("prog.pp:1:13:")
    with pytest.raises(pl.PulseProgramError, match="unknown instruction"):
        pl.parse_program("pulseify 90 x\n")
    with pytest.raises(pl.PulseProgramError, match="not defined in cycle") as err:
        pl.parse_program("grad\n selpulse t1 90 $P9\n", source="prog.pp")
    assert str(err.value).startswith("prog.pp:2:2:")
    with pytest.raises(pl.PulseProgramError, match="row before cycle"):
        pl.parse_program("row x y\n")
    with pytest.raises(pl.PulseProgramError, match="acquire must be") as err:
        pl.parse_program("acquire 64 0.001\ngrad\n", source="prog.pp")
    assert str(err.value).startswith("prog.pp:1:1:")
    for dwell in ("0", "-0.001"):
        with pytest.raises(pl.PulseProgramError, match="dwell must be positive") as err:
            pl.parse_program(f"grad\nacquire 16 {dwell}\n", source="prog.pp")
        assert str(err.value).startswith("prog.pp:2:12:")


@pytest.mark.parametrize("text, message", [
    ("delay 1 ms\n", "prog.pp:1:9: unexpected 'ms' after the arguments of delay"),
    ("grad x\n", "prog.pp:1:6: unexpected 'x' after the arguments of grad"),
    ("  pulse 90 x 45\n",
     "prog.pp:1:14: unexpected '45' after the arguments of pulse"),
    ("selpulse t1 90 x y # z\n",
     "prog.pp:1:18: unexpected 'y' after the arguments of selpulse"),
    ("grad\nacquire 8 0.001 16\n",
     "prog.pp:2:17: unexpected '16' after the arguments of acquire"),
    ("cycle P P\nrow x y\n", "prog.pp:1:9: duplicate phase slot 'P'"),
    ("cycle P1 P2\tP1\n", "prog.pp:1:13: duplicate phase slot 'P1'"),
    # U+3000 and U+00A0 separate tokens: str.isspace holds for both
    ("pulse\u3000ninety\u00a0x\n", "prog.pp:1:7: malformed angle 'ninety'"),
    # an explicit phase is a finite number of degrees, on a pulse line and
    # in a cycle row alike
    ("pulse 90 deg:nan\n", "prog.pp:1:10: non-finite phase 'deg:nan'"),
    ("selpulse t1 90 deg:inf\n", "prog.pp:1:16: non-finite phase 'deg:inf'"),
    ("cycle P Q\nrow x deg:-inf\npulse 90 P\npulse 90 Q\n",
     "prog.pp:2:7: non-finite phase 'deg:-inf'"),
    ("cycle P\nrow deg:NaN -\npulse 90 P\n",
     "prog.pp:2:5: non-finite phase 'deg:NaN'"),
    ("pulse 90 deg:ninety\n", "prog.pp:1:10: malformed phase 'deg:ninety'"),
])
def test_malformed_lines_rejected_at_the_token(text, message):
    with pytest.raises(pl.PulseProgramError) as err:
        pl.parse_program(text, source="prog.pp")
    assert str(err.value) == message


def test_comment_may_follow_the_arguments():
    prog = pl.parse_program("delay 1 # ms\ngrad# x\ncycle P Q #P\nrow x y\n")
    assert prog.instructions == (pl.Delay(seconds=1.0), pl.Grad())
    assert prog.cycle.slots == ("P", "Q")


def test_roundtrip_programs():
    for text in (
        EPR_TEXT,
        "pulse 90 -y\ngrad\ndelay 0.25\ndelay t1\nacquire 64 0.001\n",
        "selpulse (00,10) 70.5287793655 deg:12.5\n",
    ):
        prog = pl.parse_program(text)
        assert pl.parse_program(pl.format_program(prog)) == prog


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(
    ["selpulse t1 45 y", "selpulse (00,10) 90 -x", "pulse 10 x", "grad",
     "delay 0.001", "delay t1", "pulse 180 deg:33.25"]),
    min_size=0, max_size=8))
def test_roundtrip_random_programs(lines):
    text = "\n".join(lines) + "\n"
    prog = pl.parse_program(text)
    assert pl.parse_program(pl.format_program(prog)) == prog


def test_unknown_transition_rejected(citrate_es):
    prog = pl.parse_program("selpulse t9 90 x\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(pl.PulseProgramError, match="unknown transition"):
        pl.execute(prog, citrate_es, rho)
    prog = pl.parse_program("selpulse (000,001) 90 x\n")
    with pytest.raises(pl.PulseProgramError, match="unknown transition"):
        pl.execute(prog, citrate_es, rho)


@pytest.mark.parametrize("text, message", [
    ("selpulse t9 90 x\n", "prog.pp:1:1: unknown transition t9"),
    ("# comment\n\n  selpulse (000,001) 90 x\n",
     "prog.pp:3:3: unknown transition (000,001): labels 000,001 do not "
     "match a 2-spin system"),
    ("pulse 90 x\ndelay t1\n", "prog.pp:2:1: unresolved symbolic delay t1"),
    ("cycle P\nrow x\nrow y -\ngrad\n    delay t2\n",
     "prog.pp:5:5: unresolved symbolic delay t2"),
    ("cycle P\nrow x +\nrow y -\npulse 90 $P\nacquire 8 0.001\n",
     "prog.pp:5:1: acquire cannot be executed directly; use an acquisition "
     "runner"),
])
def test_runtime_errors_carry_location(citrate_es, text, message):
    prog = pl.parse_program(text, source="prog.pp")
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(pl.PulseProgramError) as err:
        pl.execute(prog, citrate_es, rho)
    assert str(err.value) == message


def test_one_runner():
    assert pl.execute_cycled is pl.execute
    assert "row" not in inspect.signature(pl.execute).parameters


def test_empty_program_is_identity(citrate_es):
    rho = dyn.equilibrium_deviation(citrate_es)
    out = pl.execute(pl.parse_program(""), citrate_es, rho)
    assert np.array_equal(out, rho)


def test_execution_is_compositional(citrate_es):
    text_a = "selpulse t1 70 y\ngrad\n"
    text_b = "pulse 90 -y\nselpulse t2 45 x\n"
    rho = dyn.equilibrium_deviation(citrate_es)
    combined = pl.execute(pl.parse_program(text_a + text_b),
                          citrate_es, rho)
    step = pl.execute(pl.parse_program(text_a), citrate_es, rho)
    step = pl.execute(pl.parse_program(text_b), citrate_es, step)
    assert np.abs(combined - step).max() <= 1e-14


def test_pseudopure_program_execution(citrate_es):
    from spinsim.protocols import THETA_THIRD_DEG
    text = (f"selpulse (10,11) {THETA_THIRD_DEG:.12g} x\ngrad\n"
            "selpulse (01,11) 90 x\ngrad\n")
    rho = pl.execute(pl.parse_program(text), citrate_es,
                     dyn.equilibrium_deviation(citrate_es))
    perm = [citrate_es.index_of_label(l) for l in ("00", "01", "10", "11")]
    pops = np.real(np.diag(rho))[perm]
    assert np.allclose(pops, [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)


def test_epr_program_from_pps(citrate_es):
    es = citrate_es
    prog = pl.parse_program(EPR_TEXT)
    # start from the pure |00> projector to compare with the textbook matrix
    p0 = np.zeros((4, 4), dtype=complex)
    i00 = es.index_of_label("00")
    p0[i00, i00] = 1.0
    out = pl.execute(prog, es, p0)
    perm = [es.index_of_label(l) for l in ("00", "01", "10", "11")]
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    # catalog ids: t2 = (01,11)?  the text uses paper ids; resolve by pair
    # instead through the label syntax for the real assertion
    text = ("cycle P1 P2\nrow x -x +\n"
            "selpulse (00,10) 90 $P1\nselpulse (10,11) 180 $P2\n")
    out = pl.execute(pl.parse_program(text), es, p0)
    assert np.abs(out[np.ix_(perm, perm)] - eq12).max() <= 1e-12


def test_identical_rows_cycle_equals_single(citrate_es):
    text = ("cycle P\nrow y +\nrow y +\nrow y +\n"
            "selpulse t1 90 $P\n")
    prog = pl.parse_program(text)
    rho = dyn.equilibrium_deviation(citrate_es)
    a = pl.execute(pl.parse_program("selpulse t1 90 y\n"), citrate_es, rho)
    b = pl.execute(prog, citrate_es, rho)
    assert np.abs(a - b).max() <= 1e-14


def test_receiver_weights(citrate_es):
    # +1 and -1 receivers on identical rows cancel exactly
    text = ("cycle P\nrow x +\nrow x -\n"
            "selpulse t1 90 $P\n")
    out = pl.execute(pl.parse_program(text), citrate_es,
                     dyn.equilibrium_deviation(citrate_es))
    assert np.abs(out).max() <= 1e-14


def test_symbolic_delay_binding(citrate_es):
    prog = pl.parse_program("delay t1\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(pl.PulseProgramError, match="unresolved symbolic"):
        pl.execute(prog, citrate_es, rho)
    out = pl.execute(prog, citrate_es, rho, t1=0.01)
    assert np.allclose(out, rho)  # diagonal state is invariant


def test_acquire_not_executable(citrate_es):
    prog = pl.parse_program("acquire 64 0.001\n")
    with pytest.raises(pl.PulseProgramError, match="acquire"):
        pl.execute(prog, citrate_es,
                   dyn.equilibrium_deviation(citrate_es))


# ---------------------------------------------------------------------------
# the branch walk of execute against running the rows one by one

def reference_execute(program, es, rho0, row=0, t1=None, t2=None):
    """Reference: the instructions applied one at a time to one cycle row,
    every unitary built anew."""
    rho = rho0.copy()
    for ins in program.instructions:
        if isinstance(ins, (pl.SelPulse, pl.HardPulse)):
            spec = ins.phase
            ph = (spec.degrees if spec.slot is None
                  else program.cycle.phase_of(spec.slot, row))
        if isinstance(ins, pl.SelPulse):
            lo, up = pl.resolve_transition(ins.ref, es)
            u = dyn.selective_pulse_unitary(es, lo, up, ins.angle_deg, ph)
            rho = dyn.apply_unitary(rho, u)
        elif isinstance(ins, pl.HardPulse):
            rho = dyn.apply_unitary(rho, dyn.hard_pulse_unitary(es, ins.angle_deg, ph))
        elif isinstance(ins, pl.Grad):
            rho = dyn.crush_gradient(rho)
        elif isinstance(ins, pl.Delay):
            secs = ins.seconds if ins.symbol is None else {"t1": t1, "t2": t2}[ins.symbol]
            rho = dyn.free_evolution(es, rho, secs)
        else:
            raise AssertionError(f"reference cannot run {ins}")
    return rho


def reference_cycled(program, es, rho0, t1=None, t2=None):
    """Reference: every cycle row run on its own, weighted by its receiver,
    stacked and averaged."""
    if program.cycle is None:
        return reference_execute(program, es, rho0, t1=t1, t2=t2)
    mats = [recv * reference_execute(program, es, rho0, row, t1, t2)
            for row, recv in enumerate(program.cycle.receivers)]
    return np.mean(np.stack(mats), axis=0)


def assert_same_bits(got, want):
    """Equal bit patterns, so the signs of zeros count too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def resolved_phases(program, row):
    """The phase each instruction resolves in cycle row ``row``, None for
    an instruction without one."""
    return tuple(
        None if spec is None
        else spec.degrees if spec.slot is None
        else program.cycle.phase_of(spec.slot, row)
        for spec in (getattr(ins, "phase", None)
                     for ins in program.instructions))


def branches_merge(program):
    """Whether a suffix class is not a prefix class: two rows resolve the
    same phases from some instruction k on but not before it, so
    execute may sum their states ahead of k."""
    if program.cycle is None:
        return False
    seqs = {resolved_phases(program, r) for r in range(len(program.cycle.rows))}
    return any(a[k:] == b[k:] and a[:k] != b[:k]
               for a in seqs for b in seqs
               for k in range(1, len(program.instructions)))


def assert_tree_matches_rows(program, es, rho0, t1=None):
    """Within 1e-13 * rows * max|rho0| of the rows run one by one, and the
    same bits when no two branches can merge."""
    got = pl.execute(program, es, rho0, t1=t1)
    want = reference_cycled(program, es, rho0, t1=t1)
    if not branches_merge(program):
        assert_same_bits(got, want)
    rows = 1 if program.cycle is None else len(program.cycle.rows)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-13 * rows * np.abs(rho0).max()


_T1 = np.array([0.0, 4e-4, 1.3e-3])
_PHASES = ("x", "y", "-x", "-y", "deg:33.25")


@functools.cache
def strongly_coupled(n):
    """Eigensystem of a fixed strongly coupled n-spin system."""
    rng = np.random.default_rng(100 + n)
    j = np.triu(rng.uniform(-40, 40, (n, n)), 1)
    d = np.triu(rng.uniform(-150, 150, (n, n)), 1)
    es = core.eigensystem(core.SpinSystem.create(
        f"s{n}", rng.uniform(-200, 200, n), j + j.T, d + d.T))
    return es


def random_state(es, seed):
    """A dense Hermitian traceless state, so that every element carries a
    value (and a sign) through the pulses."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(es.dim, es.dim)) + 1j * rng.normal(size=(es.dim, es.dim))
    h = a + a.conj().T
    h -= np.trace(h) / es.dim * np.eye(es.dim)
    return h


@st.composite
def cycled_cases(draw):
    """(spin count, program text, state seed or None): a phase cycle of 1-2
    slots whose rows often repeat, and pulses of fixed or slot phase
    mixed with crushers, numeric delays and t1 delays."""
    n = draw(st.integers(1, 4))
    slots = [f"P{i}" for i in range(1, draw(st.integers(1, 2)) + 1)]
    rows = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(_PHASES), min_size=len(slots),
                 max_size=len(slots)),
        st.sampled_from("+-")), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows += rows
    phase = st.sampled_from(_PHASES + tuple(f"${s}" for s in slots))
    angle = st.sampled_from(["90", "180", "45", "70.5287793655", "313.7"])
    tid = st.integers(1, math.comb(2 * n, n - 1))
    line = st.one_of(
        st.builds("selpulse t{} {} {}".format, tid, angle, phase),
        st.builds("pulse {} {}".format, angle, phase),
        st.just("grad"), st.just("delay 0.00123"), st.just("delay t1"))
    lines = ["cycle " + " ".join(slots)]
    lines += ["row " + " ".join(phases) + " " + recv for phases, recv in rows]
    lines += draw(st.lists(line, max_size=7))
    seed = draw(st.none() | st.integers(0, 2**16))
    return n, "\n".join(lines) + "\n", seed


@settings(max_examples=80, deadline=None)
@given(cycled_cases())
def test_prefix_tree_equals_rows_one_by_one(case):
    n, text, seed = case
    es = strongly_coupled(n)
    rho0 = dyn.equilibrium_deviation(es) if seed is None else random_state(es, seed)
    assert_tree_matches_rows(pl.parse_program(text), es, rho0, t1=_T1)


def _shipped_program(name):
    from importlib import resources
    text = resources.files("spinsim").joinpath(
        "data", "programs", name).read_text(encoding="utf-8")
    prog = pl.parse_program(text, source=name)
    if prog.instructions and isinstance(prog.instructions[-1], pl.Acquire):
        prog = pl.PulseProgram(prog.instructions[:-1], prog.cycle)
    return prog


def test_prefix_tree_shipped_programs(citrate_es, demo3_es):
    p0 = np.zeros((4, 4), dtype=complex)
    p0[citrate_es.index_of_label("00"), citrate_es.index_of_label("00")] = 1.0
    # EPR's rows differ in their last phase and tomo_mq has no cycle, so
    # these two keep every bit; GHZ's rows sum once they share P2 or P3
    assert not branches_merge(_shipped_program("epr.pp"))
    assert branches_merge(_shipped_program("ghz.pp"))
    assert_tree_matches_rows(_shipped_program("epr.pp"), citrate_es,
                             p0)
    assert_tree_matches_rows(_shipped_program("ghz.pp"), demo3_es,
                             random_state(demo3_es, 3))
    assert_tree_matches_rows(_shipped_program("tomo_mq.pp"), citrate_es,
                             random_state(citrate_es, 4), t1=_T1)


# rows 1 and 2 are identical and row 3 has the - receiver; a slot-phased
# hard pulse follows the first branch and a fixed-phase one comes twice
SPIN8_CYCLED = """\
cycle P1 P2
row x y +
row x y +
row -x y -
row y -y +
pulse 90 y
selpulse t1 90 $P1
pulse 45 $P2
grad
selpulse t3 180 x
pulse 30 -x
delay 0.0007
selpulse t2 60 $P2
pulse 30 -x
"""


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_prefix_tree_eight_spins():
    es = strongly_coupled(8)
    prog = pl.parse_program(SPIN8_CYCLED)
    assert_tree_matches_rows(prog, es, dyn.equilibrium_deviation(es))
    assert_tree_matches_rows(prog, es, random_state(es, 8))


# the shape of the bench's phase-cycled programs: from the crusher on
# only P1 differs, and after the second hard pulse nothing does
BIGSPIN_SHAPED = """\
cycle P1 P2
row x y +
row -x y -
row y -y +
row x -x -
row -y x +
row x y -
row y x +
row -x -x +
pulse 73.5 $P1
selpulse t4 90 x
selpulse t2 120 $P2
delay 0.0012
grad
selpulse t5 60 $P1
pulse 151.25 -y
delay 0.0031
selpulse t3 45 y
"""


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_summed_branches_run_the_last_hard_pulse_once(monkeypatch):
    es = strongly_coupled(8)
    prog = pl.parse_program(BIGSPIN_SHAPED)
    rho0 = random_state(es, 21)
    want = reference_cycled(prog, es, rho0)
    angles, applied = {}, []
    build, apply = dyn.hard_pulse_unitary, dyn.apply_unitary

    def counted_build(es, angle_deg, phase_deg):
        u = build(es, angle_deg, phase_deg)
        angles[id(u)] = angle_deg
        return u

    def counted_apply(rho, u):
        applied.append(angles[id(u)])
        return apply(rho, u)

    monkeypatch.setattr(dyn, "hard_pulse_unitary", counted_build)
    monkeypatch.setattr(dyn, "apply_unitary", counted_apply)
    got = pl.execute(prog, es, rho0)
    # once per P1 value (x, -x, y, -y) before the crusher, once after it
    assert sorted(applied) == [73.5] * 4 + [151.25]
    assert len(angles) == 5
    assert np.abs(got - want).max() <= 1e-13 * 8 * np.abs(rho0).max()


def test_slot_phased_hard_pulse_built_once_per_phase(citrate_es, monkeypatch):
    built = []
    build = dyn.hard_pulse_unitary

    def counted_build(es, angle_deg, phase_deg):
        built.append((angle_deg, phase_deg))
        return build(es, angle_deg, phase_deg)

    monkeypatch.setattr(dyn, "hard_pulse_unitary", counted_build)
    # rows 1 and 3 sum ahead of the hard pulse; row 2 keeps its own branch
    # through it, with the same phase
    prog = pl.parse_program("cycle P1 P2 P3\n"
                            "row x y x +\nrow -x y -x -\nrow y y x +\n"
                            "selpulse t1 90 $P1\npulse 45 $P2\n"
                            "selpulse t2 90 $P3\n")
    pl.execute(prog, citrate_es, dyn.equilibrium_deviation(citrate_es))
    assert built == [(45.0, 90.0)]
