import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import dynamics as dyn, pulselang as pl

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
    with pytest.raises(pl.PulseProgramError, match="not defined in cycle"):
        pl.parse_program("selpulse t1 90 $P9\n")
    with pytest.raises(pl.PulseProgramError, match="row before cycle"):
        pl.parse_program("row x y\n")
    with pytest.raises(pl.PulseProgramError, match="acquire must be"):
        pl.parse_program("acquire 64 0.001\ngrad\n")
    for dwell in ("0", "-0.001"):
        with pytest.raises(pl.PulseProgramError, match="dwell must be positive") as err:
            pl.parse_program(f"grad\nacquire 16 {dwell}\n", source="prog.pp")
        assert str(err.value).startswith("prog.pp:2:12:")


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


def test_unknown_transition_rejected(citrate_es, citrate_cat):
    prog = pl.parse_program("selpulse t9 90 x\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(pl.PulseProgramError, match="unknown transition"):
        pl.execute(prog, citrate_es, rho, citrate_cat)
    prog = pl.parse_program("selpulse (000,001) 90 x\n")
    with pytest.raises(pl.PulseProgramError, match="unknown transition"):
        pl.execute(prog, citrate_es, rho, citrate_cat)


def test_empty_program_is_identity(citrate_es, citrate_cat):
    rho = dyn.equilibrium_deviation(citrate_es)
    out = pl.execute(pl.parse_program(""), citrate_es, rho, citrate_cat)
    assert np.array_equal(out.mat, rho.mat)


def test_execution_is_compositional(citrate_es, citrate_cat):
    text_a = "selpulse t1 70 y\ngrad\n"
    text_b = "pulse 90 -y\nselpulse t2 45 x\n"
    rho = dyn.equilibrium_deviation(citrate_es)
    combined = pl.execute(pl.parse_program(text_a + text_b),
                          citrate_es, rho, citrate_cat)
    step = pl.execute(pl.parse_program(text_a), citrate_es, rho, citrate_cat)
    step = pl.execute(pl.parse_program(text_b), citrate_es, step, citrate_cat)
    assert np.abs(combined.mat - step.mat).max() <= 1e-14


def test_pseudopure_program_execution(citrate_es, citrate_cat):
    from spinsim.protocols import THETA_THIRD_DEG
    text = (f"selpulse (10,11) {THETA_THIRD_DEG:.12g} x\ngrad\n"
            "selpulse (01,11) 90 x\ngrad\n")
    rho = pl.execute(pl.parse_program(text), citrate_es,
                     dyn.equilibrium_deviation(citrate_es), citrate_cat)
    perm = [citrate_es.index_of_label(l) for l in ("00", "01", "10", "11")]
    pops = rho.populations()[perm]
    assert np.allclose(pops, [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)


def test_epr_program_from_pps(citrate_es, citrate_cat):
    es = citrate_es
    prog = pl.parse_program(EPR_TEXT)
    # start from the pure |00> projector to compare with the textbook matrix
    p0 = np.zeros((4, 4), dtype=complex)
    i00 = es.index_of_label("00")
    p0[i00, i00] = 1.0
    out = pl.execute(prog, es, dyn.DeviationDensityMatrix(p0, es), citrate_cat)
    perm = [es.index_of_label(l) for l in ("00", "01", "10", "11")]
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    # catalog ids: t2 = (01,11)?  the text uses paper ids; resolve by pair
    # instead through the label syntax for the real assertion
    text = ("cycle P1 P2\nrow x -x +\n"
            "selpulse (00,10) 90 $P1\nselpulse (10,11) 180 $P2\n")
    out = pl.execute_cycled(pl.parse_program(text), es,
                            dyn.DeviationDensityMatrix(p0, es), citrate_cat)
    assert np.abs(out.mat[np.ix_(perm, perm)] - eq12).max() <= 1e-12


def test_single_row_cycle_equals_execute(citrate_es, citrate_cat):
    text = ("cycle P\nrow y +\n"
            "selpulse t1 90 $P\npulse 45 x\n")
    prog = pl.parse_program(text)
    rho = dyn.equilibrium_deviation(citrate_es)
    a = pl.execute(prog, citrate_es, rho, citrate_cat)
    b = pl.execute_cycled(prog, citrate_es, rho, citrate_cat)
    assert np.array_equal(a.mat, b.mat)


def test_identical_rows_cycle_equals_single(citrate_es, citrate_cat):
    text = ("cycle P\nrow y +\nrow y +\nrow y +\n"
            "selpulse t1 90 $P\n")
    prog = pl.parse_program(text)
    rho = dyn.equilibrium_deviation(citrate_es)
    a = pl.execute(prog, citrate_es, rho, citrate_cat)
    b = pl.execute_cycled(prog, citrate_es, rho, citrate_cat)
    assert np.abs(a.mat - b.mat).max() <= 1e-14


def test_receiver_weights(citrate_es, citrate_cat):
    # +1 and -1 receivers on identical rows cancel exactly
    text = ("cycle P\nrow x +\nrow x -\n"
            "selpulse t1 90 $P\n")
    out = pl.execute_cycled(pl.parse_program(text), citrate_es,
                            dyn.equilibrium_deviation(citrate_es), citrate_cat)
    assert np.abs(out.mat).max() <= 1e-14


def test_symbolic_delay_binding(citrate_es, citrate_cat):
    prog = pl.parse_program("delay t1\n")
    rho = dyn.equilibrium_deviation(citrate_es)
    with pytest.raises(pl.PulseProgramError, match="unresolved symbolic"):
        pl.execute(prog, citrate_es, rho, citrate_cat)
    out = pl.execute(prog, citrate_es, rho, citrate_cat, t1=0.01)
    assert np.allclose(out.mat, rho.mat)  # diagonal state is invariant


def test_acquire_not_executable(citrate_es, citrate_cat):
    prog = pl.parse_program("acquire 64 0.001\n")
    with pytest.raises(pl.PulseProgramError, match="acquire"):
        pl.execute(prog, citrate_es,
                   dyn.equilibrium_deviation(citrate_es), citrate_cat)
