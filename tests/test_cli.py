import re

import numpy as np
import pytest

from spinsim import core, dynamics as dyn
from spinsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eigen_citrate(capsys):
    code, out, err = run_cli(capsys, "eigen", "citrate.spin")
    assert code == 0
    assert "theta_ab 7.6 deg" in out
    assert "observable 4 of 4" in out
    assert "level 1 label 00" in out


def test_eigen_demo3_nine_observable(capsys):
    code, out, _ = run_cli(capsys, "eigen", "demo3.spin")
    assert code == 0
    assert "observable 9 of 15" in out


def test_eigen_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.spin"
    bad.write_text("nspins two\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eigen", str(bad))
    assert code == 2
    assert err.startswith("spinsim: error:")
    assert "malformed" in err


def test_eigen_missing_file(capsys):
    code, _, err = run_cli(capsys, "eigen", "nope.spin")
    assert code == 2
    assert "spinsim: error:" in err


def test_run_epr_program_matches_eq12(tmp_path, capsys, citrate_es):
    code, _, _ = run_cli(capsys, "run", "citrate.spin", "epr.pp",
                         "--init", "pure:00", "--out", str(tmp_path))
    assert code == 0
    es = citrate_es
    rho = dyn.load_state(tmp_path / "epr.state", es)
    perm = [es.index_of_label(l) for l in ("00", "01", "10", "11")]
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.abs(rho.mat[np.ix_(perm, perm)] - eq12).max() <= 1e-10


def test_run_pps_spectrum_two_lines_equal_differences(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "run", "citrate.spin", "pps00.pp",
                         "--out", str(tmp_path))
    assert code == 0
    rows = [r for r in (tmp_path / "pps00.spectrum").read_text().splitlines()
            if r]
    amps = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    live = {f: a for f, a in amps.items() if abs(a) > 1e-9}
    assert len(live) == 2
    # the two surviving lines share the same population difference; their
    # raw amplitudes differ by the strong-coupling intensity factor
    from importlib import resources
    es = core.eigensystem(core.parse_spin_system(resources.files("spinsim")
                          .joinpath("data", "systems", "citrate.spin")
                          .read_text(encoding="utf-8")))
    cat = core.transition_catalog(es)
    diffs = []
    for f, a in live.items():
        t = next(t for t in cat.entries if abs(t.freq_hz - f) < 1e-6)
        assert "00" in (es.labels[t.lower], es.labels[t.upper])
        diffs.append(a / t.intensity)
    assert diffs[0] == pytest.approx(diffs[1], rel=1e-9)


def test_run_unknown_transition(tmp_path, capsys):
    prog = tmp_path / "bad.pp"
    prog.write_text("selpulse t9 90 x\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "citrate.spin", str(prog),
                           "--out", str(tmp_path))
    assert code == 2
    assert "unknown transition" in err


def test_run_outputs_deterministic(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        code, _, _ = run_cli(capsys, "run", "citrate.spin", "epr.pp",
                             "--out", str(d))
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outs[0] == outs[1]


def test_protocol_ghz(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "protocol", "ghz", "demo3.spin",
                           "--out", str(tmp_path))
    assert code == 0
    assert "tq_amplitude=0.5\n" in out
    assert (tmp_path / "ghz.pp").exists()
    assert (tmp_path / "ghz.state").exists()
    assert (tmp_path / "ghz.report").exists()


def test_protocol_gate(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "protocol", "gate:7", "compound1.spin",
                           "--out", str(tmp_path))
    assert code == 0
    assert "truth_table_ok=1" in out


def test_protocol_unknown(tmp_path, capsys):
    code, _, err = run_cli(capsys, "protocol", "teleport", "citrate.spin",
                           "--out", str(tmp_path))
    assert code == 2
    assert "unknown protocol" in err


def test_assign_eq13(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "assign", "eq13.cm", "3",
                           "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("solutions 1")
    files = list(tmp_path.glob("diagram_*.levels"))
    assert len(files) == 1
    assert "edge 1 " in files[0].read_text()


def test_assign_unsatisfiable(tmp_path, capsys):
    cm = tmp_path / "bad.cm"
    cm.write_text("0 1 1\n1 0 1\n1 1 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "assign", str(cm), "2")
    assert code == 2
    assert "unsatisfiable" in err
    assert "1,2,3" in err


@pytest.mark.parametrize("argv, text", [
    (("0",), "the number of spins must be at least 1, got 0"),
    (("-1",), "the number of spins must be at least 1, got -1"),
    (("3", "--max-solutions", "0"), "max_solutions must be at least 1, got 0"),
    (("3", "--max-solutions", "-2"), "max_solutions must be at least 1, got -2"),
])
def test_assign_invalid_arguments(tmp_path, capsys, argv, text):
    code, out, err = run_cli(capsys, "assign", "eq13.cm", *argv,
                             "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"spinsim: error: {text}\n"
    assert list(tmp_path.iterdir()) == []


def test_tomo_epr(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tomo", "citrate.spin",
                           "--protocol", "epr", "--out", str(tmp_path),
                           "--t1-points", "128", "--t2-points", "256")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("fidelity=")][0]
    assert float(line.split("=")[1]) >= 0.99
    assert (tmp_path / "epr_tomo.state").exists()
    assert (tmp_path / "epr_tomo.coherences").exists()


def assert_one_line_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert (lines[0].startswith("spinsim: error:")
            or re.match(r".+:\d+:\d+: ", lines[0]))


@pytest.mark.parametrize("body, message", [
    ("5 5 1 0\n", ":2: index (5, 5) outside 1..4"),
    ("1 1 one 0\n", ":2: malformed entry"),
    ("1 1 1\n", ":2: malformed entry"),
    ("1 1 nan 0\n", ":2: malformed entry"),
    ("1 2 1 0\n", ": density matrix is not Hermitian"),
])
def test_tomo_malformed_state_file(tmp_path, capsys, body, message):
    state = tmp_path / "f.state"
    state.write_text("dim 4\n" + body, encoding="utf-8")
    code, _, err = run_cli(capsys, "tomo", "citrate.spin", "--state", str(state),
                           "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert f"{state}{message}" in err


@pytest.mark.parametrize("dwell", ["0", "-0.001"])
def test_run_nonpositive_acquire_dwell(tmp_path, capsys, dwell):
    prog = tmp_path / "bad.pp"
    prog.write_text(f"pulse 90 x\nacquire 16 {dwell}\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "citrate.spin", str(prog),
                           "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert err.startswith(f"{prog}:2:12: dwell must be positive")


@pytest.mark.parametrize("argv", [
    ("tomo", "citrate.spin", "--protocol", "epr"),
    ("protocol", "dj2:f1", "demo3.spin"),
])
@pytest.mark.parametrize("points", ["0", "-4"])
def test_too_few_t1_points(tmp_path, capsys, argv, points):
    code, _, err = run_cli(capsys, *argv, "--t1-points", points,
                           "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert "t1 points must be at least 1" in err


@pytest.mark.parametrize("name, system, text", [
    ("pops:x", "citrate.spin", "'x'"),
    ("pops:", "citrate.spin", "''"),
    ("gate:abc", "compound1.spin", "'abc'"),
])
def test_protocol_non_integer_index(tmp_path, capsys, name, system, text):
    code, _, err = run_cli(capsys, "protocol", name, system, "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert f"index must be an integer, got {text}" in err
