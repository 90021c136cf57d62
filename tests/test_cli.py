import contextlib
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    rho = dyn.parse_state((tmp_path / "epr.state").read_text(), es)
    perm = [es.index_of_label(l) for l in ("00", "01", "10", "11")]
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.abs(rho[np.ix_(perm, perm)] - eq12).max() <= 1e-10


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
        t = cat.by_id(1 + int(np.flatnonzero(abs(cat.freq_hz - f) < 1e-6)[0]))
        assert "00" in (es.labels[t.lower], es.labels[t.upper])
        diffs.append(a / t.intensity)
    assert diffs[0] == pytest.approx(diffs[1], rel=1e-9)


def test_run_unknown_transition(tmp_path, capsys):
    prog = tmp_path / "bad.pp"
    prog.write_text("selpulse t9 90 x\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "citrate.spin", str(prog),
                           "--out", str(tmp_path))
    assert code == 2
    assert err == f"{prog}:1:1: unknown transition t9\n"


def test_run_unbound_t1_names_the_delay_line(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "citrate.spin", "tomo_mq.pp",
                           "--out", str(tmp_path))
    assert code == 2
    assert err == "tomo_mq.pp:3:1: unresolved symbolic delay t1\n"


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


@pytest.mark.parametrize("out", [False, True])
def test_assign_formats_only_the_diagrams_it_shows(tmp_path, capsys,
                                                   monkeypatch, out):
    # eq13.cm read as 5 spins has 3 diagrams: without --out only the first is
    # printed, so only it is formatted; with --out each is, once, for its file
    from importlib import resources
    from spinsim import assignment as asg
    text = resources.files("spinsim").joinpath("data", "eq13.cm").read_text()
    diagrams = asg.reconstruct_levels(asg.parse_connectivity(text), 5).diagrams
    assert len(diagrams) == 3
    want = [asg.format_diagram(ld) for ld in diagrams]
    calls = []
    format_diagram = asg.format_diagram

    def counting(ld):
        calls.append(ld)
        return format_diagram(ld)

    monkeypatch.setattr(asg, "format_diagram", counting)
    argv = ("assign", "eq13.cm", "5") + (("--out", str(tmp_path)) if out else ())
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    header = "solutions 3 truncated 0\n"
    if out:
        assert len(calls) == 3
        assert stdout == header
        files = sorted(tmp_path.glob("diagram_*.levels"))
        assert [f.name for f in files] == [f"diagram_{i:03d}.levels"
                                           for i in (1, 2, 3)]
        assert [f.read_text(encoding="utf-8") for f in files] == want
    else:
        assert len(calls) == 1
        assert stdout == header + want[0]


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
    # the norms of this state overflow unless it is scaled first
    ("1 2 1e300 0\n", ": density matrix is not Hermitian"),
    ("1 2 1e308 0\n", ": density matrix is not Hermitian"),
])
def test_tomo_malformed_state_file(tmp_path, capsys, body, message):
    state = tmp_path / "f.state"
    state.write_text("dim 4\n" + body, encoding="utf-8")
    code, _, err = run_cli(capsys, "tomo", "citrate.spin", "--state", str(state),
                           "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert f"{state}{message}" in err


# Hermitian states whose norms overflow unless they are scaled first, with
# and without diagonal entries, and one near the largest float, whose
# peak-bin spectrum and symmetrized sum overflow too: each reports as its
# twin of unit scale
@pytest.mark.parametrize("body, big", [
    ("1 2 {x} 0\n2 1 {x} 0\n", "1e300"),
    ("1 1 {x} 0\n1 2 {x} 0\n2 1 {x} 0\n4 4 -{x} 0\n", "1e300"),
    ("1 2 {x} 0\n2 1 {x} 0\n", "1.7e308")],
    ids=["coherence", "with-populations", "coherence-near-max"])
def test_tomo_state_near_the_float_range(tmp_path, capsys, body, big):
    reports = []
    for x in (big, "1"):
        state = tmp_path / f"s{x}.state"
        state.write_text("dim 4\n" + body.format(x=x), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "tomo", "citrate.spin", "--state",
                                   str(state), "--out", str(tmp_path))
        assert code == 0
        reports.append(dict(line.split("=") for line in out.splitlines()[1:]))
    big, unit = reports
    assert float(big["fidelity"]) == pytest.approx(1.0, abs=1e-12)
    for key in unit:
        assert float(big[key]) == pytest.approx(float(unit[key]), abs=1e-12)


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


def test_dj2_reports_without_synthesizing_fids(tmp_path, capsys, monkeypatch):
    # the verdict comes from line amplitudes; the 2D dataset is synthesized
    # only for --write-2d
    from spinsim import acquisition as acq

    def refuse(*args, **kwargs):
        raise RuntimeError("synthesized a 2D dataset")

    monkeypatch.setattr(acq, "acquire_fid", refuse)
    monkeypatch.setattr(acq, "run_2d", refuse)
    code, out, err = run_cli(capsys, "protocol", "dj2:f5", "demo3.spin",
                             "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert "verdict=balanced\n" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dj2_f5.pp", "dj2_f5.report", "dj2_f5.state"]
    with pytest.raises(RuntimeError, match="synthesized a 2D dataset"):
        main(["protocol", "dj2:f5", "demo3.spin", "--write-2d",
              "--out", str(tmp_path)])


def test_tomo_reports_without_synthesizing_fids(tmp_path, capsys, monkeypatch):
    # the MQ inversion reads its peak bins from line amplitudes; the report
    # is the one the synthesized 256 x 1024 dataset gave
    from spinsim import acquisition as acq

    def refuse(*args, **kwargs):
        raise RuntimeError("synthesized a 2D dataset")

    monkeypatch.setattr(acq, "acquire_fid", refuse)
    monkeypatch.setattr(acq, "run_2d", refuse)
    code, out, err = run_cli(capsys, "tomo", "citrate.spin", "--protocol", "epr",
                             "--out", str(tmp_path))
    report = ("name=epr_tomo\nfidelity=0.99904758654\n"
              "scale_ratio=8.62369208584e-14\nunderdetermined=0\n")
    assert (code, out, err) == (0, report, "")
    assert (tmp_path / "epr_tomo.report").read_bytes() == report.encode()


@pytest.mark.parametrize("name, system, text", [
    ("pops:x", "citrate.spin", "'x'"),
    ("pops:", "citrate.spin", "''"),
    ("gate:abc", "compound1.spin", "'abc'"),
])
def test_protocol_non_integer_index(tmp_path, capsys, name, system, text):
    code, _, err = run_cli(capsys, "protocol", name, system, "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert f"index must be an integer, got {text}" in err


def test_eigen_overflowing_offset(tmp_path, capsys):
    # 2*pi*1e308 overflows to inf; the eigensolve must not print nan lines
    spin = tmp_path / "huge.spin"
    spin.write_text("nspins 2\noffset_hz 1e308 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eigen", str(spin))
    assert_one_line_error(code, err)
    assert "Hamiltonian has a non-finite entry" in err
    assert "nan" not in out


def test_assign_out_of_range_entry(tmp_path, capsys):
    cm = tmp_path / "big.cm"
    cm.write_text("0 99999999999999999999\n99999999999999999999 0\n",
                  encoding="utf-8")
    code, _, err = run_cli(capsys, "assign", str(cm), "2")
    assert_one_line_error(code, err)
    assert err == (f"spinsim: error: {cm}:1: entries must be -1, 0 or +1, "
                   "got 99999999999999999999\n")


def test_eigen_directory_argument(tmp_path, capsys):
    code, out, err = run_cli(capsys, "eigen", str(tmp_path))
    assert_one_line_error(code, err)
    assert err == f"spinsim: error: cannot read {str(tmp_path)!r}: Is a directory\n"
    assert out == ""


def test_run_out_names_an_existing_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "citrate.spin", "epr.pp",
                           "--out", str(target))
    assert_one_line_error(code, err)
    assert err == f"spinsim: error: cannot write {str(target)!r}: File exists\n"
    assert target.read_text(encoding="utf-8") == "keep\n"


def test_tomo_missing_state_file(tmp_path, capsys):
    missing = tmp_path / "missing.state"
    code, out, err = run_cli(capsys, "tomo", "citrate.spin", "--state",
                             str(missing), "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert err.startswith(f"spinsim: error: cannot find {str(missing)!r}")
    assert out == ""


def test_tomo_state_directory_argument(tmp_path, capsys):
    code, out, err = run_cli(capsys, "tomo", "citrate.spin", "--state",
                             str(tmp_path), "--out", str(tmp_path))
    assert_one_line_error(code, err)
    assert err == f"spinsim: error: cannot read {str(tmp_path)!r}: Is a directory\n"
    assert out == ""


def test_eigen_non_utf8_file(tmp_path, capsys):
    spin = tmp_path / "utf16.spin"
    spin.write_bytes(b"\xff\xfe" + "nspins 1\n".encode("utf-16-le"))
    code, out, err = run_cli(capsys, "eigen", str(spin))
    assert_one_line_error(code, err)
    assert err == (f"spinsim: error: cannot read {str(spin)!r}: "
                   "not UTF-8 text (byte 0)\n")
    assert out == ""


@pytest.mark.parametrize("name, body, message", [
    ("a.pp", "acquire \u00b2 0.001\n", "a.pp:1:9: malformed point count '\u00b2'"),
    ("b.pp", "selpulse t\u00b2 90 x\n",
     "b.pp:1:10: malformed transition reference 't\u00b2'"),
    ("c.state", "dim \u00b2\n",
     "spinsim: error: c.state:1: malformed header; expected 'dim <d>'"),
])
def test_unicode_digits_are_not_numbers(tmp_path, capsys, monkeypatch,
                                        name, body, message):
    # str.isdigit accepts the superscript 2, which int() rejects
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(body, encoding="utf-8")
    if name.endswith(".pp"):
        argv = ("run", "citrate.spin", name, "--out", "out")
    else:
        argv = ("tomo", "citrate.spin", "--state", name, "--out", "out")
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert err == message + "\n"
    assert out == ""


@pytest.mark.parametrize("argv, entry", [
    (("eigen", "nonexist/.."), "shipped systems entry"),
    (("run", "citrate.spin", "nonexist/.."), "shipped programs entry"),
    (("assign", "missing.cm", "3"), "shipped entry"),
    (("assign", "systems", "3"), "shipped entry"),
])
def test_shipped_lookup_misses(tmp_path, capsys, monkeypatch, argv, entry):
    # a name that is no file here nor a shipped file (a shipped directory,
    # the parent of a missing directory) cannot be found
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    path = argv[2] if argv[0] == "run" else argv[1]
    assert err == f"spinsim: error: cannot find {path!r} (not a file or {entry})\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("eigen",),
    ("eigen", "citrate.spin", "--threshold", "abc"),
    ("run", "citrate.spin", "pps00.pp", "--bogus"),
    ("assign", "eq13.cm", "three"),
    ("protocol", "ghz"),
    ("tomo", "citrate.spin"),
    ("tomo", "citrate.spin", "--protocol", "epr", "--state", "epr.state"),
    ("run", "citrate.spin", "pps00.pp", "--beta", "inf"),
    ("run", "citrate.spin", "pps00.pp", "--beta", "nan"),
    ("run", "citrate.spin", "tomo_mq.pp", "--t1", "nan"),
    ("tomo", "citrate.spin", "--protocol", "epr", "--beta", "0"),
    ("protocol", "ghz", "demo3.spin", "--beta", "5"),
    ("protocol", "dj2:f1", "demo3.spin", "--t2-points", "2"),
    ("protocol", "dj2:f1", "demo3.spin", "--t1-points", "1", "--t2-points", "1"),
    ("eigen", "citrate.spin", "--threshold", "1"),
    ("run", "citrate.spin", "pps00.pp", "--threshold", "0.1"),
    ("protocol", "pops:1", "citrate.spin", "--threshold", "-0.1"),
    ("tomo", "citrate.spin", "--protocol", "pops:1", "--threshold", "nan"),
])
def test_usage_errors_are_one_line(capsys, tmp_path, monkeypatch, argv):
    # argparse rejects misuse through SystemExit; a value that parses but
    # cannot be measured (a 0-degree detection pulse) returns the code
    monkeypatch.chdir(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert_one_line_error(code, err)
    assert err.startswith("spinsim: error: ")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("run", "citrate.spin", "epr.pp", "--init", "pure:22"),
     "no eigenstate labeled '22'"),
    (("protocol", "pops:9", "citrate.spin"), "unknown transition t9"),
])
def test_unknown_label_or_transition_is_one_line(tmp_path, capsys, argv,
                                                 message):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"spinsim: error: {message}\n")


def test_a_key_error_from_a_bug_is_not_caught(monkeypatch):
    from spinsim import cli

    def broken(es, init):
        raise KeyError("x")

    monkeypatch.setattr(cli, "_initial_state", broken)
    with pytest.raises(KeyError):
        main(["run", "citrate.spin", "pps00.pp"])


@pytest.mark.parametrize("argv", [
    ("protocol", "pops:3", "citrate.spin"),
    ("tomo", "citrate.spin", "--protocol", "pops:3"),
])
def test_threshold_reaches_the_protocols(tmp_path, capsys, argv):
    # t3 of citrate is observable at the default 5 % and not at 90 %
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--threshold", "0.9",
                             "--out", str(tmp_path / "b"))
    assert (code, out) == (2, "")
    assert err == "spinsim: error: transition t3 is not observable\n"


@pytest.mark.parametrize("name, system", [
    ("pps00", "citrate.spin"), ("pops:1", "citrate.spin"),
    ("dj1:f3", "citrate.spin"), ("epr", "citrate.spin"),
    ("ghz", "demo3.spin"), ("gate:5", "compound1.spin"),
    ("c3not", "demo4.spin"), ("c2swap", "demo4.spin"),
])
def test_write_2d_needs_a_2d_program(tmp_path, capsys, name, system):
    # --write-2d replays the emitted program, which must end in acquire;
    # every protocol but dj2 emits none, and nothing is written
    code, out, err = run_cli(capsys, "protocol", name, system, "--write-2d",
                             "--out", str(tmp_path / "out"))
    assert_one_line_error(code, err)
    assert err == ("spinsim: error: 2D program must end with an acquire "
                   "instruction\n")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--help",), ("tomo", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: spinsim")
    assert err == ""


def test_protocol_pops_files(tmp_path, capsys, citrate_es):
    # the files of a pops run: the pi pulse of the pair, equilibrium minus
    # the inverted state, and the population difference of the pair
    from spinsim import pulselang as pl
    es = citrate_es
    cat = core.transition_catalog(es)
    for tid in range(1, len(cat) + 1):
        t = cat.by_id(tid)
        pair = f"{es.labels[t.lower]},{es.labels[t.upper]}"
        text = f"selpulse ({pair}) 180 x\ngrad\n"
        eq = dyn.equilibrium_deviation(es)
        inv = pl.execute(pl.parse_program(text), es, eq)
        pops = np.real(np.diag(eq))
        report = (f"name=pops{tid}\nscale={pops[t.lower] - pops[t.upper]:.12g}\n"
                  f"pair={pair}\n")
        code, out, err = run_cli(capsys, "protocol", f"pops:{tid}",
                                 "citrate.spin", "--out", str(tmp_path))
        assert (code, out, err) == (0, report, "")
        assert (tmp_path / f"pops{tid}.pp").read_text(encoding="utf-8") == text
        assert (tmp_path / f"pops{tid}.report").read_text(encoding="utf-8") == report
        state = dyn.format_state(eq - inv)
        assert (tmp_path / f"pops{tid}.state").read_text(encoding="utf-8") == state


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    from spinsim import cli
    cli.cmd_eigen(cli.build_parser().parse_args(["eigen", "demo3.spin"]))
    fresh = capsys.readouterr().out
    code, weak, _ = run_cli(capsys, "eigen", "demo3.spin", "--weak")
    assert code == 0 and weak != fresh
    code, out, _ = run_cli(capsys, "eigen", "demo3.spin")
    assert code == 0 and out == fresh

    argv = ("run", "citrate.spin", "tomo_mq.pp", "--out", str(tmp_path))
    code, _, _ = run_cli(capsys, *argv, "--t1", "0.001")
    assert code == 0
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1 and "unresolved symbolic delay t1" in err



def _shipped_text(*parts):
    from importlib import resources
    return resources.files("spinsim").joinpath("data", *parts).read_text(
        encoding="utf-8")


# the command that reads each fuzzed file kind
_FUZZ_COMMANDS = {
    "spin": lambda path, out: ("eigen", path),
    "pp": lambda path, out: ("run", "citrate.spin", path, "--t1", "0.001",
                             "--out", out),
    "cm": lambda path, out: ("assign", path, "3", "--max-solutions", "4"),
    "state": lambda path, out: ("tomo", "citrate.spin", "--state", path,
                                "--t1-points", "8", "--t2-points", "8",
                                "--out", out),
}

_FUZZ_SNIPPETS = st.sampled_from([
    " ", "\n", "#", "-", ".", "0", "1", "7", "e", "e400", "nan", "inf", "-0",
    "1e-300", "99999999999999999999", "x", "y", "(", ")", ",", "t1", "t9",
    "nspins", "offset_hz", "j_hz", "d_hz", "dim", "pulse", "selpulse",
    "delay", "acquire", "cycle", "grad", "deg:", "\t", "\u00e9", "\x00",
    "\u00b2"])

_FUZZ_EDITS = st.lists(st.tuples(
    st.sampled_from(["insert", "delete", "replace", "dup_line", "truncate"]),
    st.integers(0, 10_000), st.integers(1, 12), _FUZZ_SNIPPETS),
    min_size=1, max_size=4)


def _mutate(text, edits):
    for op, pos, size, snippet in edits:
        pos %= len(text) + 1
        if op == "insert":
            text = text[:pos] + snippet + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + size:]
        elif op == "replace":
            text = text[:pos] + snippet + text[pos + size:]
        elif op == "dup_line":
            lines = text.splitlines(keepends=True) or [""]
            k = pos % len(lines)
            text = "".join(lines[:k + 1] + lines[k:])
        else:
            text = text[:pos]
    return text


@pytest.fixture(scope="module")
def fuzz_seeds(citrate_es):
    from spinsim import protocols as pr
    return {
        "spin": _shipped_text("systems", "demo3.spin"),
        "pp": _shipped_text("programs", "epr.pp") + "acquire 16 0.002\n",
        "cm": _shipped_text("eq13.cm"),
        "state": dyn.format_state(pr.epr_create(citrate_es).final_state),
    }


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_FUZZ_COMMANDS)), edits=_FUZZ_EDITS,
       where=st.sampled_from(["file", "file", "file", "missing", "directory",
                              "under_file", "not_utf8"]))
def test_cli_fuzz_exits_0_or_2_with_one_line(fuzz_seeds, tmp_path_factory,
                                             kind, edits, where):
    base = tmp_path_factory.mktemp("fuzz")
    path = base / f"input.{kind}"
    text = _mutate(fuzz_seeds[kind], edits)
    if where == "not_utf8":
        path.write_bytes(b"\xff\xfe" + text.encode("utf-8"))
    else:
        path.write_text(text, encoding="utf-8")
    target = {"missing": base / f"missing.{kind}", "directory": base,
              "under_file": path / f"x.{kind}"}.get(where, path)
    argv = _FUZZ_COMMANDS[kind](str(target), str(base / "out"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), (argv, text, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert_one_line_error(code, err.getvalue())
