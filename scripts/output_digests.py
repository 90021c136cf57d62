#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed set of CLI runs.

Each case runs in-process through ``spinsim.cli.main`` with its own output
directory under a temporary directory.  One ``sha256  name`` line is printed
per written file, per captured stdout and stderr and per exit code, in a
fixed order.  The temporary directory is replaced by ``<out>`` in captured
text, and warnings are captured as ``Category: message`` lines (without the
source location), so two checkouts that behave the same print the same
lines.  Inputs that are not shipped with the package (6- and 8-spin
systems, a 90-degree-pulse FID program, a phase-cycled program, a full
5-spin and a thresholded 4-spin connectivity matrix, a program naming a
missing transition, a file that is not UTF-8, a 1-spin system with a
program of selective pulses, and a 2-spin system whose eigenstate labels
conflict) are written from
the literals below into an ``inputs`` directory of the temporary directory
first; ``{in}`` in an argv names it.  A case may read what an earlier case
wrote, through ``{out}/../<earlier case>``.  BLAS runs on one thread, so
the digests do not depend on the core count.  Diff the output of two
checkouts to prove a change byte-identical:

    python3 scripts/output_digests.py > after.txt

The exit status is 1 if any case raised an exception, 0 otherwise.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile
import traceback
import warnings

# one BLAS thread, set before numpy loads: threaded BLAS sums in an order
# that depends on the core count, and the noise-floor digits of the
# tomography outputs follow it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinsim.cli import main as cli_main  # noqa: E402

SPIN8 = """\
name spin8
nspins 8
offset_hz 410.5 -275.25 130.75 -45.5 362.125 -190 15.375 -330.625
j_hz 1 2 12.5
j_hz 1 3 -3.25
j_hz 2 3 8.75
j_hz 3 4 15
j_hz 4 5 -6.5
j_hz 5 6 11.25
j_hz 6 7 4
j_hz 7 8 9.5
j_hz 1 8 -2.75
d_hz 1 2 85
d_hz 2 4 -120.5
d_hz 3 5 60.25
d_hz 5 7 -45.75
d_hz 6 8 140
"""

SPIN6 = """\
name spin6
nspins 6
offset_hz 320.5 -210.25 95.75 -140.5 250.125 -30
j_hz 1 2 7.5
j_hz 2 3 -4.25
j_hz 3 4 12
j_hz 4 5 3.5
j_hz 5 6 -9.75
j_hz 1 6 6.25
d_hz 1 3 -75.5
d_hz 2 5 110.25
d_hz 4 6 -55
d_hz 1 4 35.75
"""

# a 90 degree pulse on equilibrium: every single-quantum line carries signal
FID90 = """\
pulse 90 y
acquire 1024 0.0002
"""


def full_connectivity(manifold_sizes, stride):
    """Connectivity-matrix text of every level pair across adjacent M_z
    manifolds: +1 when two pairs share a level in a row, -1 when they share
    a top or bottom level.  Pair i of the file is pair (i * stride) mod T of
    the manifold-major list, so the file order is not the level order."""
    starts = [sum(manifold_sizes[:k]) for k in range(len(manifold_sizes))]
    pairs = [(lo, up)
             for k in range(len(manifold_sizes) - 1)
             for lo in range(starts[k], starts[k] + manifold_sizes[k])
             for up in range(starts[k + 1], starts[k + 1] + manifold_sizes[k + 1])]
    count = len(pairs)
    pairs = [pairs[(i * stride) % count] for i in range(count)]
    rows = []
    for alo, aup in pairs:
        row = []
        for blo, bup in pairs:
            if (alo, aup) == (blo, bup):
                row.append(0)
            elif aup == blo or bup == alo:
                row.append(1)
            elif alo == blo or aup == bup:
                row.append(-1)
            else:
                row.append(0)
        rows.append(" ".join(f"{v:2d}" for v in row))
    return "\n".join(rows) + "\n"


# a phase cycle on 8 spins: rows 1 and 2 are identical, row 3 has the -
# receiver, a slot-phased hard pulse follows the first branch and the
# fixed-phase hard pulse comes twice
CYCLED8 = """\
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


# the Z-COSY connectivity of the 17 lines above 0.3 of the maximum
# intensity in a random oriented 4-spin system: four level diagrams fit it
THRESHOLDED4 = """\
 0  0  1  0  0  0  1  0  0  0  0 -1  0  0  0  0  0
 0  0  0  0  1  1  0  1  0  0  0 -1  0  0  0 -1  0
 1  0  0  1  0  0  0 -1  0  0  0  0  0  0  0  0  0
 0  0  1  0  0  0  0  1  0 -1  0  0  0  0  0  0  0
 0  1  0  0  0  0 -1  0  0  0  0  0  0  0  0  1  0
 0  1  0  0  0  0  0 -1  0  1  0  1  0  0  0  0  0
 1  0  0  0 -1  0  0  0  0  0  0  1  0  0  0  0  0
 0  1 -1  1  0 -1  0  0  0  0  0  1  0  0  0  0  0
 0  0  0  0  0  0  0  0  0  0  1  0  0  0  0  0  0
 0  0  0 -1  0  1  0  0  0  0  0  0  0  0  0  0  0
 0  0  0  0  0  0  0  0  1  0  0  0  0  0  0  0  0
-1 -1  0  0  0  1  1  1  0  0  0  0  0  0  0  0  0
 0  0  0  0  0  0  0  0  0  0  0  0  0  1 -1  0  0
 0  0  0  0  0  0  0  0  0  0  0  0  1  0  0  0 -1
 0  0  0  0  0  0  0  0  0  0  0  0 -1  0  0  0  1
 0 -1  0  0  1  0  0  0  0  0  0  0  0  0  0  0  0
 0  0  0  0  0  0  0  0  0  0  0  0  0 -1  1  0  0
"""

# a transition id past the 4 lines of a 2-spin system
UNKNOWN_T9 = """\
selpulse t9 90 x
"""

# one spin: the selective pulses act on the whole 2 x 2 state
SPIN1 = """\
name spin1
nspins 1
offset_hz 137.25
"""

SELPULSE1 = """\
selpulse t1 90 x
delay 0.0013
selpulse t1 45 deg:33.25
delay 0.0007
selpulse t1 -90 y
"""

# equal offsets: the two M_z = 0 eigenstates overlap 01 and 10 alike, so
# labeling resolves one conflict and warns
CONFLICT2 = """\
name conflict2
nspins 2
offset_hz 50 50
j_hz 1 2 10
"""


INPUTS = {
    "spin6.spin": SPIN6,
    "spin8.spin": SPIN8,
    "fid90.pp": FID90,
    "cycled8.pp": CYCLED8,
    "thresholded4.cm": THRESHOLDED4,
    "unknown_t9.pp": UNKNOWN_T9,
    "spin1.spin": SPIN1,
    "selpulse1.pp": SELPULSE1,
    "conflict2.spin": CONFLICT2,
    # all 210 single-quantum pairs of 5 spins (manifolds of 1, 5, 10, 10, 5, 1)
    "full5.cm": full_connectivity((1, 5, 10, 10, 5, 1), 97),
    # a UTF-16 byte-order mark: the CLI must reject it with one error line
    "utf16.spin": b"\xff\xfe" + "nspins 1\n".encode("utf-16-le"),
}

# (case name, argv); "{out}" is the case's output directory.
CASES = [
    # the examples of README "Command line"
    ("eigen_citrate", ["eigen", "citrate.spin"]),
    ("eigen_demo3", ["eigen", "demo3.spin"]),
    ("run_pps00", ["run", "citrate.spin", "pps00.pp", "--out", "{out}"]),
    ("run_epr", ["run", "citrate.spin", "epr.pp", "--init", "pure:00",
                 "--out", "{out}"]),
    ("protocol_ghz", ["protocol", "ghz", "demo3.spin", "--out", "{out}"]),
    ("protocol_dj2_f5", ["protocol", "dj2:f5", "demo3.spin", "--out", "{out}"]),
    ("protocol_gate7", ["protocol", "gate:7", "compound1.spin",
                        "--out", "{out}"]),
    ("assign_eq13", ["assign", "eq13.cm", "3", "--out", "{out}"]),
    ("tomo_epr", ["tomo", "citrate.spin", "--protocol", "epr",
                  "--out", "{out}"]),
    ("tomo_c2swap", ["tomo", "demo4.spin", "--protocol", "c2swap",
                     "--out", "{out}"]),
    # 2D exports, FID/FFT files and the other tomography paths
    ("protocol_dj2_f1_2d", ["protocol", "dj2:f1", "demo3.spin", "--write-2d",
                            "--out", "{out}"]),
    ("protocol_dj2_f5_2d", ["protocol", "dj2:f5", "demo3.spin", "--write-2d",
                            "--out", "{out}"]),
    ("run_tomo_mq", ["run", "citrate.spin", "tomo_mq.pp", "--t1", "0.001",
                     "--out", "{out}"]),
    ("tomo_ghz", ["tomo", "demo3.spin", "--protocol", "ghz", "--out", "{out}"]),
    ("tomo_c3not", ["tomo", "demo4.spin", "--protocol", "c3not",
                    "--t1-points", "32", "--t2-points", "16", "--out", "{out}"]),
    # 8-spin eigensystem and time-domain run, full 5-spin level assignment
    ("eigen_spin8", ["eigen", "{in}/spin8.spin"]),
    ("run_spin8_tomo_mq", ["run", "{in}/spin8.spin", "tomo_mq.pp", "--t1", "0.001",
                           "--out", "{out}"]),
    ("assign_full5", ["assign", "{in}/full5.cm", "5", "--out", "{out}"]),
    # FIDs with signal on the 6- and 8-spin systems
    ("run_spin6_fid90", ["run", "{in}/spin6.spin", "{in}/fid90.pp",
                         "--out", "{out}"]),
    ("run_spin8_fid90", ["run", "{in}/spin8.spin", "{in}/fid90.pp",
                         "--out", "{out}"]),
    # tomography of a state file, and input files that cannot be read
    ("tomo_epr_state", ["tomo", "citrate.spin", "--state",
                        "{out}/../run_epr/epr.state", "--out", "{out}"]),
    ("tomo_missing_state", ["tomo", "citrate.spin", "--state",
                            "{out}/missing.state", "--out", "{out}"]),
    ("eigen_not_utf8", ["eigen", "{in}/utf16.spin"]),
    # phase-cycled rows sharing a prefix on 8 spins
    ("run_spin8_cycled", ["run", "{in}/spin8.spin", "{in}/cycled8.pp",
                          "--out", "{out}"]),
    # several level diagrams; pulse programs that fail while they run
    ("assign_thresholded4", ["assign", "{in}/thresholded4.cm", "4",
                             "--out", "{out}"]),
    ("run_tomo_mq_unbound_t1", ["run", "citrate.spin", "tomo_mq.pp",
                                "--out", "{out}"]),
    ("run_unknown_t9", ["run", "citrate.spin", "{in}/unknown_t9.pp",
                        "--out", "{out}"]),
    # selective pulses on a single spin
    ("run_spin1_selpulse", ["run", "{in}/spin1.spin", "{in}/selpulse1.pp",
                            "--out", "{out}"]),
    # the other protocols of "Protocol names"
    ("protocol_pps11", ["protocol", "pps11", "citrate.spin", "--out", "{out}"]),
    ("protocol_pops1", ["protocol", "pops:1", "citrate.spin", "--out", "{out}"]),
    ("protocol_dj1_f3", ["protocol", "dj1:f3", "citrate.spin", "--out", "{out}"]),
    ("protocol_epr", ["protocol", "epr", "citrate.spin", "--out", "{out}"]),
    ("protocol_c3not", ["protocol", "c3not", "demo4.spin", "--out", "{out}"]),
    ("protocol_c2swap", ["protocol", "c2swap", "demo4.spin", "--out", "{out}"]),
    # one process, many Hamiltonians: weak right after strong coupling on
    # one system, a label conflict warned on each run, and a case repeated
    # after more than eight other Hamiltonians were diagonalized
    ("eigen_demo3_again", ["eigen", "demo3.spin"]),
    ("eigen_demo3_weak", ["eigen", "demo3.spin", "--weak"]),
    ("eigen_conflict2", ["eigen", "{in}/conflict2.spin"]),
    ("eigen_conflict2_again", ["eigen", "{in}/conflict2.spin"]),
    ("eigen_compound1_weak", ["eigen", "compound1.spin", "--weak"]),
    ("eigen_demo4_weak", ["eigen", "demo4.spin", "--weak"]),
    ("eigen_spin1_weak", ["eigen", "{in}/spin1.spin", "--weak"]),
    ("eigen_spin6_weak", ["eigen", "{in}/spin6.spin", "--weak"]),
    ("eigen_spin8_weak", ["eigen", "{in}/spin8.spin", "--weak"]),
    ("protocol_epr_again", ["protocol", "epr", "citrate.spin", "--out", "{out}"]),
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], out_dir: pathlib.Path, in_dir: pathlib.Path,
             root: str):
    """(exit code or 'exception', stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{out}", str(out_dir)).replace("{in}", str(in_dir))
            for a in argv]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = str(cli_main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception:
            code = "exception"
            traceback.print_exc(file=err)
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return (code, out.getvalue().replace(root, "<out>"),
            err.getvalue().replace(root, "<out>"))


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        in_dir = pathlib.Path(tmp) / "inputs"
        in_dir.mkdir()
        for fname, text in INPUTS.items():
            data = text.encode("utf-8") if isinstance(text, str) else text
            (in_dir / fname).write_bytes(data)
        for name, argv in CASES:
            out_dir = pathlib.Path(tmp) / name
            out_dir.mkdir()
            code, out, err = run_case(argv, out_dir, in_dir, tmp)
            failed |= code == "exception"
            print(f"{digest(code.encode())}  {name}/exit")
            print(f"{digest(out.encode())}  {name}/stdout")
            print(f"{digest(err.encode())}  {name}/stderr")
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                rel = path.relative_to(out_dir).as_posix()
                print(f"{digest(path.read_bytes())}  {name}/{rel}")
            if code == "exception":
                print(err, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
