#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed set of CLI runs.

Each case runs in-process through ``spinsim.cli.main`` with its own output
directory under a temporary directory.  One ``sha256  name`` line is printed
per written file, per captured stdout and stderr and per exit code, in a
fixed order.  The temporary directory is replaced by ``<out>`` in captured
text, and warnings are captured as ``Category: message`` lines (without the
source location), so two checkouts that behave the same print the same
lines.  Diff the output of two checkouts to prove a change byte-identical:

    python3 scripts/output_digests.py > after.txt

The exit status is 1 if any case raised an exception, 0 otherwise.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
import traceback
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinsim.cli import main as cli_main  # noqa: E402

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
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], out_dir: pathlib.Path, root: str):
    """(exit code or 'exception', stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{out}", str(out_dir)) for a in argv]
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
        for name, argv in CASES:
            out_dir = pathlib.Path(tmp) / name
            out_dir.mkdir()
            code, out, err = run_case(argv, out_dir, tmp)
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
