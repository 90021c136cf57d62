"""Command-line workbench: eigen tables, program runs, protocols,
level-diagram assignment, tomography and the acceptance suite.

All file output uses fixed 12-significant-digit float formatting, so
identical inputs produce byte-identical files for a fixed BLAS thread
count (threaded BLAS sums in an order that follows the thread count;
``OPENBLAS_NUM_THREADS=1`` pins it).  Every error path exits
nonzero with a single machine-parseable line on stderr.  System and
program arguments resolve against the filesystem first and then against
the data shipped with the package, so `spinsim eigen citrate.spin` works
from any directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from collections.abc import Iterable
from importlib import resources
from pathlib import Path

import numpy as np

from . import acquisition as acq
from . import assignment as asg
from . import dynamics as dyn
from . import protocols as pr
from . import pulselang as pl
from .core import (SpinSystem, SpinSystemError, eigensystem, mixing_angle_ab,
                   parse_spin_system, transition_catalog)

USAGE_ERROR = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_resource(path: str, kind: str = "") -> tuple[str, str]:
    """Return (text, display_name): the file at ``path`` if it exists, else
    the shipped file of the same name in ``data/<kind>`` (``data`` when
    ``kind`` is empty)."""
    source, name = Path(path), path
    if not source.exists():
        folder = [kind] if kind else []
        source = resources.files("spinsim").joinpath("data", *folder, source.name)
        name = source.name
        if not source.is_file():
            entry = " ".join(["shipped", *folder, "entry"])
            raise CliError(f"cannot find {path!r} (not a file or {entry})")
    try:
        return source.read_text(encoding="utf-8"), name
    except OSError as exc:              # a directory, no permission
        raise CliError(f"cannot read {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path!r}: not UTF-8 text "
                       f"(byte {exc.start})") from exc


def _load_system(path: str) -> SpinSystem:
    text, name = _read_resource(path, "systems")
    return parse_spin_system(text, source=name)


def _initial_state(es, init: str) -> np.ndarray:
    if init == "eq":
        return dyn.equilibrium_deviation(es)
    if init.startswith("pure:"):
        label = init.split(":", 1)[1]
        try:
            k = es.index_of_label(label)
        except KeyError as exc:
            raise CliError(exc.args[0]) from None
        mat = np.zeros((es.dim, es.dim), dtype=complex)
        mat[k, k] = 1.0
        return mat
    if init.startswith("pps:"):
        label = init.split(":", 1)[1]
        if es.n != 2:
            raise CliError("pps: initial states are defined for 2-spin systems")
        return pr.pseudopure_2spin(es, label).final_state
    raise CliError(f"unknown initial state {init!r}")


def _write(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or each chunk of an iterable of them in turn, to
    ``path`` as UTF-8: a chunked writer's file is never whole in memory."""
    chunks = [text] if isinstance(text, str) else text
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:              # --out names a file, no permission, disk full
        raise CliError(f"cannot write {exc.filename or str(path)!r}: "
                       f"{exc.strerror}") from exc


# ---------------------------------------------------------------------------

def cmd_eigen(args) -> int:
    sys_ = _load_system(args.system)
    es = eigensystem(sys_, weak=args.weak)
    cat = transition_catalog(es)
    observable = cat.observable_at(args.threshold)
    out = [f"system {sys_.name}", f"nspins {sys_.n}"]
    if sys_.n == 2:
        th = mixing_angle_ab(sys_)
        out.append(f"theta_ab {th:.1f} deg ({th:.12g})")
    out.append(_table("level %d label %s mz %.12g energy_hz %.12g", [
        range(1, es.dim + 1), es.labels, es.mz.tolist(),
        (es.energies / (2 * math.pi)).tolist()]))
    labels = np.array(es.labels)
    out.append(_table(
        "transition %d lower %s upper %s freq_hz %.12g intensity %.12g obs %d", [
            range(1, len(cat) + 1), labels[cat.lower].tolist(),
            labels[cat.upper].tolist(), cat.freq_hz.tolist(),
            cat.intensity.tolist(), observable.tolist()]))
    out.append(f"observable {np.count_nonzero(observable)} of {len(cat)}")
    print("\n".join(out))
    return 0


def cmd_run(args) -> int:
    sys_ = _load_system(args.system)
    es = eigensystem(sys_)
    text, name = _read_resource(args.program, "programs")
    program = pl.parse_program(text, source=name)
    rho0 = _initial_state(es, args.init)

    acquire = None
    instructions = program.instructions
    if instructions and isinstance(instructions[-1], pl.Acquire):
        acquire = instructions[-1]
        program = dataclasses.replace(program, instructions=instructions[:-1])
    final = pl.execute(program, es, rho0, t1=args.t1, t2=args.t2)

    out_dir = Path(args.out)
    stem = Path(name).stem
    spec = acq.detect_small_angle(es, dyn.crush_gradient(final), args.beta)
    _write(out_dir / f"{stem}.state", dyn.state_chunks(final))
    _write(out_dir / f"{stem}.spectrum", spec.to_csv())
    if acquire is not None:
        fid = acq.acquire_fid(es, final, acquire.points, acquire.dwell_s)
        times = [m * acquire.dwell_s for m in range(fid.size)]
        _write(out_dir / f"{stem}.fid", _complex_rows(times, fid))
        freqs, vals = acq.fft_spectrum(fid, acquire.dwell_s)
        _write(out_dir / f"{stem}.fft", _complex_rows(freqs.tolist(), vals))
    print(f"wrote {out_dir / (stem + '.state')} and spectrum")
    return 0


def _table(pattern: str, columns: list) -> str:
    """One ``pattern`` line per row of the equal-length ``columns``, joined
    by newlines and formatted by one ``%``."""
    rows = len(columns[0])
    args = [None] * (len(columns) * rows)
    for i, col in enumerate(columns):
        args[i::len(columns)] = col
    return "\n".join([pattern] * rows) % tuple(args)


def _complex_rows(xs: list[float], zs: np.ndarray) -> str:
    """One ``x,re,im`` line per point, 12 significant digits."""
    return _table("%.12g,%.12g,%.12g", [xs, zs.real.tolist(),
                                        zs.imag.tolist()]) + "\n"


def _index_argument(name: str) -> int:
    """The integer after the colon of a `pops:<tid>` or `gate:<n>` name."""
    text = name.split(":", 1)[1]
    try:
        return int(text)
    except ValueError:
        raise CliError(f"protocol {name!r}: the index must be an integer, "
                       f"got {text!r}") from None


def _protocol_report(es, name: str, args) -> pr.ProtocolReport:
    if name.startswith("pps"):
        return pr.pseudopure_2spin(es, name[3:])
    if name.startswith("pops:"):
        return pr.pops_pair(es, _index_argument(name), args.threshold)
    if name.startswith("dj1:"):
        return pr.dj_one_qubit(es, name.split(":", 1)[1])
    if name.startswith("dj2:"):
        return pr.dj_two_qubit_2d(es, name.split(":", 1)[1],
                                  t1_points=args.t1_points,
                                  t2_points=args.t2_points)
    if name == "epr":
        return pr.epr_create(es)
    if name == "ghz":
        return pr.ghz_create(es, args.threshold)
    if name.startswith("gate:"):
        return pr.gate_library_2spin(es, _index_argument(name))
    if name == "c3not":
        return pr.c3not_4spin(es, args.threshold)
    if name == "c2swap":
        return pr.c2swap_4spin(es, args.threshold)
    raise CliError(f"unknown protocol {name!r}")


def cmd_protocol(args) -> int:
    sys_ = _load_system(args.system)
    es = eigensystem(sys_)
    rep = _protocol_report(es, args.name, args)
    dataset = None
    if args.write_2d:
        # the emitted program replayed from equilibrium; run_2d rejects a
        # program that does not end in acquire
        dataset = acq.run_2d(pl.parse_program(rep.program_text, source=rep.name),
                             es, dyn.equilibrium_deviation(es), args.t1_points,
                             acq.default_tomo_dwell(es))
    out_dir = Path(args.out)
    _write(out_dir / f"{rep.name}.pp", rep.program_text)
    _write(out_dir / f"{rep.name}.state", dyn.state_chunks(rep.final_state))
    _write(out_dir / f"{rep.name}.report", rep.format_report())
    if dataset is not None:
        _write(out_dir / f"{rep.name}.2d", dataset.text_chunks())
        _write(out_dir / f"{rep.name}.grid", dataset.grid_chunks())
    print(rep.format_report(), end="")
    return 0


def cmd_assign(args) -> int:
    text, name = _read_resource(args.connectivity)
    cm = asg.parse_connectivity(text, source=name)
    result = asg.reconstruct_levels(cm, args.nspins,
                                    max_solutions=args.max_solutions)
    if not result.diagrams:
        detail = ""
        if result.conflict:
            detail = " first conflicting triple: " + \
                ",".join(str(t) for t in result.conflict)
        raise CliError(f"unsatisfiable connectivity matrix;{detail}")
    print(f"solutions {len(result.diagrams)} "
          f"truncated {1 if result.truncated else 0}")
    out_dir = Path(args.out) if args.out else None
    for i, ld in enumerate(result.diagrams, start=1):
        text = asg.format_diagram(ld)
        if ld.ambiguous:
            text += "ambiguous " + " ".join(str(t) for t in ld.ambiguous) + "\n"
        if out_dir is not None:
            _write(out_dir / f"diagram_{i:03d}.levels", text)
        elif i == 1:
            print(text, end="")
    return 0


def cmd_tomo(args) -> int:
    sys_ = _load_system(args.system)
    es = eigensystem(sys_)
    if args.protocol is not None:
        rep = _protocol_report(es, args.protocol, args)
        rho = rep.final_state
        label = rep.name
    else:
        text, name = _read_resource(args.state, "states")
        rho = dyn.parse_state(text, es, source=name)
        label = Path(args.state).stem
    diag, under = acq.tomo_diagonal(es, rho, args.beta)
    _, coherences = acq.tomo_offdiagonal_2d(
        es, rho, t1_points=args.t1_points, t2_points=args.t2_points)
    ratio = acq.tomo_scale_calibration(es, rho)
    recon, fidelity = acq.reconstruct_density(diag, coherences, reference=rho)
    out_dir = Path(args.out)
    _write(out_dir / f"{label}_tomo.state", dyn.state_chunks(recon))
    rows = ["k,l,order,freq_hz,re,im,magnitude"]
    for r in sorted(coherences, key=lambda r: (-r.magnitude, r.k, r.l)):
        rows.append(f"{r.k + 1},{r.l + 1},{r.order},{r.freq_hz:.12g},"
                    f"{r.value.real:.12g},{r.value.imag:.12g},{r.magnitude:.12g}")
    _write(out_dir / f"{label}_tomo.coherences", "\n".join(rows) + "\n")
    report = [f"name={label}_tomo",
              f"fidelity={fidelity:.12g}",
              f"scale_ratio={ratio:.12g}",
              f"underdetermined={1 if under else 0}"]
    _write(out_dir / f"{label}_tomo.report", "\n".join(report) + "\n")
    print("\n".join(report))
    return 0


def cmd_accept(args) -> int:
    from . import acceptance
    results = acceptance.run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _threshold(text: str) -> float:
    """argparse type: a relative intensity threshold in [0, 1)."""
    value = _finite_float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``spinsim: error:`` line and exits 2;
    the subcommand parsers share the class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"spinsim: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="spinsim",
        description="workbench for QIP on strongly coupled spin systems")
    sub = p.add_subparsers(dest="command", required=True)

    def threshold_option(sp):
        sp.add_argument("--threshold", type=_threshold, default=0.05,
                        help="relative intensity threshold for observability")

    def common(sp, beta=False, points=False):
        sp.add_argument("--out", default="out", help="output directory")
        if beta:
            sp.add_argument("--beta", type=_finite_float, default=10.0,
                            help="small-angle detection pulse, degrees")
        if points:
            sp.add_argument("--t1-points", type=int, default=256)
            sp.add_argument("--t2-points", type=int, default=1024)

    sp = sub.add_parser("eigen", help="print eigen table and transitions")
    sp.add_argument("system")
    threshold_option(sp)
    sp.add_argument("--weak", action="store_true",
                    help="truncate the J coupling to its weak form")
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("run", help="run a pulse program on a system")
    sp.add_argument("system")
    sp.add_argument("program")
    sp.add_argument("--init", default="eq",
                    help="initial state: eq, pps:<bits> or pure:<bits>")
    sp.add_argument("--t1", type=_finite_float, default=None,
                    help="value for the symbolic t1 delay, seconds")
    sp.add_argument("--t2", type=_finite_float, default=None)
    common(sp, beta=True)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("protocol", help="run a named experiment")
    sp.add_argument("name", help="pps00|pps01|pps10|pps11|pops:<tid>|"
                    "dj1:<f1..f4>|dj2:<f1..f8>|epr|ghz|gate:<1..24>|"
                    "c3not|c2swap")
    sp.add_argument("system")
    sp.add_argument("--write-2d", action="store_true",
                    help="also write 2D dataset text and gnuplot grid")
    threshold_option(sp)
    common(sp, points=True)
    sp.set_defaults(func=cmd_protocol)

    sp = sub.add_parser("assign", help="reconstruct level diagrams")
    sp.add_argument("connectivity", help="connectivity matrix file")
    sp.add_argument("nspins", type=int)
    sp.add_argument("--max-solutions", type=int, default=64)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_assign)

    sp = sub.add_parser("tomo", help="tomograph a state or protocol output")
    sp.add_argument("system")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--protocol")
    source.add_argument("--state")
    threshold_option(sp)
    common(sp, beta=True, points=True)
    sp.set_defaults(func=cmd_tomo)

    sp = sub.add_parser("accept", help="run the acceptance suite")
    sp.set_defaults(func=cmd_accept)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged, and building it costs more than a small job's work."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except pl.PulseProgramError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except (SpinSystemError, asg.AssignmentError, pr.ProtocolError,
            acq.AcquisitionError, dyn.DynamicsError, CliError) as exc:
        code = exc.code if isinstance(exc, CliError) else USAGE_ERROR
        msg = exc.args[0] if exc.args else str(exc)
        print(f"spinsim: error: {msg}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
