"""The four workloads, how one job runs, and the checks on its outputs.

Each workload is a fixed list of jobs run back to back by one client in
one process (a closed loop).  A job is either a `spinsim` command line
run in-process through `spinsim.cli.main` with its own `--out` directory,
or, for time-domain Z-COSY which has no command, a call into
`spinsim.acquisition`.  A job fails when it raises, exits nonzero or fails
one of its output checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

import inputs

WORKLOADS = ("tomography", "spectra2d", "protocols", "bigspin")
TOL = 1e-9
MIN_FIDELITY = 0.999999
DJ1_TRUTH = {"f1": "constant", "f2": "constant",
             "f3": "balanced", "f4": "balanced"}
DJ2_TRUTH = {f"f{k}": "constant" if k <= 2 else "balanced" for k in range(1, 9)}
# output files larger than this are compared through count and sums of
# their numbers, read line by line
SUMMARY_BYTES = 65536


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...] = ()
    out: bool = True            # pass --out <directory>
    zcosy: str | None = None    # shipped system for a Z-COSY call
    reference: bool = True      # fixed inputs: compare with reference.json
    checks: tuple = ()


@dataclass
class Result:
    job: Job
    seconds: float
    out_dir: Path
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    value: np.ndarray | None = None
    warnings: int = 0
    outputs: dict = field(default_factory=dict)   # file name -> path
    span: tuple = ()        # perf_counter at the start and end of the job

    def text(self, name: str) -> str:
        return self.outputs[name].read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# job lists

def _protocol(name: str, system: str, *extra: str, checks=()) -> Job:
    return Job(f"protocol {name} {system}{' ' if extra else ''}{' '.join(extra)}",
               ("protocol", name, system, *extra), checks=checks)


def job_list(workload: str, indir: Path) -> list[Job]:
    if workload == "tomography":
        return [
            Job("tomo citrate epr", ("tomo", "citrate.spin", "--protocol", "epr")),
            Job("tomo demo3 ghz", ("tomo", "demo3.spin", "--protocol", "ghz")),
            Job("tomo demo3 random state",
                ("tomo", "demo3.spin", "--state", str(indir / "rand3.state")),
                reference=False, checks=(partial(check_tomo_fidelity, "rand3"),)),
            Job("tomo demo4 random state 32x16",
                ("tomo", "demo4.spin", "--state", str(indir / "rand4.state"),
                 "--t1-points", "32", "--t2-points", "16"),
                reference=False, checks=(partial(check_tomo_fidelity, "rand4"),)),
        ]
    if workload == "spectra2d":
        jobs = [_protocol(f"dj2:{f}", "demo3.spin",
                          *(("--write-2d",) if f in ("f1", "f5") else ()),
                          checks=(partial(check_verdict, DJ2_TRUTH[f]),))
                for f in DJ2_TRUTH]
        return jobs + [Job(f"zcosy {s}", out=False, zcosy=f"{s}.spin",
                           checks=(check_zcosy,)) for s in ("demo3", "demo4")]
    if workload == "protocols":
        jobs = [_protocol(f"pps{b}", "citrate.spin") for b in ("00", "01", "10", "11")]
        jobs += [_protocol(f"pops:{t}", "citrate.spin") for t in range(1, 5)]
        jobs += [_protocol(f"dj1:{f}", "citrate.spin",
                           checks=(partial(check_verdict, DJ1_TRUTH[f]),))
                 for f in DJ1_TRUTH]
        jobs.append(_protocol("epr", "citrate.spin"))
        jobs += [_protocol(f"gate:{g}", "compound1.spin", checks=(check_truth_table,))
                 for g in range(1, 25)]
        jobs.append(_protocol("ghz", "demo3.spin"))
        jobs += [_protocol(p, "demo4.spin", checks=(check_truth_table,))
                 for p in ("c3not", "c2swap")]
        runs = [(f"dj1_f{k}.pp", "citrate.spin", ()) for k in range(1, 5)]
        runs += [(f"pps{b}.pp", "citrate.spin", ()) for b in ("00", "01", "10", "11")]
        runs += [("epr.pp", "citrate.spin", ("--init", "pure:00")),
                 ("ghz.pp", "demo3.spin", ()),
                 ("tomo_mq.pp", "citrate.spin", ("--t1", "0.001"))]
        jobs += [Job(f"run {p} {s}", ("run", s, p, *extra)) for p, s, extra in runs]
        counts = {"citrate": None, "compound1": None, "demo3": (9, 15),
                  "demo4": (30, 56)}
        jobs += [Job(f"eigen {s}", ("eigen", f"{s}.spin"), out=False,
                     checks=(partial(check_observable, *c),) if c else ())
                 for s, c in counts.items()]
        jobs.append(Job("assign eq13", ("assign", "eq13.cm", "3"),
                        checks=(partial(check_assign, None),)))
        return jobs
    if workload == "bigspin":
        jobs = []
        for n in inputs.BIGSPIN_SIZES:
            spin, prog = str(indir / f"spin{n}.spin"), str(indir / f"prog{n}.pp")
            jobs.append(Job(f"eigen spin{n}", ("eigen", spin), out=False,
                            reference=False,
                            checks=(partial(check_eigen_model, f"spin{n}"),)))
            jobs.append(Job(f"run spin{n}", ("run", spin, prog), reference=False,
                            checks=(partial(check_run_model, f"prog{n}"),)))
        for k, (n, kind) in enumerate(inputs.ASSIGN_SYSTEMS):
            stem = f"cm{k}_{n}{kind}"
            jobs.append(Job(f"assign {stem}", ("assign", str(indir / f"{stem}.cm"),
                                               str(n)),
                            reference=False, checks=(partial(check_assign, stem),)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running a job

def _shipped(*parts: str) -> str:
    return resources.files("spinsim").joinpath("data", *parts).read_text(
        encoding="utf-8")


def _zcosy(system: str) -> np.ndarray:
    from spinsim import acquisition, core
    text = _shipped("systems", system)
    es = core.eigensystem(core.parse_spin_system(text, source=system))
    cat = core.transition_catalog(es)
    return acquisition.zcosy_time_domain(es, 10.0, 512, catalog=cat)


def run_job(job: Job, out_dir: Path, clock=time.perf_counter) -> Result:
    """Run one job, timed with `clock`; stdout, stderr and warnings are
    captured, not shown."""
    from spinsim import cli
    res = Result(job, 0.0, out_dir)
    argv = list(job.argv) + (["--out", str(out_dir)] if job.out else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        start = clock()
        try:
            if job.zcosy:
                res.value = _zcosy(job.zcosy)
                res.rc = 0
            else:
                res.rc = cli.main(argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed job
            res.error = f"{type(exc).__name__}: {exc}"
        res.seconds = clock() - start
    res.stdout, res.stderr, res.warnings = stdout.getvalue(), stderr.getvalue(), len(caught)
    if out_dir.is_dir():
        res.outputs = {str(p.relative_to(out_dir)): p
                       for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return res


def normalized_stdout(res: Result) -> str:
    return res.stdout.replace(str(res.out_dir), "OUT")


def output_digest(res: Result) -> str:
    h = hashlib.sha256()
    for part in (str(res.rc), res.error or "", normalized_stdout(res), res.stderr,
                 repr(None if res.value is None else res.value.tolist())):
        h.update(part.encode() + b"\0")
    for name, path in res.outputs.items():
        h.update(name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fingerprints compared with the values recorded at the seed commit

def tokens(text: str) -> list:
    """Whitespace/comma/'=' separated fields, numbers parsed as floats."""
    out = []
    for tok in re.split(r"[\s,=]+", text.strip()):
        try:
            out.append(float(tok))
        except ValueError:
            out.append(tok)
    return out


def summary(path: Path) -> dict:
    """Field count and the sums of the numbers and of their magnitudes."""
    count, total, mags = 0, [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for tok in tokens(line):
                count += 1
                if isinstance(tok, float):
                    total.append(tok)
                    mags.append(abs(tok))
            if len(total) > 100000:
                total, mags = [math.fsum(total)], [math.fsum(mags)]
    return {"count": count, "sum": math.fsum(total), "abs": math.fsum(mags)}


def fingerprint(res: Result, like: dict | None = None) -> dict:
    """Parsed outputs of a job.  Files are summarized when they are large,
    or when the reference ``like`` holds a summary for them."""
    fp = {"rc": res.rc, "stdout": tokens(normalized_stdout(res))}
    if res.value is not None:
        fp["value"] = res.value.tolist()
    for name, path in res.outputs.items():
        ref = (like or {}).get(name)
        big = path.stat().st_size > SUMMARY_BYTES if like is None else isinstance(ref, dict)
        fp[name] = summary(path) if big else tokens(res.text(name))
    return fp


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(scale, abs(b))


def compare(got, ref, where: str = "") -> str | None:
    """None when got matches ref: strings exactly, numbers within TOL."""
    if isinstance(ref, dict) and "count" in ref and isinstance(got, dict):
        if got.get("count") != ref["count"]:
            return f"{where}: {got.get('count')} fields, expected {ref['count']}"
        for key in ("sum", "abs"):
            if not _close(got[key], ref[key], ref["abs"]):
                return f"{where}: {key} {got[key]!r}, expected {ref[key]!r}"
        return None
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"
        for key in ref:
            err = compare(got[key], ref[key], f"{where}/{key}")
            if err:
                return err
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: length differs"
        for k, (g, r) in enumerate(zip(got, ref)):
            err = compare(g, r, f"{where}[{k}]")
            if err:
                return err
        return None
    if isinstance(ref, float) and isinstance(got, float):
        return None if _close(got, ref) or (math.isnan(got) and math.isnan(ref)) \
            else f"{where}: {got!r}, expected {ref!r}"
    return None if got == ref else f"{where}: {got!r}, expected {ref!r}"


# ---------------------------------------------------------------------------
# semantic checks: (result, facts) -> failure message or None

def _report(res: Result) -> dict[str, str]:
    name = next(n for n in res.outputs if n.endswith(".report"))
    return dict(ln.split("=", 1) for ln in res.text(name).splitlines() if "=" in ln)


def read_state(text: str) -> np.ndarray:
    lines = text.splitlines()
    dim = int(lines[0].split()[1])
    mat = np.zeros((dim, dim), dtype=complex)
    for ln in lines[1:]:
        k, l, re_, im = ln.split()
        mat[int(k) - 1, int(l) - 1] = float(re_) + 1j * float(im)
    return mat


def traceless_overlap(a: np.ndarray, b: np.ndarray) -> float:
    eye = np.eye(a.shape[0])
    a0 = a - np.trace(a) / a.shape[0] * eye
    b0 = b - np.trace(b) / b.shape[0] * eye
    return float(np.real(np.vdot(a0, b0)) / (np.linalg.norm(a0) * np.linalg.norm(b0)))


def check_verdict(truth: str, res: Result, facts) -> str | None:
    got = _report(res).get("verdict")
    return None if got == truth else f"verdict {got}, expected {truth}"


def check_truth_table(res: Result, facts) -> str | None:
    got = _report(res).get("truth_table_ok")
    return None if got is not None and float(got) == 1.0 else f"truth_table_ok={got}"


def check_observable(obs: int, total: int, res: Result, facts) -> str | None:
    want = f"observable {obs} of {total}"
    return None if want in res.stdout.splitlines() else f"missing {want!r}"


def check_tomo_fidelity(stem: str, res: Result, facts) -> str | None:
    fidelity = float(_report(res)["fidelity"])
    overlap = traceless_overlap(read_state(res.text(f"{stem}_tomo.state")),
                                facts[stem]["state"])
    if min(fidelity, overlap) < MIN_FIDELITY:
        return f"fidelity {fidelity}, overlap with input {overlap}"
    return None


def check_zcosy(res: Result, facts) -> str | None:
    from spinsim import acquisition, core
    es = core.eigensystem(core.parse_spin_system(_shipped("systems", res.job.zcosy)))
    cm = acquisition.zcosy_connectivity(es, 0.05, core.transition_catalog(es))
    ids = [t - 1 for t in cm.ids]
    if not np.array_equal(res.value[np.ix_(ids, ids)], cm.m):
        return "Z-COSY signs differ from the analytic connectivity"
    return None


def _derived_connectivity(text: str, size: int) -> np.ndarray:
    edges = {}
    for ln in text.splitlines():
        f = ln.split()
        if f and f[0] == "edge":
            edges[int(f[1])] = (int(f[2]), int(f[3]))
    from model import connectivity
    return connectivity([edges[t] for t in range(1, size + 1)])


def check_assign(stem: str | None, res: Result, facts) -> str | None:
    """Every reported diagram reproduces the input matrix (the rule of
    spinsim.assignment.verify_diagram, recomputed here); a full matrix has
    exactly one diagram up to symmetry."""
    if stem is None:
        rows = [ln.split("#")[0].split() for ln in _shipped("eq13.cm").splitlines()]
        m = np.array([[int(x) for x in row] for row in rows if row])
        kind = "eq13"
    else:
        m, kind = facts[stem]["m"], facts[stem]["kind"]
    head = res.stdout.split()
    count, truncated = int(head[1]), int(head[3])
    diagrams = [res.text(n) for n in res.outputs if n.endswith(".levels")]
    if count < 1 or truncated or len(diagrams) != count:
        return f"solutions {count}, truncated {truncated}, files {len(diagrams)}"
    if kind == "full" and count != 1:
        return f"full matrix gave {count} diagrams"
    for text in diagrams:
        if not np.array_equal(_derived_connectivity(text, m.shape[0]), m):
            return "a diagram does not reproduce the connectivity matrix"
    return None


def check_eigen_model(stem: str, res: Result, facts) -> str | None:
    want = facts[stem]
    levels = [ln.split() for ln in res.stdout.splitlines() if ln.startswith("level ")]
    lines = [ln.split() for ln in res.stdout.splitlines()
             if ln.startswith("transition ")]
    energies = np.array([float(f[7]) for f in levels])
    ref = want["energies"] / (2 * math.pi)
    if energies.shape != ref.shape or len(lines) != len(want["trans"]):
        return f"{len(levels)} levels, {len(lines)} transitions"
    scale = max(1.0, float(np.abs(ref).max()))
    if np.abs(energies - ref).max() > TOL * scale:
        return f"energies off by {np.abs(energies - ref).max():.2e} Hz"
    for col, k in ((7, 2), (9, 3)):
        got = np.sort([float(f[col]) for f in lines])
        exp = np.sort([t[k] for t in want["trans"]])
        if np.abs(got - exp).max() > TOL * max(1.0, float(np.abs(exp).max())):
            return f"transition {'frequencies' if k == 2 else 'intensities'} differ"
    return None


def check_run_model(stem: str, res: Result, facts) -> str | None:
    ref = facts[stem]["state"]
    got = read_state(res.text(f"{stem}.state"))
    err = float(np.abs(got - ref).max())
    if err > TOL * max(1.0, float(np.abs(ref).max())):
        return f"final state off by {err:.2e}"
    if len(res.text(f"{stem}.fid").splitlines()) != 1024:
        return "FID does not have 1024 points"
    return None


def check(res: Result, facts: dict, reference: dict | None) -> str | None:
    """Failure message for one job result, or None when it is correct."""
    if res.error or res.rc != 0:
        return res.error or f"exit {res.rc}: {res.stderr.strip()}"
    if res.job.reference:
        if reference is None or res.job.name not in reference:
            return "no reference recorded"
        ref = reference[res.job.name]
        err = compare(fingerprint(res, ref), ref)
        if err:
            return f"differs from reference at {err}"
    for fn in res.job.checks:
        try:
            err = fn(res, facts)
        except (KeyError, ValueError, IndexError, StopIteration) as exc:
            err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err:
            return err
    return None
