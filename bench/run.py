"""spinsim benchmark: one workload, one client, jobs back to back.

Run from the root of a spinsim source tree:

    python3 bench/run.py --workload protocols --seed 1 --seconds 20 --trace 0

The program is imported from ./src, never from an installed copy.  The
run writes its seeded inputs to a temporary directory under ./.bench_out,
measures the import cost in fresh interpreters, then repeats passes over
the workload's job list until the next pass would end after --seconds
(always at least one pass; two with --trace 1, one untraced and one
traced).  Every job's outputs are checked: fully on the first pass, and
on later passes by requiring byte-identical outputs.  The last line of
stdout is a JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1); the full record, and with --trace 1 the
spans, are written under ./.bench_out.  Timings are rescaled to a
reference CPU speed measured while the jobs run (see speed.py).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, set before numpy loads: on a shared two-core machine
# BLAS worker threads make small-matrix timings jitter
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4   # timed imports before the passes, and again after
# import time, then the reference kernel's speed in the same interpreter
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spinsim.cli; "
                "t = time.perf_counter() - t; import speed; "
                "print(t, speed.kernel_seconds(30))")
WARMUP = (("eigen", "citrate.spin"), ("tomo", "citrate.spin", "--protocol", "epr"),
          ("assign", "eq13.cm", "3"))


def fail(message: str) -> None:
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_root() -> Path:
    root = Path.cwd()
    src = root / "src"
    if not (src / "spinsim" / "__init__.py").is_file():
        fail(f"no spinsim source tree at {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import spinsim
    if Path(spinsim.__file__).resolve().parent != (src / "spinsim").resolve():
        fail(f"spinsim imported from {spinsim.__file__}, not from {src}")
    return root


def setup_seconds(root: Path, repeats: int) -> list[tuple[float, float]]:
    """(import time of spinsim.cli, numpy included; median kernel time)
    in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(BENCH_DIR))))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"importing spinsim.cli failed: {proc.stderr.strip()}")
        out.append(tuple(float(x) for x in proc.stdout.split()))
    return out


def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": src.hexdigest(), "seed": seed,
            "platform": platform.platform()}


class Runner:
    """Runs passes over one job list, checking and timing every job."""

    def __init__(self, jobs, facts, reference, workdir: Path, tracer=None):
        self.jobs, self.facts, self.reference = jobs, facts, reference
        self.workdir, self.tracer = workdir, tracer
        self.sampler = speed.Sampler()
        self.first: dict[int, tuple[str, str | None]] = {}
        self.passes = self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> dict:
        results = []
        spans0 = len(self.tracer.spans) if self.tracer else 0
        flop0 = self.tracer.flop if self.tracer else 0.0
        self.passes += 1
        # speed samples are taken in untraced passes only, so that no span
        # contains one
        if not traced:
            self.sampler.start()
        try:
            for i, job in enumerate(self.jobs):
                results.append(self.run_job(i, job, traced))
        finally:
            if not traced:
                self.sampler.stop()
        times = [res.seconds for res in results]
        rec = {"traced": traced, "wall_s": sum(times), "job_s": times,
               "job_spans": [res.span for res in results],
               "warnings": sum(res.warnings for res in results),
               "bytes_written": sum(p.stat().st_size for res in results
                                    for p in res.outputs.values())}
        if traced:
            rec["spans"] = (spans0, len(self.tracer.spans))
            rec["flop"] = self.tracer.flop - flop0
        return rec

    def run_job(self, i: int, job, traced: bool):
        # a job writes into the same directory on every pass.  Creating a
        # file or directory took 0.65 ms on the development VM's disk and
        # rewriting one 0.07 ms, so fresh directories made file creation
        # a third of a protocols pass.  The files of the previous pass are
        # emptied first, so a file the job no longer writes shows up as
        # a changed output.
        out_dir = self.workdir / f"job{i:03d}"
        if out_dir.is_dir():
            for path in out_dir.rglob("*"):
                if path.is_file():
                    os.truncate(path, 0)
        if traced:
            self.tracer.job = i
            self.tracer.install()
        start = time.perf_counter()
        try:
            res = workloads.run_job(job, out_dir, self.sampler.clock)
        finally:
            if traced:
                self.tracer.uninstall()
        res.span = (start, time.perf_counter())
        digest = workloads.output_digest(res)
        if i not in self.first:
            self.first[i] = (digest, workloads.check(res, self.facts, self.reference))
        ref_digest, err = self.first[i]
        if digest != ref_digest:
            err = "outputs differ from the first pass"
        self.attempted += 1
        if err:
            self.failed += 1
            self.failures.append(f"{job.name}: {err}")
        return res


def run_passes(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + typical > seconds:
            return passes


def end_to_end(passes, setup, factor) -> tuple[dict, dict]:
    """The end-to-end metrics, timings at the reference CPU speed, and the
    same timings as measured.  Each job time is rescaled by
    ``factor(start, end)`` of its span, each import time by the speed
    measured in its own interpreter."""
    untraced = [p for p in passes if not p["traced"]]

    def summary(pass_jobs):
        jobs = [t for p in pass_jobs for t in p]
        return {"wall_s": statistics.median(sum(p) for p in pass_jobs),
                "job_p50_s": float(np.percentile(jobs, 50)),
                "job_p90_s": float(np.percentile(jobs, 90))}

    raw = summary([p["job_s"] for p in untraced])
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    scaled = summary([[t * factor(*span) for t, span in zip(p["job_s"], p["job_spans"])]
                      for p in untraced])
    metrics = {name: (value, "s") for name, value in scaled.items()}
    metrics["setup_s"] = (statistics.median(t * speed.REFERENCE_S / k
                                            for t, k in setup), "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics, raw


def per_layer(passes, tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    samples: dict[str, list] = {}

    def add(name, value, unit):
        samples.setdefault(name, ([], unit))[0].append(value)

    for p in traced:
        totals = tracing.layer_totals(tracer.spans, *p["spans"])
        for name, rec in sorted(totals.items()):
            add(f"{name}.calls", rec["calls"], "count")
            add(f"{name}.s", rec["s"], "s")
            add(f"{name}.self_s", rec["self_s"], "s")
        add(f"{tracing.FLOP_SPAN}.flop", p["flop"], "flop")
        add("cli.bytes_written", p["bytes_written"], "B")
        add("warnings.count", p["warnings"], "count")
    wall = statistics.median(p["wall_s"] for p in traced)
    base = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out = {k: (statistics.median(v), unit) for k, (v, unit) in samples.items()}
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - base, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    root = source_root()
    outbase = root / ".bench_out"
    outbase.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outbase))
    try:
        indir = tmp / "inputs"
        indir.mkdir()
        facts = inputs.generate(args.workload, args.seed, indir)
        os.sync()
        setup_seconds(root, 1)          # writes bytecode; not counted
        setup = setup_seconds(root, SETUP_REPEATS)
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        for argv_ in WARMUP:
            workloads.run_job(workloads.Job("warm-up", argv_), tmp / "warmup")
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(workloads.job_list(args.workload, indir), facts,
                        reference, tmp / "pass", tracer)
        passes = run_passes(runner, args.seconds, bool(args.trace))
        setup += setup_seconds(root, SETUP_REPEATS)
        sampler = runner.sampler
        if args.trace:
            metrics, raw = per_layer(passes, tracer), {}
        else:
            metrics, raw = end_to_end(passes, setup, sampler.factor)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "input_sha256": inputs.digest(indir),
            "environment": environment(root, args.seed),
            "passes": len(passes), "jobs_per_pass": len(runner.jobs),
            "attempted": runner.attempted, "failed": runner.failed,
            "failed_frac": runner.failed / runner.attempted,
            "failures": runner.failures[:20],
            "samples": {"wall_s": sum(not p["traced"] for p in passes),
                        "job_s": sum(len(p["job_s"]) for p in passes if not p["traced"]),
                        "setup_s": len(setup)},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "measured_s": raw,
            "speed": {"samples": len(sampler.samples),
                      "median_kernel_s": statistics.median(sampler.samples),
                      "reference_kernel_s": speed.REFERENCE_S,
                      "setup": setup},
            "pass_wall_s": [p["wall_s"] for p in passes],
            "job_median_s": {job.name: statistics.median(
                p["job_s"][i] for p in passes if not p["traced"])
                for i, job in enumerate(runner.jobs)},
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (outbase / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            tracer.write(outbase / f"spans-{stem}.jsonl")
    finally:
        # deleted files are discarded on the disk at the next journal
        # commit; syncing here keeps that work out of the next run
        shutil.rmtree(tmp, ignore_errors=True)
        os.sync()

    print(f"workload {args.workload} seed {args.seed} inputs "
          f"{record['input_sha256'][:16]} passes {record['passes']} "
          f"jobs {record['attempted']} failed {record['failed']} "
          f"failed_frac {record['failed_frac']:.6g}")
    print("environment " + json.dumps(record["environment"]))
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    print(f"speed factor of the run {speed.REFERENCE_S / record['speed']['median_kernel_s']:.4g} "
          f"from {record['speed']['samples']} kernel samples; measured "
          + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
