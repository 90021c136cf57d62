"""Record the outputs of every fixed-input job as bench/reference.json.

Run from the repository root, at the commit whose outputs are the
reference (the benchmark then accepts later commits whose numbers agree
within workloads.TOL):

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.source_root()
    import workloads
    reference = {}
    tmp = Path(tempfile.mkdtemp(prefix="reference-"))
    try:
        for workload in workloads.WORKLOADS:
            for i, job in enumerate(workloads.job_list(workload, tmp)):
                if not job.reference:
                    continue
                res = workloads.run_job(job, tmp / f"{workload}{i:03d}")
                if res.error or res.rc != 0:
                    print(f"{job.name}: {res.error or res.stderr}", file=sys.stderr)
                    return 1
                reference[job.name] = workloads.fingerprint(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(reference)} job references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
