#!/usr/bin/env python3
"""Classify all Deutsch-Jozsa functions: the four one-qubit cases on the
two-spin citrate system and the eight two-qubit cases on the oriented
three-spin demo system, printing verdict versus ground truth.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinsim import core, protocols as pr  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/spinsim/data/systems"


def main() -> None:
    es2 = core.eigensystem(core.load_spin_system(DATA / "citrate.spin"))
    print("one-qubit DJ on citrate:")
    for f, truth in pr.DJ1_TRUTH.items():
        rep = pr.dj_one_qubit(es2, f)
        mark = "ok" if rep.info["verdict"] == truth else "WRONG"
        print(f"  {f}: {rep.info['verdict']:9s} (truth {truth:9s}) {mark}")

    es3 = core.eigensystem(core.load_spin_system(DATA / "demo3.spin"))
    print("two-qubit DJ on demo3 (2D readout):")
    for f, truth in pr.DJ2_TRUTH.items():
        rep = pr.dj_two_qubit_2d(es3, f, t1_points=256, t2_points=1024)
        mark = "ok" if rep.info["verdict"] == truth else "WRONG"
        print(f"  {f} {rep.info['pattern']}: {rep.info['verdict']:9s} "
              f"(truth {truth:9s}) {mark}  [{rep.info['outcomes']}]")


if __name__ == "__main__":
    main()
