#!/usr/bin/env python3
"""Regenerate the shipped pulse-program files from the protocol emitters.

Run from the repository root:  python scripts/export_paper_programs.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinsim import core, protocols as pr  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src/spinsim/data/programs"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    here = OUT.parent / "systems"
    cit = core.load_spin_system(here / "citrate.spin")
    es = core.eigensystem(cit)

    for tgt in ("00", "01", "10", "11"):
        rep = pr.pseudopure_2spin(es, tgt)
        (OUT / f"pps{tgt}.pp").write_text(rep.program_text, encoding="utf-8")
    for f in ("f1", "f2", "f3", "f4"):
        rep = pr.dj_one_qubit(es, f)
        (OUT / f"dj1_{f}.pp").write_text(rep.program_text, encoding="utf-8")
    rep = pr.epr_create(es)
    (OUT / "epr.pp").write_text(rep.program_text, encoding="utf-8")

    demo3 = core.load_spin_system(here / "demo3.spin")
    es3 = core.eigensystem(demo3)
    rep = pr.ghz_create(es3)
    (OUT / "ghz.pp").write_text(
        "# GHZ creation pulses for demo3; apply to the POPS difference\n"
        "# state of the (000,001) transition (spinsim protocol ghz does\n"
        "# the full pipeline).\n" + rep.program_text, encoding="utf-8")

    (OUT / "tomo_mq.pp").write_text(
        "# Two-dimensional multiple-quantum tomography block:\n"
        "# t1 evolution, (pi/2)_y, crusher, (pi/4)_-y, acquisition.\n"
        "delay t1\npulse 90 y\ngrad\npulse 45 -y\nacquire 512 0.002\n",
        encoding="utf-8")
    print(f"wrote programs to {OUT}")


if __name__ == "__main__":
    main()
