"""Seeded generation of the benchmark's random input files.

Everything here depends only on the seed and on the reference model, never
on spinsim, so every commit is measured on the same inputs.  Generated
values are rounded to the precision written to the files and the model is
evaluated on the rounded values, so the program and the checks see the
same numbers.  The cost of each job does not depend on the seed: only
values change, never the shape of a system, a program or a state.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import model

PHASES = ("x", "y", "-x", "-y")
_PHASE_DEG = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}

BIGSPIN_SIZES = (6, 7, 8)
# a thresholded 5-spin matrix is left out: its search took from 0.03 to
# 0.17 s depending on the seed, which moved the job-latency median from
# seed to seed; the cost of a full matrix depends on the seed much less
ASSIGN_SYSTEMS = ((4, "full"), (4, "obs"), (5, "full"), (5, "full"), (5, "full"),
                  (5, "full"))
OBS_THRESHOLD = 0.05
# transition references in random programs come from the strongest lines,
# which are well separated in intensity, so their ids cannot depend on
# rounding in the eigensolve
_TID_POOL = 24


def random_system(rng: np.random.Generator, n: int):
    offsets = [round(float(x), 6) for x in rng.uniform(-300, 300, size=n)]
    j = [[0.0] * n for _ in range(n)]
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            j[i][k] = j[k][i] = round(float(rng.uniform(1, 12)), 6)
            d[i][k] = d[k][i] = round(float(rng.uniform(-200, 200)), 6)
    return offsets, j, d


def spin_text(name: str, offsets, j, d) -> str:
    n = len(offsets)
    out = [f"name {name}", f"nspins {n}",
           "offset_hz " + " ".join(f"{x:.6f}" for x in offsets)]
    for key, m in (("j_hz", j), ("d_hz", d)):
        for i in range(n):
            for k in range(i + 1, n):
                out.append(f"{key} {i + 1} {k + 1} {m[i][k]:.6f}")
    return "\n".join(out) + "\n"


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dense traceless Hermitian matrix of unit Frobenius norm."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / dim * np.eye(dim)
    h /= np.linalg.norm(h)
    return np.round(h.real, 12) + 1j * np.round(h.imag, 12)


def state_text(mat: np.ndarray) -> str:
    dim = mat.shape[0]
    rows = [f"dim {dim}"]
    rows += [f"{k + 1} {l + 1} {mat[k, l].real:.12f} {mat[k, l].imag:.12f}"
             for k in range(dim) for l in range(dim)]
    return "\n".join(rows) + "\n"


def _separated_tids(trans) -> list[int]:
    inten = [t[3] for t in trans[:_TID_POOL + 1]]
    out = []
    for k in range(min(_TID_POOL, len(trans))):
        gaps = [abs(inten[k] - inten[q]) for q in (k - 1, k + 1)
                if 0 <= q < len(inten)]
        if min(gaps) > 1e-6 * inten[0]:
            out.append(k + 1)
    return out


def random_program(rng: np.random.Generator, tids: list[int]):
    """Phase-cycled program text plus its op list for model.propagate.

    Fixed shape: an 8-row two-slot cycle, two hard and four selective
    pulses, two delays, one crusher and a final 1024-point acquire.
    """
    rows = [tuple(PHASES[int(i)] for i in rng.integers(4, size=2))
            for _ in range(8)]
    receivers = [1 if rng.integers(2) else -1 for _ in range(8)]

    def angle():
        return round(float(rng.uniform(10, 350)), 3)

    def fixed_phase():
        return PHASES[int(rng.integers(4))]

    def tid():
        return tids[int(rng.integers(len(tids)))]

    shape = ("hard$0", "sel", "sel$1", "delay", "grad", "sel$0", "hard",
             "delay", "sel")
    lines = ["cycle P1 P2"]
    lines += [f"row {a} {b} {'+' if r > 0 else '-'}"
              for (a, b), r in zip(rows, receivers)]
    ops = []
    for step in shape:
        kind, _, slot = step.partition("$")
        if kind == "delay":
            secs = round(float(rng.uniform(1e-4, 5e-3)), 7)
            lines.append(f"delay {secs:.7f}")
            ops.append(("delay", secs))
            continue
        if kind == "grad":
            lines.append("grad")
            ops.append(("grad",))
            continue
        ang = angle()
        if slot:
            ph_text, ph = f"$P{int(slot) + 1}", ("slot", int(slot))
        else:
            ph_text = fixed_phase()
            ph = _PHASE_DEG[ph_text]
        if kind == "hard":
            lines.append(f"pulse {ang:.3f} {ph_text}")
            ops.append(("hard", ang, ph))
        else:
            t = tid()
            lines.append(f"selpulse t{t} {ang:.3f} {ph_text}")
            ops.append(("sel", t, ang, ph))
    lines.append("acquire 1024 0.0002")
    deg_rows = [tuple(_PHASE_DEG[p] for p in row) for row in rows]
    return "\n".join(lines) + "\n", ops, deg_rows, receivers


def cm_text(m: np.ndarray) -> str:
    return "\n".join(" ".join(f"{v:2d}" for v in row) for row in m) + "\n"


def observed_edges(trans, kind: str) -> list[tuple[int, int]]:
    """Level pairs of a full or thresholded (observable and connected)
    transition set, in catalog order."""
    if kind == "full":
        return [(lo, up) for lo, up, _, _ in trans]
    top = max(t[3] for t in trans)
    edges = [(lo, up) for lo, up, _, inten in trans
             if inten >= OBS_THRESHOLD * top]
    m = model.connectivity(edges)
    return [e for e, row in zip(edges, m) if row.any()]


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's random inputs under root; return the facts the
    output checks need, keyed by file stem."""
    rng = np.random.default_rng([seed, sum(workload.encode())])
    facts: dict = {}
    if workload == "tomography":
        for stem, dim in (("rand3", 8), ("rand4", 16)):
            mat = random_state(rng, dim)
            (root / f"{stem}.state").write_text(state_text(mat))
            facts[stem] = {"state": mat}
    elif workload == "bigspin":
        for n in BIGSPIN_SIZES:
            sysvals = random_system(rng, n)
            (root / f"spin{n}.spin").write_text(spin_text(f"spin{n}", *sysvals))
            es = model.eigen(*sysvals)
            trans = model.transitions(es)
            text, ops, rows, recv = random_program(rng, _separated_tids(trans))
            (root / f"prog{n}.pp").write_text(text)
            ops = [(op[0], trans[op[1] - 1][0], trans[op[1] - 1][1], *op[2:])
                   if op[0] == "sel" else op for op in ops]
            final = model.propagate(es, model.equilibrium(es), ops, rows, recv)
            facts[f"spin{n}"] = {"energies": es.energies, "trans": trans}
            facts[f"prog{n}"] = {"state": final}
        for k, (n, kind) in enumerate(ASSIGN_SYSTEMS):
            es = model.eigen(*random_system(rng, n))
            edges = observed_edges(model.transitions(es), kind)
            m = model.connectivity(edges)
            stem = f"cm{k}_{n}{kind}"
            (root / f"{stem}.cm").write_text(cm_text(m))
            facts[stem] = {"n": n, "kind": kind, "m": m}
    return facts


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
