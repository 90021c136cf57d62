"""Acceptance suite: every exit criterion of the workbench, runnable both
from the CLI (`spinsim accept`) and from pytest.

Each criterion returns a CriterionResult with a pass flag and a one-line
detail; tolerances are fixed here.  Total runtime is kept under a minute
on a laptop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import acquisition as acq
from . import assignment as asg
from . import dynamics as dyn
from . import protocols as pr
from . import pulselang as pl
from .core import (SpinSystem, eigensystem, mixing_angle_ab, parse_spin_system,
                   sq_transition_count, transition_catalog)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _shipped_system(name: str) -> SpinSystem:
    text = resources.files("spinsim").joinpath(
        "data", "systems", name).read_text(encoding="utf-8")
    return parse_spin_system(text, source=name)


def _shipped_eq13() -> asg.ConnectivityMatrix:
    text = resources.files("spinsim").joinpath(
        "data", "eq13.cm").read_text(encoding="utf-8")
    return asg.parse_connectivity(text, source="eq13.cm")


def random_system(rng: np.random.Generator, n: int,
                  oriented: bool = True) -> SpinSystem:
    offsets = rng.uniform(-300, 300, size=n)
    j = np.zeros((n, n))
    d = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = rng.uniform(1, 12)
            if oriented:
                d[i, k] = d[k, i] = rng.uniform(-200, 200)
    return SpinSystem.create(f"rand{n}", offsets, j, d)


# ---------------------------------------------------------------------------

def criterion_1_mixing_angle() -> CriterionResult:
    theta = mixing_angle_ab(_shipped_system("citrate.spin"))
    return CriterionResult(1, "citrate mixing angle 7.6 deg",
                           abs(theta - 7.6) <= 0.05,
                           f"theta = {theta:.4f} deg, tolerance 0.05")


def criterion_2_pulse_angle() -> CriterionResult:
    theta = pr.THETA_THIRD_DEG
    closed = math.cos(math.radians(theta) / 2) ** 2
    ok = abs(theta - 70.53) <= 0.01 and abs(closed - 2 / 3) <= 1e-12
    return CriterionResult(2, "cos^2(theta/2)=2/3 pulse angle 70.53 deg", ok,
                           f"theta = {theta:.6f} deg")


def criterion_3_transition_counts() -> CriterionResult:
    rng = np.random.default_rng(3)
    expected = {2: 4, 3: 15, 4: 56}
    ok = True
    details = []
    for n, count in expected.items():
        es = eigensystem(random_system(rng, n))
        cat = transition_catalog(es)
        brute = sum(1 for k in range(es.dim) for l in range(es.dim)
                    if es.mz[k] - es.mz[l] == 1)
        ok &= (sq_transition_count(n) == count == len(cat) == brute)
        details.append(f"n={n}: {len(cat)}")
    return CriterionResult(3, "transition counts 4/15/56 vs brute force", ok,
                           ", ".join(details))


def criterion_4_pseudopure() -> CriterionResult:
    es = eigensystem(_shipped_system("citrate.spin"))
    ok = True
    worst = 0.0
    for target in ("00", "01", "10", "11"):
        rep = pr.pseudopure_2spin(es, target)
        off = rep.final_state - np.diag(np.diag(rep.final_state))
        spread = rep.metrics["others_spread"]
        worst = max(worst, spread, float(np.abs(off).max()))
        pops = np.real(np.diag(rep.final_state))
        tgt = es.index_of_label(target)
        others = [pops[k] for k in range(4) if k != tgt]
        excess = abs(pops[tgt] - np.mean(others))
        ok &= (spread <= 1e-10 and np.abs(off).max() <= 1e-10
               and rep.metrics["pps_fidelity"] >= 0.999 and excess > 1.0)
    return CriterionResult(4, "four pseudopure sequences", ok,
                           f"max residual {worst:.2e}, fidelity >= 0.999")


def criterion_5_epr() -> CriterionResult:
    es = eigensystem(_shipped_system("citrate.spin"))
    perm = [es.index_of_label(l) for l in ("00", "01", "10", "11")]
    i00, i10, i11 = perm[0], perm[2], perm[3]
    u = dyn.selective_pulse_unitary(es, i10, i11, 180.0, 180.0) \
        @ dyn.selective_pulse_unitary(es, i00, i10, 90.0, 0.0)
    ulab = u[np.ix_(perm, perm)]
    eq11 = (1 / math.sqrt(2)) * np.array(
        [[1, 0, -1j, 0], [0, math.sqrt(2), 0, 0],
         [0, 0, 0, 1j * math.sqrt(2)], [1, 0, 1j, 0]])
    phase = ulab[0, 0] / eq11[0, 0]
    d_eq11 = float(np.abs(ulab - phase * eq11).max())

    proj = pr.epr_pure_projector(es)[np.ix_(perm, perm)]
    eq12 = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                           [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    d_eq12 = float(np.abs(proj - eq12).max())

    rep = pr.epr_create(es)
    rho = rep.final_state
    ratio = acq.tomo_scale_calibration(es, rho)

    # tomography round-trip on a carrier-shifted variant (same J and offset
    # difference), so the double-quantum peak is clear of the axial ridge
    shifted = SpinSystem.create("citrate+40", [67.75, 12.25],
                                [[0, 15], [15, 0]])
    es_s = eigensystem(shifted)
    rho_s = pr.epr_create(es_s).final_state
    diag, _ = acq.tomo_diagonal(es_s, rho_s)
    coherences = acq.tomo_offdiagonal_2d(es_s, rho_s, t1_points=128,
                                         t2_points=256)
    _, fidelity = acq.reconstruct_density(diag, coherences, reference=rho_s)
    ok = (d_eq11 <= 1e-12 and d_eq12 <= 1e-12
          and rep.metrics["sq_amplitude"] <= 1e-12
          and rep.metrics["zq_amplitude"] <= 1e-12
          and fidelity >= 0.99 and ratio <= 1e-6)
    return CriterionResult(
        5, "EPR creation and tomography", ok,
        f"U-Eq11 {d_eq11:.1e}, rho-Eq12 {d_eq12:.1e}, "
        f"tomo fidelity {fidelity:.6f}, iv/iii ratio {ratio:.1e}")


def criterion_6_ghz() -> CriterionResult:
    es = eigensystem(_shipped_system("demo3.spin"))
    cat = transition_catalog(es)
    rep = pr.ghz_create(es)
    tq = rep.metrics["tq_amplitude"]
    low = max(rep.metrics["zq_offdiag_amplitude"], rep.metrics["sq_amplitude"],
              rep.metrics["dq_amplitude"])
    ladder = [int(t[1:]) for t in rep.info["ladder"].split(",")]
    fsum = sum(cat.by_id(t).freq_hz for t in ladder)

    t1_points, t2_points = 256, 512
    dwell1 = acq.default_tomo_dwell(es)
    dataset = acq.tomo_dataset(es, rep.final_state, t1_points, t2_points)
    bin1 = 1.0 / (t1_points * dwell1)
    peaks = [p for p in acq.peak_pick_2d(dataset) if abs(p[0]) > bin1]
    peak_ok = bool(peaks) and abs(abs(peaks[0][0]) - abs(fsum)) <= bin1
    ok = abs(tq - 0.5) <= 1e-9 and low <= 1e-9 and peak_ok
    return CriterionResult(
        6, "GHZ coherence purity and 2D location", ok,
        f"tq {tq:.9f}, low-order {low:.1e}, omega1 peak "
        f"{abs(peaks[0][0]) if peaks else float('nan'):.2f} Hz vs "
        f"{abs(fsum):.2f} Hz (bin {bin1:.2f})")


def criterion_7_deutsch_jozsa() -> CriterionResult:
    es2 = eigensystem(_shipped_system("citrate.spin"))
    ok = True
    bad = []
    for f, truth in pr.DJ1_TRUTH.items():
        rep = pr.dj_one_qubit(es2, f)
        if rep.info["verdict"] != truth:
            ok = False
            bad.append(f"1q:{f}")
    es3 = eigensystem(_shipped_system("demo3.spin"))
    for f, truth in pr.DJ2_TRUTH.items():
        rep = pr.dj_two_qubit_2d(es3, f, t1_points=256, t2_points=1024)
        if rep.info["verdict"] != truth:
            ok = False
            bad.append(f"2q:{f}")
    return CriterionResult(7, "DJ classification, 4 one-qubit + 8 two-qubit",
                           ok, "all correct" if ok else "wrong: " + ",".join(bad))


def criterion_8_gates() -> CriterionResult:
    es = eigensystem(_shipped_system("compound1.spin"))
    gates_ok = all(
        pr.gate_library_2spin(es, g).metrics["truth_table_ok"] == 1.0
        for g in range(1, 25))

    es4 = eigensystem(_shipped_system("demo4.spin"))
    c3 = pr.c3not_4spin(es4)
    i1110 = es4.index_of_label("1110")
    i1101 = es4.index_of_label("1101")
    i1010 = es4.index_of_label("1010")
    rin = np.zeros((16, 16), dtype=complex)
    rin[i1110, i1110] = 1.0
    rin[i1010, i1010] = -1.0
    rep = pr.c2swap_4spin(es4, rho0=rin)
    expect = np.zeros((16, 16), dtype=complex)
    expect[i1101, i1101] = 1.0
    expect[i1010, i1010] = -1.0
    d_eq20 = float(np.abs(rep.final_state - expect).max())
    pops_rep = pr.c2swap_4spin(es4)
    ok = (gates_ok and c3.metrics["truth_table_ok"] == 1.0
          and d_eq20 <= 1e-12
          and pops_rep.metrics["pops_output_error"] <= 1e-10)
    return CriterionResult(
        8, "24 gates + C3-NOT + C2-SWAP", ok,
        f"gates {'ok' if gates_ok else 'FAIL'}, Eq.20 residual {d_eq20:.1e}, "
        f"POPS match {pops_rep.metrics['pops_output_error']:.1e}")


def _edge_relation(ea, eb) -> int:
    """Connectivity of two (layer, lower, upper) edges, the levels numbered
    within their manifolds."""
    (pa, ua, va), (pb, ub, vb) = ea, eb
    if (pa == pb + 1 and ua == vb) or (pb == pa + 1 and ub == va):
        return 1
    if pa == pb and (ua == ub or va == vb):
        return -1
    return 0


def oracle_reconstruct(cm: asg.ConnectivityMatrix, n: int) -> set:
    """Exhaustive enumeration over all injective edge assignments.

    Independent of the backtracking solver: iterates every ordered choice
    of labeled edges and keeps the consistent ones, reduced to canonical
    signatures.
    """
    edges = [(p, u, v)
             for p in range(n)
             for u in range(math.comb(n, p))
             for v in range(math.comb(n, p + 1))]
    t = cm.size
    rel = {}
    for ea in edges:
        for eb in edges:
            rel[(ea, eb)] = _edge_relation(ea, eb)
    sigs = set()
    for combo in itertools.permutations(edges, t):
        ok = True
        for i in range(t):
            for j in range(i + 1, t):
                if rel[(combo[i], combo[j])] != cm.m[i, j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            sigs.add(asg._canonical_signature(n, list(combo)))
    return sigs


def _solver_signatures(cm: asg.ConnectivityMatrix, n: int) -> set:
    res = asg.reconstruct_levels(cm, n, max_solutions=100000)
    return {ld.signature(cm.ids) for ld in res.diagrams}


def criterion_9_assignment() -> CriterionResult:
    cm = _shipped_eq13()
    res = asg.reconstruct_levels(cm, 3)
    eq13_ok = bool(res.diagrams)
    ninth_ok = False
    if eq13_ok:
        ld = res.diagrams[0]
        bases = asg.manifold_bases(ld.n)
        touched = set()
        for lo, up in ld.edges.values():
            touched |= {lo, up}
        free_mid = [lvl for lvl in range(bases[1], bases[3])
                    if lvl not in touched]
        ninth_ok = (len(free_mid) == 2
                    and ld.manifold_of(free_mid[0]) == 1
                    and ld.manifold_of(free_mid[1]) == 2
                    and asg.verify_diagram(ld, cm)[0])

    rng = np.random.default_rng(9)
    failures = 0
    for i in range(100):
        n = int(rng.integers(2, 5))
        es = eigensystem(random_system(rng, n))
        truth = asg.diagram_from_catalog(es, threshold=0.0)
        cm_full = acq.zcosy_connectivity(es, threshold=0.0)
        out = asg.reconstruct_levels(cm_full, n, max_solutions=4)
        if not out.diagrams:
            failures += 1
            continue
        if not all(asg.verify_diagram(ld, cm_full)[0] for ld in out.diagrams):
            failures += 1
            continue
        relabeled = [asg.LevelDiagram(
            n=n, edges={cm_full.ids[k]: ld.edges[cm_full.ids[k]]
                        for k in range(cm_full.size)})
            for ld in out.diagrams]
        if not any(asg.diagrams_isomorphic(ld, truth) for ld in relabeled):
            failures += 1

    oracle_ok = True
    rng2 = np.random.default_rng(19)
    checked = 0
    for n, tmax in ((2, 4), (2, 3), (3, 4), (3, 5)):
        es = eigensystem(random_system(rng2, n))
        ids = list(range(1, len(transition_catalog(es)) + 1))
        pick = sorted(rng2.choice(len(ids), size=tmax, replace=False).tolist())
        sub_ids = tuple(ids[k] for k in pick)
        full = acq.zcosy_connectivity(es, threshold=0.0)
        idx = [full.ids.index(t) for t in sub_ids]
        sub = asg.ConnectivityMatrix(m=full.m[np.ix_(idx, idx)], ids=sub_ids)
        if _solver_signatures(sub, n) != oracle_reconstruct(sub, n):
            oracle_ok = False
        checked += 1

    ok = eq13_ok and ninth_ok and failures == 0 and oracle_ok
    return CriterionResult(
        9, "level-diagram assignment", ok,
        f"eq13 diagrams {len(res.diagrams)}, ninth-edge {ninth_ok}, "
        f"roundtrip failures {failures}/100, oracle instances {checked} "
        f"{'agree' if oracle_ok else 'DISAGREE'}")


def criterion_10_dynamics_properties() -> CriterionResult:
    rng = np.random.default_rng(10)
    worst_u = worst_tr = worst_eq8 = worst_pars = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 4))
        es = eigensystem(random_system(rng, n))
        dim = es.dim
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = (a + a.conj().T) / 2
        herm -= np.trace(herm) / dim * np.eye(dim)
        theta = float(rng.uniform(-360, 360))
        phase = float(rng.uniform(0, 360))
        if rng.integers(2):
            lo = int(rng.integers(dim))
            ups = [u for u in range(dim) if es.mz[u] == es.mz[lo] - 1]
            if not ups:
                lo, up = 0, [u for u in range(dim)
                             if es.mz[u] == es.mz[0] - 1][0]
            else:
                up = ups[int(rng.integers(len(ups)))]
            u = dyn.selective_pulse_unitary(es, lo, up, theta, phase)
            p_i, p_j = float(rng.normal()), float(rng.normal())
            q_i, q_j = dyn.selective_population_update(p_i, p_j, theta)
            pops = np.zeros((dim, dim), dtype=complex)
            pops[lo, lo] = p_i
            pops[up, up] = p_j
            out = dyn.crush_gradient(dyn.apply_unitary(pops, u))
            worst_eq8 = max(worst_eq8,
                            abs(out[lo, lo] - q_i), abs(out[up, up] - q_j))
        else:
            u = dyn.hard_pulse_unitary(es, theta, phase)
        worst_u = max(worst_u, float(np.abs(u @ u.conj().T - np.eye(dim)).max()))
        conj = dyn.apply_unitary(herm, u)
        worst_tr = max(worst_tr, abs(np.trace(conj) - np.trace(herm)))
        if case % 10 == 0:
            pts = 256
            fid = acq.acquire_fid(es, herm, pts, 1e-3)
            _, spec = acq.fft_spectrum(fid, 1e-3)
            e_t = float(np.sum(np.abs(fid) ** 2))
            e_f = float(np.sum(np.abs(spec) ** 2)) / pts
            worst_pars = max(worst_pars,
                             abs(e_t - e_f) / max(1.0, abs(e_t)))
    ok = (worst_u <= 1e-12 and worst_tr <= 1e-12
          and worst_eq8 <= 1e-12 and worst_pars <= 1e-10)
    return CriterionResult(
        10, "randomized dynamics suite (1000 cases)", ok,
        f"unitarity {worst_u:.1e}, trace {worst_tr:.1e}, "
        f"population closed form {worst_eq8:.1e}, Parseval {worst_pars:.1e}")


ALL_CRITERIA = (
    criterion_1_mixing_angle,
    criterion_2_pulse_angle,
    criterion_3_transition_counts,
    criterion_4_pseudopure,
    criterion_5_epr,
    criterion_6_ghz,
    criterion_7_deutsch_jozsa,
    criterion_8_gates,
    criterion_9_assignment,
    criterion_10_dynamics_properties,
)


def run_all(verbose: bool = False) -> list[CriterionResult]:
    results = []
    for crit in ALL_CRITERIA:
        res = crit()
        results.append(res)
        if verbose:
            state = "PASS" if res.passed else "FAIL"
            print(f"{state} {res.cid:2d} {res.name}: {res.detail}")
    if verbose:
        n_ok = sum(r.passed for r in results)
        print(f"{n_ok}/{len(results)} criteria passed")
    return results
