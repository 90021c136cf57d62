"""Named experiments: pseudopure preparation, POPS, Deutsch-Jozsa, EPR and
GHZ creation, the 24 one-to-one two-qubit gates, and the four-spin
C3-NOT / C2-SWAP gates.

Each protocol emits its pulse program as DSL text, executes it through the
pulse-language layer (so re-running the emitted program reproduces the
final state bit-exactly), and reports named metrics.  Transitions are
referenced by eigenstate label pairs, which keeps the programs valid for
any system with the right spin count; the catalog ids they resolve to
depend on the actual couplings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import EigenSystem, Transition, transition_catalog
from . import acquisition as acq
from . import dynamics as dyn
from . import pulselang as pl

# pulse angle that moves one third of a population difference: cos^2(t/2)=2/3
THETA_THIRD_DEG = 2 * math.degrees(math.acos(math.sqrt(2.0 / 3.0)))


class ProtocolError(ValueError):
    pass


@dataclass
class ProtocolReport:
    name: str
    program_text: str
    final_state: np.ndarray
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, str] = field(default_factory=dict)

    def format_report(self) -> str:
        out = [f"name={self.name}"]
        for k in sorted(self.metrics):
            out.append(f"{k}={self.metrics[k]:.12g}")
        for k in sorted(self.info):
            out.append(f"{k}={self.info[k]}")
        return "\n".join(out) + "\n"


def _run(name: str, text: str, es: EigenSystem,
         rho0: np.ndarray) -> ProtocolReport:
    program = pl.parse_program(text, source=name)
    final = pl.execute(program, es, rho0)
    return ProtocolReport(name=name, program_text=text, final_state=final)


_SPIN_COUNTS = {2: "two", 3: "three", 4: "four"}


def _checked(es: EigenSystem, n: int, what: str) -> None:
    """Raise unless ``es`` has ``n`` spins."""
    if es.n != n:
        raise ProtocolError(f"{what} needs a {_SPIN_COUNTS[n]}-spin system")


def _order_maxima(es: EigenSystem, mat: np.ndarray, orders) -> list[float]:
    """The largest off-diagonal |mat[k, l]| of each coherence order
    |m_z(k) - m_z(l)| in ``orders``, 0 where the order has no element."""
    mag = np.hypot(mat.real, mat.imag)     # elementwise, the scalar abs(z)
    dm = np.abs(es.mz[:, None] - es.mz)
    np.fill_diagonal(dm, -1)
    return [float(mag[dm == q].max(initial=0.0)) for q in orders]


# ---------------------------------------------------------------------------
# pseudopure states (two spins)

def _pps_program(target: str) -> str:
    seq00 = (f"selpulse (10,11) {THETA_THIRD_DEG:.12g} x\ngrad\n"
             f"selpulse (01,11) 90 x\ngrad\n")
    if target == "00":
        return seq00
    if target == "01":
        return seq00 + "selpulse (00,01) 180 x\ngrad\n"
    if target == "10":
        return seq00 + "selpulse (00,10) 180 x\ngrad\n"
    if target == "11":
        return (f"selpulse (00,01) {THETA_THIRD_DEG:.12g} x\ngrad\n"
                f"selpulse (00,10) 90 x\ngrad\n")
    raise ProtocolError(f"unknown pseudopure target {target!r}")


def pseudopure_2spin(es: EigenSystem, target: str) -> ProtocolReport:
    """Prepare a two-spin pseudopure deviation by population transfers.

    |00> uses the two-step sequence with the 70.5 deg pulse; |01> and |10>
    add a pi pulse on the transition reaching the target; |11> uses the
    mirrored sequence (its deviation carries the pure part with a negative
    coefficient, which the fidelity metric folds out).
    """
    _checked(es, 2, "pseudopure_2spin")
    rho0 = dyn.equilibrium_deviation(es)
    rep = _run(f"pps{target}", _pps_program(target), es, rho0)
    pops = np.real(np.diag(rep.final_state))
    tgt = es.index_of_label(target)
    others = [pops[k] for k in range(es.dim) if k != tgt]
    coeff, vec = dyn.pure_part(rep.final_state)
    rep.metrics["pps_fidelity"] = float(abs(vec[tgt]) ** 2)
    rep.metrics["target_population"] = float(pops[tgt])
    rep.metrics["others_spread"] = float(max(others) - min(others))
    rep.info["target"] = target
    return rep


# ---------------------------------------------------------------------------
# POPS: pair of pseudopure states

def pops_pair(es: EigenSystem, tid: int,
              threshold: float = 0.05) -> ProtocolReport:
    """Equilibrium minus pi-inverted populations for one transition.

    The final state, (p_lower - p_upper) * (|lower><lower| -
    |upper><upper|) with equilibrium populations, is a pair of pseudopure
    states; ``metrics["scale"]`` is p_lower - p_upper and ``info["pair"]``
    the two labels.  The transition must be observable at ``threshold``.
    """
    catalog = transition_catalog(es)
    try:
        t = catalog.by_id(tid)
    except KeyError as exc:
        raise ProtocolError(exc.args[0]) from None
    if not catalog.observable_at(threshold)[tid - 1]:
        raise ProtocolError(f"transition t{tid} is not observable")
    pair = f"{es.labels[t.lower]},{es.labels[t.upper]}"
    text = f"selpulse ({pair}) 180 x\ngrad\n"
    rho_eq = dyn.equilibrium_deviation(es)
    program = pl.parse_program(text, source=f"pops{tid}")
    rho_inv = pl.execute(program, es, rho_eq)
    pops = np.real(np.diag(rho_eq))
    return ProtocolReport(
        name=f"pops{tid}", program_text=text, final_state=rho_eq - rho_inv,
        metrics={"scale": float(pops[t.lower] - pops[t.upper])},
        info={"pair": pair})


def find_transition_by_labels(es: EigenSystem, a: str, b: str) -> Transition:
    try:
        return transition_catalog(es).by_labels(es, a, b)
    except KeyError as exc:
        raise ProtocolError(str(exc)) from None


# ---------------------------------------------------------------------------
# Deutsch-Jozsa, one input qubit (two spins: input bit first, work bit second)

_DJ1_PULSES = {
    "f1": (),
    "f2": (("00", "01"), ("10", "11")),
    "f3": (("10", "11"),),
    "f4": (("00", "01"),),
}
DJ1_TRUTH = {"f1": "constant", "f2": "constant",
             "f3": "balanced", "f4": "balanced"}


def dj_one_qubit(es: EigenSystem, f: str) -> ProtocolReport:
    """One-qubit Deutsch-Jozsa on the |00> pseudopure state.

    A (pi/2)_-y pulse creates the (non-uniform) superposition, U_f is a set
    of transition-selective pi pulses on work-qubit transitions, and the
    two input-qubit lines are read out: equal phases mean constant,
    opposite phases balanced.
    """
    _checked(es, 2, "dj_one_qubit")
    if f not in _DJ1_PULSES:
        raise ProtocolError(f"unknown one-qubit DJ function {f!r}")
    # y-phase pi pulses make the coherence-transfer factors real (+1 into
    # the upper element, -1 into the lower), which is what turns a balanced
    # function into opposite line signs
    text = _pps_program("00") + "pulse 90 -y\n"
    for (a, b) in _DJ1_PULSES[f]:
        text += f"selpulse ({a},{b}) 180 y\n"
    rep = _run(f"dj1_{f}", text, es, dyn.equilibrium_deviation(es))

    amps = acq.line_amplitudes(es, rep.final_state)
    t_a = find_transition_by_labels(es, "00", "10")
    t_b = find_transition_by_labels(es, "01", "11")
    a1, a2 = amps[t_a.tid - 1], amps[t_b.tid - 1]
    agreement = float(np.real(a1 * np.conj(a2)))
    verdict = "constant" if agreement > 0 else "balanced"
    rep.metrics["line_phase_agreement"] = agreement
    rep.metrics["verdict_balanced"] = 0.0 if verdict == "constant" else 1.0
    rep.info["verdict"] = verdict
    rep.info["function"] = f
    return rep


# ---------------------------------------------------------------------------
# EPR creation with the 8-row phase cycle

_EPR_ROWS = ["x -x", "-x x", "y y", "-y -y"] * 2
_EPR_CYCLE = "cycle P1 P2\n" + "".join(f"row {row} +\n" for row in _EPR_ROWS)


def _epr_pulses(p1: str, p2: str) -> str:
    return f"selpulse (00,10) 90 {p1}\nselpulse (10,11) 180 {p2}\n"


def epr_create(es: EigenSystem) -> ProtocolReport:
    """Create (|00> + |11>)/sqrt(2) from the |00> pseudopure state.

    The sequence is a (pi/2) pulse on (00,10) followed by a pi pulse on
    (10,11), repeated under the eight-row phase cycle; each row yields the
    same state for ideal pulses, so the cycle is an identity safeguard.
    """
    _checked(es, 2, "epr_create")
    text = _EPR_CYCLE + _pps_program("00") + _epr_pulses("$P1", "$P2")
    rep = _run("epr", text, es, dyn.equilibrium_deviation(es))

    i00, i01 = es.index_of_label("00"), es.index_of_label("01")
    i10, i11 = es.index_of_label("10"), es.index_of_label("11")
    rho = rep.final_state
    sq, = _order_maxima(es, rho, (1,))
    target = np.zeros(4, dtype=complex)
    target[i00] = target[i11] = 1 / math.sqrt(2)
    coeff, vec = dyn.pure_part(rep.final_state)
    # amplitudes are normalized by the pseudopure coefficient, so the ideal
    # double-quantum amplitude is 1/2 as in the pure-state density matrix
    scale = abs(coeff) if coeff != 0 else 1.0
    rep.metrics["dq_amplitude"] = float(abs(rho[i00, i11]) / scale)
    rep.metrics["sq_amplitude"] = float(sq / scale)
    rep.metrics["zq_amplitude"] = float(abs(rho[i01, i10]) / scale)
    rep.metrics["fidelity"] = float(abs(np.vdot(target, vec)) ** 2)
    return rep


def epr_pure_projector(es: EigenSystem) -> np.ndarray:
    """U_epr |00><00| U_epr^dagger in eigenstate-index order: the EPR
    pulses of ``epr_create`` under the first row of its phase cycle."""
    program = pl.parse_program(_epr_pulses(*_EPR_ROWS[0].split()), source="epr")
    i00 = es.index_of_label("00")
    p0 = np.zeros((4, 4), dtype=complex)
    p0[i00, i00] = 1.0
    return pl.execute(program, es, p0)


# ---------------------------------------------------------------------------
# GHZ creation with the 16-row phase cycle

_GHZ_ROWS = [
    "y y y", "y -y -y", "-y y -y", "-y -y y",
    "y x -x", "y -x x", "-y x x", "-y -x -x",
    "x y -x", "x -y x", "-x y x", "-x -y -x",
    "x x -y", "x -x y", "-x x y", "-x -x -y",
]


def find_ghz_ladder(es: EigenSystem) -> tuple[Transition, Transition, Transition]:
    """Pick a transition ladder |000> -> X -> Y -> |111> clear of |001>.

    Chooses the ladder with the largest intensity product; deterministic
    tie-break on the indices of X and Y.  Every pair one M_z quantum
    apart is a catalog line, so every such X and Y form a ladder.
    """
    catalog = transition_catalog(es)
    i000, i001, i111 = (es.index_of_label(lab) for lab in ("000", "001", "111"))
    return min(((catalog.by_pair(i000, x), catalog.by_pair(x, y),
                 catalog.by_pair(y, i111))
                for x in np.flatnonzero(es.mz == 0.5).tolist() if x != i001
                for y in np.flatnonzero(es.mz == -0.5).tolist()),
               key=lambda abc: (-(abc[0].intensity * abc[1].intensity
                                  * abc[2].intensity),
                                abc[0].upper, abc[1].upper))


def ghz_create(es: EigenSystem, threshold: float = 0.05) -> ProtocolReport:
    """Create |GHZ><GHZ| - |001><001| from the POPS pair on (000,001).

    A (pi/2) pulse on the first ladder transition followed by two pi pulses
    walks |000> into (|000> + |111>)/sqrt(2) under the 16-row phase cycle
    (every row accumulates the same 270-degree phase sum).  The ladder is
    the highest-intensity one of the catalog that connects |000> to |111>
    without touching |001> (``find_ghz_ladder``).  The POPS transition
    must be observable at ``threshold``.
    """
    _checked(es, 3, "ghz_create")
    pops_tid = find_transition_by_labels(es, "000", "001").tid
    pops = pops_pair(es, pops_tid, threshold)
    scale = pops.metrics["scale"]

    ta, tb, tc = find_ghz_ladder(es)
    labels = [es.labels[k] for k in (ta.lower, ta.upper, tb.upper, tc.upper)]

    text = "cycle P1 P2 P3\n"
    for row in _GHZ_ROWS:
        text += f"row {row} +\n"
    text += (f"selpulse ({labels[0]},{labels[1]}) 90 $P1\n"
             f"selpulse ({labels[1]},{labels[2]}) 180 $P2\n"
             f"selpulse ({labels[2]},{labels[3]}) 180 $P3\n")
    rep = _run("ghz", text, es, pops.final_state)

    rho = rep.final_state
    i000, i111 = es.index_of_label("000"), es.index_of_label("111")
    rep.metrics["tq_amplitude"] = float(abs(rho[i000, i111]) / scale)
    (rep.metrics["zq_offdiag_amplitude"], rep.metrics["sq_amplitude"],
     rep.metrics["dq_amplitude"]) = _order_maxima(es, rho, (0, 1, 2))
    expected = np.zeros_like(rho)
    ghz = np.zeros(es.dim, dtype=complex)
    ghz[i000] = ghz[i111] = 1 / math.sqrt(2)
    expected += scale * np.outer(ghz, ghz.conj())
    i001 = es.index_of_label("001")
    expected[i001, i001] -= scale
    rep.metrics["state_error"] = float(np.abs(rho - expected).max())
    rep.info["ladder"] = f"t{ta.tid},t{tb.tid},t{tc.tid}"
    rep.info["pops_transition"] = f"t{pops_tid}"
    return rep


# ---------------------------------------------------------------------------
# the 24 one-to-one two-spin gates

_GATE_LABELS = ("00", "01", "10", "11")
_GATE_GENERATORS = ((0, 1), (0, 2), (1, 3), (2, 3))   # SQ-allowed label pairs


def _gate_words() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Shortest decomposition of every 4-element permutation into allowed
    transpositions, by breadth-first search over the Cayley graph."""
    start = (0, 1, 2, 3)
    words = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for perm in frontier:
            for gi, (a, b) in enumerate(_GATE_GENERATORS):
                # apply transposition (a b) after the current permutation
                cand = tuple(b if p == a else a if p == b else p for p in perm)
                if cand not in words:
                    words[cand] = words[perm] + (gi,)
                    nxt.append(cand)
        frontier = nxt
    return words


_GATE_WORDS = _gate_words()
GATE_PERMUTATIONS = tuple(sorted(itertools.permutations(range(4))))


def gate_library_2spin(es: EigenSystem, gate: int) -> ProtocolReport:
    """One of the 24 one-to-one gates as transition-selective pi pulses.

    Gate g (1-based) is the g-th permutation of the eigenstate labels
    (00, 01, 10, 11) in lexicographic order, decomposed into the shortest
    product of transpositions along allowed transitions.  The truth table
    is verified by running the program on every basis projector.
    """
    _checked(es, 2, "gate_library_2spin")
    if not 1 <= gate <= 24:
        raise ProtocolError("gate index must be 1..24")
    perm = GATE_PERMUTATIONS[gate - 1]
    word = _GATE_WORDS[perm]
    text = ""
    for gi in word:
        a, b = _GATE_GENERATORS[gi]
        text += f"selpulse ({_GATE_LABELS[a]},{_GATE_LABELS[b]}) 180 x\n"
    text = text or "# identity\n"
    name = f"gate{gate:02d}"
    program = pl.parse_program(text, source=name)
    rep = ProtocolReport(name=name, program_text=text, final_state=pl.execute(
        program, es, dyn.equilibrium_deviation(es)))

    # the truth table: the program maps projector k onto projector perm[k]
    src = [es.index_of_label(_GATE_LABELS[k]) for k in range(4)]
    dst = [es.index_of_label(_GATE_LABELS[p]) for p in perm]
    projectors = np.zeros((4, es.dim, es.dim), dtype=complex)
    projectors[np.arange(4), src, src] = 1.0
    expect = np.zeros_like(projectors)
    expect[np.arange(4), dst, dst] = 1.0
    out = pl.execute(program, es, projectors)
    ok = np.abs(out - expect).max() <= 1e-12
    rep.metrics["truth_table_ok"] = 1.0 if ok else 0.0
    rep.metrics["n_pulses"] = float(len(word))
    rep.info["permutation"] = "".join(str(p) for p in perm)
    return rep


# ---------------------------------------------------------------------------
# four-spin gates

def c3not_4spin(es: EigenSystem, threshold: float = 0.05) -> ProtocolReport:
    """C3-NOT: a single pi pulse on the (1110, 1111) transition, which must
    be observable at ``threshold``."""
    _checked(es, 4, "c3not_4spin")
    t = find_transition_by_labels(es, "1110", "1111")
    if not transition_catalog(es).observable_at(threshold)[t.tid - 1]:
        raise ProtocolError("the (1110,1111) transition is not observable")
    text = "selpulse (1110,1111) 180 x\ngrad\n"
    rep = _run("c3not", text, es, dyn.equilibrium_deviation(es))
    pops_eq = np.real(np.diag(dyn.equilibrium_deviation(es)))
    pops = np.real(np.diag(rep.final_state))
    expect = pops_eq.copy()
    a, b = es.index_of_label("1110"), es.index_of_label("1111")
    expect[a], expect[b] = expect[b], expect[a]
    rep.metrics["truth_table_ok"] = float(np.abs(pops - expect).max() <= 1e-12)
    rep.info["transition"] = f"t{t.tid}"
    return rep


def c2swap_4spin(es: EigenSystem, threshold: float = 0.05,
                 rho0: np.ndarray | None = None) -> ProtocolReport:
    """C2-SWAP interchanging |1110> and |1101> via three selective pulses.

    Defaults to the POPS input |1010><1010| - |1110><1110| (transition
    between 1010 and 1110), whose image must equal the POPS state of the
    (1010, 1101) transition.  All four transitions must be observable at
    ``threshold``.
    """
    _checked(es, 4, "c2swap_4spin")
    t_a = find_transition_by_labels(es, "1110", "1111")
    t_b = find_transition_by_labels(es, "1101", "1111")
    t_in = find_transition_by_labels(es, "1010", "1110")
    t_out = find_transition_by_labels(es, "1010", "1101")
    observable = transition_catalog(es).observable_at(threshold)
    for t, what in ((t_a, "(1110,1111)"), (t_b, "(1101,1111)"),
                    (t_in, "(1010,1110)"), (t_out, "(1010,1101)")):
        if not observable[t.tid - 1]:
            raise ProtocolError(f"the {what} transition is not observable")
    if rho0 is None:
        rho0 = pops_pair(es, t_in.tid, threshold).final_state
    text = ("selpulse (1110,1111) 180 x\ngrad\n"
            "selpulse (1101,1111) 180 x\ngrad\n"
            "selpulse (1110,1111) 180 x\ngrad\n")
    rep = _run("c2swap", text, es, rho0)
    pops_out = pops_pair(es, t_out.tid, threshold).final_state
    rep.metrics["pops_output_error"] = float(
        np.abs(rep.final_state - pops_out).max())
    pin = np.real(np.diag(rho0))
    expect = pin.copy()
    a, b = es.index_of_label("1110"), es.index_of_label("1101")
    expect[a], expect[b] = expect[b], expect[a]
    rep.metrics["truth_table_ok"] = float(
        np.abs(np.real(np.diag(rep.final_state)) - expect).max() <= 1e-12)
    rep.info["pulses"] = f"t{t_a.tid},t{t_b.tid},t{t_a.tid}"
    return rep


# ---------------------------------------------------------------------------
# two-qubit Deutsch-Jozsa, two-dimensional readout (three spins)

DJ2_PATTERNS = {
    "f1": (0, 0, 0, 0), "f2": (1, 1, 1, 1),
    "f3": (0, 0, 1, 1), "f4": (1, 1, 0, 0),
    "f5": (1, 0, 1, 0), "f6": (0, 1, 0, 1),
    "f7": (1, 0, 0, 1), "f8": (0, 1, 1, 0),
}
DJ2_TRUTH = {f: ("constant" if f in ("f1", "f2") else "balanced")
             for f in DJ2_PATTERNS}


def _work_transitions(es: EigenSystem):
    """The four work-qubit transitions |rs0> <-> |rs1>, input order rs."""
    return [find_transition_by_labels(es, rs + "0", rs + "1")
            for rs in ("00", "01", "10", "11")]


def _input_lines(es: EigenSystem):
    """Input-qubit transitions paired with their work-bit-flipped partners.

    Returns (line, partner, qubit) triples for the work bit 0 lines, in
    order of qubit and then of the other input bit; the partner is the
    same input flip with work bit 1.
    """
    triples = []
    for qubit, other in itertools.product((0, 1), "01"):
        a, b = ("0" + other, "1" + other) if qubit == 0 else (other + "0", other + "1")
        triples.append((find_transition_by_labels(es, a + "0", b + "0"),
                        find_transition_by_labels(es, a + "1", b + "1"),
                        qubit))
    return triples


def _dj2_program(es: EigenSystem, f: str, t2_points: int,
                 dwell: float) -> tuple[str, pl.PulseProgram]:
    """The text and the parsed DJ2 program of function ``f``:
    (pi/2)_y - t1 - U_f - acquire."""
    if f not in DJ2_PATTERNS:
        raise ProtocolError(f"unknown two-qubit DJ function {f!r}")
    text = "pulse 90 y\ndelay t1\n"
    for bit, t in zip(DJ2_PATTERNS[f], _work_transitions(es)):
        if bit:
            text += (f"selpulse ({es.labels[t.lower]},{es.labels[t.upper]})"
                     " 180 x\n")
    text += f"acquire {t2_points} {dwell:.12g}\n"
    return text, pl.parse_program(text, source=f"dj2_{f}")


def dj_two_qubit_2d(es: EigenSystem, f: str, t1_points: int = 256,
                    t2_points: int = 1024) -> ProtocolReport:
    """Two-qubit Deutsch-Jozsa with 2D readout.

    Sequence: (pi/2) on all spins - t1 - U_f - detect(t2), both times on
    the ``default_tomo_dwell`` grid.  U_f applies pi
    pulses to the work-qubit transitions selected by the function's
    pattern.  Input-qubit lines whose coherence frequency is unchanged give
    diagonal peaks, lines moved to their work-flipped partner give cross
    peaks, and lines converted to unobservable multi-quantum coherences
    vanish.  A uniform all-diagonal or all-cross pattern means constant;
    anything else means balanced.

    The program runs once: its (pi/2)_y - t1 prefix, on the whole t1 grid,
    is the identity function's (f1's) t1 stack and the reference, and U_f
    applied to that stack gives the function's; f1's empty U_f reads the
    reference's spectrum for both.  The readout is the
    Hann-windowed 2D magnitude spectrum of both stacks, evaluated only at
    the bins the classifier reads, from their line amplitudes
    (``acquisition.hann_peaks_2d``); no FID is synthesized.  These values
    decide the verdict and are never written: the report holds verdicts,
    counts and outcome labels.  ``acquisition.run_2d`` on the emitted
    program gives the time-domain data.  A grid whose reference reads zero
    at every line (a Hann window of two points is all zeros) or that puts a
    usable line's diagonal and cross peaks in one column cannot be read
    and raises.
    """
    _checked(es, 3, "dj_two_qubit_2d")
    dwell = acq.default_tomo_dwell(es)
    text, program = _dj2_program(es, f, t2_points, dwell)
    rho0 = dyn.equilibrium_deviation(es)
    ins = program.instructions          # pulse, delay t1, U_f ..., acquire
    acquire, ref = acq.t1_stack(replace(program, instructions=ins[:2] + ins[-1:]),
                                es, rho0, t1_points, dwell)

    # the bins of a line; the readout reads bin b as b mod the point count
    # (after checking the counts, so these stay unreduced)
    def bin1(freq):
        return int(round(freq * t1_points * dwell))

    def bin2(freq):
        return int(round(freq * t2_points * dwell))

    lines = _input_lines(es)
    rows = sorted({bin1(line.freq_hz) for line, _, _ in lines})
    cols = sorted({bin2(t.freq_hz) for line, partner, _ in lines
                   for t in (line, partner)})
    # Hann apodization pushes leakage tails of nearby strong peaks below
    # the decision thresholds
    u_f = ins[2:-1]
    if u_f:
        rho = pl.execute(replace(program, instructions=u_f), es, ref)
        ref_spec, spec = acq.hann_peaks_2d(es, np.stack([ref, rho]), acquire,
                                           rows, cols)
    else:   # f1: U_f is empty, so the function's stack is the reference
        ref_spec = spec = acq.hann_peaks_2d(es, ref, acquire, rows, cols)

    def peak(mag, line, t):
        return float(mag[rows.index(bin1(line.freq_hz)),
                         cols.index(bin2(t.freq_hz))])

    grid = f"the {t1_points}x{t2_points} grid"
    outcomes: dict[int, str] = {}
    refs = {line.tid: peak(ref_spec, line, line) for line, _, _ in lines}
    ref_max = max(refs.values())
    if ref_max == 0.0:
        raise ProtocolError(f"{grid} reads no reference signal at the "
                            "input-qubit lines")
    for line, partner, _ in lines:
        r = refs[line.tid]
        # near-forbidden lines sit below the leakage tails of strong peaks
        # and cannot be judged; the experiment only used observable ones
        if r < 0.01 * ref_max or partner.intensity < 1e-9:
            continue
        if (bin2(line.freq_hz) - bin2(partner.freq_hz)) % t2_points == 0:
            raise ProtocolError(f"{grid} puts the diagonal and cross peaks "
                                f"of t{line.tid} in one column")
        d = peak(spec, line, line)
        x = peak(spec, line, partner)
        if d >= 0.5 * r and x < 0.5 * r:
            outcomes[line.tid] = "diag"
        elif x >= 0.5 * r and d < 0.5 * r:
            outcomes[line.tid] = "cross"
        else:
            outcomes[line.tid] = "lost"
    if not outcomes:
        raise ProtocolError("no usable input-qubit lines for classification")
    kinds = set(outcomes.values())
    verdict = "constant" if kinds in ({"diag"}, {"cross"}) else "balanced"

    rep = ProtocolReport(name=f"dj2_{f}", program_text=text,
                         final_state=rho0)
    rep.metrics["verdict_balanced"] = 0.0 if verdict == "constant" else 1.0
    rep.metrics["n_lines_used"] = float(len(outcomes))
    rep.info["verdict"] = verdict
    rep.info["function"] = f
    rep.info["pattern"] = "".join(str(b) for b in DJ2_PATTERNS[f])
    rep.info["outcomes"] = ",".join(
        f"t{tid}:{kind}" for tid, kind in sorted(outcomes.items()))
    return rep
