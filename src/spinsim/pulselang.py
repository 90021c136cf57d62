"""Pulse-program DSL: parsing, and execution with phase cycling.

Grammar, one instruction per line ('#' starts a comment):

    selpulse <tN | (bits,bits)> <angle_deg> <phase>
    pulse <angle_deg> <phase>
    grad
    delay <seconds | t1 | t2>
    acquire <points> <dwell_s>
    cycle <SLOT...>
    row <phase...> [+|-]

A phase is one of x, y, -x, -y, deg:<float> or $SLOT; slots must be
declared by a single ``cycle`` line whose ``row`` lines each assign a phase
per slot (optionally ending with a receiver sign, default +).  Programs are
written in the order pulses are applied: the first line acts first.
A ``selpulse`` reference resolves against the eigensystem's transition
catalog when its instruction runs.  Diagnostics use the conventional
``file:line:col: message`` format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EigenSystem, transition_catalog
from . import dynamics as dyn

_AXIS_TO_DEG = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}
_DEG_TO_AXIS = {deg: name for name, deg in _AXIS_TO_DEG.items()}


class PulseProgramError(ValueError):
    def __init__(self, message: str, source: str = "<string>",
                 line: int = 0, col: int = 0):
        self.source, self.line, self.col = source, line, col
        self.reason = message
        super().__init__(f"{source}:{line}:{col}: {message}")


@dataclass(frozen=True)
class TransitionRef:
    tid: int | None = None
    pair: tuple[str, str] | None = None

    def __str__(self):
        if self.tid is not None:
            return f"t{self.tid}"
        return f"({self.pair[0]},{self.pair[1]})"


@dataclass(frozen=True)
class PhaseSpec:
    degrees: float | None = None
    slot: str | None = None

    def __str__(self):
        if self.slot is not None:
            return f"${self.slot}"
        return _format_phase(self.degrees)


def _format_phase(deg: float) -> str:
    deg = deg % 360.0
    for canon, name in _DEG_TO_AXIS.items():
        if math.isclose(deg, canon, abs_tol=1e-12):
            return name
    return f"deg:{deg:.12g}"


@dataclass(frozen=True)
class _Located:
    """Where an instruction was written: its line and the column of its
    keyword, 0 for one built in code.  Not part of its value."""

    line: int = field(default=0, kw_only=True, compare=False, repr=False)
    col: int = field(default=0, kw_only=True, compare=False, repr=False)


@dataclass(frozen=True)
class SelPulse(_Located):
    ref: TransitionRef
    angle_deg: float
    phase: PhaseSpec

    def __str__(self):
        return f"selpulse {self.ref} {self.angle_deg:.12g} {self.phase}"


@dataclass(frozen=True)
class HardPulse(_Located):
    angle_deg: float
    phase: PhaseSpec

    def __str__(self):
        return f"pulse {self.angle_deg:.12g} {self.phase}"


@dataclass(frozen=True)
class Grad(_Located):
    def __str__(self):
        return "grad"


@dataclass(frozen=True)
class Delay(_Located):
    seconds: float | None = None
    symbol: str | None = None

    def __str__(self):
        return f"delay {self.symbol if self.symbol else f'{self.seconds:.12g}'}"


@dataclass(frozen=True)
class Acquire(_Located):
    points: int
    dwell_s: float

    def __str__(self):
        return f"acquire {self.points} {self.dwell_s:.12g}"


Instruction = SelPulse | HardPulse | Grad | Delay | Acquire


@dataclass(frozen=True)
class PhaseCycle:
    slots: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    receivers: tuple[int, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("phase cycle needs at least one row")
        if any(len(r) != len(self.slots) for r in self.rows):
            raise ValueError("phase-cycle rows must match the slot arity")

    def phase_of(self, slot: str, row: int) -> float:
        return self.rows[row][self.slots.index(slot)]


@dataclass(frozen=True)
class PulseProgram:
    instructions: tuple[Instruction, ...]
    cycle: PhaseCycle | None = None
    source: str = field(default="<string>", compare=False)


def _token_columns(raw: str) -> list[tuple[str, int]]:
    toks = []
    col = 0
    i = 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        j = i
        while j < len(raw) and not raw[j].isspace():
            j += 1
        toks.append((raw[i:j], i + 1))
        i = j
    return toks


def _parse_phase(tok: str, source, line, col) -> PhaseSpec:
    if tok.startswith("$"):
        if len(tok) < 2:
            raise PulseProgramError("empty phase slot name", source, line, col)
        return PhaseSpec(slot=tok[1:])
    return PhaseSpec(degrees=_parse_phase_value(tok, source, line, col))


def _parse_phase_value(tok: str, source, line, col) -> float:
    if tok in _AXIS_TO_DEG:
        return _AXIS_TO_DEG[tok]
    if tok.startswith("deg:"):
        try:
            return float(tok[4:]) % 360.0
        except ValueError:
            raise PulseProgramError(f"malformed phase {tok!r}", source, line, col) from None
    raise PulseProgramError(f"malformed phase {tok!r}", source, line, col)


def _parse_float(tok: str, what: str, source, line, col) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise PulseProgramError(f"malformed {what} {tok!r}", source, line, col) from None
    if not math.isfinite(val):
        raise PulseProgramError(f"non-finite {what} {tok!r}", source, line, col)
    return val


def _parse_transition(tok: str, source, line, col) -> TransitionRef:
    if tok.startswith("t") and tok[1:].isdecimal():
        return TransitionRef(tid=int(tok[1:]))
    if tok.startswith("(") and tok.endswith(")") and "," in tok:
        a, b = tok[1:-1].split(",", 1)
        a, b = a.strip(), b.strip()
        if a and b and set(a + b) <= {"0", "1"}:
            return TransitionRef(pair=(a, b))
    raise PulseProgramError(f"malformed transition reference {tok!r}",
                            source, line, col)


def parse_program(text: str, source: str = "<string>") -> PulseProgram:
    instructions: list[Instruction] = []
    slots: tuple[str, ...] | None = None
    rows: list[tuple[float, ...]] = []
    receivers: list[int] = []
    cycle_line = 0

    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = _token_columns(body)
        if not toks:
            continue
        (kw, col0) = toks[0]
        at = {"line": ln, "col": col0}

        def need(k: int, what: str):
            if len(toks) <= k:
                raise PulseProgramError(f"missing {what}", source, ln,
                                        col0 + len(kw))
            return toks[k]

        if kw == "selpulse":
            rtok, rcol = need(1, "transition reference")
            atok, acol = need(2, "angle")
            ptok, pcol = need(3, "phase")
            instructions.append(SelPulse(
                ref=_parse_transition(rtok, source, ln, rcol),
                angle_deg=_parse_float(atok, "angle", source, ln, acol),
                phase=_parse_phase(ptok, source, ln, pcol), **at))
        elif kw == "pulse":
            atok, acol = need(1, "angle")
            ptok, pcol = need(2, "phase")
            instructions.append(HardPulse(
                angle_deg=_parse_float(atok, "angle", source, ln, acol),
                phase=_parse_phase(ptok, source, ln, pcol), **at))
        elif kw == "grad":
            instructions.append(Grad(**at))
        elif kw == "delay":
            dtok, dcol = need(1, "duration")
            if dtok in ("t1", "t2"):
                instructions.append(Delay(symbol=dtok, **at))
            else:
                secs = _parse_float(dtok, "delay", source, ln, dcol)
                if secs < 0:
                    raise PulseProgramError("negative delay", source, ln, dcol)
                instructions.append(Delay(seconds=secs, **at))
        elif kw == "acquire":
            ntok, ncol = need(1, "point count")
            dtok, dcol = need(2, "dwell")
            if not ntok.isdecimal():
                raise PulseProgramError(f"malformed point count {ntok!r}",
                                        source, ln, ncol)
            dwell = _parse_float(dtok, "dwell", source, ln, dcol)
            if dwell <= 0:
                raise PulseProgramError("dwell must be positive", source, ln, dcol)
            instructions.append(Acquire(points=int(ntok), dwell_s=dwell, **at))
        elif kw == "cycle":
            if slots is not None:
                raise PulseProgramError("duplicate cycle declaration",
                                        source, ln, col0)
            if len(toks) < 2:
                raise PulseProgramError("cycle needs at least one slot",
                                        source, ln, col0)
            slots = tuple(t for t, _ in toks[1:])
            cycle_line = ln
        elif kw == "row":
            if slots is None:
                raise PulseProgramError("row before cycle declaration",
                                        source, ln, col0)
            vals = toks[1:]
            recv = 1
            if vals and vals[-1][0] in ("+", "-"):
                recv = 1 if vals[-1][0] == "+" else -1
                vals = vals[:-1]
            if len(vals) != len(slots):
                raise PulseProgramError(
                    f"row has {len(vals)} phases, cycle declares {len(slots)}",
                    source, ln, col0)
            rows.append(tuple(_parse_phase_value(t, source, ln, c)
                              for t, c in vals))
            receivers.append(recv)
        else:
            raise PulseProgramError(f"unknown instruction {kw!r}", source, ln, col0)

    cycle = None
    if slots is not None:
        if not rows:
            raise PulseProgramError("cycle declared but no rows given",
                                    source, cycle_line, 1)
        cycle = PhaseCycle(slots=slots, rows=tuple(rows),
                           receivers=tuple(receivers))

    declared = set(slots or ())
    for ins in instructions:
        slot = ins.phase.slot if isinstance(ins, (SelPulse, HardPulse)) else None
        if slot and slot not in declared:
            raise PulseProgramError(
                f"phase slot {slot!r} used but not defined in cycle table",
                source, ins.line, ins.col)

    for ins in instructions[:-1]:
        if isinstance(ins, Acquire):
            raise PulseProgramError("acquire must be the final instruction",
                                    source, ins.line, ins.col)
    return PulseProgram(instructions=tuple(instructions), cycle=cycle,
                        source=source)


def format_program(program: PulseProgram) -> str:
    out = []
    if program.cycle is not None:
        out.append("cycle " + " ".join(program.cycle.slots))
        for row, recv in zip(program.cycle.rows, program.cycle.receivers):
            out.append("row " + " ".join(_format_phase(p) for p in row)
                       + (" +" if recv > 0 else " -"))
    out.extend(str(ins) for ins in program.instructions)
    return "\n".join(out) + "\n"


def resolve_transition(ref: TransitionRef, es: EigenSystem) -> tuple[int, int]:
    """Map a transition reference to a (lower, upper) eigenstate index pair."""
    catalog = transition_catalog(es)
    try:
        if ref.tid is not None:
            t = catalog.by_id(ref.tid)
        else:
            a, b = ref.pair
            if len(a) != es.n or len(b) != es.n:
                raise KeyError(f"labels {a},{b} do not match a {es.n}-spin system")
            t = catalog.by_labels(es, a, b)
    except KeyError as exc:
        reason = exc.args[0]
        if ref.tid is None:         # by_id's reason already names the id
            reason = f"unknown transition {ref}: {reason}"
        raise PulseProgramError(reason) from None
    return t.lower, t.upper


def _resolved_phase(spec: PhaseSpec, cycle: PhaseCycle | None, row: int) -> float:
    if spec.slot is None:
        return spec.degrees
    return cycle.phase_of(spec.slot, row)


class _Executor:
    """The instruction dispatch of ``execute`` and ``execute_cycled``.

    ``step`` applies one instruction of ``program`` to a state.  A hard
    pulse is built once per instruction and phase, and kept.
    """

    def __init__(self, program: PulseProgram, es: EigenSystem,
                 t1: float | np.ndarray | None, t2: float | None):
        self.program, self.es = program, es
        self.delays = {"t1": t1, "t2": t2}
        self.hard: dict[tuple[int, float], np.ndarray] = {}

    def phase(self, k: int, row: int) -> float | None:
        """Phase of instruction k in cycle row ``row``; None without one."""
        spec = getattr(self.program.instructions[k], "phase", None)
        return None if spec is None else _resolved_phase(
            spec, self.program.cycle, row)

    def error(self, ins: Instruction, message: str) -> PulseProgramError:
        return PulseProgramError(message, self.program.source, ins.line, ins.col)

    def step(self, k: int, rho: np.ndarray, row: int) -> np.ndarray:
        ins, es = self.program.instructions[k], self.es
        if isinstance(ins, SelPulse):
            try:
                lo, up = resolve_transition(ins.ref, es)
            except PulseProgramError as exc:
                raise self.error(ins, exc.reason) from None
            return dyn.apply_selective_pulse(es, rho, lo, up, ins.angle_deg,
                                             self.phase(k, row))
        if isinstance(ins, HardPulse):
            key = (k, self.phase(k, row))
            if key not in self.hard:
                self.hard[key] = dyn.hard_pulse_unitary(es, ins.angle_deg, key[1])
            return dyn.apply_unitary(rho, self.hard[key])
        if isinstance(ins, Grad):
            return dyn.crush_gradient(rho)
        if isinstance(ins, Delay):
            if ins.symbol is None:
                return dyn.free_evolution(es, rho, ins.seconds)
            if self.delays[ins.symbol] is None:
                raise self.error(ins, f"unresolved symbolic delay {ins.symbol}")
            return dyn.free_evolution(es, rho, self.delays[ins.symbol])
        raise self.error(ins, "acquire cannot be executed directly; "
                              "use an acquisition runner")


def execute(program: PulseProgram, es: EigenSystem,
            rho0: np.ndarray, *, row: int = 0,
            t1: float | np.ndarray | None = None,
            t2: float | None = None) -> np.ndarray:
    """Apply the instructions left to right to rho0 and return the result.

    Symbolic delays must be bound through t1/t2; acquire instructions are
    not executable here (use the acquisition module's runners).  When the
    program has a phase cycle, ``row`` selects which row resolves the slots.
    Binding t1 to a 1-D array of times runs every t1 value at once: the
    result is a stack of states with the t1 axis leading.
    """
    run = _Executor(program, es, t1, t2)
    rho = rho0.copy()
    for k in range(len(program.instructions)):
        rho = run.step(k, rho, row)
    return rho


def execute_cycled(program: PulseProgram, es: EigenSystem,
                   rho0: np.ndarray, *,
                   t1: float | np.ndarray | None = None,
                   t2: float | None = None) -> np.ndarray:
    """Receiver-weighted average of the per-row results of the phase cycle.

    The rows run as branches, one instruction at a time, and each
    instruction is applied once per branch.  A branch is shared (every
    row of it holds its state) or summed (its state is the sum of
    receiver times state over its rows).  Before each instruction, a
    shared branch splits into the groups of its rows that resolve the
    same phase there, as a prefix tree would.  Then the branches whose
    rows all resolve the same phases from that instruction to the end
    (one suffix class) merge into one summed branch; every instruction is
    linear in the state, so the sum of their futures is the future of
    their sum.  A shared branch enters the sum as (sum of its receivers)
    times its state.

    At the end each row of a shared branch fills its own slot of one
    (rows, ...) array with its weighted state, a summed branch fills the
    slot of its first row, the other slots hold 0, and the array is
    averaged over the rows.  Where no two branches merge, that is the
    same arithmetic, bit for bit, as running the rows one by one and
    stacking the results.  When every row ends in one summed branch, its
    sum plus 0.0 (which turns -0.0 into 0.0, as adding the empty slots
    does) divided by the row count is that average, without the array.
    """
    if program.cycle is None:
        return execute(program, es, rho0, t1=t1, t2=t2)
    run = _Executor(program, es, t1, t2)
    receivers = program.cycle.receivers
    count = len(program.instructions)
    phases = [[run.phase(k, r) for r in range(len(receivers))]
              for k in range(count)]
    # future[k][r]: the class of the phases row r resolves from instruction
    # k to the end; the rows of one class see the same instructions from k on
    future = [[0] * len(receivers)]
    for k in reversed(range(count)):
        ids: dict = {}
        future.insert(0, [ids.setdefault(key, len(ids))
                          for key in zip(phases[k], future[0])])
    # (rows in ascending order, state, summed) of each branch
    branches = [(list(range(len(receivers))), rho0, False)]
    for k in range(count):
        by_future: dict = {}
        for rows, rho, summed in branches:
            groups: dict = {}
            for r in rows:
                groups.setdefault(phases[k][r], []).append(r)
            for g in groups.values():
                classes = {future[k][r] for r in g}
                key = classes.pop() if len(classes) == 1 else ("split", g[0])
                by_future.setdefault(key, []).append((g, rho, summed))
        branches = []
        for group in by_future.values():
            if len(group) > 1:
                total = sum(rho if summed else sum(receivers[r] for r in rows) * rho
                            for rows, rho, summed in group)
                group = [(sorted(r for rows, _, _ in group for r in rows), total, True)]
            branches += [(rows, run.step(k, rho, rows[0]), summed)
                         for rows, rho, summed in group]
    if len(branches) == 1 and branches[0][2]:
        return (branches[0][1] + 0.0) / len(receivers)
    out = None
    for rows, rho, summed in branches:
        if out is None:
            out = np.zeros((len(receivers),) + rho.shape, rho.dtype)
        if summed:
            out[rows[0]] = rho
        else:
            for r in rows:
                out[r] = receivers[r] * rho
    return np.mean(out, axis=0)
