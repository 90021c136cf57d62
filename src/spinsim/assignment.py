"""Energy-level diagram reconstruction from signed transition connectivity.

A connectivity matrix records, for every pair of observed single-quantum
transitions, whether they share an energy level progressively (+1, the
shared level lies between the outer two in M_z), regressively (-1, common
top or bottom level) or not at all (0).  The solver assigns each transition
to an ordered level pair across adjacent M_z manifolds by backtracking so
that the diagram's derived connectivity reproduces the input exactly.

Key structural fact exploited throughout: a level may only be reused by a
transition whose connectivity entry dictates the sharing, so every
endpoint is either forced by an already-placed neighbor or a fresh level.
The placed transitions are the bits of integer masks, so a placement is
checked against all of them, required zeros included, by comparing two
masks.
Fresh levels inside one manifold are interchangeable, which quotients the
within-manifold permutation symmetry; the global top-bottom inversion is
quotiented by pinning the first transition's layer and canonicalizing.
Solutions are reported in a canonical (lexicographically smallest) form.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import transition_catalog


class AssignmentError(ValueError):
    pass


@dataclass
class ConnectivityMatrix:
    """T x T signed matrix over observed transition ids."""

    m: np.ndarray
    ids: tuple[int, ...] = ()
    unconnected: tuple[int, ...] = ()

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=int)
        t = self.m.shape[0]
        if self.m.shape != (t, t):
            raise AssignmentError("connectivity matrix must be square")
        if not self.ids:
            self.ids = tuple(range(1, t + 1))
        if len(self.ids) != t:
            raise AssignmentError("ids must match the matrix dimension")
        if not np.array_equal(self.m, self.m.T):
            raise AssignmentError("connectivity matrix must be symmetric")
        if np.any(np.diag(self.m) != 0):
            raise AssignmentError("connectivity matrix must have zero diagonal")
        if np.any((self.m < -1) | (self.m > 1)):
            raise AssignmentError("entries must be -1, 0 or +1")

    @property
    def size(self) -> int:
        return self.m.shape[0]


def _row_values(line: str, source: str, ln: int) -> list[int]:
    # any token int() reads: +1 and 01 are entries, 2 is not
    try:
        row = [int(x) for x in line.split()]
    except ValueError:
        raise AssignmentError(f"{source}:{ln}: malformed row {line!r}") from None
    bad = [v for v in row if v not in (-1, 0, 1)]
    if bad:
        raise AssignmentError(
            f"{source}:{ln}: entries must be -1, 0 or +1, got {bad[0]}")
    return row


_BLANKS = b" \t\r\n"


def _canonical_matrix(text: str) -> np.ndarray | None:
    """The matrix of a text that holds only the entries -1, 0 and 1 between
    blanks and line breaks, in equal rows, one to each nonblank line, read
    from all its bytes at once; None for any other text."""
    raw = text.encode("ascii", errors="replace")
    if not raw or raw.translate(None, _BLANKS + b"-01"):
        return None
    c = np.frombuffer(raw, dtype=np.uint8)
    digit = c >= ord("0")
    minus = c == ord("-")
    blank = ~(digit | minus)
    # every token is 0, 1 or -1: a digit ends its token, and a minus starts
    # one and is followed by a 1
    if (np.any(digit[:-1] & ~blank[1:]) or np.any(minus[1:] & ~blank[:-1])
            or np.any(minus & np.append(c[1:] != ord("1"), True))):
        return None
    breaks = (c[:-1] == ord("\n")) | (c[:-1] == ord("\r"))
    lengths = np.add.reduceat(digit, np.append(0, np.flatnonzero(breaks) + 1),
                              dtype=np.intp)
    lengths = lengths[lengths > 0]
    t = lengths.size
    if not t or np.any(lengths != t):
        return None
    tokens = np.frombuffer(raw.translate(None, _BLANKS), dtype=np.uint8)
    values = (tokens == ord("1")).astype(int)
    values[1:] -= 2 * (tokens[:-1] == ord("-"))     # the 1 of a -1
    return values[tokens != ord("-")].reshape(t, t)


def parse_connectivity(text: str, source: str = "<string>") -> ConnectivityMatrix:
    if "#" in text:
        text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    m = _canonical_matrix(text)
    if m is None:
        # other spellings of the entries, and the messages for what is wrong
        rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line:
                rows.append(_row_values(line, source, ln))
        if not rows:
            raise AssignmentError(f"{source}: empty connectivity matrix")
        if any(len(r) != len(rows) for r in rows):
            raise AssignmentError(f"{source}: matrix is not square")
        m = np.array(rows, dtype=int)
    return ConnectivityMatrix(m=m)


def connectivity(lower, upper) -> np.ndarray:
    """Signed connectivity of the transitions lower[i] -> upper[i].

    Entry (a, b) is +1 when the upper level of one is the lower level of
    the other (progressive), -1 when they share their lower or their upper
    level (regressive), 0 otherwise and on the diagonal.
    """
    lo, up = np.asarray(lower), np.asarray(upper)
    progressive = (up[:, None] == lo[None, :]) | (lo[:, None] == up[None, :])
    regressive = (lo[:, None] == lo[None, :]) | (up[:, None] == up[None, :])
    m = np.where(progressive, 1, np.where(regressive, -1, 0))
    np.fill_diagonal(m, 0)
    return m


@functools.cache
def manifold_bases(n: int) -> tuple[int, ...]:
    """First level index of each M_z manifold of n spins, then 2^n.

    Levels are manifold-major, the order of the eigenstates: manifold k
    (M_z = n/2 - k) holds levels bases[k] .. bases[k + 1] - 1.
    """
    bases = [0]
    for k in range(n + 1):
        bases.append(bases[-1] + math.comb(n, k))
    return tuple(bases)


@dataclass
class LevelDiagram:
    """2^n levels partitioned into M_z manifolds plus transition edges.

    Levels are indexed as in ``manifold_bases``.  ``edges`` maps a
    transition id to (lower, upper) level indices, lower being in the
    higher-M_z manifold.
    """

    n: int
    edges: dict[int, tuple[int, int]]
    ambiguous: tuple[int, ...] = ()

    def __post_init__(self):
        for tid, (lo, up) in self.edges.items():
            if self.manifold_of(up) != self.manifold_of(lo) + 1:
                raise AssignmentError(
                    f"edge {tid} does not cross adjacent manifolds")

    def manifold_of(self, level: int) -> int:
        bases = manifold_bases(self.n)
        if not 0 <= level < bases[-1]:
            raise AssignmentError(f"level index {level} out of range")
        return bisect.bisect_right(bases, level) - 1

    def mz_of(self, level: int) -> float:
        return self.n / 2 - self.manifold_of(level)

    def derived_connectivity(self, ids: tuple[int, ...]) -> np.ndarray:
        lower, upper = np.array([self.edges[tid] for tid in ids],
                                dtype=int).reshape(-1, 2).T
        return connectivity(lower, upper)

    def signature(self, ids) -> tuple:
        """Canonical form of the edges of ``ids``, in that order: two
        diagrams have equal signatures exactly when they agree up to
        within-manifold level permutation and global inversion."""
        bases = manifold_bases(self.n)
        seq = []
        for tid in ids:
            lo, up = self.edges[tid]
            p = self.manifold_of(lo)
            seq.append((p, lo - bases[p], up - bases[p + 1]))
        return _canonical_signature(self.n, seq)


def format_diagram(ld: LevelDiagram) -> str:
    out = []
    for level in range(2**ld.n):
        out.append(f"level {level + 1} mz {ld.mz_of(level):.12g}")
    for tid in sorted(ld.edges):
        lo, up = ld.edges[tid]
        out.append(f"edge {tid} {lo + 1} {up + 1}")
    return "\n".join(out) + "\n"


@dataclass
class AssignmentResult:
    diagrams: list[LevelDiagram]
    truncated: bool = False
    conflict: tuple[int, ...] | None = None


# internal solution representation: per transition index, (layer, u, v)
# with u, v global level handles; handles carry their manifold.


def _canonical_signature(n: int, edges: list[tuple[int, int, int]]):
    """Rename levels by first use (per manifold) over both orientations."""
    def rename(seq):
        names: dict[tuple[int, int], int] = {}
        counters: dict[int, int] = {}
        out = []
        for (p, u, v) in seq:
            for man, lvl in ((p, u), (p + 1, v)):
                if (man, lvl) not in names:
                    names[(man, lvl)] = counters.get(man, 0)
                    counters[man] = counters.get(man, 0) + 1
            out.append((p, names[(p, u)], names[(p + 1, v)]))
        return tuple(out)

    direct = rename(edges)
    inverted = rename([(n - 1 - p, v, u) for (p, u, v) in edges])
    return min(direct, inverted)


def reconstruct_levels(cm: ConnectivityMatrix, n: int,
                       max_solutions: int = 64,
                       analyze_conflict: bool = True) -> AssignmentResult:
    """Backtracking search for all diagrams consistent with cm, up to symmetry.

    Transitions are placed most-constrained-first; each endpoint is either
    forced by a placed neighbor or fresh.  The placed transitions are the
    bits of an integer, bit i standing for the one placed at depth i: each
    transition carries the masks of its +1 and of its -1 entries, and each
    level the masks of the placed transitions having it as their lower and
    as their upper level.  A placement (u, v) fits exactly when the placed
    transitions having u as upper or v as lower level are its placed +1
    entries, and those having u as lower or v as upper level its placed -1
    entries.  That one test covers every pairwise relation, required zeros
    included, so a complete assignment is consistent by construction.
    Solutions are deduplicated modulo within-manifold level permutation and
    global inversion, canonicalized, and capped at ``max_solutions`` (the
    ``truncated`` flag reports a hit cap).  If no diagram exists the result
    carries the first mutually unsatisfiable transition triple.
    """
    if n < 1:
        raise AssignmentError(f"the number of spins must be at least 1, got {n}")
    if max_solutions < 1:
        raise AssignmentError(
            f"max_solutions must be at least 1, got {max_solutions}")
    t_count = cm.size
    if t_count > math.comb(2 * n, n - 1):
        raise AssignmentError(
            f"{t_count} transitions exceed the {math.comb(2 * n, n - 1)} "
            f"possible for {n} spins")
    caps = [math.comb(n, k) for k in range(n + 1)]
    order = _search_order(cm.m)
    ambiguous = ()
    if t_count > 1:
        ambiguous = tuple(cm.ids[i] for i in
                          np.flatnonzero(~cm.m.any(axis=1)).tolist())
    # bit i of plus[t] (minus[t]) is set when t's entry for order[i] is +1 (-1)
    by_depth = cm.m[:, order]
    plus, minus = _bit_rows(by_depth == 1), _bit_rows(by_depth == -1)

    solutions: list[list[tuple[int, int, int]]] = []
    seen: set = set()
    truncated = False
    edge_of: list = [None] * t_count      # (layer, u, v) of placed transitions
    # level handles 0 .. live - 1 are open, each in one manifold, opened and
    # released last in first out; lower[h] (upper[h]) is the mask of the
    # placed transitions having h as their lower (upper) level, 0 when closed
    lower = [0] * 2 ** n
    upper = [0] * 2 ** n
    live = 0
    opened = [0] * (n + 1)

    def candidates(depth: int, want_plus: int, linked: int):
        """(layer, u, v) placements meeting the first placed neighbor, None
        for a fresh level, in the order the search tries them."""
        if not linked:
            layers = range(n if depth else (n + 1) // 2)   # inversion quotient
            return [(p, None, None) for p in layers]
        d0 = (linked & -linked).bit_length() - 1
        p0, u0, v0 = edge_of[order[d0]]
        if want_plus >> d0 & 1:
            seeds = ((p0 + 1, v0, None), (p0 - 1, None, u0))
        else:
            seeds = ((p0, u0, None), (p0, None, v0))
        cands = []
        for p, u, v in seeds:
            if not 0 <= p < n:
                continue
            fixed = u if v is None else v
            # the other level is forced by the first placed neighbor that
            # does not share the fixed one, and fresh when there is none
            others = linked & ~(lower[fixed] | upper[fixed])
            if not others:
                cands.append((p, u, v))
                continue
            d = (others & -others).bit_length() - 1
            ps, us, vs = edge_of[order[d]]
            if want_plus >> d & 1:
                if v is None and ps == p + 1:
                    cands.append((p, u, us))
                elif u is None and ps == p - 1:
                    cands.append((p, vs, v))
            elif ps == p:
                cands.append((p, u, vs) if v is None else (p, us, v))
        return cands

    def search(depth: int) -> None:
        nonlocal truncated, live
        if depth == t_count:
            sig = _canonical_signature(n, edge_of)
            if sig not in seen:
                seen.add(sig)
                if len(solutions) >= max_solutions:
                    truncated = True
                    return
                solutions.append(list(sig))
            return
        t = order[depth]
        bit = 1 << depth
        want_plus, want_minus = plus[t] & (bit - 1), minus[t] & (bit - 1)
        for p, u, v in candidates(depth, want_plus, want_plus | want_minus):
            fresh_u, fresh_v = u is None, v is None
            if ((fresh_u and opened[p] == caps[p])
                    or (fresh_v and opened[p + 1] == caps[p + 1])):
                continue
            top = live
            if fresh_u:
                u, top = top, top + 1
            if fresh_v:
                v, top = top, top + 1
            if (upper[u] | lower[v] != want_plus
                    or lower[u] | upper[v] != want_minus
                    or lower[u] & upper[v]):   # the edge of a placed transition
                continue
            edge_of[t] = (p, u, v)
            lower[u] |= bit
            upper[v] |= bit
            opened[p] += fresh_u
            opened[p + 1] += fresh_v
            saved, live = live, top
            search(depth + 1)
            live = saved
            opened[p] -= fresh_u
            opened[p + 1] -= fresh_v
            lower[u] ^= bit
            upper[v] ^= bit
            if truncated:
                return

    try:
        search(0)
    except RecursionError:      # one frame per placed transition
        raise AssignmentError(
            f"{t_count} transitions are too many for the level search, which "
            "needs one Python stack frame per transition (recursion limit "
            f"{sys.getrecursionlimit()})") from None

    if not solutions:
        conflict = _first_conflict(cm, n) if analyze_conflict else None
        return AssignmentResult(diagrams=[], truncated=False,
                                conflict=conflict)

    solutions.sort()
    diagrams = [_diagram_from_signature(n, cm.ids, sig, ambiguous)
                for sig in solutions]
    return AssignmentResult(diagrams=diagrams, truncated=truncated)


def _bit_rows(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an integer, column i as bit i."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


_PICKED = np.iinfo(np.int64).min    # the search-order key of a picked transition


def _search_order(m: np.ndarray) -> list[int]:
    """Most-constrained-first order: repeatedly pick the transition with the
    most links to those already picked, then the highest degree, then the
    lowest index."""
    t_count = m.shape[0]
    nonzero = m != 0
    # (links, degree, -t) packed into one integer: links * T^2 + degree * T
    # + (T - 1 - t); a picked transition's key is pushed far below zero
    key = (nonzero.sum(axis=1) * t_count
           + (t_count - 1 - np.arange(t_count))).astype(np.int64)
    # row s: the key increment of every transition linked to s
    increments = nonzero.T * np.int64(t_count * t_count)
    order: list[int] = []
    for _ in range(t_count):
        best = int(key.argmax())
        order.append(best)
        key += increments[best]
        key[best] = _PICKED
    return order


def _diagram_from_signature(n, ids, sig, ambiguous) -> LevelDiagram:
    bases = manifold_bases(n)
    edges = {ids[i]: (bases[p] + u, bases[p + 1] + v)
             for i, (p, u, v) in enumerate(sig)}
    return LevelDiagram(n=n, edges=edges, ambiguous=ambiguous)


def _first_conflict(cm: ConnectivityMatrix, n: int) -> tuple[int, ...] | None:
    """The first transition triple, in lexicographic order, that no diagram
    of n spins realizes.  Whether one does depends only on the triple's
    three entries, so each of the 27 patterns is searched once."""
    t = cm.size
    if t < 3:       # no triple, and n may be too small to hold one
        return None
    realizable = np.zeros((3, 3, 3), dtype=bool)
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        sub = np.array([[0, a, b], [a, 0, c], [b, c, 0]])
        realizable[a + 1, b + 1, c + 1] = bool(reconstruct_levels(
            ConnectivityMatrix(m=sub), n, max_solutions=1,
            analyze_conflict=False).diagrams)
    cell = cm.m + 1
    for i in range(t - 2):
        rest = cell[i, i + 1:]
        # entry (j, k) of the triple (i, i + 1 + j, i + 1 + k), for j < k
        failing = np.triu(~realizable[rest[:, None], rest[None, :],
                                      cell[i + 1:, i + 1:]], 1)
        if failing.any():
            j, k = np.unravel_index(int(failing.argmax()), failing.shape)
            return (cm.ids[i], cm.ids[i + 1 + j], cm.ids[i + 1 + k])
    return None


def verify_diagram(ld: LevelDiagram, cm: ConnectivityMatrix
                   ) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Recompute connectivity from the diagram and compare entrywise.

    Returns (ok, discrepancies) where each discrepancy is
    (id_a, id_b, expected, actual).
    """
    missing = [tid for tid in cm.ids if tid not in ld.edges]
    if missing:
        raise AssignmentError(f"diagram lacks edges for transitions {missing}")
    derived = ld.derived_connectivity(cm.ids)
    disc = [(cm.ids[i], cm.ids[j], int(cm.m[i, j]), int(derived[i, j]))
            for i, j in np.argwhere(derived != cm.m).tolist()]
    return not disc, disc


def diagram_from_catalog(es, threshold: float = 0.05) -> LevelDiagram:
    """Ground-truth diagram of a simulated system over its transitions
    observable at ``threshold``.  Eigenstates are manifold-major, so an
    eigenstate index is its level index."""
    catalog = transition_catalog(es)
    obs = np.flatnonzero(catalog.observable_at(threshold))
    edges = {tid: (lo, up) for tid, lo, up in zip(
        (obs + 1).tolist(), catalog.lower[obs].tolist(),
        catalog.upper[obs].tolist())}
    return LevelDiagram(n=es.n, edges=edges)


def diagrams_isomorphic(a: LevelDiagram, b: LevelDiagram) -> bool:
    """Equality modulo within-manifold level permutation and inversion."""
    ids = sorted(a.edges)
    if a.n != b.n or sorted(b.edges) != ids:
        return False
    return a.signature(ids) == b.signature(ids)
