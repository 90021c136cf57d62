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
Fresh levels inside one manifold are interchangeable, which quotients the
within-manifold permutation symmetry; the global top-bottom inversion is
quotiented by pinning the first transition's layer and canonicalizing.
Solutions are reported in a canonical (lexicographically smallest) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
        if not np.all(np.isin(self.m, (-1, 0, 1))):
            raise AssignmentError("entries must be -1, 0 or +1")

    @property
    def size(self) -> int:
        return self.m.shape[0]


# the usual spellings of the three entries, read without int()
_ENTRIES = {"-1": -1, "0": 0, "1": 1}


def _row_values(line: str, source: str, ln: int) -> list[int]:
    toks = line.split()
    try:
        return [_ENTRIES[x] for x in toks]
    except KeyError:
        pass
    # any other token as int() reads it: +1 and 01 are entries, 2 is not
    try:
        row = [int(x) for x in toks]
    except ValueError:
        raise AssignmentError(f"{source}:{ln}: malformed row {line!r}") from None
    bad = [v for v in row if v not in (-1, 0, 1)]
    if bad:
        raise AssignmentError(
            f"{source}:{ln}: entries must be -1, 0 or +1, got {bad[0]}")
    return row


def parse_connectivity(text: str, source: str = "<string>") -> ConnectivityMatrix:
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(_row_values(line, source, ln))
    if not rows:
        raise AssignmentError(f"{source}: empty connectivity matrix")
    if any(len(r) != len(rows) for r in rows):
        raise AssignmentError(f"{source}: matrix is not square")
    return ConnectivityMatrix(m=np.array(rows, dtype=int))


@dataclass
class LevelDiagram:
    """2^n levels partitioned into M_z manifolds plus transition edges.

    Levels are indexed manifold-major: manifold k (M_z = n/2 - k) occupies
    indices base(k) .. base(k) + C(n,k) - 1.  ``edges`` maps a transition id
    to (lower, upper) level indices, lower being in the higher-M_z manifold.
    """

    n: int
    edges: dict[int, tuple[int, int]]
    ambiguous: tuple[int, ...] = ()

    def __post_init__(self):
        for tid, (lo, up) in self.edges.items():
            if self.manifold_of(up) != self.manifold_of(lo) + 1:
                raise AssignmentError(
                    f"edge {tid} does not cross adjacent manifolds")

    def manifold_bases(self) -> list[int]:
        bases = [0]
        for k in range(self.n + 1):
            bases.append(bases[-1] + math.comb(self.n, k))
        return bases

    def manifold_of(self, level: int) -> int:
        bases = self.manifold_bases()
        for k in range(self.n + 1):
            if bases[k] <= level < bases[k + 1]:
                return k
        raise AssignmentError(f"level index {level} out of range")

    def mz_of(self, level: int) -> float:
        return self.n / 2 - self.manifold_of(level)

    def derived_connectivity(self, ids: tuple[int, ...]) -> np.ndarray:
        m = np.zeros((len(ids), len(ids)), dtype=int)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if i == j:
                    continue
                (alo, aup), (blo, bup) = self.edges[a], self.edges[b]
                if aup == blo or bup == alo:
                    m[i, j] = 1
                elif alo == blo or aup == bup:
                    m[i, j] = -1
        return m


def format_diagram(ld: LevelDiagram) -> str:
    out = []
    bases = ld.manifold_bases()
    for level in range(bases[-1]):
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
    return min(direct, inverted), direct <= inverted


def reconstruct_levels(cm: ConnectivityMatrix, n: int,
                       max_solutions: int = 64,
                       analyze_conflict: bool = True) -> AssignmentResult:
    """Backtracking search for all diagrams consistent with cm, up to symmetry.

    Transitions are placed most-constrained-first; each endpoint is either
    forced by a placed neighbor or fresh.  A placement is checked against
    the placed transitions that share one of its levels, which with the
    forced endpoints covers every pairwise relation (including required
    zeros), so a complete assignment is consistent by construction.
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
    rows = cm.m.tolist()   # Python ints: the search reads single entries
    ambiguous = tuple(cm.ids[i] for i in range(t_count)
                      if t_count > 1 and not np.any(cm.m[i]))

    # at depth pos the placed transitions are order[:pos], so each
    # transition's placed neighbors are its nonzero entries among those
    # before it in the search order, in that order
    earlier = {t: [s for s in order[:pos] if rows[t][s] != 0]
               for pos, t in enumerate(order)}

    solutions: list[list[tuple[int, int, int]]] = []
    seen: set = set()
    truncated = [False]
    placed: dict[int, tuple[int, int, int]] = {}
    used_levels: dict[int, list[int]] = {k: [] for k in range(n + 1)}
    used_edges: set[tuple[int, int]] = set()
    next_handle = [0]
    # the placed transitions having each live handle as their lower
    # (upper) level, in placement order
    lower_of: dict[int, list[int]] = {}
    upper_of: dict[int, list[int]] = {}

    def fresh(man: int) -> int | None:
        if len(used_levels[man]) >= caps[man]:
            return None
        h = next_handle[0]
        next_handle[0] += 1
        lower_of[h], upper_of[h] = [], []
        used_levels[man].append(h)
        return h

    def release(man: int, h: int) -> None:
        used_levels[man].remove(h)
        del lower_of[h], upper_of[h]

    def candidates(t: int, pos: int):
        row = rows[t]
        neighbors = earlier[t]
        cands: list[tuple[int, int | None, int | None]] = []
        if not neighbors:
            layers = range(n)
            if pos == 0:
                layers = range((n + 1) // 2)   # global-inversion quotient
            for p in layers:
                cands.append((p, None, None))
        else:
            s0 = neighbors[0]
            p0, u0, v0 = placed[s0]
            if row[s0] == 1:
                if p0 + 1 < n:
                    cands.append((p0 + 1, v0, None))
                if p0 - 1 >= 0:
                    cands.append((p0 - 1, None, u0))
            else:
                cands.append((p0, u0, None))
                cands.append((p0, None, v0))
            for s in neighbors[1:]:
                ps, us, vs = placed[s]
                refined = []
                for (p, u, v) in cands:
                    if row[s] == 1:
                        if p == ps + 1 and (u is None or u == vs):
                            refined.append((p, vs, v))
                        if p == ps - 1 and (v is None or v == us):
                            refined.append((p, u, us))
                    else:
                        if p == ps:
                            if u is None or u == us:
                                refined.append((p, us, v))
                            if v is None or v == vs:
                                refined.append((p, u, vs))
                cands = list(dict.fromkeys(refined))
                if not cands:
                    return []
        return list(dict.fromkeys(cands))

    def consistent(t: int, u: int, v: int) -> bool:
        """Whether edge (u, v) for t relates to every placed transition as
        row t requires.  The candidate already meets the relation of each
        placed neighbor.  Handles are unique across manifolds, so any other
        placed edge relates to it only through a shared level: +1 where u
        is its upper level or v its lower one, -1 where u is its lower
        level or v its upper one."""
        row = rows[t]
        for rel, group in ((1, upper_of[u]), (1, lower_of[v]),
                           (-1, lower_of[u]), (-1, upper_of[v])):
            for s in group:
                if row[s] != rel:
                    return False
        return True

    def place(t: int, cand) -> tuple[int, int, int] | None:
        p, u, v = cand
        created = []
        if u is None:
            u = fresh(p)
            if u is None:
                return None
            created.append((p, u))
        if v is None:
            v = fresh(p + 1)
            if v is None:
                for man, h in created:
                    release(man, h)
                return None
            created.append((p + 1, v))
        if (u, v) in used_edges or not consistent(t, u, v):
            for man, h in created:
                release(man, h)
            return None
        edge = (p, u, v)
        placed[t] = edge
        used_edges.add((u, v))
        lower_of[u].append(t)
        upper_of[v].append(t)
        return edge

    def unplace(t: int, edge, cand) -> None:
        p, u, v = edge
        del placed[t]
        used_edges.discard((u, v))
        lower_of[u].pop()             # t was placed last
        upper_of[v].pop()
        if cand[1] is None:
            release(p, u)
        if cand[2] is None:
            release(p + 1, v)

    def search(pos: int) -> None:
        if truncated[0]:
            return
        if pos == t_count:
            sol = [placed[i] for i in range(t_count)]
            sig, _ = _canonical_signature(n, sol)
            if sig not in seen:
                seen.add(sig)
                if len(solutions) >= max_solutions:
                    truncated[0] = True
                    return
                solutions.append(list(sig))
            return
        t = order[pos]
        for cand in candidates(t, pos):
            edge = place(t, cand)
            if edge is None:
                continue
            search(pos + 1)
            unplace(t, edge, cand)
            if truncated[0]:
                return

    search(0)

    if not solutions:
        conflict = _first_conflict(cm, n) if analyze_conflict else None
        return AssignmentResult(diagrams=[], truncated=False,
                                conflict=conflict)

    solutions.sort()
    diagrams = [_diagram_from_signature(n, cm.ids, sig, ambiguous)
                for sig in solutions]
    return AssignmentResult(diagrams=diagrams, truncated=truncated[0])


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
    order: list[int] = []
    for _ in range(t_count):
        best = int(np.argmax(key))
        order.append(best)
        key += t_count * t_count * nonzero[:, best]
        key[best] = np.iinfo(np.int64).min
    return order


def _diagram_from_signature(n, ids, sig, ambiguous) -> LevelDiagram:
    bases = [0]
    for k in range(n + 1):
        bases.append(bases[-1] + math.comb(n, k))
    edges = {}
    for i, (p, u, v) in enumerate(sig):
        edges[ids[i]] = (bases[p] + u, bases[p + 1] + v)
    return LevelDiagram(n=n, edges=edges, ambiguous=ambiguous)


def _first_conflict(cm: ConnectivityMatrix, n: int) -> tuple[int, ...] | None:
    t = cm.size
    for i in range(t):
        for j in range(i + 1, t):
            for k in range(j + 1, t):
                sub = cm.m[np.ix_((i, j, k), (i, j, k))]
                res = reconstruct_levels(
                    ConnectivityMatrix(m=sub), n, max_solutions=1,
                    analyze_conflict=False)
                if not res.diagrams:
                    return (cm.ids[i], cm.ids[j], cm.ids[k])
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
    disc = []
    for i in range(cm.size):
        for j in range(cm.size):
            if derived[i, j] != cm.m[i, j]:
                disc.append((cm.ids[i], cm.ids[j],
                             int(cm.m[i, j]), int(derived[i, j])))
    return not disc, disc


def diagram_from_catalog(es, catalog, ids=None) -> LevelDiagram:
    """Ground-truth diagram of a simulated system for the given transitions."""
    if ids is None:
        ids = tuple((np.flatnonzero(catalog.observable) + 1).tolist())
    n = es.n
    bases = [0]
    for k in range(n + 1):
        bases.append(bases[-1] + math.comb(n, k))
    # eigenstates are already manifold-major, so index within the manifold
    offsets = {}
    local = {}
    for idx in range(es.dim):
        man = int(round(n / 2 - es.mz[idx]))
        local[idx] = offsets.get(man, 0)
        offsets[man] = offsets.get(man, 0) + 1
    edges = {}
    for tid in ids:
        t = catalog.by_id(tid)
        man = int(round(n / 2 - es.mz[t.lower]))
        edges[tid] = (bases[man] + local[t.lower], bases[man + 1] + local[t.upper])
    return LevelDiagram(n=n, edges=edges)


def diagrams_isomorphic(a: LevelDiagram, b: LevelDiagram) -> bool:
    """Equality modulo within-manifold level permutation and inversion."""
    if a.n != b.n or sorted(a.edges) != sorted(b.edges):
        return False

    def to_sig(ld):
        seq = []
        bases = ld.manifold_bases()
        for tid in sorted(ld.edges):
            lo, up = ld.edges[tid]
            p = ld.manifold_of(lo)
            seq.append((p, lo - bases[p], up - bases[p + 1]))
        sig, _ = _canonical_signature(ld.n, seq)
        return sig

    return to_sig(a) == to_sig(b)
