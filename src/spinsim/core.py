"""Spin Hamiltonians, eigensystems and transition catalogs.

Builds rotating-frame Hamiltonians for systems of up to 8 coupled spin-1/2
nuclei (chemical-shift offsets, scalar J couplings, effective residual
dipolar couplings), diagonalizes them blockwise over total-M_z manifolds,
labels the eigenstates with n-bit strings by maximum overlap with product
states, and enumerates the single-quantum transitions with their
frequencies and intensities.

Unit conventions
----------------
All user-facing frequencies (offsets, couplings, transition frequencies)
are in Hz.  Hamiltonians and eigenvalues are in rad/s; conversion happens
only inside Hamiltonian assembly.  Bit 0 of a label is the m = +1/2 (alpha)
single-spin state, so the all-zeros label sits in the highest-M_z manifold.
Eigenstates are ordered by M_z manifold (descending M_z) and by ascending
energy inside each manifold.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_SPINS = 8


class SpinSystemError(ValueError):
    """Invalid spin-system definition (shape, symmetry or range violations)."""


def product_mz(n: int) -> np.ndarray:
    """Total magnetic quantum number of each product basis state, label order."""
    return np.array([(n - 2 * bin(k).count("1")) / 2.0 for k in range(2**n)])


def label_of_index(k: int, n: int) -> str:
    return format(k, f"0{n}b")


@dataclass
class SpinSystem:
    """Declarative description of n coupled spin-1/2 nuclei.

    offset_hz are chemical-shift offsets relative to the carrier; j_hz and
    d_hz are symmetric coupling matrices with zero diagonal (d_hz holds the
    effective residual dipolar coupling directly, already including any
    order-parameter scaling).
    """

    name: str
    n: int
    offset_hz: np.ndarray
    j_hz: np.ndarray
    d_hz: np.ndarray

    @classmethod
    def create(cls, name, offsets, j_hz=None, d_hz=None) -> "SpinSystem":
        offsets = np.asarray(offsets, dtype=float)
        n = offsets.size
        j = np.zeros((n, n)) if j_hz is None else np.asarray(j_hz, dtype=float)
        d = np.zeros((n, n)) if d_hz is None else np.asarray(d_hz, dtype=float)
        sys = cls(name=name, n=n, offset_hz=offsets, j_hz=j, d_hz=d)
        sys.validate()
        return sys

    def validate(self) -> None:
        if not 1 <= self.n <= MAX_SPINS:
            raise SpinSystemError(f"spin count {self.n} outside 1..{MAX_SPINS}")
        if self.offset_hz.shape != (self.n,):
            raise SpinSystemError("offset_hz must have one entry per spin")
        couplings = (("j_hz", self.j_hz), ("d_hz", self.d_hz))
        for nm, m in couplings:
            if m.shape != (self.n, self.n):
                raise SpinSystemError(f"{nm} must be {self.n}x{self.n}")
        for arr in (self.offset_hz, self.j_hz, self.d_hz):
            if not np.isfinite(arr).all():
                raise SpinSystemError("non-finite value in spin system")
        # exactly symmetric: build_hamiltonian reads only the upper triangle
        for nm, m in couplings:
            if not (m == m.T).all():
                raise SpinSystemError(f"{nm} must be symmetric")
            if m.diagonal().any():
                raise SpinSystemError(f"{nm} must have zero diagonal")


def build_hamiltonian(sys: SpinSystem, weak: bool = False) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/s.

    H = sum_i 2*pi*offset_i I_iz
      + sum_{i<j} 2*pi*J_ij (I_i.I_j)            (weak=False)
        or 2*pi*J_ij I_iz I_jz                   (weak=True)
      + sum_{i<j} 2*pi*D_ij (3 I_iz I_jz - I_i.I_j)

    The dipolar term keeps its truncated full form in both modes.

    H is assembled from the spin bits of the basis states: I_iz I_jz is
    diagonal (+-1/4), and I_ix I_jx + I_iy I_jy is 1/2 on the flip-flop
    pairs (k, k ^ (bit_i | bit_j)) where bits i and j of k differ.  Every
    operator factor is a power of two, and the terms are added in the
    order of the dense operator sum (offsets, then pairs i < j with J
    before D), so H equals that sum bit for bit.  Overflow to inf is left
    for ``diagonalize`` to reject.
    """
    sys.validate()
    n = sys.n
    dim = 2**n
    k = np.arange(dim)
    # diagonals of I_iz; spin 0 is the top bit of the basis index
    iz = [np.where(k & (1 << (n - 1 - i)), -0.5, 0.5) for i in range(n)]
    h = np.zeros((dim, dim), dtype=complex)
    diag = np.zeros(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            diag += 2 * math.pi * sys.offset_hz[i] * iz[i]
        for i in range(n):
            for j in range(i + 1, n):
                zz = iz[i] * iz[j]
                flip = 0.0                      # the flip-flop element
                if sys.j_hz[i, j] != 0.0:
                    c = 2 * math.pi * sys.j_hz[i, j]
                    diag += c * zz
                    if not weak:
                        flip = flip + c * 0.5
                if sys.d_hz[i, j] != 0.0:
                    c = 2 * math.pi * sys.d_hz[i, j]
                    diag += c * (2 * zz)        # the diagonal of 3 zz - I_i.I_j
                    flip = flip + c * -0.5
                if sys.d_hz[i, j] != 0.0 or (sys.j_hz[i, j] != 0.0 and not weak):
                    rows = np.flatnonzero(iz[i] != iz[j])
                    h[rows, rows ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))] = flip
    h[k, k] = diag
    return h


def mixing_angle_ab(sys: SpinSystem) -> float:
    """Strong-coupling mixing angle of a two-spin system, in degrees.

    theta = 1/2 * atan2(2*pi*J_AB, omega_A - omega_B), folded into
    (-45, +45].  Zero in the weak-coupling limit, 22.5 deg when the
    coupling equals the offset difference, 45 deg for equivalent shifts.
    """
    if sys.n != 2:
        raise SpinSystemError("mixing angle is defined for two-spin systems")
    domega = 2 * math.pi * (sys.offset_hz[0] - sys.offset_hz[1])
    theta = 0.5 * math.degrees(math.atan2(2 * math.pi * sys.j_hz[0, 1], domega))
    while theta > 45.0:
        theta -= 90.0
    while theta <= -45.0:
        theta += 90.0
    return theta


@dataclass
class EigenSystem:
    """Diagonalized spin system with qubit-labeled eigenstates.

    energies are in rad/s, ascending inside each M_z manifold; manifolds
    are ordered by descending M_z.  Columns of ``vectors`` are eigenvectors
    expressed in the product basis with the global phase fixed so the
    largest-magnitude component is real positive.  ``labels[k]`` is the
    n-bit string assigned to eigenstate k by maximum overlap with product
    states; ``mz[k]`` is the total magnetic quantum number of its manifold.
    """

    n: int
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple[str, ...]
    mz: np.ndarray
    label_conflicts: int = 0
    _blocks: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _lowering: np.ndarray | None = field(default=None, init=False,
                                         repr=False, compare=False)
    _catalog: TransitionCatalog | None = field(default=None, init=False,
                                               repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2**self.n

    def index_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no eigenstate labeled {label!r}") from None

    def manifold_vectors(self) -> tuple[tuple[slice, np.ndarray], ...]:
        """Per M_z manifold, descending M_z: its eigenstate columns and the
        block of ``vectors`` on its product states (ascending index), the
        only nonzero block of those columns.  Read-only; ``diagonalize``
        hands them over, and any other eigensystem gathers them on the
        first call."""
        if self._blocks is None:
            blocks = []
            for _, idx, _, cols, _ in _manifold_layout(self.n):
                v = self.vectors[idx, cols]
                v.flags.writeable = False
                blocks.append((cols, v))
            self._blocks = tuple(blocks)
        return self._blocks

    def lowering_operator(self) -> np.ndarray:
        """F- in the eigenbasis, read-only: built on the first call and
        returned by every later one.

        F- = sum_i I_i- lowers M_z by one, so it is nonzero only from one
        manifold to the next: there it is V_next^H F V, F the 0/1 block of
        ``_lowering_blocks``.  Every other entry is exactly 0.
        """
        if self._lowering is None:
            fm = np.zeros((self.dim, self.dim), dtype=complex)
            blocks = self.manifold_vectors()
            for (cols, v), (rows, w), f in zip(blocks, blocks[1:],
                                               _lowering_blocks(self.n)):
                fm[rows, cols] = w.conj().T @ (f @ v)
            self._lowering = fm
            self._lowering.flags.writeable = False
        return self._lowering


@functools.cache
def _manifold_layout(n: int):
    """The M_z manifolds of n spins, descending M_z, as (m, product-state
    indices, their block index, their eigenstate columns, their labels)."""
    pmz = product_mz(n)
    manifolds = []
    pos = 0
    for m in sorted(set(pmz.tolist()), reverse=True):
        idx = np.flatnonzero(pmz == m)
        idx.flags.writeable = False
        manifolds.append((m, idx, np.ix_(idx, idx), slice(pos, pos + idx.size),
                          tuple(label_of_index(int(k), n) for k in idx)))
        pos += idx.size
    return tuple(manifolds)


@functools.cache
def _lowering_blocks(n: int) -> tuple[np.ndarray, ...]:
    """F- = sum_i I_i- in the product basis, from each manifold to the next
    (the rows and columns of ``_manifold_layout``): 1 where the row state
    is the column state with one more beta (1) bit, else 0."""
    layout = _manifold_layout(n)
    blocks = tuple(((dst[:, None] & src) == src).astype(complex)
                   for (_, src, *_), (_, dst, *_) in zip(layout, layout[1:]))
    for f in blocks:
        f.flags.writeable = False
    return blocks


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real
    positive (the first one on a tie)."""
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot is the scalar abs(z), which complex np.abs need not match
    return v * np.conj(top / np.hypot(top.real, top.imag))


def _greedy_match(overlaps: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy descending-overlap matching of products (rows) to eigenstates
    (columns); returns the row of each column and the conflict count.

    The greedy walk over the stable descending order of all pairs takes,
    in every round, exactly the pairs that are each other's best among the
    free rows and columns, so the rounds below give its matching.  A
    conflict is a column matched to a row whose first choice, the last
    column with that row as its argmax, is another column.
    """
    s = overlaps.shape[0]
    cols = np.arange(s)
    rank = np.empty(s * s, dtype=np.intp)
    rank[np.argsort(-overlaps, axis=None, kind="stable")] = np.arange(s * s)
    rank = rank.reshape(s, s)
    row_of = np.full(s, -1)
    while (free := row_of < 0).any():
        best_r = rank.argmin(axis=0)
        mutual = np.flatnonzero(free & (rank.argmin(axis=1)[best_r] == cols))
        row_of[mutual] = best_r[mutual]
        rank[best_r[mutual], :] = s * s       # taken rows and columns rank last
        rank[:, mutual] = s * s
    first_choice = np.full(s, -1)
    np.maximum.at(first_choice, overlaps.argmax(axis=0), cols)
    chosen = first_choice[row_of]
    return row_of, int(np.count_nonzero((chosen >= 0) & (chosen != cols)))


def diagonalize(h: np.ndarray, sys: SpinSystem) -> EigenSystem:
    """Blockwise Hermitian eigensolve over M_z manifolds.

    Requires H to commute with F_z (all Hamiltonians built here do); raises
    if there is leakage between manifolds.  Labels are assigned inside each
    manifold by a greedy descending-overlap match with product states;
    conflicts (an eigenvector not getting its own argmax label) are counted
    and reported via ``label_conflicts``.
    """
    n = sys.n
    dim = 2**n
    if h.shape != (dim, dim):
        raise SpinSystemError("Hamiltonian dimension does not match system")
    if not np.all(np.isfinite(h)):
        raise SpinSystemError("Hamiltonian has a non-finite entry")
    hnorm = np.linalg.norm(h)
    if hnorm > 0 and np.linalg.norm(h - h.conj().T) > 1e-10 * hnorm:
        raise SpinSystemError("Hamiltonian is not Hermitian")

    energies = np.zeros(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    mz_out = np.zeros(dim)
    labels: list[str] = []
    blocks = []
    conflicts = 0
    for m, idx, block, cols, names in _manifold_layout(n):
        # off-manifold leakage would mean [H, F_z] != 0
        off = h[idx, :]
        off[:, idx] = 0.0
        leak = np.linalg.norm(off)
        if hnorm > 0 and leak > 1e-10 * hnorm:
            raise SpinSystemError("Hamiltonian mixes M_z manifolds")
        w, v = np.linalg.eigh(h[block])
        v = _fix_phase(v)
        energies[cols] = w
        vectors[idx, cols] = v
        v.flags.writeable = False
        blocks.append((cols, v))
        mz_out[cols] = m
        # greedy max-overlap labeling within the manifold
        row_of, clashes = _greedy_match(np.abs(v) ** 2)
        labels.extend(names[r] for r in row_of.tolist())
        conflicts += clashes

    if conflicts:
        warnings.warn(f"{conflicts} eigenstate(s) resolved by best-overlap "
                      "labeling after a degenerate-label conflict")
    es = EigenSystem(n, energies, vectors, tuple(labels), mz_out, conflicts)
    es._blocks = tuple(blocks)      # manifold_vectors() without a gather
    return es


def eigensystem(sys: SpinSystem, weak: bool = False) -> EigenSystem:
    """Convenience: build the Hamiltonian and diagonalize it."""
    return diagonalize(build_hamiltonian(sys, weak=weak), sys)


@dataclass(frozen=True)
class Transition:
    tid: int
    lower: int       # eigenstate index in the higher-M_z manifold
    upper: int       # eigenstate index one quantum below
    freq_hz: float
    intensity: float


@dataclass(eq=False)
class TransitionCatalog:
    """All single-quantum transitions, stored as read-only columns in id order.

    Transition ``tid`` (1-based) is row ``tid - 1`` of every column.  Ids
    run by descending intensity, ties broken by ascending frequency, then
    by lower and upper eigenstate index.  ``pair_tid[lower, upper]`` is the
    id of the line between two eigenstates, 0 where there is none.  The
    lookups build one ``Transition`` record per call.
    """

    lower: np.ndarray        # eigenstate index in the higher-M_z manifold
    upper: np.ndarray        # eigenstate index one quantum below
    freq_hz: np.ndarray
    intensity: np.ndarray
    pair_tid: np.ndarray     # (dim, dim) ids, 0 for no line

    def __post_init__(self):
        for col in (self.lower, self.upper, self.freq_hz, self.intensity,
                    self.pair_tid):
            col.flags.writeable = False

    def __len__(self) -> int:
        return self.lower.size

    def observable_at(self, threshold: float) -> np.ndarray:
        """Per line in id order, whether its intensity is at or above
        ``threshold`` times the largest one (none when that is 0)."""
        if not 0 <= threshold < 1:
            raise SpinSystemError("threshold must be in [0, 1)")
        max_i = float(self.intensity.max()) if len(self) else 0.0
        return (self.intensity >= threshold * max_i) & (max_i > 0)

    def by_id(self, tid: int) -> Transition:
        if not 1 <= tid <= len(self):
            raise KeyError(f"unknown transition t{tid}")
        k = tid - 1
        return Transition(tid=tid, lower=int(self.lower[k]),
                          upper=int(self.upper[k]),
                          freq_hz=float(self.freq_hz[k]),
                          intensity=float(self.intensity[k]))

    def by_pair(self, a: int, b: int) -> Transition:
        dim = self.pair_tid.shape[0]
        if 0 <= a < dim and 0 <= b < dim:
            tid = int(self.pair_tid[a, b] or self.pair_tid[b, a])
            if tid:
                return self.by_id(tid)
        raise KeyError(f"no single-quantum transition between states {a} and {b}")

    def by_labels(self, es: EigenSystem, la: str, lb: str) -> Transition:
        return self.by_pair(es.index_of_label(la), es.index_of_label(lb))


def sq_transition_count(n: int) -> int:
    """Number of single-quantum transitions: binomial(2n, n-1)."""
    if not 1 <= n <= MAX_SPINS:
        raise SpinSystemError(f"spin count {n} outside 1..{MAX_SPINS}")
    return math.comb(2 * n, n - 1)


def transition_catalog(es: EigenSystem) -> TransitionCatalog:
    """All delta-M_z = -1 eigenstate pairs of ``es`` with intensities, built
    on the first call and returned by every later one.

    intensity = |<upper| F- |lower>|^2, freq_hz = (E_lower - E_upper)/2pi.
    Ids are assigned in descending intensity order, ties broken by
    ascending frequency.
    """
    if es._catalog is not None:
        return es._catalog
    fme = es.lowering_operator()
    lo, up = np.nonzero(es.mz[None, :] == es.mz[:, None] - 1)
    amp = fme[up, lo]
    # float_power calls C pow, as `**` on a numpy scalar does; `**2` on
    # an array squares, which rounds differently
    inten = np.float_power(np.hypot(amp.real, amp.imag), 2.0)
    freq = (es.energies[lo] - es.energies[up]) / (2 * math.pi)
    order = np.lexsort((up, lo, freq, -inten))
    lo, up, freq, inten = lo[order], up[order], freq[order], inten[order]
    pair_tid = np.zeros((es.dim, es.dim), dtype=np.int32)
    pair_tid[lo, up] = np.arange(1, lo.size + 1)
    es._catalog = TransitionCatalog(lower=lo, upper=up, freq_hz=freq,
                                    intensity=inten, pair_tid=pair_tid)
    return es._catalog


# ---------------------------------------------------------------------------
# spin-system file format: line oriented, '#' comments, 1-based indices
#   name <string> / nspins <int> / offset_hz <n floats>
#   j_hz <i> <j> <float> / d_hz <i> <j> <float>

def parse_spin_system(text: str, source: str = "<string>") -> SpinSystem:
    name = ""
    n = None
    offsets = None
    pairs: list[tuple[str, int, int, float, int]] = []
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        key = tok[0]
        try:
            if key == "name":
                name = line[len("name"):].strip()
            elif key == "nspins":
                n = int(tok[1])
            elif key == "offset_hz":
                offsets = [float(x) for x in tok[1:]]
            elif key in ("j_hz", "d_hz"):
                pairs.append((key, int(tok[1]), int(tok[2]), float(tok[3]), ln))
            else:
                raise SpinSystemError(f"{source}:{ln}: unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, SpinSystemError):
                raise
            raise SpinSystemError(f"{source}:{ln}: malformed line {line!r}") from None
    if n is None or offsets is None:
        raise SpinSystemError(f"{source}: missing nspins or offset_hz")
    if len(offsets) != n:
        raise SpinSystemError(f"{source}: expected {n} offsets, got {len(offsets)}")
    j = np.zeros((n, n))
    d = np.zeros((n, n))
    for key, i, jidx, val, ln in pairs:
        if not (1 <= i <= n and 1 <= jidx <= n and i != jidx):
            raise SpinSystemError(f"{source}:{ln}: bad spin pair {i},{jidx}")
        m = j if key == "j_hz" else d
        m[i - 1, jidx - 1] = m[jidx - 1, i - 1] = val
    return SpinSystem.create(name or source, offsets, j, d)


def format_spin_system(sys: SpinSystem) -> str:
    out = [f"name {sys.name}", f"nspins {sys.n}",
           "offset_hz " + " ".join(f"{x:.12g}" for x in sys.offset_hz)]
    for key, m in (("j_hz", sys.j_hz), ("d_hz", sys.d_hz)):
        for i in range(sys.n):
            for jj in range(i + 1, sys.n):
                if m[i, jj] != 0.0:
                    out.append(f"{key} {i + 1} {jj + 1} {m[i, jj]:.12g}")
    return "\n".join(out) + "\n"


def load_spin_system(path) -> SpinSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spin_system(fh.read(), source=str(path))
