"""Dense reference model of the spin physics, independent of spinsim.

The benchmark generates its random inputs and checks the program's
outputs on them with this model, so neither step depends on the code
under test.  It follows the conventions spinsim documents for its file
formats: spin 0 is the most significant label bit and bit value 0 is the
m = +1/2 state; eigenstates are ordered by descending M_z manifold and
ascending energy, each eigenvector's largest component is real positive;
transitions are numbered by descending intensity, ties by ascending
frequency; rotations are U = exp(-i theta I_phi) with phase x at 0 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _kron_of(factors) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def _embed(ops: dict, n: int) -> np.ndarray:
    """Product operator with ops[i] on spin i and identity elsewhere."""
    return _kron_of([ops.get(i, np.eye(2)) for i in range(n)])


def hamiltonian(offset_hz, j_hz, d_hz) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/s (strong J, truncated dipolar)."""
    n = len(offset_hz)
    h = sum(2 * math.pi * offset_hz[i] * _embed({i: _SZ}, n) for i in range(n))
    for i in range(n):
        for k in range(i + 1, n):
            zz = _embed({i: _SZ, k: _SZ}, n)
            dot = zz + _embed({i: _SX, k: _SX}, n) + _embed({i: _SY, k: _SY}, n)
            h = h + 2 * math.pi * (j_hz[i][k] * dot + d_hz[i][k] * (3 * zz - dot))
    return h


@dataclass
class Eigen:
    n: int
    energies: np.ndarray      # rad/s
    vectors: np.ndarray       # columns in the product basis
    mz: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.n


def eigen(offset_hz, j_hz, d_hz) -> Eigen:
    n = len(offset_hz)
    dim = 2 ** n
    h = hamiltonian(offset_hz, j_hz, d_hz)
    pmz = np.array([(n - 2 * bin(k).count("1")) / 2 for k in range(dim)])
    energies, mz = np.zeros(dim), np.zeros(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for m in sorted(set(pmz.tolist()), reverse=True):
        idx = np.flatnonzero(pmz == m)
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        for col in range(idx.size):
            vec = v[:, col]
            top = vec[int(np.argmax(np.abs(vec)))]
            vectors[idx, pos + col] = vec * np.conj(top / abs(top))
        energies[pos:pos + idx.size] = w
        mz[pos:pos + idx.size] = m
        pos += idx.size
    return Eigen(n, energies, vectors, mz)


def lowering(es: Eigen) -> np.ndarray:
    fm = sum(_embed({i: _SM}, es.n) for i in range(es.n))
    return es.vectors.conj().T @ fm @ es.vectors


def transitions(es: Eigen) -> list[tuple[int, int, float, float]]:
    """(lower, upper, freq_hz, intensity) in catalog-id order."""
    fme = lowering(es)
    raw = [(lo, up, float((es.energies[lo] - es.energies[up]) / (2 * math.pi)),
            float(abs(fme[up, lo]) ** 2))
           for lo in range(es.dim) for up in range(es.dim)
           if es.mz[up] == es.mz[lo] - 1]
    raw.sort(key=lambda r: (-r[3], r[2], r[0], r[1]))
    return raw


def connectivity(edges: list[tuple[int, int]]) -> np.ndarray:
    """Signed connectivity of (lower, upper) level pairs: +1 progressive
    (shared middle level), -1 regressive (common top or bottom), else 0."""
    t = len(edges)
    m = np.zeros((t, t), dtype=int)
    for a, (alo, aup) in enumerate(edges):
        for b, (blo, bup) in enumerate(edges):
            if a == b:
                continue
            if aup == blo or bup == alo:
                m[a, b] = 1
            elif alo == blo or aup == bup:
                m[a, b] = -1
    return m


def equilibrium(es: Eigen) -> np.ndarray:
    pops = es.mz * (es.n / (es.mz.max() - es.mz.min()))
    return np.diag(pops).astype(complex)


def rotation(theta_deg: float, phase_deg: float) -> np.ndarray:
    th, ph = math.radians(theta_deg), math.radians(phase_deg)
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[c, -1j * np.exp(-1j * ph) * s],
                     [-1j * np.exp(1j * ph) * s, c]])


def propagate(es: Eigen, rho: np.ndarray, ops, rows, receivers) -> np.ndarray:
    """Receiver-weighted mean over the phase-cycle rows of the op list.

    ops: ("sel", lower, upper, angle, phase) | ("hard", angle, phase) |
    ("delay", seconds) | ("grad",), where a phase is degrees or a slot
    index into the row.
    """
    def phase(p, row):
        return row[p[1]] if isinstance(p, tuple) else p

    out = []
    for row, recv in zip(rows, receivers):
        r = rho.copy()
        for op in ops:
            if op[0] == "sel":
                _, lo, up, ang, ph = op
                u = np.eye(es.dim, dtype=complex)
                blk = rotation(ang, phase(ph, row))
                u[np.ix_([lo, up], [lo, up])] = blk
            elif op[0] == "hard":
                u = _kron_of([rotation(op[1], phase(op[2], row))] * es.n)
                u = es.vectors.conj().T @ u @ es.vectors
            elif op[0] == "delay":
                p = np.exp(-1j * es.energies * op[1])
                r = (p[:, None] * r) * np.conj(p)[None, :]
                continue
            else:
                r = np.diag(np.diag(r))
                continue
            r = u @ r @ u.conj().T
        out.append(recv * r)
    return np.mean(np.stack(out), axis=0)
