"""Deviation density matrices and the primitive evolutions acting on them.

A state is a complex d x d array in the eigenbasis of the spin system, or
a (..., d, d) stack of them after a symbolic delay bound to an array of
times (one state per time along the leading axis).

Everything lives in the eigenbasis of the spin system: transition-selective
pulses are 2x2 rotations on eigenstate pairs, gradient crushers zero the
off-diagonal, free evolution is a diagonal phase map, and hard
(non-selective) pulses are built in the product basis as a kron product of
single-spin rotations and conjugated into the eigenbasis once.

Rotation convention: U = exp(-i * theta * I_phi) with phase x -> phi = 0,
y -> 90 deg.  For a selective pulse the 2x2 block is written in
(lower, upper) order, lower being the level in the higher-M_z manifold, so

    U_block = [[cos(t/2),            -i e^{-i phi} sin(t/2)],
               [-i e^{+i phi} sin(t/2),            cos(t/2)]].
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator

import numpy as np

from .core import EigenSystem, _manifold_layout, _norm_scale

HERMITICITY_TOL = 1e-12


class DynamicsError(ValueError):
    pass


def equilibrium_deviation(es: EigenSystem) -> np.ndarray:
    """High-temperature equilibrium deviation of a homonuclear system.

    For like spins the lab-frame energy is dominated by the common Larmor
    term, so deviation populations follow the total magnetic quantum
    number of each level.  Normalized so the max-min population difference
    equals the spin count n (M_z already spans exactly n).
    """
    pops = es.mz.astype(float).copy()
    span = pops.max() - pops.min()
    if span > 0:
        pops *= es.n / span
    return np.diag(pops).astype(complex)


def _canonical_pair(es: EigenSystem, r: int, s: int) -> tuple[int, int]:
    if es.mz[r] == es.mz[s] + 1:
        return r, s
    if es.mz[s] == es.mz[r] + 1:
        return s, r
    raise DynamicsError(
        f"states {r} and {s} are not single-quantum connected; "
        "a transition-selective pulse cannot drive them")


def _selective_rows(es: EigenSystem, r: int, s: int, theta_deg: float,
                    phase_deg: float) -> tuple[int, int, np.ndarray]:
    """(lower, upper) and rows (lower, upper) of the selective pulse's
    unitary, a 2 x d array; every other row is that of the identity."""
    lo, up = _canonical_pair(es, r, s)
    th = math.radians(theta_deg)
    ph = math.radians(phase_deg)
    c, sn = math.cos(th / 2), math.sin(th / 2)
    rows = np.zeros((2, es.dim), dtype=complex)
    rows[0, lo] = rows[1, up] = c
    rows[0, up] = -1j * np.exp(-1j * ph) * sn
    rows[1, lo] = -1j * np.exp(+1j * ph) * sn
    return lo, up, rows


def selective_pulse_unitary(es: EigenSystem, r: int, s: int,
                            theta_deg: float, phase_deg: float) -> np.ndarray:
    """Rotation confined to the 2-level subspace of one allowed transition.

    (r, s) must differ by one quantum of M_z; the block orientation is
    canonicalized to (lower, upper) regardless of argument order.
    """
    lo, up, rows = _selective_rows(es, r, s, theta_deg, phase_deg)
    u = np.eye(es.dim, dtype=complex)
    u[[lo, up]] = rows
    return u


def apply_selective_pulse(es: EigenSystem, rho: np.ndarray, r: int, s: int,
                          theta_deg: float, phase_deg: float) -> np.ndarray:
    """``apply_unitary(rho, selective_pulse_unitary(es, r, s, ...))``,
    bit for bit, with work on the two rows and two columns the pulse mixes.

    With R the unitary's rows (lower, upper), U rho differs from rho only
    in those rows, R @ rho, and (U rho) U^H from U rho only in those
    columns, the transpose of conj(R) @ (U rho)^T.  Both products go
    through the same BLAS kernel as the dense ones and round as they do;
    the columns as (U rho) @ conj(R)^T would not.  At d = 2 the transposed
    form rounds differently from the dense product, which is itself two
    columns wide, so the columns are that product there.  (For a state
    with inf or nan entries the dense product spreads nan, and this does
    not.)
    """
    lo, up, rows = _selective_rows(es, r, s, theta_deg, phase_deg)
    # the other elements as the dense product leaves them: -0.0 becomes +0.0
    x = rho + 0j
    y = rows @ rho
    x[..., lo, :], x[..., up, :] = y[..., 0, :], y[..., 1, :]
    if x.shape[-1] == 2:
        u = rows[[lo, up]]          # (lo, up) permutes (0, 1), its own inverse
        return x @ u.conj().T
    y = rows.conj() @ x.swapaxes(-1, -2)
    x[..., :, lo], x[..., :, up] = y[..., 0, :], y[..., 1, :]
    return x


def hard_pulse_unitary(es: EigenSystem, theta_deg: float,
                       phase_deg: float) -> np.ndarray:
    """Non-selective pulse exp(-i theta F_phi), exact, in the eigenbasis.

    F_phi = sum_k (I_kx cos phi + I_ky sin phi); the single-spin rotations
    commute, so the product-basis unitary K is a kron product of one 2 x 2
    rotation u: K[p, q] = c^(n - a - b) u01^a u10^b, with a (b) the bits
    set in q (p) only.  K is built in eigenstate order from that table,
    and V^H K V as one product per manifold on each side, V being zero
    outside its per-manifold blocks.
    """
    th = math.radians(theta_deg)
    ph = math.radians(phase_deg)
    c, sn = math.cos(th / 2), math.sin(th / 2)
    n = es.n
    # powers 0..n of each entry of u, by repeated multiplication
    u = np.array([c, -1j * np.exp(-1j * ph) * sn, -1j * np.exp(1j * ph) * sn])
    powers = np.ones((3, n + 1), dtype=complex)
    powers[:, 1:] = u[:, None]
    powers = np.cumprod(powers, axis=1)
    j = np.arange(n + 1)
    # table[a, b]; a + b > n never occurs
    table = np.outer(powers[1], powers[2]) \
        * powers[0][np.maximum(n - j[:, None] - j, 0)]
    k = table.ravel()[_flip_counts(n)]
    blocks = es.manifold_vectors()
    kv = np.empty_like(k)
    for cols, v in blocks:
        kv[:, cols] = k[:, cols] @ v
    for cols, v in blocks:
        k[cols] = v.conj().T @ kv[cols]
    return k


@functools.cache
def _flip_counts(n: int) -> np.ndarray:
    """a * (n + 1) + b for each pair (p, q) of product states in eigenstate
    order (manifold by manifold, ascending index), with a the bits set in
    q only and b those set in p only: the kron factor counts of K[p, q]."""
    s = np.concatenate([idx for _, idx, *_ in _manifold_layout(n)])
    p, q = s[:, None], s[None, :]
    code = np.bitwise_count(~p & q).astype(np.intp) * (n + 1) \
        + np.bitwise_count(p & ~q)
    code.flags.writeable = False
    return code


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def crush_gradient(rho: np.ndarray) -> np.ndarray:
    """Idealized field-gradient crusher: zero every off-diagonal element."""
    idx = np.arange(rho.shape[-1])
    mat = np.zeros_like(rho)
    mat[..., idx, idx] = rho[..., idx, idx]
    return mat


def free_evolution(es: EigenSystem, rho: np.ndarray,
                   t_seconds: float | np.ndarray) -> np.ndarray:
    """rho_kl <- rho_kl * exp(-i (E_k - E_l) t); populations are invariant.

    A 1-D array of times evolves rho to one state per time, stacked along
    a new leading axis (or paired with an existing one of the same length).
    """
    t = np.asarray(t_seconds, dtype=float)
    if np.any(t < 0):
        raise DynamicsError("evolution time must be nonnegative")
    phase = np.exp(-1j * es.energies * t[..., None])
    return (phase[..., :, None] * rho) * np.conj(phase)[..., None, :]


def selective_population_update(p_i: float, p_j: float,
                                theta_deg: float) -> tuple[float, float]:
    """Closed-form population transfer of a selective pulse of angle theta.

    p_i' = p_i cos^2(t/2) + p_j sin^2(t/2) and symmetrically for p_j';
    must agree with conjugation by the pulse unitary followed by a crush.
    """
    c2 = math.cos(math.radians(theta_deg) / 2) ** 2
    s2 = 1.0 - c2
    return p_i * c2 + p_j * s2, p_j * c2 + p_i * s2


def pure_part(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Extract the pure component of a pseudopure deviation.

    Diagonalizes rho and returns (coefficient, eigenvector) of the outlier
    eigenvalue, i.e. the one farthest from the median.  For a deviation
    c*(|psi><psi| - I/2^n) this recovers (c, |psi>) up to phase and the
    identity offset.
    """
    w, v = np.linalg.eigh(rho)
    med = float(np.median(w))
    k = int(np.argmax(np.abs(w - med)))
    coeff = float(w[k] - med)
    vec = v[:, k]
    j = int(np.argmax(np.abs(vec)))
    if abs(vec[j]) > 0:
        vec = vec * np.conj(vec[j] / abs(vec[j]))
    return coeff, vec


# ---------------------------------------------------------------------------
# text serialization: header "dim <2^n>", rows "k l re im" (1-based),
# entries below 1e-14 in magnitude omitted

_SPARSE_SLICE = 4096        # rows per % call and per chunk: bounds the text
_SPARSE_SMALL = 64          # up to this many elements, one Python loop


def sparse_chunks(header: str, mat: np.ndarray) -> Iterator[str]:
    """``header``, then a ``k l re im`` row (1-based, row-major) per element
    of the 2-D ``mat`` of magnitude at least 1e-14, in chunks of one
    ``_SPARSE_SLICE`` slice of rows, so a writer holds one slice at a time.

    Only the floats go through ``%``, one call per slice of rows, as
    Python floats: ``"%.12g" % x`` is the text of ``format(x, ".12g")``.
    The index text is made once per index and joined into the pattern.
    The cut uses ``np.hypot``, which decides as the scalar ``abs(z)``
    does; complex ``np.abs`` rounds differently.

    A matrix of at most ``_SPARSE_SMALL`` elements is written in one chunk
    by ``_format_sparse_loop`` instead: on cold caches the dozen numpy
    calls below cost about 0.1 ms, twice the loop over a 4x4 state.
    """
    if mat.size <= _SPARSE_SMALL:
        try:
            text = _format_sparse_loop(header, mat)
        except OverflowError:       # |z| above the largest float
            pass
        else:
            yield text
            return
    re, im = mat.real, mat.imag
    with np.errstate(over="ignore"):    # inf, silently, as the scalar abs
        k, l = np.nonzero(np.hypot(re, im) >= 1e-14)
    index = [str(i) for i in range(1, max(mat.shape) + 1)]
    row_text = np.array(index, dtype=object)
    col_text = np.array([f" {i} %.12g %.12g\n" for i in index], dtype=object)
    yield header + "\n"
    for s in range(0, k.size, _SPARSE_SLICE):
        ks, ls = k[s:s + _SPARSE_SLICE], l[s:s + _SPARSE_SLICE]
        values = [None] * (2 * ks.size)
        values[0::2] = re[ks, ls].tolist()
        values[1::2] = im[ks, ls].tolist()
        pattern = "".join((row_text[ks] + col_text[ls]).tolist())
        yield pattern % tuple(values)


def _format_sparse_loop(header: str, mat: np.ndarray) -> str:
    """The text of ``sparse_chunks``, element by element on Python complexes.

    ``abs`` of a Python complex is the C ``hypot``, as for a numpy
    complex scalar, but raises ``OverflowError`` where numpy returns inf.
    """
    out = [header]
    for k, row in enumerate(mat.tolist(), 1):
        out += [f"{k} {l} {z.real:.12g} {z.imag:.12g}"
                for l, z in enumerate(row, 1) if abs(z) >= 1e-14]
    return "\n".join(out) + "\n"


def state_chunks(rho: np.ndarray) -> Iterator[str]:
    """The text of ``format_state`` in chunks, as ``sparse_chunks``."""
    return sparse_chunks(f"dim {rho.shape[-1]}", rho)


def format_state(rho: np.ndarray) -> str:
    return "".join(state_chunks(rho))


def parse_state(text: str, es: EigenSystem,
                source: str = "<string>") -> np.ndarray:
    """Read the text format above; errors name ``source:line``.

    The matrix must be Hermitian.  Its trace is not checked: the identity
    part is unobservable, and written states carry rounding in it.
    """
    lines = [(ln, raw.split("#", 1)[0].split())
             for ln, raw in enumerate(text.splitlines(), start=1)]
    lines = [(ln, toks) for ln, toks in lines if toks]
    if not lines or lines[0][1][0] != "dim":
        raise DynamicsError(f"{source}: state text must start with a 'dim' header")
    ln, head = lines[0]
    if len(head) != 2 or not head[1].isdecimal():
        raise DynamicsError(f"{source}:{ln}: malformed header; expected 'dim <d>'")
    dim = int(head[1])
    if dim != es.dim:
        raise DynamicsError(f"{source}:{ln}: state dimension {dim} does not "
                            f"match system {es.dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    for ln, toks in lines[1:]:
        try:
            k, l, re, im = toks
            k, l, z = int(k), int(l), float(re) + 1j * float(im)
            if not cmath.isfinite(z):
                raise ValueError
        except ValueError:
            raise DynamicsError(f"{source}:{ln}: malformed entry "
                                f"{' '.join(toks)!r}; expected 'k l re im'") from None
        if not (1 <= k <= dim and 1 <= l <= dim):
            raise DynamicsError(f"{source}:{ln}: index ({k}, {l}) outside 1..{dim}")
        mat[k - 1, l - 1] = z
    # the Frobenius test on the matrix scaled so that entries near the float
    # range cannot overflow the norms
    scale = _norm_scale(mat)
    unit = mat / scale
    if np.linalg.norm(unit - unit.conj().T) > HERMITICITY_TOL * max(
            1.0 / scale, np.linalg.norm(unit)):
        raise DynamicsError(f"{source}: density matrix is not Hermitian")
    return mat
