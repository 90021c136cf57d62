"""Detection and spectrum synthesis: stick spectra, FIDs, 2D experiments,
multiple-quantum tomography and Z-COSY connectivity.

The detected signal is Tr(rho(t) F+).  A density-matrix element rho_kl
evolves as exp(-i (E_k - E_l) t) and therefore appears at the frequency
(E_l - E_k)/2pi; single-quantum elements rho_{upper,lower} land exactly on
their catalog transition frequency.  Off-diagonal tomography follows the
multiple-quantum scheme [t1 - (pi/2)_y - G_z - (pi/4)_-y - t2]: every
element is frequency-labeled by its own coherence frequency during t1 and
read out through the single-quantum lines in t2.  Peak amplitudes are
inverted with an exact linear model of the sequence (pulse transfer
weights times FFT Dirichlet kernels), so discretization leakage cancels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import EigenSystem, TransitionCatalog, transition_catalog
from . import dynamics as dyn
from . import pulselang as pl
from .assignment import ConnectivityMatrix


class AcquisitionError(ValueError):
    pass


@dataclass
class StickSpectrum:
    """Linear-response stick spectrum: (freq_hz, signed amplitude, tid)."""

    lines: tuple[tuple[float, float, int], ...]

    def to_csv(self) -> str:
        rows = sorted(self.lines, key=lambda r: (r[0], r[2]))
        return "\n".join(f"{f:.12g},{a:.12g}" for f, a, _ in rows) + "\n"

    def amplitude_of(self, tid: int) -> float:
        for f, a, t in self.lines:
            if t == tid:
                return a
        raise KeyError(f"no line for transition t{tid}")


def detect_small_angle(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                       beta_deg: float = 10.0,
                       catalog: TransitionCatalog | None = None) -> StickSpectrum:
    """Population readout by a small-angle pulse, linear response.

    Line (r, s) has amplitude sin(beta) * (p_lower - p_upper) * intensity,
    so intensities are proportional to the population difference of the two
    involved levels only.  Warns when rho carries coherences (they are
    ignored by this readout).
    """
    if catalog is None:
        catalog = transition_catalog(es)
    off = rho.mat - np.diag(np.diag(rho.mat))
    if np.linalg.norm(off) > 1e-10 * max(1.0, np.linalg.norm(rho.mat)):
        warnings.warn("small-angle detection ignores off-diagonal elements")
    pops = np.real(np.diag(rho.mat))
    s = math.sin(math.radians(beta_deg))
    lines = tuple(
        (t.freq_hz, s * (pops[t.lower] - pops[t.upper]) * t.intensity, t.tid)
        for t in catalog.entries)
    return StickSpectrum(lines=lines)


def line_amplitudes(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                    catalog: TransitionCatalog | None = None) -> dict[int, complex]:
    """Complex amplitude of each catalog line in the detected signal.

    Amplitude of transition T is rho[upper, lower] * F+[lower, upper]; the
    full FID is the sum of these oscillating at their catalog frequencies.
    For a stack of states each amplitude is an array over the stack.
    """
    if catalog is None:
        catalog = transition_catalog(es)
    fplus = es.lowering_operator().conj().T
    return {t.tid: rho.mat[..., t.upper, t.lower] * fplus[t.lower, t.upper]
            for t in catalog.entries}


def acquire_fid(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                points: int, dwell: float) -> np.ndarray:
    """Time series s(m) = Tr(rho(m*dwell) F+) under free evolution.

    A stack of states gives one FID per state, shaped (..., points).
    """
    if points < 1 or (points & (points - 1)) != 0:
        raise AcquisitionError(f"points must be a power of two, got {points}")
    fplus = es.lowering_operator().conj().T
    w = rho.mat * fplus.T                       # w_kl = rho_kl * F+_lk
    # one exponential table for the union of the elements over the stack
    k, l = np.nonzero((np.abs(w) > 1e-16).reshape(-1, es.dim, es.dim).any(axis=0))
    if k.size == 0:
        return np.zeros(w.shape[:-2] + (points,), dtype=complex)
    freqs = (es.energies[l] - es.energies[k]) / (2 * math.pi)
    t = np.arange(points) * dwell
    table = 2j * math.pi * freqs[:, None] * t
    np.exp(table, out=table)            # in place: K x points is the peak memory
    return w[..., k, l] @ table


def fft_spectrum(fid: np.ndarray, dwell: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex spectrum of an FID with the frequency axis centered at zero."""
    n = fid.size
    if n < 1 or (n & (n - 1)) != 0:
        raise AcquisitionError(f"points must be a power of two, got {n}")
    spec = np.fft.fftshift(np.fft.fft(fid))
    freqs = np.fft.fftshift(np.fft.fftfreq(n, dwell))
    return freqs, spec


@dataclass
class Dataset2D:
    """Complex 2D time-domain dataset, data[t1_index, t2_index]."""

    t1_points: int
    t2_points: int
    dwell1: float
    dwell2: float
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.t1_points, self.t2_points):
            raise AcquisitionError("2D data shape does not match point counts")

    def fft2(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        spec = np.fft.fftshift(np.fft.fft2(self.data))
        f1 = np.fft.fftshift(np.fft.fftfreq(self.t1_points, self.dwell1))
        f2 = np.fft.fftshift(np.fft.fftfreq(self.t2_points, self.dwell2))
        return f1, f2, spec

    def to_text(self) -> str:
        """The time-domain data in the sparse ``k l re im`` state format."""
        return dyn.format_sparse(
            f"t1_points {self.t1_points}\nt2_points {self.t2_points}\n"
            f"dwell1 {self.dwell1:.12g}\ndwell2 {self.dwell2:.12g}", self.data)

    def to_gnuplot_grid(self) -> str:
        """Magnitude spectrum as a gnuplot-compatible grid (blank-line rows).

        The axis text is formatted once and joined into each f1 block's
        pattern; one ``%`` per block formats the magnitudes as Python
        floats.
        """
        f1, f2, spec = self.fft2()
        mag = np.abs(spec)
        cells = [f" {y:.12g} %.12g" for y in f2.tolist()]
        blocks = []
        for i, x in enumerate(f1.tolist()):
            x_text = f"{x:.12g}"
            pattern = x_text + ("\n" + x_text).join(cells)
            blocks.append(pattern % tuple(mag[i].tolist()))
        return "\n\n".join(blocks) + "\n"


def run_2d(program: pl.PulseProgram, es: EigenSystem,
           rho0: dyn.DeviationDensityMatrix, t1_points: int, dwell1: float,
           catalog: TransitionCatalog | None = None) -> Dataset2D:
    """Execute a program with one symbolic t1 delay and a final acquire.

    The (possibly phase-cycled) prefix runs once with t1 bound to the
    whole t1 grid, giving one state per row, and the FIDs of the trailing
    acquire instruction are synthesized for all rows together.
    """
    if catalog is None:
        catalog = transition_catalog(es)
    if not program.instructions or not isinstance(program.instructions[-1], pl.Acquire):
        raise AcquisitionError("2D program must end with an acquire instruction")
    if t1_points < 1:
        raise AcquisitionError(f"t1 points must be at least 1, got {t1_points}")
    acq = program.instructions[-1]
    prefix = pl.PulseProgram(program.instructions[:-1], program.cycle)
    rho = pl.execute_cycled(prefix, es, rho0, catalog,
                            t1=np.arange(t1_points) * dwell1)
    data = acquire_fid(es, rho, acq.points, acq.dwell_s)
    if data.ndim == 1:                  # no delay t1: every row is the same
        data = np.tile(data, (t1_points, 1))
    return Dataset2D(t1_points, acq.points, dwell1, acq.dwell_s, data)


# ---------------------------------------------------------------------------
# tomography

def tomo_diagonal(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                  beta_deg: float = 10.0,
                  catalog: TransitionCatalog | None = None
                  ) -> tuple[np.ndarray, bool]:
    """Measure the diagonal: [G_z - small pulse - detect], then invert.

    Solves the linear system mapping population differences to line
    amplitudes in the least-squares sense with a trace-free gauge row.
    Returns (populations, underdetermined); when the observable-transition
    graph does not connect all levels the minimum-norm pseudo-inverse
    solution is returned and flagged.
    """
    if catalog is None:
        catalog = transition_catalog(es)
    crushed = dyn.crush_gradient(rho)
    spec = detect_small_angle(es, crushed, beta_deg, catalog)
    s = math.sin(math.radians(beta_deg))
    rows, rhs = [], []
    for (freq, amp, tid) in spec.lines:
        t = catalog.by_id(tid)
        if t.intensity <= 1e-12:
            continue
        row = np.zeros(es.dim)
        row[t.lower] = 1.0
        row[t.upper] = -1.0
        rows.append(row)
        rhs.append(amp / (s * t.intensity))
    rows.append(np.ones(es.dim))    # trace-free gauge
    rhs.append(0.0)
    a = np.array(rows)
    b = np.array(rhs)
    underdetermined = np.linalg.matrix_rank(a, tol=1e-9) < es.dim
    if underdetermined:
        warnings.warn("diagonal tomography underdetermined; "
                      "returning pseudo-inverse solution")
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol, underdetermined


@dataclass(frozen=True)
class CoherenceEstimate:
    k: int
    l: int
    order: int          # mz[k] - mz[l]
    freq_hz: float      # omega_1 coordinate of the element
    value: complex
    magnitude: float


@dataclass
class CoherenceTable:
    rows: tuple[CoherenceEstimate, ...]


def _dirichlet(freq_hz, bin_index, points: int, dwell: float) -> np.ndarray:
    """Exact FFT response at bins to exp(2pi i f t) sampled on the grid.

    Frequencies and bin indices broadcast against each other.
    """
    phi = 2 * math.pi * freq_hz * dwell - 2 * math.pi * bin_index / points
    num = 1.0 - np.exp(1j * phi * points)
    den = 1.0 - np.exp(1j * phi)
    on_bin = _cabs(den) < 1e-12
    return np.where(on_bin, points, num / np.where(on_bin, 1.0, den))


# The tomography design matrix must come out bit for bit as the sum of
# scalar complex products it models (the CLI sorts coherences by magnitude,
# and at the 1e-16 noise floor their order follows the rounding).  numpy's
# vectorized complex multiply and absolute value may use fused or SIMD
# kernels that round differently from the scalar ones, so both are written
# out in real arithmetic.

def _cabs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _cmul(xr, xi, yr, yi, out: np.ndarray) -> None:
    """(xr + i xi)(yr + i yi) into out[0] (real) and out[1] (imaginary)."""
    np.subtract(xr * yr, xi * yi, out=out[0])
    np.add(xr * yi, xi * yr, out=out[1])


def default_tomo_dwell(es: EigenSystem) -> float:
    emax = float(np.max(np.abs(es.energies)))
    if emax == 0.0:
        return 1e-3
    return 1.0 / (4.0 * emax / (2 * math.pi))


def tomo_offdiagonal_2d(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                        t1_points: int = 256, t2_points: int = 512,
                        dwell1: float | None = None,
                        dwell2: float | None = None,
                        catalog: TransitionCatalog | None = None
                        ) -> tuple[Dataset2D, CoherenceTable]:
    """Two-dimensional multiple-quantum measurement of all off-diagonals.

    Runs [t1 - (pi/2)_y - G_z - (pi/4)_-y - t2], Fourier transforms, and
    inverts the exact linear model of the sequence at the predicted peak
    bins, estimating every element's complex value; magnitude and coherence
    order (from its omega_1 coordinate) are tabulated per element.
    """
    if catalog is None:
        catalog = transition_catalog(es)
    if dwell1 is None:
        dwell1 = default_tomo_dwell(es)
    if dwell2 is None:
        dwell2 = default_tomo_dwell(es)
    dim = es.dim
    energies = es.energies
    f1 = ((energies[None, :] - energies[:, None]) / (2 * math.pi)).ravel()
    fmax1 = float(np.abs(f1).max())
    if fmax1 > 0.5 / dwell1 + 1e-12:
        raise AcquisitionError(
            "spectral folding in omega_1: dwell1 must be at most "
            f"{0.5 / fmax1:.6g} s for this system")
    fmax2 = max(abs(t.freq_hz) for t in catalog.entries)
    if fmax2 > 0.5 / dwell2 + 1e-12:
        raise AcquisitionError(
            "spectral folding in omega_2: dwell2 must be at most "
            f"{0.5 / fmax2:.6g} s for this system")

    program = pl.parse_program(
        f"delay t1\npulse 90 y\ngrad\npulse 45 -y\nacquire {t2_points} {dwell2:.12g}\n")
    dataset = run_2d(program, es, rho0=rho, t1_points=t1_points,
                     dwell1=dwell1, catalog=catalog)
    spec = np.fft.fft2(dataset.data)

    # transfer weights: coherence element (a, c) -> diagonal after (pi/2)_y,
    # then line amplitudes after (pi/4)_-y
    u90 = dyn.hard_pulse_unitary(es, 90.0, 90.0)
    u45 = dyn.hard_pulse_unitary(es, 45.0, 270.0)
    fplus = es.lowering_operator().conj().T
    lines = catalog.entries
    hmat = np.array([[u45[t.upper, m] * np.conj(u45[t.lower, m])
                      * fplus[t.lower, t.upper] for m in range(dim)]
                     for t in lines])          # [line, m]
    gten = np.einsum("ma,mc->mac", u90, np.conj(u90))   # [m, a, c]
    kten = np.einsum("bm,mac->bac", hmat, gten)         # [b, a, c]

    # element (a, c) sits at f1[a * dim + c] = (E_c - E_a)/2pi in omega_1
    f2 = np.array([t.freq_hz for t in lines])
    bins1 = np.unique(np.round(f1 * t1_points * dwell1).astype(int) % t1_points)
    bins2 = np.unique(np.round(f2 * t2_points * dwell2).astype(int) % t2_points)
    d1 = _dirichlet(f1[:, None], bins1, t1_points, dwell1)       # [ac, j1]
    d1[_cabs(d1) <= 1e-9] = 0.0
    keep = np.any(d1 != 0.0, axis=0)
    bins1, d1 = bins1[keep], d1[:, keep]
    d2 = _dirichlet(f2[:, None, None, None], bins2[:, None, None],
                    t2_points, dwell2)                            # [line, j2, 1, 1]
    d2[_cabs(d2) <= 1e-9] = 0.0

    # unknowns: Re/Im of upper-triangle elements plus real diagonal nuisances.
    # Observation (j1, j2) sums kten[line, a, c] * d1 * d2 over lines in
    # catalog order and, within a line, element (k, l) before (l, k), each
    # term dropped below 1e-14; the sums below keep that order.  Arrays are
    # [re/im, j2, element, j1].
    upper_k, upper_l = np.triu_indices(dim, 1)
    kl = upper_k * dim + upper_l
    lk = upper_l * dim + upper_k
    aa = np.arange(dim) * (dim + 1)
    n_up = len(kl)
    n1, n2 = len(bins1), len(bins2)
    s_plus = np.zeros((2, n2, n_up, n1))        # Re(rho_kl) column
    s_minus = np.zeros((2, n2, n_up, n1))       # Im(rho_kl) column / 1j
    s_diag = np.zeros((2, n2, dim, n1))
    kd = np.empty((2, dim * dim, n1))
    term = np.empty((2, n2, dim * dim, n1))
    for t_idx in range(len(lines)):
        k = kten[t_idx].reshape(-1, 1)
        _cmul(k.real, k.imag, d1.real, d1.imag, out=kd)
        _cmul(kd[0], kd[1], d2[t_idx].real, d2[t_idx].imag, out=term)
        # |z| >= max(|Re z|, |Im z|): only terms with both parts below the
        # cut can fall below it
        small = (np.abs(term[0]) < 1e-14) & (np.abs(term[1]) < 1e-14)
        small[small] = np.hypot(term[0][small], term[1][small]) < 1e-14
        np.copyto(term, 0.0, where=small)
        s_plus += term[:, :, kl]
        s_plus += term[:, :, lk]
        s_minus += term[:, :, kl]
        s_minus -= term[:, :, lk]
        s_diag += term[:, :, aa]

    # rows (j1, j2) with j2 fastest; columns Re/Im of each element, then the
    # diagonal.  The Im column is 1j * s_minus = -Im(s_minus) + 1j Re(s_minus),
    # and 0.0 - x keeps zero sums +0.0 as the term-by-term sums had them.
    a_real = np.empty((2, n1, n2, 2 * n_up + dim))  # [Re rows; Im rows]
    a_real[..., 0:2 * n_up:2] = s_plus.transpose(0, 3, 1, 2)
    a_real[0, ..., 1:2 * n_up:2] = 0.0 - s_minus[1].transpose(2, 0, 1)
    a_real[1, ..., 1:2 * n_up:2] = s_minus[0].transpose(2, 0, 1)
    a_real[..., 2 * n_up:] = s_diag.transpose(0, 3, 1, 2)
    a_real = a_real.reshape(2 * n1 * n2, -1)
    b_vec = spec[np.ix_(bins1, bins2)].ravel()
    b_real = np.concatenate([b_vec.real, b_vec.imag])
    sol, *_ = np.linalg.lstsq(a_real, b_real, rcond=None)

    rows = []
    for e, (k, l) in enumerate(zip(upper_k.tolist(), upper_l.tolist())):
        val = complex(sol[2 * e], sol[2 * e + 1])
        rows.append(CoherenceEstimate(
            k=k, l=l, order=int(round(es.mz[k] - es.mz[l])),
            freq_hz=float(f1[kl[e]]), value=val, magnitude=abs(val)))
    return dataset, CoherenceTable(rows=tuple(rows))


def assign_order_from_f1(es: EigenSystem, f1: float) -> tuple[int, int, int]:
    """Match an omega_1 coordinate to the nearest eigenpair; returns (k,l,order)."""
    best = None
    for k in range(es.dim):
        for l in range(es.dim):
            if k == l:
                continue
            f = float(es.energies[l] - es.energies[k]) / (2 * math.pi)
            d = abs(f - f1)
            if best is None or d < best[0]:
                best = (d, k, l)
    _, k, l = best
    return k, l, int(round(es.mz[k] - es.mz[l]))


def peak_pick_2d(dataset: Dataset2D, rel_threshold: float = 0.05
                 ) -> list[tuple[float, float, float]]:
    """Local maxima of the magnitude spectrum above rel_threshold * max.

    The data is Hann-apodized along both dimensions first, which pushes
    rectangular-window sidelobes of strong ridges below the threshold.
    Positions are refined by a 3-bin centroid along each axis; returns
    (f1, f2, magnitude) tuples sorted by descending magnitude.
    """
    n1, n2 = dataset.data.shape
    win = np.outer(np.hanning(n1) if n1 > 1 else np.ones(1),
                   np.hanning(n2) if n2 > 1 else np.ones(1))
    spec = np.fft.fftshift(np.fft.fft2(dataset.data * win))
    f1ax = np.fft.fftshift(np.fft.fftfreq(n1, dataset.dwell1))
    f2ax = np.fft.fftshift(np.fft.fftfreq(n2, dataset.dwell2))
    mag = np.abs(spec)
    mmax = mag.max()
    if mmax == 0.0:
        return []
    peaks = []
    n1, n2 = mag.shape
    df1 = f1ax[1] - f1ax[0] if n1 > 1 else 0.0
    df2 = f2ax[1] - f2ax[0] if n2 > 1 else 0.0
    for i in range(n1):
        for j in range(n2):
            v = mag[i, j]
            if v < rel_threshold * mmax:
                continue
            im, ip = (i - 1) % n1, (i + 1) % n1
            jm, jp = (j - 1) % n2, (j + 1) % n2
            if (v >= mag[im, j] and v > mag[ip, j]
                    and v >= mag[i, jm] and v > mag[i, jp]):
                w = mag[im, j] + v + mag[ip, j]
                c1 = f1ax[i] + df1 * (mag[ip, j] - mag[im, j]) / w
                w = mag[i, jm] + v + mag[i, jp]
                c2 = f2ax[j] + df2 * (mag[i, jp] - mag[i, jm]) / w
                peaks.append((float(c1), float(c2), float(v)))
    peaks.sort(key=lambda p: -p[2])
    return peaks


@dataclass
class ScaleCalibration:
    """Diagonal/off-diagonal scale check from [(pi/4)_y - t] and [(pi/4)_x - t].

    The (pi/4)_y line amplitudes respond to sums of diagonal and
    double-quantum terms, the (pi/4)_x ones to their differences, so for an
    ideal EPR state the (iv)/(iii) amplitude ratio vanishes and is reported
    as an error metric.  In this workbench both tomography routes are
    calibrated absolutely, so the relative scale is unity by construction.
    """

    ratio: float
    scale: float
    amp_iii: dict[int, complex]
    amp_iv: dict[int, complex]


def tomo_scale_calibration(es: EigenSystem, rho: dyn.DeviationDensityMatrix,
                           catalog: TransitionCatalog | None = None
                           ) -> ScaleCalibration:
    # under this package's rotation convention the summing quadrature is
    # phase 0 and the differencing one phase 90
    if catalog is None:
        catalog = transition_catalog(es)
    a3 = line_amplitudes(
        es, dyn.apply_unitary(rho, dyn.hard_pulse_unitary(es, 45.0, 0.0)), catalog)
    a4 = line_amplitudes(
        es, dyn.apply_unitary(rho, dyn.hard_pulse_unitary(es, 45.0, 90.0)), catalog)
    n3 = math.sqrt(sum(abs(v) ** 2 for v in a3.values()))
    n4 = math.sqrt(sum(abs(v) ** 2 for v in a4.values()))
    ratio = n4 / n3 if n3 > 0 else math.inf
    return ScaleCalibration(ratio=ratio, scale=1.0, amp_iii=a3, amp_iv=a4)


def traceless_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized Frobenius overlap of the traceless parts of two matrices."""
    dim = a.shape[0]
    a0 = a - np.trace(a) / dim * np.eye(dim)
    b0 = b - np.trace(b) / dim * np.eye(dim)
    na, nb = np.linalg.norm(a0), np.linalg.norm(b0)
    if na == 0.0 or nb == 0.0:
        return 0.0 if (na > 0) != (nb > 0) else 1.0
    return float(np.real(np.vdot(a0, b0)) / (na * nb))


def reconstruct_density(es: EigenSystem, diag: np.ndarray,
                        coherences: CoherenceTable, scale: float = 1.0,
                        reference: dyn.DeviationDensityMatrix | None = None
                        ) -> tuple[dyn.DeviationDensityMatrix, float | None]:
    """Assemble a Hermitian matrix from tomography outputs.

    Off-diagonal estimates are multiplied by the relative scale.  A
    non-Hermitian assembly (conflicting duplicate estimates) is symmetrized
    with a warning.  The fidelity metric against the optional reference is
    the normalized overlap of the traceless parts, which ignores the
    unobservable uniform background.
    """
    mat = np.diag(np.asarray(diag, dtype=complex))
    for r in coherences.rows:
        mat[r.k, r.l] += scale * r.value
        mat[r.l, r.k] += scale * np.conj(r.value)
    herm_defect = np.linalg.norm(mat - mat.conj().T)
    if herm_defect > 1e-9 * max(1.0, np.linalg.norm(mat)):
        warnings.warn("inconsistent tomography inputs; symmetrizing")
    mat = 0.5 * (mat + mat.conj().T)
    rho = dyn.DeviationDensityMatrix(mat, es)
    fidelity = None
    if reference is not None:
        fidelity = traceless_overlap(mat, reference.mat)
    return rho, fidelity


# ---------------------------------------------------------------------------
# Z-COSY connectivity

def zcosy_connectivity(es: EigenSystem, threshold: float = 0.05,
                       catalog: TransitionCatalog | None = None
                       ) -> ConnectivityMatrix:
    """Signed transition-connectivity matrix over observable transitions.

    Entry (a, b) is +1 when the transitions share exactly one level lying
    between the other two in M_z (progressive), -1 when the shared level is
    a common top or bottom (regressive), 0 otherwise.  Observable
    transitions without any connection to the rest are dropped from the
    matrix and listed separately, the way an experimental table would omit
    them.
    """
    if catalog is None:
        catalog = transition_catalog(es, threshold)
    obs = catalog.observable_entries()
    tids = [t.tid for t in obs]
    m = np.zeros((len(obs), len(obs)), dtype=int)
    for i, a in enumerate(obs):
        for j, b in enumerate(obs):
            if i == j:
                continue
            m[i, j] = _connectivity_sign(a, b)
    connected = [i for i in range(len(obs)) if np.any(m[i] != 0)]
    dropped = tuple(tids[i] for i in range(len(obs)) if i not in connected)
    if len(obs) == 1:
        connected, dropped = [0], ()
    sub = m[np.ix_(connected, connected)]
    return ConnectivityMatrix(m=sub,
                              ids=tuple(tids[i] for i in connected),
                              unconnected=dropped)


def _connectivity_sign(a, b) -> int:
    if a.upper == b.lower or b.upper == a.lower:
        return 1
    if a.lower == b.lower or a.upper == b.upper:
        return -1
    return 0


def zcosy_time_domain(es: EigenSystem, beta_deg: float = 10.0,
                      t1_points: int = 512, dwell1: float | None = None,
                      catalog: TransitionCatalog | None = None,
                      rel_threshold: float = 0.15) -> np.ndarray:
    """Cross-peak sign matrix from a small-flip-angle three-pulse Z-COSY.

    Simulates [beta_x - t1 - beta_x - G_z - beta_x - t2] from equilibrium.
    The z-filter keeps only populations between the second and third pulse,
    so every line is amplitude (cosine) modulated in t1; the modulation
    coefficient of line b at the frequency of transition a is recovered by
    projecting onto the +/- frequency pair.  Cross peaks between
    transitions sharing a level appear at third order in beta and carry
    the progressive/regressive distinction; the sign is calibrated against
    the diagonal peaks (which behave like regressive ones) so the result
    uses the progressive = +1 convention of the analytic matrix.  Requires
    no two transitions at exactly opposite frequencies (place the carrier
    off the spectral center).
    """
    if catalog is None:
        catalog = transition_catalog(es)
    if dwell1 is None:
        dwell1 = default_tomo_dwell(es)
    ntr = len(catalog.entries)
    freqs = [t.freq_hz for t in catalog.entries]
    for i in range(ntr):
        for j in range(ntr):
            if i != j and abs(freqs[i] + freqs[j]) < 1e-9:
                raise AcquisitionError(
                    "transitions at exactly opposite frequencies are not "
                    "separable in a cosine-modulated experiment; shift the "
                    "carrier off the spectral center")
    beta = pl.HardPulse(beta_deg, pl.PhaseSpec(degrees=0.0))
    program = pl.PulseProgram((beta, pl.Delay(symbol="t1"), beta, pl.Grad(), beta))
    t1 = np.arange(t1_points) * dwell1
    rho = pl.execute(program, es, dyn.equilibrium_deviation(es), catalog, t1=t1)
    la = line_amplitudes(es, rho, catalog)
    amps = np.stack([la[t.tid] for t in catalog.entries], axis=-1)   # [t1, line]

    # project each line's t1 trace onto the +/- transition frequencies
    basis: list[float] = [0.0]
    for f in freqs:
        for s in (f, -f):
            if not any(abs(s - b) < 1e-9 for b in basis):
                basis.append(s)
    bmat = np.array([np.exp(2j * math.pi * f * t1) for f in basis]).T
    coef, *_ = np.linalg.lstsq(bmat, amps, rcond=None)

    def cosine_coef(i: int, j: int) -> complex:
        c = 0.0 + 0.0j
        for s in (freqs[i], -freqs[i]):
            for kb, fb in enumerate(basis):
                if abs(fb - s) < 1e-9:
                    c += coef[kb, j]
        return c

    diag = [cosine_coef(i, i) for i in range(ntr)]
    ref = max(diag, key=abs)
    quad = abs(ref.imag) > abs(ref.real)
    diag_sign = 1 if (ref.imag if quad else ref.real) > 0 else -1

    # normalize cross peaks by the geometric mean of the two diagonal
    # peaks: connected pairs then sit near 1/2 regardless of intensity,
    # unconnected ones at order beta^2
    signs = np.zeros((ntr, ntr), dtype=int)
    for i in range(ntr):
        for j in range(ntr):
            if i == j:
                continue
            c = cosine_coef(i, j)
            norm = math.sqrt(abs(diag[i]) * abs(diag[j]))
            if norm == 0.0 or abs(c) <= rel_threshold * norm:
                continue
            comp = c.imag if quad else c.real
            raw = 1 if comp > 0 else -1
            # regressive cross peaks share the diagonal's sign
            signs[i, j] = -1 if raw == diag_sign else 1
    return signs
