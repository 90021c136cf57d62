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
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import EigenSystem, TransitionCatalog, _norm_scale, transition_catalog
from . import dynamics as dyn
from . import pulselang as pl
from .assignment import ConnectivityMatrix, connectivity


class AcquisitionError(ValueError):
    pass


# acquire_fid builds the FID from per-level phases when it has at least
# this many lines K per stacked state and per level d, and from a K x
# points exponential table below that.  The measured crossover is near
# one line per state and level (5 spins, 256 states, 1024 points: 23 ms on
# the table, 160 ms factored; 8 spins, one state: 480 ms, 26 ms).  The
# margin above it keeps every call on 4 or fewer spins (K <= C(2n, n-1)
# < 4d) on the table, only because bench/reference.json pins the order of
# `spinsim tomo` coherence rows, which follows rounding at the 1e-16 noise
# floor; after ROADMAP item 1 step 1 the constant can drop to the crossover.
_FACTORED_LINES = 4

# the table path builds and applies its K x points exponentials in slices
# of a power-of-two count of points, at least _TABLE_SLICE, and the largest
# with at most _TABLE_ENTRIES exponentials: one slice for every system of 4
# or fewer spins at up to 1024 points, 64-point slices (12 MB) in place of
# a 187 MB table for all 11440 lines of 8 spins.  Power-of-two slices give
# the bits of the whole table; OpenBLAS rounds a remainder of columns
# differently.
_TABLE_SLICE = 64
_TABLE_ENTRIES = 1 << 16

# the t2 pass of the tomography inversion transforms blocks of whole rows
# of at most this many points (16 rows at 1024 points, 256 kB).  In a
# process that tomographs state after state, 64-row blocks left the heap
# about 0.9 MB larger than blocks of 4 to 32 rows.
_TOMO_FFT_BLOCK = 1 << 14

# _design_sums adds the lines' terms in blocks of whole t2 bins of at most
# this many (element, t1 bin) terms, so a block's terms (512 kB) and sums
# stay in cache while every line is added to them: one bin a block for
# demo4 at 256 x 1024 (256 elements x 149 t1 bins), where the design sums
# took 0.45 s against 0.92 s for all bins at once (one core of a 2-vCPU
# VM).  Larger blocks there, or blocks along t1, were slower.
_DESIGN_BLOCK = 1 << 15


@dataclass
class StickSpectrum:
    """Linear-response stick spectrum: the frequency and signed amplitude of
    every catalog line, in transition-id order."""

    freq_hz: np.ndarray
    amplitude: np.ndarray

    def to_csv(self) -> str:
        """``freq,amplitude`` rows by ascending frequency, then id; one
        ``%`` formats them all."""
        order = np.argsort(self.freq_hz, kind="stable")
        args = [None] * (2 * order.size)
        args[0::2] = self.freq_hz[order].tolist()
        args[1::2] = self.amplitude[order].tolist()
        return "\n".join(["%.12g,%.12g"] * order.size) % tuple(args) + "\n"


def detect_small_angle(es: EigenSystem, rho: np.ndarray,
                       beta_deg: float = 10.0) -> StickSpectrum:
    """Population readout by a small-angle pulse, linear response.

    Line (r, s) has amplitude sin(beta) * (p_lower - p_upper) * intensity,
    so intensities are proportional to the population difference of the two
    involved levels only.  Warns when rho carries coherences (they are
    ignored by this readout).  A beta that is not finite or is a multiple
    of 180 degrees reads no signal and raises.
    """
    if not math.isfinite(beta_deg) or beta_deg % 180 == 0:
        raise AcquisitionError("the detection pulse must be finite and not a "
                               f"multiple of 180 degrees, got {beta_deg:g}")
    catalog = transition_catalog(es)
    scale = _norm_scale(rho)    # the test on rho / scale cannot overflow
    unit = rho / scale
    off = unit - np.diag(np.diag(unit))
    if np.linalg.norm(off) > 1e-10 * max(1.0 / scale, np.linalg.norm(unit)):
        warnings.warn("small-angle detection ignores off-diagonal elements")
    pops = np.real(np.diag(rho))
    s = math.sin(math.radians(beta_deg))
    amp = s * (pops[catalog.lower] - pops[catalog.upper]) * catalog.intensity
    return StickSpectrum(freq_hz=catalog.freq_hz, amplitude=amp)


def line_amplitudes(es: EigenSystem, rho: np.ndarray) -> np.ndarray:
    """Complex amplitude of each catalog line in the detected signal, in
    transition-id order: shape (lines,), or (..., lines) for a stack.

    Amplitude of transition T is rho[upper, lower] * F+[lower, upper]; the
    full FID is the sum of these oscillating at their catalog frequencies.
    """
    catalog = transition_catalog(es)
    fplus = es.lowering_operator().conj().T
    return (rho[..., catalog.upper, catalog.lower]
            * fplus[catalog.lower, catalog.upper])


def _check_points(points: int) -> None:
    if points < 1 or (points & (points - 1)) != 0:
        raise AcquisitionError(f"points must be a power of two, got {points}")


def _check_t1_points(t1_points: int) -> None:
    if t1_points < 1:
        raise AcquisitionError(f"t1 points must be at least 1, got {t1_points}")


def acquire_fid(es: EigenSystem, rho: np.ndarray,
                points: int, dwell: float) -> np.ndarray:
    """Time series s(m) = Tr(rho(m*dwell) F+) under free evolution.

    A stack of states gives one FID per state, shaped (..., points).
    Below ``_FACTORED_LINES`` lines per state and level the FID is a sum
    over a table of one exponential per line and point, built a slice of
    points at a time; above, a sum over per-level phases.
    """
    _check_points(points)
    fplus = es.lowering_operator().conj().T
    w = rho * fplus.T                           # w_kl = rho_kl * F+_lk
    # the lines: the union of the elements over the stack
    on = (np.abs(w) > 1e-16).reshape(-1, es.dim, es.dim).any(axis=0)
    k, l = np.nonzero(on)
    if k.size == 0:
        return np.zeros(w.shape[:-2] + (points,), dtype=complex)
    t = np.arange(points) * dwell
    if k.size >= _FACTORED_LINES * math.prod(w.shape[:-2]) * es.dim:
        # exp(i (E_l - E_k) t) = p_l(t) conj(p_k(t)) with p = exp(i E t),
        # the phases of free_evolution, and w is nonzero only where F- is:
        # rows k of one manifold, columns l of the one before it
        p = _level_phases(es.energies, t)
        fid = np.zeros(w.shape[:-2] + (points,), dtype=complex)
        cols = [c for c, _ in es.manifold_vectors()]
        for c, r in zip(cols, cols[1:]):
            wp = np.where(on[r, c], w[..., r, c], 0) @ p[c]
            fid += (p[r].conj() * wp).sum(axis=-2)
        return fid
    freqs = (es.energies[l] - es.energies[k]) / (2 * math.pi)
    amps = w[..., k, l]
    step = _TABLE_SLICE
    while step < points and 2 * step * k.size <= _TABLE_ENTRIES:
        step *= 2
    parts = []
    for start in range(0, points, step):
        table = 2j * math.pi * freqs[:, None] * t[start:start + step]
        np.exp(table, out=table)        # in place: K x step is the peak memory
        parts.append(amps @ table)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _level_phases(energies: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(i E t) for the sample times t = m * dwell of a power-of-two
    count: with m = q * a + b, a about sqrt(points), the product of
    exp(i E t[q * a]) and exp(i E t[b]), two tables of about sqrt(points)
    exponentials per level in place of points."""
    a = 1 << (t.size.bit_length() // 2)
    outer = np.exp(1j * energies[:, None] * t[::a])
    inner = np.exp(1j * energies[:, None] * t[:a])
    return (outer[:, :, None] * inner[:, None, :]).reshape(energies.size, t.size)


def fft_spectrum(fid: np.ndarray, dwell: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex spectrum of an FID with the frequency axis centered at zero."""
    n = fid.size
    _check_points(n)
    spec = np.fft.fftshift(np.fft.fft(fid))
    freqs = np.fft.fftshift(np.fft.fftfreq(n, dwell))
    return freqs, spec


@dataclass
class Dataset2D:
    """Complex 2D time-domain dataset, data[t1_index, t2_index]."""

    dwell1: float
    dwell2: float
    data: np.ndarray

    @property
    def t1_points(self) -> int:
        return self.data.shape[0]

    @property
    def t2_points(self) -> int:
        return self.data.shape[1]

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        f1 = np.fft.fftshift(np.fft.fftfreq(self.t1_points, self.dwell1))
        f2 = np.fft.fftshift(np.fft.fftfreq(self.t2_points, self.dwell2))
        return f1, f2

    def text_chunks(self) -> Iterator[str]:
        """The text of ``to_text`` in chunks, as ``dynamics.sparse_chunks``."""
        return dyn.sparse_chunks(
            f"t1_points {self.t1_points}\nt2_points {self.t2_points}\n"
            f"dwell1 {self.dwell1:.12g}\ndwell2 {self.dwell2:.12g}", self.data)

    def to_text(self) -> str:
        """The time-domain data in the sparse ``k l re im`` state format."""
        return "".join(self.text_chunks())

    def grid_chunks(self) -> Iterator[str]:
        """The text of ``to_gnuplot_grid`` in chunks, one per f1 block.

        The axis text is formatted once and joined into each block's
        pattern; one ``%`` per block formats the magnitudes as Python
        floats.  The magnitudes are shifted rather than the complex
        spectrum: the same values from half the bytes.
        """
        f1, f2 = self._axes()
        mag = np.fft.fftshift(np.abs(np.fft.fft2(self.data)))
        cells = [f" {y:.12g} %.12g" for y in f2.tolist()]
        gap = ""                        # the blank line between blocks
        for i, x in enumerate(f1.tolist()):
            x_text = f"{x:.12g}"
            pattern = gap + x_text + ("\n" + x_text).join(cells)
            yield pattern % tuple(mag[i].tolist())
            gap = "\n\n"
        yield "\n"

    def to_gnuplot_grid(self) -> str:
        """Magnitude spectrum as a gnuplot-compatible grid (blank-line rows)."""
        return "".join(self.grid_chunks())


def t1_stack(program: pl.PulseProgram, es: EigenSystem,
             rho0: np.ndarray, t1_points: int, dwell1: float
             ) -> tuple[pl.Acquire, np.ndarray]:
    """Check a 2D program, its grid and its one initial state, and run the
    (possibly phase-cycled) prefix once with t1 bound to the whole t1 grid,
    giving one state per row.  Returns the trailing acquire instruction and
    the states."""
    if not program.instructions or not isinstance(program.instructions[-1], pl.Acquire):
        raise AcquisitionError("2D program must end with an acquire instruction")
    _check_t1_points(t1_points)
    if np.shape(rho0) != (es.dim, es.dim):
        raise AcquisitionError(f"a 2D run starts from one {es.dim} x {es.dim} "
                               f"state, got shape {np.shape(rho0)}")
    acq = program.instructions[-1]
    _check_points(acq.points)
    prefix = replace(program, instructions=program.instructions[:-1])
    return acq, pl.execute(prefix, es, rho0, t1=np.arange(t1_points) * dwell1)


def run_2d(program: pl.PulseProgram, es: EigenSystem,
           rho0: np.ndarray, t1_points: int, dwell1: float) -> Dataset2D:
    """Execute a program with one symbolic t1 delay and a final acquire.

    The prefix runs once on the whole t1 grid, and the FIDs of the
    trailing acquire instruction are synthesized for all rows together.
    """
    acq, rho = t1_stack(program, es, rho0, t1_points, dwell1)
    data = acquire_fid(es, rho, acq.points, acq.dwell_s)
    if data.ndim == 1:                  # no delay t1: every row is the same
        data = np.tile(data, (t1_points, 1))
    return Dataset2D(dwell1, acq.dwell_s, data)


def _hann_dft(n: int, bins) -> np.ndarray:
    """Rows of the n-point DFT at ``bins`` with the Hann window folded in.
    The phase index bin * j is reduced mod n and picks one of the n roots
    exp(-2 pi i k / n), so every phase is below 2 pi."""
    roots = np.exp(-2j * np.pi / n * np.arange(n))
    return np.hanning(n) * roots[np.outer(bins, np.arange(n)) % n]


def hann_peaks_2d(es: EigenSystem, rho: np.ndarray,
                  acquire: pl.Acquire, rows, cols) -> np.ndarray:
    """|fft2(data * outer(hann, hann))| at the bins rows x cols, where data
    holds the FIDs ``acquire`` records from each state of the t1 stack
    ``rho`` (shaped (..., t1, d, d), as ``t1_stack`` gives it), without
    synthesizing them.  Bins may be any integers: bin b reads as b mod the
    point count.  Leading axes of the stack give leading axes of the
    result.

    The data is the stack's line amplitudes times one exponential per line
    and t2 point (sampled at the acquire instruction's dwell), so the
    windowed DFT regroups as |(h1 E1[rows] @ amps) @ (h2 E2[cols] @
    exp)^T|: a t1 x lines matmul and a lines x t2 table in place of the
    t1 x t2 dataset.
    """
    amps = line_amplitudes(es, rho)
    t2 = np.arange(acquire.points) * acquire.dwell_s
    freqs = transition_catalog(es).freq_hz
    lines_t2 = np.exp(2j * math.pi * freqs[:, None] * t2)
    return np.abs((_hann_dft(amps.shape[-2], rows) @ amps)
                  @ (_hann_dft(acquire.points, cols) @ lines_t2.T).T)


# ---------------------------------------------------------------------------
# tomography

def tomo_diagonal(es: EigenSystem, rho: np.ndarray,
                  beta_deg: float = 10.0) -> tuple[np.ndarray, bool]:
    """Measure the diagonal: [G_z - small pulse - detect], then invert.

    Solves the linear system mapping population differences to line
    amplitudes in the least-squares sense with a trace-free gauge row.
    Returns (populations, underdetermined); when the observable-transition
    graph does not connect all levels the minimum-norm pseudo-inverse
    solution is returned and flagged.
    """
    catalog = transition_catalog(es)
    crushed = dyn.crush_gradient(rho)
    spec = detect_small_angle(es, crushed, beta_deg)
    s = math.sin(math.radians(beta_deg))
    seen = np.flatnonzero(catalog.intensity > 1e-12)
    a = np.zeros((seen.size + 1, es.dim))
    a[np.arange(seen.size), catalog.lower[seen]] = 1.0
    a[np.arange(seen.size), catalog.upper[seen]] = -1.0
    a[-1] = 1.0                     # trace-free gauge
    b = np.append(spec.amplitude[seen] / (s * catalog.intensity[seen]), 0.0)
    sol, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
    # the rank as matrix_rank(a, tol=1e-9) counts it
    underdetermined = np.count_nonzero(sv > 1e-9) < es.dim
    if underdetermined:
        warnings.warn("diagonal tomography underdetermined; "
                      "returning pseudo-inverse solution")
    return sol, underdetermined


@dataclass(frozen=True)
class CoherenceEstimate:
    k: int
    l: int
    order: int          # mz[k] - mz[l]
    freq_hz: float      # omega_1 coordinate of the element
    value: complex
    magnitude: float


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
# scalar complex products it models.  The kept pseudo-inverse is computed
# from it, so its bits and those of every solved coherence follow the
# design matrix's; the CLI sorts coherences by magnitude, so at the 1e-16
# noise floor their order follows the rounding, and bench/reference.json
# pins that order for the citrate EPR and demo3 GHZ rows.  numpy's
# vectorized complex multiply and absolute value may use fused or SIMD
# kernels that round differently from the scalar ones, so both are written
# out in real arithmetic.
#
# _design_sums permutes the element axis once into [(k, l) for k < l, then
# (l, k), then (a, a)], so each sum adds a slice of a line's terms instead
# of a gather.  Each sum belongs to one t2 bin, so adding every line to one
# block of bins at a time, in catalog order, gives the bits of adding each
# line to all bins at once.  The inversion reads the spectrum only at the
# peak bins, so of fft2's two passes (t2, then t1) the t2 pass runs on
# blocks of rows and keeps only the peak columns, and the t1 pass runs only
# on those columns.  Each row and column is transformed on its own, so this
# gives fft2's bits without the t1 x t2 spectrum.

def _cabs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _cmul(xr, xi, yr, yi, out: np.ndarray, tmp: np.ndarray) -> None:
    """(xr + i xi)(yr + i yi) into out[0] (real) and out[1] (imaginary).

    tmp holds the second product of each part; no buffer may alias an input.
    """
    np.multiply(xr, yr, out=out[0])
    np.multiply(xi, yi, out=tmp)
    np.subtract(out[0], tmp, out=out[0])
    np.multiply(xr, yi, out=out[1])
    np.multiply(xi, yr, out=tmp)
    np.add(out[1], tmp, out=out[1])


def _design_sums(kten: np.ndarray, d1: np.ndarray, d2: np.ndarray, dim: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums of kten[line, a, c] * d1[ac, j1] * d2[line, j2] per peak bin.

    Lines are added in catalog order and, within a line, element (k, l)
    before (l, k).  Returns s_plus (kl + lk terms), s_minus (kl - lk
    terms), each [re/im, j2, k<l, j1], and s_diag [re/im, j2, a, j1].
    """
    upper_k, upper_l = np.triu_indices(dim, 1)
    n_up = len(upper_k)
    order = np.concatenate([upper_k * dim + upper_l, upper_l * dim + upper_k,
                            np.arange(dim) * (dim + 1)])
    kten = kten.reshape(len(kten), dim * dim)[:, order, None]
    d1 = d1[order]
    n_lines, n1, n2 = len(kten), d1.shape[1], d2.shape[1]
    kd = np.empty((2, n_lines, dim * dim, n1))
    _cmul(kten.real, kten.imag, d1.real, d1.imag, kd, np.empty(kd.shape[1:]))
    s_plus = np.zeros((2, n2, n_up, n1))        # Re(rho_kl) column
    s_minus = np.zeros((2, n2, n_up, n1))       # Im(rho_kl) column / 1j
    s_diag = np.zeros((2, n2, dim, n1))
    step = max(1, _DESIGN_BLOCK // (dim * dim * n1))
    term_buf = np.empty((2, step, dim * dim, n1))
    tmp_buf = np.empty((step, dim * dim, n1))
    for start in range(0, n2, step):
        bins = slice(start, min(start + step, n2))
        term = term_buf[:, :bins.stop - start]
        tmp = tmp_buf[:bins.stop - start]
        plus, minus, diag = s_plus[:, bins], s_minus[:, bins], s_diag[:, bins]
        for t_idx in range(n_lines):
            y = d2[t_idx, bins, None, None]
            _cmul(kd[0, t_idx], kd[1, t_idx], y.real, y.imag, term, tmp)
            kl, lk = term[:, :, :n_up], term[:, :, n_up:2 * n_up]
            plus += kl
            plus += lk
            minus += kl
            minus -= lk
            diag += term[:, :, 2 * n_up:]
    return s_plus, s_minus, s_diag


def default_tomo_dwell(es: EigenSystem) -> float:
    emax = float(np.max(np.abs(es.energies)))
    if emax == 0.0:
        return 1e-3
    return 1.0 / (4.0 * emax / (2 * math.pi))


@dataclass(frozen=True)
class _TomoModel:
    """The state-independent half of ``tomo_offdiagonal_2d`` for one
    eigensystem and (t1, t2) grid: the readout program, the peak bins
    read along each axis, the pseudo-inverse of the real design matrix
    (``_tomo_design``), which maps the peak data to the unknowns, and, per
    upper-triangle element, its (k, l, coherence order, omega_1 frequency).
    Read-only; the design matrix itself is not kept."""

    grid: tuple[int, int]
    program: pl.PulseProgram
    bins1: np.ndarray
    bins2: np.ndarray
    pinv: np.ndarray
    rows: tuple[tuple[int, int, int, float], ...]


# the last model built per eigensystem, dropped with its eigensystem, so
# core.eigensystem's map of 8 bounds how many stay alive through it
_TOMO_MODELS: weakref.WeakKeyDictionary[EigenSystem, _TomoModel] = \
    weakref.WeakKeyDictionary()


def _tomo_design(es: EigenSystem, t1_points: int, t2_points: int
                 ) -> tuple[pl.PulseProgram, np.ndarray, np.ndarray, np.ndarray,
                            tuple[tuple[int, int, int, float], ...]]:
    """The linear model of the MQ readout of ``es`` on the grid: the
    readout program, the peak bins read along each axis, the real design
    matrix (rows (j1, j2) at those bins, Re rows over Im rows; columns Re
    and Im of each upper-triangle element, then the diagonal) and the row
    of each upper-triangle element, as ``_TomoModel`` keeps them."""
    catalog = transition_catalog(es)
    dwell = default_tomo_dwell(es)
    dim = es.dim
    energies = es.energies
    f1 = ((energies[None, :] - energies[:, None]) / (2 * math.pi)).ravel()
    f2 = catalog.freq_hz

    program = pl.parse_program(
        f"delay t1\npulse 90 y\ngrad\npulse 45 -y\nacquire {t2_points} {dwell:.12g}\n")

    # transfer weights: coherence element (a, c) -> diagonal after (pi/2)_y,
    # then line amplitudes after (pi/4)_-y
    u90, u45 = (dyn.hard_pulse_unitary(es, ins.angle_deg, ins.phase.degrees)
                for ins in program.instructions
                if isinstance(ins, pl.HardPulse))
    fplus = es.lowering_operator().conj().T
    # scalar products, in this order: see _cmul
    hmat = np.array([[u45[up, m] * np.conj(u45[lo, m]) * fplus[lo, up]
                      for m in range(dim)]
                     for lo, up in zip(catalog.lower.tolist(),
                                       catalog.upper.tolist())])   # [line, m]
    gten = np.einsum("ma,mc->mac", u90, np.conj(u90))   # [m, a, c]
    kten = np.einsum("bm,mac->bac", hmat, gten)         # [b, a, c]

    # element (a, c) sits at f1[a * dim + c] = (E_c - E_a)/2pi in omega_1;
    # the model uses the dwell as computed, not the acquire line's 12 digits
    bins1 = np.unique(np.round(f1 * t1_points * dwell).astype(int) % t1_points)
    bins2 = np.unique(np.round(f2 * t2_points * dwell).astype(int) % t2_points)
    d1 = _dirichlet(f1[:, None], bins1, t1_points, dwell)       # [ac, j1]
    d1[_cabs(d1) <= 1e-9] = 0.0
    keep = np.any(d1 != 0.0, axis=0)
    bins1, d1 = bins1[keep], d1[:, keep]
    d2 = _dirichlet(f2[:, None], bins2, t2_points, dwell)       # [line, j2]
    d2[_cabs(d2) <= 1e-9] = 0.0

    # unknowns: Re/Im of upper-triangle elements plus real diagonal nuisances;
    # observation (j1, j2) sums kten[line, a, c] * d1 * d2
    s_plus, s_minus, s_diag = _design_sums(kten, d1, d2, dim)
    upper_k, upper_l = np.triu_indices(dim, 1)
    n_up = len(upper_k)
    n1, n2 = len(bins1), len(bins2)

    # rows (j1, j2) with j2 fastest; columns Re/Im of each element, then the
    # diagonal.  The Im column is 1j * s_minus = -Im(s_minus) + 1j Re(s_minus),
    # and 0.0 - x keeps zero sums +0.0 as the term-by-term sums had them.
    a_real = np.empty((2, n1, n2, 2 * n_up + dim))  # [Re rows; Im rows]
    a_real[..., 0:2 * n_up:2] = s_plus.transpose(0, 3, 1, 2)
    a_real[0, ..., 1:2 * n_up:2] = 0.0 - s_minus[1].transpose(2, 0, 1)
    a_real[1, ..., 1:2 * n_up:2] = s_minus[0].transpose(2, 0, 1)
    a_real[..., 2 * n_up:] = s_diag.transpose(0, 3, 1, 2)
    rows = tuple((k, l, int(round(es.mz[k] - es.mz[l])), float(f1[k * dim + l]))
                 for k, l in zip(upper_k.tolist(), upper_l.tolist()))
    return program, bins1, bins2, a_real.reshape(2 * n1 * n2, -1), rows


def _tomo_model(es: EigenSystem, t1_points: int, t2_points: int) -> _TomoModel:
    """The measurement model of ``es`` on the grid, built on the first call
    for that pair; a call on another grid replaces it."""
    model = _TOMO_MODELS.get(es)
    if model is not None and model.grid == (t1_points, t2_points):
        return model
    program, bins1, bins2, a_real, rows = _tomo_design(es, t1_points, t2_points)
    # V S+ U^T with the cut of lstsq(rcond=None): singular values at or
    # below max(m, n) eps s_1 count as zero, so the rank is lstsq's.  The
    # design matrix is dropped before the product is formed.
    u, s, vt = np.linalg.svd(a_real, full_matrices=False)
    cut = max(a_real.shape) * np.finfo(float).eps * np.max(s, initial=0.0)
    del a_real
    u *= np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    pinv = vt.T @ u.T
    for arr in (bins1, bins2, pinv):
        arr.flags.writeable = False
    model = _TomoModel((t1_points, t2_points), program, bins1, bins2, pinv, rows)
    _TOMO_MODELS[es] = model
    return model


def _peak_data(dataset: Dataset2D, model: _TomoModel) -> np.ndarray:
    """The fft2 spectrum of ``dataset`` at the model's peak bins, Re over
    Im as the design matrix's rows (see the note above _cabs): the t2 pass
    in blocks of rows, keeping the bins2 columns, then the t1 pass on those
    columns."""
    t1_points, t2_points = dataset.data.shape
    step = max(1, _TOMO_FFT_BLOCK // t2_points)
    peak_cols = np.empty((t1_points, model.bins2.size), dtype=complex)
    for start in range(0, t1_points, step):
        block = np.fft.fft(dataset.data[start:start + step], axis=1)
        peak_cols[start:start + step] = block[:, model.bins2]
    b_vec = np.fft.fft(peak_cols, axis=0)[model.bins1].ravel()
    return np.concatenate([b_vec.real, b_vec.imag])


def tomo_offdiagonal_2d(es: EigenSystem, rho: np.ndarray,
                        t1_points: int = 256, t2_points: int = 512
                        ) -> tuple[Dataset2D, tuple[CoherenceEstimate, ...]]:
    """Two-dimensional multiple-quantum measurement of all off-diagonals.

    Runs [t1 - (pi/2)_y - G_z - (pi/4)_-y - t2] on the ``default_tomo_dwell``
    grid in both dimensions, Fourier transforms, and inverts the exact
    linear model of the sequence at the predicted peak bins, estimating
    every element's complex value.  Returns the dataset and one row per
    upper-triangle element (k < l) with its magnitude and coherence order
    (from its omega_1 coordinate).

    The model depends on the eigensystem and the grid only, never on the
    state, so it is built and factored once per such pair (``_tomo_model``
    keeps the pseudo-inverse of its design matrix), and every later state
    on it only runs the sequence, transforms at the peak bins and takes one
    matrix-vector product: the minimum-norm least-squares solution that
    ``lstsq`` would give.
    """
    _check_t1_points(t1_points)
    _check_points(t2_points)
    model = _tomo_model(es, t1_points, t2_points)
    # a state near the float range runs as rho / scale, whose peak sums
    # stay finite, and its data and solution are scaled back
    scale = _norm_scale(rho)
    dataset = run_2d(model.program, es, rho0=rho / scale, t1_points=t1_points,
                     dwell1=default_tomo_dwell(es))
    sol = model.pinv @ _peak_data(dataset, model) * scale
    if scale != 1.0:
        dataset = replace(dataset, data=dataset.data * scale)

    coherences = []
    for e, (k, l, order, freq_hz) in enumerate(model.rows):
        val = complex(sol[2 * e], sol[2 * e + 1])
        coherences.append(CoherenceEstimate(k=k, l=l, order=order,
                                            freq_hz=freq_hz, value=val,
                                            magnitude=abs(val)))
    return dataset, tuple(coherences)


def peak_pick_2d(dataset: Dataset2D) -> list[tuple[float, float, float]]:
    """Local maxima of the magnitude spectrum at or above 5 % of its maximum.

    The data is Hann-apodized along both dimensions first, which pushes
    rectangular-window sidelobes of strong ridges below the threshold.  A
    maximum is at least its lower-index neighbours and above its
    higher-index ones along each axis of more than one point, with
    wraparound.  Positions are refined by a 3-bin centroid along each
    axis; returns (f1, f2, magnitude) tuples sorted by descending
    magnitude, ties in row-major order.
    """
    n1, n2 = dataset.data.shape
    win = np.outer(np.hanning(n1), np.hanning(n2))
    spec = np.fft.fftshift(np.fft.fft2(dataset.data * win))
    f1ax, f2ax = dataset._axes()
    mag = np.abs(spec)
    mmax = mag.max()
    if mmax == 0.0:
        return []
    df1 = f1ax[1] - f1ax[0] if n1 > 1 else 0.0
    df2 = f2ax[1] - f2ax[0] if n2 > 1 else 0.0
    # the four neighbours of every cell, with wraparound; a cell has none
    # along a length-1 axis, where it would be its own
    up, down = np.roll(mag, 1, axis=0), np.roll(mag, -1, axis=0)
    left, right = np.roll(mag, 1, axis=1), np.roll(mag, -1, axis=1)
    peak = mag >= 0.05 * mmax
    if n1 > 1:
        peak &= (mag >= up) & (mag > down)
    if n2 > 1:
        peak &= (mag >= left) & (mag > right)
    i, j = np.nonzero(peak)
    v, a1, b1, a2, b2 = (m[i, j] for m in (mag, up, down, left, right))
    c1 = f1ax[i] + df1 * (b1 - a1) / (a1 + v + b1)
    c2 = f2ax[j] + df2 * (b2 - a2) / (a2 + v + b2)
    order = np.argsort(-v, kind="stable")
    return list(zip(c1[order].tolist(), c2[order].tolist(), v[order].tolist()))


def tomo_scale_calibration(es: EigenSystem, rho: np.ndarray) -> float:
    """Diagonal/off-diagonal scale check from [(pi/4)_y - t] and [(pi/4)_x - t].

    The (pi/4)_y line amplitudes (iii) respond to sums of diagonal and
    double-quantum terms, the (pi/4)_x ones (iv) to their differences, so
    for an ideal EPR state the ratio of the norms of (iv) and (iii)
    vanishes; it is returned as an error metric (inf when (iii) is zero).
    In this workbench both tomography routes are calibrated absolutely, so
    no relative scale is applied.
    """
    # under this package's rotation convention the summing quadrature is
    # phase 0 and the differencing one phase 90
    rho = rho / _norm_scale(rho)    # the ratio stays; the squares stay finite
    a3, a4 = (line_amplitudes(es, pl.execute(pl.parse_program(text), es, rho))
              for text in ("pulse 45 x\n", "pulse 45 y\n"))
    n3 = math.sqrt(sum(abs(v) ** 2 for v in a3))
    n4 = math.sqrt(sum(abs(v) ** 2 for v in a4))
    return n4 / n3 if n3 > 0 else math.inf


def traceless_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized Frobenius overlap of the traceless parts of two matrices."""
    dim = a.shape[0]
    a, b = a / _norm_scale(a), b / _norm_scale(b)   # same overlap, finite norms
    a0 = a - np.trace(a) / dim * np.eye(dim)
    b0 = b - np.trace(b) / dim * np.eye(dim)
    na, nb = np.linalg.norm(a0), np.linalg.norm(b0)
    if na == 0.0 or nb == 0.0:
        return 0.0 if (na > 0) != (nb > 0) else 1.0
    return float(np.real(np.vdot(a0, b0)) / (na * nb))


def reconstruct_density(diag: np.ndarray,
                        coherences: tuple[CoherenceEstimate, ...],
                        reference: np.ndarray | None = None
                        ) -> tuple[np.ndarray, float | None]:
    """Assemble a Hermitian matrix from tomography outputs.

    A non-Hermitian assembly (conflicting duplicate estimates) is symmetrized
    with a warning.  The fidelity metric against the optional reference is
    the normalized overlap of the traceless parts, which ignores the
    unobservable uniform background.
    """
    mat = np.diag(np.asarray(diag, dtype=complex))
    for r in coherences:
        mat[r.k, r.l] += r.value
        mat[r.l, r.k] += np.conj(r.value)
    scale = _norm_scale(mat)    # the test and sum on mat / scale cannot overflow
    unit = mat / scale
    if np.linalg.norm(unit - unit.conj().T) > 1e-9 * max(
            1.0 / scale, np.linalg.norm(unit)):
        warnings.warn("inconsistent tomography inputs; symmetrizing")
    mat = 0.5 * (unit + unit.conj().T) * scale
    fidelity = None
    if reference is not None:
        fidelity = traceless_overlap(mat, reference)
    return mat, fidelity


# ---------------------------------------------------------------------------
# Z-COSY connectivity

def _own_catalog(es: EigenSystem,
                 catalog: TransitionCatalog | None) -> TransitionCatalog:
    """The catalog of ``es``; a given ``catalog`` must have the same lines."""
    own = transition_catalog(es)
    if catalog is not None and catalog is not own and not all(
            np.array_equal(getattr(catalog, c), getattr(own, c))
            for c in ("lower", "upper", "freq_hz", "intensity")):
        raise AcquisitionError("catalog is not the transition catalog of "
                               "this eigensystem")
    return own


def zcosy_connectivity(es: EigenSystem, threshold: float = 0.05,
                       catalog: TransitionCatalog | None = None
                       ) -> ConnectivityMatrix:
    """Signed transition-connectivity matrix over observable transitions.

    Entry (a, b) is +1 when the transitions share exactly one level lying
    between the other two in M_z (progressive), -1 when the shared level is
    a common top or bottom (regressive), 0 otherwise.  Observable
    transitions without any connection to the rest are dropped from the
    matrix and listed separately, the way an experimental table would omit
    them.  A ``catalog`` passed in must have the lines of ``es``'s own.
    """
    catalog = _own_catalog(es, catalog)
    obs = np.flatnonzero(catalog.observable_at(threshold))
    tids = (obs + 1).tolist()
    m = connectivity(catalog.lower[obs], catalog.upper[obs])
    connected = np.flatnonzero(m.any(axis=1)).tolist()
    dropped = tuple(tids[i] for i in range(len(obs)) if i not in connected)
    if len(obs) == 1:
        connected, dropped = [0], ()
    sub = m[np.ix_(connected, connected)]
    return ConnectivityMatrix(m=sub,
                              ids=tuple(tids[i] for i in connected),
                              unconnected=dropped)


def zcosy_time_domain(es: EigenSystem, beta_deg: float = 10.0,
                      t1_points: int = 512,
                      catalog: TransitionCatalog | None = None,
                      rel_threshold: float = 0.15) -> np.ndarray:
    """Cross-peak sign matrix from a small-flip-angle three-pulse Z-COSY.

    Simulates [beta_x - t1 - beta_x - G_z - beta_x - t2] from equilibrium,
    with t1 on the ``default_tomo_dwell`` grid.
    The z-filter keeps only populations between the second and third pulse,
    so every line is amplitude (cosine) modulated in t1; the modulation
    coefficient of line b at the frequency of transition a is recovered by
    projecting onto the +/- frequency pair.  Cross peaks between
    transitions sharing a level appear at third order in beta and carry
    the progressive/regressive distinction; the sign is calibrated against
    the diagonal peaks (which behave like regressive ones) so the result
    uses the progressive = +1 convention of the analytic matrix.  Requires
    no two transitions at exactly opposite frequencies (place the carrier
    off the spectral center).  A ``catalog`` passed in must have the lines
    of ``es``'s own.
    """
    catalog = _own_catalog(es, catalog)
    opposite = np.abs(catalog.freq_hz[:, None] + catalog.freq_hz) < 1e-9
    np.fill_diagonal(opposite, False)
    if opposite.any():
        raise AcquisitionError(
            "transitions at exactly opposite frequencies are not "
            "separable in a cosine-modulated experiment; shift the "
            "carrier off the spectral center")
    beta = pl.HardPulse(beta_deg, pl.PhaseSpec(degrees=0.0))
    program = pl.PulseProgram((beta, pl.Delay(symbol="t1"), beta, pl.Grad(), beta))
    t1 = np.arange(t1_points) * default_tomo_dwell(es)
    rho = pl.execute(program, es, dyn.equilibrium_deviation(es), t1=t1)
    amps = line_amplitudes(es, rho)                            # [t1, line]

    # project each line's t1 trace onto the +/- transition frequencies: the
    # candidates 0, f1, -f1, f2, ... in turn, each kept unless within 1e-9
    # of an entry kept before it.  One with no such earlier candidate at all
    # is kept outright; the others are decided in order.
    cand = np.concatenate([[0.0], np.column_stack([catalog.freq_hz,
                                                   -catalog.freq_hz]).ravel()])
    earlier = np.tril(np.abs(cand[:, None] - cand) < 1e-9, -1)
    kept = ~earlier.any(axis=1)
    for i in np.flatnonzero(~kept).tolist():
        kept[i] = not earlier[i, kept].any()
    basis = cand[kept].tolist()
    bmat = np.array([np.exp(2j * math.pi * f * t1) for f in basis]).T
    coef, *_ = np.linalg.lstsq(bmat, amps, rcond=None)

    # the cosine coefficient of line j at the frequency of transition i:
    # the sum of coef[kb, j] over the basis entries matching +f_i or -f_i
    # (a 0 Hz line matches its entry twice).  Real and imaginary parts are
    # summed apart, as complex addition does.
    fb = np.array(basis)
    f = catalog.freq_hz[:, None]
    sel = (np.abs(fb - f) < 1e-9).astype(float) + (np.abs(fb + f) < 1e-9)
    re, im = sel @ coef.real, sel @ coef.imag                # [i, j]
    mag = np.hypot(re, im)

    d = int(np.argmax(np.diag(mag)))
    quad = abs(im[d, d]) > abs(re[d, d])
    diag_positive = (im[d, d] if quad else re[d, d]) > 0

    # normalize cross peaks by the geometric mean of the two diagonal
    # peaks: connected pairs then sit near 1/2 regardless of intensity,
    # unconnected ones at order beta^2
    norm = np.sqrt(np.multiply.outer(np.diag(mag), np.diag(mag)))
    peak = (norm != 0.0) & (mag > rel_threshold * norm)
    np.fill_diagonal(peak, False)
    # regressive cross peaks share the diagonal's sign
    regressive = ((im if quad else re) > 0) == diag_positive
    return np.where(peak, np.where(regressive, -1, 1), 0)
