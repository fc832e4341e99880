"""Time-periodic Bloch Hamiltonians and their Fourier-mode decompositions.

Conventions used throughout the toolkit (hbar = 1, energies in units of
the hopping unless stated):

* mode expansion  H(t) = sum_n H_n exp(-i n omega t), so that
  H_n = (1/T) int_0^T dt exp(+i n omega t) H(t), and hermiticity of
  H(t) is the pairing H_{-n} = H_n^dagger;
* 1d chain drive: vector potential A(t) = -amplitude * sin(omega t)
  with amplitude = E/omega, dispersion -2J cos(k - A(t));
* circular drive: (A_x, A_y) = amplitude * (cos omega t, sin omega t);
* honeycomb geometry is pinned to unit bond length with nearest-neighbor
  vectors delta_1 = (0, 1), delta_2 = (-sqrt3/2, -1/2),
  delta_3 = (sqrt3/2, -1/2); any valid choice works, this one is fixed
  so regression values are reproducible;
* the built-in samplers take a scalar time, giving (d, d), or an array
  of times, giving t.shape + (d, d) with each row equal to the scalar call.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# pinned honeycomb geometry, unit bond length
HONEYCOMB_DELTAS = np.array([
    [0.0, 1.0],
    [-np.sqrt(3.0) / 2.0, -0.5],
    [np.sqrt(3.0) / 2.0, -0.5],
])
# lattice vectors a_i = delta_1 - delta_{i+1} and their reciprocals
HONEYCOMB_LATTICE = np.array([
    HONEYCOMB_DELTAS[0] - HONEYCOMB_DELTAS[1],
    HONEYCOMB_DELTAS[0] - HONEYCOMB_DELTAS[2],
])
HONEYCOMB_RECIPROCAL = 2.0 * np.pi * np.linalg.solve(HONEYCOMB_LATTICE, np.eye(2)).T

HERMITICITY_TOL = 1e-10

# each built-in model's drive: linear renormalizes the chain's hopping, circular opens a gap
POLARIZATION = {"chain1d": "linear", "dirac": "circular", "honeycomb": "circular"}


@dataclass(frozen=True)
class DriveProtocol:
    """Monochromatic periodic drive: frequency, amplitude, polarization.

    `amplitude` is the dimensionless vector-potential amplitude A (for
    the 1d chain it plays the role of E/omega).
    """

    omega: float
    amplitude: float = 0.0
    polarization: str = "linear"

    def __post_init__(self):
        if not self.omega > 0.0:    # NaN fails these comparisons
            raise ValueError(f"drive frequency must be positive, got {self.omega}")
        if not self.amplitude >= 0.0:
            raise ValueError(f"drive amplitude must be >= 0, got {self.amplitude}")
        if self.polarization not in ("linear", "circular"):
            raise ValueError(f"polarization must be 'linear' or 'circular', got {self.polarization!r}")

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    def vector_potential_1d(self, t):
        """A(t) = -amplitude * sin(omega t) for the driven chain."""
        return -self.amplitude * np.sin(self.omega * t)

    def vector_potential_2d(self, t):
        """(A_x, A_y) = amplitude * (cos omega t, sin omega t)."""
        return np.array([
            self.amplitude * np.cos(self.omega * t),
            self.amplitude * np.sin(self.omega * t),
        ])


def check_polarization(model, drive):
    """Raise ValueError unless `drive` has the polarization POLARIZATION gives `model`."""
    if drive.polarization != POLARIZATION[model]:
        raise ValueError(f"model {model!r} is defined for {POLARIZATION[model]} polarization, "
                         f"got {drive.polarization!r}")


def sample_chain_1d(k, hopping, drive, t):
    """Driven 1d nearest-neighbor chain at momentum k, a 1x1 matrix.

    Dispersion -2J cos(k - A(t)) with A(t) = -(E/omega) sin(omega t).
    """
    check_polarization("chain1d", drive)
    a = drive.vector_potential_1d(t)
    return np.asarray(-2.0 * hopping * np.cos(k - a), dtype=complex)[..., None, None]


def sample_dirac(kx, ky, drive, t):
    """Circularly driven 2d Dirac point: (k - A(t)) . (sigma_x, sigma_y).

    Defined for circular polarization only; the handedness of the drive
    is what breaks time-reversal symmetry.
    """
    check_polarization("dirac", drive)
    ax, ay = drive.vector_potential_2d(t)
    return _off_diagonal((kx - ax) - 1j * (ky - ay))


def sample_honeycomb(kx, ky, hopping, drive, t):
    """Circularly driven honeycomb Bloch Hamiltonian (Peierls phases).

    Off-diagonal element J sum_i exp(i (k - A(t)) . delta_i) over the
    three pinned nearest-neighbor vectors; diagonal is zero.
    """
    check_polarization("honeycomb", drive)
    kk = np.array([kx, ky]) - np.moveaxis(drive.vector_potential_2d(t), 0, -1)
    # one (..., 2) @ (2, 3) product for every time at once; the three bonds summed
    # term by term, as np.sum over a length-3 axis costs more than the adds
    bonds = np.exp(1j * (kk @ HONEYCOMB_DELTAS.T))
    f = hopping * (bonds[..., 0] + bonds[..., 1] + bonds[..., 2])
    return _off_diagonal(f)


def _off_diagonal(upper):
    """The upper.shape + (2, 2) Hermitian matrices with zero diagonal and upper element `upper`."""
    h = np.zeros(np.shape(upper) + (2, 2), dtype=complex)
    h[..., 0, 1] = upper
    h[..., 1, 0] = np.conj(upper)
    return h


def haldane_bloch(kx, ky, j_eff, k_eff):
    """Static honeycomb model with imaginary next-nearest-neighbor hops.

    Built on the pinned geometry: nearest-neighbor hopping j_eff plus
    next-nearest-neighbor hopping i*k_eff whose chirality is fixed so the
    model coincides with the second-order effective Hamiltonian of the
    circularly driven lattice (verified in the tests).
    """
    k = np.array([kx, ky])
    f = j_eff * np.sum(np.exp(1j * (HONEYCOMB_DELTAS @ k)))
    nnn = np.array([
        HONEYCOMB_DELTAS[0] - HONEYCOMB_DELTAS[1],
        HONEYCOMB_DELTAS[1] - HONEYCOMB_DELTAS[2],
        HONEYCOMB_DELTAS[2] - HONEYCOMB_DELTAS[0],
    ])
    d = 2.0 * k_eff * np.sum(np.sin(nnn @ k))
    return np.array([[d, f], [np.conj(f), -d]], dtype=complex)


@dataclass(frozen=True)
class FourierModeSet:
    """Drive frequency plus the Fourier modes {H_n} of a periodic Hamiltonian.

    `modes` is one complex array of shape (2 n_max + 1, d, d) holding H_n
    at index n + n_max, so `dim` and `n_max` follow from its shape and
    H_{-n} sits at the mirrored index. Construction rejects an even
    leading axis or non-square modes and enforces the Hermitian pairing
    H_{-n} = H_n^dagger to 1e-10. The set keeps its own read-only copy of
    the modes, so no later write can break the pairing.
    """

    omega: float
    modes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        # a copy: asarray would alias a complex input, which setflags would then freeze
        modes = np.array(self.modes, dtype=complex)
        if modes.ndim != 3 or modes.shape[0] % 2 == 0 or modes.shape[1] != modes.shape[2]:
            raise ValueError(
                f"modes must have shape (2 n_max + 1, d, d), got {modes.shape}")
        errs = np.max(np.abs(modes[::-1] - modes.conj().transpose(0, 2, 1)), axis=(1, 2))
        worst = int(np.argmax(errs))
        if not errs[worst] <= HERMITICITY_TOL:     # a NaN entry fails too
            raise ValueError(
                f"modes violate H_-n = H_n^dagger at n={abs(worst - modes.shape[0] // 2)} "
                f"(error {errs[worst]:.2e})")
        modes.setflags(write=False)
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self):
        return self.modes.shape[1]

    @property
    def n_max(self):
        return self.modes.shape[0] // 2

    def mode(self, n):
        """H_n, zero where |n| > n_max.

        An integer n gives a read-only view of the stored (d, d) block; an
        integer array gives a new stack of shape n.shape + (d, d).
        """
        n = np.asarray(n)
        inside = np.abs(n) <= self.n_max
        if n.ndim == 0 and inside:
            return self.modes[n + self.n_max]
        # one trailing zero block stands in for every harmonic past n_max
        padded = np.concatenate([self.modes, np.zeros((1, self.dim, self.dim), complex)])
        return padded[np.where(inside, n + self.n_max, -1)]

    def sample(self, t):
        """Reconstruct H(t) = sum_n H_n exp(-i n omega t).

        A scalar t gives (d, d); an array of times gives t.shape + (d, d).
        The sum runs over the harmonics with a nonzero entry only, so a set
        with a few high harmonics takes no phase for the zeros between them.
        """
        t = np.asarray(t)
        terms = self.modes.reshape(self.modes.shape[0], -1)
        held = np.flatnonzero(np.any(terms != 0, axis=1))
        phases = np.exp(-1j * (held - self.n_max) * self.omega * t[..., None])
        # one row-vector product per time, the same BLAS call as a scalar t
        h = phases[..., None, :] @ terms[held]
        return h.reshape(t.shape + (self.dim, self.dim))

    def time_reversed(self):
        """Mode set of H(-t): reverses the handedness of a circular drive."""
        return FourierModeSet(self.omega, self.modes[::-1])


def _sample_times(sampler, ts):
    """H(t) at every time of the 1-d array ts, as a complex (len(ts), d, d) array.

    The sampler is called once on the whole array, and that result is
    kept when it has this shape and its first and last rows agree with
    scalar calls to 1e-12; the built-in samplers pass. Otherwise, or when
    the array call raises, the sampler is called once per time, so any
    t -> H callable works and a broken one raises its own error there.
    """
    first, last = (np.asarray(sampler(t), dtype=complex) for t in (ts[0], ts[-1]))
    try:
        batch = np.asarray(sampler(ts), dtype=complex)
    except Exception:  # noqa: BLE001 - the per-t calls below re-raise a real fault
        batch = None
    if (batch is not None and batch.shape == (len(ts),) + first.shape
            and np.all(np.abs(batch[0] - first) <= 1e-12)
            and np.all(np.abs(batch[-1] - last) <= 1e-12)):
        return batch
    return np.stack([np.asarray(sampler(t), dtype=complex) for t in ts])


def fourier_modes(sampler, omega, n_max):
    """Fourier modes of a T-periodic Hermitian sampler on a uniform grid.

    H_n = (1/N) sum_j exp(i n omega t_j) H(t_j) with t_j = j T / N and
    N = 4 n_max + 1, which keeps aliases out of the kept window; for
    periodic integrands the plain Riemann sum is spectrally accurate.
    The grid is sampled in one call when the sampler takes an array of
    times and returns (N, d, d), as the built-in samplers do; any other
    t -> H callable is sampled once per grid point. Warns when the edge
    mode carries more than 1e-3 of the largest mode's weight (cutoff
    likely too small); scaling by the largest mode rather than H_0 keeps
    the check quiet when the time average itself is tuned to zero.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n_samples = 4 * n_max + 1
    period = 2.0 * np.pi / omega
    ts = np.arange(n_samples) * (period / n_samples)
    samples = _sample_times(sampler, ts)
    herm = np.max(np.abs(samples - samples.conj().transpose(0, 2, 1)))
    if not herm <= 1e-9:
        raise ValueError(f"sampler is not Hermitian on the time grid (error {herm:.2e})")
    ns = np.arange(-n_max, n_max + 1)
    phases = np.exp(1j * ns[:, None] * omega * ts)
    raw = np.tensordot(phases, samples, axes=(1, 0)) / n_samples
    # symmetrize the pairing: exact for Hermitian samples, and keeps the
    # construction from tripping on last-bit rounding
    mode_set = FourierModeSet(omega, 0.5 * (raw + raw[::-1].conj().transpose(0, 2, 1)))
    norms = np.max(np.abs(mode_set.modes), axis=(1, 2))
    edge, scale = norms[-1], np.max(norms[n_max:])
    if n_max > 0 and edge > 1e-3 * scale:
        warnings.warn(
            f"possible aliasing: |H_{n_max}| = {edge:.3e} exceeds 1e-3 max_n |H_n| = "
            f"{1e-3 * scale:.3e}; consider raising n_max",
            stacklevel=2)
    return mode_set


def _read_only(*arrays):
    """The arrays as a tuple, each made read-only: a cached array is shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=8)
def _chain_factors(hopping, amplitude, n_max):
    """The k-independent factors of chain_modes: -J J_n(A) and (-1)^n, read-only."""
    ns = np.arange(-n_max, n_max + 1)
    return _read_only(-hopping * bessel_j(ns, amplitude), (-1.0) ** ns)


def chain_modes(k, hopping, drive, n_max):
    """Closed-form modes of the driven chain, H_n = -J J_n(z)((-1)^n e^{ik} + e^{-ik}).

    -J J_n(z) and (-1)^n are computed once per (hopping, amplitude, n_max).
    """
    check_polarization("chain1d", drive)
    scale, signs = _chain_factors(hopping, drive.amplitude, n_max)
    coeff = scale * (signs * np.exp(1j * k) + np.exp(-1j * k))
    return FourierModeSet(drive.omega, coeff.reshape(-1, 1, 1))


def dirac_modes(kx, ky, drive):
    """Closed-form modes of the driven Dirac point (single harmonic)."""
    check_polarization("dirac", drive)
    h1 = -0.5 * drive.amplitude * (SIGMA_X + 1j * SIGMA_Y)
    return FourierModeSet(drive.omega, np.stack([h1.conj().T, kx * SIGMA_X + ky * SIGMA_Y, h1]))


@functools.lru_cache(maxsize=8)
def _honeycomb_factors(hopping, amplitude, n_max):
    """The k-independent factors of honeycomb_modes, read-only.

    J J_n(A) (-i)^n of shape (2 n_max + 1,) and the bond harmonics
    e^{i n phi_i} of shape (2 n_max + 1, 3).
    """
    ns = np.arange(-n_max, n_max + 1)
    phis = np.arctan2(HONEYCOMB_DELTAS[:, 1], HONEYCOMB_DELTAS[:, 0])
    return _read_only(hopping * bessel_j(ns, amplitude) * ((-1j) ** ns),
                      np.exp(1j * ns[:, None] * phis))


def honeycomb_modes(kx, ky, hopping, drive, n_max):
    """Closed-form modes of the driven honeycomb lattice.

    Per bond, exp(-i A . delta_i) = exp(-i A cos(omega t - phi_i)) expands
    through the Jacobi-Anger identity, giving the off-diagonal element of
    mode n as f_n = J sum_i e^{i k . delta_i} (-i)^n J_n(A) e^{i n phi_i};
    the lower element is conj(f_{-n}). The factors that do not depend on k,
    J (-i)^n J_n(A) and e^{i n phi_i}, are computed once per (hopping,
    amplitude, n_max).
    """
    check_polarization("honeycomb", drive)
    scale, harmonics = _honeycomb_factors(hopping, drive.amplitude, n_max)
    bond_phases = np.exp(1j * (HONEYCOMB_DELTAS @ np.array([kx, ky])))
    f = scale * np.sum(bond_phases * harmonics, axis=1)
    modes = np.zeros((scale.size, 2, 2), dtype=complex)
    modes[:, 0, 1] = f
    modes[:, 1, 0] = np.conj(f)[::-1]
    return FourierModeSet(drive.omega, modes)


def suggested_n_max(amplitude):
    """Bessel-decay heuristic for the mode cutoff: ceil(A) + 10.

    The CLI no longer uses it: every task that reads M defaults to
    cli.default_replica_cutoff, which follows the drive. The benchmark's
    oracle workload and scripts/hopping_renormalization.py still size
    their mode sets by it.
    """
    return int(np.ceil(amplitude)) + 10


def _real_numbers(value):
    """Whether `value` is an int or a float, or nested lists of them: no text, no booleans.

    Walked with a stack, not by recursion, so that any nesting a config can hold is read.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                return False
        elif (isinstance(item, bool)
              or not isinstance(item, (int, float, np.integer, np.floating))):
            return False
    return True


def custom_mode_terms(triples):
    """The checked terms of (n, real part, imaginary part) triples: (indices, matrices).

    The indices are Python ints and the matrices one (len, d, d) complex
    array. Nothing is indexed by harmonic yet, so a caller can size the
    (2 n_max + 1, d, d) array custom_modes builds before it exists.
    """
    if not triples or not all(isinstance(e, (list, tuple)) and len(e) == 3 for e in triples):
        raise ValueError("each custom mode must be a (n, real, imag) triple")
    ns, re, im = zip(*triples)
    # np.asarray(dtype=float) would read "1" and true, and [true, 2] as [1, 2]
    if not all(map(_real_numbers, (ns, re, im))):
        raise ValueError("custom mode indices and matrix entries must be numbers, not text "
                         "or booleans")
    try:
        index = np.asarray(ns, dtype=float)
        mats = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except (TypeError, ValueError, OverflowError):     # OverflowError: an int past the floats
        raise ValueError("custom modes need finite integer n and numeric matrices of one "
                         "size") from None
    # no integer cast before the index is known to be a finite integer
    if index.ndim != 1 or not np.all(np.isfinite(index)) or np.any(index % 1):
        raise ValueError(f"custom mode index must be an integer, got {index.tolist()}")
    ns = [int(n) for n in index.tolist()]
    if len(set(ns)) != len(ns):
        raise ValueError(f"custom mode indices repeat: {ns}")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"custom modes are not square matrices (shape {mats.shape[1:]})")
    if not np.all(np.isfinite(mats)):
        raise ValueError("custom mode matrices must be finite")
    return ns, mats


def custom_modes(omega, triples):
    """Mode set from (n, real part, imaginary part) triples.

    This is the wire format accepted by the command-line interface for
    user-supplied models; matrices arrive as nested lists. Harmonics
    missing from the list are zero; each n may appear once.
    """
    return _mode_set(omega, *custom_mode_terms(triples))


def _mode_set(omega, ns, mats):
    """Mode set from the checked terms of custom_mode_terms; missing harmonics are zero."""
    n_max = max(map(abs, ns))
    modes = np.zeros((2 * n_max + 1,) + mats.shape[1:], dtype=complex)
    modes[np.add(ns, n_max)] = mats
    return FourierModeSet(omega, modes)
