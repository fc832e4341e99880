"""Extended-space quasienergy problem: build, diagonalize, fold, select.

The time-periodic Schroedinger equation becomes a static eigenproblem on
the extended (Sambe) space of system times Fourier modes, with block
structure (H_F)_{mn} = H_{m-n} - m omega delta_{mn}. Truncating the mode
index to |m| <= M makes this a dense matrix of dimension (2M+1) * dim,
Hermitian, as FloquetMatrix checks once, when it is made. Every
physical eigenstate reappears as replicas shifted by l blocks with
quasienergies shifted by -l omega; replica selection keeps the copy with
the largest Fourier weight in the central block.
`physical_band` gets that band from a solve restricted to one zone on
each side of zero, certified exact by the central-weight sum rule.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import FourierModeSet, _read_only

# blocks replica selection keeps between the mode cutoff and the edges |m| = M,
# unless the mode set is filled to 2M (see _require_margin)
SELECTION_MARGIN = 2


def fold_to_bz(epsilon, omega):
    """Fold an energy into the quasienergy zone [-omega/2, omega/2).

    The boundary epsilon = +omega/2 maps to -omega/2. Accepts scalars or
    arrays.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    epsilon = np.asarray(epsilon, dtype=float)
    folded = epsilon - omega * np.floor(epsilon / omega + 0.5)
    # rounding in the division can spill one ulp past either edge
    folded = np.where(folded < -0.5 * omega, folded + omega, folded)
    folded = np.where(folded >= 0.5 * omega, folded - omega, folded)
    return folded if folded.ndim else float(folded)


@dataclass(frozen=True)
class FloquetMatrix:
    """Truncated extended-space matrix with its bookkeeping.

    `matrix` is the dense ((2M+1) dim)^2 array; block row m occupies rows
    (m + M) dim : (m + M + 1) dim, m in [-M, M]. Construction rejects a
    matrix that is not Hermitian to 1e-9, so the solvers need not check.
    """

    omega: float
    m_cut: int
    dim: int
    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if not herm <= 1e-9:
            raise ValueError(f"extended-space matrix is not Hermitian (error {herm:.2e})")


@functools.lru_cache(maxsize=4)
def _sambe_layout(m_cut, n_max, dim):
    """(gather index, diagonal m values) of the ((2M+1) dim)^2 matrix, read-only.

    Entry (row, col) of block (m, n) takes flat element (m - n + n_max, row,
    col) of the mode array, or the one zero appended after it where
    |m - n| > n_max. The diagonal holds m, repeated dim times.
    """
    ms = np.arange(-m_cut, m_cut + 1)
    diff = (ms[:, None] - ms[None, :])[:, None, :, None]
    entry = np.arange(dim * dim).reshape(1, dim, 1, dim)
    size = ms.size * dim
    index = np.where(np.abs(diff) <= n_max, (diff + n_max) * (dim * dim) + entry,
                     (2 * n_max + 1) * dim * dim).reshape(size, size)
    return _read_only(index, np.repeat(ms, dim))


def build_floquet_matrix(modes: FourierModeSet, m_cut):
    """Assemble the extended-space matrix from a Fourier mode set.

    Block (m, n) holds H_{m-n} - m omega delta_{mn}: one gather from the
    flat modes with a zero appended, which stands in for every |m - n| >
    n_max, then the diagonal shift. The gather index depends only on
    (M, n_max, dim) and is built once per cutoff set. The blocks reach every
    harmonic |m - n| <= 2M, so a set with n_max up to 2M loses nothing;
    rejects n_max > 2M, which would silently drop drive modes.
    """
    n_max = modes.n_max
    if n_max > 2 * m_cut:
        raise ValueError(f"replica cutoff M={m_cut} holds harmonics up to 2M = {2 * m_cut}, "
                         f"not n_max={n_max}")
    d = modes.dim
    index, diagonal = _sambe_layout(m_cut, n_max, d)
    big = np.concatenate([modes.modes.ravel(), np.zeros(1, complex)]).take(index)
    big.reshape(-1)[::big.shape[0] + 1] -= diagonal * modes.omega
    return FloquetMatrix(omega=modes.omega, m_cut=m_cut, dim=d, n_max=n_max, matrix=big)


@dataclass(frozen=True)
class QuasienergySolution:
    """Eigensolution of a truncated extended-space matrix.

    quasienergies are folded into [-omega/2, omega/2); raw_energies keep
    the unfolded spectrum whose replica structure eps - l omega is
    visible. vectors holds the extended eigenvectors as columns.
    `physical` marks a solution reduced to one replica per physical state.
    """

    omega: float
    m_cut: int
    dim: int
    n_max: int
    quasienergies: np.ndarray
    raw_energies: np.ndarray
    vectors: np.ndarray
    physical: bool = False

    @property
    def n_states(self):
        return self.vectors.shape[1]

    @property
    def n_blocks(self):
        return 2 * self.m_cut + 1

    def fourier_weights(self):
        """w_alpha(n) = |u_alpha^n|^2, shape (2M+1, n_states); columns sum to 1."""
        return fourier_weights(self.vectors, self.dim)

    def weight0(self):
        return self.fourier_weights()[self.m_cut]

    def periodic_part(self, t):
        """u_alpha(t) = sum_n exp(-i n omega t) u_alpha^n, shape (dim, n_states)."""
        ns = np.arange(-self.m_cut, self.m_cut + 1)
        phases = np.exp(-1j * ns * self.omega * t)
        comps = self.vectors.reshape(self.n_blocks, self.dim, self.n_states)
        return np.tensordot(phases, comps, axes=(0, 0))


def fourier_weights(vectors, dim):
    """Block weights of extended vectors: (..., (2M+1) dim, n) -> (..., 2M+1, n).

    The states are columns; leading axes (a k-grid, say) pass through.
    """
    comps = vectors.reshape(*vectors.shape[:-2], -1, dim, vectors.shape[-1])
    return np.sum(np.abs(comps) ** 2, axis=-2)


def quasienergies(fm: FloquetMatrix):
    """Full Hermitian eigendecomposition of the extended-space matrix."""
    raw, vecs = np.linalg.eigh(fm.matrix)
    return QuasienergySolution(omega=fm.omega, m_cut=fm.m_cut, dim=fm.dim, n_max=fm.n_max,
                               quasienergies=fold_to_bz(raw, fm.omega), raw_energies=raw,
                               vectors=vecs)


def _require_margin(space):
    """M >= n_max + SELECTION_MARGIN, or a mode set filled to n_max = 2M.

    A set filled to 2M holds every harmonic the matrix can, so the edge
    blocks |m| = M are its only truncation, and the physical band's weight
    there certifies it.
    """
    if space.m_cut < space.n_max + SELECTION_MARGIN and space.n_max != 2 * space.m_cut:
        raise ValueError(f"replica selection needs M >= n_max + {SELECTION_MARGIN} "
                         f"or a mode set filled to n_max = 2M "
                         f"(got M={space.m_cut}, n_max={space.n_max})")


def _pick(space, raw, vecs, w0):
    """The physical solution of candidate eigenpairs: the dim largest central weights w0.

    `space`, the FloquetMatrix or solution they come from, gives omega, M, dim and n_max.
    """
    picked = np.argsort(w0)[::-1][:space.dim]
    if np.min(w0[picked]) < 0.5:
        warnings.warn(f"weakest central Fourier weight {np.min(w0[picked]):.3f} < 0.5: "
                      "replica identification is ambiguous at this drive strength",
                      stacklevel=3)
    folded = fold_to_bz(raw[picked], space.omega)
    order = np.argsort(folded, kind="stable")
    picked = picked[order]
    return QuasienergySolution(omega=space.omega, m_cut=space.m_cut, dim=space.dim,
                               n_max=space.n_max, quasienergies=folded[order],
                               raw_energies=raw[picked], vectors=vecs[:, picked], physical=True)


def select_physical_band(sol: QuasienergySolution):
    """Keep one replica per physical state: the dim largest central weights.

    For every physical state the replica whose Fourier weight peaks in
    the central block maximizes w(0), so taking the dim states with the
    largest w(0) retains exactly one copy each. Warns when the weakest
    retained weight drops below 0.5, where the identification becomes
    ambiguous under strong driving. Requires M >= n_max + SELECTION_MARGIN
    so the retained states are away from the truncation edges, or a mode set
    filled to n_max = 2M (_require_margin). The result is
    sorted by folded quasienergy.
    """
    if sol.physical:
        return sol
    _require_margin(sol)
    return _pick(sol, sol.raw_energies, sol.vectors, sol.weight0())


def physical_band(modes: FourierModeSet, m_cut):
    """select_physical_band of the full solution, from a windowed solve.

    Checks the margin first, then solves only the eigenpairs with raw
    energy in (-omega, omega] (LAPACK MRRR, ?heevr). The central-block rows
    of the unitary eigenvector matrix have unit norm, so the central
    weights w0 of all eigenpairs sum to dim. When the window holds at
    least dim states and the weight it misses, dim - sum(w0 in window), is
    below the smallest of the dim largest window weights, no state outside
    the window can displace a picked one and the selection equals the full
    one. Otherwise this falls back to the full solve.
    """
    fm = build_floquet_matrix(modes, m_cut)
    _require_margin(fm)
    raw, vecs = scipy.linalg.eigh(fm.matrix, subset_by_value=(-fm.omega, fm.omega),
                                  driver="evr")
    # squared column norms of the central rows; an empty window gives an empty w0
    central = vecs[fm.m_cut * fm.dim:(fm.m_cut + 1) * fm.dim]
    w0 = np.sum(np.abs(central) ** 2, axis=0)
    ranked = np.sort(w0)[::-1]
    if not (ranked.size >= fm.dim and fm.dim - np.sum(ranked) < ranked[fm.dim - 1]):
        full = quasienergies(fm)
        raw, vecs, w0 = full.raw_energies, full.vectors, full.weight0()
    return _pick(fm, raw, vecs, w0)


def floquet_coefficients(sol: QuasienergySolution, psi0, t0):
    """Expansion coefficients of a state over the physical Floquet basis."""
    if not sol.physical:
        raise ValueError("expand over a physical solution (run select_physical_band)")
    basis = sol.periodic_part(t0)
    return basis.conj().T @ np.asarray(psi0, dtype=complex)


def evolve_state_floquet(sol: QuasienergySolution, psi0, t0, t):
    """psi(t) = sum_a c_a exp(-i eps_a (t - t0)) u_a(t), c_a fixed at t0.

    The phase uses each retained eigenpair's own (unfolded) eigenvalue:
    pairing the folded value with another replica's periodic part would
    shift the phase by a multiple of omega between stroboscopic times.
    Norm conservation is a truncation diagnostic: drift beyond 1e-4
    triggers a warning that the mode/replica cutoffs are too small.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    coeffs = floquet_coefficients(sol, psi0, t0)
    phases = np.exp(-1j * sol.raw_energies * (t - t0))
    psi_t = sol.periodic_part(t) @ (coeffs * phases)
    drift = abs(np.linalg.norm(psi_t) - np.linalg.norm(psi0))
    if drift > 1e-4:
        warnings.warn(
            f"norm drift {drift:.2e} > 1e-4: extended-space truncation too small",
            stacklevel=2)
    return psi_t
