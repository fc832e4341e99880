"""Chern numbers of (Floquet) bands from discretized Berry curvature.

Uses the lattice field-strength construction: per plaquette the Berry
phase is the principal-branch argument of the four-link overlap product,
which is exactly gauge invariant and sums to 2 pi times an integer on a
closed momentum grid. Band eigenvectors may be ordinary Bloch vectors or
full extended-space Floquet vectors; only overlaps enter.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .models import HONEYCOMB_RECIPROCAL
from .sambe import physical_band

GAP_CLOSURE_TOL = 1e-6
QUANTIZATION_TOL = 1e-3


@dataclass(frozen=True)
class BandGrid:
    """Band energies and normalized eigenvectors on a periodic k-grid.

    Arrays are indexed (i, j) over an (nk+1) x (nk+1) grid spanning one
    zone inclusively: point (nk, j) sits at k(0, j) + b1 and holds the
    same physical states, so the last row/column closes the torus.
    """

    nk: int
    b1: np.ndarray
    b2: np.ndarray
    energies: np.ndarray   # (nk+1, nk+1, n_bands)
    vectors: np.ndarray    # (nk+1, nk+1, vdim, n_bands)

    @property
    def n_bands(self):
        return self.energies.shape[2]

    def min_gap(self, band_index):
        """Smallest energy separation of the band from its neighbors."""
        e = self.energies
        gaps = []
        if band_index > 0:
            gaps.append(np.min(np.abs(e[..., band_index] - e[..., band_index - 1])))
        if band_index < self.n_bands - 1:
            gaps.append(np.min(np.abs(e[..., band_index + 1] - e[..., band_index])))
        return float(min(gaps)) if gaps else float("inf")


def band_grid(solver, nk, b1=None, b2=None):
    """Tabulate a band structure over one zone for curvature integration.

    Parameters
    ----------
    solver : callable
        (kx, ky) -> (energies, vectors) with vectors as columns; bands in
        any order, they are connected here by maximal overlap with the
        previously visited neighbor rather than by energy sorting, which
        avoids spurious band swaps at avoided crossings.
    nk : int
        Plaquettes per direction.
    b1, b2 : arrays, optional
        Reciprocal vectors spanning the zone; default is the pinned
        honeycomb zone.
    """
    b1 = HONEYCOMB_RECIPROCAL[0] if b1 is None else np.asarray(b1, dtype=float)
    b2 = HONEYCOMB_RECIPROCAL[1] if b2 is None else np.asarray(b2, dtype=float)
    e00, v00 = solver(0.0, 0.0)
    n_bands = len(e00)
    vdim = v00.shape[0]
    energies = np.zeros((nk + 1, nk + 1, n_bands))
    vectors = np.zeros((nk + 1, nk + 1, vdim, n_bands), dtype=complex)
    order0 = np.argsort(e00)
    energies[0, 0] = np.asarray(e00)[order0]
    vectors[0, 0] = np.asarray(v00)[:, order0]
    for i in range(nk + 1):
        for j in range(nk + 1):
            if i == 0 and j == 0:
                continue
            k = (i / nk) * b1 + (j / nk) * b2
            e, v = solver(k[0], k[1])
            ref = vectors[i, j - 1] if j > 0 else vectors[i - 1, j]
            perm = _match_by_overlap(ref, np.asarray(v))
            energies[i, j] = np.asarray(e)[perm]
            vectors[i, j] = np.asarray(v)[:, perm]
    return BandGrid(nk=nk, b1=b1, b2=b2, energies=energies, vectors=vectors)


def _match_by_overlap(reference, candidates):
    # greedy assignment of candidate columns to reference columns by
    # largest |<ref|cand>|; n_bands is small so greed is fine
    overlaps = np.abs(reference.conj().T @ candidates)
    n = overlaps.shape[0]
    perm = np.full(n, -1, dtype=int)
    taken = np.zeros(n, dtype=bool)
    for _ in range(n):
        flat = np.argmax(np.where(taken[None, :] | (perm[:, None] >= 0), -1.0, overlaps))
        r, c = np.unravel_index(flat, overlaps.shape)
        perm[r] = c
        taken[c] = True
    return perm


@dataclass(frozen=True)
class CurvatureField:
    """Per-plaquette Berry phases F in (-pi, pi] plus the band's gap floor."""

    flux: np.ndarray
    min_gap: float

    @property
    def total(self):
        return float(np.sum(self.flux))


def berry_curvature_grid(grid: BandGrid, band_index):
    """Plaquette field strength of one band on the closed grid.

    F_p = arg(<u1|u2><u2|u3><u3|u4><u4|u1>) around each plaquette,
    principal branch. Warns when the band's minimal gap falls below 1e-6,
    where the Chern number stops being well defined.
    """
    min_gap = grid.min_gap(band_index)
    if min_gap < GAP_CLOSURE_TOL:
        warnings.warn(
            f"minimal inter-band gap {min_gap:.2e} < {GAP_CLOSURE_TOL}: "
            "Chern number ill-defined",
            stacklevel=2)
    u = grid.vectors[..., band_index]
    u1 = u[:-1, :-1]
    u2 = u[1:, :-1]
    u3 = u[1:, 1:]
    u4 = u[:-1, 1:]
    link = (
        np.einsum("ijk,ijk->ij", u1.conj(), u2)
        * np.einsum("ijk,ijk->ij", u2.conj(), u3)
        * np.einsum("ijk,ijk->ij", u3.conj(), u4)
        * np.einsum("ijk,ijk->ij", u4.conj(), u1)
    )
    return CurvatureField(flux=np.angle(link), min_gap=min_gap)


def chern_number(field: CurvatureField):
    """Integer total flux / 2 pi; errors out on a non-integer residual."""
    total = field.total / (2.0 * np.pi)
    nearest = int(np.rint(total))
    residual = abs(total - nearest)
    if residual >= QUANTIZATION_TOL:
        raise ValueError(
            f"total curvature {total:.6f} is not integer to {QUANTIZATION_TOL} "
            "(grid too coarse or gap closing)")
    return nearest


def floquet_band_solver(mode_builder, m_cut):
    """Adapt a per-k mode builder into a solver usable by band_grid.

    Returns the physical quasienergies and the full extended eigenvectors
    (all replica blocks concatenated, normalized); restricting to the
    central block alone would make the overlaps convention-dependent.
    """

    def solver(kx, ky):
        sol = physical_band(mode_builder(kx, ky), m_cut)
        return sol.quasienergies, sol.vectors

    return solver


def bloch_band_solver(hk):
    """Adapt a static Bloch Hamiltonian hk(kx, ky) into a band_grid solver."""

    def solver(kx, ky):
        w, v = np.linalg.eigh(hk(kx, ky))
        return w, v

    return solver
