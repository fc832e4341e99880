"""Chern numbers of (Floquet) bands from discretized Berry curvature.

Uses the lattice field-strength construction: per plaquette the Berry
phase is the principal-branch argument of the four-link overlap product,
which is exactly gauge invariant and sums to 2 pi times an integer on a
closed momentum grid. Band eigenvectors may be ordinary Bloch vectors or
full extended-space Floquet vectors; only overlaps enter.
"""

import math
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
    Folded quasienergies live on a circle of circumference zone_width
    (omega); Bloch energies live on the line (zone_width = inf).
    """

    nk: int
    b1: np.ndarray
    b2: np.ndarray
    energies: np.ndarray   # (nk+1, nk+1, n_bands)
    vectors: np.ndarray    # (nk+1, nk+1, vdim, n_bands)
    zone_width: float = math.inf

    @property
    def n_bands(self):
        return self.energies.shape[2]

    def min_gap(self, band_index):
        """Smallest energy separation of the band from any other band.

        On the quasienergy circle a separation |d| is also zone_width - |d|
        the other way round, across the zone edge.
        """
        e = self.energies
        gaps = np.abs(np.delete(e, band_index, axis=-1) - e[..., band_index, None])
        gaps = np.minimum(gaps, self.zone_width - gaps)
        return float(gaps.min()) if gaps.size else math.inf


def band_grid(solver, nk, b1=None, b2=None, map_rows=map):
    """Tabulate a band structure over one zone for curvature integration.

    The rows are solved through `map_rows`, then matched in one pass over
    the grid, row by row: the first point is in energy order, and every
    other point is matched by overlap to the point before it in its row
    (above it in column 0) rather than sorted by energy, which avoids
    spurious band swaps at avoided crossings.

    Parameters
    ----------
    solver : callable
        (kx, ky) -> (energies, vectors) with vectors as columns, bands in
        any order. A solver of folded quasienergies returns (energies,
        vectors, omega), and the grid measures gaps on the circle of
        circumference omega.
    nk : int
        Plaquettes per direction, at least 1.
    b1, b2 : arrays, optional
        Reciprocal vectors spanning the zone; default is the pinned
        honeycomb zone.
    map_rows : callable, optional
        map_rows(solve_row, range(nk + 1)) yields solve_row(i), the
        solver's results along grid row i, in row order; the builtin map
        by default. Another map may run the solves elsewhere, in parallel.
    """
    if nk < 1:
        raise ValueError(f"band_grid needs nk >= 1 plaquettes per direction, got {nk}")
    b1 = HONEYCOMB_RECIPROCAL[0] if b1 is None else np.asarray(b1, dtype=float)
    b2 = HONEYCOMB_RECIPROCAL[1] if b2 is None else np.asarray(b2, dtype=float)
    frac = np.arange(nk + 1) / nk

    def solve_row(i):
        return [solver(*(frac[i] * b1 + frac[j] * b2)) for j in range(nk + 1)]

    energies, vectors = [], []
    for row in map_rows(solve_row, range(nk + 1)):
        for j, (e, v, *zone) in enumerate(row):
            e, v = np.asarray(e), np.asarray(v)
            perm = (_match_by_overlap(vectors[-1] if j > 0 else vectors[-(nk + 1)], v)
                    if vectors else np.argsort(e))
            energies.append(e[perm])
            vectors.append(v[:, perm])
    side = (nk + 1, nk + 1)
    return BandGrid(nk=nk, b1=b1, b2=b2,
                    energies=np.array(energies, dtype=float).reshape(*side, -1),
                    vectors=np.array(vectors, dtype=complex).reshape(*side, *v.shape),
                    zone_width=zone[0] if zone else math.inf)


def _match_by_overlap(reference, candidates):
    # greedy assignment of candidate columns to reference columns by
    # largest |<ref|cand>|; n_bands is small so greed is fine. A picked
    # pair's row and column are set to -1, below every overlap
    overlaps = np.abs(reference.conj().T @ candidates)
    perm = np.empty(len(overlaps), dtype=int)
    for _ in range(len(perm)):
        r, c = np.unravel_index(np.argmax(overlaps), overlaps.shape)
        perm[r] = c
        overlaps[r] = overlaps[:, c] = -1.0
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

    The link variables U1(i,j) = <u(i,j)|u(i+1,j)> and U2(i,j) =
    <u(i,j)|u(i,j+1)> are each computed once, though two plaquettes share
    every link, and F(i,j) = arg(U1(i,j) U2(i+1,j) U1(i,j+1)* U2(i,j)*),
    principal branch (Fukui, Hatsugai & Suzuki, JPSJ 74, 1674 (2005)).
    Warns when the band's minimal gap falls below 1e-6, where the Chern
    number stops being well defined.
    """
    min_gap = grid.min_gap(band_index)
    if min_gap < GAP_CLOSURE_TOL:
        warnings.warn(
            f"minimal inter-band gap {min_gap:.2e} < {GAP_CLOSURE_TOL}: "
            "Chern number ill-defined",
            stacklevel=2)
    u = grid.vectors[..., band_index]
    link1 = np.einsum("ijk,ijk->ij", u[:-1].conj(), u[1:])        # <u(i,j)|u(i+1,j)>
    link2 = np.einsum("ijk,ijk->ij", u[:, :-1].conj(), u[:, 1:])  # <u(i,j)|u(i,j+1)>
    link = link1[:, :-1] * link2[1:] * link1[:, 1:].conj() * link2[:-1].conj()
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

    Returns the physical quasienergies, the full extended eigenvectors
    (all replica blocks concatenated, normalized) and omega, the width of
    the zone the quasienergies fold into; restricting to the central
    block alone would make the overlaps convention-dependent.
    """

    def solver(kx, ky):
        sol = physical_band(mode_builder(kx, ky), m_cut)
        return sol.quasienergies, sol.vectors, sol.omega

    return solver


def bloch_band_solver(hk):
    """Adapt a static Bloch Hamiltonian hk(kx, ky) into a band_grid solver."""

    def solver(kx, ky):
        w, v = np.linalg.eigh(hk(kx, ky))
        return w, v

    return solver
