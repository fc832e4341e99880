import numpy as np
import pytest

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Z


def constant_vector_solver(kx, ky):
    # k-independent eigenvectors: a flat, topologically trivial pair
    h = np.diag([1.0, -1.0]).astype(complex)
    w, v = np.linalg.eigh(h)
    return w, v


def haldane_solver(j_eff=1.0, k_eff=0.1):
    return fq.bloch_band_solver(lambda kx, ky: fq.haldane_bloch(kx, ky, j_eff, k_eff))


class TestCurvature:
    def test_trivial_band_zero_field(self):
        grid = fq.band_grid(constant_vector_solver, 8)
        field = fq.berry_curvature_grid(grid, 0)
        np.testing.assert_allclose(field.flux, 0.0, atol=1e-12)

    def test_static_haldane_total_flux(self):
        # with the pinned chirality, positive k_eff puts -2 pi on the
        # lower band (the circular drive produces negative k_eff)
        grid = fq.band_grid(haldane_solver(), 24)
        for band, sign in ((0, -1.0), (1, 1.0)):
            field = fq.berry_curvature_grid(grid, band)
            assert field.total == pytest.approx(sign * 2.0 * np.pi, abs=1e-6)

    def test_gauge_invariance_under_phase_relabeling(self):
        grid = fq.band_grid(haldane_solver(), 10)
        field = fq.berry_curvature_grid(grid, 0)
        rng = np.random.default_rng(4)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, grid.vectors.shape[:2]))
        relabeled = fq.BandGrid(
            nk=grid.nk, b1=grid.b1, b2=grid.b2, energies=grid.energies,
            vectors=grid.vectors * phases[:, :, None, None])
        field2 = fq.berry_curvature_grid(relabeled, 0)
        np.testing.assert_allclose(field2.flux, field.flux, atol=1e-12)

    def test_gap_closure_warning(self):
        # bare honeycomb is gapless at the zone corners
        grid = fq.band_grid(haldane_solver(k_eff=0.0), 12)
        with pytest.warns(UserWarning, match="gap"):
            fq.berry_curvature_grid(grid, 0)

    def test_gap_closure_warning_across_the_zone_edge(self):
        # quasienergies at -omega/2 + 1e-8 and omega/2 - 1e-8 are 2e-8 apart on the circle
        omega = 4.0
        grid = fq.band_grid(constant_vector_solver, 4)
        edge = np.broadcast_to([-0.5 * omega + 1e-8, 0.5 * omega - 1e-8], grid.energies.shape)
        folded = fq.BandGrid(nk=grid.nk, b1=grid.b1, b2=grid.b2, energies=edge,
                             vectors=grid.vectors, zone_width=omega)
        assert folded.min_gap(0) == pytest.approx(2e-8, rel=1e-6)
        with pytest.warns(UserWarning, match="gap"):
            fq.berry_curvature_grid(folded, 0)


class TestFloquetMinGap:
    @pytest.mark.parametrize("omega, line_gap", [(4.0, 0.765), (3.0, 0.961)])
    def test_measures_the_gap_across_the_zone_edge(self, omega, line_gap):
        drive = fq.DriveProtocol(omega=omega, amplitude=1.0, polarization="circular")
        n_max = fq.suggested_n_max(1.0)
        solver = fq.floquet_band_solver(
            lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, n_max), n_max + 6)
        grid = fq.band_grid(solver, 12)
        split = grid.energies[..., 1] - grid.energies[..., 0]
        # the shortest arc between two points of the circle of circumference omega
        arc = np.abs(np.angle(np.exp(2j * np.pi * split / omega))) * omega / (2.0 * np.pi)
        assert np.min(np.abs(split)) == pytest.approx(line_gap, abs=1e-3)
        for band in range(2):
            assert grid.min_gap(band) == pytest.approx(np.min(arc), abs=1e-12)
            assert grid.min_gap(band) < 0.3 * line_gap
        assert grid.zone_width == omega

    def test_bloch_gaps_stay_on_the_line(self):
        grid = fq.band_grid(haldane_solver(), 12)
        assert grid.zone_width == np.inf
        split = np.abs(grid.energies[..., 1] - grid.energies[..., 0])
        assert grid.min_gap(0) == grid.min_gap(1) == np.min(split)


class TestChernNumber:
    def test_zero_field(self):
        field = fq.CurvatureField(flux=np.zeros((6, 6)), min_gap=1.0)
        assert fq.chern_number(field) == 0

    def test_nonquantized_rejected(self):
        field = fq.CurvatureField(flux=np.full((4, 4), 0.1), min_gap=1.0)
        with pytest.raises(ValueError, match="integer"):
            fq.chern_number(field)

    def test_static_haldane_pair(self):
        grid = fq.band_grid(haldane_solver(), 24)
        numbers = [fq.chern_number(fq.berry_curvature_grid(grid, b)) for b in range(2)]
        assert numbers == [-1, 1]
        assert sum(numbers) == 0

    def test_sign_follows_chirality(self):
        grid = fq.band_grid(haldane_solver(k_eff=-0.1), 24)
        numbers = [fq.chern_number(fq.berry_curvature_grid(grid, b)) for b in range(2)]
        assert numbers == [1, -1]


@pytest.fixture(scope="module")
def driven_grid():
    drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
    n_max = fq.suggested_n_max(1.0)
    solver = fq.floquet_band_solver(
        lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, n_max), n_max + 6)
    return fq.band_grid(solver, 24)


class TestDrivenHoneycomb:
    def test_chern_numbers(self, driven_grid):
        numbers = [fq.chern_number(fq.berry_curvature_grid(driven_grid, b))
                   for b in range(2)]
        assert sorted(numbers) == [-1, 1]

    def test_matches_effective_model(self, driven_grid):
        pars = fq.haldane_effective(1.0, 1.0, 10.0)
        static_grid = fq.band_grid(haldane_solver(pars.j_eff, pars.k_eff), 24)
        driven = [fq.chern_number(fq.berry_curvature_grid(driven_grid, b))
                  for b in range(2)]
        static = [fq.chern_number(fq.berry_curvature_grid(static_grid, b))
                  for b in range(2)]
        assert driven == static

    def test_polarization_reversal_flips(self, driven_grid):
        drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
        n_max = fq.suggested_n_max(1.0)
        solver = fq.floquet_band_solver(
            lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, n_max).time_reversed(),
            n_max + 6)
        reversed_grid = fq.band_grid(solver, 24)
        forward = [fq.chern_number(fq.berry_curvature_grid(driven_grid, b))
                   for b in range(2)]
        backward = [fq.chern_number(fq.berry_curvature_grid(reversed_grid, b))
                    for b in range(2)]
        assert backward == [-c for c in forward]

    def test_quantization_residual(self, driven_grid):
        for band in range(2):
            field = fq.berry_curvature_grid(driven_grid, band)
            total = field.total / (2.0 * np.pi)
            assert abs(total - round(total)) < 1e-3


def test_grid_refinement_stability():
    grid_c = fq.band_grid(haldane_solver(), 12)
    grid_f = fq.band_grid(haldane_solver(), 24)
    for band in range(2):
        coarse = fq.chern_number(fq.berry_curvature_grid(grid_c, band))
        fine = fq.chern_number(fq.berry_curvature_grid(grid_f, band))
        assert coarse == fine


def test_band_grid_connects_by_overlap():
    # a model whose bands cross in energy along k: energy sorting would
    # swap them, overlap tracking must not
    def solver(kx, ky):
        h = (0.2 + np.cos(kx)) * SIGMA_Z + 1e-4 * SIGMA_X
        w, v = np.linalg.eigh(h)
        return w, v

    grid = fq.band_grid(solver, 16, b1=np.array([2 * np.pi, 0.0]),
                        b2=np.array([0.0, 2 * np.pi]))
    # overlap-connected bands follow the eigenvector character, so the
    # first band stays dominantly |0> or |1> across the whole grid
    first = np.abs(grid.vectors[:, :, 0, 0])
    assert (first > 0.9).all() or (first < 0.1).all()
