import numpy as np
import pytest

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Y, SIGMA_Z

FIRST_J0_ROOT = 2.404825557695773
# frozen from the series itself, summed to 50 and to 200 terms (agreeing to < 1e-14)
K_EFF_A1_W10 = -0.03239708085906415


class TestVanVleck:
    def test_commuting_modes_no_correction(self):
        modes = fq.FourierModeSet(5.0, np.stack([0.3 * SIGMA_Z, SIGMA_Z, 0.3 * SIGMA_Z]))
        report = fq.van_vleck_hf(modes)
        np.testing.assert_allclose(report.correction, 0.0, atol=1e-15)
        np.testing.assert_allclose(report.total, SIGMA_Z, atol=1e-15)

    def test_circular_drive_opens_gap(self):
        # raising/lowering harmonics: the commutator picks out sigma_z
        omega = 20.0
        h1 = 0.5 * (SIGMA_X - 1j * SIGMA_Y)
        modes = fq.FourierModeSet(
            omega, np.stack([h1.conj().T, np.zeros((2, 2), dtype=complex), h1]))
        report = fq.van_vleck_hf(modes)
        expected = (h1.conj().T @ h1 - h1 @ h1.conj().T) / omega
        np.testing.assert_allclose(report.correction, expected, atol=1e-15)
        assert np.max(np.abs(report.correction - report.correction.conj().T)) < 1e-15

    def test_dirac_point_gap_against_sambe(self):
        # weak circular drive: second-order gap 2A^2/omega vs the exact
        # extended-space splitting, 5% relative
        drive = fq.DriveProtocol(omega=20.0, amplitude=0.2, polarization="circular")
        modes = fq.dirac_modes(0.0, 0.0, drive)
        vv = np.linalg.eigvalsh(fq.van_vleck_hf(modes).total)
        gap_vv = vv[1] - vv[0]
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 8)))
        gap_sambe = sol.quasienergies[1] - sol.quasienergies[0]
        assert gap_vv == pytest.approx(gap_sambe, rel=0.05)
        assert gap_vv == pytest.approx(2.0 * 0.2**2 / 20.0, rel=0.05)

    def test_chain_time_average_is_bessel_band(self):
        drive = fq.DriveProtocol(omega=9.0, amplitude=1.4)
        for k in (0.0, 0.9, 2.2):
            report = fq.van_vleck_hf(fq.chain_modes(k, 1.0, drive, 12))
            expected = -2.0 * fq.bessel_j(0, 1.4) * np.cos(k)
            assert np.linalg.eigvalsh(report.total)[0] == pytest.approx(expected, abs=1e-12)

    def test_correction_vanishes_at_high_frequency(self):
        def norm_at(omega):
            drive = fq.DriveProtocol(omega=omega, amplitude=1.0, polarization="circular")
            return fq.van_vleck_hf(fq.dirac_modes(0.3, 0.1, drive)).correction_norm

        assert norm_at(200.0) < 0.5 * norm_at(20.0)


class TestEffectiveHopping:
    def test_zero_drive(self):
        assert fq.effective_hopping_1d(1.3, 0.0) == pytest.approx(1.3)

    def test_dynamical_localization_root(self):
        assert abs(fq.effective_hopping_1d(1.0, FIRST_J0_ROOT)) < 1e-12

    def test_sign_reversal(self):
        assert fq.effective_hopping_1d(1.0, 3.0) < 0.0


class TestHaldaneEffective:
    def test_zero_drive(self):
        pars = fq.haldane_effective(1.0, 0.0, 10.0)
        assert pars.j_eff == pytest.approx(1.0)
        assert pars.k_eff == 0.0

    def test_inverse_frequency_scaling(self):
        low = fq.haldane_effective(1.0, 1.0, 10.0).k_eff
        high = fq.haldane_effective(1.0, 1.0, 20.0).k_eff
        assert low / high == pytest.approx(2.0, rel=1e-12)

    def test_series_self_consistency_and_frozen_value(self):
        k_eff = fq.haldane_effective(1.0, 1.0, 10.0).k_eff
        ns = np.arange(1, 201)
        wide = -0.2 * np.sum(fq.bessel_j(ns, 1.0) ** 2 * np.sin(2.0 * np.pi * ns / 3.0) / ns)
        assert abs(k_eff - wide) < 1e-14
        assert k_eff == pytest.approx(K_EFF_A1_W10, abs=1e-15)

    def test_shares_bessel_factor_with_chain(self):
        for amplitude in (0.3, 1.0, 2.2):
            pars = fq.haldane_effective(0.8, amplitude, 12.0)
            assert pars.j_eff == fq.effective_hopping_1d(0.8, amplitude)

    @staticmethod
    def per_order_k_eff(hopping, amplitude, omega, terms):
        series = 0.0
        for n in range(1, terms + 1):
            series += fq.bessel_j(n, amplitude) ** 2 * np.sin(2.0 * np.pi * n / 3.0) / n
        return -2.0 * hopping**2 / omega * series

    @pytest.mark.parametrize("terms", [20, 60, 200])
    @pytest.mark.parametrize("amplitude", [0.3, 1.0, 2.9])
    def test_series_matches_per_order_sum(self, terms, amplitude):
        # the array sum, stopped where J_n(A) is negligible, against a term-by-term
        # loop of any length past that point
        k_eff = fq.haldane_effective(0.9, amplitude, 7.0).k_eff
        assert abs(k_eff - self.per_order_k_eff(0.9, amplitude, 7.0, terms)) < 1e-15

    @pytest.mark.parametrize("amplitude", [1.0, 45.0, 50.0, 200.0, 1000.0])
    def test_series_converged_at_large_amplitude(self, amplitude):
        # a fixed 60 terms left 2.3e-13 of the series out at A = 45, 7.9e-10 at 50
        k_eff = fq.haldane_effective(0.9, amplitude, 7.0).k_eff
        reference = self.per_order_k_eff(0.9, amplitude, 7.0, int(2 * amplitude) + 200)
        assert abs(k_eff - reference) < 1e-16

    def test_matches_van_vleck_exactly(self):
        # the commutator sum over the honeycomb modes reproduces the
        # closed-form parameters term by term, so the effective Bloch
        # matrix and the expansion coincide to rounding
        drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
        pars = fq.haldane_effective(1.0, 1.0, 10.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            kx, ky = rng.uniform(-2.0, 2.0, 2)
            vv = fq.van_vleck_hf(fq.honeycomb_modes(kx, ky, 1.0, drive, 40))
            static = fq.haldane_bloch(kx, ky, pars.j_eff, pars.k_eff)
            assert np.max(np.abs(vv.total - static)) < 1e-12

    def test_sign_flips_under_polarization_reversal(self):
        drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
        modes = fq.honeycomb_modes(0.7, -0.4, 1.0, drive, 30)
        forward = fq.van_vleck_hf(modes).correction
        backward = fq.van_vleck_hf(modes.time_reversed()).correction
        np.testing.assert_allclose(backward, -forward, atol=1e-14)


class TestDiracGap:
    def test_zero_drive(self):
        assert fq.dirac_gap(0.0, 5.0) == 0.0

    def test_reference_point(self):
        assert fq.dirac_gap(1.0, 5.0) == pytest.approx(np.sqrt(29.0) - 5.0, abs=1e-14)
        assert fq.dirac_gap(1.0, 5.0) == pytest.approx(0.3851648, abs=1e-7)

    def test_against_sambe_splitting(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.0, 0.0, drive), 12)))
        assert sol.quasienergies[1] - sol.quasienergies[0] == pytest.approx(
            fq.dirac_gap(1.0, 5.0), abs=1e-6)


def test_order_consistency_scaling():
    # residual against the extended-space spectrum drops ~4x when the
    # drive frequency doubles (the truncation is second order)
    def residual(omega):
        drive = fq.DriveProtocol(omega=omega, amplitude=0.5, polarization="circular")
        worst = 0.0
        for kx, ky in [(0.0, 0.0), (0.3, 0.1), (0.6, -0.4), (1.0, 0.5), (-0.8, 0.2)]:
            modes = fq.dirac_modes(kx, ky, drive)
            vv = np.sort(np.linalg.eigvalsh(fq.van_vleck_hf(modes).total))
            sam = np.sort(fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, 10))).quasienergies)
            worst = max(worst, float(np.max(np.abs(vv - sam))))
        return worst

    ratio = residual(10.0) / residual(20.0)
    assert 3.0 <= ratio <= 5.0
