"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; every tolerance is pinned in the assertions below, and each
criterion also enforces its wall-time budget.
"""

import math
import time
import warnings

import numpy as np
import pytest

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Z

FIRST_J0_ROOT = 2.404825557695773


class _Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} "
              f"({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
        return False


def chain_band(amplitude, omega=8.0, n_k=64):
    drive = fq.DriveProtocol(omega=omega, amplitude=amplitude)
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    n_max = fq.suggested_n_max(amplitude)
    band = np.empty(n_k)
    for i, k in enumerate(ks):
        modes = fq.fourier_modes(
            lambda t: fq.sample_chain_1d(k, 1.0, drive, t), omega, n_max)
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, n_max + 6)))
        band[i] = sol.quasienergies[0]
    return ks, band


def test_criterion_01_bessel_renormalized_band():
    with _Budget(1, "driven-chain band equals -2J J0(E/w) cos k", 5.0):
        for ratio in (0.5, 1.0, 2.0):
            ks, band = chain_band(ratio)
            expected = -2.0 * fq.bessel_j(0, ratio) * np.cos(ks)
            assert np.max(np.abs(band - expected)) < 1e-7


def test_criterion_02_dynamical_localization():
    with _Budget(2, "bandwidth collapses at the first J0 root", 5.0):
        with warnings.catch_warnings():  # vanishing H_0 is no aliasing
            warnings.simplefilter("error")
            _, band = chain_band(FIRST_J0_ROOT)
        assert np.ptp(band) < 1e-6


def test_criterion_03_dirac_gap():
    with _Budget(3, "light-induced Dirac gap sqrt(w^2+4A^2)-w at M=12", 10.0):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.0, 0.0, drive), 12)))
        gap = sol.quasienergies[1] - sol.quasienergies[0]
        assert abs(gap - (math.sqrt(29.0) - 5.0)) < 1e-6


def test_criterion_04_oracle_equivalence():
    with _Budget(4, "monodromy eigenphases match extended-space spectra mod w", 60.0):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            model = ("chain1d", "dirac", "honeycomb")[trial % 3]
            amplitude = float(rng.uniform(0.2, 1.5))
            omega = float(rng.uniform(4.0, 12.0))
            if model == "chain1d":
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude)
                k = float(rng.uniform(-np.pi, np.pi))
                sampler = lambda t: fq.sample_chain_1d(k, 1.0, drive, t)
                modes = fq.chain_modes(k, 1.0, drive, fq.suggested_n_max(amplitude))
            elif model == "dirac":
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude,
                                         polarization="circular")
                kx, ky = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
                sampler = lambda t: fq.sample_dirac(kx, ky, drive, t)
                modes = fq.dirac_modes(kx, ky, drive)
            else:
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude,
                                         polarization="circular")
                kx, ky = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
                sampler = lambda t: fq.sample_honeycomb(kx, ky, 1.0, drive, t)
                modes = fq.honeycomb_modes(kx, ky, 1.0, drive,
                                           fq.suggested_n_max(amplitude))
            phys = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, modes.n_max + 6)))
            oracle = fq.quasienergies_from_monodromy(
                fq.monodromy(sampler, omega, n_steps=32768), omega)
            for eps in phys.quasienergies:
                deviation = min(abs(fq.fold_to_bz(eps - ref, omega)) for ref in oracle)
                assert deviation < 1e-7


def test_criterion_05_gauge_invariance_of_hf():
    with _Budget(5, "H_F(s) spectra agree mod w for random s", 10.0):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        sampler = lambda t: fq.sample_dirac(0.4, -0.3, drive, t)
        rng = np.random.default_rng(7)
        s1, s2 = (float(v) for v in rng.uniform(0.0, drive.period, 2))
        hf1 = fq.stroboscopic_hf(sampler, s1, drive.omega, n_steps=8192)
        hf2 = fq.stroboscopic_hf(sampler, s2, drive.omega, n_steps=8192)
        for e1 in hf1.eigenvalues:
            deviation = min(abs(fq.fold_to_bz(e1 - e2, drive.omega))
                            for e2 in hf2.eigenvalues)
            assert deviation < 1e-7


def test_criterion_06_high_frequency_scaling():
    with _Budget(6, "second-order residual drops ~4x when w doubles", 30.0):
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


def test_criterion_07_floquet_haldane_topology():
    with _Budget(7, "driven honeycomb carries Chern numbers {+1, -1}", 120.0):
        drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
        n_max = fq.suggested_n_max(1.0)
        nk = 24

        def chern_pair(builder):
            solver = fq.floquet_band_solver(builder, n_max + 6)
            grid = fq.band_grid(solver, nk)
            numbers, residuals = [], []
            for band in range(2):
                field = fq.berry_curvature_grid(grid, band)
                number = fq.chern_number(field)
                numbers.append(number)
                residuals.append(abs(field.total / (2.0 * np.pi) - number))
            return numbers, residuals

        forward, residuals = chern_pair(
            lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, n_max))
        assert sorted(forward) == [-1, 1]
        assert max(residuals) < 1e-3
        # the closed-form effective model carries the same pair
        pars = fq.haldane_effective(1.0, 1.0, 10.0)
        static_grid = fq.band_grid(
            fq.bloch_band_solver(lambda kx, ky: fq.haldane_bloch(kx, ky, pars.j_eff,
                                                                 pars.k_eff)), nk)
        static = [fq.chern_number(fq.berry_curvature_grid(static_grid, b))
                  for b in range(2)]
        assert static == forward
        # reversing the polarization flips both signs
        backward, _ = chern_pair(
            lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, n_max).time_reversed())
        assert backward == [-c for c in forward]


def test_criterion_08_greens_functions():
    with _Budget(8, "Dyson solution: adjoint symmetry, FDT, sideband peaks", 60.0):
        omega, gamma = 5.0, 0.05
        bath = fq.BathSpec(gamma=gamma, beta=20.0)
        nu = np.linspace(-0.5 * omega, 0.5 * omega, 401, endpoint=False)
        drive = fq.DriveProtocol(omega=omega, amplitude=1.0)

        # (a) the adjoint of G^R solves the advanced Dyson equation, everywhere
        modes = fq.chain_modes(0.9, 1.0, drive, 12)
        grid = fq.floquet_greens(modes, bath, 18, nu)
        eye = np.eye(grid.g_retarded.shape[1])
        h_f = fq.build_floquet_matrix(modes, 18).matrix
        g_a = np.linalg.inv((nu[:, None, None] - 1j * gamma) * eye - h_f)
        assert (np.max(np.abs(g_a - grid.g_retarded.conj().transpose(0, 2, 1)))
                < 1e-12 * np.max(np.abs(g_a)))

        # (b) zero drive: Keldysh obeys the equilibrium relation blockwise
        static = fq.FourierModeSet(omega, np.array([[[0.0]], [[0.3]], [[0.0]]], dtype=complex))
        eq_grid = fq.floquet_greens(static, bath, 6, nu)
        energies = np.repeat(np.arange(-6, 7) * omega, 1)
        thermal = np.tanh(0.5 * 20.0 * (eq_grid.nu[:, None] + energies[None, :]))
        eq_g_a = eq_grid.g_retarded.conj().transpose(0, 2, 1)
        target = thermal[:, :, None] * (eq_grid.g_retarded - eq_g_a)
        assert np.max(np.abs(eq_grid.g_keldysh - target)) < 1e-10

        # (c) every spectral peak of the driven chain sits on the
        # quasienergy ladder eps + n w to within 2 gamma
        for k in (0.3, 0.9, 2.0):
            modes_k = fq.chain_modes(k, 1.0, drive, 12)
            grid_k = fq.floquet_greens(modes_k, bath, 18, nu)
            freqs, spec = fq.spectral_function(grid_k)
            sol = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes_k, 18)))
            ladder = sol.quasienergies[0] + np.arange(-18, 19) * omega
            interior = (freqs[1:-1] > freqs[0] + 4 * gamma) & \
                       (freqs[1:-1] < freqs[-1] - 4 * gamma)
            is_peak = (spec[1:-1] > spec[:-2]) & (spec[1:-1] > spec[2:]) & \
                      (spec[1:-1] > 0.002 * spec.max()) & interior
            peaks = freqs[1:-1][is_peak]
            assert len(peaks) >= 3
            for peak in peaks:
                assert np.min(np.abs(ladder - peak)) < 2.0 * gamma


def test_criterion_09_lindblad_decay_and_ness():
    with _Budget(9, "analytic decay, trace conservation, periodic steady state", 30.0):
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        gamma = 0.5
        undriven = fq.LindbladSystem(hamiltonian=lambda t: 0.5 * SIGMA_Z,
                                     jumps=[np.sqrt(gamma) * lowering])
        excited = np.diag([0.0, 1.0]).astype(complex)
        traj = fq.evolve_lindblad(undriven, excited, (0.0, 1.0), 1e-3)
        assert len(traj.times) == 1001
        assert np.max(np.abs(traj.states[:, 1, 1].real
                             - np.exp(-gamma * traj.times))) < 1e-8
        assert abs(np.trace(traj.states[-1]) - 1.0) < 1e-9  # drift per 1000 steps

        omega = 2.0 * np.pi
        period = 2.0 * np.pi / omega
        driven = fq.LindbladSystem(
            hamiltonian=lambda t: 0.4 * SIGMA_Z + 0.7 * np.cos(omega * t) * SIGMA_X,
            jumps=[np.sqrt(0.4) * lowering])
        ness = fq.find_ness(driven, omega, tol=1e-9)
        assert np.max(np.abs(ness.states[-1] - ness.states[0])) < 1e-7
        long_run = fq.evolve_lindblad(driven, excited, (0.0, 120 * period), period / 256)
        assert np.max(np.abs(long_run.states[-1] - ness.rho0)) < 1e-6


def test_criterion_10_property_suites():
    with _Budget(10, "replica covariance, folding, Bessel and gauge identities", 60.0):
        # replica covariance on random physical states
        drive = fq.DriveProtocol(omega=8.0, amplitude=0.5, polarization="circular")
        modes = fq.dirac_modes(0.3, -0.4, drive)
        fm = fq.build_floquet_matrix(modes, 8)
        phys = fq.select_physical_band(fq.quasienergies(fm))
        rng = np.random.default_rng(5)
        for _ in range(5):
            col = int(rng.integers(0, phys.n_states))
            shift = int(rng.choice([-2, -1, 1, 2]))
            blocks = phys.vectors[:, col].reshape(phys.n_blocks, phys.dim)
            shifted = np.zeros_like(blocks)
            if shift > 0:
                shifted[shift:] = blocks[:-shift]
            else:
                shifted[:shift] = blocks[-shift:]
            flat = shifted.reshape(-1)
            target = phys.raw_energies[col] - shift * drive.omega
            assert np.linalg.norm(fm.matrix @ flat - target * flat) < 1e-8

        # folding conventions
        assert fq.fold_to_bz(0.5, 1.0) == -0.5
        assert fq.fold_to_bz(-7.3, 2.0) == pytest.approx(0.7, abs=1e-12)
        for eps in rng.uniform(-30.0, 30.0, 50):
            folded = fq.fold_to_bz(eps, 3.0)
            assert -1.5 <= folded < 1.5
            assert fq.fold_to_bz(eps + 3.0, 3.0) == pytest.approx(folded, abs=1e-10)

        # Bessel identities
        assert fq.bessel_j(0, 0.0) == 1.0
        assert abs(fq.bessel_j(0, FIRST_J0_ROOT)) < 1e-10
        for x in (0.7, 1.7, 5.0):
            total = fq.bessel_j(0, x) ** 2 + 2.0 * sum(
                fq.bessel_j(n, x) ** 2 for n in range(1, 60))
            assert abs(total - 1.0) < 1e-12

        # curvature gauge invariance under random phase relabeling
        grid = fq.band_grid(
            fq.bloch_band_solver(lambda kx, ky: fq.haldane_bloch(kx, ky, 1.0, 0.1)), 10)
        field = fq.berry_curvature_grid(grid, 0)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, grid.vectors.shape[:2]))
        relabeled = fq.BandGrid(nk=grid.nk, b1=grid.b1, b2=grid.b2,
                                energies=grid.energies,
                                vectors=grid.vectors * phases[:, :, None, None])
        field2 = fq.berry_curvature_grid(relabeled, 0)
        assert np.max(np.abs(field2.flux - field.flux)) < 1e-12
