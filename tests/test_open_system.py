import math
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Z

LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
CIRCULAR_DRIVE = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")


def static_level(energy=0.0, omega=1.0, n_max=0):
    modes = np.zeros((2 * n_max + 1, 1, 1), dtype=complex)
    modes[n_max] = energy
    return fq.FourierModeSet(omega, modes)


def fbz_grid(omega, points=401):
    return np.linspace(-0.5 * omega, 0.5 * omega, points, endpoint=False)


def reference_block_trace(grid, matrices, n):
    """Trace of diagonal block n, sliced out one block at a time."""
    d, m0 = grid.dim, grid.m_cut
    sl = slice((n + m0) * d, (n + m0 + 1) * d)
    return np.trace(matrices[:, sl, sl], axis1=1, axis2=2)


def reference_unfold(grid, per_block):
    axis, values = [], []
    for n in range(-grid.m_cut, grid.m_cut + 1):
        axis.append(grid.nu + n * grid.omega)
        values.append(per_block(n))
    axis = np.concatenate(axis)
    values = np.concatenate(values)
    order = np.argsort(axis, kind="stable")
    return axis[order], values[order]


def reference_spectral(grid, g_r):
    return reference_unfold(
        grid, lambda n: -np.imag(reference_block_trace(grid, g_r, n)) / np.pi)


def reference_occupation(grid, g_r, g_k):
    g_a = g_r.conj().transpose(0, 2, 1)

    def per_block(n):
        lesser = 0.5 * (reference_block_trace(grid, g_k, n)
                        - reference_block_trace(grid, g_r, n)
                        + reference_block_trace(grid, g_a, n))
        return np.real(lesser / (2j * np.pi))

    return reference_unfold(grid, per_block)


def dense_dyson(modes, bath, m_cut, nu):
    """G^R and G^K by one dense inverse per frequency and the full G^R Sigma^K G^A."""
    big = fq.build_floquet_matrix(modes, m_cut).matrix
    g_r = np.linalg.inv((nu[:, None, None] + 1j * bath.gamma) * np.eye(len(big)) - big)
    block_index = np.repeat(np.arange(-m_cut, m_cut + 1), modes.dim)
    _, sigma_k = fq.bath_self_energy(bath, nu[:, None], block_index, modes.omega)
    g_k = np.einsum("fij,fj,fkj->fik", g_r, sigma_k, g_r.conj())
    return g_r, g_k


CHAIN = fq.chain_modes(0.9, 1.0, fq.DriveProtocol(omega=5.0, amplitude=1.0), 8)
HONEYCOMB = fq.honeycomb_modes(
    0.5, -0.3, 1.0, fq.DriveProtocol(omega=6.0, amplitude=1.2, polarization="circular"), 5)
MODELS = [("chain1d", CHAIN), ("honeycomb", HONEYCOMB)]


class TestBathSelfEnergy:
    def test_zero_temperature_sign(self):
        bath = fq.BathSpec(gamma=0.1, beta=math.inf)
        sig_r, sig_k = fq.bath_self_energy(bath, 0.3, 1, 2.0)
        assert sig_r == -0.1j
        assert sig_k == -0.2j

    def test_vanishes_at_zero_frequency(self):
        bath = fq.BathSpec(gamma=0.1, beta=7.0)
        _, sig_k = fq.bath_self_energy(bath, -2.0, 1, 2.0)
        assert sig_k == pytest.approx(0.0, abs=1e-15)

    def test_finite_temperature_point(self):
        bath = fq.BathSpec(gamma=0.05, beta=10.0)
        _, sig_k = fq.bath_self_energy(bath, 0.2, 0, 1.0)
        assert sig_k == pytest.approx(-2j * 0.05 * np.tanh(1.0), abs=1e-12)
        assert sig_k.imag == pytest.approx(-0.0761594, abs=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fq.BathSpec(gamma=0.0, beta=1.0)
        with pytest.raises(ValueError):
            fq.BathSpec(gamma=0.1, beta=-2.0)


class TestFloquetGreens:
    def test_static_level_lorentzian(self):
        gamma = 0.1
        grid = fq.floquet_greens(static_level(0.4), fq.BathSpec(gamma=gamma, beta=5.0),
                                 3, fbz_grid(1.0))
        m0 = grid.m_cut
        center = grid.dim * m0
        g00 = grid.g_retarded[:, center, center]
        expected = 1.0 / (grid.nu - 0.4 + 1j * gamma)
        np.testing.assert_allclose(g00, expected, atol=1e-12)

    def test_equilibrium_fluctuation_dissipation(self):
        # zero drive: G^K = tanh(beta (nu + n omega)/2) (G^R - G^A) blockwise
        beta, omega = 6.0, 1.5
        grid = fq.floquet_greens(static_level(0.2, omega, n_max=2),
                                 fq.BathSpec(gamma=0.08, beta=beta), 5,
                                 fbz_grid(omega, 101))
        block_energies = np.repeat(np.arange(-5, 6) * omega, 1)
        thermal = np.tanh(0.5 * beta * (grid.nu[:, None] + block_energies[None, :]))
        g_a = grid.g_retarded.conj().transpose(0, 2, 1)
        gka = thermal[:, :, None] * (grid.g_retarded - g_a)
        assert np.max(np.abs(grid.g_keldysh - gka)) < 1e-10

    def test_retarded_positivity(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0)
        modes = fq.chain_modes(0.3, 1.0, drive, 10)
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=0.05, beta=20.0),
                                 14, fbz_grid(5.0, 101))
        diag = np.diagonal(grid.g_retarded, axis1=1, axis2=2)
        assert np.min(-np.imag(diag)) > -1e-10

    def test_driven_chain_sidebands_at_quasienergies(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0)
        gamma = 0.05
        k = 0.9
        modes = fq.chain_modes(k, 1.0, drive, 12)
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=gamma, beta=20.0),
                                 18, fbz_grid(5.0))
        freqs, spec = fq.spectral_function(grid)
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 18)))
        eps = sol.quasienergies[0]
        inner = (freqs[1:-1] > freqs[0] + 4 * gamma) & (freqs[1:-1] < freqs[-1] - 4 * gamma)
        is_peak = (spec[1:-1] > spec[:-2]) & (spec[1:-1] > spec[2:]) & \
                  (spec[1:-1] > 0.01 * spec.max()) & inner
        peaks = freqs[1:-1][is_peak]
        assert len(peaks) >= 3  # central line plus sidebands
        ladder = eps + np.arange(-18, 19) * drive.omega
        for peak in peaks:
            assert np.min(np.abs(ladder - peak)) < 2.0 * gamma


class TestSpectralFunction:
    def test_sum_rule_and_positivity(self):
        # FBZ window spans 650 gamma here; the truncated Lorentzian mass
        # is 1 - 2/(pi * 650), inside 1e-3 of one
        gamma = 0.01
        grid = fq.floquet_greens(static_level(0.0), fq.BathSpec(gamma=gamma, beta=50.0),
                                 6, fbz_grid(1.0))
        freqs, spec = fq.spectral_function(grid)
        assert np.all(spec >= 0.0)
        total = np.sum(spec) * (freqs[1] - freqs[0])
        assert abs(total - 1.0) < 1e-3

    def test_weak_drive_sideband_ratio(self):
        # commuting level drive: sideband weights are squared first-order
        # Bessel factors, (a/2 omega)^2 at small a
        a_drive, omega = 0.1, 1.0
        sampler = lambda t: 0.3 * SIGMA_Z + a_drive * np.cos(omega * t) * SIGMA_Z
        modes = fq.fourier_modes(sampler, omega, 3)
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=0.004, beta=50.0), 8,
                                 fbz_grid(omega, 1601))
        freqs, spec = fq.spectral_function(grid)

        def height(center):
            window = np.abs(freqs - center) < 0.05
            return spec[window].max()

        ratio_plus = height(0.3 + omega) / height(0.3)
        ratio_minus = height(0.3 - omega) / height(0.3)
        expected = (a_drive / (2.0 * omega)) ** 2
        assert ratio_plus == pytest.approx(expected, rel=0.2)
        assert ratio_minus == pytest.approx(expected, rel=0.2)


class TestOccupationFunction:
    def test_zero_temperature_step(self):
        grid = fq.floquet_greens(static_level(0.0), fq.BathSpec(gamma=0.05, beta=math.inf),
                                 6, fbz_grid(1.0))
        freqs, spec = fq.spectral_function(grid)
        _, occ = fq.occupation_function(grid)
        below = freqs < -1e-9
        above = freqs > 1e-9
        assert np.max(np.abs(occ[below] - spec[below])) < 1e-8
        assert np.max(np.abs(occ[above])) < 1e-8

    def test_bounded_by_spectrum(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0)
        modes = fq.chain_modes(0.9, 1.0, drive, 12)
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=0.05, beta=20.0),
                                 18, fbz_grid(5.0))
        freqs, spec = fq.spectral_function(grid)
        _, occ = fq.occupation_function(grid)
        assert np.min(occ) > -1e-8
        assert np.max(occ - spec) < 1e-8

    def test_driven_chain_nonthermal_sidebands(self):
        # sideband occupation above the chemical potential; value frozen
        # as a regression constant from the first computation
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0)
        modes = fq.chain_modes(0.9, 1.0, drive, 12)
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=0.05, beta=20.0),
                                 18, fbz_grid(5.0))
        freqs, occ = fq.occupation_function(grid)
        dnu = freqs[1] - freqs[0]
        above = float(np.sum(occ[freqs > 0.25]) * dnu)
        assert above > 1e-3
        assert above == pytest.approx(0.018496274263404788, rel=1e-6)


class TestGreensAtTaskDefaults:
    """One k of the chain at the benchmark's drive and 401 frequencies, at M 17.

    M 17 was the greens task's default there before it followed the drive
    (cli.default_replica_cutoff gives 10); the larger Sambe space is kept
    as the harder case for the memory bound below.
    """

    MODES = fq.chain_modes(0.9, 1.0, fq.DriveProtocol(omega=5.0, amplitude=1.0), 15)

    @pytest.mark.parametrize("beta", [20.0, math.inf])
    def test_occupation_nonnegative_and_bounded_by_spectrum(self, beta):
        grid = fq.floquet_greens(self.MODES, fq.BathSpec(gamma=0.05, beta=beta), 17,
                                 fbz_grid(5.0))
        _, spec = fq.spectral_function(grid)
        _, occ = fq.occupation_function(grid)
        assert spec.min() >= 0.0 and occ.min() >= 0.0
        assert np.all(occ <= spec + 1e-15 * spec.max())

    def test_observables_form_no_retarded_matrix_per_frequency(self):
        # one (401, 35, 35) complex G^R is 7.5 MiB; the observables need half its columns
        tracemalloc.start()
        try:
            grid = fq.floquet_greens(self.MODES, fq.BathSpec(gamma=0.05, beta=20.0), 17,
                                     fbz_grid(5.0))
            fq.spectral_function(grid)
            fq.occupation_function(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestDenseDysonOracle:
    @pytest.mark.parametrize("name, modes", MODELS)
    @pytest.mark.parametrize("gamma", [0.05, 1e-3])
    # at beta 0.2 the bath occupies every column of G^R somewhere on the grid
    @pytest.mark.parametrize("beta", [20.0, math.inf, 0.2])
    def test_observables_match_dense_inverse(self, name, modes, gamma, beta):
        bath = fq.BathSpec(gamma=gamma, beta=beta)
        m_cut, nu = modes.n_max + 3, fbz_grid(modes.omega, 101)
        grid = fq.floquet_greens(modes, bath, m_cut, nu)
        g_r, g_k = dense_dyson(modes, bath, m_cut, nu)
        assert np.max(np.abs(grid.g_keldysh - g_k)) < 1e-10 * np.max(np.abs(g_k))
        for got, want in ((fq.spectral_function(grid), reference_spectral(grid, g_r)),
                          (fq.occupation_function(grid), reference_occupation(grid, g_r, g_k))):
            assert np.array_equal(got[0], want[0])
            assert np.max(np.abs(got[1] - want[1])) < 1e-10


class TestBlockTraceObservables:
    @pytest.mark.parametrize("name, modes", MODELS)
    @pytest.mark.parametrize("beta", [20.0, math.inf])
    def test_identical_to_per_block_traces(self, name, modes, beta):
        grid = fq.floquet_greens(modes, fq.BathSpec(gamma=0.05, beta=beta),
                                 modes.n_max + 3, fbz_grid(modes.omega, 101))
        # A and N come from the eigenbasis, not from the G^R and G^K matrices
        freqs, spec = fq.spectral_function(grid)
        want_freqs, want_spec = reference_spectral(grid, grid.g_retarded)
        assert np.array_equal(freqs, want_freqs)
        np.testing.assert_allclose(spec, want_spec, rtol=0, atol=1e-14)
        occ_freqs, occ = fq.occupation_function(grid)
        want_freqs, want_occ = reference_occupation(grid, grid.g_retarded, grid.g_keldysh)
        assert np.array_equal(occ_freqs, want_freqs)
        np.testing.assert_allclose(occ, want_occ, rtol=0, atol=1e-14)

    def test_block_traces_layout(self):
        grid = fq.floquet_greens(HONEYCOMB, fq.BathSpec(gamma=0.05, beta=5.0), 6,
                                 fbz_grid(6.0, 11))
        traces = grid.block_traces(np.diagonal(grid.g_keldysh, axis1=1, axis2=2))
        assert traces.shape == (11, grid.n_blocks)
        for n in range(-6, 7):
            assert np.array_equal(traces[:, n + 6],
                                  reference_block_trace(grid, grid.g_keldysh, n))


class TestUnfoldedAxis:
    def test_block_major_axis_is_the_sorted_axis(self):
        # zone grids drawn over wide ranges: the block-major nu + n omega ascends as it
        # stands, equal to what a stable argsort of it returns
        rng = np.random.default_rng(37)
        for _ in range(200):
            omega = 10.0 ** rng.uniform(-1.0, 3.0)
            points = int(np.round(10.0 ** rng.uniform(0.0, np.log10(4001.0))))
            m_cut = int(rng.integers(0, 121))
            nus = [fbz_grid(omega, points),
                   np.unique(rng.uniform(-0.5 * omega, 0.5 * omega, points))]
            for nu in nus:
                axis = fq.open_system.unfolded_axis(nu, m_cut, omega)
                assert np.all(np.diff(axis) > 0)
                grid = SimpleNamespace(nu=nu, m_cut=m_cut, omega=omega)
                want, _ = reference_unfold(grid, lambda n: np.zeros_like(nu))
                assert np.array_equal(axis, want)

    @pytest.mark.parametrize("nu", [
        fbz_grid(2.0, 11)[::-1],                          # unsorted
        np.linspace(-1.0, 1.0, 11),                       # a point at +omega/2
        np.linspace(-2.0, 2.0, 11, endpoint=False),       # wider than one zone
        fbz_grid(2.0, 12).reshape(3, 4),                  # not 1-D
        np.array([-1.0, np.nextafter(1.0, 0.0)]),         # nu + n omega ties at a block edge
        np.array([]),                                     # no frequency
    ], ids=["unsorted", "zone-edge", "two-zones", "2-d", "edge-tie", "empty"])
    def test_grid_outside_the_rule_is_named(self, nu):
        with pytest.raises(ValueError, match="^the nu grid must be 1-D, strictly ascending "):
            fq.floquet_greens(static_level(0.3, 2.0), fq.BathSpec(gamma=0.1, beta=5.0), 2, nu)


class TestLindbladRHS:
    def test_stationary_when_commuting(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[])
        rho = np.diag([0.7, 0.3]).astype(complex)
        np.testing.assert_allclose(fq.lindblad_rhs(system, rho, 0.0), 0.0, atol=1e-15)

    def test_pure_decay_rate(self):
        gamma = 0.8
        system = fq.LindbladSystem(hamiltonian=lambda t: np.zeros((2, 2)),
                                   jumps=[np.sqrt(gamma) * LOWERING])
        excited = np.diag([0.0, 1.0]).astype(complex)
        rhs = fq.lindblad_rhs(system, excited, 0.0)
        assert rhs[1, 1].real == pytest.approx(-gamma, abs=1e-14)
        assert rhs[0, 0].real == pytest.approx(gamma, abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)

        def random_matrix(scale=1.0):
            return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))

        h = random_matrix()
        h = h + h.conj().T
        system = fq.LindbladSystem(hamiltonian=lambda t: h,
                                   jumps=[random_matrix(0.7), random_matrix(0.4)])
        rho = random_matrix()
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        assert abs(np.trace(fq.lindblad_rhs(system, rho, 0.0))) < 1e-12


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_textbook_form(self, seed):
        # -i[H, rho] + sum_j (L rho L+ - {L+L, rho}/2), for a non-Hermitian rho and a stack
        rng = np.random.default_rng(seed)

        def random_matrix(scale=1.0):
            return scale * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))

        h = random_matrix()
        h = h + h.conj().T
        jumps = [random_matrix(0.7), random_matrix(0.4)]
        system = fq.LindbladSystem(hamiltonian=lambda t: h, jumps=jumps)

        def textbook(rho):
            out = -1j * (h @ rho - rho @ h)
            for op in jumps:
                anti = op.conj().T @ op
                out = out + op @ rho @ op.conj().T - 0.5 * (anti @ rho + rho @ anti)
            return out

        rho = random_matrix()
        stack = np.array([random_matrix() for _ in range(4)])
        np.testing.assert_allclose(fq.lindblad_rhs(system, rho, 0.0), textbook(rho),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(fq.lindblad_rhs(system, stack, 0.0),
                                   [textbook(r) for r in stack], rtol=0, atol=1e-13)

    def test_jumps_are_read_only_copies(self):
        jump = np.sqrt(0.4) * LOWERING
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[jump])
        with pytest.raises(ValueError):
            system.jumps[0][0, 1] = 5.0
        jump[0, 1] = 2.0
        assert system.jumps[0][0, 1] == pytest.approx(np.sqrt(0.4))

    def test_rejects_a_jump_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"jump operator 1 has shape \(3, 3\), expected"):
            fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[LOWERING, np.eye(3)])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_jump_that_is_not_finite(self, value):
        with pytest.raises(ValueError, match="^jump operator 1 is not finite$"):
            fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z,
                              jumps=[LOWERING, np.array([[0.0, value], [0.0, 0.0]])])


class TestEvolveLindblad:
    def test_samples_the_half_step_grid_in_one_call(self):
        modes = fq.dirac_modes(0.3, -0.2, CIRCULAR_DRIVE)
        array_calls = []

        def sampler(t):
            if np.ndim(t) > 0:
                array_calls.append(np.array(t))
            return modes.sample(t)

        system = fq.LindbladSystem(hamiltonian=sampler, jumps=[np.sqrt(0.4) * LOWERING])
        period = 2.0 * np.pi / CIRCULAR_DRIVE.omega
        traj = fq.evolve_lindblad(system, np.eye(2) / 2, (0.0, period), period / 64)
        assert len(traj.times) == 65
        assert len(array_calls) == 1
        np.testing.assert_allclose(array_calls[0], np.arange(129) * (period / 128),
                                   rtol=0, atol=1e-15)

    def test_undriven_decay(self):
        gamma = 0.5
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5 * SIGMA_Z,
                                   jumps=[np.sqrt(gamma) * LOWERING])
        excited = np.diag([0.0, 1.0]).astype(complex)
        traj = fq.evolve_lindblad(system, excited, (0.0, 5.0), 1e-3)
        exact = np.exp(-gamma * traj.times)
        assert np.max(np.abs(traj.states[:, 1, 1].real - exact)) < 1e-8

    def test_hermiticity_every_step(self):
        omega = 2.0 * np.pi
        system = fq.LindbladSystem(
            hamiltonian=lambda t: 0.4 * SIGMA_Z + 0.7 * np.cos(omega * t) * SIGMA_X,
            jumps=[np.sqrt(0.4) * LOWERING])
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        traj = fq.evolve_lindblad(system, rho0, (0.0, 3.0), 5e-3)
        herm = np.max(np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)))
        assert herm < 1e-12

    def test_trace_drift_tiny(self):
        gamma = 0.5
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5 * SIGMA_Z,
                                   jumps=[np.sqrt(gamma) * LOWERING])
        excited = np.diag([0.0, 1.0]).astype(complex)
        traj = fq.evolve_lindblad(system, excited, (0.0, 1.0), 1e-3)
        assert abs(np.trace(traj.states[-1]) - 1.0) < 1e-9

    def test_trace_drift_warning_names_the_caller(self):
        # a sampler that breaks the Hermitian contract: its anti-Hermitian
        # part i a enters H_eff rho - rho H_eff^dagger and scales rho by exp(2 a t)
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5j * np.eye(2),
                                   jumps=[np.sqrt(0.5) * LOWERING])
        rho0 = np.eye(2, dtype=complex) / 2
        with pytest.warns(UserWarning, match="trace drift") as record:
            fq.evolve_lindblad(system, rho0, (0.0, 1.0), 1e-2)
        with pytest.warns(UserWarning, match="trace drift") as record_map:
            fq.one_period_map(system, 2.0 * np.pi, steps_per_period=128)
        with pytest.warns(UserWarning, match="trace drift") as record_ness, \
                pytest.raises(RuntimeError, match="not certified"):
            fq.find_ness(system, 2.0 * np.pi, steps_per_period=128)
        assert [w.filename for w in (*record, *record_map, *record_ness)] == [__file__] * 3

    def test_negativity_warning_names_the_caller(self):
        # no jumps and a diagonal H keep the populations, -0.3 included
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z)
        with pytest.warns(UserWarning, match="developed negativity -3.00e-01") as record:
            fq.evolve_lindblad(system, np.diag([1.3, -0.3]), (0.0, 0.1), 0.01)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("t_span, dt, message", [
        ((0.0, 1.0), 0.0, "dt must be a finite number > 0, got 0.0"),
        ((0.0, 1.0), -0.01, "dt must be a finite number > 0, got -0.01"),
        ((0.0, 1.0), np.nan, "dt must be a finite number > 0, got nan"),
        ((0.0, 1.0), True, "dt must be a finite number > 0, got True"),
        ((0.0, np.inf), 0.01, "t_span must be finite, got (0.0, inf)"),
        ((np.nan, 1.0), 0.01, "t_span must be finite, got (nan, 1.0)"),
    ])
    def test_names_a_bad_step_or_span(self, t_span, dt, message):
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[LOWERING])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, t_span, dt)

    def test_rejects_an_empty_span(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[LOWERING])
        with pytest.raises(ValueError, match="t1 > t0"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.5, 0.5), 0.01)

    def test_rejects_unstable_step(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: 30.0 * SIGMA_Z,
                                   jumps=[LOWERING])
        with pytest.raises(ValueError, match="stability"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.0, 1.0), 0.01)

    def test_rejects_a_narrow_pulse(self):
        # |H| peaks at 60 only near t = 0.3; the step 1/256 times that load is 0.23
        system = fq.LindbladSystem(hamiltonian=narrow_pulse, jumps=[np.sqrt(0.4) * LOWERING])
        with pytest.raises(ValueError, match="stability"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.0, 1.0), 1.0 / 256)
        with pytest.raises(ValueError, match="stability"):
            fq.find_ness(system, omega=2.0 * np.pi, steps_per_period=256)

    def test_rejects_the_rounded_up_step(self):
        # dt = 1/14.49 rounds to 14 steps of 1/14: dt load 0.0999, step load 0.1034
        h = 0.0999 * 14.49 - 0.1
        system = fq.LindbladSystem(hamiltonian=lambda t: h * SIGMA_Z,
                                   jumps=[np.sqrt(0.1) * LOWERING])
        with pytest.raises(ValueError, match="stability"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.0, 1.0), 1.0 / 14.49)

    @pytest.mark.parametrize("hamiltonian", [
        lambda t: 30.0 * SIGMA_Z,
        lambda t: narrow_pulse(t),
    ], ids=["constant", "narrow_pulse"])
    def test_unstable_step_names_the_fewest_that_pass(self, hamiltonian):
        system = fq.LindbladSystem(hamiltonian=hamiltonian, jumps=[np.sqrt(0.4) * LOWERING])
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="stability") as excinfo:
            fq.evolve_lindblad(system, rho, (0.0, 1.0), 0.01)
        prefix, _, fewest = str(excinfo.value).rpartition("; the fewest that pass are ")
        assert prefix.endswith(">= 0.1")
        fewest = int(fewest)
        fq.evolve_lindblad(system, rho, (0.0, 1.0), 1.0 / fewest)
        with pytest.raises(ValueError, match=f"the fewest that pass are {fewest}$"):
            fq.evolve_lindblad(system, rho, (0.0, 1.0), 1.0 / (fewest - 1))
        # the one-period map and find_ness give the same verdict
        with pytest.raises(ValueError, match=f"the fewest that pass are {fewest}$"):
            fq.one_period_map(system, 2.0 * np.pi, steps_per_period=fewest - 1)
        with pytest.raises(ValueError, match=f"the fewest that pass are {fewest}$"):
            fq.find_ness(system, 2.0 * np.pi, steps_per_period=100)

    @pytest.mark.parametrize("hamiltonian", [
        lambda t: narrow_pulse(t),
        lambda t: np.zeros(np.shape(t) + (2, 2), complex),
        # non-Hermitian, as in the trace-drift case
        lambda t: 0.5j * np.eye(2) + 0.3 * np.cos(2.0 * np.pi * np.asarray(t))[..., None, None]
        * SIGMA_X,
        # a fixed 3x3 matrix that is neither Hermitian nor normal, times a phase
        lambda t: np.exp(1j * np.asarray(t))[..., None, None]
        * np.array([[1.0, 2.0j, 0.0], [0.5, -1.0, 1.0 + 1.0j], [0.0, 3.0, 0.25j]]),
    ], ids=["narrow_pulse", "zero", "non_hermitian", "three_levels"])
    def test_load_takes_the_svd_two_norm(self, hamiltonian):
        jumps = [np.sqrt(0.4) * LOWERING] if np.shape(hamiltonian(0.0)) == (2, 2) else []
        system = fq.LindbladSystem(hamiltonian=hamiltonian, jumps=jumps)
        step, h, load = fq.open_system._rk4_load(system, 0.0, 1.0, 64)
        want = step * (np.max(np.linalg.norm(h, 2, axis=(1, 2)))
                       + sum(np.linalg.norm(op, 2) ** 2 for op in jumps))
        np.testing.assert_allclose(load, want, rtol=1e-13, atol=0)

    def test_fewest_steps_past_the_search_limit_are_estimated(self):
        # 10^10 steps would be sampled: the estimate is given, without a search
        system = fq.LindbladSystem(hamiltonian=lambda t: 1e9 * SIGMA_Z, jumps=[LOWERING])
        started = time.perf_counter()
        with pytest.raises(ValueError, match="; the fewest that pass are about 1e\\+10$"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.0, 1.0), 0.01)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("nan_from", [0.5, 0.0])
    def test_non_finite_hamiltonian_names_the_first_time(self, nan_from):
        def hamiltonian(t):
            return np.where(np.asarray(t) >= nan_from, np.nan, 1.0)[..., None, None] * SIGMA_Z

        system = fq.LindbladSystem(hamiltonian=hamiltonian, jumps=[LOWERING])
        with pytest.raises(ValueError, match=f"^the Hamiltonian sampler is not finite at "
                                             f"t = {nan_from:g}, the first such time"):
            fq.evolve_lindblad(system, np.eye(2, dtype=complex) / 2, (0.0, 1.0), 0.1)

    def test_long_time_state_becomes_periodic(self):
        omega = 2.0 * np.pi
        gamma = 0.4
        system = fq.LindbladSystem(
            hamiltonian=lambda t: 0.4 * SIGMA_Z + 0.7 * np.cos(omega * t) * SIGMA_X,
            jumps=[np.sqrt(gamma) * LOWERING])
        period = 2.0 * np.pi / omega
        excited = np.diag([0.0, 1.0]).astype(complex)
        settle = fq.evolve_lindblad(system, excited, (0.0, 30.0 / gamma), period / 256)
        one_more = fq.evolve_lindblad(system, settle.states[-1], (0.0, period), period / 256)
        assert np.max(np.abs(one_more.states[-1] - settle.states[-1])) < 1e-7


def narrow_pulse(t):
    """0.5 sigma_z + 60 exp(-((t mod 1 - 0.3) / 0.01)^2) sigma_x, for scalar or array t."""
    envelope = 60.0 * np.exp(-(((np.asarray(t) % 1.0) - 0.3) / 0.01) ** 2)
    return 0.5 * SIGMA_Z + envelope[..., None, None] * SIGMA_X


def reference_one_period_map(system, omega, steps_per_period):
    """Phi_T column by column, RK4 through lindblad_rhs at each stage time (the per-t oracle)."""
    step = 2.0 * np.pi / omega / steps_per_period
    d2 = system.dim ** 2
    columns = []
    for rho in np.eye(d2, dtype=complex).reshape(d2, system.dim, system.dim):
        t = 0.0
        for i in range(steps_per_period):
            k1 = fq.lindblad_rhs(system, rho, t)
            k2 = fq.lindblad_rhs(system, rho + 0.5 * step * k1, t + 0.5 * step)
            k3 = fq.lindblad_rhs(system, rho + 0.5 * step * k2, t + 0.5 * step)
            k4 = fq.lindblad_rhs(system, rho + step * k3, t + step)
            rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = (i + 1) * step
        columns.append(rho.ravel())
    return np.array(columns).T


class TestOnePeriodMap:
    @pytest.mark.parametrize("hamiltonian", [
        lambda t: fq.sample_dirac(0.3, -0.2, CIRCULAR_DRIVE, t),
        lambda t: fq.sample_honeycomb(0.4, -0.7, 1.0, CIRCULAR_DRIVE, t),
        fq.dirac_modes(0.3, -0.2, CIRCULAR_DRIVE).sample,
        lambda t: 0.4 * SIGMA_Z + 0.7 * math.cos(CIRCULAR_DRIVE.omega * t) * SIGMA_X,
    ], ids=["dirac", "honeycomb", "mode_set", "scalar_only"])
    def test_matches_per_t_reference(self, hamiltonian):
        system = fq.LindbladSystem(hamiltonian=hamiltonian, jumps=[np.sqrt(0.4) * LOWERING])
        phi = fq.one_period_map(system, CIRCULAR_DRIVE.omega, steps_per_period=256)
        want = reference_one_period_map(system, CIRCULAR_DRIVE.omega, 256)
        np.testing.assert_allclose(phi, want, rtol=0, atol=1e-13)

    def test_matches_one_integrated_period(self):
        omega, gamma = 2.0 * np.pi, 0.4
        system = fq.LindbladSystem(
            hamiltonian=lambda t: 0.4 * SIGMA_Z + 0.7 * np.cos(omega * t) * SIGMA_X,
            jumps=[np.sqrt(gamma) * LOWERING])
        rng = np.random.default_rng(7)
        root = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = root @ root.conj().T
        rho /= np.trace(rho)
        phi = fq.one_period_map(system, omega, steps_per_period=256)
        period = 2.0 * np.pi / omega
        stepped = fq.evolve_lindblad(system, rho, (0.0, period), period / 256).states[-1]
        assert phi.shape == (4, 4)
        assert np.max(np.abs((phi @ rho.ravel()).reshape(2, 2) - stepped)) < 1e-13

    @staticmethod
    def three_level_system():
        """A driven three-level system with a ladder decay and dephasing."""
        omega = CIRCULAR_DRIVE.omega
        static = np.diag([0.0, 0.7, -0.4]).astype(complex)
        coupling = np.array([[0, 0.5, 0.2j], [0.5, 0, 0.3], [-0.2j, 0.3, 0]], dtype=complex)

        def hamiltonian(t):
            return static + np.cos(omega * np.asarray(t))[..., None, None] * coupling

        jumps = [np.sqrt(0.3) * np.eye(3, k=1), np.sqrt(0.2) * np.diag([1.0, -1.0, 0.5])]
        return fq.LindbladSystem(hamiltonian=hamiltonian, jumps=jumps)

    def test_three_levels_two_jumps_match_per_t_reference(self):
        system = self.three_level_system()
        phi = fq.one_period_map(system, CIRCULAR_DRIVE.omega, steps_per_period=256)
        want = reference_one_period_map(system, CIRCULAR_DRIVE.omega, 256)
        assert phi.shape == (9, 9)
        np.testing.assert_allclose(phi, want, rtol=0, atol=1e-13)

    def test_a_stack_of_states_matches_per_t_reference(self):
        system = self.three_level_system()
        rng = np.random.default_rng(5)
        roots = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        stack = roots @ roots.conj().transpose(0, 2, 1)
        stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
        period = CIRCULAR_DRIVE.period
        states = fq.evolve_lindblad(system, stack, (0.0, period), period / 256).states
        assert states.shape == (257, 4, 3, 3)
        want = stack.reshape(4, 9) @ reference_one_period_map(system, CIRCULAR_DRIVE.omega, 256).T
        np.testing.assert_allclose(states[-1].reshape(4, 9), want, rtol=0, atol=1e-13)

    def test_trace_drift_case_matches_per_t_reference(self):
        # a non-Hermitian H: the map grows the trace, and warns, but is still RK4's
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5j * np.eye(2) + 0.3 * SIGMA_X,
                                   jumps=[np.sqrt(0.5) * LOWERING])
        with pytest.warns(UserWarning, match="trace drift"):
            phi = fq.one_period_map(system, 2.0 * np.pi, steps_per_period=128)
        np.testing.assert_allclose(phi, reference_one_period_map(system, 2.0 * np.pi, 128),
                                   rtol=0, atol=1e-13)

    def test_rejects_unstable_step_before_building(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: 30.0 * SIGMA_Z,
                                   jumps=[LOWERING])
        with pytest.raises(ValueError, match="stability"):
            fq.find_ness(system, omega=2.0 * np.pi, steps_per_period=16)


@pytest.mark.parametrize("entry", [fq.one_period_map, fq.find_ness])
class TestPeriodArguments:
    SYSTEM = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[LOWERING])

    @pytest.mark.parametrize("steps", [256.4, 256.0, 0, -3, np.nan, True])
    def test_names_a_step_count_that_is_not_a_positive_integer(self, entry, steps):
        with pytest.raises(ValueError, match=f"^steps_per_period must be an integer >= 1, "
                                             f"got {re.escape(repr(steps))}$"):
            entry(self.SYSTEM, 2.0 * np.pi, steps_per_period=steps)

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf, True])
    def test_names_an_omega_without_a_period(self, entry, omega):
        with pytest.raises(ValueError, match="^omega must be a finite number > 0, got "):
            entry(self.SYSTEM, omega, steps_per_period=64)

    def test_takes_a_numpy_integer(self, entry):
        entry(self.SYSTEM, 2.0 * np.pi, steps_per_period=np.int64(64))


class TestFindNESS:
    def driven_system(self, gamma=0.4):
        omega = 2.0 * np.pi
        return fq.LindbladSystem(
            hamiltonian=lambda t: 0.4 * SIGMA_Z + 0.7 * np.cos(omega * t) * SIGMA_X,
            jumps=[np.sqrt(gamma) * LOWERING]), omega

    def test_undriven_decay_reaches_ground_state(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5 * SIGMA_Z,
                                   jumps=[np.sqrt(0.6) * LOWERING])
        ness = fq.find_ness(system, omega=2.0 * np.pi, tol=1e-11)
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(ness.rho0 - ground)) < 1e-9

    def test_fixed_point_property(self):
        system, omega = self.driven_system()
        ness = fq.find_ness(system, omega, tol=1e-10)
        period = 2.0 * np.pi / omega
        again = fq.evolve_lindblad(system, ness.rho0, (0.0, period), period / 256)
        assert np.max(np.abs(again.states[-1] - ness.rho0)) < 1e-9

    def test_matches_long_time_integration(self):
        system, omega = self.driven_system()
        ness = fq.find_ness(system, omega, tol=1e-10)
        period = 2.0 * np.pi / omega
        excited = np.diag([0.0, 1.0]).astype(complex)
        long_run = fq.evolve_lindblad(system, excited, (0.0, 120 * period), period / 256)
        assert np.max(np.abs(long_run.states[-1] - ness.rho0)) < 1e-9

    def test_periodicity_of_trajectory(self):
        system, omega = self.driven_system()
        ness = fq.find_ness(system, omega, tol=1e-10)
        assert np.max(np.abs(ness.states[-1] - ness.states[0])) < 1e-8

    def test_requires_dissipation(self):
        system = fq.LindbladSystem(hamiltonian=lambda t: SIGMA_Z, jumps=[])
        with pytest.raises(ValueError, match="jump"):
            fq.find_ness(system, omega=1.0)

    def test_weak_damping_converges_fast(self):
        # weak damping (gap 0.013) costs one map build and one solve, as strong damping does
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        system = fq.LindbladSystem(
            hamiltonian=lambda t: fq.sample_dirac(0.0, 0.0, drive, t),
            jumps=[np.sqrt(0.02) * LOWERING])
        started = time.monotonic()
        ness = fq.find_ness(system, drive.omega)
        assert time.monotonic() - started < 1.0
        assert ness.residual < 1e-9

    def test_non_unique_steady_state_names_the_gap(self):
        # dephasing that commutes with H keeps every diagonal state: gap 0
        system = fq.LindbladSystem(hamiltonian=lambda t: 0.5 * SIGMA_Z,
                                   jumps=[np.sqrt(0.3) * SIGMA_Z])
        with pytest.raises(RuntimeError, match="gap 0.000e"):
            fq.find_ness(system, omega=2.0 * np.pi)

    def test_one_level_map_has_gap_one(self):
        # Phi_T = (1): the single eigenvalue 1 and a unique fixed point, with no second |lambda|
        system = fq.LindbladSystem(hamiltonian=lambda t: np.zeros((1, 1)),
                                   jumps=[np.array([[1.0]])])
        ness = fq.find_ness(system, omega=5.0)
        assert (ness.gap, ness.residual) == (1.0, 0.0)
        np.testing.assert_array_equal(ness.states, np.ones((257, 1, 1)))

    def test_samples_the_half_step_grid_in_one_call(self):
        modes = fq.dirac_modes(0.0, 0.0, CIRCULAR_DRIVE)
        array_calls = []

        def sampler(t):
            if np.ndim(t) > 0:
                array_calls.append(np.array(t))
            return modes.sample(t)

        system = fq.LindbladSystem(hamiltonian=sampler, jumps=[np.sqrt(0.4) * LOWERING])
        ness = fq.find_ness(system, CIRCULAR_DRIVE.omega, steps_per_period=64)
        period = 2.0 * np.pi / CIRCULAR_DRIVE.omega
        assert len(ness.times) == 65
        assert len(array_calls) == 1
        np.testing.assert_allclose(array_calls[0], np.arange(129) * (period / 128),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.4, 1e-3])
    def test_trajectory_matches_integrating_the_fixed_point(self, gamma):
        system = fq.LindbladSystem(hamiltonian=fq.dirac_modes(0.0, 0.0, CIRCULAR_DRIVE).sample,
                                   jumps=[np.sqrt(gamma) * LOWERING])
        ness = fq.find_ness(system, CIRCULAR_DRIVE.omega)
        period = 2.0 * np.pi / CIRCULAR_DRIVE.omega
        stepped = fq.evolve_lindblad(system, ness.rho0, (0.0, period), period / 256)
        np.testing.assert_array_equal(ness.times, stepped.times)
        np.testing.assert_allclose(ness.states, stepped.states, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma", [0.4, 0.02, 1e-3])
    def test_matches_repeated_squaring_of_the_map(self, gamma):
        # the long-time route at weak damping: 2**k periods from the
        # maximally mixed state, k sized so that |lambda_2|**(2**k) < e**-40
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        system = fq.LindbladSystem(
            hamiltonian=lambda t: fq.sample_dirac(0.0, 0.0, drive, t),
            jumps=[np.sqrt(gamma) * LOWERING])
        ness = fq.find_ness(system, drive.omega)
        phi = fq.one_period_map(system, drive.omega)
        k = math.ceil(math.log2(40.0 / ness.gap))
        late = np.linalg.matrix_power(phi, 2 ** k) @ (np.eye(2) / 2).ravel()
        assert np.max(np.abs(late.reshape(2, 2) - ness.rho0)) < 1e-9
        assert ness.residual < 1e-12
