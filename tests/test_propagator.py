import re

import numpy as np
import pytest

from floquetlib.models import (
    SIGMA_X,
    SIGMA_Z,
    DriveProtocol,
    honeycomb_modes,
    sample_chain_1d,
    sample_dirac,
    sample_honeycomb,
)
from floquetlib.propagator import (
    BranchCutError,
    evolve,
    micromotion,
    monodromy,
    quasienergies_from_monodromy,
    stroboscopic_hf,
    unitarity_error,
)
from floquetlib.bessel import bessel_j


def drive_dirac(omega=5.0, amplitude=1.0):
    d = DriveProtocol(omega=omega, amplitude=amplitude, polarization="circular")
    return d, (lambda t: sample_dirac(0.3, -0.2, d, t))


# spin-1 operators, for a sampler with d = 3
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def driven_spin1(t):
    """Spin 1 in a static field along z and a field along x at omega 5; takes arrays of t."""
    return SPIN1_Z + 0.8 * np.cos(5.0 * np.asarray(t))[..., None, None] * SPIN1_X


def seeded_sampler(dim, seed=7):
    """H(t) = A + cos(3 t) B + sin(1.7 t) C, random Hermitian, so tr H(t) varies; takes arrays of t."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    a, b, c = raw + raw.conj().transpose(0, 2, 1)

    def sampler(t):
        t = np.asarray(t)[..., None, None]
        return a + np.cos(3.0 * t) * b + np.sin(1.7 * t) * c

    return sampler


def reference_evolve(sampler, t_start, t_end, n_steps):
    """Midpoint-exponential product with one sampler call per step (the per-t oracle)."""
    dt = (t_end - t_start) / n_steps
    u = None
    for j in range(n_steps):
        energies, frame = np.linalg.eigh(np.asarray(sampler(t_start + dt * (j + 0.5)), complex))
        step = (frame * np.exp(-1j * dt * energies)) @ frame.conj().T
        u = step if u is None else step @ u
    return u


class TestEvolve:
    @pytest.mark.parametrize("sampler", [
        lambda t: sample_chain_1d(0.7, 1.0, DriveProtocol(omega=5.0, amplitude=1.3), t),
        drive_dirac()[1],
        lambda t: sample_honeycomb(0.4, -0.7, 1.0, drive_dirac(6.0, 0.8)[0], t),
        honeycomb_modes(0.4, -0.7, 1.0, drive_dirac(6.0, 0.8)[0], 8).sample,
        lambda t: float(t) * SIGMA_Z + SIGMA_X,      # scalar-only: sampled per midpoint
        driven_spin1,
    ], ids=["chain1d", "dirac", "honeycomb", "mode_set", "scalar_only", "spin1"])
    def test_matches_per_t_reference(self, sampler):
        # an odd step count, so the pairwise product carries leftover steps
        np.testing.assert_allclose(evolve(sampler, 0.1, 1.3, 509),
                                   reference_evolve(sampler, 0.1, 1.3, 509), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_summed_phase_matches_per_t_reference(self, dim):
        # the trace part of every step commutes out as one summed phase
        sampler = seeded_sampler(dim)
        for t_start, t_end in ((0.1, 1.3), (1.3, 0.1)):
            np.testing.assert_allclose(evolve(sampler, t_start, t_end, 509),
                                       reference_evolve(sampler, t_start, t_end, 509),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, dt", [
        (0.7 * np.eye(2), 0.3),                                    # H proportional to I, r = 0
        (np.array([[0.5, 2.0 - 1.5j], [2.0 + 1.5j, -1.5]]), 1.4),   # dt r > pi
        (np.array([[1.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.6]]), 0.05),  # unequal diagonal, complex v
    ], ids=["identity", "beyond_pi", "complex_offdiagonal"])
    def test_one_2x2_step_matches_eigh(self, h, dt):
        h = np.asarray(h, dtype=complex)
        energies, frame = np.linalg.eigh(h)
        expected = (frame * np.exp(-1j * dt * energies)) @ frame.conj().T
        np.testing.assert_allclose(evolve(lambda t: h, 0.0, dt, 1), expected, rtol=0, atol=1e-14)

    def test_static_half_rotation(self):
        u = evolve(lambda t: SIGMA_Z, 0.0, np.pi, 64)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    def test_composition(self):
        # split at a shared grid point so both sides use the same steps
        _, sampler = drive_dirac()
        u_full = evolve(sampler, 0.0, 2.0, 4096)
        u_part = evolve(sampler, 1.25, 2.0, 1536) @ evolve(sampler, 0.0, 1.25, 2560)
        assert np.max(np.abs(u_full - u_part)) < 1e-9

    def test_reversed_interval_is_adjoint(self):
        _, sampler = drive_dirac()
        forward = evolve(sampler, 0.2, 1.1, 512)
        backward = evolve(sampler, 1.1, 0.2, 512)
        np.testing.assert_allclose(backward, forward.conj().T, atol=1e-14)

    def test_unitarity(self):
        for amplitude in (0.5, 1.0, 2.0):
            d = DriveProtocol(omega=3.0, amplitude=amplitude, polarization="circular")
            u = evolve(lambda t: sample_dirac(1.0, 0.7, d, t), 0.0, d.period, 4096)
            assert unitarity_error(u) < 1e-9

    def test_second_order_convergence(self):
        d, sampler = drive_dirac()
        reference = evolve(sampler, 0.0, d.period, 16384)
        e1 = np.max(np.abs(evolve(sampler, 0.0, d.period, 256) - reference))
        e2 = np.max(np.abs(evolve(sampler, 0.0, d.period, 512) - reference))
        assert 3.5 < e1 / e2 < 4.5

    def test_rejects_nonhermitian(self):
        bad = lambda t: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(bad, 0.0, 1.0, 8)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            evolve(lambda t: SIGMA_Z, 0.0, 1.0, 0)

    def test_rejects_a_bool_step_count(self):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            evolve(lambda t: SIGMA_Z, 0.0, 1.0, True)

    @pytest.mark.parametrize("t_start, t_end, name", [
        (0.0, np.nan, "t_end"), (0.0, np.inf, "t_end"), (-np.inf, 1.0, "t_start"),
        (np.nan, 1.0, "t_start"),
    ])
    def test_rejects_a_non_finite_bound_before_sampling(self, t_start, t_end, name):
        def sampler(t):
            raise AssertionError("the sampler must not be called")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            evolve(sampler, t_start, t_end, 8)

    @pytest.mark.parametrize("value", [1.0, np.ones(2), np.ones((2, 3))],
                             ids=["scalar", "vector", "non_square"])
    def test_rejects_a_sampler_that_returns_no_square_matrix(self, value):
        shape = np.shape(value)
        for t_end in (1.0, 0.0):    # a real interval, and the empty one
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                evolve(lambda t: value, 0.0, t_end, 8)

    def test_rejects_a_non_integer_step_count(self):
        # 2.5 steps would take 3 midpoints at dt = T / 2.5 and so integrate to 1.2 T
        d, sampler = drive_dirac()
        for n_steps in (2.5, 3.0):
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                evolve(sampler, 0.0, d.period, n_steps)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            monodromy(sampler, d.omega, n_steps=2.5)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            stroboscopic_hf(sampler, 0.0, d.omega, n_steps=2.5)
        np.testing.assert_array_equal(evolve(sampler, 0.0, d.period, np.int64(3)),
                                      evolve(sampler, 0.0, d.period, 3))


class TestStroboscopicHF:
    def test_static_recovers_hamiltonian(self):
        h = 0.4 * SIGMA_Z + 0.3 * SIGMA_X
        hf = stroboscopic_hf(lambda t: h, 0.0, omega=5.0, n_steps=512)
        np.testing.assert_allclose(hf.matrix, h, atol=1e-10)

    def test_eigenvalues_independent_of_s(self):
        d, sampler = drive_dirac()
        rng = np.random.default_rng(3)
        s1, s2 = rng.uniform(0.0, d.period, 2)
        hf1 = stroboscopic_hf(sampler, s1, d.omega, n_steps=8192)
        hf2 = stroboscopic_hf(sampler, s2, d.omega, n_steps=8192)
        assert np.max(np.abs(np.sort(hf1.eigenvalues) - np.sort(hf2.eigenvalues))) < 1e-7

    def test_chain_bessel_band(self):
        drive = DriveProtocol(omega=7.0, amplitude=1.0)
        for k in (0.0, 0.8, 2.0):
            hf = stroboscopic_hf(
                lambda t: sample_chain_1d(k, 1.0, drive, t), 0.0, drive.omega, n_steps=8192)
            expected = -2.0 * bessel_j(0, 1.0) * np.cos(k)
            assert abs(hf.eigenvalues[0] - expected) < 1e-7

    def test_branch_cut_refused(self):
        # static level at exactly omega/2 puts the eigenphase on the cut
        omega = 2.0
        with pytest.raises(BranchCutError):
            stroboscopic_hf(lambda t: np.array([[omega / 2.0]], dtype=complex),
                            0.0, omega, n_steps=16)


class TestMicromotion:
    def test_identity_at_start(self):
        d, sampler = drive_dirac()
        hf = stroboscopic_hf(sampler, 0.1, d.omega, n_steps=2048)
        p = micromotion(sampler, 0.1, 0.1, d.omega, hf=hf)
        np.testing.assert_allclose(p, np.eye(2), atol=1e-12)

    def test_computes_the_stroboscopic_hf_it_is_not_given(self):
        d, sampler = drive_dirac()
        hf = stroboscopic_hf(sampler, 0.2, d.omega, n_steps=512)
        np.testing.assert_array_equal(micromotion(sampler, 0.2, 0.9, d.omega, n_steps=512),
                                      micromotion(sampler, 0.2, 0.9, d.omega, n_steps=512, hf=hf))

    def test_periodicity(self):
        d, sampler = drive_dirac()
        hf = stroboscopic_hf(sampler, 0.1, d.omega, n_steps=8192)
        p0 = micromotion(sampler, 0.1, 0.4, d.omega, n_steps=8192, hf=hf)
        p1 = micromotion(sampler, 0.1, 0.4 + d.period, d.omega, n_steps=8192, hf=hf)
        assert np.max(np.abs(p1 - p0)) < 1e-7
        p_period = micromotion(sampler, 0.1, 0.1 + d.period, d.omega, n_steps=8192, hf=hf)
        assert np.max(np.abs(p_period - np.eye(2))) < 1e-7

    @pytest.mark.parametrize("s, t, name", [(0.0, np.nan, "t"), (0.0, np.inf, "t"),
                                            (np.nan, 0.3, "s"), (-np.inf, 0.3, "s")])
    def test_rejects_a_non_finite_time_before_the_step_count(self, s, t, name):
        d, sampler = drive_dirac()
        hf = stroboscopic_hf(sampler, 0.0, d.omega, n_steps=64)
        for given in (None, hf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
                micromotion(sampler, s, t, d.omega, n_steps=64, hf=given)

    def test_reconstructs_full_propagator(self):
        # U(t, t0) = P_s(t) exp(-i (t - t0) H_F(s)) P_s(t0)^{-1}
        d, sampler = drive_dirac()
        s = 0.05
        hf = stroboscopic_hf(sampler, s, d.omega, n_steps=8192)
        w, v = np.linalg.eigh(hf.matrix)
        rng = np.random.default_rng(11)
        for _ in range(5):
            t, t0 = rng.uniform(0.0, 2.0 * d.period, 2)
            p_t = micromotion(sampler, s, t, d.omega, n_steps=8192, hf=hf)
            p_t0 = micromotion(sampler, s, t0, d.omega, n_steps=8192, hf=hf)
            phase = (v * np.exp(-1j * (t - t0) * w)) @ v.conj().T
            direct = evolve(sampler, t0, t, 8192)
            assert np.max(np.abs(p_t @ phase @ np.linalg.inv(p_t0) - direct)) < 1e-7


class TestMonodromyQuasienergies:
    def test_identity(self):
        np.testing.assert_allclose(
            quasienergies_from_monodromy(np.eye(3, dtype=complex), 4.0), 0.0, atol=1e-14)

    def test_static_two_level(self):
        omega = 5.0
        period = 2.0 * np.pi / omega
        u = evolve(lambda t: SIGMA_Z, 0.0, period, 256)
        eps = quasienergies_from_monodromy(u, omega)
        np.testing.assert_allclose(eps, [-1.0, 1.0], atol=1e-10)

    def test_dirac_gap(self):
        d = DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        u = monodromy(lambda t: sample_dirac(0.0, 0.0, d, t), d.omega, n_steps=16384)
        eps = quasienergies_from_monodromy(u, d.omega)
        gap = eps[-1] - eps[0]
        assert abs(gap - (np.sqrt(29.0) - 5.0)) < 1e-6

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            quasienergies_from_monodromy(2.0 * np.eye(2, dtype=complex), 1.0)

    @pytest.mark.parametrize("omega", [0.0, -2.0, np.nan, np.inf, True])
    def test_every_entry_point_requires_a_positive_finite_omega(self, omega):
        _, sampler = drive_dirac()
        hf = stroboscopic_hf(sampler, 0.0, 5.0, n_steps=64)
        calls = [lambda: monodromy(sampler, omega, n_steps=64),
                 lambda: stroboscopic_hf(sampler, 0.0, omega, n_steps=64),
                 lambda: micromotion(sampler, 0.0, 0.3, omega, n_steps=64),
                 lambda: micromotion(sampler, 0.0, 0.3, omega, n_steps=64, hf=hf),
                 lambda: quasienergies_from_monodromy(np.eye(2, dtype=complex), omega)]
        for call in calls:
            with pytest.raises(ValueError, match="omega must be a finite number > 0"):
                call()

    def test_folded_range(self):
        d, sampler = drive_dirac(omega=4.0, amplitude=1.2)
        eps = quasienergies_from_monodromy(monodromy(sampler, 4.0, n_steps=2048), 4.0)
        assert np.all(eps >= -2.0) and np.all(eps < 2.0)
