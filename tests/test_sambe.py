import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy import special
from scipy.linalg import lapack

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Z


def static_modes(matrix, omega, n_max=0):
    matrix = np.asarray(matrix, dtype=complex)
    modes = np.zeros((2 * n_max + 1,) + matrix.shape, dtype=complex)
    modes[n_max] = matrix
    return fq.FourierModeSet(omega, modes)


def block(fm, m, n):
    """Block (m, n) of a FloquetMatrix: rows of block m, columns of block n."""
    d, m0 = fm.dim, fm.m_cut
    return fm.matrix[(m + m0) * d:(m + m0 + 1) * d, (n + m0) * d:(n + m0 + 1) * d]


def reference_floquet_matrix(modes, m_cut):
    """The Sambe matrix assembled block by block, one (m, n) pair at a time."""
    d = modes.dim
    nb = 2 * m_cut + 1
    big = np.zeros((nb * d, nb * d), dtype=complex)
    for m in range(-m_cut, m_cut + 1):
        for n in range(-m_cut, m_cut + 1):
            if abs(m - n) > modes.n_max:
                continue
            blockval = modes.mode(m - n).copy()
            if m == n:
                blockval -= m * modes.omega * np.eye(d)
            big[(m + m_cut) * d:(m + m_cut + 1) * d,
                (n + m_cut) * d:(n + m_cut + 1) * d] = blockval
    return big


def gap_harmonic_modes():
    # only n = 0 and n = +-2 are given; n = +-1 stay zero
    triples = [
        [0, [[0.4, 0.1], [0.1, -0.4]], [[0.0, 0.2], [-0.2, 0.0]]],
        [2, [[0.0, 0.3], [0.5, 0.1]], [[0.2, 0.0], [-0.1, 0.0]]],
        [-2, [[0.0, 0.5], [0.3, 0.1]], [[-0.2, 0.1], [0.0, 0.0]]],
    ]
    return fq.custom_modes(3.0, triples)


class TestFold:
    def test_inside_zone(self):
        assert fq.fold_to_bz(0.3, 1.0) == pytest.approx(0.3)

    def test_boundary_maps_down(self):
        assert fq.fold_to_bz(0.5, 1.0) == pytest.approx(-0.5)

    def test_many_zones_away(self):
        assert fq.fold_to_bz(-7.3, 2.0) == pytest.approx(0.7)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            fq.fold_to_bz(0.1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
           st.floats(min_value=1e-2, max_value=1e2, allow_nan=False))
    def test_range_and_idempotence(self, eps, omega):
        folded = fq.fold_to_bz(eps, omega)
        assert -omega / 2.0 <= folded < omega / 2.0
        assert fq.fold_to_bz(folded, omega) == pytest.approx(folded, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
           st.integers(min_value=-5, max_value=5),
           st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
    def test_shift_invariance(self, eps, n, omega):
        assert fq.fold_to_bz(eps + n * omega, omega) == pytest.approx(
            fq.fold_to_bz(eps, omega), abs=1e-9)


class TestBuildFloquetMatrix:
    def test_static_block_diagonal(self):
        omega = 4.0
        fm = fq.build_floquet_matrix(static_modes(SIGMA_Z, omega), 1)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0:2, 0:2] = SIGMA_Z + omega * np.eye(2)
        expected[2:4, 2:4] = SIGMA_Z
        expected[4:6, 4:6] = SIGMA_Z - omega * np.eye(2)
        np.testing.assert_allclose(fm.matrix, expected, atol=1e-15)

    def test_hermitian_and_band_structure(self):
        drive = fq.DriveProtocol(omega=3.0, amplitude=1.1, polarization="circular")
        modes = fq.honeycomb_modes(0.5, 0.3, 1.0, drive, 4)
        fm = fq.build_floquet_matrix(modes, 7)
        assert np.max(np.abs(fm.matrix - fm.matrix.conj().T)) < 1e-12
        assert np.max(np.abs(block(fm, 7, 0))) == 0.0  # |m-n| > n_max is zero
        np.testing.assert_allclose(block(fm, 3, 1), modes.mode(2), atol=1e-15)

    def test_rejects_non_hermitian_at_construction(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"not Hermitian \(error 1.00e\+00\)"):
            fq.FloquetMatrix(omega=1.0, m_cut=0, dim=2, n_max=0, matrix=matrix)

    def test_rejects_small_cutoff(self):
        # the blocks of M 5 hold harmonics up to 10, so n_max 11 would drop one
        drive = fq.DriveProtocol(omega=3.0, amplitude=1.0)
        modes = fq.chain_modes(0.2, 1.0, drive, 11)
        with pytest.raises(ValueError, match="n_max=11"):
            fq.build_floquet_matrix(modes, 5)
        fq.build_floquet_matrix(fq.chain_modes(0.2, 1.0, drive, 10), 5)

    def test_truncated_single_harmonic_spectrum(self):
        # modes {H_{+-1} = sx/2} at M=1: in the sigma_x eigenbasis the
        # matrix splits into two tridiagonals diag(omega, 0, -omega) with
        # coupling +-1/2, so the raw spectrum is {0, +-sqrt(omega^2+1/2)}
        omega = 10.0
        modes = fq.FourierModeSet(
            omega, np.stack([SIGMA_X / 2, np.zeros((2, 2), dtype=complex), SIGMA_X / 2]))
        fm = fq.build_floquet_matrix(modes, 1)
        raw = np.linalg.eigvalsh(fm.matrix)
        edge = np.sqrt(omega**2 + 0.5)
        np.testing.assert_allclose(raw, [-edge, -edge, 0.0, 0.0, edge, edge], atol=1e-12)
        # folded edge replicas sit at +-(sqrt(omega^2+1/2) - omega) ~ 0.025
        assert fq.fold_to_bz(edge, omega) == pytest.approx(0.0249688, abs=1e-6)
        # the physical pair is exactly degenerate at zero for this
        # commuting drive; the monodromy oracle agrees
        u = fq.monodromy(lambda t: np.cos(omega * t) * SIGMA_X, omega, n_steps=4096)
        eps_oracle = fq.quasienergies_from_monodromy(u, omega)
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 7)))
        assert np.max(np.abs(np.sort(sol.quasienergies) - np.sort(eps_oracle))) < 1e-8

    def test_chain_replica_ladder(self):
        # single-band chain: raw spectrum is the Bessel-averaged band
        # plus every integer multiple of omega inside the truncation
        drive = fq.DriveProtocol(omega=6.0, amplitude=1.0)
        k = 0.8
        modes = fq.chain_modes(k, 1.0, drive, 12)
        sol = fq.quasienergies(fq.build_floquet_matrix(modes, 18))
        band = -2.0 * fq.bessel_j(0, 1.0) * np.cos(k)
        for n in (-3, -1, 0, 2):
            target = band + n * drive.omega
            assert np.min(np.abs(sol.raw_energies - target)) < 1e-9


class TestToeplitzBuild:
    CIRCULAR = fq.DriveProtocol(omega=3.0, amplitude=1.4, polarization="circular")

    @pytest.mark.parametrize("name, modes", [
        ("chain", fq.chain_modes(0.7, 1.0, fq.DriveProtocol(omega=4.0, amplitude=1.2), 6)),
        ("honeycomb", fq.honeycomb_modes(0.5, -0.3, 1.0, CIRCULAR, 5)),
        ("dirac", fq.dirac_modes(0.2, -0.6, CIRCULAR)),
        ("gap_harmonic", gap_harmonic_modes()),
    ])
    @pytest.mark.parametrize("margin", [0, 3])
    def test_bit_identical_to_block_loop(self, name, modes, margin):
        m_cut = modes.n_max + margin
        fm = fq.build_floquet_matrix(modes, m_cut)
        assert np.array_equal(fm.matrix, reference_floquet_matrix(modes, m_cut))

    def test_gap_harmonic_blocks(self):
        modes = gap_harmonic_modes()
        fm = fq.build_floquet_matrix(modes, 4)
        assert np.max(np.abs(block(fm, 1, 0))) == 0.0
        assert np.array_equal(block(fm, 3, 1), modes.mode(2))


def reference_chain_modes(k, hopping, drive, n_max):
    """chain_modes' mode array, every factor computed at this k."""
    ns = np.arange(-n_max, n_max + 1)
    jn = special.jv(ns, drive.amplitude)
    coeff = -hopping * jn * (((-1.0) ** ns) * np.exp(1j * k) + np.exp(-1j * k))
    return coeff.reshape(-1, 1, 1)


def reference_honeycomb_modes(kx, ky, hopping, drive, n_max):
    """honeycomb_modes' mode array, every factor computed at this k."""
    ns = np.arange(-n_max, n_max + 1)
    jn = special.jv(ns, drive.amplitude)
    bond_phases = np.exp(1j * (fq.models.HONEYCOMB_DELTAS @ np.array([kx, ky])))
    phis = np.arctan2(fq.models.HONEYCOMB_DELTAS[:, 1], fq.models.HONEYCOMB_DELTAS[:, 0])
    bonds = np.sum(bond_phases * np.exp(1j * ns[:, None] * phis), axis=1)
    f = hopping * jn * ((-1j) ** ns) * bonds
    modes = np.zeros((ns.size, 2, 2), dtype=complex)
    modes[:, 0, 1] = f
    modes[:, 1, 0] = np.conj(f)[::-1]
    return modes


def reference_gather(modes, m_cut):
    """The Sambe matrix as one modes.mode(m - n) gather plus the diagonal shift."""
    ms = np.arange(-m_cut, m_cut + 1)
    size = ms.size * modes.dim
    big = modes.mode(ms[:, None] - ms[None, :]).transpose(0, 2, 1, 3).reshape(size, size)
    big[np.diag_indices(size)] -= np.repeat(ms * modes.omega, modes.dim)
    return big


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


class TestCachedBuilds:
    """Mode builders and the Sambe build, whose k-independent parts are cached."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(30)
        yield 0.7, -0.4, 0.0, 0, 0, 5.0
        for _ in range(40):
            amplitude = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0))
            n_max = int(rng.integers(0, 7))
            yield (*rng.uniform(-np.pi, np.pi, 2), amplitude, n_max,
                   n_max + int(rng.integers(0, 4)), float(rng.uniform(1.0, 10.0)))

    def test_bit_identical_to_the_per_k_formulas(self):
        for kx, ky, amplitude, n_max, m_cut, omega in self.draws():
            linear = fq.DriveProtocol(omega=omega, amplitude=amplitude)
            circular = replace(linear, polarization="circular")
            # the second k at the same drive and cutoffs reads the cache
            for qx, qy in [(kx, ky), (ky, kx)]:
                for modes, want in [
                        (fq.chain_modes(qx, 1.3, linear, n_max),
                         reference_chain_modes(qx, 1.3, linear, n_max)),
                        (fq.honeycomb_modes(qx, qy, 0.8, circular, n_max),
                         reference_honeycomb_modes(qx, qy, 0.8, circular, n_max))]:
                    assert_same_bits(modes.modes, want)
                    assert_same_bits(fq.build_floquet_matrix(modes, m_cut).matrix,
                                     reference_gather(modes, m_cut))

    def test_cache_is_read_only_and_outputs_are_not(self):
        drive = fq.DriveProtocol(omega=4.0, amplitude=1.2, polarization="circular")
        modes = fq.honeycomb_modes(0.3, 0.5, 1.0, drive, 4)
        first = fq.build_floquet_matrix(modes, 6)
        cached = (fq.models._chain_factors(1.0, 1.2, 4) + fq.models._honeycomb_factors(1.0, 1.2, 4)
                  + fq.sambe._sambe_layout(6, 4, 2))
        assert not any(array.flags.writeable for array in cached)
        with pytest.raises(ValueError, match="read-only"):
            modes.modes[0, 0, 1] = 7.0
        assert not any(np.shares_memory(modes.modes, array) for array in cached)
        first.matrix[...] = 7.0
        again = fq.honeycomb_modes(0.3, 0.5, 1.0, drive, 4)
        assert_same_bits(again.modes, reference_honeycomb_modes(0.3, 0.5, 1.0, drive, 4))
        assert_same_bits(fq.build_floquet_matrix(again, 6).matrix, reference_gather(again, 6))


class TestQuasienergies:
    def test_static_replica_multiplicity(self):
        omega = 5.0
        sol = fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, omega), 3))
        folded = np.sort(sol.quasienergies)
        np.testing.assert_allclose(folded[:7], -1.0, atol=1e-12)
        np.testing.assert_allclose(folded[7:], 1.0, atol=1e-12)

    def test_dirac_gap(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        modes = fq.dirac_modes(0.0, 0.0, drive)
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 12)))
        gap = sol.quasienergies[1] - sol.quasienergies[0]
        assert abs(gap - (np.sqrt(29.0) - 5.0)) < 1e-6

    def test_dynamical_localization(self):
        root = special.jn_zeros(0, 1)[0]
        drive = fq.DriveProtocol(omega=8.0, amplitude=root)
        band = []
        for k in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            modes = fq.chain_modes(k, 1.0, drive, 16)
            sol = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, 22)))
            band.append(sol.quasienergies[0])
        assert np.ptp(band) < 1e-6

    def test_weights_normalized_and_unitary(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=0.9, polarization="circular")
        sol = fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.4, 0.1, drive), 6))
        np.testing.assert_allclose(np.sum(sol.fourier_weights(), axis=0), 1.0, atol=1e-10)
        gram = sol.vectors.conj().T @ sol.vectors
        assert np.max(np.abs(gram - np.eye(sol.n_states))) < 1e-8


class TestSelectPhysicalBand:
    def test_static_full_weight_center(self):
        sol = fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, 5.0), 3))
        phys = fq.select_physical_band(sol)
        assert phys.n_states == 2
        np.testing.assert_allclose(phys.weight0(), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.sort(phys.quasienergies), [-1.0, 1.0], atol=1e-12)

    def test_chain_band_matches_bessel(self):
        drive = fq.DriveProtocol(omega=8.0, amplitude=1.0)
        for k in np.linspace(-np.pi, np.pi, 9):
            modes = fq.chain_modes(k, 1.0, drive, 12)
            phys = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, 18)))
            expected = -2.0 * fq.bessel_j(0, 1.0) * np.cos(k)
            assert abs(phys.quasienergies[0] - expected) < 1e-8

    def test_dirac_pair_symmetric(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        phys = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.0, 0.0, drive), 12)))
        assert phys.quasienergies[0] == pytest.approx(-phys.quasienergies[1], abs=1e-9)
        assert 2.0 * abs(phys.quasienergies[0]) == pytest.approx(
            fq.dirac_gap(1.0, 5.0), abs=1e-6)

    def test_requires_margin(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        sol = fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.0, 0.0, drive), 2))
        with pytest.raises(ValueError, match="n_max"):
            fq.select_physical_band(sol)

    def test_strong_drive_picks_silently(self):
        # a weakest picked w0 below 0.5 is common at a slow drive, and no fault
        drive = fq.DriveProtocol(omega=2.0, amplitude=2.0, polarization="circular")
        sol = fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(1.5, 0.0, drive), 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phys = fq.select_physical_band(sol)
        assert phys.weight0().min() < 0.5

    def test_replica_centers(self):
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, 5.0), 3)))
        centers = np.argmax(sol.fourier_weights(), axis=0) - sol.m_cut
        np.testing.assert_array_equal(centers, [0, 0])


def seeded_modes(model, seed):
    """A random k-point of `model` under a seeded drive, omega 4-12, A 0.2-2."""
    rng = np.random.default_rng(seed)
    omega, amplitude = rng.uniform(4.0, 12.0), rng.uniform(0.2, 2.0)
    kx, ky = rng.uniform(-np.pi, np.pi, 2)
    n_max = fq.suggested_n_max(amplitude)
    if model == "chain1d":
        return fq.chain_modes(kx, 1.0, fq.DriveProtocol(omega=omega, amplitude=amplitude), n_max)
    circular = fq.DriveProtocol(omega=omega, amplitude=amplitude, polarization="circular")
    if model == "honeycomb":
        return fq.honeycomb_modes(kx, ky, 1.0, circular, n_max)
    if model == "dirac":
        return fq.dirac_modes(kx, ky, circular)
    h0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h1 = amplitude * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 2.0
    return fq.FourierModeSet(omega, np.stack([h1.conj().T, (h0 + h0.conj().T) / 2.0, h1]))


@pytest.fixture
def full_solves(monkeypatch):
    """Count the full quasienergies solves that physical_band falls back to."""
    calls = []
    full = fq.sambe.quasienergies

    def counted(fm):
        calls.append(fm)
        return full(fm)

    monkeypatch.setattr(fq.sambe, "quasienergies", counted)
    return calls


def full_route(modes, m_cut):
    return fq.select_physical_band(fq.quasienergies(fq.build_floquet_matrix(modes, m_cut)))


class TestPhysicalBand:
    @pytest.mark.parametrize("model", ["chain1d", "honeycomb", "dirac", "custom3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_full_route(self, model, seed, full_solves):
        modes = seeded_modes(model, seed)
        m_cut = modes.n_max + 6
        window = fq.physical_band(modes, m_cut)
        assert not full_solves  # the certificate held: no fallback
        full = full_route(modes, m_cut)
        assert window.physical and window.n_states == modes.dim
        assert np.max(np.abs(window.quasienergies - full.quasienergies)) < 1e-12
        assert np.max(np.abs(window.weight0() - full.weight0())) < 1e-12
        # the same replica of every state: equal up to eigensolver rounding
        assert np.max(np.abs(window.raw_energies - full.raw_energies)) < 1e-12
        np.testing.assert_array_equal(np.argmax(window.fourier_weights(), axis=0),
                                      np.argmax(full.fourier_weights(), axis=0))

    def test_level_outside_window_falls_back(self, full_solves):
        # the central replica of the level at 1.5 omega lies outside (-omega, omega]
        omega = 5.0
        modes = static_modes(np.diag([0.3, 1.5 * omega]), omega)
        phys = fq.physical_band(modes, 3)
        assert len(full_solves) == 1
        full = full_route(modes, 3)
        np.testing.assert_array_equal(phys.quasienergies, full.quasienergies)
        # sorted by folded quasienergy: 7.5 folds to -2.5
        np.testing.assert_array_equal(phys.raw_energies, [1.5 * omega, 0.3])
        np.testing.assert_array_equal(phys.weight0(), [1.0, 1.0])

    def test_missed_weight_above_weakest_pick_falls_back(self, full_solves):
        # H_1 dresses the level at 7.2 with the one at -0.2: the window
        # weights are 1, 0.8, 0.2, 0.2, ..., so it misses 0.8 of the central
        # weight, more than its third largest w0 and less than its largest
        omega = 5.0
        h0 = np.diag([0.2, 7.2, -0.2]).astype(complex)
        h1 = np.zeros((3, 3), dtype=complex)
        h1[1, 2] = 1.6
        modes = fq.FourierModeSet(omega, np.stack([h1.conj().T, h0, h1]))
        phys = fq.physical_band(modes, 3)
        assert len(full_solves) == 1
        np.testing.assert_allclose(phys.raw_energies, [8.0, -1.0, 0.2], atol=1e-12)
        np.testing.assert_allclose(phys.weight0(), [0.8, 0.8, 1.0], atol=1e-12)

    def test_window_with_too_few_states_falls_back(self, full_solves):
        # at M = 2 no replica of the levels at 4 and 6 omega reaches the window
        omega = 5.0
        modes = static_modes(np.diag([0.3, 4.0 * omega, 6.0 * omega]), omega)
        phys = fq.physical_band(modes, 2)
        assert len(full_solves) == 1
        np.testing.assert_array_equal(phys.raw_energies, full_route(modes, 2).raw_energies)

    def test_empty_window_falls_back(self, full_solves):
        # at M = 2 the replicas of the levels at 4 and 6 omega span 2 to 8 omega: the window
        # (-omega, omega] holds no eigenpair at all
        omega = 5.0
        modes = static_modes(np.diag([4.0 * omega, 6.0 * omega]), omega)
        phys = fq.physical_band(modes, 2)
        assert len(full_solves) == 1
        np.testing.assert_array_equal(phys.raw_energies, full_route(modes, 2).raw_energies)

    def test_strong_drive_picks_silently_through_window(self, full_solves):
        # weakest picked w0 is 0.43; the window misses 0.38 of the weight
        drive = fq.DriveProtocol(omega=3.0, amplitude=2.0, polarization="circular")
        modes = fq.dirac_modes(1.3, 0.0, drive)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phys = fq.physical_band(modes, 9)
            assert not full_solves
            full = full_route(modes, 9)
        assert np.max(np.abs(phys.weight0() - full.weight0())) < 1e-12

    def test_requires_margin(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve before the margin check")

        monkeypatch.setattr(fq.sambe, "_windowed_eigh", no_solve)
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        with pytest.raises(ValueError, match="replica selection needs M >= n_max"):
            fq.physical_band(fq.dirac_modes(0.0, 0.0, drive), 2)

    def test_modes_filled_to_2m_need_no_margin(self):
        # n_max = 2M holds every harmonic the blocks reach; 2M - 1 is a cut set without margin
        drive = fq.DriveProtocol(omega=8.0, amplitude=1.0, polarization="circular")
        filled = fq.physical_band(fq.honeycomb_modes(0.4, -0.2, 1.0, drive, 16), 8)
        wide = fq.physical_band(fq.honeycomb_modes(0.4, -0.2, 1.0, drive, 10), 12)
        np.testing.assert_allclose(filled.quasienergies, wide.quasienergies, atol=1e-13)
        with pytest.raises(ValueError, match="replica selection needs M >= n_max"):
            fq.physical_band(fq.honeycomb_modes(0.4, -0.2, 1.0, drive, 15), 8)

    def test_rejects_non_hermitian(self, monkeypatch):
        build = fq.sambe.build_floquet_matrix

        def skewed(modes, m_cut):
            fm = build(modes, m_cut)
            matrix = fm.matrix.copy()
            matrix[0, 1] += 0.5
            return replace(fm, matrix=matrix)

        monkeypatch.setattr(fq.sambe, "build_floquet_matrix", skewed)
        with pytest.raises(ValueError, match="not Hermitian"):
            fq.physical_band(static_modes(SIGMA_Z, 5.0, n_max=1), 3)


def scipy_window(matrix, lo, hi):
    return scipy.linalg.eigh(matrix, subset_by_value=(lo, hi), driver="evr")


def failing_lapack(*args, **kwargs):
    raise AssertionError("LAPACK called")


class TestWindowedEigh:
    """The direct ?heevr call against the scipy.linalg.eigh call it replaces."""

    @pytest.mark.parametrize("model", ["chain1d", "honeycomb", "dirac", "custom3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_to_scipy_eigh(self, model, seed):
        modes = seeded_modes(model, seed)
        fm = fq.build_floquet_matrix(modes, modes.n_max + 6)
        before = fm.matrix.copy()
        w, v = fq.sambe._windowed_eigh(fm.matrix, -fm.omega, fm.omega)
        want_w, want_v = scipy_window(fm.matrix, -fm.omega, fm.omega)
        assert 0 < w.size < fm.matrix.shape[0]
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(v, want_v)
        np.testing.assert_array_equal(fm.matrix, before)    # the fallback reads it after

    def test_bit_equal_where_the_certificate_fails(self):
        # the matrix of test_missed_weight_above_weakest_pick_falls_back
        omega = 5.0
        h0 = np.diag([0.2, 7.2, -0.2]).astype(complex)
        h1 = np.zeros((3, 3), dtype=complex)
        h1[1, 2] = 1.6
        fm = fq.build_floquet_matrix(fq.FourierModeSet(omega, np.stack([h1.conj().T, h0, h1])), 3)
        w, v = fq.sambe._windowed_eigh(fm.matrix, -omega, omega)
        want_w, want_v = scipy_window(fm.matrix, -omega, omega)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(v, want_v)

    def test_empty_window(self):
        omega = 5.0
        fm = fq.build_floquet_matrix(static_modes(np.diag([4.0 * omega, 6.0 * omega]), omega), 2)
        w, v = fq.sambe._windowed_eigh(fm.matrix, -omega, omega)
        want_w, want_v = scipy_window(fm.matrix, -omega, omega)
        assert w.shape == want_w.shape == (0,)
        assert v.shape == want_v.shape == (fm.matrix.shape[0], 0)

    @pytest.mark.parametrize("n", [1, 19, 38, 170])
    def test_workspace_is_the_one_scipy_eigh_queries(self, n):
        # run on each scipy CI installs, the oldest supported one included: ?heevr_lwork
        # must give (lwork, lrwork, liwork) in this order
        _, query = scipy.linalg.get_lapack_funcs(("heevr", "heevr_lwork"),
                                                 [np.zeros((1, 1), dtype=complex)])
        assert fq.sambe._heevr_work(n) == lapack._compute_lwork(query, n=n, lower=True)

    def test_failed_solve_raises(self, monkeypatch, full_solves):
        def failed(matrix, **kwargs):
            # a partial result with LAPACK's error code: it must not reach the band
            n = matrix.shape[0]
            return (np.zeros(n), np.eye(n, dtype=complex), 2, np.zeros(2 * n, np.int32), n + 1)

        monkeypatch.setattr(fq.sambe, "lapack",
                            SimpleNamespace(zheevr=failed, zheevr_lwork=lapack.zheevr_lwork))
        drive = fq.DriveProtocol(omega=8.0, amplitude=1.0, polarization="circular")
        with pytest.raises(np.linalg.LinAlgError, match="heevr failed"):
            fq.physical_band(fq.honeycomb_modes(0.3, -0.4, 1.0, drive, 18), 9)
        assert not full_solves

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_modes_are_refused_before_lapack(self, monkeypatch, value):
        monkeypatch.setattr(fq.sambe, "lapack",
                            SimpleNamespace(zheevr=failing_lapack, zheevr_lwork=failing_lapack))
        modes = np.zeros((3, 2, 2), dtype=complex)
        modes[1] = SIGMA_Z
        modes[0] = modes[2] = 0.3 * SIGMA_X
        bad = modes.copy()
        bad[1, 0, 0] = value
        slipped = fq.FourierModeSet(5.0, modes)
        object.__setattr__(slipped, "modes", bad)
        # inf - inf in either check also sets numpy's invalid flag; the ValueError is the refusal
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="H_-n = H_n"):
                fq.FourierModeSet(5.0, bad)
            # a set that slipped past its pairing check meets the Hermiticity check of the matrix
            with pytest.raises(ValueError, match="not Hermitian"):
                fq.physical_band(slipped, 3)


class TestInvariants:
    def test_replica_covariance(self):
        drive = fq.DriveProtocol(omega=8.0, amplitude=0.5, polarization="circular")
        modes = fq.dirac_modes(0.3, -0.4, drive)
        fm = fq.build_floquet_matrix(modes, 8)
        phys = fq.select_physical_band(fq.quasienergies(fm))
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 5:
            col = rng.integers(0, phys.n_states)
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
            checked += 1

    def test_folded_band_independent_of_cutoff(self):
        drive = fq.DriveProtocol(omega=6.0, amplitude=0.8, polarization="circular")
        modes = fq.dirac_modes(0.5, 0.2, drive)

        def band(m):
            return fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, m))).quasienergies

        assert np.max(np.abs(band(3) - band(12))) < 1e-8

    def test_monodromy_oracle_random_samples(self):
        # the central cross-check: extended-space quasienergies equal
        # monodromy eigenphases mod omega
        rng = np.random.default_rng(42)
        for trial in range(10):
            model = ("chain1d", "dirac", "honeycomb")[trial % 3]
            amplitude = rng.uniform(0.2, 1.5)
            omega = rng.uniform(4.0, 12.0)
            if model == "chain1d":
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude)
                k = rng.uniform(-np.pi, np.pi)
                sampler = lambda t: fq.sample_chain_1d(k, 1.0, drive, t)
                modes = fq.chain_modes(k, 1.0, drive, fq.suggested_n_max(amplitude))
            elif model == "dirac":
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude,
                                         polarization="circular")
                kx, ky = rng.uniform(-1.5, 1.5, 2)
                sampler = lambda t: fq.sample_dirac(kx, ky, drive, t)
                modes = fq.dirac_modes(kx, ky, drive)
            else:
                drive = fq.DriveProtocol(omega=omega, amplitude=amplitude,
                                         polarization="circular")
                kx, ky = rng.uniform(-1.5, 1.5, 2)
                sampler = lambda t: fq.sample_honeycomb(kx, ky, 1.0, drive, t)
                modes = fq.honeycomb_modes(kx, ky, 1.0, drive, fq.suggested_n_max(amplitude))
            phys = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, modes.n_max + 6)))
            oracle = fq.quasienergies_from_monodromy(
                fq.monodromy(sampler, omega, n_steps=32768), omega)
            for eps in phys.quasienergies:
                dev = min(abs(fq.fold_to_bz(eps - ref, omega)) for ref in oracle)
                assert dev < 1e-7

    def test_time_origin_gauge_invariance(self):
        drive = fq.DriveProtocol(omega=6.0, amplitude=1.3)
        k = 0.7
        base = lambda t: fq.sample_chain_1d(k, 1.0, drive, t)
        b0 = fq.select_physical_band(fq.quasienergies(fq.build_floquet_matrix(
            fq.fourier_modes(base, drive.omega, 12), 16))).quasienergies
        rng = np.random.default_rng(9)
        for s in rng.uniform(0.0, drive.period, 3):
            shifted = lambda t: base(t + s)
            b1 = fq.select_physical_band(fq.quasienergies(fq.build_floquet_matrix(
                fq.fourier_modes(shifted, drive.omega, 12), 16))).quasienergies
            assert np.max(np.abs(b0 - b1)) < 1e-8


class TestEvolveState:
    def test_static_eigenstate_pure_phase(self):
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, 5.0), 3)))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        for t in (0.3, 1.7, 4.0):
            psi_t = fq.evolve_state_floquet(sol, psi0, 0.0, t)
            assert abs(abs(np.vdot(psi0, psi_t)) - 1.0) < 1e-12

    def test_static_superposition_between_strobe_times(self):
        # physical energies +-1 lie outside the folded zone for omega=1;
        # the relative phase at non-stroboscopic times must still be exact
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, 1.0), 3)))
        psi0 = np.array([0.6, 0.8], dtype=complex)
        for t in (0.37, 1.91):
            exact = np.array([0.6 * np.exp(-1j * t), 0.8 * np.exp(1j * t)])
            got = fq.evolve_state_floquet(sol, psi0, 0.0, t)
            assert np.max(np.abs(got - exact)) < 1e-10

    def test_one_period_matches_monodromy(self):
        drive = fq.DriveProtocol(omega=6.0, amplitude=0.9, polarization="circular")
        modes = fq.dirac_modes(0.4, -0.1, drive)
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 10)))
        sampler = lambda t: fq.sample_dirac(0.4, -0.1, drive, t)
        u = fq.monodromy(sampler, drive.omega, n_steps=16384)
        rng = np.random.default_rng(2)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        psi_sambe = fq.evolve_state_floquet(sol, psi0, 0.0, drive.period)
        assert np.max(np.abs(psi_sambe - u @ psi0)) < 1e-6

    def test_driven_two_level_against_direct_integration(self):
        omega = 10.0
        modes = fq.FourierModeSet(
            omega, np.stack([SIGMA_X / 2, np.zeros((2, 2), dtype=complex), SIGMA_X / 2]))
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(modes, 8)))
        sampler = lambda t: np.cos(omega * t) * SIGMA_X
        psi0 = np.array([1.0, 0.0], dtype=complex)
        for t in (0.13, 0.77, 3.1):
            direct = fq.evolve(sampler, 0.0, t, 8192) @ psi0
            via_floquet = fq.evolve_state_floquet(sol, psi0, 0.0, t)
            assert np.max(np.abs(direct - via_floquet)) < 1e-6

    def test_norm_preserved(self):
        drive = fq.DriveProtocol(omega=7.0, amplitude=1.2, polarization="circular")
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.9, 0.4, drive), 10)))
        psi0 = np.array([0.6, 0.8], dtype=complex)
        for t in np.linspace(0.0, 3.0, 7):
            assert abs(np.linalg.norm(fq.evolve_state_floquet(sol, psi0, 0.0, t)) - 1.0) < 1e-6

    def test_expansion_coefficients_normalized(self):
        drive = fq.DriveProtocol(omega=6.0, amplitude=0.7, polarization="circular")
        sol = fq.select_physical_band(
            fq.quasienergies(fq.build_floquet_matrix(fq.dirac_modes(0.2, 0.6, drive), 9)))
        psi0 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
        coeffs = fq.floquet_coefficients(sol, psi0, 0.4)
        assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-6

    def test_norm_drift_warns_at_a_small_cutoff(self):
        # omega = 1, A = 6 needs far more harmonics than n_max 3 and M 5 hold
        drive = fq.DriveProtocol(omega=1.0, amplitude=6.0)
        sol = fq.physical_band(fq.chain_modes(0.3, 1.0, drive, 3), 5)
        with pytest.warns(UserWarning, match="norm drift 3.19e-03") as record:
            fq.evolve_state_floquet(sol, np.array([1.0]), 0.0, 0.7)
        assert [w.filename for w in record] == [__file__]

    def test_requires_physical_solution(self):
        sol = fq.quasienergies(fq.build_floquet_matrix(static_modes(SIGMA_Z, 5.0), 3))
        with pytest.raises(ValueError, match="physical"):
            fq.evolve_state_floquet(sol, np.array([1.0, 0.0]), 0.0, 1.0)


def band_drift(modes, m_cut, m_ref):
    """Largest change of the physical band between cutoffs m_cut and m_ref."""
    return np.max(np.abs(fq.physical_band(modes, m_cut).quasienergies
                         - fq.physical_band(modes, m_ref).quasienergies))


class TestConvergenceScan:
    def test_static_all_zero(self):
        modes = static_modes(SIGMA_Z, 5.0, n_max=1)
        assert band_drift(modes, 3, 7) == 0.0
        assert band_drift(modes, 5, 7) == 0.0

    def test_chain_bessel_tail(self):
        # a modest replica cutoff already agrees with a far larger one to 1e-10
        # (the coupling tail decays like a high-order Bessel function)
        drive = fq.DriveProtocol(omega=8.0, amplitude=1.0)
        modes = fq.chain_modes(0.5, 1.0, drive, 6)
        assert band_drift(modes, 8, 21) < 1e-10

    def test_dirac_gap_cutoff_insensitive(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        modes = fq.dirac_modes(0.0, 0.0, drive)

        def gap(m):
            sol = fq.select_physical_band(
                fq.quasienergies(fq.build_floquet_matrix(modes, m)))
            return sol.quasienergies[1] - sol.quasienergies[0]

        assert abs(gap(8) - gap(16)) < 1e-9

    def test_dirac_gap_converged(self):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        modes = fq.dirac_modes(0.0, 0.0, drive)
        assert band_drift(modes, 8, 16) < 1e-9
