import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

import floquetlib as fq
from floquetlib.models import (
    HONEYCOMB_DELTAS,
    DriveProtocol,
    FourierModeSet,
    SIGMA_X,
    SIGMA_Z,
    chain_modes,
    custom_modes,
    dirac_modes,
    fourier_modes,
    honeycomb_modes,
    sample_chain_1d,
    sample_dirac,
    sample_honeycomb,
    suggested_n_max,
    _sample_times,
)

GAMMA_POINT = (0.0, 0.0)
K_POINT = (4.0 * np.pi / (3.0 * np.sqrt(3.0)), 0.0)

LINEAR = DriveProtocol(omega=5.0, amplitude=1.3)
CIRCULAR = DriveProtocol(omega=5.0, amplitude=1.3, polarization="circular")
BUILTIN_SAMPLERS = {
    "chain1d": lambda t: sample_chain_1d(0.7, 1.0, LINEAR, t),
    "dirac": lambda t: sample_dirac(0.3, -0.2, CIRCULAR, t),
    "honeycomb": lambda t: sample_honeycomb(0.4, -0.7, 1.0, CIRCULAR, t),
    "mode_set": honeycomb_modes(0.4, -0.7, 1.0, CIRCULAR, 8).sample,
    "mode_set_3x3": custom_modes(2.0, [
        [0, np.diag([0.5, 0.0, -0.5]).tolist(), np.zeros((3, 3)).tolist()],
        [2, np.eye(3, k=1).tolist(), (0.3 * np.eye(3, k=-1)).tolist()],
        [-2, np.eye(3, k=-1).tolist(), (-0.3 * np.eye(3, k=1)).tolist()]]).sample,
}


def per_t_samples(sampler, ts):
    """One sampler call per time: the loop the batched samplers replace."""
    return np.stack([np.asarray(sampler(t), dtype=complex) for t in ts])


def reference_fourier_modes(sampler, omega, n_max):
    """fourier_modes with one sampler call per grid point (the per-t oracle)."""
    n_samples = 4 * n_max + 1
    ts = np.arange(n_samples) * (2.0 * np.pi / omega / n_samples)
    samples = per_t_samples(sampler, ts)
    ns = np.arange(-n_max, n_max + 1)
    raw = np.tensordot(np.exp(1j * ns[:, None] * omega * ts), samples, axes=(1, 0)) / n_samples
    return 0.5 * (raw + raw[::-1].conj().transpose(0, 2, 1))


def _nan_at(array, index):
    array = np.array(array, dtype=complex)
    array[index] = np.nan
    return array


# each check that a NaN input must fail (written `not x <= tol` or `not x > 0`), with its message
NAN_INPUTS = {
    "FourierModeSet entry": (lambda: FourierModeSet(
        1.0, _nan_at(np.stack([SIGMA_X, SIGMA_Z, SIGMA_X]), (1, 0, 0))), "dagger"),
    "FourierModeSet omega": (lambda: FourierModeSet(np.nan, np.stack([SIGMA_X, SIGMA_Z, SIGMA_X])),
                             "omega must be positive"),
    "DriveProtocol omega": (lambda: DriveProtocol(omega=np.nan), "frequency must be positive"),
    "DriveProtocol amplitude": (lambda: DriveProtocol(omega=1.0, amplitude=np.nan),
                                "amplitude must be >= 0"),
    "FloquetMatrix": (lambda: fq.FloquetMatrix(1.0, 0, 2, 0, _nan_at(SIGMA_Z, (0, 1))),
                      "not Hermitian"),
    "fourier_modes": (lambda: fourier_modes(lambda t: _nan_at(SIGMA_Z, (0, 0)), 1.0, 2),
                      "not Hermitian on the time grid"),
    "evolve": (lambda: fq.evolve(lambda t: _nan_at(SIGMA_Z, (0, 0)), 0.0, 1.0, 4),
               "not Hermitian along the path"),
    # a NaN with zero imaginary part must fail on every entry the 2x2 and 1x1 checks read
    "evolve (0, 1)": (lambda: fq.evolve(lambda t: _nan_at(SIGMA_X, (0, 1)), 0.0, 1.0, 4),
                      "not Hermitian along the path"),
    "evolve (1, 0)": (lambda: fq.evolve(lambda t: _nan_at(SIGMA_X, (1, 0)), 0.0, 1.0, 4),
                      "not Hermitian along the path"),
    "evolve (1, 1)": (lambda: fq.evolve(lambda t: _nan_at(SIGMA_Z, (1, 1)), 0.0, 1.0, 4),
                      "not Hermitian along the path"),
    "evolve 1x1": (lambda: fq.evolve(lambda t: _nan_at(np.ones((1, 1)), (0, 0)), 0.0, 1.0, 4),
                   "not Hermitian along the path"),
    "BathSpec gamma": (lambda: fq.BathSpec(gamma=np.nan, beta=1.0), "coupling must be positive"),
    "fold_to_bz": (lambda: fq.fold_to_bz(0.1, np.nan), "omega must be positive"),
    "quasienergies_from_monodromy": (lambda: fq.quasienergies_from_monodromy(
        _nan_at(np.eye(2), (0, 0)), 1.0), "not unitary"),
}


@pytest.mark.parametrize("build, message", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_fails_every_check(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_drive_protocol_validation():
    with pytest.raises(ValueError):
        DriveProtocol(omega=-1.0)
    with pytest.raises(ValueError):
        DriveProtocol(omega=1.0, amplitude=-0.5)
    with pytest.raises(ValueError):
        DriveProtocol(omega=1.0, polarization="elliptic")


class TestChain:
    def test_zero_drive(self):
        drive = DriveProtocol(omega=3.0, amplitude=0.0)
        assert sample_chain_1d(0.0, 1.0, drive, 0.33)[0, 0] == pytest.approx(-2.0)

    def test_band_node(self):
        drive = DriveProtocol(omega=3.0, amplitude=0.0)
        assert sample_chain_1d(np.pi / 2, 1.0, drive, 1.1)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_quarter_period(self):
        # A(T/4) = -E/omega, so the sampled value is -2 cos(k + E/omega)
        drive = DriveProtocol(omega=4.0, amplitude=1.0)
        got = sample_chain_1d(0.0, 1.0, drive, drive.period / 4.0)[0, 0]
        assert got == pytest.approx(-2.0 * np.cos(1.0), abs=1e-12)


class TestDirac:
    def test_static_origin(self):
        drive = DriveProtocol(omega=5.0, amplitude=0.0, polarization="circular")
        np.testing.assert_allclose(sample_dirac(0.0, 0.0, drive, 0.7), np.zeros((2, 2)), atol=1e-15)

    def test_static_cone(self):
        drive = DriveProtocol(omega=5.0, amplitude=0.0, polarization="circular")
        h = sample_dirac(1.0, 0.0, drive, 0.0)
        np.testing.assert_allclose(h, SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-1.0, 1.0], atol=1e-14)

    def test_driven_origin(self):
        drive = DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        np.testing.assert_allclose(sample_dirac(0.0, 0.0, drive, 0.0), -SIGMA_X, atol=1e-15)

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            sample_dirac(0.0, 0.0, DriveProtocol(omega=5.0, amplitude=1.0), 0.0)


class TestHoneycomb:
    def test_static_band_edge(self):
        drive = DriveProtocol(omega=5.0, amplitude=0.0, polarization="circular")
        h = sample_honeycomb(*GAMMA_POINT, 1.0, drive, 0.0)
        assert abs(h[0, 1]) == pytest.approx(3.0, abs=1e-13)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-3.0, 3.0], atol=1e-13)

    def test_static_dirac_node(self):
        drive = DriveProtocol(omega=5.0, amplitude=0.0, polarization="circular")
        h = sample_honeycomb(*K_POINT, 1.0, drive, 0.0)
        assert abs(h[0, 1]) < 1e-13

    def test_driven_gamma_point(self):
        # direct evaluation of sum_i exp(-i A xhat . delta_i) with the
        # pinned geometry: 1 + 2 cos(sqrt(3)/2 A)
        drive = DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        h = sample_honeycomb(*GAMMA_POINT, 1.0, drive, 0.0)
        assert h[0, 1] == pytest.approx(1.0 + 2.0 * np.cos(np.sqrt(3.0) / 2.0), abs=1e-13)

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            sample_honeycomb(0.0, 0.0, 1.0, DriveProtocol(omega=5.0), 0.0)

    def test_geometry_pinned(self):
        lengths = np.linalg.norm(HONEYCOMB_DELTAS, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-15)


# every sampler and closed-form builder, as (model, call with a drive)
BUILDERS = [
    ("chain1d", lambda drive: sample_chain_1d(0.3, 1.0, drive, 0.2)),
    ("chain1d", lambda drive: chain_modes(0.3, 1.0, drive, 4)),
    ("dirac", lambda drive: sample_dirac(0.3, -0.2, drive, 0.2)),
    ("dirac", lambda drive: dirac_modes(0.3, -0.2, drive)),
    ("honeycomb", lambda drive: sample_honeycomb(0.3, -0.2, 1.0, drive, 0.2)),
    ("honeycomb", lambda drive: honeycomb_modes(0.3, -0.2, 1.0, drive, 4)),
]


@pytest.mark.parametrize("model, build", BUILDERS, ids=[
    "sample_chain_1d", "chain_modes", "sample_dirac", "dirac_modes", "sample_honeycomb",
    "honeycomb_modes"])
def test_builders_take_only_their_models_polarization(model, build):
    own = fq.models.POLARIZATION[model]
    other = {"linear": "circular", "circular": "linear"}[own]
    build(DriveProtocol(omega=5.0, amplitude=1.0, polarization=own))
    with pytest.raises(ValueError, match=f"^model '{model}' is defined for {own} polarization, "
                                         f"got '{other}'$"):
        build(DriveProtocol(omega=5.0, amplitude=1.0, polarization=other))


class TestFourierModes:
    def test_constant_sampler(self):
        modes = fourier_modes(lambda t: SIGMA_Z, 2.0, 3)
        np.testing.assert_allclose(modes.mode(0), SIGMA_Z, atol=1e-14)
        for n in (1, 2, 3):
            assert np.max(np.abs(modes.mode(n))) < 1e-12

    def test_single_harmonic(self):
        omega = 2.0
        modes = fourier_modes(lambda t: np.cos(omega * t) * SIGMA_X, omega, 3)
        np.testing.assert_allclose(modes.mode(1), SIGMA_X / 2, atol=1e-13)
        np.testing.assert_allclose(modes.mode(-1), SIGMA_X / 2, atol=1e-13)
        assert np.max(np.abs(modes.mode(0))) < 1e-13
        assert np.max(np.abs(modes.mode(2))) < 1e-13

    def test_chain_reconstruction(self):
        drive = DriveProtocol(omega=3.0, amplitude=2.0)
        sampler = lambda t: sample_chain_1d(0.6, 1.0, drive, t)
        modes = fourier_modes(sampler, drive.omega, suggested_n_max(2.0))
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, drive.period, 7):
            np.testing.assert_allclose(modes.sample(t), sampler(t), atol=1e-9)

    def test_matches_closed_form_chain(self):
        drive = DriveProtocol(omega=4.0, amplitude=1.3)
        numeric = fourier_modes(lambda t: sample_chain_1d(0.9, 1.0, drive, t), drive.omega, 12)
        analytic = chain_modes(0.9, 1.0, drive, 12)
        for n in range(-12, 13):
            np.testing.assert_allclose(numeric.mode(n), analytic.mode(n), atol=1e-12)

    def test_matches_closed_form_honeycomb(self):
        drive = DriveProtocol(omega=6.0, amplitude=0.8, polarization="circular")
        numeric = fourier_modes(
            lambda t: sample_honeycomb(0.4, -0.7, 1.0, drive, t), drive.omega, 10)
        analytic = honeycomb_modes(0.4, -0.7, 1.0, drive, 10)
        for n in range(-10, 11):
            np.testing.assert_allclose(numeric.mode(n), analytic.mode(n), atol=1e-12)

    def test_nonhermitian_sampler_rejected(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            fourier_modes(lambda t: np.exp(-1j * t) * raising, 1.0, 2)

    def test_aliasing_warning(self):
        drive = DriveProtocol(omega=3.0, amplitude=2.5)
        with pytest.warns(UserWarning, match="aliasing"):
            fourier_modes(lambda t: sample_chain_1d(0.3, 1.0, drive, t), drive.omega, 2)

    def test_vanishing_time_average_is_silent(self):
        # chain at k = pi/2: |H_0| ~ 1e-19 while H_1 carries the drive;
        # the edge mode is tiny next to the largest mode
        drive = DriveProtocol(omega=8.0, amplitude=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes = fourier_modes(
                lambda t: sample_chain_1d(np.pi / 2, 1.0, drive, t), drive.omega,
                suggested_n_max(1.0))
        assert np.max(np.abs(modes.mode(0))) < 1e-15

    def test_vanishing_time_average_underresolved_warns(self):
        # same k, strong drive cut at n_max = 3: J_3(8) exceeds J_1(8)
        drive = DriveProtocol(omega=8.0, amplitude=8.0)
        with pytest.warns(UserWarning, match="aliasing"):
            fourier_modes(lambda t: sample_chain_1d(np.pi / 2, 1.0, drive, t),
                          drive.omega, 3)


class TestBatchedSamplers:
    TIMES = np.linspace(-1.0, 3.0, 37)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_time_array_rows_match_scalar_calls(self, name):
        sampler = BUILTIN_SAMPLERS[name]
        batch = sampler(self.TIMES)
        single = sampler(0.25)
        assert single.ndim == 2 and single.shape[0] == single.shape[1]
        assert batch.shape == (self.TIMES.size,) + single.shape
        np.testing.assert_allclose(batch, per_t_samples(sampler, self.TIMES), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_builtin_sampled_in_one_array_call(self, name):
        calls = []

        def counted(t):
            calls.append(np.ndim(t))
            return BUILTIN_SAMPLERS[name](t)

        got = _sample_times(counted, self.TIMES)
        assert sorted(calls) == [0, 0, 1]  # two scalar checks, one array call
        np.testing.assert_allclose(got, per_t_samples(counted, self.TIMES), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("sampler", [
        lambda t: float(t) * SIGMA_Z,                         # raises on an array
        lambda t: SIGMA_Z,                                    # ignores t: one (2, 2) matrix
        lambda t: np.broadcast_to(np.ravel(t)[0] * SIGMA_Z,   # batched rows all at ts[0]
                                  np.shape(t) + (2, 2)),
    ], ids=["raises", "constant", "rows_disagree"])
    def test_falls_back_to_per_t_calls(self, sampler):
        got = _sample_times(sampler, self.TIMES)
        assert np.array_equal(got, per_t_samples(sampler, self.TIMES))

    def test_broken_sampler_raises_its_own_error(self):
        def broken(t):
            raise RuntimeError("model failure")

        with pytest.raises(RuntimeError, match="model failure"):
            _sample_times(broken, self.TIMES)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_fourier_modes_match_per_t_reference(self, name):
        omega = 2.0 if name == "mode_set_3x3" else 5.0
        got = fourier_modes(BUILTIN_SAMPLERS[name], omega, 10)
        want = reference_fourier_modes(BUILTIN_SAMPLERS[name], omega, 10)
        np.testing.assert_allclose(got.modes, want, rtol=0, atol=1e-14)


class TestModeSetInvariants:
    def test_pairing_enforced(self):
        bad = np.stack([2 * SIGMA_X, np.zeros((2, 2)), SIGMA_X])
        with pytest.raises(ValueError, match="dagger"):
            FourierModeSet(1.0, bad)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (3, 2), (4, 1, 1)])
    def test_malformed_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            FourierModeSet(1.0, np.zeros(shape))

    def test_mode_array_zero_beyond_cutoff(self):
        drive = DriveProtocol(omega=4.0, amplitude=1.0, polarization="circular")
        modes = honeycomb_modes(0.3, 0.2, 1.0, drive, 3)
        ns = np.array([[-5, -3, 0], [2, 4, 9]])
        stack = modes.mode(ns)
        assert stack.shape == (2, 3, 2, 2)
        for idx, n in np.ndenumerate(ns):
            expected = modes.modes[n + 3] if abs(n) <= 3 else np.zeros((2, 2))
            assert np.array_equal(stack[idx], expected)

    def test_missing_partner_rejected(self):
        with pytest.raises(ValueError):
            FourierModeSet(1.0, np.stack([np.zeros((2, 2)), SIGMA_X]))

    def test_validated_modes_are_read_only(self):
        stack = np.stack([SIGMA_X, SIGMA_Z, SIGMA_X])
        modes = FourierModeSet(1.0, stack)
        with pytest.raises(ValueError, match="read-only"):
            modes.modes[2, 0, 1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            modes.mode(1)[0, 1] = 0.5
        assert np.array_equal(modes.mode(1), SIGMA_X)
        # the caller's own array is copied, not frozen
        stack[2, 0, 1] = 0.5
        assert modes.modes[2, 0, 1] == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=-np.pi, max_value=np.pi))
    def test_numeric_pairing(self, amplitude, omega, k):
        drive = DriveProtocol(omega=omega, amplitude=amplitude, polarization="circular")
        modes = fourier_modes(
            lambda t: sample_honeycomb(k, 0.4, 1.0, drive, t), omega, suggested_n_max(amplitude))
        for n in range(0, 7):
            err = np.max(np.abs(modes.mode(-n) - modes.mode(n).conj().T))
            assert err < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=-np.pi, max_value=np.pi))
    def test_static_limit(self, omega, k):
        drive = DriveProtocol(omega=omega, amplitude=0.0)
        modes = fourier_modes(lambda t: sample_chain_1d(k, 1.0, drive, t), omega, 4)
        for n in range(1, 5):
            assert np.max(np.abs(modes.mode(n))) < 1e-13

    def test_reconstruction_all_builtins(self):
        # Bessel-decay heuristic cutoff keeps the reconstruction error
        # below 1e-8 for every built-in model
        cases = []
        lin = DriveProtocol(omega=5.0, amplitude=1.8)
        circ = DriveProtocol(omega=5.0, amplitude=1.8, polarization="circular")
        cases.append((lambda t: sample_chain_1d(0.4, 1.0, lin, t), lin))
        cases.append((lambda t: sample_dirac(0.5, -0.3, circ, t), circ))
        cases.append((lambda t: sample_honeycomb(0.5, -0.3, 1.0, circ, t), circ))
        ts = np.linspace(0.0, lin.period, 11)
        for sampler, drive in cases:
            modes = fourier_modes(sampler, drive.omega, suggested_n_max(drive.amplitude))
            err = max(np.max(np.abs(modes.sample(t) - sampler(t))) for t in ts)
            assert err < 1e-8

    def test_time_reversed_swaps_modes(self):
        drive = DriveProtocol(omega=4.0, amplitude=1.0, polarization="circular")
        modes = honeycomb_modes(0.3, 0.2, 1.0, drive, 5)
        rev = modes.time_reversed()
        for n in range(-5, 6):
            np.testing.assert_allclose(rev.mode(n), modes.mode(-n), atol=1e-15)


def test_custom_modes_wire_format():
    triples = [
        [0, [[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        [1, [[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [-1, [[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    ]
    modes = custom_modes(2.0, triples)
    assert modes.dim == 2
    assert modes.n_max == 1
    np.testing.assert_allclose(modes.mode(0), 0.5 * SIGMA_Z)
    np.testing.assert_allclose(modes.mode(1), 0.25 * SIGMA_X)


def test_custom_modes_missing_harmonic_is_zero():
    triples = [
        [0, [[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        [2, [[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [-2, [[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    ]
    modes = custom_modes(2.0, triples)
    assert modes.n_max == 2
    assert modes.modes.shape == (5, 2, 2)
    for n in (-1, 1):
        assert np.array_equal(modes.mode(n), np.zeros((2, 2)))
    np.testing.assert_allclose(modes.mode(-2), 0.25 * SIGMA_X)


def test_sample_equals_the_full_sum_on_a_set_with_gaps():
    # harmonics 0, +-3 and +-7 held, the ten between them zero
    rng = np.random.default_rng(3)
    modes = np.zeros((15, 2, 2), dtype=complex)
    h0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    modes[7] = h0 + h0.conj().T
    for n in (3, 7):
        modes[7 + n] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        modes[7 - n] = modes[7 + n].conj().T
    mode_set = FourierModeSet(1.3, modes)
    ts = rng.uniform(0.0, 10.0, 17)
    phases = np.exp(-1j * np.arange(-7, 8) * 1.3 * ts[:, None])
    full = np.einsum("tn,nij->tij", phases, modes)
    assert np.max(np.abs(mode_set.sample(ts) - full)) < 1e-14
    assert np.max(np.abs(mode_set.sample(ts[5]) - full[5])) < 1e-14


@pytest.mark.parametrize("indices", [(0, 0), (0, 1.5)], ids=["repeated", "fractional"])
def test_custom_modes_rejects_bad_indices(indices):
    with pytest.raises(ValueError, match="index|indices"):
        custom_modes(1.0, [[n, [[0.0]], [[0.0]]] for n in indices])


def test_custom_modes_rejects_nonsquare():
    with pytest.raises(ValueError):
        custom_modes(1.0, [[0, [[1.0, 0.0]], [[0.0, 0.0]]]])


def test_dirac_modes_single_harmonic():
    drive = DriveProtocol(omega=5.0, amplitude=0.7, polarization="circular")
    modes = dirac_modes(0.2, 0.1, drive)
    assert modes.n_max == 1
    ts = np.linspace(0.0, drive.period, 9)
    for t in ts:
        np.testing.assert_allclose(modes.sample(t), sample_dirac(0.2, 0.1, drive, t), atol=1e-13)


class TestClosedFormBesselFactors:
    """chain_modes/honeycomb_modes against modes built order by order from scipy's J_n."""

    @pytest.mark.parametrize("amplitude", [0.0, 0.4, 1.0, 2.7])
    def test_chain_modes_match_per_order_jv(self, amplitude):
        drive = DriveProtocol(omega=4.0, amplitude=amplitude)
        k, n_max = 0.9, 12
        modes = chain_modes(k, 1.3, drive, n_max)
        for n in range(-n_max, n_max + 1):
            expected = -1.3 * jv(n, amplitude) * ((-1.0) ** n * np.exp(1j * k) + np.exp(-1j * k))
            np.testing.assert_allclose(modes.mode(n), [[expected]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("amplitude", [0.0, 0.4, 1.0, 2.7])
    def test_honeycomb_modes_match_per_order_jv(self, amplitude):
        drive = DriveProtocol(omega=6.0, amplitude=amplitude, polarization="circular")
        kx, ky, n_max = 0.4, -0.7, 10
        modes = honeycomb_modes(kx, ky, 0.8, drive, n_max)
        bond_phases = np.exp(1j * (HONEYCOMB_DELTAS @ np.array([kx, ky])))
        phis = np.arctan2(HONEYCOMB_DELTAS[:, 1], HONEYCOMB_DELTAS[:, 0])

        def f(n):
            return 0.8 * jv(n, amplitude) * (-1j) ** n * np.sum(bond_phases * np.exp(1j * n * phis))

        for n in range(-n_max, n_max + 1):
            expected = np.array([[0.0, f(n)], [np.conj(f(-n)), 0.0]])
            np.testing.assert_allclose(modes.mode(n), expected, rtol=0, atol=1e-15)
