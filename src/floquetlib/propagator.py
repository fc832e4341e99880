"""Time-domain propagation: the oracle side of every quasienergy check.

Everything here works directly with the time-ordered evolution operator,
so it is independent of the extended-space diagonalization and can be
used to cross-check it. The integrator is a midpoint-exponential
product: unitary by construction at every step and second-order accurate
in the step size.

* d = 1: the steps commute, so U = exp(-i dt sum_j h(t_j)).
* d = 2: for H = h0 I + v.sigma with r = |v|, a step is e^{-i dt h0} S
  with S = [[a, -conj(b)], [b, conj(a)]] in SU(2), a = cos(dt r) - i s v_z,
  b = -i s H_10 and s = sin(dt r) / r. The scalar phases commute out as
  one exp(-i dt sum_j h0), and the product of the S runs on the (a, b)
  pairs alone (Cayley-Klein form).
* d >= 3: each step is exponentiated through eigh and the steps are
  multiplied with batched matmul.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .models import _sample_times

BRANCH_CUT_TOL = 1e-10


class BranchCutError(RuntimeError):
    """An eigenphase sits on the log branch cut; H_F extraction refused."""


def evolve(sampler, t_start, t_end, n_steps):
    """Time-ordered propagator U(t_end, t_start) of a Hermitian sampler.

    Ordered product of midpoint exponentials,
    U = prod_j exp(-i dt H(t_j + dt/2)) with later factors applied last.
    A reversed interval returns the adjoint of the forward propagator.

    Parameters
    ----------
    sampler : callable
        t -> Hermitian matrix H(t). The midpoints are sampled in one call
        when the sampler takes an array of times and returns
        (n_steps, d, d), as the built-in samplers do; any other
        callable is sampled once per midpoint.
    t_start, t_end : float
        Evolution interval; t_end < t_start is allowed.
    n_steps : int
        Number of midpoint steps, an integer (NumPy's too) of at least 1;
        accuracy is O((dt)^2).
    """
    _check_count("n_steps", n_steps)
    _check_finite(t_start=t_start, t_end=t_end)
    if t_end == t_start:
        return np.eye(_square_dim(np.shape(sampler(t_start))), dtype=complex)
    if t_end < t_start:
        return evolve(sampler, t_end, t_start, n_steps).conj().T
    dt = (t_end - t_start) / n_steps
    mids = t_start + dt * (np.arange(n_steps) + 0.5)
    hs = _sample_times(sampler, mids)
    dim = _square_dim(hs.shape[1:])
    if dim == 1:
        return _evolve_1x1(hs[:, 0, 0], dt)
    if dim == 2:
        return _evolve_2x2(hs, dt)
    _check_hermitian(np.max(np.abs(hs - hs.conj().transpose(0, 2, 1))))
    energies, frames = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt * energies)
    return _ordered_product(np.einsum("tij,tj,tkj->tik", frames, phases, frames.conj()))


def _square_dim(shape):
    # the sampler's H(t) must be a (d, d) matrix
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"sampler must return a square matrix, got shape {tuple(shape)}")
    return shape[0]


def _check_hermitian(herm):
    # written so that a NaN error fails too
    if not herm <= 1e-9:
        raise ValueError(f"sampler is not Hermitian along the path (error {herm:.2e})")


def _evolve_1x1(h, dt):
    # the steps commute: one phase from the summed real parts, which is what eigh reads
    _check_hermitian(np.max(np.abs(h - h.conj())))
    return np.array([[np.exp(-1j * dt * np.sum(h.real))]])


def _evolve_2x2(hs, dt):
    # the entries of H - H^dagger: (0, 0), (1, 1) and (0, 1), whose (1, 0) mirror has the
    # same modulus; one np.max over one array, so a NaN anywhere (a real one too) fails
    flat = hs.reshape(len(hs), 4)
    diag = flat[:, ::3]
    _check_hermitian(np.max(np.abs(np.concatenate(
        [(diag - diag.conj()).ravel(), flat[:, 1] - flat[:, 2].conj()]))))
    # like eigh, read the diagonal's real part and the lower off-diagonal element
    h00, h11, off = diag[:, 0].real, diag[:, 1].real, flat[:, 2]
    vz = 0.5 * (h00 - h11)
    r = np.sqrt(vz * vz + off.real * off.real + off.imag * off.imag)
    # np.sinc keeps s = sin(dt r) / r finite at r = 0
    s = dt * np.sinc(dt * r / np.pi)
    alpha, beta = _su2_product(np.cos(dt * r) - 1j * s * vz, -1j * s * off)
    phase = np.exp(-0.5j * dt * np.sum(h00 + h11))
    return phase * np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]])


def _su2_product(alpha, beta):
    # (alpha, beta) of step j stand for [[alpha, -conj(beta)], [beta, conj(alpha)]]; the
    # result is step[-1] @ ... @ step[0], reduced pairwise. With L the later and E the
    # earlier step, L E has alpha_L alpha_E - conj(beta_L) beta_E and
    # beta_L alpha_E + conj(alpha_L) beta_E
    while alpha.size > 1:
        a_late, b_late, a_early, b_early = alpha[1::2], beta[1::2], alpha[:-1:2], beta[:-1:2]
        pair_a = a_late * a_early - b_late.conj() * b_early
        pair_b = b_late * a_early + a_late.conj() * b_early
        if alpha.size % 2:
            pair_a = np.concatenate([pair_a, alpha[-1:]])
            pair_b = np.concatenate([pair_b, beta[-1:]])
        alpha, beta = pair_a, pair_b
    return alpha[0], beta[0]


def _ordered_product(mats):
    # mats[j] acts at time j; result is mats[-1] @ ... @ mats[0],
    # reduced pairwise so the loop count is logarithmic
    while len(mats) > 1:
        pairs = mats[1::2] @ mats[:-1:2]
        mats = np.concatenate([pairs, mats[-1:]]) if len(mats) % 2 else pairs
    return mats[0]


def unitarity_error(u):
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _unitary_eigensystem(u):
    # Schur form of a (numerically) normal matrix: diagonal T with an
    # orthonormal frame Q, robust where plain eig loses orthogonality
    t, q = schur(np.asarray(u, dtype=complex), output="complex")
    return np.angle(np.diag(t)), q


@dataclass(frozen=True)
class StroboscopicHF:
    """Effective static Hamiltonian generating one-period evolution from s."""

    s: float
    omega: float
    matrix: np.ndarray

    @property
    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)


def stroboscopic_hf(sampler, s, omega, n_steps=4096):
    """H_F(s) = (i/T) log U(s+T, s), eigenphases folded to (-pi, pi].

    The matrix log is taken through the eigendecomposition of the
    one-period propagator (exact for a normal matrix up to eigensolver
    tolerance), so the result is Hermitian by construction with
    eigenvalues in [-omega/2, omega/2). Refuses with BranchCutError when
    an eigenphase falls within 1e-10 of the branch cut at pi, where the
    Hermitian extraction is ill-defined.
    """
    _check_positive("omega", omega)
    period = 2.0 * np.pi / omega
    u = evolve(sampler, s, s + period, n_steps)
    phases, frame = _unitary_eigensystem(u)
    if np.any(np.pi - np.abs(phases) < BRANCH_CUT_TOL):
        raise BranchCutError(
            "quasienergy at the zone boundary: eigenphase within 1e-10 of the "
            "log branch cut at pi")
    eps = -phases / period
    matrix = (frame * eps) @ frame.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    return StroboscopicHF(s=s, omega=omega, matrix=matrix)


def micromotion(sampler, s, t, omega, n_steps=4096, hf=None):
    """Periodic part of the evolution, P_s(t) = U(t, s) exp(i (t-s) H_F(s)).

    Satisfies P_s(s) = I and P_s(t + T) = P_s(t) up to integrator error.
    A precomputed StroboscopicHF for the same s may be passed to avoid
    recomputing the one-period propagator.
    """
    _check_positive("omega", omega)
    _check_finite(s=s, t=t)     # before the step count, which cannot round them
    if hf is None:
        hf = stroboscopic_hf(sampler, s, omega, n_steps)
    steps = max(1, int(round(n_steps * abs(t - s) * omega / (2.0 * np.pi))))
    u = evolve(sampler, s, t, steps)
    w, v = np.linalg.eigh(hf.matrix)
    phase = (v * np.exp(1j * (t - s) * w)) @ v.conj().T
    return u @ phase


def quasienergies_from_monodromy(u, omega):
    """Folded quasienergies from a one-period propagator.

    eps_j = -(omega / 2 pi) arg(lambda_j) with arg in (-pi, pi], hence
    eps in [-omega/2, omega/2). Input must be unitary.
    """
    _check_positive("omega", omega)
    err = unitarity_error(u)
    if not err <= 1e-8:
        raise ValueError(f"matrix is not unitary (error {err:.2e})")
    phases, _ = _unitary_eigensystem(u)
    return np.sort(-(omega / (2.0 * np.pi)) * phases)


def monodromy(sampler, omega, s=0.0, n_steps=4096):
    """One-period propagator U(s + T, s)."""
    _check_positive("omega", omega)
    period = 2.0 * np.pi / omega
    return evolve(sampler, s, s + period, n_steps)


def _check_count(name, value):
    # bool is an Integral; True must not pass as one step
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(name, value):
    # a zero, negative or non-finite omega has no period T = 2 pi / omega, nor dt a step
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value <= 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
