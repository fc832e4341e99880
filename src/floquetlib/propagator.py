"""Time-domain propagation: the oracle side of every quasienergy check.

Everything here works directly with the time-ordered evolution operator,
so it is independent of the extended-space diagonalization and can be
used to cross-check it. The integrator is a midpoint-exponential
product: unitary by construction at every step and second-order accurate
in the step size.
"""

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
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if t_end == t_start:
        dim = np.asarray(sampler(t_start)).shape[0]
        return np.eye(dim, dtype=complex)
    if t_end < t_start:
        return evolve(sampler, t_end, t_start, n_steps).conj().T
    dt = (t_end - t_start) / n_steps
    mids = t_start + dt * (np.arange(n_steps) + 0.5)
    hs = _sample_times(sampler, mids)
    herm = np.max(np.abs(hs - hs.conj().transpose(0, 2, 1)))
    if not herm <= 1e-9:
        raise ValueError(f"sampler is not Hermitian along the path (error {herm:.2e})")
    energies, frames = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt * energies)
    steps = np.einsum("tij,tj,tkj->tik", frames, phases, frames.conj())
    return _ordered_product(steps)


def _ordered_product(steps):
    # steps[j] acts at time j; result is steps[-1] @ ... @ steps[0],
    # reduced pairwise so the loop count is logarithmic
    mats = steps
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
    err = unitarity_error(u)
    if not err <= 1e-8:
        raise ValueError(f"matrix is not unitary (error {err:.2e})")
    phases, _ = _unitary_eigensystem(u)
    return np.sort(-(omega / (2.0 * np.pi)) * phases)


def monodromy(sampler, omega, s=0.0, n_steps=4096):
    """One-period propagator U(s + T, s)."""
    period = 2.0 * np.pi / omega
    return evolve(sampler, s, s + period, n_steps)
