"""Driven open systems: Floquet Green's functions and Lindblad dynamics.

Two complementary routes to the dissipative steady state of a driven
system. The Green's-function route couples a noninteracting system to a
wide-band free-fermion bath and solves the Dyson equation in the Floquet
matrix representation from one eigendecomposition of the Floquet matrix;
the Lindblad route integrates the GKSL master equation in time and finds
the time-periodic steady state as a fixed point of the one-period map.
One RK4 period on the matrix units gives that map and, by linearity,
the steady state at every step of the period.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import FourierModeSet, _sample_times
from .sambe import build_floquet_matrix

RK4_LOAD_LIMIT = 0.1    # the largest step (max |H| + sum |L_j|^2) an RK4 step may take


@dataclass(frozen=True)
class BathSpec:
    """Wide-band free-fermion bath: coupling gamma and inverse temperature beta.

    beta = math.inf is the zero-temperature limit where the thermal
    factor tanh(beta nu / 2) becomes sign(nu).
    """

    gamma: float
    beta: float

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"bath coupling must be positive, got {self.gamma}")
        if not self.beta > 0.0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")

    def thermal_factor(self, energy):
        if math.isinf(self.beta):
            return np.sign(energy)
        return np.tanh(0.5 * self.beta * np.asarray(energy))


def bath_self_energy(bath: BathSpec, nu, n, omega):
    """Diagonal Floquet-block entries of the bath self-energy at nu + n omega.

    Retarded part -i gamma (flat band taken literally, the real part is
    absorbed into the chemical potential); Keldysh part
    -2i gamma tanh(beta (nu + n omega) / 2).
    """
    sig_r = -1j * bath.gamma
    sig_k = -2j * bath.gamma * bath.thermal_factor(nu + n * omega)
    return sig_r, sig_k


@dataclass(frozen=True)
class GreensFunctionGrid:
    """Retarded Floquet matrices and the bath's Keldysh self-energy on a frequency grid.

    Frequencies live in the folded zone [-omega/2, omega/2); block index
    n maps a folded nu to the physical frequency nu + n omega. Only G^R
    and the diagonal of Sigma^K are stored: the advanced and Keldysh
    functions are formed on request, and observables read diagonals
    (tr[G^A]_nn = conj tr[G^R]_nn, and [G^K]_ii from G^R and Sigma^K).
    """

    omega: float
    m_cut: int
    dim: int
    nu: np.ndarray
    g_retarded: np.ndarray       # (n_nu, D, D) with D = (2M+1) dim
    sigma_keldysh: np.ndarray    # (n_nu, D) diagonal of the bath's Sigma^K

    @property
    def n_blocks(self):
        return 2 * self.m_cut + 1

    @property
    def g_advanced(self):
        return self.g_retarded.conj().transpose(0, 2, 1)

    @property
    def g_keldysh(self):
        """G^K = G^R Sigma^K G^A as (n_nu, D, D), computed on every access."""
        return (self.g_retarded * self.sigma_keldysh[:, None, :]) @ self.g_advanced

    def block_traces(self, diagonals):
        """Per-block sums of (n_nu, D) diagonals: (n_nu, 2M+1), column n + M for block n."""
        return diagonals.reshape(len(self.nu), self.n_blocks, self.dim).sum(axis=2)


def floquet_greens(modes: FourierModeSet, bath: BathSpec, m_cut, nu_grid):
    """Dyson equation of a noninteracting driven system, from one eigendecomposition.

    G^R(nu) = [(nu + m omega) delta_{mn} - H_{m-n} + i gamma delta_{mn}]^{-1}.
    The bath's retarded self-energy is the scalar -i gamma on every block,
    so with the Floquet matrix H_F = V E V^dagger, G^R(nu) equals
    V (nu + i gamma - E)^{-1} V^dagger at every nu. G^A = (G^R)^dagger and
    G^K = G^R Sigma_b^K G^A are formed on request. The system self-energy
    is zero by scope, so the only broadening is the bath's.
    """
    energies, vectors = np.linalg.eigh(build_floquet_matrix(modes, m_cut).matrix)
    nu_grid = np.asarray(nu_grid, dtype=float)
    block_index = np.repeat(np.arange(-m_cut, m_cut + 1), modes.dim)
    sigma_r, sigma_k = bath_self_energy(bath, nu_grid[:, None], block_index, modes.omega)
    resolvent = 1.0 / (nu_grid[:, None] - sigma_r - energies)
    g_r = (vectors * resolvent[:, None, :]) @ vectors.conj().T
    return GreensFunctionGrid(
        omega=modes.omega, m_cut=m_cut, dim=modes.dim,
        nu=nu_grid, g_retarded=g_r, sigma_keldysh=sigma_k)


def _unfold(grid: GreensFunctionGrid, values):
    """Sort (n_nu, 2M+1) per-block values onto the axis nu + n omega."""
    shifts = np.arange(-grid.m_cut, grid.m_cut + 1) * grid.omega
    axis = (grid.nu[None, :] + shifts[:, None]).ravel()
    order = np.argsort(axis, kind="stable")
    return axis[order], values.T.ravel()[order]


def spectral_function(grid: GreensFunctionGrid):
    """A(nu + n omega) = -(1/pi) Im tr [G^R(nu)]_{nn}, on the unfolded axis.

    Returns (frequencies, values) sorted by physical frequency; spectral
    weight outside the covered window (2M+1 zones wide) is truncated,
    which matters only for the Lorentzian tails.
    """
    tr_r = grid.block_traces(np.diagonal(grid.g_retarded, axis1=1, axis2=2))
    return _unfold(grid, -np.imag(tr_r) / np.pi)


def occupation_function(grid: GreensFunctionGrid):
    """Occupied spectrum N(nu + n omega) from the lesser function.

    N = (1/2 pi i) tr [G^<]_{nn} with G^< = (G^K - G^R + G^A)/2, which
    reduces to the spectral function times the Fermi factor in
    equilibrium, so 0 <= N <= A pointwise. Sigma^K is diagonal, so
    [G^K]_ii = sum_j |G^R_ij|^2 Sigma^K_j and no Keldysh matrix is formed.
    """
    tr_r = grid.block_traces(np.diagonal(grid.g_retarded, axis1=1, axis2=2))
    keldysh = np.einsum("fij,fj->fi", np.abs(grid.g_retarded) ** 2, grid.sigma_keldysh)
    lesser = 0.5 * (grid.block_traces(keldysh) - tr_r + tr_r.conj())
    return _unfold(grid, np.real(lesser / (2j * np.pi)))


@dataclass(frozen=True)
class LindbladSystem:
    """Time-periodic system Hamiltonian sampler plus jump operators.

    `hamiltonian` is any callable t -> Hermitian (dim, dim). When it also
    takes an array of times and returns (n, dim, dim), as the built-in
    samplers do, the RK4 integrator samples its whole time grid in one
    call; otherwise it calls it once per grid time. The jumps are kept as
    a tuple of read-only copies, so K = sum_j L_j^dagger L_j, built once
    here, cannot go stale.
    """

    hamiltonian: object
    jumps: tuple = ()

    def __post_init__(self):
        dim = np.asarray(self.hamiltonian(0.0)).shape[0]
        cleaned = []
        for j, op in enumerate(self.jumps):
            arr = np.array(op, dtype=complex)
            if arr.shape != (dim, dim):
                raise ValueError(f"jump operator {j} has shape {arr.shape}, expected {(dim, dim)}")
            arr.setflags(write=False)
            cleaned.append(arr)
        object.__setattr__(self, "jumps", tuple(cleaned))
        object.__setattr__(self, "_dim", dim)
        # H_eff = H + _shift with _shift = -(i/2) K
        object.__setattr__(self, "_shift", -0.5j * sum(op.conj().T @ op for op in cleaned))

    @property
    def dim(self):
        return self._dim


def lindblad_rhs(system: LindbladSystem, rho, t):
    """GKSL right-hand side -i[H, rho] + sum_j (L rho L+ - {L+L, rho}/2)."""
    h_eff = np.asarray(system.hamiltonian(t), dtype=complex) + system._shift
    return _rhs(system, np.asarray(rho, dtype=complex), h_eff)


def _rhs(system: LindbladSystem, rho, h_eff):
    """lindblad_rhs as -i(H_eff rho - rho H_eff+) + sum_j L rho L+, H_eff already formed."""
    out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
    for op in system.jumps:
        out += op @ rho @ op.conj().T
    return out


@dataclass(frozen=True)
class LindbladTrajectory:
    times: np.ndarray
    states: np.ndarray   # (n_times, dim, dim)

    @property
    def final(self):
        return self.states[-1]


def rk4_samples(system: LindbladSystem, t0, t1, dt):
    """The RK4 step over [t0, t1] at nominal step dt and H on its half-step grid.

    Takes round((t1 - t0) / dt) uniform steps (at least one) and samples
    the Hamiltonian in one call on the 2 n_steps + 1 points of the
    half-step grid: step i starts at point 2i, has its midpoint at 2i + 1
    and ends at 2i + 2. Raises unless the step taken satisfies
    step (max |H| over those samples + sum |L_j|^2) < RK4_LOAD_LIMIT = 0.1.
    """
    if t1 <= t0:
        raise ValueError("t_span must have t1 > t0")
    step, h, load = _rk4_load(system, t0, t1, max(1, int(round((t1 - t0) / dt))))
    if load >= RK4_LOAD_LIMIT:
        raise ValueError(f"step {step:.4g} too large for stability: "
                         f"step (max |H| + sum |L|^2) = {load:.3f} >= {RK4_LOAD_LIMIT}")
    return step, h


def _rk4_load(system: LindbladSystem, t0, t1, n_steps):
    """(step, H on the half-step grid, stability load) of n_steps uniform steps."""
    step = (t1 - t0) / n_steps
    h = _sample_times(system.hamiltonian, t0 + np.arange(2 * n_steps + 1) * (0.5 * step))
    load = step * (np.max(np.linalg.norm(h, 2, axis=(1, 2)))
                   + sum(np.linalg.norm(op, 2) ** 2 for op in system.jumps))
    return step, h, load


def fewest_rk4_steps(system: LindbladSystem, t0, t1, n_steps):
    """The fewest uniform steps over [t0, t1] that rk4_samples accepts.

    Starts from ceil(n_steps load / RK4_LOAD_LIMIT), the load of n_steps
    steps scaled to the limit, and steps up until a count passes, then
    down while one fewer passes too: max |H| is taken on each count's own
    grid, so the scaling is an estimate.
    """
    fewest = max(1, math.ceil(n_steps * _rk4_load(system, t0, t1, n_steps)[2] / RK4_LOAD_LIMIT))
    while _rk4_load(system, t0, t1, fewest)[2] >= RK4_LOAD_LIMIT:
        fewest += 1
    while fewest > 1 and _rk4_load(system, t0, t1, fewest - 1)[2] < RK4_LOAD_LIMIT:
        fewest -= 1
    return fewest


def _rk4(system: LindbladSystem, rho, t0, t1, dt):
    """Classical RK4 over [t0, t1] at nominal step dt; returns (times, states).

    Steps and samples H as rk4_samples does, which raises for an unstable
    step. rho is one matrix or a (n, dim, dim) stack: the right-hand side
    is linear and broadcasts over the leading axis, so a stack costs the
    same sampler calls as one state. states[i] is the state after i steps.
    Warns, naming the caller's caller, when the trace of any state drifts
    by more than 1e-6.
    """
    step, h = rk4_samples(system, t0, t1, dt)
    n_steps = len(h) // 2
    h_eff = system._shift + h
    states = np.empty((n_steps + 1,) + np.shape(rho), dtype=complex)
    states[0] = rho
    for i in range(n_steps):
        rho = states[i]
        k1 = _rhs(system, rho, h_eff[2 * i])
        k2 = _rhs(system, rho + 0.5 * step * k1, h_eff[2 * i + 1])
        k3 = _rhs(system, rho + 0.5 * step * k2, h_eff[2 * i + 1])
        k4 = _rhs(system, rho + step * k3, h_eff[2 * i + 2])
        states[i + 1] = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = np.max(np.abs(np.trace(states[-1], axis1=-2, axis2=-1)
                          - np.trace(states[0], axis1=-2, axis2=-1)))
    if drift > 1e-6:
        warnings.warn(f"trace drift {drift:.2e} > 1e-6 over the trajectory", stacklevel=3)
    return t0 + np.arange(n_steps + 1) * step, states


def _warn_negativity(rho):
    """Warn, naming the caller's caller, when rho has an eigenvalue below -1e-6."""
    floor = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if floor < -1e-6:
        warnings.warn(f"density matrix developed negativity {floor:.2e}", stacklevel=3)


def evolve_lindblad(system: LindbladSystem, rho0, t_span, dt):
    """Classical fourth-order one-step integration of the master equation.

    No per-step renormalization: trace drift and negativity are
    diagnostics for integrator or model trouble and are reported through
    warnings rather than silently repaired. The step taken, (t1 - t0) /
    round((t1 - t0) / dt), must satisfy step (|H| + sum |L_j|^2) < 0.1
    with |H| the largest over the sampled grid.
    """
    times, states = _rk4(system, np.asarray(rho0, dtype=complex),
                         float(t_span[0]), float(t_span[1]), dt)
    _warn_negativity(states[-1])
    return LindbladTrajectory(times=times, states=states)


@dataclass(frozen=True)
class PeriodicSteadyState:
    """One period of the steady state, with its fixed-point residual and the map's gap."""

    times: np.ndarray
    states: np.ndarray
    residual: float
    gap: float
    periods = 1     # RK4 periods integrated, read by perfbench's tracer

    @property
    def rho0(self):
        return self.states[0]


def one_period_map(system: LindbladSystem, omega, steps_per_period=256):
    """The RK4 one-period map Phi_T as a (dim^2, dim^2) matrix.

    Acts on row-major flattened density matrices: Phi_T(rho) equals
    (phi @ rho.ravel()).reshape(dim, dim) up to rounding. Built by one
    RK4 period on the stack of dim^2 matrix units, which is exact
    because RK4 applied to the linear GKSL equation is itself linear.
    Same stability check and trace-drift warning as evolve_lindblad
    (drift taken over the images of the basis).
    """
    period = 2.0 * np.pi / omega
    d2 = system.dim ** 2
    basis = np.eye(d2, dtype=complex).reshape(d2, system.dim, system.dim)
    _, images = _rk4(system, basis, 0.0, period, period / steps_per_period)
    return images[-1].reshape(d2, d2).T


def find_ness(system: LindbladSystem, omega, tol=1e-9, steps_per_period=256):
    """Time-periodic steady state as the fixed point of the one-period map.

    Runs one RK4 period on the stack of dim^2 matrix units, keeping all
    (steps_per_period + 1) dim^4 complex values (66 KB for two levels at
    256 steps). The last images are Phi_T, as in one_period_map, and
    (Phi_T - I) rho = 0 with tr rho = 1 is solved as one (dim^2 + 1) x
    dim^2 least-squares problem. The error in rho is about the residual
    |Phi_T rho - rho|_inf over the gap 1 - |lambda_2| of Phi_T, so raises
    unless residual < tol * gap; a steady state that is not unique has
    gap 0 and always raises. The trajectory is the same combination
    sum_k rho_k images_k at every time, exact by linearity, with
    endpoints included (states[-1] vs states[0] shows the periodicity
    residual). Requires dissipation: at least one nonzero jump operator.
    """
    if not system.jumps or all(np.max(np.abs(op)) == 0.0 for op in system.jumps):
        raise ValueError("steady-state search needs at least one nonzero jump operator")
    period = 2.0 * np.pi / omega
    dim, d2 = system.dim, system.dim ** 2
    basis = np.eye(d2, dtype=complex).reshape(d2, dim, dim)
    times, images = _rk4(system, basis, 0.0, period, period / steps_per_period)
    phi = images[-1].reshape(d2, d2).T
    lhs = np.vstack((phi - np.eye(d2), np.eye(dim).ravel()))
    rho = np.linalg.lstsq(lhs, np.append(np.zeros(d2), 1.0), rcond=None)[0]
    residual = float(np.max(np.abs(phi @ rho - rho)))
    gap = float(1.0 - np.sort(np.abs(np.linalg.eigvals(phi)))[-2])
    if not residual < tol * gap:
        raise RuntimeError(
            f"steady state not certified: residual {residual:.3e} is not below "
            f"tol {tol} times the gap {gap:.3e} of the one-period map")
    states = np.tensordot(rho, images, axes=(0, 1))
    _warn_negativity(states[-1])
    return PeriodicSteadyState(times=times, states=states, residual=residual, gap=gap)
