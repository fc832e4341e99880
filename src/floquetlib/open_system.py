"""Driven open systems: Floquet Green's functions and Lindblad dynamics.

Two complementary routes to the dissipative steady state of a driven
system. The Green's-function route couples a noninteracting system to a
wide-band free-fermion bath and solves the Dyson equation in the Floquet
matrix representation from one eigendecomposition of the Floquet matrix,
reading the spectral and occupation functions in its eigenbasis; the
Lindblad route integrates the GKSL master equation in time and finds
the time-periodic steady state as a fixed point of the one-period map.
One RK4 period on the matrix units gives that map and, by linearity,
the steady state at every step of the period.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import FourierModeSet, _sample_times
from .propagator import _check_count, _check_positive
from .sambe import build_floquet_matrix

RK4_LOAD_LIMIT = 0.1    # the largest step (max |H| + sum |L_j|^2) an RK4 step may take
RK4_SEARCH_STEPS = 10 ** 5  # the most steps the fewest-steps search samples H for


@dataclass(frozen=True)
class BathSpec:
    """Wide-band free-fermion bath: coupling gamma and inverse temperature beta.

    beta = math.inf is the zero-temperature limit where the thermal
    factor tanh(beta nu / 2) becomes sign(nu).
    """

    gamma: float
    beta: float

    def __post_init__(self):
        if not self.gamma > 0.0:
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
    """Floquet Green's functions on a frequency grid, kept in the eigenbasis of H_F.

    Its grid nu is 1-D, strictly ascending and in [-omega/2, omega/2):
    block n maps it to nu + n omega in [n omega - omega/2, n omega +
    omega/2), so the block-major axis of unfolded_axis ascends. Both are
    checked here, and the axis is kept, read-only, for the observables.
    The bath's retarded self-energy is the scalar -i gamma, so with
    H_F = V E V^dagger, G^R(nu) = V diag r(nu) V^dagger with the
    resolvent r = 1/(nu + i gamma - E). Only E, V and r are stored: the
    observables read what they need from them, and the (n_nu, D, D)
    matrices G^R and G^K are formed only when read. E gives the exact
    zone integral of the Lorentzians that A samples, against which the
    greens task measures the grid's resolution.
    """

    omega: float
    m_cut: int
    dim: int
    nu: np.ndarray
    energies: np.ndarray     # (D,) eigenvalues E of H_F, ascending, D = (2M+1) dim
    vectors: np.ndarray      # (D, D) eigenvectors V of H_F
    resolvent: np.ndarray    # (n_nu, D) r(nu), one column per eigenvalue
    bath: BathSpec

    def __post_init__(self):
        axis = _checked_axis(self.nu, self.m_cut, self.omega)
        axis.setflags(write=False)      # one array for every observable of the grid
        object.__setattr__(self, "_axis", axis)

    @property
    def n_blocks(self):
        return 2 * self.m_cut + 1

    @property
    def _block_index(self):
        """Block n of each of the D rows and columns, from -M up."""
        return np.repeat(np.arange(-self.m_cut, self.m_cut + 1), self.dim)

    @property
    def g_retarded(self):
        """G^R = V diag r V^dagger as (n_nu, D, D), computed on every access."""
        return (self.vectors * self.resolvent[:, None, :]) @ self.vectors.conj().T

    @property
    def g_keldysh(self):
        """G^K = G^R Sigma^K G^A as (n_nu, D, D), computed on every access."""
        g_r = self.g_retarded
        sig_k = bath_self_energy(self.bath, self.nu[:, None], self._block_index, self.omega)[1]
        return (g_r * sig_k[:, None, :]) @ g_r.conj().transpose(0, 2, 1)

    def block_traces(self, diagonals):
        """Per-block sums of (n_nu, D) diagonals: (n_nu, 2M+1), column n + M for block n."""
        return diagonals.reshape(len(self.nu), self.n_blocks, self.dim).sum(axis=2)


def floquet_greens(modes: FourierModeSet, bath: BathSpec, m_cut, nu_grid):
    """Dyson equation of a noninteracting driven system, from one eigendecomposition.

    G^R(nu) = [(nu + m omega) delta_{mn} - H_{m-n} + i gamma delta_{mn}]^{-1}.
    The bath's retarded self-energy is the scalar -i gamma on every block,
    so with the Floquet matrix H_F = V E V^dagger, G^R(nu) equals
    V (nu + i gamma - E)^{-1} V^dagger at every nu: the grid keeps V and
    that resolvent, and forms no matrix per frequency. G^K = G^R Sigma_b^K
    G^A, with G^A = (G^R)^dagger, is formed on request. The system
    self-energy is zero by scope, so the only broadening is the bath's.
    nu_grid follows GreensFunctionGrid's rule, checked whatever its shape
    and before the eigensolve, so A and N come on the ascending
    block-major axis of unfolded_axis.
    """
    nu_grid = np.asarray(nu_grid, dtype=float)
    _checked_axis(nu_grid, m_cut, modes.omega)
    energies, vectors = np.linalg.eigh(build_floquet_matrix(modes, m_cut).matrix)
    resolvent = 1.0 / (nu_grid.reshape(-1, 1) + 1j * bath.gamma - energies)
    return GreensFunctionGrid(
        omega=modes.omega, m_cut=m_cut, dim=modes.dim, nu=nu_grid,
        energies=energies, vectors=vectors, resolvent=resolvent, bath=bath)


def _checked_axis(nu, m_cut, omega):
    """unfolded_axis of a grid nu that follows GreensFunctionGrid's rule, else a ValueError."""
    nu, half = np.asarray(nu), 0.5 * omega
    axis = unfolded_axis(nu.ravel(), m_cut, omega)
    # checks nu's ascent too; a grid an ulp inside both zone edges fails it where blocks meet
    if not (nu.ndim == 1 and nu.size and np.all(axis[1:] > axis[:-1])
            and nu[0] >= -half and nu[-1] < half):
        raise ValueError(f"the nu grid must be 1-D, strictly ascending and inside "
                         f"[-omega/2, omega/2) = [{-half:g}, {half:g}), with nu + n omega "
                         f"ascending; got {np.array2string(nu, threshold=8)}")
    return axis


def unfolded_axis(nu, m_cut, omega):
    """nu + n omega for blocks n = -M..M, block-major: block n's whole nu grid, then n + 1's.

    On a grid that ascends in [-omega/2, omega/2), as GreensFunctionGrid
    checks, the axis ascends too. The greens task formats it once per run.
    """
    shifts = np.arange(-m_cut, m_cut + 1) * omega
    return (np.asarray(nu, dtype=float)[None, :] + shifts[:, None]).ravel()


def spectral_function(grid: GreensFunctionGrid):
    """A(nu + n omega) = -(1/pi) Im tr [G^R(nu)]_{nn}, on the unfolded axis.

    [G^R]_ii = sum_a |V_ia|^2 r_a, so the diagonal is one (n_nu, D) x
    (D, D) product, a sum of nonnegative terms: A >= 0. Returns
    (frequencies, values) on the ascending block-major axis of
    unfolded_axis; spectral weight outside the covered window (2M+1
    zones wide) is truncated, which matters only for the Lorentzian tails.
    """
    diagonal = -grid.resolvent.imag @ (np.abs(grid.vectors) ** 2).T
    return grid._axis, (grid.block_traces(diagonal) / np.pi).T.ravel()


def occupation_function(grid: GreensFunctionGrid):
    """Occupied spectrum N(nu + n omega) from the lesser function, on the unfolded axis.

    N = (1/2 pi i) tr [G^<]_{nn} with G^< = G^R Sigma^< G^A (Tsuji, Oka
    & Aoki, PRB 78, 235124 (2008)). The bath's Sigma^< = 2i gamma f is
    diagonal, f = (1 - tanh(beta (nu + n omega) / 2)) / 2 its occupation
    per column, so N_i = (gamma / pi) sum_j f_j |G^R_ij|^2 >= 0; and
    G^R - G^A = -2i gamma G^R G^A with f <= 1 gives N <= A up to
    rounding. Only the columns of G^R where f is nonzero at some nu are
    formed, in one (n_columns D, D) x (D, n_nu) product; every column
    skipped adds exactly 0. In equilibrium N reduces to A times the
    Fermi factor.
    """
    fermi = 0.5 * (1.0 - grid.bath.thermal_factor(
        grid.nu[:, None] + grid._block_index * grid.omega))
    columns = np.flatnonzero(fermi.any(axis=0))
    # G^R_ij = sum_a V_ia conj(V_ja) r_a: [c, i, f] = G^R_{i, columns[c]}(nu_f)
    v = grid.vectors
    products = v * v[columns].conj()[:, None, :]
    g_r = (products.reshape(-1, len(v)) @ grid.resolvent.T).reshape(len(columns), len(v), -1)
    weight = np.abs(g_r)
    weight *= weight
    occupied = np.einsum("cif,fc->fi", weight, fermi[:, columns])
    return grid._axis, (grid.block_traces(occupied) * (grid.bath.gamma / np.pi)).T.ravel()


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
            if not np.isfinite(arr).all():
                raise ValueError(f"jump operator {j} is not finite")
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
    # as -i(H_eff rho - rho H_eff+) + sum_j L rho L+
    h_eff = np.asarray(system.hamiltonian(t), dtype=complex) + system._shift
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
    for op in system.jumps:
        out += op @ rho @ op.conj().T
    return out


@dataclass(frozen=True)
class LindbladTrajectory:
    times: np.ndarray
    states: np.ndarray   # (n_times, dim, dim), or (n_times, n, dim, dim) for a stack


def rk4_samples(system: LindbladSystem, t0, t1, dt):
    """The RK4 step over [t0, t1] at nominal step dt and H on its half-step grid.

    Takes round((t1 - t0) / dt) uniform steps (at least one) and samples
    the Hamiltonian in one call on the 2 n_steps + 1 points of the
    half-step grid: step i starts at point 2i, has its midpoint at 2i + 1
    and ends at 2i + 2. Raises unless the step taken satisfies
    step (max |H| over those samples + sum |L_j|^2) < RK4_LOAD_LIMIT = 0.1,
    naming the fewest uniform steps over [t0, t1] that pass.
    """
    if t1 <= t0:
        raise ValueError("t_span must have t1 > t0")
    step, h, load = _rk4_load(system, t0, t1, max(1, int(round((t1 - t0) / dt))))
    if not load < RK4_LOAD_LIMIT:
        fewest = _fewest_rk4_steps(system, t0, t1, load / step)
        raise ValueError(f"step {step:.4g} too large for stability: "
                         f"step (max |H| + sum |L|^2) = {load:.3f} >= {RK4_LOAD_LIMIT}; "
                         f"the fewest that pass are {fewest}")
    return step, h


def _rk4_load(system: LindbladSystem, t0, t1, n_steps):
    """(step, H on the half-step grid, stability load) of n_steps uniform steps.

    A non-finite H raises, naming the first grid time where it occurs.
    """
    step = (t1 - t0) / n_steps
    times = t0 + np.arange(2 * n_steps + 1) * (0.5 * step)
    h = _sample_times(system.hamiltonian, times)
    finite = np.isfinite(h).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"the Hamiltonian sampler is not finite at t = "
                         f"{times[np.argmin(finite)]:.6g}, the first such time of the RK4 grid")
    # the 2-norm |H| is sqrt(max eigenvalue of H^dagger H), for a non-Hermitian H too
    top = np.max(np.linalg.eigvalsh(h.conj().transpose(0, 2, 1) @ h)[:, -1])
    load = step * (np.sqrt(max(top, 0.0))
                   + sum(np.linalg.norm(op, 2) ** 2 for op in system.jumps))
    return step, h, load


def _fewest_rk4_steps(system: LindbladSystem, t0, t1, rate):
    """The fewest uniform steps over [t0, t1] that rk4_samples accepts.

    Starts from ceil((t1 - t0) rate / RK4_LOAD_LIMIT), `rate` being the
    load per unit step, max |H| + sum |L_j|^2, and steps up until a count
    passes, then down while one fewer passes too: max |H| is taken on each
    count's own grid, so the start is an estimate. A start above
    RK4_SEARCH_STEPS is returned unsearched, as the text "about <start>".
    """
    estimate = (t1 - t0) * rate / RK4_LOAD_LIMIT
    if estimate > RK4_SEARCH_STEPS:
        return f"about {estimate:.3g}"
    fewest = math.ceil(estimate)    # at least the count that failed, so at least 1
    while _rk4_load(system, t0, t1, fewest)[2] >= RK4_LOAD_LIMIT:
        fewest += 1
    while fewest > 1 and _rk4_load(system, t0, t1, fewest - 1)[2] < RK4_LOAD_LIMIT:
        fewest -= 1
    return fewest


def _rk4(system: LindbladSystem, rho, t0, t1, dt):
    """Classical RK4 over [t0, t1] at nominal step dt; returns (times, states).

    Steps and samples H as rk4_samples does, which raises for an unstable
    step. On row-major flattened density matrices the GKSL generator at
    each sample is the superoperator
    L(t) = -i (H_eff x I - I x H_eff*) + sum_j L_j x L_j*, and RK4 on a
    linear equation is a linear map per step: with L_a, L_m, L_b at the
    step's start, midpoint and end, K1 = L_a, K2 = L_m (I + dt/2 K1),
    K3 = L_m (I + dt/2 K2), K4 = L_b (I + dt K3) and
    M = I + (dt/6)(K1 + 2 K2 + 2 K3 + K4). Every M - I is formed at once,
    as (n_steps, dim^2, dim^2) products, and rho, one matrix or a
    (n, dim, dim) stack, is carried through them as rho + (M - I) rho,
    the form of an RK4 update. states[i] is the state after i steps.
    Warns, naming the caller's caller, when the trace of any state drifts
    by more than 1e-6.
    """
    step, h = rk4_samples(system, t0, t1, dt)
    n_steps, dim, d2 = len(h) // 2, system.dim, system.dim ** 2
    h_eff = system._shift + h
    eye = np.eye(dim)
    gen = (np.einsum("tik,jl->tijkl", h_eff, eye)
           - np.einsum("ik,tjl->tijkl", eye, h_eff.conj())).reshape(len(h), d2, d2)
    gen *= -1j
    gen += sum(np.kron(op, op.conj()) for op in system.jumps)
    start, mid, end = gen[:-1:2], gen[1::2], gen[2::2]
    k2 = mid + (0.5 * step) * (mid @ start)
    k3 = mid + (0.5 * step) * (mid @ k2)
    k4 = end + step * (end @ k3)
    # M - I, applied as rho + (M - I) rho: forming I + (M - I) first would round
    # away the low digits of each step's increment
    increments = (step / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)
    del gen, start, mid, end, k2, k3, k4
    states = np.empty((n_steps + 1,) + np.shape(rho), dtype=complex)
    states[0] = rho
    # row vectors: vec(rho) of step i + 1 is vec(rho) of step i times M_i^T
    vecs = states.reshape(n_steps + 1, -1, d2)
    increments_t = increments.transpose(0, 2, 1)
    for i in range(n_steps):
        np.matmul(vecs[i], increments_t[i], out=vecs[i + 1])
        vecs[i + 1] += vecs[i]
    drift = np.max(np.abs(np.trace(states[-1], axis1=-2, axis2=-1)
                          - np.trace(states[0], axis1=-2, axis2=-1)))
    if drift > 1e-6:
        warnings.warn(f"trace drift {drift:.2e} > 1e-6 over the trajectory", stacklevel=3)
    return t0 + np.arange(n_steps + 1) * step, states


def _warn_negativity(rho):
    """Warn, naming the caller's caller, when rho, or one of a stack, has an eigenvalue < -1e-6."""
    floor = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))))
    if floor < -1e-6:
        warnings.warn(f"density matrix developed negativity {floor:.2e}", stacklevel=3)


def evolve_lindblad(system: LindbladSystem, rho0, t_span, dt):
    """Classical fourth-order one-step integration of the master equation.

    No per-step renormalization: trace drift and negativity are
    diagnostics for integrator or model trouble and are reported through
    warnings rather than silently repaired. The step taken, (t1 - t0) /
    round((t1 - t0) / dt), must satisfy step (|H| + sum |L_j|^2) < 0.1
    with |H| the largest over the sampled grid. A t_span that is not
    finite or a dt that is not a finite number > 0 raises, naming it.
    rho0 is one density matrix or an (n, dim, dim) stack of them, each
    evolved on its own.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {tuple(t_span)!r}")
    _check_positive("dt", dt)
    times, states = _rk4(system, np.asarray(rho0, dtype=complex), t0, t1, dt)
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


def _period(omega, steps_per_period):
    """T = 2 pi / omega, once omega and steps_per_period are checked."""
    _check_positive("omega", omega)
    _check_count("steps_per_period", steps_per_period)
    return 2.0 * np.pi / omega


def one_period_map(system: LindbladSystem, omega, steps_per_period=256):
    """The RK4 one-period map Phi_T as a (dim^2, dim^2) matrix.

    Acts on row-major flattened density matrices: Phi_T(rho) equals
    (phi @ rho.ravel()).reshape(dim, dim) up to rounding. Built by one
    RK4 period on the stack of dim^2 matrix units, which is exact
    because RK4 applied to the linear GKSL equation is itself linear.
    Same stability check and trace-drift warning as evolve_lindblad
    (drift taken over the images of the basis).
    """
    period = _period(omega, steps_per_period)
    d2 = system.dim ** 2
    basis = np.eye(d2, dtype=complex).reshape(d2, system.dim, system.dim)
    _, images = _rk4(system, basis, 0.0, period, period / steps_per_period)
    return images[-1].reshape(d2, d2).T


def find_ness(system: LindbladSystem, omega, tol=1e-9, steps_per_period=256):
    """Time-periodic steady state as the fixed point of the one-period map.

    Runs one RK4 period on the stack of dim^2 matrix units, keeping all
    (steps_per_period + 1) dim^4 complex values (66 KB for two levels at
    256 steps); forming the RK4 step maps takes about 8 steps_per_period
    dim^4 more (the call peaks at 612 KB there). The last images are
    Phi_T, as in one_period_map, and (Phi_T - I) rho = 0 with tr rho = 1
    is solved as one (dim^2 + 1) x dim^2 least-squares problem. The
    error in rho is about the residual |Phi_T rho - rho|_inf over the gap
    1 - |lambda_2| of Phi_T, so raises unless residual < tol * gap. One
    level has gap 1: its map has the single eigenvalue 1 and a unique
    fixed point. A steady state that is not unique has gap 0 and always
    raises. The trajectory is the same combination sum_k rho_k images_k
    at every time, exact by linearity, with endpoints included
    (states[-1] vs states[0] shows the periodicity residual). Requires
    dissipation: at least one nonzero jump operator.
    """
    period = _period(omega, steps_per_period)
    if not system.jumps or all(np.max(np.abs(op)) == 0.0 for op in system.jumps):
        raise ValueError("steady-state search needs at least one nonzero jump operator")
    dim, d2 = system.dim, system.dim ** 2
    basis = np.eye(d2, dtype=complex).reshape(d2, dim, dim)
    times, images = _rk4(system, basis, 0.0, period, period / steps_per_period)
    phi = images[-1].reshape(d2, d2).T
    lhs = np.vstack((phi - np.eye(d2), np.eye(dim).ravel()))
    rho = np.linalg.lstsq(lhs, np.append(np.zeros(d2), 1.0), rcond=None)[0]
    residual = float(np.max(np.abs(phi @ rho - rho)))
    gap = float(1.0 - np.sort(np.abs(np.linalg.eigvals(phi)))[-2]) if d2 > 1 else 1.0
    if not residual < tol * gap:
        raise RuntimeError(
            f"steady state not certified: residual {residual:.3e} is not below "
            f"tol {tol} times the gap {gap:.3e} of the one-period map")
    states = np.tensordot(rho, images, axes=(0, 1))
    _warn_negativity(states[-1])
    return PeriodicSteadyState(times=times, states=states, residual=residual, gap=gap)
