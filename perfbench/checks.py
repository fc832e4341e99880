"""Correctness gates: each benchmark output against an independent route.

Every gate reads what the library produced (CLI output files or returned
arrays), compares it with a closed form, a symmetry or a calculation done
here without floquetlib, and raises CheckError on the first violation.
No tolerance is looser than the one the repository's tests use for the
same pairing; the source of each is named next to it.
"""

import json
import os

import numpy as np
from scipy import special

CHAIN_BAND_TOL = 1e-7      # acceptance criterion 1: band vs -2J J0(A) cos k
PAIRING_TOL = 1e-9         # test_sambe: +-eps pairing of a chiral two-band model
QUANTIZATION_TOL = 1e-3    # test_cli / criterion 7: Chern residual
J_EFF_TOL = 1e-12          # test_cli: hfe closed forms
SPECTRAL_FLOOR = 1e-10     # test_cli greens: A >= -1e-10
OCCUPATION_TOL = 1e-8      # test_open_system: -1e-8 < N <= A + 1e-8
DYSON_TOL = 1e-9           # CLI greens rows vs the dense Dyson solve below
TRACE_TOL = 1e-9           # criterion 9: trace drift
HERMITICITY_TOL = 1e-10    # rho vs rho^dagger after 12-digit CSV rounding
PSD_FLOOR = -1e-9          # smallest eigenvalue of rho
PURITY_TOL = 1e-6          # criterion 9: NESS vs long-time integration
ORACLE_TOL = 1e-7          # criterion 4: Sambe vs monodromy quasienergies


class CheckError(AssertionError):
    """An output failed its correctness gate."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def fold(x, omega):
    """Fold energies into [-omega/2, omega/2)."""
    x = np.asarray(x, dtype=float)
    return x - omega * np.floor(x / omega + 0.5)


def read_csv(path, n_columns):
    """Numeric body of a CLI CSV (header skipped) as an (n_rows, n_columns) array."""
    with open(path) as handle:
        handle.readline()
        body = handle.read()
    flat = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    _require(flat.size % n_columns == 0, f"{path}: ragged rows")
    return flat.reshape(-1, n_columns)


def check_chain_spectrum(outdir, amplitude, n_k):
    """Driven-chain band equals -2J J0(A) cos k (Bessel value from scipy)."""
    rows = read_csv(os.path.join(outdir, "spectrum.csv"), 5)
    _require(len(rows) == n_k, f"chain spectrum has {len(rows)} rows, expected {n_k}")
    expected = -2.0 * special.j0(amplitude) * np.cos(rows[:, 0])
    worst = float(np.max(np.abs(rows[:, 3] - expected)))
    _require(worst < CHAIN_BAND_TOL,
             f"chain band deviates from -2 J0(A) cos k by {worst:.3e}")


def check_pairing(path, omega, n_k):
    """Two-band chiral spectrum: branches pair as +eps / -eps at every k."""
    rows = read_csv(path, 5)
    _require(len(rows) == 2 * n_k, f"{path}: {len(rows)} rows, expected {2 * n_k}")
    pairs = rows.reshape(n_k, 2, 5)
    _require(np.all(pairs[:, 0, 0] == pairs[:, 1, 0]), f"{path}: branches not paired by k")
    worst = float(np.max(np.abs(fold(pairs[:, 0, 3] + pairs[:, 1, 3], omega))))
    _require(worst < PAIRING_TOL, f"{path}: +-eps pairing broken by {worst:.3e}")


def check_chern(outdir, expected):
    """Integer Chern numbers, quantized residual, equal to the pinned values."""
    with open(os.path.join(outdir, "chern.json")) as handle:
        bands = json.load(handle)["bands"]
    numbers = [band["chern"] for band in bands]
    _require(all(isinstance(c, int) for c in numbers), f"non-integer Chern numbers {numbers}")
    _require(numbers == list(expected), f"Chern numbers {numbers}, expected {list(expected)}")
    worst = max(band["residual"] for band in bands)
    _require(worst < QUANTIZATION_TOL, f"Chern residual {worst:.3e}")


def check_hfe(outdir, amplitude):
    """Effective nearest-neighbour hopping J_eff = J0(A)."""
    with open(os.path.join(outdir, "hfe.json")) as handle:
        report = json.load(handle)
    err = abs(report["J_eff"] - float(special.j0(amplitude)))
    _require(err < J_EFF_TOL, f"J_eff deviates from J0(A) by {err:.3e}")


def check_sweep(root, results, failures, n_values, omega, n_k):
    """Every sweep value completed and its spectrum keeps the +-eps pairing."""
    _require(not failures, f"sweep failures: {failures}")
    _require(len(results) == n_values, f"sweep returned {len(results)} of {n_values} values")
    spectra = [os.path.join(root, name, "spectrum.csv") for name in sorted(os.listdir(root))
               if os.path.isfile(os.path.join(root, name, "spectrum.csv"))]
    _require(len(spectra) == n_values, f"sweep wrote {len(spectra)} spectra, expected {n_values}")
    for path in spectra:
        check_pairing(path, omega, n_k)


def dense_dyson_chain(k, amplitude, omega, gamma, beta, m_cut, nu):
    """Spectral and occupied functions of the driven chain by direct inversion.

    Builds the Floquet matrix of the chain from its closed-form modes
    H_n = -J_n(A) ((-1)^n e^{ik} + e^{-ik}) (scipy Bessel values, every
    mode that fits the truncated matrix), inverts the Dyson equation at
    each folded frequency and returns (unfolded axis, A, N) sorted by
    physical frequency.
    """
    blocks = np.arange(-m_cut, m_cut + 1)
    shift = blocks[:, None] - blocks[None, :]
    modes = -special.jv(shift, amplitude) * (np.where(shift % 2, -1.0, 1.0) * np.exp(1j * k)
                                            + np.exp(-1j * k))
    h_floquet = modes - np.diag(blocks * omega)
    eye = np.eye(len(blocks))
    g_r = np.linalg.inv((nu[:, None, None] + 1j * gamma) * eye - h_floquet)
    energies = nu[:, None] + blocks[None, :] * omega
    sigma_k = -2j * gamma * np.tanh(0.5 * beta * energies)
    g_k = np.einsum("fij,fj,fkj->fik", g_r, sigma_k, g_r.conj())
    diag_r = np.diagonal(g_r, axis1=1, axis2=2)
    diag_k = np.diagonal(g_k, axis1=1, axis2=2)
    spectral = -diag_r.imag / np.pi
    lesser = 0.5 * (diag_k - diag_r + diag_r.conj())
    occupied = np.real(lesser / (2j * np.pi))
    axis = (energies.T).reshape(-1)
    order = np.argsort(axis, kind="stable")
    return axis[order], spectral.T.reshape(-1)[order], occupied.T.reshape(-1)[order]


def check_greens(outdir, amplitude, omega, gamma, beta, n_k, nu_points, spot_k):
    """Bounds 0 <= N <= A everywhere, plus whole k-blocks against dense_dyson_chain."""
    rows = read_csv(os.path.join(outdir, "greens.csv"), 4)
    per_k, rest = divmod(len(rows), n_k)
    n_blocks, rest2 = divmod(per_k, nu_points)
    _require(rest == 0 and rest2 == 0 and n_blocks % 2 == 1,
             f"greens.csv has {len(rows)} rows, not n_k x nu_points x (2M+1)")
    spec, occ = rows[:, 2], rows[:, 3]
    _require(np.min(spec) >= -SPECTRAL_FLOOR, f"negative spectral weight {np.min(spec):.3e}")
    _require(np.min(occ) > -OCCUPATION_TOL, f"negative occupation {np.min(occ):.3e}")
    excess = float(np.max(occ - spec))
    _require(excess <= OCCUPATION_TOL, f"occupation exceeds spectral weight by {excess:.3e}")
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    nu = np.linspace(-0.5 * omega, 0.5 * omega, nu_points, endpoint=False)
    for i in spot_k:
        block = rows[i * per_k:(i + 1) * per_k]
        _require(np.allclose(block[:, 1], ks[i], rtol=0, atol=1e-11),
                 f"greens rows for k index {i} are not contiguous")
        axis, a_ref, n_ref = dense_dyson_chain(ks[i], amplitude, omega, gamma, beta,
                                               (n_blocks - 1) // 2, nu)
        worst = max(float(np.max(np.abs(block[:, 0] - axis))),
                    float(np.max(np.abs(block[:, 2] - a_ref))),
                    float(np.max(np.abs(block[:, 3] - n_ref))))
        _require(worst < DYSON_TOL,
                 f"greens at k={ks[i]:.4f} deviates from the dense Dyson solve by {worst:.3e}")


def check_ness(outdir, expected_purity, tol):
    """Unit trace, Hermitian, PSD, periodic within tol, purity as pinned."""
    rows = read_csv(os.path.join(outdir, "ness.csv"), 9)
    _require(len(rows) >= 2, "ness.csv holds fewer than two time points")
    rho = (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(-1, 2, 2)
    trace_err = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)))
    _require(trace_err < TRACE_TOL, f"NESS trace deviates from 1 by {trace_err:.3e}")
    herm = float(np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))))
    _require(herm < HERMITICITY_TOL, f"NESS not Hermitian ({herm:.3e})")
    floor = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().transpose(0, 2, 1)))))
    _require(floor >= PSD_FLOOR, f"NESS has eigenvalue {floor:.3e}")
    periodic = float(np.max(np.abs(rho[-1] - rho[0])))
    _require(periodic < tol, f"rho(T) - rho(0) = {periodic:.3e} exceeds tol {tol}")
    purity = float(np.real(np.trace(rho[0] @ rho[0])))
    _require(abs(purity - expected_purity) < PURITY_TOL,
             f"NESS purity {purity:.12f}, pinned {expected_purity:.12f}")


def check_oracle(sambe_eps, oracle_eps, omega, label):
    """Each Sambe quasienergy has a time-domain partner modulo omega."""
    diff = fold(np.subtract.outer(np.asarray(sambe_eps), np.asarray(oracle_eps)), omega)
    worst = float(np.max(np.min(np.abs(diff), axis=1)))
    _require(worst < ORACLE_TOL, f"{label}: Sambe vs time-domain deviation {worst:.3e}")
