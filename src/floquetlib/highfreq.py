"""High-frequency effective Hamiltonians and closed-form drive renormalizations.

Implements the second-order inverse-frequency expansion
H_eff = H_0 + sum_{n>=1} [H_{-n}, H_n] / (n omega) together with the
closed forms it produces for the built-in lattices: the Bessel-function
hopping renormalization J J_0, the driven-honeycomb next-nearest-neighbor
parameters (J_eff, K_eff), and the gap of the circularly driven Dirac
point. Higher orders are deliberately out of scope.
"""

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j
from .models import FourierModeSet


@dataclass(frozen=True)
class EffectiveHamiltonianReport:
    """Time average, commutator correction, and their sum."""

    h0: np.ndarray
    correction: np.ndarray
    total: np.ndarray
    omega: float

    @property
    def correction_norm(self):
        return float(np.linalg.norm(self.correction, 2))


@dataclass(frozen=True)
class HaldaneParameters:
    """Effective hoppings of the circularly driven honeycomb lattice.

    j_eff renormalizes the nearest-neighbor hopping; k_eff is the
    magnitude of the induced imaginary next-nearest-neighbor hopping
    i tau k_eff, with the chirality tau = +1 pinned in
    models.haldane_bloch (hops along delta_1 - delta_2, delta_2 - delta_3,
    delta_3 - delta_1 on the first sublattice).
    """

    j_eff: float
    k_eff: float


def van_vleck_hf(modes: FourierModeSet):
    """Second-order effective Hamiltonian H_0 + sum_n [H_-n, H_n]/(n omega).

    The commutator sum runs over the modes present in the set; each term
    is Hermitian because [H_-n, H_n]^dagger = [H_-n, H_n] under the
    pairing H_-n = H_n^dagger. The correction vanishes as omega -> inf.
    """
    n_max = modes.n_max
    h0 = modes.modes[n_max].copy()
    hp, hm = modes.modes[n_max + 1:], modes.modes[:n_max][::-1]
    ns = np.arange(1, n_max + 1)
    correction = np.sum((hm @ hp - hp @ hm) / (ns * modes.omega)[:, None, None], axis=0)
    return EffectiveHamiltonianReport(
        h0=h0, correction=correction, total=h0 + correction, omega=modes.omega)


def effective_hopping_1d(hopping, x):
    """Drive-renormalized hopping J J_0(x); zero at the first J_0 root."""
    return hopping * bessel_j(0, x)


def bessel_tail_order(amplitude):
    """The order past which every J_n(A) is negligible: ceil(A + 6 A^(1/3)) + 10.

    J_n(A) decays faster than exponentially once n passes A + O(A^(1/3)):
    the K_eff series of haldane_effective, stopped here, leaves a tail
    below 1e-17 from A = 0 to 5000.
    """
    a = abs(amplitude)
    return int(np.ceil(a + 6.0 * np.cbrt(a))) + 10


def haldane_effective(hopping, amplitude, omega):
    """Closed-form effective parameters of the driven honeycomb lattice.

    j_eff = J J_0(A) and
    k_eff = -(J^2/omega) sum_{n!=0} J_n(A)^2 sin(2 pi n / 3) / n, with the
    n and -n terms combined into twice the positive-n sum, which stops at
    n = bessel_tail_order(A).
    """
    ns = np.arange(1, bessel_tail_order(amplitude) + 1)
    series = np.sum(bessel_j(ns, amplitude) ** 2 * np.sin(2.0 * np.pi * ns / 3.0) / ns)
    k_eff = -2.0 * hopping**2 / omega * series
    return HaldaneParameters(j_eff=effective_hopping_1d(hopping, amplitude), k_eff=k_eff)


def dirac_gap(amplitude, omega):
    """Light-induced gap of the circularly driven Dirac point."""
    return np.sqrt(omega**2 + 4.0 * amplitude**2) - omega
