#!/usr/bin/env python3
"""Excited-state population of a driven dissipative two-level system.

Finds the time-periodic steady state of a cosine-driven two-level system
with a decay channel as the fixed point of the one-period map, then
prints its residual and the map's gap together with the population over
one drive period.
"""

import numpy as np

import floquetlib as fq
from floquetlib.models import SIGMA_X, SIGMA_Z

OMEGA = 2.0 * np.pi
SPLITTING = 0.8
DRIVE = 0.7
GAMMA = 0.4


def main():
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    system = fq.LindbladSystem(
        hamiltonian=lambda t: 0.5 * SPLITTING * SIGMA_Z
        + DRIVE * np.cos(OMEGA * t) * SIGMA_X,
        jumps=[np.sqrt(GAMMA) * lowering])
    ness = fq.find_ness(system, OMEGA, tol=1e-10)
    print(f"fixed-point residual {ness.residual:.2e}, gap of the one-period map {ness.gap:.4f}")
    print(f"\n{'t/T':>6} {'p_excited':>11} {'purity':>8}")
    step = len(ness.times) // 16
    period = 2.0 * np.pi / OMEGA
    for t, rho in zip(ness.times[::step], ness.states[::step]):
        p_up = rho[1, 1].real
        purity = np.real(np.trace(rho @ rho))
        print(f"{t / period:6.3f} {p_up:11.6f} {purity:8.4f}")
    drift = np.max(np.abs(ness.states[-1] - ness.states[0]))
    print(f"\nperiodicity residual over one period: {drift:.2e}")


if __name__ == "__main__":
    main()
