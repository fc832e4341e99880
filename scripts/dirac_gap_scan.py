#!/usr/bin/env python3
"""Light-induced gap of the driven Dirac point: closed form vs numerics.

Scans the drive amplitude at fixed frequency and prints the gap from
three independent routes: the closed form sqrt(w^2 + 4A^2) - w, the
extended-space splitting at k = 0, and the one-period propagator.
"""

import numpy as np

import floquetlib as fq

OMEGA = 5.0


def main():
    print(f"omega = {OMEGA}")
    print(f"{'A':>5} {'closed form':>14} {'extended space':>16} {'monodromy':>14}")
    for amplitude in np.linspace(0.0, 2.0, 11):
        closed = fq.dirac_gap(amplitude, OMEGA)
        drive = fq.DriveProtocol(omega=OMEGA, amplitude=amplitude,
                                 polarization="circular")
        modes = fq.dirac_modes(0.0, 0.0, drive)
        sol = fq.physical_band(modes, 12)
        sambe_gap = sol.quasienergies[1] - sol.quasienergies[0]
        sampler = lambda t: fq.sample_dirac(0.0, 0.0, drive, t)
        eps = fq.quasienergies_from_monodromy(
            fq.monodromy(sampler, OMEGA, n_steps=16384), OMEGA)
        mono_gap = eps[-1] - eps[0]
        print(f"{amplitude:5.2f} {closed:14.8f} {sambe_gap:16.8f} {mono_gap:14.8f}")


if __name__ == "__main__":
    main()
