#!/usr/bin/env python3
"""Effective hopping of the driven chain versus drive amplitude.

Sweeps E/omega across the first two zeros of J_0 and compares the
closed-form renormalization J J_0(E/omega) with the bandwidth actually
measured from the extended-space quasienergy band. Writes
hopping_renormalization.csv next to this script.
"""

import csv
import os

import numpy as np

import floquetlib as fq

OMEGA = 8.0
N_K = 32
AMPLITUDES = np.linspace(0.0, 6.0, 61)


def measured_hopping(amplitude):
    # bandwidth of the physical band is 4 |J_eff| for a cosine band;
    # the sign is read off from the band's value at k = pi
    drive = fq.DriveProtocol(omega=OMEGA, amplitude=amplitude)
    n_max = fq.suggested_n_max(amplitude)
    ks = np.linspace(-np.pi, np.pi, N_K, endpoint=False)
    band = []
    for k in ks:
        modes = fq.chain_modes(k, 1.0, drive, n_max)
        sol = fq.physical_band(modes, n_max + 6)
        band.append(sol.quasienergies[0])
    band = np.array(band)
    magnitude = np.ptp(band) / 4.0
    sign = np.sign(band[0] - band[N_K // 2])  # eps(-pi) - eps(0) = 4 J_eff
    return float(sign * magnitude) if magnitude > 1e-9 else 0.0


def main():
    out = os.path.join(os.path.dirname(__file__), "hopping_renormalization.csv")
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["amplitude", "j_eff_closed_form", "j_eff_measured"])
        for amplitude in AMPLITUDES:
            closed = fq.effective_hopping_1d(1.0, amplitude)
            measured = measured_hopping(amplitude)
            writer.writerow([f"{amplitude:.3f}", f"{closed:.10f}", f"{measured:.10f}"])
            print(f"E/w = {amplitude:5.2f}   J0 factor = {closed:+.6f}   "
                  f"measured = {measured:+.6f}")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
