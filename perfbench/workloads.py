"""The benchmark workloads: pinned inputs, timed operations and their gates.

bands        the closed Sambe route through the CLI (spectrum, hfe, chern
             and a 2-worker sweep): many small per-k build/eigh/select
             calls, tiny outputs; open_system, propagator and the bulk
             writer stay idle.
oracle       the two-route cross-check on seeded k-points and drives for
             all three models: Sambe against the monodromy (and, for
             dirac, H_F(s) at two s) at 4096 steps; propagator and
             per-time-point sampling dominate.
dissipative  greens (batched Dyson inverses, ~57 MB written) and ness at
             two damping strengths; open_system and the CLI writer
             dominate, no Sambe eigensolve. The NESS iteration count grows
             like 1/(gamma T), so gamma is the input property varied.

An operation times exactly the library call a user waits for (one
run_config, one run_sweep, or one point's two routes) and returns
(seconds, result); its gate then checks the result outside the timing.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from floquetlib import cli, models, propagator, sambe

import checks

WORKLOADS = ("bands", "oracle", "dissipative")
SWEEP_WORKERS = 2
ORACLE_STEPS = 4096
ORACLE_POINTS_PER_MODEL = 4
CHERN_AT_SEED = (1, -1)               # honeycomb, omega=8, A=1, Nk=24
NESS_PURITY_AT_SEED = {0.4: 0.99726462661520077, 0.1: 0.9972570238142641}


@dataclass
class Op:
    name: str
    metric: str | None          # end-to-end task metric fed by this operation
    call: Callable              # (outdir) -> (seconds, result)
    check: Callable             # (outdir, result) -> None, raises CheckError


@dataclass
class Workload:
    name: str
    ops: list
    configs: list = field(default_factory=list)   # raw CLI configs, validated at set-up


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _cli_op(name, metric, raw, check):
    def call(outdir):
        cfg = cli.validate_config({**raw, "output": outdir})
        return _timed(cli.run_config, cfg)

    return Op(name, metric, call, lambda outdir, result: check(outdir))


def _drive(omega, amplitude, model):
    polarization = "linear" if model == "chain1d" else "circular"
    return {"omega": omega, "amplitude": amplitude, "polarization": polarization}


def bands(small=False):
    n_k = 8 if small else 64
    omega, amplitude = 8.0, 1.0
    chain = {"model": "chain1d", "drive": _drive(omega, amplitude, "chain1d"),
             "task": "spectrum", "numerics": {"n_k": n_k}}
    honeycomb = {"model": "honeycomb", "drive": _drive(omega, amplitude, "honeycomb"),
                 "task": "spectrum", "numerics": {"n_k": n_k}}
    hfe = {**honeycomb, "task": "hfe", "numerics": {}}
    chern = {**honeycomb, "task": "chern", "numerics": {"Nk": 6 if small else 24}}
    sweep_values = [0.25 * i for i in range(1, 3 if small else 9)]

    def sweep_call(outdir):
        return _timed(cli.run_sweep, {**honeycomb, "output": outdir}, "drive.amplitude",
                      sweep_values, workers=SWEEP_WORKERS)

    def sweep_check(outdir, result):
        results, failures = result
        checks.check_sweep(outdir, results, failures, len(sweep_values), omega, n_k)

    ops = [
        _cli_op("spectrum_chain", "spectrum_s", chain,
                lambda out: checks.check_chain_spectrum(out, amplitude, n_k)),
        _cli_op("spectrum_honeycomb", "spectrum_s", honeycomb,
                lambda out: checks.check_pairing(f"{out}/spectrum.csv", omega, n_k)),
        _cli_op("hfe", None, hfe, lambda out: checks.check_hfe(out, amplitude)),
        _cli_op("chern", "chern_s", chern, lambda out: checks.check_chern(out, CHERN_AT_SEED)),
        Op("sweep", "sweep_s", sweep_call, sweep_check),
    ]
    return Workload("bands", ops, [chain, honeycomb, hfe, chern])


@dataclass(frozen=True)
class OraclePoint:
    model: str
    omega: float
    amplitude: float
    k: tuple
    s_values: tuple


def oracle_points(seed, per_model):
    """Seeded k-points and drives, drawn from the ranges of acceptance criterion 4."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(3 * per_model):
        model = ("chain1d", "dirac", "honeycomb")[i % 3]
        amplitude = float(rng.uniform(0.2, 1.5))
        omega = float(rng.uniform(4.0, 12.0))
        if model == "chain1d":
            k = (float(rng.uniform(-math.pi, math.pi)), 0.0)
        else:
            k = tuple(float(v) for v in rng.uniform(-1.5, 1.5, 2))
        s_values = tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi / omega, 2)) \
            if model == "dirac" else ()
        points.append(OraclePoint(model, omega, amplitude, k, s_values))
    return points


def solve_point(point):
    """Both routes at one point: Sambe quasienergies and time-domain references."""
    drive = models.DriveProtocol(**_drive(point.omega, point.amplitude, point.model))
    kx, ky = point.k
    n_max = models.suggested_n_max(point.amplitude)
    if point.model == "chain1d":
        modes = models.chain_modes(kx, 1.0, drive, n_max)
        sampler = lambda t: models.sample_chain_1d(kx, 1.0, drive, t)  # noqa: E731
    elif point.model == "dirac":
        modes = models.dirac_modes(kx, ky, drive)
        sampler = lambda t: models.sample_dirac(kx, ky, drive, t)  # noqa: E731
    else:
        modes = models.honeycomb_modes(kx, ky, 1.0, drive, n_max)
        sampler = lambda t: models.sample_honeycomb(kx, ky, 1.0, drive, t)  # noqa: E731
    phys = sambe.select_physical_band(
        sambe.quasienergies(sambe.build_floquet_matrix(modes, modes.n_max + 6)))
    references = [propagator.quasienergies_from_monodromy(
        propagator.monodromy(sampler, point.omega, n_steps=ORACLE_STEPS), point.omega)]
    references += [propagator.stroboscopic_hf(sampler, s, point.omega,
                                              n_steps=ORACLE_STEPS).eigenvalues
                   for s in point.s_values]
    return phys.quasienergies, references


def oracle(seed, small=False):
    ops = []
    for i, point in enumerate(oracle_points(seed, 1 if small else ORACLE_POINTS_PER_MODEL)):
        def check(outdir, result, point=point, label=f"{point.model}#{i}"):
            sambe_eps, references = result
            for ref in references:
                checks.check_oracle(sambe_eps, ref, point.omega, label)

        ops.append(Op(f"point{i}_{point.model}", "oracle_s",
                      lambda outdir, point=point: _timed(solve_point, point), check))
    return Workload("oracle", ops)


def dissipative(seed, small=False):
    n_k, nu_points = (4, 41) if small else (64, 401)
    omega, amplitude, gamma, beta = 5.0, 1.0, 0.05, 20.0
    greens = {"model": "chain1d", "drive": _drive(omega, amplitude, "chain1d"),
              "task": "greens", "bath": {"gamma": gamma, "beta": beta},
              "numerics": {"n_k": n_k, "nu_points": nu_points}}
    spot_k = sorted(int(i) for i in np.random.default_rng(seed).choice(n_k, 2, replace=False))

    def ness_config(lindblad_gamma):
        numerics = {"steps_per_period": 64, "tol": 1e-7} if small else {}
        return {"model": "dirac", "drive": _drive(5.0, 1.0, "dirac"), "task": "ness",
                "lindblad": {"gamma": lindblad_gamma}, "numerics": numerics}

    def ness_check(lindblad_gamma, tol):
        return lambda out: checks.check_ness(out, NESS_PURITY_AT_SEED[lindblad_gamma], tol)

    strong, weak = ness_config(0.4), ness_config(0.1)
    tol = 1e-7 if small else cli.NUMERIC_DEFAULTS["tol"]
    ops = [
        _cli_op("greens", "greens_s", greens,
                lambda out: checks.check_greens(out, amplitude, omega, gamma, beta,
                                                n_k, nu_points, spot_k)),
        _cli_op("ness", "ness_s", strong, ness_check(0.4, tol)),
        _cli_op("ness_weak", "ness_weak_s", weak, ness_check(0.1, tol)),
    ]
    return Workload("dissipative", ops, [greens, strong, weak])


def make(name, seed, small=False):
    """The named workload; `small` shrinks every size for the benchmark's own tests."""
    if name == "bands":
        return bands(small)
    if name == "oracle":
        return oracle(seed, small)
    if name == "dissipative":
        return dissipative(seed, small)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
