"""Tests of the benchmark itself: reduced workloads, gates and tracing.

    python3 -m pytest perfbench -q
"""

import argparse
import json
import os
import warnings

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from floquetlib import cli, models, open_system

BENCHMARK = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def declared(kind):
    with open(BENCHMARK) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_passes_and_reports_every_metric(name, tmp_path):
    workload = workloads.make(name, seed=3, small=True)
    args = argparse.Namespace(seed=3, seconds=0.0)
    tally, metrics = run.timed_run(workload, args, os.path.dirname(run.HERE), str(tmp_path))
    assert tally.attempted == len(workload.ops) + run.SETUP_REPEATS and tally.failed == 0
    assert emitted(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())

    tally, metrics = run.traced_run(workload, args, str(tmp_path))
    assert tally.failed == 0
    assert emitted(metrics) == declared("per_layer")


def test_oracle_points_follow_the_seed():
    assert workloads.oracle_points(5, 2) == workloads.oracle_points(5, 2)
    assert workloads.oracle_points(5, 2) != workloads.oracle_points(6, 2)


def _op(workload, name):
    return next(op for op in workload.ops if op.name == name)


def test_flipped_chern_sign_trips_the_gate(tmp_path):
    op = _op(workloads.bands(small=True), "chern")
    _, result = op.call(str(tmp_path))
    op.check(str(tmp_path), result)
    path = tmp_path / "chern.json"
    report = json.loads(path.read_text())
    for band in report["bands"]:
        band["chern"] = -band["chern"]
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="Chern numbers"):
        op.check(str(tmp_path), result)


def test_perturbed_quasienergy_trips_the_gate(tmp_path):
    op = _op(workloads.bands(small=True), "spectrum_chain")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, result = op.call(str(tmp_path))
    op.check(str(tmp_path), result)
    path = tmp_path / "spectrum.csv"
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="J0"):
        op.check(str(tmp_path), result)


def test_perturbed_oracle_point_trips_the_gate(tmp_path):
    op = workloads.oracle(seed=3, small=True).ops[1]
    _, (sambe_eps, references) = op.call(str(tmp_path))
    op.check(str(tmp_path), (sambe_eps, references))
    with pytest.raises(checks.CheckError, match="deviation"):
        op.check(str(tmp_path), (sambe_eps + np.array([1e-6, 0.0]), references))


def test_failed_gate_counts_as_a_failed_operation(tmp_path):
    def bad_check(outdir, result):
        raise checks.CheckError("corrupt")

    op = workloads.Op("bad", None, lambda outdir: (0.1, None), bad_check)
    tally = run.Tally()
    assert run.run_op(op, tally, str(tmp_path)) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert os.listdir(tmp_path) == []


def test_dense_dyson_matches_library_greens_at_one_k():
    omega, gamma, beta = 5.0, 0.05, 20.0
    nu = np.linspace(-0.5 * omega, 0.5 * omega, 21, endpoint=False)
    drive = models.DriveProtocol(omega=omega, amplitude=1.0)
    grid = open_system.floquet_greens(models.chain_modes(0.7, 1.0, drive, 14),
                                      open_system.BathSpec(gamma, beta), 14, nu)
    axis, spec = open_system.spectral_function(grid)
    ref_axis, ref_spec, _ = checks.dense_dyson_chain(0.7, 1.0, omega, gamma, beta, 14, nu)
    assert np.max(np.abs(axis - ref_axis)) < 1e-12
    assert np.max(np.abs(spec - ref_spec)) < 1e-10


def test_tracer_sees_calls_through_every_namespace(tmp_path):
    original = cli.run_config
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_config is not original
        op = _op(workloads.bands(small=True), "chern")
        tracer.op = 0
        _, result = op.call(str(tmp_path))
    finally:
        tracer.uninstall()
    assert cli.run_config is original
    op.check(str(tmp_path), result)
    builds = tracer.via["sambe.build_floquet_matrix"]
    assert builds["topology"] == 7 * 7 and builds["sambe"] == 0
    assert tracer.calls["bessel.bessel_j"] > 0
    names = {span[1] for span in tracer.spans}
    assert {"cli.run_config", "topology.band_grid", "sambe.quasienergies"} <= names
    totals = tracer.span_totals()
    run_config_busy, run_config_self = totals["cli.run_config"]
    assert 0.0 < run_config_self < run_config_busy
