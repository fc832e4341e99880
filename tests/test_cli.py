import ctypes
import json
import math
import os
import pickle
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import floquetlib as fq
from floquetlib import cli
from floquetlib.cli import ConfigError, main, validate_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def spectrum_config(tmp_path, **overrides):
    payload = {"model": "chain1d", "task": "spectrum", "output": str(tmp_path / "out")}
    payload.update(overrides)
    # custom_modes alone defines the custom model: it has no drive amplitude
    payload.setdefault("drive", {"omega": 8.0, **({} if payload["model"] == "custom"
                                                  else {"amplitude": 1.0})})
    if payload["task"] in ("spectrum", "greens"):     # the tasks that read n_k
        payload.setdefault("numerics", {"n_k": 24})
    return payload


GREENS_BATH = {"gamma": 0.05, "beta": 20.0}


class TestValidation:
    def test_accepts_minimal(self, tmp_path):
        cfg = validate_config(spectrum_config(tmp_path))
        assert cfg.model == "chain1d"
        assert cfg.m_cut == 9  # cli.default_replica_cutoff(8.0, 1.0, 2.0)
        assert set(cfg.numerics) == {"M", "n_k", "k_min", "k_max"}

    def test_rejects_negative_omega(self, tmp_path):
        payload = spectrum_config(tmp_path, drive={"omega": -1.0})
        with pytest.raises(ConfigError, match="drive.omega"):
            validate_config(payload)

    def test_rejects_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            validate_config(spectrum_config(tmp_path, model="kagome"))

    def test_rejects_linear_dirac(self, tmp_path):
        payload = spectrum_config(
            tmp_path, model="dirac",
            drive={"omega": 5.0, "amplitude": 1.0, "polarization": "linear"})
        with pytest.raises(ConfigError, match="polarization"):
            validate_config(payload)

    def test_greens_needs_bath(self, tmp_path):
        payload = spectrum_config(tmp_path, task="greens")
        with pytest.raises(ConfigError, match="bath.gamma"):
            validate_config(payload)

    def test_custom_needs_modes(self, tmp_path):
        payload = spectrum_config(tmp_path, model="custom")
        with pytest.raises(ConfigError, match="custom_modes"):
            validate_config(payload)

    def test_rejects_replica_cutoff_below_mode_cutoff(self, tmp_path):
        # the chain modes fill every harmonic to 2M, but replica selection keeps
        # SELECTION_MARGIN = 2 blocks on each side of the central one
        payload = spectrum_config(tmp_path, numerics={"M": 1})
        with pytest.raises(ConfigError, match="^numerics.M: must be >= 2"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()
        # any larger M fits them, below the default M 9 too
        for m_cut in (2, 8, 10):
            payload["numerics"]["M"] = m_cut
            assert validate_config(payload).m_cut == m_cut

    @pytest.mark.parametrize("model, task", [("chain1d", "greens"), ("honeycomb", "spectrum"),
                                             ("honeycomb", "chern"), ("honeycomb", "greens")])
    def test_lattice_modes_need_room_below_replica_cutoff(self, tmp_path, model, task):
        # as for the chain1d spectrum: M 1 leaves no margin in any task
        payload = spectrum_config(
            tmp_path, model=model, task=task, numerics={"M": 1},
            drive={"omega": 8.0, "amplitude": 1.0,
                   "polarization": "linear" if model == "chain1d" else "circular"},
            **({"bath": {"gamma": 0.1}} if task == "greens" else {}))
        with pytest.raises(ConfigError, match="^numerics.M: must be >= 2"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()
        payload["numerics"]["M"] = 2
        assert validate_config(payload).m_cut == 2

    @pytest.mark.parametrize("triples", [
        [[0, [[1.0, 0.0]], [[0.0, 0.0]]]],                          # not square
        [[0, [[1.0, 0.0], [0.0, 1.0]]]],                             # not (n, re, im)
        [[0, [[0.0]], [[0.0]]], [1, [[1.0]], [[0.0]]],
         [-1, [[2.0]], [[0.0]]]],                                    # H_-1 != H_1^dagger
        [[0, [[math.nan]], [[0.0]]]],                                # json reads NaN
        [["0", [["1"]], [["0"]]]],                                   # text, read as H_0 = 1
        [[0, [["1e3"]], [[0]]]],
        [[0, [[True]], [[0]]]],                                      # a bool, read as 1
        [[True, [[1.0]], [[0.0]]], [-1, [[1.0]], [[0.0]]],
         [0, [[0.0]], [[0.0]]]],                                     # true as n = 1
        [[0, [[True, 2], [2, 1]], [[0, 0], [0, 0]]]],                # np.asarray([True, 2])
        [[0, json.loads("[" * 800 + "0" + "]" * 800), [[0.0]]]],    # deeper than recursion
    ], ids=["nonsquare", "not_a_triple", "pairing", "non_finite", "text", "text_number",
            "bool_entry", "bool_index", "bool_among_numbers", "deeply_nested"])
    def test_malformed_custom_modes_are_config_errors(self, tmp_path, triples):
        payload = spectrum_config(tmp_path, model="custom", custom_modes=triples)
        with pytest.raises(ConfigError, match="custom_modes"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    def test_custom_modes_parsed_once(self, tmp_path):
        triples = [[0, [[0.3]], [[0.0]]], [1, [[0.2]], [[0.0]]], [-1, [[0.2]], [[0.0]]]]
        cfg = validate_config(spectrum_config(tmp_path, model="custom", custom_modes=triples))
        assert isinstance(cfg.custom_modes, fq.FourierModeSet)
        assert cli._modes(cfg, 0.4) is cfg.custom_modes

    def test_custom_mode_terms_parsed_once_per_validation(self, tmp_path, monkeypatch):
        calls = []
        parse = fq.models.custom_mode_terms

        def counting(triples):
            calls.append(len(triples))
            return parse(triples)

        monkeypatch.setattr(fq.models, "custom_mode_terms", counting)
        triples = [[0, [[0.3]], [[0.0]]], [1, [[0.2]], [[0.0]]], [-1, [[0.2]], [[0.0]]]]
        cfg = validate_config(spectrum_config(tmp_path, model="custom", custom_modes=triples))
        assert calls == [3]
        np.testing.assert_array_equal(cfg.custom_modes.modes,
                                      fq.custom_modes(cfg.drive.omega, triples).modes)

    def test_replica_cutoff_below_custom_harmonics(self, tmp_path):
        triples = [[0, [[0.3]], [[0.0]]], [3, [[0.2]], [[0.0]]], [-3, [[0.2]], [[0.0]]]]
        payload = spectrum_config(tmp_path, model="custom", custom_modes=triples,
                                  task="greens", bath={"gamma": 0.1},
                                  numerics={"M": 2, "n_k": 2, "nu_points": 11})
        with pytest.raises(ConfigError, match="numerics.M"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2

    def test_default_replica_cutoff_covers_custom_harmonics(self, tmp_path):
        # harmonics up to 17, past default_replica_cutoff's 5 for the mode norms 0.4
        triples = [[0, [[0.3]], [[0.0]]], [17, [[0.05]], [[0.0]]], [-17, [[0.05]], [[0.0]]]]
        payload = spectrum_config(tmp_path, model="custom", custom_modes=triples,
                                  numerics={"n_k": 2})
        cfg = validate_config(payload)
        assert cfg.m_cut == 19 and "n_max" not in cfg.numerics
        path = write_config(tmp_path, payload)
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 0
        # the lattices take default_replica_cutoff at their A and half-bandwidth
        honeycomb = spectrum_config(
            tmp_path, model="honeycomb",
            drive={"omega": 10.0, "amplitude": 1.0, "polarization": "circular"})
        assert validate_config(honeycomb).m_cut == cli.default_replica_cutoff(10.0, 1.0, 3.0) == 9
        # dirac's mode cutoff is 1; its default M takes the mode norms 2 A at k = 0
        dirac = spectrum_config(
            tmp_path, model="dirac",
            drive={"omega": 5.0, "amplitude": 1.0, "polarization": "circular"})
        assert validate_config(dirac).m_cut == cli.default_replica_cutoff(5.0, 0.0, 2.0) == 6

    @pytest.mark.parametrize("model", ["chain1d", "honeycomb", "dirac"])
    def test_greens_takes_default_replica_cutoff(self, tmp_path, model):
        # one rule for every task that reads M, and a default greens M may be raised; the
        # lattices take their A and half-bandwidth, dirac A = 0 and its mode norms 2 A
        polarization = "linear" if model == "chain1d" else "circular"
        payload = spectrum_config(
            tmp_path, model=model, task="greens", bath={"gamma": 0.1},
            drive={"omega": 8.0, "amplitude": 1.0, "polarization": polarization})
        peierls, width = {"chain1d": (1.0, 2.0), "honeycomb": (1.0, 3.0)}.get(model, (0.0, 2.0))
        cfg = validate_config(payload)
        assert cfg.m_cut == cli.default_replica_cutoff(8.0, peierls, width) and cfg.raise_m
        # an explicit M still wins, and is never raised
        payload["numerics"] = {"M": 17}
        cfg = validate_config(payload)
        assert cfg.m_cut == 17 and not cfg.raise_m

    @pytest.mark.parametrize("key, value, reader", [
        ("bath", {"gamma": 0.1}, "greens"),
        ("lindblad", {"gamma": 0.3}, "ness"),
        ("summary_metric", "J_eff", "hfe"),
        ("write_curvature", True, "chern"),
    ])
    @pytest.mark.parametrize("task", ["spectrum", "hfe", "chern", "greens", "ness"])
    def test_sections_of_other_tasks_are_config_errors(self, tmp_path, capsys, key, value,
                                                       reader, task):
        payload = spectrum_config(
            tmp_path, model="honeycomb", task=task,
            drive={"omega": 8.0, "amplitude": 1.0, "polarization": "circular"})
        payload.update({"greens": {"bath": {"gamma": 0.1}},
                        "ness": {"lindblad": {"gamma": 0.3}}}.get(task, {}))
        validate_config(payload)
        payload[key] = value
        if task == reader:
            validate_config(payload)
            return
        with pytest.raises(ConfigError, match=f"^{key}: only the {reader} task reads it"):
            validate_config(payload)
        assert main(["validate", write_config(tmp_path, payload)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["spectrum", "chern", "greens"])
    def test_replica_selection_needs_margin(self, tmp_path, task):
        # one harmonic needs M >= 3: dirac for spectrum and greens, whose certificate selects
        # the physical band too, the same in custom form for chern
        model = "custom" if task == "chern" else "dirac"
        payload = spectrum_config(
            tmp_path, model=model, task=task,
            numerics={"M": 2, ("Nk" if task == "chern" else "n_k"): 4},
            **({"drive": {"omega": 10.0, "amplitude": 1.0}} if model == "dirac"
               else {"custom_modes": SETTING_VALUES["custom_modes"]}),
            **({"bath": GREENS_BATH} if task == "greens" else {}))
        with pytest.raises(ConfigError, match="numerics.M"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        payload["numerics"]["M"] = 3
        validate_config(payload)

    @pytest.mark.parametrize("key", ["M", "n_k", "Nk", "nu_points", "steps_per_period"])
    def test_rejects_nonintegral_integer_keys(self, tmp_path, key):
        task = {"Nk": "chern", "nu_points": "greens", "steps_per_period": "ness"}.get(
            key, "spectrum")
        sections = {"greens": {"bath": {"gamma": 0.1}}, "ness": {"lindblad": {"gamma": 0.4}}}
        payload = spectrum_config(
            tmp_path, model="honeycomb", task=task, numerics={key: 20.7},
            drive={"omega": 8.0, "amplitude": 1.0, "polarization": "circular"},
            **sections.get(task, {}))
        with pytest.raises(ConfigError, match=f"numerics.{key}: must be an integer"):
            validate_config(payload)

    def test_accepts_integral_floats(self, tmp_path):
        cfg = validate_config(spectrum_config(tmp_path, numerics={"M": 16.0, "n_k": 64.0}))
        assert (cfg.m_cut, cfg.numerics["n_k"]) == (16, 64)
        assert set(cfg.numerics) == {"M", "n_k", "k_min", "k_max"}
        assert all(type(cfg.numerics[key]) is int for key in ("M", "n_k"))

    def test_rejects_unused_n_steps_key(self, tmp_path):
        payload = spectrum_config(tmp_path, numerics={"n_steps": 4096})
        with pytest.raises(ConfigError, match="numerics.n_steps: unknown numerics key"):
            validate_config(payload)

    def test_rejects_removed_max_periods_key(self, tmp_path):
        payload = {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0},
                   "task": "ness", "output": str(tmp_path / "out"),
                   "lindblad": {"gamma": 0.4}, "numerics": {"max_periods": 2000}}
        with pytest.raises(ConfigError, match="numerics.max_periods: unknown numerics key"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["drive.omega", "drive.amplitude", "numerics.k_max",
                                     "numerics.tol", "bath.gamma", "lindblad.k"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, key):
        # json reads NaN and Infinity, and --set passes them on
        task = {"numerics.tol": "ness", "bath.gamma": "greens", "lindblad.k": "ness"}.get(
            key, "spectrum")
        sections = {"greens": {"bath": {"gamma": 0.1}},
                    "ness": {"lindblad": {"gamma": 0.4, "k": [0.0, 0.0]}}}
        payload = spectrum_config(
            tmp_path, model="dirac", task=task,
            drive={"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
            numerics={} if task == "ness" else {"M": 26}, **sections.get(task, {}))
        validate_config(payload)
        for value in (math.inf, -math.inf, math.nan, 10 ** 400):
            cli._set_by_path(payload, key, [value, 0.0] if key == "lindblad.k" else value)
            with pytest.raises(ConfigError, match=key):
                validate_config(payload)

    @pytest.mark.parametrize("model, task", [("honeycomb", "spectrum"), ("honeycomb", "greens"),
                                             ("chain1d", "hfe"), ("dirac", "hfe"),
                                             ("honeycomb", "hfe")])
    def test_amplitude_outside_bessel_domain(self, tmp_path, model, task):
        # J_n(A) takes any finite A; only the default cutoffs bound it
        polarization = "linear" if model == "chain1d" else "circular"
        payload = spectrum_config(
            tmp_path, model=model, task=task,
            drive={"omega": 8.0, "amplitude": 60.0, "polarization": polarization},
            **({"bath": {"gamma": 0.1}} if task == "greens" else {}))
        if model == "dirac":    # dirac hfe reads no cutoff, and its gap no J_n(A)
            assert main(["run", write_config(tmp_path, payload)]) == 0
            report = json.loads((tmp_path / "out" / "hfe.json").read_text())
            assert report["dirac_gap"] == pytest.approx(np.sqrt(64.0 + 4.0 * 3600.0) - 8.0)
            return
        with pytest.raises(ConfigError, match="drive.amplitude"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    def test_large_amplitude_without_bessel_factors(self, tmp_path):
        validate_config(spectrum_config(tmp_path, drive={"omega": 8.0, "amplitude": 60.0},
                                        numerics={"n_k": 24, "M": 76}))
        validate_config(spectrum_config(
            tmp_path, model="honeycomb", task="ness", lindblad={"gamma": 0.4},
            drive={"omega": 8.0, "amplitude": 60.0, "polarization": "circular"}))

    @pytest.mark.parametrize("model, task", [("chain1d", "spectrum"), ("chain1d", "greens"),
                                             ("dirac", "spectrum"), ("dirac", "greens")])
    def test_default_cutoffs_need_bounded_amplitude(self, tmp_path, model, task):
        # the default M = ceil(A) + 12 would give a ~2e6-wide Sambe matrix here
        polarization = "linear" if model == "chain1d" else "circular"
        payload = spectrum_config(
            tmp_path, model=model, task=task,
            drive={"omega": 8.0, "amplitude": 1e6, "polarization": polarization},
            **({"bath": {"gamma": 0.1}} if task == "greens" else {}))
        with pytest.raises(ConfigError, match="drive.amplitude.*numerics.M"):
            validate_config(payload)
        # an explicit M is the only cutoff
        payload["numerics"] = {"M": 26}
        assert validate_config(payload).m_cut == 26

    @pytest.mark.parametrize("model", ["chain1d", "honeycomb"])
    def test_hfe_harmonics_need_bounded_amplitude(self, tmp_path, capsys, model):
        # hfe's lattice modes run to bessel_tail_order(A) harmonics, so A itself is bounded
        payload = {"model": model, "task": "hfe", "output": str(tmp_path / "out"),
                   "drive": {"omega": 8.0, "amplitude": 1e6}}
        started = time.monotonic()
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert time.monotonic() - started < 1.0
        assert "config error: drive.amplitude: must be <= 50" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_honeycomb_at_large_amplitude_with_explicit_cutoffs(self, tmp_path, capsys):
        payload = spectrum_config(
            tmp_path, model="honeycomb",
            drive={"omega": 8.0, "amplitude": 60.0, "polarization": "circular"},
            numerics={"n_k": 2})
        path = write_config(tmp_path, payload)
        assert main(["run", path]) == 2
        assert "drive.amplitude" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        payload["numerics"].update(M=110)
        assert main(["run", write_config(tmp_path, payload)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["numerics"]["M"] == 110

    def test_ness_custom_model_must_be_two_level(self, tmp_path):
        payload = spectrum_config(
            tmp_path, model="custom", task="ness", lindblad={"gamma": 0.4},
            custom_modes=[[0, np.diag([0.5, 0.0, -0.5]).tolist(), np.zeros((3, 3)).tolist()]])
        with pytest.raises(ConfigError, match="custom_modes"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    def test_ness_validation_memory_follows_the_held_harmonics(self, tmp_path):
        # sigma_z plus 0.3 sigma_x at +-2000: 3 of 4001 harmonics held; summing
        # all of them at every sampled time peaked at 63 MiB
        zero = np.zeros((2, 2)).tolist()
        payload = spectrum_config(
            tmp_path, model="custom", task="ness", lindblad={"gamma": 0.4},
            custom_modes=[[0, np.diag([1.0, -1.0]).tolist(), zero],
                          [2000, [[0.0, 0.3], [0.3, 0.0]], zero],
                          [-2000, [[0.0, 0.3], [0.3, 0.0]], zero]])
        tracemalloc.start()
        try:
            validate_config(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_write_curvature_must_be_boolean(self, tmp_path, value):
        payload = spectrum_config(tmp_path, model="honeycomb", task="chern",
                                  drive={"omega": 8.0, "amplitude": 1.0},
                                  write_curvature=value)
        with pytest.raises(ConfigError, match="write_curvature"):
            validate_config(payload)

    @pytest.mark.parametrize("numerics", [{"k_min": 1.0, "k_max": 1.0},
                                          {"k_min": 1.0, "k_max": -1.0},
                                          {"k_min": 4.0}, {"k_max": -4.0}])
    def test_k_range_must_be_increasing(self, tmp_path, numerics):
        payload = spectrum_config(tmp_path, numerics={"n_k": 4, **numerics})
        with pytest.raises(ConfigError, match="numerics.k_max"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, extra", [("spectrum", {}),
                                             ("greens", {"bath": {"gamma": 0.1}})],
                             ids=["spectrum", "greens"])
    def test_k_range_must_be_finite(self, tmp_path, capsys, task, extra):
        # each bound is finite but k_max - k_min is not, and np.linspace would make NaN k
        payload = spectrum_config(tmp_path, task=task, **extra,
                                  numerics={"n_k": 4, "k_min": -1e308, "k_max": 1e308})
        with pytest.raises(ConfigError, match="^numerics.k_max: "):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err.startswith("config error: numerics.k_max: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, extra", [
        ("write_curvatures", {"write_curvatures": True}),
        ("bath.gama", {"bath": {"gama": 1}}),
        ("drive.amplitud", {"drive": {"omega": 8.0, "amplitud": 2.0}}),
        ("lindblad.gama", {"lindblad": {"gamma": 0.4, "gama": 1}}),
        ("numerics.n_k", {"numerics.n_k": 8}),        # a dotted name is not a path
        ("numerics.n_max", {"numerics": {"n_k": 8, "n_max": 11}}),   # M is the only cutoff
    ])
    def test_unknown_keys_are_config_errors(self, tmp_path, capsys, key, extra):
        payload = spectrum_config(tmp_path, **extra)
        with pytest.raises(ConfigError, match=f"^{key}: unknown"):
            validate_config(payload)
        assert main(["validate", write_config(tmp_path, payload)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["dirac", "honeycomb"])
    def test_empty_section_sets_nothing(self, tmp_path, model):
        # hfe reads no numerics, yet an empty numerics section is no setting to reject
        payload = {"model": model, "task": "hfe", "output": str(tmp_path / "out"),
                   "drive": {"omega": 8.0, "amplitude": 1.0}, "numerics": {}, "bath": {}}
        assert validate_config(payload).numerics == {}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        payload["numerics"] = []
        with pytest.raises(ConfigError, match="^numerics: must be an object"):
            validate_config(payload)

    @pytest.mark.parametrize("model, task, section, runs_on", [
        ("dirac", "chern", {}, "honeycomb and custom"),
        ("chain1d", "ness", {"lindblad": {"gamma": 0.4}}, "dirac, honeycomb and custom")])
    def test_task_on_a_model_it_does_not_run_on(self, tmp_path, model, task, section, runs_on):
        payload = spectrum_config(tmp_path, model=model, task=task, **section)
        with pytest.raises(ConfigError, match=f"^model: {task} task runs on the {runs_on} "
                                              f"models only, got '{model}'$"):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, task, extra, message", [
        # no task chain1d runs reads lindblad, so the message names models, not ness
        ("chain1d", "spectrum", {"lindblad": {"gamma": 0.3}},
         "lindblad: only the dirac, honeycomb and custom models read it, not 'chain1d'"),
        # chern, which reads Nk, does not run on dirac
        ("dirac", "hfe", {"numerics": {"Nk": 4}},
         "numerics: only the spectrum, greens and ness tasks read it, not 'hfe'"),
        ("dirac", "spectrum", {"numerics": {"Nk": 4}},
         "numerics.Nk: only the honeycomb and custom models read it, not 'dirac'"),
    ])
    def test_unread_keys_name_only_tasks_the_model_runs(self, tmp_path, capsys, model, task,
                                                        extra, message):
        payload = spectrum_config(tmp_path, model=model, task=task, **extra)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            validate_config(payload)
        assert main(["validate", write_config(tmp_path, payload)]) == 2
        assert message in capsys.readouterr().err

    def test_rejects_circular_chain(self, tmp_path):
        payload = spectrum_config(
            tmp_path, drive={"omega": 8.0, "amplitude": 1.0, "polarization": "circular"})
        with pytest.raises(ConfigError, match="drive.polarization.*linear"):
            validate_config(payload)

    def test_unknown_hfe_metric_fails_before_any_output(self, tmp_path, capsys):
        payload = spectrum_config(tmp_path, task="hfe", summary_metric="bogus")
        path = write_config(tmp_path, payload)
        assert main(["validate", path]) == 2
        assert "summary_metric" in capsys.readouterr().err
        assert main(["run", path]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--output", "out"), ("--set", "output=out")])
    def test_non_object_root_is_config_error(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        assert main(["run", "list.json", flag, value]) == 2
        assert "<root>" in capsys.readouterr().err
        assert main(["validate", "list.json"]) == 2
        assert not (tmp_path / "out").exists()

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = write_config(tmp_path, spectrum_config(tmp_path))
        assert main(["validate", good]) == 0
        bad = write_config(tmp_path, spectrum_config(tmp_path, drive={"omega": -2.0}),
                           name="bad.json")
        assert main(["validate", bad]) == 2

    @pytest.mark.parametrize("below", ["", "out", "a/b"],
                             ids=["file", "under-a-file", "deep-under-a-file"])
    def test_output_the_run_cannot_create(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        output = str(taken / below) if below else str(taken)
        payload = spectrum_config(tmp_path, output=output)
        with pytest.raises(ConfigError, match="^output: cannot create directory ") as caught:
            validate_config(payload)
        path = write_config(tmp_path, payload)
        assert main(["validate", path]) == 2
        # the message os.makedirs gives the run
        with pytest.raises(ConfigError) as made:
            cli._make_output_dir(output)
        assert capsys.readouterr().err == f"config error: {made.value}\n"
        assert str(caught.value) == str(made.value)
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_output_below_a_missing_directory_validates(self, tmp_path):
        validate_config(spectrum_config(tmp_path, output=str(tmp_path / "new" / "out")))
        assert not (tmp_path / "new").exists()


# a valid value of every setting in cli.TASK_KEYS and cli.MODEL_KEYS
SETTING_VALUES = {
    "drive.amplitude": 1.0, "drive.polarization": "circular",
    "numerics.M": 8, "numerics.n_k": 4, "numerics.k_min": -1.0,
    "numerics.k_max": 1.0, "numerics.Nk": 4, "numerics.nu_points": 11, "numerics.tol": 1e-8,
    "numerics.steps_per_period": 64, "bath.gamma": 0.1, "bath.beta": 20.0,
    "lindblad.gamma": 0.4, "lindblad.k": [0.1, -0.2], "summary_metric": "correction_norm",
    "write_curvature": True,
    "custom_modes": [[0, [[0.3, 0.1], [0.1, -0.3]], [[0.0, 0.0], [0.0, 0.0]]],
                     [1, [[0.0, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                     [-1, [[0.0, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
}


@pytest.mark.parametrize("model", ["honeycomb", "custom"])
@pytest.mark.parametrize("task", cli.TASKS)
def test_config_holds_exactly_the_keys_the_run_reads(tmp_path, capsys, model, task):
    assert set(SETTING_VALUES) == {*cli.MODEL_KEYS, *(key for keys in cli.TASK_KEYS.values()
                                                      for key in keys)}
    reads = [key for key in ("drive.amplitude", "drive.polarization", *cli.TASK_KEYS[task])
             if model in cli.MODEL_KEYS.get(key, cli.MODELS)]
    payload = {"model": model, "task": task, "output": str(tmp_path / "out"),
               "drive": {"omega": 8.0}}
    for key in reads:
        cli._set_by_path(payload, key, SETTING_VALUES[key])
    validate_config(payload)
    for key in sorted(set(SETTING_VALUES) - set(reads)):
        extra = json.loads(json.dumps(payload))
        section = key.partition(".")[0]
        # a section the run does not read at all is named as the section
        name = key if section == key or section in extra else section
        cli._set_by_path(extra, key, SETTING_VALUES[key])
        with pytest.raises(ConfigError, match=f"^{name}: only the "):
            validate_config(extra)
        assert main(["validate", write_config(tmp_path, extra)]) == 2
        assert f"config error: {name}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, key, message", [
    # the custom model's Hamiltonian does not depend on k, amplitude or polarization
    # only ness reads lindblad.k, and ness does not run on chain1d
    ("custom", "lindblad.k", "only the dirac and honeycomb models read it, not 'custom'"),
    ("dirac", "custom_modes", "only the custom model reads it, not 'dirac'"),
    ("custom", "drive.amplitude",
     "only the chain1d, dirac and honeycomb models read it, not 'custom'"),
    ("custom", "drive.polarization",
     "only the chain1d, dirac and honeycomb models read it, not 'custom'"),
], ids=["custom-lindblad.k", "dirac-custom_modes", "custom-drive.amplitude",
        "custom-drive.polarization"])
def test_settings_of_other_models_are_config_errors(tmp_path, capsys, model, key, message):
    payload = {"model": model, "task": "ness", "output": str(tmp_path / "out"),
               "drive": {"omega": 5.0}, "lindblad": {"gamma": 0.4}}
    if model == "custom":
        payload["custom_modes"] = SETTING_VALUES["custom_modes"]
    else:
        payload["drive"]["amplitude"] = 1.0
    validate_config(payload)
    cli._set_by_path(payload, key, SETTING_VALUES[key])
    with pytest.raises(ConfigError, match=f"^{key}: {message}$"):
        validate_config(payload)
    path = write_config(tmp_path, payload)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, task", [
    (model, task) for model in cli.MODELS for task in cli.TASKS
    if model in cli.TASK_MODELS.get(task, cli.MODELS)])
def test_n_max_of_a_model_without_it_fails_before_any_output(tmp_path, capsys, model, task):
    # no model has a mode cutoff of its own to set: M is every run's only cutoff
    payload = {"model": model, "task": task, "output": str(tmp_path / "out"),
               "drive": {"omega": 5.0}, "bath": {"gamma": 0.1}, "lindblad": {"gamma": 0.4},
               "custom_modes": SETTING_VALUES["custom_modes"], "numerics": {"n_max": 3}}
    payload = {key: value for key, value in payload.items()
               if key in cli._reads(model, task) or key == "numerics"}
    assert main(["run", write_config(tmp_path, payload)]) == 2
    assert "config error: numerics.n_max: unknown numerics key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the empty section left behind sets nothing, read by the task or not
    del payload["numerics"]["n_max"]
    validate_config(payload)


@pytest.mark.parametrize("model", ["chain1d", "dirac", "honeycomb", "custom"])
def test_model_sampler_and_modes_describe_one_hamiltonian(tmp_path, model):
    triples = [[0, [[0.3, 0.1], [0.1, -0.3]], [[0.0, 0.0], [0.0, 0.0]]],
               [1, [[0.0, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
               [-1, [[0.0, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    cfg = validate_config(spectrum_config(
        tmp_path, model=model, **({"custom_modes": triples} if model == "custom" else {
            "drive": {"omega": 8.0, "amplitude": 1.0,
                      "polarization": "linear" if model == "chain1d" else "circular"}})))
    sampler, build = cli._model_at(cfg, 0.7, -0.4)
    modes = build()
    for t in np.linspace(0.0, 2.0 * np.pi / 8.0, 7):
        assert np.max(np.abs(modes.sample(t) - sampler(t))) < 1e-9


def test_lattice_modes_fill_the_replica_cutoff(tmp_path):
    # at omega 4, A 6 the default mode cutoff ceil(A) + 10 = 16 left the quasienergies
    # 1.7e-11 off at M 30, with an edge weight of 8e-20 that could not show it
    cfg = validate_config(spectrum_config(
        tmp_path, model="honeycomb", numerics={"M": 30},
        drive={"omega": 4.0, "amplitude": 6.0, "polarization": "circular"}))
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kx, ky in np.random.default_rng(16).uniform(-2.0, 2.0, (12, 2)):
            band = fq.physical_band(cli._modes(cfg, kx, ky), 30).quasienergies
            # the full solve; J_n(6) < 1e-40 past n = 48
            full = fq.select_physical_band(fq.quasienergies(fq.build_floquet_matrix(
                fq.honeycomb_modes(kx, ky, 1.0, cfg.drive, 48), 50))).quasienergies
            worst = max(worst, np.max(np.abs(fq.fold_to_bz(band - full, 4.0))))
    assert worst < 1e-12


@pytest.mark.parametrize("task", ["spectrum", "greens", "hfe"])
def test_chain_modes_are_closed_form(tmp_path, monkeypatch, task):
    # no sampled modes, so no aliasing check on the run path
    monkeypatch.setattr(fq.models, "fourier_modes", None)
    cfg = validate_config(spectrum_config(tmp_path, task=task, **{
        "spectrum": {"numerics": {"n_k": 2}},
        "greens": {"numerics": {"n_k": 2, "nu_points": 11}, "bath": {"gamma": 0.1}}}.get(task, {})))
    modes = cli._modes(cfg, 0.7)
    # every harmonic the Sambe matrix holds, where the task reads M
    n_max = 2 * cfg.m_cut if task != "hfe" else fq.highfreq.bessel_tail_order(1.0)
    np.testing.assert_array_equal(modes.modes,
                                  fq.chain_modes(0.7, 1.0, cfg.drive, n_max).modes)
    cli.run_config(cfg)


def test_csv_writer_matches_per_value_formatting(tmp_path):
    special_values = [(0.5, 3, -0.0, math.inf, 1e-300, 1e8),
                      (-1.0 / 3.0, -7, 0.0, -math.inf, 2.5e-7, 123456789012.5),
                      (1e8, 0, -0.0, 1e300, -1e-300, 12.0)]
    several_blocks = [(i / 7.0, -i, 0.0, 1e8 + i, i * 1e-9, 2.5 * i)
                      for i in range(2 * cli.CSV_BLOCK_ROWS + 5)]
    for rows in (special_values, several_blocks):
        path = str(tmp_path / "rows.csv")
        cli._write_csv(path, "a,b,c,d,e,f", np.array(rows, dtype=float))
        expected = "a,b,c,d,e,f\n" + "".join(
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("k", [-0.0, 0.0, 1e-5, -math.pi])
def test_greens_text_matches_the_full_table(k, monkeypatch):
    rng = np.random.default_rng(29)
    rows = 2 * cli.CSV_BLOCK_ROWS + 77
    nu = np.sort(rng.uniform(-40.0, 40.0, rows))
    nu[[7, -7]] = -1.23456789012e-300, 4.5e+300    # outside the kernel's range: '%.12g' itself
    spec = rng.exponential(size=rows)
    occ = spec * rng.uniform(size=rows)
    occ[::5] = 0.0
    exact = []
    monkeypatch.setattr(cli, "_exact_text",
                        lambda v, inner=cli._exact_text: exact.append(v.tolist()) or inner(v))
    lead = (cli._leading_cells(nu), cli._leading_cells(np.array([k])))
    assert len(exact) == 1 and {nu[7], nu[-7]} <= set(exact[0])
    values = np.column_stack((spec, occ))
    table = np.column_stack((nu, np.full(rows, k), spec, occ))
    assert b"".join(cli._csv_blocks(values, lead)) == b"".join(cli._csv_blocks(table))


def test_csv_blocks_take_several_per_row_leading_columns():
    rng = np.random.default_rng(32)
    table = rng.standard_normal((cli.CSV_BLOCK_ROWS + 3, 5)) * 10.0 ** rng.integers(-8, 9, 5)
    table[::3, 1] = -0.0
    lead = (cli._leading_cells(table[:, 0]), cli._leading_cells(table[:, 1]))
    expected = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in table.tolist())
    assert b"".join(cli._csv_blocks(table[:, 2:], lead)) == expected.encode()


def torture_doubles(rng):
    """About 1M doubles covering every branch of the %.12g kernel."""
    def signed(values):
        return values * rng.choice([-1.0, 1.0], values.size)

    # exact 13-digit ties T = r 5^q (r odd), stored exactly as x = T 10^-q = r 2^-q,
    # and T 10^p for the p where T 5^p fits in 53 bits
    ties = []
    for q in range(1, 19):
        r = rng.integers(10 ** 12 // 5 ** q + 1, 10 ** 13 // 5 ** q, 2000) | 1
        ties.append(r * 2.0 ** -q)
    for p in range(6):
        t = (rng.integers(10 ** 11, 10 ** 12, 2000) * 10 + 5)
        ties.append((t[t * 5 ** p < 2 ** 53] * 10 ** p).astype(float))
    ties = np.concatenate(ties)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([9.999999999995e-5, 999999999999.5, 1e12, 99999999999.95, 1e-290, 1e290,
                      9.99999999999e-5, 9.9999999999949e-5, 0.0001, 1e-5, 5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e308])
    near = np.concatenate([ties, powers, edges])
    with np.errstate(over="ignore"):  # the neighbour above the largest double is inf
        above = np.nextafter(near, np.inf)
        above2 = np.nextafter(above, np.inf)
    values = np.concatenate([
        signed(rng.uniform(1.0, 10.0, 350_000) * 10.0 ** rng.integers(-6, 14, 350_000)),
        signed(rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-307, 308, 200_000)),
        signed(rng.integers(1, 2 ** 52, 20_000).view(float)),          # subnormals
        signed(rng.integers(0, 10 ** 15, 50_000).astype(float)),       # integer-valued
        signed(rng.integers(0, 100, 50_000).astype(float)),
        rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(float),  # any bit pattern
        signed(near), signed(above), signed(above2), signed(np.nextafter(near, 0.0)),
        signed(np.nextafter(np.nextafter(near, 0.0), 0.0)),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan] * 100),
    ])
    rng.shuffle(values)
    return values[:values.size // 5 * 5]


def test_csv_kernel_matches_per_value_formatting(tmp_path, monkeypatch):
    values = torture_doubles(np.random.default_rng(2026))
    assert values.size >= 1_000_000
    exact = []
    monkeypatch.setattr(cli, "_exact_text",
                        lambda v, inner=cli._exact_text: exact.append(v.size) or inner(v))
    path = tmp_path / "torture.csv"
    cli._write_csv(str(path), "a,b,c,d,e", values.reshape(-1, 5))
    expected = "a,b,c,d,e\n" + "".join(
        f"{a:.12g},{b:.12g},{c:.12g},{d:.12g},{e:.12g}\n"
        for a, b, c, d, e in values.reshape(-1, 5).tolist())
    assert path.read_bytes() == expected.encode()
    # the fallback ran; ties, their neighbours and out-of-range values are a
    # quarter of these cells, and the kernel formats the rest
    assert 0 < sum(exact) < 0.3 * values.size


def test_csv_writer_memory_bounded_by_one_block(tmp_path):
    table = np.random.default_rng(0).standard_normal((16 * cli.CSV_BLOCK_ROWS, 4))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli._write_csv(str(path), "a,b,c,d", table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2
    # greens.csv rows at one k: the unfolded nu axis and k as leading cells, formatted
    # before the blocks, then A and N
    nu = np.linspace(-2.5, 2.5, 401, endpoint=False)
    frequencies = np.resize(fq.open_system.unfolded_axis(nu, 27, 5.0), len(table))
    lead = (cli._leading_cells(frequencies), cli._leading_cells(np.array([-3.0925])))
    values = np.abs(table[:, :2])
    path = tmp_path / "greens.csv"
    tracemalloc.start()
    try:
        with open(path, "wb") as handle:
            for block in cli._csv_blocks(values, lead):
                handle.write(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_failed_write_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("kept")
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(str(path), "\udc80")     # a lone surrogate has no encoding
    with pytest.raises(IndexError):
        cli._write_csv(str(tmp_path / "out.csv"), "a", np.ones(3))    # not (n_rows, n_cols)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert path.read_text() == "kept"


class TestRun:
    def test_spectrum_matches_bessel_band(self, tmp_path):
        path = write_config(tmp_path, spectrum_config(tmp_path))
        assert main(["run", path]) == 0
        rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
        assert rows[0] == "k,branch,n_replica,quasienergy,weight0"
        worst = 0.0
        for line in rows[1:]:
            k, branch, n_replica, eps, w0 = line.split(",")
            expected = -2.0 * fq.bessel_j(0, 1.0) * np.cos(float(k))
            worst = max(worst, abs(float(eps) - expected))
            assert float(w0) > 0.9
        assert worst < 1e-7
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["task"] == "spectrum"
        assert len(manifest["config_sha256"]) == 64

    def test_hfe_reports_gap(self, tmp_path):
        payload = {
            "model": "dirac",
            "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
            "task": "hfe",
            "output": str(tmp_path / "out"),
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        report = json.loads((tmp_path / "out" / "hfe.json").read_text())
        assert report["dirac_gap"] == pytest.approx(np.sqrt(29.0) - 5.0, abs=1e-12)
        assert set(report) == {"dirac_gap", "correction_norm"}

    @pytest.mark.parametrize("model, report", [
        ("chain1d", {"J_eff": float(fq.bessel_j(0, 1.0))}),
        ("dirac", {"dirac_gap": np.sqrt(64.0 + 4.0) - 8.0}),
        # bit-equal to the values before K_eff's series cutoff followed A
        ("honeycomb", {"J_eff": 0.7651976865579666, "K_eff": -0.040496351073830185}),
        ("custom", {})])
    def test_hfe_reports_the_closed_forms_of_its_model(self, tmp_path, capsys, model, report):
        payload = {"model": model, "task": "hfe", "output": str(tmp_path / "out"),
                   "drive": {"omega": 8.0, **({} if model == "custom" else {"amplitude": 1.0})},
                   **({"custom_modes": SETTING_VALUES["custom_modes"]} if model == "custom"
                      else {})}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        written = json.loads((tmp_path / "out" / "hfe.json").read_text())
        assert list(written) == sorted([*report, "correction_norm"])
        assert {key: written[key] for key in report} == report
        # the default summary is the model's first closed form, else correction_norm
        summary = json.loads(capsys.readouterr().out)
        assert summary["summary_metric"] == written[cli.HFE_REPORT[model][0]]
        assert cli.HFE_REPORT[model] == (*report, "correction_norm")

    def test_hfe_honeycomb_correction_at_the_dirac_point(self, tmp_path):
        # the Haldane mass vanishes at k = 0; at K = (4 pi / (3 sqrt 3), 0), where f(K) = 0,
        # the correction is diag(3 sqrt(3) K_eff, -3 sqrt(3) K_eff)
        drive = {"omega": 8.0, "amplitude": 1.0, "polarization": "circular"}
        payload = {"model": "honeycomb", "task": "hfe", "output": str(tmp_path / "out"),
                   "drive": drive}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        written = json.loads((tmp_path / "out" / "hfe.json").read_text())
        modes = fq.honeycomb_modes(4.0 * np.pi / (3.0 * np.sqrt(3.0)), 0.0, 1.0,
                                   fq.DriveProtocol(**drive), fq.highfreq.bessel_tail_order(1.0))
        report = fq.van_vleck_hf(modes)
        assert written["correction_norm"] == pytest.approx(report.correction_norm, abs=1e-12)
        assert written["correction_norm"] > 0.2
        assert report.correction[0, 0] / (3.0 * np.sqrt(3.0)) == pytest.approx(
            fq.haldane_effective(1.0, 1.0, 8.0).k_eff, abs=1e-12)

    def test_hfe_metric_of_another_model_fails_before_any_output(self, tmp_path, capsys):
        payload = spectrum_config(tmp_path, task="hfe", summary_metric="K_eff")
        with pytest.raises(ConfigError, match="^summary_metric: 'K_eff' not in the 'chain1d' "):
            validate_config(payload)
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert "summary_metric" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_no_partial_files(self, tmp_path):
        payload = spectrum_config(tmp_path, drive={"omega": -8.0})
        path = write_config(tmp_path, payload)
        assert main(["run", path]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:   # a JSON text must be UTF-8
            payload = spectrum_config(tmp_path, output="caf\u00e9")
            path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("latin-1"))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: config: cannot read {path}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_config_nested_beyond_the_json_reader_is_config_error(self, tmp_path, capsys, where):
        deep = "[" * 5000 + "0" + "]" * 5000    # deeper than json's recursion limit
        if where == "file":
            payload = spectrum_config(tmp_path, model="custom", custom_modes=None)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload).replace("null", deep))
            args, named = [], f"config: cannot read {path}: "
        else:
            path = write_config(tmp_path, spectrum_config(tmp_path))
            args, named = ["--set", f"drive.amplitude={deep}"], "--set: drive.amplitude: "
        for command in ("validate", "run"):
            assert main([command, str(path), *args]) == 2
            assert capsys.readouterr().err == (
                f"config error: {named}nested deeper than the JSON reader allows\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
    def test_output_that_cannot_be_a_directory_is_config_error(self, tmp_path, capsys, nested):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        output = taken / "out" if nested else taken
        path = write_config(tmp_path, spectrum_config(tmp_path, output=str(output)))
        assert main(["run", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: output: cannot create directory {output}: ")
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_determinism(self, tmp_path):
        payload = spectrum_config(tmp_path)
        path = write_config(tmp_path, payload)
        assert main(["run", path]) == 0
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        assert main(["run", path]) == 0
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first

    def test_ness_task(self, tmp_path):
        payload = {
            "model": "custom",
            "drive": {"omega": 6.28318530717958648},
            "task": "ness",
            "output": str(tmp_path / "out"),
            "lindblad": {"gamma": 0.4},
            "numerics": {"tol": 1e-9, "steps_per_period": 128},
            "custom_modes": [
                [0, [[0.4, 0.0], [0.0, -0.4]], [[0.0, 0.0], [0.0, 0.0]]],
                [1, [[0.0, 0.35], [0.35, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [-1, [[0.0, 0.35], [0.35, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            ],
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        rows = (tmp_path / "out" / "ness.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "t"
        assert "rho_re_01" in header and "rho_im_10" in header
        first = [float(v) for v in rows[1].split(",")]
        last = [float(v) for v in rows[-1].split(",")]
        # periodic steady state: first and last sampled matrices agree
        assert max(abs(a - b) for a, b in zip(first[1:], last[1:])) < 1e-7

    @pytest.mark.parametrize("gamma", [1e-3, 1e-4])
    def test_ness_at_weak_damping(self, tmp_path, capsys, gamma):
        payload = {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0},
                   "task": "ness", "output": str(tmp_path / "out"),
                   "lindblad": {"gamma": gamma}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["residual"] <= 1e-12
        assert 0.0 < summary["gap"] < 10.0 * gamma
        rows = np.loadtxt(tmp_path / "out" / "ness.csv", delimiter=",", skiprows=1)
        assert rows.shape == (257, 9)      # t = 0 to T at the default 256 steps, 8 values each
        assert np.max(np.abs(rows[-1, 1:] - rows[0, 1:])) <= 1e-12

    def test_ness_manifest_records_solver_health(self, tmp_path, capsys):
        payload = {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0},
                   "task": "ness", "output": str(tmp_path / "out"), "lindblad": {"gamma": 0.4}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        summary = json.loads(capsys.readouterr().out)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"] == {"gap": summary["gap"], "residual": summary["residual"]}

    def test_ness_columns_row_major(self, tmp_path):
        drive = fq.DriveProtocol(omega=5.0, amplitude=1.0, polarization="circular")
        payload = {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0},
                   "task": "ness", "output": str(tmp_path / "out"),
                   "lindblad": {"gamma": 0.4, "k": [0.3, -0.2]},
                   "numerics": {"steps_per_period": 128}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        lines = (tmp_path / "out" / "ness.csv").read_text().splitlines()
        assert lines[0] == ("t,rho_re_00,rho_im_00,rho_re_01,rho_im_01,"
                            "rho_re_10,rho_im_10,rho_re_11,rho_im_11")
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        system = fq.LindbladSystem(
            hamiltonian=lambda t: fq.sample_dirac(0.3, -0.2, drive, t),
            jumps=[np.sqrt(0.4) * lowering])
        ness = fq.find_ness(system, 5.0, tol=1e-9, steps_per_period=128)
        assert len(lines) == 1 + len(ness.times)
        for line, t, rho in zip(lines[1:], ness.times, ness.states):
            values = [t]
            for i in range(2):
                for j in range(2):
                    values.extend((rho[i, j].real, rho[i, j].imag))
            assert line == ",".join(f"{v:.12g}" for v in values)

    @pytest.mark.parametrize("model, task, extra, expected", [
        ("chain1d", "spectrum", {},
         {"M": 9, "n_k": 64, "k_min": -math.pi, "k_max": math.pi}),
        # M = mode cutoff + 2 with the custom harmonics past default_replica_cutoff
        ("custom", "spectrum",
         {"custom_modes": [[0, [[0.5]], [[0.0]]], [12, [[0.1]], [[0.0]]], [-12, [[0.1]], [[0.0]]]]},
         {"M": 14, "n_k": 64, "k_min": -math.pi, "k_max": math.pi}),
        ("dirac", "hfe", {}, {}),       # dirac hfe reads no cutoff
        ("honeycomb", "chern", {}, {"M": 9, "Nk": 24}),
        ("chain1d", "greens", {"bath": {"gamma": 0.05}},
         {"M": 9, "n_k": 64, "k_min": -math.pi, "k_max": math.pi,
          "nu_points": 401}),
        ("dirac", "ness", {"lindblad": {"gamma": 0.4}},
         {"tol": 1e-9, "steps_per_period": 256}),
    ])
    def test_manifest_records_default_numerics(self, tmp_path, model, task, extra, expected):
        drive = {"omega": 8.0} if model == "custom" else {"omega": 8.0, "amplitude": 1.0}
        payload = {"model": model, "task": task, "output": str(tmp_path / "out"),
                   "drive": drive, **extra}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["numerics"] == expected
        assert all(type(value) is type(expected[key])
                   for key, value in manifest["numerics"].items())

    def test_greens_task(self, tmp_path):
        payload = {
            "model": "chain1d",
            "drive": {"omega": 5.0, "amplitude": 1.0},
            "task": "greens",
            "output": str(tmp_path / "out"),
            "bath": {"gamma": 0.05, "beta": 20.0},
            "numerics": {"n_k": 4, "nu_points": 101, "M": 14},
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        rows = (tmp_path / "out" / "greens.csv").read_text().strip().splitlines()
        assert rows[0] == "nu_unfolded,k,A,N"
        data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        assert np.all(data[:, 2] >= -1e-10)          # A >= 0
        assert np.all(data[:, 3] <= data[:, 2] + 1e-8)  # N <= A

    def test_greens_manifest_records_sum_rule_and_occupation_excess(self, tmp_path):
        payload = {"model": "chain1d", "drive": {"omega": 5.0, "amplitude": 1.0},
                   "task": "greens", "output": str(tmp_path / "out"),
                   "bath": {"gamma": 0.05, "beta": 20.0}, "numerics": {"n_k": 4}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        diagnostics = json.loads((tmp_path / "out" / "manifest.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == ["edge_weight", "m_raises", "occupation_excess",
                                       "resolution", "spectral_sum"]
        assert diagnostics["edge_weight"] <= cli.EDGE_WEIGHT_TOL and diagnostics["m_raises"] == 0
        assert abs(diagnostics["spectral_sum"] - 1.0) < 1e-3
        assert abs(diagnostics["occupation_excess"]) < 1e-12     # N <= A up to rounding

    def test_chern_task(self, tmp_path):
        payload = {
            "model": "honeycomb",
            "drive": {"omega": 10.0, "amplitude": 1.0, "polarization": "circular"},
            "task": "chern",
            "output": str(tmp_path / "out"),
            "numerics": {"Nk": 12},
            "write_curvature": True,
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        report = json.loads((tmp_path / "out" / "chern.json").read_text())
        numbers = sorted(band["chern"] for band in report["bands"])
        assert numbers == [-1, 1]
        assert all(band["residual"] < 1e-3 for band in report["bands"])
        for band in range(2):
            curvature = (tmp_path / "out" / f"curvature_band{band}.csv") \
                .read_text().splitlines()
            assert curvature[0] == "kx,ky,F"
            assert len(curvature) == 1 + 12 * 12

    def test_chern_of_one_band_is_strict_json(self, tmp_path, capsys):
        def strict(text):
            def reject(name):
                raise ValueError(f"not JSON: {name}")
            return json.loads(text, parse_constant=reject)

        zero = [[0.0]]
        payload = spectrum_config(
            tmp_path, model="custom", task="chern", numerics={"Nk": 4},
            custom_modes=[[0, [[0.5]], zero], [1, [[0.2]], zero], [-1, [[0.2]], zero]])
        assert main(["run", write_config(tmp_path, payload)]) == 0
        [band] = strict((tmp_path / "out" / "chern.json").read_text())["bands"]
        assert band["chern"] == 0 and band["min_gap"] is None
        assert strict(capsys.readouterr().out)["bands"] == [band]

    @pytest.mark.parametrize("model", ["chain1d", "honeycomb"])
    def test_default_replica_cutoff_matches_wide_cutoff(self, tmp_path, model):
        polarization = "linear" if model == "chain1d" else "circular"
        tables = []
        for name, numerics in (("default", {"n_k": 16}), ("wide", {"n_k": 16, "M": 17})):
            payload = spectrum_config(
                tmp_path, model=model, output=str(tmp_path / name), numerics=numerics,
                drive={"omega": 8.0, "amplitude": 1.0, "polarization": polarization})
            assert main(["run", write_config(tmp_path, payload)]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["numerics"]["M"] == (9 if name == "default" else 17)
            assert manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL
            assert manifest["diagnostics"]["m_raises"] == 0
            tables.append(np.loadtxt(tmp_path / name / "spectrum.csv", delimiter=",",
                                     skiprows=1))
        default, wide = tables
        np.testing.assert_array_equal(default[:, :3], wide[:, :3])
        assert np.max(np.abs(fq.fold_to_bz(default[:, 3] - wide[:, 3], 8.0))) < 1e-12
        assert np.max(np.abs(default[:, 4] - wide[:, 4])) < 1e-12

    def test_chern_at_default_replica_cutoff(self, tmp_path):
        payload = {"model": "honeycomb",
                   "drive": {"omega": 8.0, "amplitude": 1.0, "polarization": "circular"},
                   "task": "chern", "output": str(tmp_path / "out"), "numerics": {"Nk": 12}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        report = json.loads((tmp_path / "out" / "chern.json").read_text())
        assert [band["chern"] for band in report["bands"]] == [1, -1]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["numerics"]["M"] == 9
        assert manifest["diagnostics"] == {"edge_weight": pytest.approx(0, abs=1e-16),
                                           "m_raises": 0,
                                           "weight0_min": pytest.approx(0.9735, abs=1e-4),
                                           "selection_error": pytest.approx(0, abs=1e-9)}

    @pytest.mark.parametrize("model, task, omega, amplitude, numerics", [
        # the former default M ceil(A) + 12 at a slow, strong drive
        ("honeycomb", "spectrum", 2.0, 3.0, {"n_k": 4, "M": 15}),
        ("honeycomb", "chern", 2.0, 3.0, {"Nk": 4, "M": 15}),
        # an explicit M too small for the drive
        ("dirac", "spectrum", 5.0, 1.0, {"M": 4, "n_k": 8}),
        # the former greens default M 17 at a slow drive, where it needs 26
        ("chain1d", "greens", 0.3, 1.0, {"M": 17, "n_k": 4, "nu_points": 21}),
    ])
    def test_truncation_certificate_warns_once(self, tmp_path, model, task, omega, amplitude,
                                               numerics):
        payload = {"model": model, "task": task, "output": str(tmp_path / "out"),
                   "drive": {"omega": omega, "amplitude": amplitude}, "numerics": numerics,
                   **({"bath": GREENS_BATH} if task == "greens" else {})}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.run_config(validate_config(payload))
        assert len(caught) == 1
        assert "numerics.M" in str(caught[0].message)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["edge_weight"] > cli.EDGE_WEIGHT_TOL
        assert f"{manifest['diagnostics']['edge_weight']:.1e}" in str(caught[0].message)
        # an explicit M is never raised
        assert manifest["diagnostics"]["m_raises"] == 0
        assert manifest["numerics"]["M"] == numerics["M"]

    def test_a_window_without_eigenpairs_runs(self, tmp_path):
        # at omega 0.3, M 3 the windowed solve finds no eigenpair in (-omega, omega] at some
        # k; the full solve takes over, and the truncation shows as an edge-weight warning
        payload = spectrum_config(tmp_path, model="honeycomb",
                                  drive={"omega": 0.3, "amplitude": 1.0},
                                  numerics={"M": 3, "n_k": 16})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path, payload)]) == 0
        assert any("edge blocks |m| = M = 3" in str(w.message) for w in caught)
        assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + 2 * 16

    def spectrum_at(self, tmp_path, name, **numerics):
        """The spectrum.csv table and manifest of a honeycomb spectrum run at omega 8, A 1."""
        payload = spectrum_config(tmp_path, model="honeycomb", output=str(tmp_path / name),
                                  drive={"omega": 8.0, "amplitude": 1.0},
                                  numerics={"n_k": 64, **numerics})
        cli.run_config(validate_config(payload))
        return (np.loadtxt(tmp_path / name / "spectrum.csv", delimiter=",", skiprows=1),
                json.loads((tmp_path / name / "manifest.json").read_text()))

    def test_an_explicit_small_cutoff_warns_or_is_exact(self, tmp_path):
        # with the lattice modes cut at M - 2, M 7 ran silently 1.6e-9 off M 20: the
        # harmonics past M - 2 were dropped where no edge block could see them
        (wide, _) = self.spectrum_at(tmp_path, "wide", M=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (small, manifest) = self.spectrum_at(tmp_path, "small", M=7)
        error = np.max(np.abs(fq.fold_to_bz(small[:, 3] - wide[:, 3], 8.0)))
        assert any("raise numerics.M" in str(w.message) for w in caught) or error < 1e-12
        assert manifest["numerics"]["M"] == 7 and manifest["diagnostics"]["m_raises"] == 0

    def test_a_failing_default_cutoff_is_raised_silently(self, tmp_path, monkeypatch):
        # from a default of 4 at omega 8, A 1 the run raises M until the certificate
        # holds; the warnings of the solves it discards, here one per k, reach nobody
        raw = {"model": "honeycomb", "task": "spectrum", "drive": {"omega": 8.0, "amplitude": 1.0},
               "numerics": {"n_k": 8}}
        physical_band = fq.sambe.physical_band

        def warns_at_4(modes, m_cut):
            if m_cut == 4:
                warnings.warn("replica identification is ambiguous", UserWarning)
            return physical_band(modes, m_cut)

        monkeypatch.setattr(fq.sambe, "physical_band", warns_at_4)
        monkeypatch.setattr(cli, "default_replica_cutoff", lambda *args: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.run_config(validate_config({**raw, "output": str(tmp_path / "raised")}))
        manifest = json.loads((tmp_path / "raised" / "manifest.json").read_text())
        # 4, 6, 8, ...: each raise adds a quarter of M, at least 2 blocks
        m_cut, raises = manifest["numerics"]["M"], manifest["diagnostics"]["m_raises"]
        assert raises >= 1 and manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL
        expected = 4
        for _ in range(raises):
            expected += max(2, expected // 4)
        assert m_cut == expected
        # the same M given explicitly fails the certificate
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.run_config(validate_config(
                {**raw, "numerics": {"n_k": 8, "M": 4}, "output": str(tmp_path / "explicit")}))
        assert sum("raise numerics.M" in str(w.message) for w in caught) == 1
        cli.run_config(validate_config({**raw, "numerics": {"n_k": 8, "M": m_cut + 15},
                                        "output": str(tmp_path / "wide")}))
        raised, wide = (np.loadtxt(tmp_path / name / "spectrum.csv", delimiter=",", skiprows=1)
                        for name in ("raised", "wide"))
        assert np.max(np.abs(fq.fold_to_bz(raised[:, 3] - wide[:, 3], 8.0))) < 1e-12

    def test_raising_stops_at_the_memory_bound(self, tmp_path, monkeypatch):
        # with no M that fits, the default M is kept and warns, as an explicit one does
        monkeypatch.setattr(cli, "default_replica_cutoff", lambda *args: 4)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * 16 * (2 * (2 * 4 + 1)) ** 2)
        payload = spectrum_config(tmp_path, model="honeycomb", numerics={"n_k": 2},
                                  drive={"omega": 2.0, "amplitude": 2.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.run_config(validate_config(payload))
        assert sum("raise numerics.M" in str(w.message) for w in caught) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["numerics"]["M"] == 4 and manifest["diagnostics"]["m_raises"] == 0

    def greens_at(self, tmp_path, name, omega, amplitude, **numerics):
        """greens.csv as a table, and the manifest, of a chain1d greens run."""
        payload = {"model": "chain1d", "task": "greens", "output": str(tmp_path / name),
                   "drive": {"omega": omega, "amplitude": amplitude}, "bath": GREENS_BATH,
                   "numerics": {"n_k": 4, "nu_points": 21, **numerics}}
        cli.run_config(validate_config(payload))
        return (np.loadtxt(tmp_path / name / "greens.csv", delimiter=",", skiprows=1),
                json.loads((tmp_path / name / "manifest.json").read_text()))

    def test_greens_default_cutoff_follows_a_slow_drive(self, tmp_path):
        # ceil(A) + 16 = 17 left an edge weight of 1e-9 at omega 0.3, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default, manifest = self.greens_at(tmp_path, "default", 0.3, 1.0)
        m_cut = manifest["numerics"]["M"]
        assert m_cut >= cli.default_replica_cutoff(0.3, 1.0, 2.0) == 26
        assert manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL
        assert len(default) == 4 * 21 * (2 * m_cut + 1)
        wide, _ = self.greens_at(tmp_path, "wide", 0.3, 1.0, M=m_cut + 15)
        # the rows of zone n = 0, nu_unfolded in [-omega/2, omega/2), in the order of the file

        def zone0(table):
            return table[(table[:, 0] >= -0.15) & (table[:, 0] < 0.15)]

        assert len(zone0(default)) == 4 * 21
        assert np.max(np.abs(zone0(default) - zone0(wide))) < 1e-12

    def test_spectrum_default_cutoff_follows_a_slow_drive(self, tmp_path):
        # omega 0.3 needs M about 27, which ceil(A) + 12 missed; the picks there also warn
        # of ambiguous replicas at a converged M, which is not what this checks
        path = write_config(tmp_path, {
            "model": "honeycomb", "task": "spectrum", "output": str(tmp_path / "out"),
            "drive": {"omega": 0.3, "amplitude": 1.0}, "numerics": {"n_k": 8}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", path]) == 0
        assert not [w for w in caught
                    if str(w.message).startswith("the physical band has Fourier weight")]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL

    def test_a_failing_greens_default_cutoff_is_raised_before_writing(self, tmp_path,
                                                                      monkeypatch):
        # at omega 5, A 1 the default 4 fails, and 4 -> 6 -> 8 passes; greens.csv is written
        # once, at the certified M, so it holds the bytes of that M given explicitly
        monkeypatch.setattr(cli, "default_replica_cutoff", lambda *args: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raised, manifest = self.greens_at(tmp_path, "raised", 5.0, 1.0)
        assert manifest["numerics"]["M"] == 8 and manifest["diagnostics"]["m_raises"] == 2
        assert manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL
        self.greens_at(tmp_path, "explicit", 5.0, 1.0, M=8)
        assert ((tmp_path / "raised" / "greens.csv").read_bytes()
                == (tmp_path / "explicit" / "greens.csv").read_bytes())

    def test_greens_raising_stops_at_the_memory_bound(self, tmp_path, monkeypatch):
        # greens sizes its nu_points G^R columns of D x D: 21 of them fit at M 4 (D 9) and
        # not at M 6 (D 13), so the default M 4 is kept and warns
        monkeypatch.setattr(cli, "default_replica_cutoff", lambda *args: 4)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * 16 * 21 * 9 ** 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table, manifest = self.greens_at(tmp_path, "out", 5.0, 1.0)
        assert sum("raise numerics.M" in str(w.message) for w in caught) == 1
        assert manifest["numerics"]["M"] == 4 and manifest["diagnostics"]["m_raises"] == 0
        assert len(table) == 4 * 21 * 9

    @pytest.mark.parametrize("model, omega", [("honeycomb", 0.5), ("dirac", 0.3)])
    def test_greens_passes_on_no_replica_warning(self, tmp_path, model, omega):
        # the physical band's picks are ambiguous at these slow drives (w0 < 0.5 at some
        # k), but greens picks no replicas: its certificate pass only reads their weights
        payload = {"model": model, "task": "greens", "output": str(tmp_path / "out"),
                   "drive": {"omega": omega, "amplitude": 1.0}, "bath": GREENS_BATH,
                   "numerics": {"n_k": 4, "nu_points": 21}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.run_config(validate_config(payload))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["edge_weight"] <= cli.EDGE_WEIGHT_TOL

    def test_greens_and_spectrum_certify_alike(self, tmp_path, monkeypatch):
        # one rule and one certificate: the same drive and k line, raised from the same M
        monkeypatch.setattr(cli, "default_replica_cutoff", lambda *args: 4)
        base = {"model": "chain1d", "drive": {"omega": 5.0, "amplitude": 1.0},
                "numerics": {"n_k": 4}}
        runs = {"spectrum": {}, "greens": {"bath": GREENS_BATH, "numerics": {"n_k": 4,
                                                                          "nu_points": 21}}}
        reports = []
        for task, extra in runs.items():
            cli.run_config(validate_config({**base, "task": task, "output": str(tmp_path / task),
                                            **extra}))
            manifest = json.loads((tmp_path / task / "manifest.json").read_text())
            reports.append((manifest["numerics"]["M"], manifest["diagnostics"]["edge_weight"],
                            manifest["diagnostics"]["m_raises"]))
        assert reports[0] == reports[1]
        assert reports[0][2] == 2

    def test_spectrum_records_its_weakest_pick(self, tmp_path):
        # at omega 1 the picks' central weights fall to about 0.27, yet U0 stays unitary
        path = write_config(tmp_path, {
            "model": "honeycomb", "task": "spectrum", "output": str(tmp_path / "out"),
            "drive": {"omega": 1.0, "amplitude": 1.0}, "numerics": {"n_k": 8}})
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "weakest central Fourier weight", UserWarning)
            assert main(["run", path]) == 0
        table = np.loadtxt(tmp_path / "out" / "spectrum.csv", delimiter=",", skiprows=1)
        diagnostics = json.loads((tmp_path / "out" / "manifest.json").read_text())["diagnostics"]
        assert float("%.12g" % diagnostics["weight0_min"]) == table[:, 4].min() < 0.5
        assert diagnostics["selection_error"] < 1e-8

    def test_a_duplicate_pick_reads_a_selection_error_of_order_one(self, tmp_path, monkeypatch):
        solve = fq.sambe.physical_band

        def duplicate(modes, m_cut):
            # state 1 becomes state 0 shifted one block up: two replicas of one state
            sol = solve(modes, m_cut)
            vectors = sol.vectors.copy()
            vectors[:, 1] = np.roll(vectors[:, 0], sol.dim)
            return replace(sol, vectors=vectors)

        monkeypatch.setattr(cli.sambe, "physical_band", duplicate)
        payload = {"model": "honeycomb", "task": "spectrum", "output": str(tmp_path / "out"),
                   "drive": {"omega": 8.0, "amplitude": 1.0}, "numerics": {"n_k": 4}}
        cli.run_config(validate_config(payload))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["selection_error"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("gamma, n_k, bound", [(1e-3, 64, None), (0.05, 4, 1e-6)],
                             ids=["gamma-1e-3", "benchmark-shaped"])
    def test_greens_records_its_resolution(self, tmp_path, gamma, n_k, bound):
        # at gamma 1e-3 the Lorentzians are narrower than the 401 nu points' spacing 0.0125:
        # the point sum misses most of them at some k and overcounts them at others
        payload = {"model": "chain1d", "task": "greens", "output": str(tmp_path / "out"),
                   "drive": {"omega": 5.0, "amplitude": 1.0},
                   "bath": {"gamma": gamma, "beta": 20.0}, "numerics": {"n_k": n_k}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.run_config(validate_config(payload))
        resolution = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["diagnostics"]["resolution"]
        assert resolution > 1.0 if bound is None else resolution < bound

    def test_custom_modes_keep_their_selection_margin(self, tmp_path):
        # only the lattice modes fill to 2M: a given harmonic h still needs M >= h + 2
        triples = [[0, [[0.3]], [[0.0]]], [3, [[0.2]], [[0.0]]], [-3, [[0.2]], [[0.0]]]]
        payload = spectrum_config(tmp_path, model="custom", custom_modes=triples,
                                  numerics={"n_k": 2, "M": 4})
        with pytest.raises(ConfigError, match="^numerics.M: must be >= 5 for the 'custom'"):
            validate_config(payload)
        payload["numerics"] = {"n_k": 2}
        assert validate_config(payload).m_cut == 5


    def test_curvature_rows_i_outer_j_inner(self, tmp_path):
        nk = 6
        drive = fq.DriveProtocol(omega=10.0, amplitude=1.0, polarization="circular")
        payload = {"model": "honeycomb",
                   "drive": {"omega": 10.0, "amplitude": 1.0, "polarization": "circular"},
                   "task": "chern", "output": str(tmp_path / "out"),
                   "numerics": {"Nk": nk, "M": 8}, "write_curvature": True}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        solver = fq.floquet_band_solver(
            lambda kx, ky: fq.honeycomb_modes(kx, ky, 1.0, drive, 16), 8)
        grid = fq.band_grid(solver, nk)
        for band in range(2):
            flux = fq.berry_curvature_grid(grid, band).flux
            lines = (tmp_path / "out" / f"curvature_band{band}.csv").read_text().splitlines()
            expected = []
            for i in range(nk):
                for j in range(nk):
                    kvec = ((i + 0.5) / nk) * grid.b1 + ((j + 0.5) / nk) * grid.b2
                    expected.append(f"{kvec[0]:.12g},{kvec[1]:.12g},{flux[i, j]:.12g}")
            assert lines[1:] == expected


def test_default_cutoff_contract():
    """A spectrum run at the default M warns, or is within 1e-11 of M + 15.

    40 seeded draws: chain1d or honeycomb, omega log-uniform in [0.5, 20],
    A uniform in [0, 8] and one k uniform in the zone, solved as
    task_spectrum solves, through _certified.
    """
    rng = np.random.default_rng(2026)
    for _ in range(40):
        model = ("chain1d", "honeycomb")[rng.integers(2)]
        omega, amplitude = float(np.exp(rng.uniform(np.log(0.5), np.log(20.0)))), rng.uniform(0, 8)
        kx, ky = rng.uniform(-math.pi, math.pi, 2) * (1, model == "honeycomb")
        cfg = validate_config({"model": model, "task": "spectrum", "output": "unused",
                               "drive": {"omega": omega, "amplitude": float(amplitude)}})

        def solve(cfg):
            band = fq.physical_band(cli._modes(cfg, kx, ky), cfg.m_cut)
            return band, fq.sambe.fourier_weights(band.vectors, band.dim)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            used, band, _ = cli._certified(cfg, solve)
            wide = replace(used, numerics={**used.numerics, "M": used.m_cut + 15})
            reference = fq.physical_band(cli._modes(wide, kx, ky), wide.m_cut)
        error = np.max(np.abs(fq.fold_to_bz(band.quasienergies - reference.quasienergies,
                                            omega)))
        draw = f"{model} omega={omega:.3f} A={amplitude:.3f} k=({kx:.3f}, {ky:.3f})"
        assert error < 1e-11 or any("raise numerics.M" in str(w.message) for w in caught), draw


# (model, task, --param) of a numeric setting the run does not read
UNREAD_PARAMS = [
    ("dirac", "spectrum", "numerics.nu_points"), ("dirac", "spectrum", "numerics.tol"),
    ("dirac", "spectrum", "bath.gamma"), ("dirac", "hfe", "numerics.M"),
    ("dirac", "greens", "lindblad.gamma"), ("dirac", "ness", "numerics.n_max"),
    ("dirac", "ness", "lindblad.k"), ("dirac", "spectrum", "numerics.n_max"),
    ("custom", "spectrum", "drive.amplitude")]


class TestSweep:
    def test_amplitude_sweep_crosses_bessel_root(self, tmp_path):
        payload = {
            "model": "chain1d",
            "drive": {"omega": 8.0, "amplitude": 1.0},
            "task": "hfe",
            "output": str(tmp_path / "sweep"),
        }
        path = write_config(tmp_path, payload)
        values = "2.0,2.404825557695773,3.0"
        assert main(["sweep", path, "--param", "drive.amplitude", "--values", values]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "value,summary_metric"
        metrics = [float(line.split(",")[1]) for line in rows[1:]]
        assert metrics[0] > 0.0
        assert abs(metrics[1]) < 1e-12
        assert metrics[2] < 0.0
        assert (tmp_path / "sweep" / "amplitude_2" / "hfe.json").exists()

    def test_omega_sweep_matches_gap_formula(self, tmp_path):
        payload = {
            "model": "dirac",
            "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
            "task": "hfe",
            "output": str(tmp_path / "sweep"),
            "summary_metric": "dirac_gap",
        }
        path = write_config(tmp_path, payload)
        assert main(["sweep", path, "--param", "drive.omega",
                     "--values", "5.0,7.5,10.0"]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        for line in rows[1:]:
            omega, gap = (float(v) for v in line.split(","))
            assert gap == pytest.approx(np.sqrt(omega**2 + 4.0) - omega, abs=1e-6)

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
    def test_output_that_cannot_be_a_directory_is_config_error(self, tmp_path, capsys, nested):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        output = taken / "sweep" if nested else taken
        payload = spectrum_config(tmp_path, task="hfe", output=str(output))
        path = write_config(tmp_path, payload)
        assert main(["sweep", path, "--param", "drive.amplitude", "--values", "0.5,1"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: output: cannot create directory {output}: ")
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
        with pytest.raises(ConfigError, match="^output: "):
            cli.run_sweep(payload, "drive.amplitude", [0.5, 1.0])

    def test_empty_values_rejected(self, tmp_path):
        path = write_config(tmp_path, spectrum_config(tmp_path))
        assert main(["sweep", path, "--param", "drive.amplitude", "--values", ""]) == 2

    @pytest.mark.parametrize("values", ["0.5,,1.0", "0.5,1.0,", ",0.5", "0.5, ,1.0"])
    def test_empty_value_item_rejected(self, tmp_path, capsys, values):
        path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
        assert main(["sweep", path, "--param", "drive.amplitude", "--values", values]) == 2
        assert capsys.readouterr().err.startswith("config error: --values: ")
        assert not (tmp_path / "out").exists()

    def test_failed_sweep_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        (tmp_path / "kept").mkdir()
        root = tmp_path / "kept" / "made" / "sweep"
        raw = spectrum_config(tmp_path, task="hfe", output=str(root))

        def broken(*args, **kwargs):
            assert root.is_dir()
            raise OSError("no worker could start")

        monkeypatch.setattr(cli, "_in_workers", broken)
        with pytest.raises(OSError, match="no worker could start"):
            cli.run_sweep(raw, "drive.amplitude", [0.5, 1.0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert not any((tmp_path / "kept").iterdir())

    def test_values_sharing_a_directory_rejected(self, tmp_path):
        path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
        assert main(["sweep", path, "--param", "drive.amplitude",
                     "--values", "0.5,0.5,0.50000000001"]) == 2
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="--values"):
            cli.run_sweep(spectrum_config(tmp_path, task="hfe"), "drive.amplitude", [1.0, 1.0])

    @pytest.mark.parametrize("values", ["nan,inf", "0.5,1e400", "0.5,-inf"])
    def test_non_finite_values_rejected(self, tmp_path, capsys, values):
        path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
        assert main(["sweep", path, "--param", "drive.amplitude", "--values", values]) == 2
        assert "--values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="--values"):
            cli.run_sweep(spectrum_config(tmp_path, task="hfe"), "drive.amplitude",
                          [0.5, math.nan])

    @pytest.mark.parametrize("param", ["drive.amplitud", "numerics.n_steps", "amplitude",
                                       "lindblad.k.0", "drive.omega.x",
                                       # known keys that are not numeric settings
                                       "output", "model", "task", "drive.polarization",
                                       "custom_modes", "lindblad.k", "summary_metric",
                                       "write_curvature", "drive", "numerics"])
    def test_unknown_param_rejected_before_any_output(self, tmp_path, capsys, param):
        path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
        assert main(["sweep", path, "--param", param, "--values", "1,2,3"]) == 2
        assert param in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="--param"):
            cli.run_sweep(spectrum_config(tmp_path, task="hfe"), param, [1.0, 2.0])

    @pytest.mark.parametrize("model, task, param", UNREAD_PARAMS, ids=[
        f"{task}-{param}" if model == "dirac" else f"{model}-{task}-{param}"
        for model, task, param in UNREAD_PARAMS])
    def test_param_the_task_does_not_read_rejected(self, tmp_path, capsys, model, task, param):
        # each value would repeat one run
        payload = spectrum_config(
            tmp_path, model=model, task=task,
            **({"custom_modes": SETTING_VALUES["custom_modes"]} if model == "custom" else {
                "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"}}),
            **{"greens": {"bath": {"gamma": 0.1}},
               "ness": {"lindblad": {"gamma": 0.4}}}.get(task, {}))
        path = write_config(tmp_path, payload)
        assert main(["sweep", path, "--param", param, "--values", "5,9"]) == 2
        assert f"--param: must name a numeric setting the {task!r} task reads" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [0, -1, 2.5, "2", True])
    def test_library_worker_count_is_a_config_error(self, tmp_path, workers):
        with pytest.raises(ConfigError, match="^workers: "):
            cli.run_sweep(spectrum_config(tmp_path, task="hfe"), "drive.omega", [8.0, 9.0],
                          workers=workers)
        assert not (tmp_path / "out").exists()

    def test_failures_recorded_not_fatal(self, tmp_path):
        payload = {
            "model": "dirac",
            "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
            "task": "hfe",
            "output": str(tmp_path / "sweep"),
            "summary_metric": "dirac_gap",
        }
        path = write_config(tmp_path, payload)
        # amplitude -1 fails validation inside that one run
        assert main(["sweep", path, "--param", "drive.amplitude",
                     "--values", "0.5,-1.0"]) == 0
        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header plus the surviving value

    # at M 6 amplitude 3.0 leaves an edge weight of 6e-7 and warns; 0.5 does not
    EDGE_WARNING_SWEEP = {"model": "honeycomb", "numerics": {"n_k": 8, "M": 6}}

    def test_worker_warnings_reach_the_caller(self, tmp_path):
        raw = spectrum_config(tmp_path, **self.EDGE_WARNING_SWEEP)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, failures = cli.run_sweep(raw, "drive.amplitude", [0.5, 3.0], workers=2)
        assert sorted(results) == [0.5, 3.0] and not failures
        assert len(caught) == 1
        (warning,) = caught
        assert warning.category is UserWarning
        assert "= M = 6" in str(warning.message) and "raise numerics.M" in str(warning.message)
        # stacklevel 3 names the task runner's call in run_config
        assert warning.filename == cli.__file__
        with open(cli.__file__) as handle:
            lines = handle.read().splitlines()
        assert "TASK_RUNNERS[cfg.task](cfg, outdir)" in lines[warning.lineno - 1]

    def test_worker_error_filter_fails_only_that_value(self, tmp_path):
        raw = spectrum_config(tmp_path, **self.EDGE_WARNING_SWEEP)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            results, failures = cli.run_sweep(raw, "drive.amplitude", [0.5, 3.0], workers=2)
        assert not caught
        assert sorted(results) == [0.5]
        assert list(failures) == [3.0] and "raise numerics.M" in failures[3.0]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert list(manifest["failures"]) == ["3.0"]

    def test_dead_worker_recorded_not_fatal(self, tmp_path, monkeypatch):
        run_config = cli.run_config

        def dies_at_one(cfg):
            if cfg.raw["drive"]["amplitude"] == 1.0:
                os._exit(1)  # a worker killed, say out of memory
            return run_config(cfg)

        monkeypatch.setattr(cli, "run_config", dies_at_one)  # fork carries the patch over
        values = [0.5, 1.0, 1.5, 2.0, 2.5]
        for workers in (1, 2):
            root = tmp_path / f"workers_{workers}"
            raw = spectrum_config(tmp_path, task="hfe", output=str(root))
            results, failures = cli.run_sweep(raw, "drive.amplitude", values, workers=workers)
            # the pool breaks, and the values after the dead one run alone
            assert list(failures) == [1.0] and "terminated abruptly" in failures[1.0]
            assert list(results) == [0.5, 1.5, 2.0, 2.5]
            manifest = json.loads((root / "manifest.json").read_text())
            assert list(manifest["failures"]) == ["1.0"]
            rows = (root / "sweep.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + len(results)

    @pytest.mark.parametrize("task, extra", [("spectrum", {}),
                                             ("greens", {"bath": {"gamma": 0.1},
                                                         "numerics": {"n_k": 4}})])
    def test_worker_count_does_not_change_outputs(self, tmp_path, task, extra):
        values = [0.5, 1.0, 1.5]
        written = []
        for workers in (1, 2):
            root = tmp_path / f"workers_{workers}"
            raw = spectrum_config(tmp_path, task=task, output=str(root), **extra)
            results, failures = cli.run_sweep(raw, "drive.amplitude", values, workers=workers)
            assert sorted(results) == values and not failures
            written.append({path.relative_to(root): path.read_bytes()
                            for path in root.glob(f"*/{task}.csv")})
        assert len(written[0]) == len(values)
        assert written[0] == written[1]



class TestTaskWorkers:
    """greens k-points and chern grid rows in FLOQUET_WORKERS forked processes."""

    GREENS = {"model": "chain1d", "task": "greens", "bath": {"gamma": 0.05, "beta": 20.0},
              "drive": {"omega": 5.0, "amplitude": 1.0}, "numerics": {"n_k": 6, "nu_points": 21}}
    # omega 2 warns of ambiguous replicas at 17 grid points, with 2 distinct messages
    CHERN = {"model": "honeycomb", "task": "chern", "drive": {"omega": 2.0, "amplitude": 1.0},
             "numerics": {"Nk": 8}, "write_curvature": True}

    def run(self, tmp_path, monkeypatch, raw, workers, action="always"):
        """Files and manifest diagnostics of one `floquet run --output`, and its warnings."""
        monkeypatch.setenv("FLOQUET_WORKERS", str(workers))
        out = tmp_path / f"workers_{workers}_{action}"
        assert validate_config({**raw, "output": str(out)}).workers == workers
        path = write_config(tmp_path, {**raw, "output": str(tmp_path / "unused")})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["run", path, "--output", str(out)]) == 0
        assert not (tmp_path / "unused").exists()
        files = {path.name: path.read_bytes() for path in out.iterdir()
                 if path.name != "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        return files, manifest.get("diagnostics"), [
            (w.category, str(w.message), w.filename, w.lineno) for w in caught]

    @pytest.mark.parametrize("raw", [GREENS, CHERN], ids=["greens", "chern"])
    def test_worker_count_does_not_change_outputs_or_warnings(self, tmp_path, monkeypatch, raw):
        serial, parallel = (self.run(tmp_path, monkeypatch, raw, workers) for workers in (1, 2))
        assert sorted(serial[0]) == sorted(
            {"greens": ["greens.csv"],
             "chern": ["chern.json", "curvature_band0.csv", "curvature_band1.csv"]}[raw["task"]])
        assert serial == parallel
        if raw["task"] == "chern":
            assert len(serial[2]) == 17
            assert {filename for _, _, filename, _ in serial[2]} == {fq.topology.__file__}

    def test_default_filter_shows_each_warning_once_as_a_serial_run(self, tmp_path, monkeypatch):
        serial, parallel = (self.run(tmp_path, monkeypatch, self.CHERN, workers, "default")
                            for workers in (1, 2))
        assert len(serial[2]) == 2
        assert serial[2] == parallel[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_filter_fails_the_run_as_a_serial_run(self, tmp_path, monkeypatch, capsys,
                                                         workers):
        monkeypatch.setenv("FLOQUET_WORKERS", str(workers))
        path = write_config(tmp_path, {**self.CHERN, "output": str(tmp_path / "out")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: weakest central Fourier weight")
        assert not (tmp_path / "out").exists()

    def test_dead_worker_is_a_solver_error(self, tmp_path, monkeypatch, capsys):
        greens_rows = cli._greens_rows

        def dies_at_third_k(cfg, nu, nu_cells, item):
            if item[1] == cli._k_grid(cfg)[2]:
                os._exit(1)  # a worker killed, say out of memory
            return greens_rows(cfg, nu, nu_cells, item)

        monkeypatch.setattr(cli, "_greens_rows", dies_at_third_k)  # fork carries the patch
        monkeypatch.setenv("FLOQUET_WORKERS", "2")
        path = write_config(tmp_path, {**self.GREENS, "output": str(tmp_path / "a" / "out")})
        assert main(["run", path]) == 3
        assert "terminated abruptly" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()    # greens.csv.tmp removed, then both directories

    def test_greens_item_sends_back_only_its_scalars(self, tmp_path):
        # the item of k index 3, as task_greens makes it
        cfg = validate_config({**self.GREENS, "output": str(tmp_path / "out")})
        omega, ks = cfg.drive.omega, cli._k_grid(cfg)
        nu = np.linspace(-0.5 * omega, 0.5 * omega, cfg.numerics["nu_points"], endpoint=False)
        nu_cells = cli._leading_cells(fq.open_system.unfolded_axis(nu, cfg.m_cut, omega))
        k_cell = tuple(cells[3:4] for cells in cli._leading_cells(ks))
        item = (str(tmp_path / "3.csv"), ks[3], k_cell)
        result = cli._greens_rows(cfg, nu, nu_cells, item)
        assert len(pickle.dumps(result)) < 1024
        grid = fq.open_system.floquet_greens(cli._modes(cfg, item[1]), cfg.bath, cfg.m_cut, nu)
        _, spec = fq.open_system.spectral_function(grid)
        _, occ = fq.open_system.occupation_function(grid)
        rows = b"".join(cli._csv_blocks(np.column_stack((spec, occ)), (nu_cells, item[2])))
        assert (tmp_path / "3.csv").read_bytes() == rows
        spectral_sum = spec.sum() * (omega / nu.size) / grid.dim
        # the exact zone integral of the Lorentzians that A samples, one per eigenvalue
        zone = np.sum(np.arctan((0.5 * omega - grid.energies) / 0.05)
                      - np.arctan((-0.5 * omega - grid.energies) / 0.05)) / (np.pi * grid.dim)
        assert result == (spec.max(), spectral_sum, np.max(occ - spec),
                          abs(spectral_sum - zone))

    def test_greens_leaves_only_its_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOQUET_WORKERS", "2")
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, {**self.GREENS, "output": str(out)})]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["greens.csv", "manifest.json"]

    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    def test_failed_greens_item_leaves_nothing(self, tmp_path, monkeypatch, capsys, existing):
        greens_rows = cli._greens_rows

        def fails_at_third_k(cfg, nu, nu_cells, item):
            result = greens_rows(cfg, nu, nu_cells, item)   # its part is written
            if item[1] == cli._k_grid(cfg)[2]:
                raise ValueError("third k fails")
            return result

        monkeypatch.setattr(cli, "_greens_rows", fails_at_third_k)  # fork carries the patch
        monkeypatch.setenv("FLOQUET_WORKERS", "2")
        out = tmp_path / "a" / "out"
        if existing:
            out.mkdir(parents=True)
        assert main(["run", write_config(tmp_path, {**self.GREENS, "output": str(out)})]) == 3
        assert capsys.readouterr().err == "solver error: third k fails\n"
        if existing:    # no part, no part directory and no greens.csv.tmp
            assert list(out.iterdir()) == []
        else:
            assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("raw", [
        GREENS, CHERN,
        {"model": "chain1d", "task": "spectrum", "drive": {"omega": 8.0, "amplitude": 1.0},
         "numerics": {"n_k": 4}},
        {"model": "chain1d", "task": "hfe", "drive": {"omega": 8.0, "amplitude": 1.0}},
        {"model": "dirac", "task": "ness", "lindblad": {"gamma": 0.4},
         "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"}},
    ], ids=["greens", "chern", "spectrum", "hfe", "ness"])
    @pytest.mark.parametrize("text", ["0", "two"])
    def test_bad_worker_count_is_a_config_error(self, tmp_path, monkeypatch, capsys, raw, text):
        monkeypatch.setenv("FLOQUET_WORKERS", text)
        path = write_config(tmp_path, {**raw, "output": str(tmp_path / "out")})
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.startswith("config error: FLOQUET_WORKERS: ")
        assert not (tmp_path / "out").exists()

    def count_pools(self, pools, monkeypatch):
        """Append the pid of each process that starts a pool to the file `pools`."""
        pool_class = cli.concurrent.futures.ProcessPoolExecutor

        class CountingPool(pool_class):
            def __init__(self, *args, **kwargs):
                with open(pools, "a") as handle:   # seen from any process
                    handle.write(f"{os.getpid()}\n")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", CountingPool)

    @pytest.mark.parametrize("raw", [GREENS, CHERN], ids=["greens", "chern"])
    def test_one_worker_starts_no_pool(self, tmp_path, monkeypatch, raw):
        pools = tmp_path / "pools"
        self.count_pools(pools, monkeypatch)
        files, _, _ = self.run(tmp_path, monkeypatch, raw, 1)
        assert files and not pools.exists()

    def test_greens_sweep_starts_no_pool_in_its_workers(self, tmp_path, monkeypatch):
        pools = tmp_path / "pools"
        self.count_pools(pools, monkeypatch)
        monkeypatch.setenv("FLOQUET_WORKERS", "2")
        raw = {**self.GREENS, "output": str(tmp_path / "sweep")}
        results, failures = cli.run_sweep(raw, "drive.amplitude", [0.5, 1.0], workers=2)
        assert sorted(results) == [0.5, 1.0] and not failures
        assert pools.read_text().split() == [str(os.getpid())]

    def test_workers_run_blas_on_one_thread(self):
        try:
            with open("/proc/self/maps") as maps:
                paths = sorted({line.split(None, 5)[-1].strip()
                                for line in maps if "openblas" in line})
        except OSError:     # no maps file lists no library
            paths = []
        if not paths:
            pytest.skip("no OpenBLAS library is loaded")
        # a loaded OpenBLAS whose setter goes unfound keeps a BLAS thread per CPU in workers
        setters = cli._blas_thread_setters()
        assert setters, f"no thread-count setter found in {paths}"
        libraries = [ctypes.CDLL(path) for path in paths]
        getters = [getattr(library, name.replace("_set_", "_get_"))
                   for library in libraries for name in cli._BLAS_THREAD_SETTERS
                   if hasattr(library, name)]
        assert len(getters) == len(setters)
        for getter in getters:
            getter.argtypes, getter.restype = [], ctypes.c_int
        before = [getter() for getter in getters]
        try:
            for setter in setters:
                setter(2)
            assert [getter() for getter in getters] == [2] * len(getters)
            seen = list(cli._worker_map(lambda item: [getter() for getter in getters], [0, 1], 2))
            assert seen == [[1] * len(getters)] * 2
        finally:
            for setter, threads in zip(setters, before):
                setter(threads)

    def test_pool_never_outnumbers_the_cpus(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records its size and runs each item here: no process starts."""
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = cli.concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_worker_job", None)   # set here by the initializer
        monkeypatch.setattr(cli, "_blas_thread_setters", lambda: ())   # keep this BLAS as it is
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("FLOQUET_WORKERS", "64")
        payload = {**self.GREENS, "output": str(tmp_path / "out")}
        assert validate_config(payload).workers == 64
        assert main(["run", write_config(tmp_path, payload)]) == 0
        raw = spectrum_config(tmp_path, task="hfe", output=str(tmp_path / "sweep"))
        results, failures = cli.run_sweep(raw, "drive.amplitude", [0.5, 1.0, 1.5], workers=64)
        assert sorted(results) == [0.5, 1.0, 1.5] and not failures
        assert sizes == [2, 2]


@pytest.mark.parametrize("task, key, sizes", [("spectrum", "n_k", (8, 64)),
                                              ("chern", "Nk", (4, 24))])
def test_bessel_calls_do_not_grow_with_the_k_grid(tmp_path, monkeypatch, task, key, sizes):
    monkeypatch.setenv("FLOQUET_WORKERS", "1")
    calls = []

    def counted(*args):
        calls.append(args)
        return fq.bessel.bessel_j(*args)

    for module in (fq.models, fq.highfreq):
        monkeypatch.setattr(module, "bessel_j", counted)
    counts = []
    for size in sizes:
        for cached in vars(fq.models).values():     # each run starts with no factor cached
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        calls.clear()
        path = write_config(tmp_path, {
            "model": "honeycomb", "task": task, "output": str(tmp_path / f"{task}_{size}"),
            "drive": {"omega": 8.0, "amplitude": 1.0}, "numerics": {key: size}})
        assert main(["run", path]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_set_overrides_config(tmp_path):
    payload = {
        "model": "dirac",
        "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
        "task": "hfe",
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    assert main(["run", path, "--set", "drive.omega=10.0",
                 "--output", str(tmp_path / "other")]) == 0
    report = json.loads((tmp_path / "other" / "hfe.json").read_text())
    assert report["dirac_gap"] == pytest.approx(np.sqrt(104.0) - 10.0, abs=1e-12)
    assert main(["run", path, "--set", "not-an-assignment"]) == 2


def uncertified_ness_config(output):
    return {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "ness",
            "output": str(output), "lindblad": {"gamma": 0.1}, "numerics": {"tol": 1e-300}}


def test_uncertified_ness_is_a_solver_error(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, uncertified_ness_config(tmp_path / "out"))]) == 3
    assert capsys.readouterr().err.startswith("solver error: steady state not certified")
    assert not (tmp_path / "out").exists()


def test_failed_run_removes_only_the_directories_it_created(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    path = write_config(tmp_path, uncertified_ness_config(tmp_path / "a" / "b" / "unc"))
    assert main(["run", path]) == 3
    assert capsys.readouterr().err.startswith("solver error: steady state not certified")
    assert [p.name for p in (tmp_path / "a").iterdir()] == []   # b and unc are gone, a is not
    assert main(["run", path, "--output", str(tmp_path / "a")]) == 3
    assert (tmp_path / "a").is_dir()


def test_validate_takes_set_and_output(tmp_path, capsys):
    path = write_config(tmp_path, spectrum_config(tmp_path))
    assert main(["validate", path, "--set", "numerics.n_k=8"]) == 0
    assert main(["validate", path, "--set", "numerics.n_k=0"]) == 2
    assert capsys.readouterr().err.startswith("config error: numerics.n_k: must be positive")
    assert main(["validate", path, "--output", path]) == 2
    assert "output: cannot create directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def ness_at_steps(tmp_path, steps):
    return {"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "ness",
            "output": str(tmp_path / "out"), "lindblad": {"gamma": 0.1},
            "numerics": {"steps_per_period": steps}}


def test_coarse_steps_per_period_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, ness_at_steps(tmp_path, 8))
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: numerics.steps_per_period: 8 is too few: step 0.1571 too large "
            "for stability: step (max |H| + sum |L|^2) = 0.173 >= 0.1")
    assert not (tmp_path / "out").exists()
    # the check is find_ness's own: 256 steps, the default, pass both
    cfg = validate_config(ness_at_steps(tmp_path, 256))
    assert fq.find_ness(cfg.lindblad, 5.0, steps_per_period=256).residual < 1e-9
    results, failures = cli.run_sweep(ness_at_steps(tmp_path, 256), "numerics.steps_per_period",
                                      [8.0, 256.0], workers=1)
    assert list(results) == [256.0]
    assert failures[8.0].startswith("numerics.steps_per_period: 8 is too few")
    assert not (tmp_path / "out" / "steps_per_period_8").exists()



def test_coarse_steps_error_names_the_fewest_that_pass(tmp_path, capsys):
    assert main(["validate", write_config(tmp_path, ness_at_steps(tmp_path, 8))]) == 2
    message = capsys.readouterr().err
    assert "; the fewest that pass are " in message
    fewest = int(message.rsplit(" ", 1)[1])
    validate_config(ness_at_steps(tmp_path, fewest))
    with pytest.raises(ConfigError, match=f"^numerics.steps_per_period: {fewest - 1} is too few"):
        validate_config(ness_at_steps(tmp_path, fewest - 1))


@pytest.mark.parametrize("omega, amplitude, gamma, kx, estimate, fewest", [
    (1.0, 0.5, 0.1, 0.7, 85, 86),   # the estimate is too few: the search steps up
    (9.0, 1.0, 4.0, 0.0, 38, 37),   # one fewer than the estimate passes: it steps down
])
def test_fewest_steps_search_corrects_its_estimate(tmp_path, capsys, omega, amplitude, gamma, kx,
                                                   estimate, fewest):
    raw = {"model": "dirac", "drive": {"omega": omega, "amplitude": amplitude}, "task": "ness",
           "output": str(tmp_path / "out"), "lindblad": {"gamma": gamma, "k": [kx, 0.3]},
           "numerics": {"steps_per_period": 2}}
    assert main(["validate", write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.endswith(f"; the fewest that pass are {fewest}\n")
    system = validate_config({**raw, "numerics": {}}).lindblad
    period = 2.0 * math.pi / omega
    load = fq.open_system._rk4_load(system, 0.0, period, 2)[2]
    assert math.ceil(2 * load / fq.open_system.RK4_LOAD_LIMIT) == estimate

    def passes(n_steps):
        try:
            fq.open_system.rk4_samples(system, 0.0, period, period / n_steps)
        except ValueError:
            return False
        return True

    assert [passes(n) for n in range(fewest - 3, fewest + 4)] == [False] * 3 + [True] * 4


def test_ness_builds_one_lindblad_system(tmp_path, monkeypatch):
    built = []

    class Counted(fq.LindbladSystem):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(cli.open_system, "LindbladSystem", Counted)
    assert main(["run", write_config(tmp_path, ness_at_steps(tmp_path, 256))]) == 0
    assert len(built) == 1
    assert (tmp_path / "out" / "ness.csv").exists()


@pytest.mark.parametrize("payload, key, value, array", [
    ({"model": "dirac", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "ness",
      "lindblad": {"gamma": 0.1}}, "steps_per_period", 10 ** 12,
     "2000000000001 x 4 x 4 array (the Lindblad superoperators of the RK4 step maps)"),
    ({"model": "chain1d", "drive": {"omega": 8.0, "amplitude": 1.0}, "task": "spectrum"},
     "M", 10 ** 6, "2000001 x 2000001 array (the Sambe matrix)"),
    ({"model": "chain1d", "drive": {"omega": 8.0, "amplitude": 1.0}, "task": "spectrum"},
     "n_k", 10 ** 13, "10000000000000 x 19 x 1 array (the Fourier weights at every k)"),
    ({"model": "chain1d", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "greens",
      "bath": {"gamma": 0.05}}, "n_k", 10 ** 13,
     "10000000000000 x 21 x 1 array (the Fourier weights at every k)"),
    ({"model": "chain1d", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "greens",
      "bath": {"gamma": 0.05}}, "nu_points", 10 ** 12, "array (the G^R columns at one k)"),
    ({"model": "chain1d", "drive": {"omega": 5.0, "amplitude": 1.0}, "task": "greens",
      "bath": {"gamma": 0.05}}, "M", 10 ** 6, "2000001 x 2000001 array (the Sambe matrix)"),
    ({"model": "honeycomb", "drive": {"omega": 8.0, "amplitude": 1.0}, "task": "chern"},
     "Nk", 10 ** 9, "array (the eigenvectors over the grid)"),
], ids=["ness-steps_per_period", "spectrum-M", "spectrum-n_k", "greens-n_k", "greens-nu_points",
        "greens-M", "chern-Nk"])
def test_size_beyond_memory_is_a_config_error(tmp_path, capsys, payload, key, value, array):
    path = write_config(tmp_path, {**payload, "output": str(tmp_path / "out")})
    for command in ("validate", "run"):
        assert main([command, path, "--set", f"numerics.{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: numerics.{key}: {value} needs a ")
        assert f" {array} of " in err
        assert "more than this machine's" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_spectrum_n_k_is_sized_by_its_fourier_weights(tmp_path, monkeypatch):
    # chain1d at omega 8 (M 9, D 19): the weights of 1000 k take 152 kB, their eigenvectors
    # 304 kB; 200 KiB holds the first, which is all the run keeps
    monkeypatch.setattr(cli, "_physical_memory", lambda: 200 * 1024)
    path = write_config(tmp_path, spectrum_config(tmp_path, numerics={"n_k": 1000}))
    for command in ("validate", "run"):
        assert main([command, path]) == 0
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + 1000


def test_greens_n_k_is_sized_by_its_fourier_weights(tmp_path, capsys, monkeypatch):
    # chain1d at omega 5 (M 10, D 21): the k grid of 1024 k takes 8 kB and 11 G^R columns
    # 78 kB, but the certificate pass holds 172 kB of Fourier weights
    monkeypatch.setattr(cli, "_physical_memory", lambda: 128 * 1024)
    payload = {"model": "chain1d", "task": "greens", "output": str(tmp_path / "out"),
               "drive": {"omega": 5.0, "amplitude": 1.0}, "bath": GREENS_BATH,
               "numerics": {"n_k": 1024, "nu_points": 11}}
    path = write_config(tmp_path, payload)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            "config error: numerics.n_k: 1024 needs a 1024 x 21 x 1 array (the Fourier weights "
            "at every k) of 168 KiB, more than this machine's 128 KiB of memory\n")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("task", ["hfe", "spectrum"])
@pytest.mark.parametrize("harmonic, shown", [(10 ** 12, "1000000000000"), (1e300, "1e+300")],
                         ids=["1e12", "1e300"])
def test_custom_harmonic_beyond_memory_is_a_config_error(tmp_path, capsys, task, harmonic, shown):
    # sized before any integer cast and before the (2 n_max + 1, 1, 1) mode array exists
    triples = [[harmonic, [[0.3]], [[0.0]]], [-harmonic, [[0.3]], [[0.0]]]]
    path = write_config(tmp_path, spectrum_config(tmp_path, model="custom", task=task,
                                                  custom_modes=triples))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: custom_modes: harmonic {shown} needs a ")
            assert "(the Fourier modes)" in err and "more than this machine's" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_custom_harmonic_sized_at_the_least_replica_cutoff(tmp_path, capsys, monkeypatch):
    # in 1 MiB the modes of harmonic 1000 fit, the Sambe matrix at M = 1002 does not
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2.0 ** 20)
    triples = [[1000, [[0.1]], [[0.0]]], [-1000, [[0.1]], [[0.0]]]]
    payload = spectrum_config(tmp_path, model="custom", custom_modes=triples,
                              numerics={"n_k": 2, "M": 5000})
    path = write_config(tmp_path, payload)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: custom_modes: harmonic 1000 needs a 2005 x 2005 array "
            "(the Sambe matrix at M = 1002) of 61.3 MiB")
    assert os.listdir(tmp_path) == ["config.json"]
    # hfe reads no M: only the mode array is sized
    path = write_config(tmp_path, spectrum_config(tmp_path, model="custom", task="hfe",
                                                  custom_modes=triples))
    assert main(["validate", path]) == 0


@pytest.mark.parametrize("command", ["run", "validate"])
def test_empty_output_flag_is_a_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, spectrum_config(tmp_path))
    assert main([command, path, "--output", ""]) == 2
    assert capsys.readouterr().err == "config error: output: must be a non-empty path\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_truncated_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spectrum_config(tmp_path))[:-7])
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: invalid JSON")
    assert not (tmp_path / "out").exists()


def test_non_numeric_sweep_value_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
    assert main(["sweep", path, "--param", "drive.amplitude", "--values", "1,x"]) == 2
    assert capsys.readouterr().err.startswith("config error: --values: not numeric")
    assert not (tmp_path / "out").exists()


def test_sweep_values_equal_as_numbers_are_a_config_error(tmp_path, capsys):
    # -0 and 0 name two directories but one key of the results
    path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
    assert main(["sweep", path, "--param", "drive.amplitude", "--values=-0,0,1"]) == 2
    assert capsys.readouterr().err.startswith("config error: --values: values repeat")
    assert os.listdir(tmp_path) == ["config.json"]


def test_set_through_a_number_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
    assert main(["run", path, "--set", "drive.omega.x=1"]) == 2
    assert "drive.omega.x: path runs through a non-object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_set_keeps_text_that_is_not_json(tmp_path):
    path = write_config(tmp_path, spectrum_config(tmp_path, task="hfe"))
    output = tmp_path / "plain text"
    assert main(["run", path, "--set", f"output={output}"]) == 0
    assert (output / "hfe.json").exists()
    assert not (tmp_path / "out").exists()


def test_env_worker_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOQUET_WORKERS", "1")
    payload = {
        "model": "dirac",
        "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
        "task": "hfe",
        "output": str(tmp_path / "sweep"),
    }
    path = write_config(tmp_path, payload)
    assert main(["sweep", path, "--param", "drive.omega", "--values", "5.0,6.0"]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3


@pytest.mark.parametrize("text", ["two", "2.0", "0"])
def test_env_worker_count_is_a_config_error(tmp_path, monkeypatch, capsys, text):
    monkeypatch.setenv("FLOQUET_WORKERS", text)
    payload = {
        "model": "dirac",
        "drive": {"omega": 5.0, "amplitude": 1.0, "polarization": "circular"},
        "task": "hfe",
        "output": str(tmp_path / "sweep"),
    }
    path = write_config(tmp_path, payload)
    assert main(["sweep", path, "--param", "drive.omega", "--values", "5.0,6.0"]) == 2
    assert "FLOQUET_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
