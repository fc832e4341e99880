"""Configuration-driven command line: wire models to solvers, write files.

Subcommands:

    floquet run <config.json> [--output DIR]        execute one task
    floquet sweep <config.json> --param KEY --values V1,V2,...
    floquet validate <config.json> [--output DIR]   every config check; creates nothing

Each takes any number of --set KEY=VALUE overrides (dotted key, JSON value),
applied before validation.

A config is a JSON object:

    {
      "model": "chain1d" | "dirac" | "honeycomb" | "custom",
      "drive": {"omega": 8.0, "amplitude": 1.0, "polarization": "linear"},
      "task": "spectrum" | "hfe" | "chern" | "greens" | "ness",
      "output": "out_dir",
      "numerics": {"n_k": 64}          # and the other settings TASK_KEYS lists
    }

All numerics have defaults and every number must be finite; energies are
in units of the hopping (J = 1). A key the run does not read is a config
error that names it: TASK_KEYS lists the settings each task reads,
TASK_MODELS the models chern and ness run on, MODEL_KEYS the models some
settings are limited to, and a sweep's --param may name the numeric ones.
An empty section sets nothing. HFE_REPORT lists the closed forms hfe
reports per model. models.POLARIZATION gives the polarization each
built-in model is defined for, the default of drive.polarization, and
models.check_polarization, which every sampler and closed-form builder
calls, rejects any other.

The replica cutoff numerics.M is the only cutoff a run takes. The chain1d
and honeycomb modes are built in closed form with every harmonic up to
2M, all the Sambe matrix holds, so the edge blocks |m| = M are the only
truncation; hfe, which has no M, builds them up to
highfreq.bessel_tail_order(A). In every task that reads M (spectrum,
chern and greens), M defaults to default_replica_cutoff(omega, A, W),
which follows the drive, and at least the mode cutoff + 2; where that
default fails the truncation certificate, the run raises it (_certified).
The mode cutoff is 1 for dirac, the largest given harmonic for custom and
0 for chain1d and honeycomb; drive.amplitude may not exceed 50 where a
cutoff derives from it.

Exit codes: 0 success, 2 config/schema error, 3 solver error. Config
errors include an unreadable config file (one nested deeper than json
reads too, and so a --set value), an output directory that
cannot be created, a ness steps_per_period too coarse for RK4 stability
(open_system.rk4_samples, run at validation on the run's one
LindbladSystem, names the fewest steps that pass) and a size setting
for which the run needs one array larger than the machine's physical
memory (_check_sizes; a custom_modes harmonic is sized before its mode
array is built), all found before anything is made. A run or a sweep
that fails removes the output directories it created while they are still
empty (_output_dir). Outputs are deterministic for a fixed config and
written atomically (_atomic_file: temp + rename, and no .tmp file survives
a failed write), with a manifest.json recording the config hash, version,
the numerics the run read after defaults, and wall time.
For spectrum, chern and greens it also holds "diagnostics" (_certified):
"edge_weight", the physical band's largest Fourier weight in the edge
blocks |m| = M over all k; "m_raises", how often the run raised a default
M (its numerics.M is the M the run used); "weight0_min", the band's
smallest central weight; and "selection_error", its largest
|U0^dagger U0 - I|. Where the edge weight is above 1e-13 at an explicit M
or at the largest M that fits in memory, or the selection error above
SELECTION_TOL, the run warns once, naming numerics.M. greens certifies M
before it writes a row; its diagnostics add "spectral_sum",
"occupation_excess" and "resolution" (_greens_rows). For ness they are
{"gap": ..., "residual": ...}, as its summary prints them.

FLOQUET_WORKERS (default: the CPUs the process may use; checked for
every task) caps the forked worker processes (_in_workers, never more
than those CPUs) that run a sweep's values, greens's k-points (each
formatted as CSV text there by _csv_blocks, which assembles every CSV,
and written to a part file that is appended here in k order) and chern's
grid rows (matched here in one ordered pass). Outputs and warnings do
not depend on it. At 1 greens and chern fork nothing, and a sweep's
values share one forked worker (a pool each only once a worker dies).
spectrum stays serial: a pool item costs more than its solve per k.
"""

import argparse
import collections
import concurrent.futures
import contextlib
import copy
import ctypes
import functools
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import highfreq, models, open_system, sambe, topology

# the keys of each model's hfe.json: its closed forms, then the norm of the
# commutator correction; the first is the default summary_metric
HFE_REPORT = {"chain1d": ("J_eff", "correction_norm"), "dirac": ("dirac_gap", "correction_norm"),
              "honeycomb": ("J_eff", "K_eff", "correction_norm"), "custom": ("correction_norm",)}
MODELS = tuple(HFE_REPORT)
TASKS = ("spectrum", "hfe", "chern", "greens", "ness")

NUMERIC_DEFAULTS = {
    "Nk": 24,
    "nu_points": 401,
    "n_k": 64,
    "k_min": -math.pi,
    "k_max": math.pi,
    "tol": 1e-9,
    "steps_per_period": 256,
}
INTEGER_KEYS = ("M", "n_k", "Nk", "nu_points", "steps_per_period")
# the settings each task reads beyond model, task, output and drive.*, as dotted
# keys; with MODEL_KEYS they say what a run reads (_reads): validate_config rejects
# every other key, and the manifest's numerics and a sweep's --param come from there
_SAMBE = ("numerics.M", "custom_modes")
_K_LINE = ("numerics.n_k", "numerics.k_min", "numerics.k_max")
TASK_KEYS = {
    "spectrum": (*_SAMBE, *_K_LINE),
    "hfe": ("custom_modes", "summary_metric"),
    "chern": (*_SAMBE, "numerics.Nk", "write_curvature"),
    "greens": (*_SAMBE, *_K_LINE, "numerics.nu_points", "bath.gamma", "bath.beta"),
    "ness": ("numerics.tol", "numerics.steps_per_period", "custom_modes", "lindblad.gamma",
             "lindblad.k"),
}
# the models a task runs on, where not all: chern needs a compact zone, ness a two-level model
TASK_MODELS = {"chern": ("honeycomb", "custom"), "ness": ("dirac", "honeycomb", "custom")}
# the models a setting is limited to: custom_modes alone defines the custom model (no k,
# amplitude or polarization)
_BUILT_IN = tuple(models.POLARIZATION)
MODEL_KEYS = {"custom_modes": ("custom",), "lindblad.k": _BUILT_IN, "drive.amplitude": _BUILT_IN,
              "drive.polarization": _BUILT_IN}
# the half-bandwidth max_t |H(t)| of the lattices, whose mode sets the CLI builds with
# every harmonic up to 2M (see _model_at)
HALF_BANDWIDTH = {"chain1d": 2.0, "honeycomb": 3.0}
_LATTICES = tuple(HALF_BANDWIDTH)
# the largest A from which a cutoff may derive: the default M of spectrum, chern and
# greens (default_replica_cutoff, 1.9 A and more), up to twice which the lattice modes
# then hold every harmonic, and the bessel_tail_order(A) harmonics of hfe's lattice modes
MAX_DEFAULT_AMPLITUDE = 50.0
# the physical band's largest Fourier weight in the edge blocks |m| = M, and its largest
# |U0^dagger U0 - I|, above which spectrum, chern and greens warn (_certified); against
# M 129 a truncation moves quasienergies and weight0 by selection_error^2 / 1.5 or less
EDGE_WEIGHT_TOL = 1e-13
SELECTION_TOL = 3e-6
CSV_BLOCK_ROWS = 8192    # rows formatted per block by _csv_blocks


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


@dataclass
class RunConfig:
    """A validated config whose settings are final: defaults filled in, typed."""
    model: str
    task: str
    drive: models.DriveProtocol
    output: str
    numerics: dict                              # the numerics the run reads, after defaults
    bath: open_system.BathSpec = None           # greens only
    lindblad: open_system.LindbladSystem = None     # ness only: the run's one system
    custom_modes: models.FourierModeSet = None
    write_curvature: bool = False
    summary_metric: str = "J_eff"               # the hfe.json key hfe sums up
    workers: int = 1                            # FLOQUET_WORKERS, read for every task
    raise_m: bool = False       # a default M: _certified may raise it
    raw: dict = field(default_factory=dict)

    @property
    def m_cut(self):
        return self.numerics["M"]


def _require(cond, key, message):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _is_number(value):
    # bool is an int subclass; JSON true/false must not pass as numbers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)     # json reads NaN and Infinity
    except OverflowError:               # an integer beyond the float range
        return False


def _listing(names, kind):
    """'the a, b and c <kind>s', or 'the a <kind>'."""
    if names[1:]:
        return f"the {', '.join(names[:-1])} and {names[-1]} {kind}s"
    return f"the {names[0]} {kind}"


def _reads(model, task):
    """The keys a run of `task` on `model` reads, each section with its dotted keys.

    A task reads nothing on a model it does not run on (TASK_MODELS).
    """
    if model not in TASK_MODELS.get(task, MODELS):
        return {}
    keys = [key for key in ("model", "task", "output", "drive.omega", "drive.amplitude",
                            "drive.polarization", *TASK_KEYS[task])
            if model in MODEL_KEYS.get(key, MODELS)]
    return dict.fromkeys([*keys, *(key.partition(".")[0] for key in keys)])


_KNOWN_KEYS = set().union(*(_reads(model, task) for model in MODELS for task in TASKS))


def _missing_dirs(path):
    """The absolute path and those of its ancestors that do not exist, deepest first.

    The nearest existing one is the parent of the last entry, or the path
    itself when nothing is missing.
    """
    node, missing = os.path.abspath(path), []
    while not os.path.exists(node) and node != os.path.dirname(node):
        missing.append(node)
        node = os.path.dirname(node)
    return missing


def _check_output(path):
    """Reject an output that an existing file blocks, as the run would, creating nothing.

    os.makedirs fails on the file itself with "File exists" and below one
    with "Not a directory"; _make_output_dir still maps whatever else it
    raises (permissions, races) at run time.
    """
    missing = _missing_dirs(path)
    node = os.path.dirname(missing[-1]) if missing else os.path.abspath(path)
    _require(os.path.isdir(node), "output", f"cannot create directory {path}: "
             + ("Not a directory" if missing else "File exists"))


def _physical_memory():
    """This machine's physical memory in bytes; inf where the platform does not tell."""
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no os.sysconf on Windows
        return math.inf
    return pages * page if pages > 0 and page > 0 else math.inf


def _bytes_text(nbytes):
    """A byte count in binary units, as '14.6 TiB'."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if nbytes < 1024:
            return f"{nbytes:.3g} {unit}"
        nbytes /= 1024
    return f"{nbytes:.3g} EiB"


def _count_text(n):
    """An integer in full, or to 3 digits past 16 of them."""
    return str(n) if n < 10 ** 16 else f"{n:.3g}"


def _require_fits(key, value, shape, what, itemsize=16):
    """Reject `key` when its array of `shape`, complex by default, exceeds physical memory."""
    nbytes = itemsize * math.prod(float(size) for size in shape)    # inf past the float range
    memory = _physical_memory()
    _require(nbytes <= memory, key,
             f"{value} needs a {' x '.join(map(_count_text, shape))} array ({what}) of "
             f"{_bytes_text(nbytes)}, more than this machine's {_bytes_text(memory)} of memory")


def _check_sizes(cfg):
    """Reject a size setting for which the run needs one array larger than physical memory.

    Per size setting, the largest array the run cannot do without, each
    made whole in one allocation: beyond the machine's memory it cannot be
    allocated, or only swaps. M comes first, so it is the setting named
    when it alone is too large, and n_k sizes the Fourier weights of every
    k, in spectrum and greens alike. (custom_modes is sized in
    validate_config, before its mode array is built.)
    """
    n = collections.defaultdict(int, cfg.numerics)      # the size settings the run reads
    dim = len(_model_at(cfg)[0](0.0))
    side = (2 * n["M"] + 1) * dim       # of the Sambe matrix
    arrays = {      # per setting: (shape, bytes per entry, what the array holds)
        "M": ((side, side), 16, "the Sambe matrix"),
        "Nk": ((n["Nk"] + 1, n["Nk"] + 1, side, dim), 16, "the eigenvectors over the grid"),
        "nu_points": ((n["nu_points"], side, side), 16, "the G^R columns at one k"),
        "steps_per_period": ((2 * n["steps_per_period"] + 1, dim ** 2, dim ** 2), 16,
                             "the Lindblad superoperators of the RK4 step maps"),
        "n_k": ((n["n_k"], 2 * n["M"] + 1, dim), 8, "the Fourier weights at every k"),
    }
    for key, (shape, itemsize, what) in arrays.items():
        if key in cfg.numerics:
            _require_fits(f"numerics.{key}", _count_text(n[key]), shape, what, itemsize)


def validate_config(raw):
    """Parse a config dict into a RunConfig, raising ConfigError on violations.

    Every check and default of a config setting lives here: the tasks
    read the RunConfig's fields as they are, and the manifest records its
    numerics.
    """
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    given = []      # every key the config sets, a non-empty section's dotted keys after it
    for key, value in raw.items():
        _require(key in _KNOWN_KEYS and "." not in key, key, "unknown top-level key")
        if not any(known.startswith(f"{key}.") for known in _KNOWN_KEYS):
            given.append(key)
            continue
        _require(isinstance(value, dict), key, "must be an object")
        if value:       # an empty section sets nothing
            given += [key, *(f"{key}.{sub}" for sub in value)]
    for key in given:
        _require(key in _KNOWN_KEYS, key, f"unknown {key.partition('.')[0]} key")
    model = raw.get("model")
    _require(model in MODELS, "model", f"must be one of {MODELS}, got {model!r}")
    task = raw.get("task")
    _require(task in TASKS, "task", f"must be one of {TASKS}, got {task!r}")
    runs_on = TASK_MODELS.get(task, MODELS)
    _require(model in runs_on, "model",
             f"{task} task runs on {_listing(runs_on, 'model')} only, got {model!r}")
    reads = _reads(model, task)
    for key in (key for key in given if key not in reads):
        tasks = [other for other in TASKS if key in _reads(model, other)]
        # where no task this model runs reads the key, name the models that do
        readers = [other for other in MODELS if any(key in _reads(other, each) for each in TASKS)]
        kind, actual, names = ("task", task, tasks) if tasks else ("model", model, readers)
        verb = "read" if names[1:] else "reads"
        raise ConfigError(f"{key}: only {_listing(names, kind)} {verb} it, not {actual!r}")
    drive_raw = raw.get("drive", {})
    omega = drive_raw.get("omega")
    _require(_is_number(omega) and omega > 0, "drive.omega",
             f"must be a positive number, got {omega!r}")
    amplitude = drive_raw.get("amplitude", 0.0)
    _require(_is_number(amplitude) and amplitude >= 0, "drive.amplitude",
             f"must be a number >= 0, got {amplitude!r}")
    polarization = drive_raw.get("polarization", models.POLARIZATION.get(model, "linear"))
    try:
        drive = models.DriveProtocol(float(omega), float(amplitude), polarization)
        if model in models.POLARIZATION:    # not custom, whose modes are the whole model
            models.check_polarization(model, drive)
    except ValueError as exc:
        raise ConfigError(f"drive.polarization: {exc}") from None
    output = raw.get("output")
    _require(isinstance(output, str) and output, "output", "must be a non-empty path")
    _check_output(output)

    given = raw.get("numerics", {})
    for key, value in given.items():
        _require(_is_number(value), f"numerics.{key}", "must be a number")
        if key not in ("k_min", "k_max"):
            _require(value > 0, f"numerics.{key}", f"must be positive, got {value!r}")
        if key in INTEGER_KEYS:
            _require(isinstance(value, int) or value.is_integer(), f"numerics.{key}",
                     f"must be an integer, got {value!r}")
    numerics = {key: (int if key in INTEGER_KEYS else float)(value)
                for key, value in {**NUMERIC_DEFAULTS, **given}.items()}
    k_min, k_max = numerics["k_min"], numerics["k_max"]
    _require(k_max > k_min, "numerics.k_max", f"must exceed k_min = {k_min!r}, got {k_max!r}")
    _require(math.isfinite(k_max - k_min), "numerics.k_max",
             f"k_max - k_min must be finite, got {k_max!r} - {k_min!r}")
    default_m = "numerics.M" in reads and "M" not in given
    if default_m or (task == "hfe" and model in _LATTICES):
        _require(amplitude <= MAX_DEFAULT_AMPLITUDE, "drive.amplitude",
                 f"must be <= {MAX_DEFAULT_AMPLITUDE} where a cutoff derives from it, got "
                 f"{amplitude!r}" + ("; set numerics.M explicitly" if default_m else ""))
    bath = None
    if task == "greens":
        bath_raw = raw.get("bath", {})
        gamma = bath_raw.get("gamma")
        _require(_is_number(gamma) and gamma > 0, "bath.gamma",
                 "greens task needs a positive bath.gamma")
        beta = bath_raw.get("beta", "inf")
        _require(beta == "inf" or (_is_number(beta) and beta > 0), "bath.beta",
                 "must be positive or the string 'inf'")
        bath = open_system.BathSpec(gamma=float(gamma),
                                    beta=math.inf if beta == "inf" else float(beta))

    if task == "ness":
        lindblad = raw.get("lindblad", {})
        gamma = lindblad.get("gamma")
        _require(_is_number(gamma) and gamma > 0, "lindblad.gamma",
                 "ness task needs a positive lindblad.gamma")
        kpt = lindblad.get("k", [0.0, 0.0])
        _require(isinstance(kpt, list) and len(kpt) == 2
                 and all(_is_number(v) for v in kpt), "lindblad.k",
                 "must be a [kx, ky] pair")

    # the Sambe matrix needs M >= the model's mode cutoff, and replica selection, which
    # the certificate of every task that reads M runs, its margin beyond it
    margin = sambe.SELECTION_MARGIN
    custom = None
    if model == "custom":
        triples = raw.get("custom_modes")
        _require(isinstance(triples, list) and triples, "custom_modes",
                 "custom model needs a non-empty list of (n, re, im) triples")
        try:
            ns, mats = models.custom_mode_terms(triples)
        except ValueError as exc:
            raise ConfigError(f"custom_modes: {exc}") from None
        harmonic, dim = max(map(abs, ns)), mats.shape[1]
        if task == "ness":
            _require(dim == 2, "custom_modes",
                     f"ness task needs a two-level model (2x2 modes), got {dim}x{dim}")
        # _check_sizes's rule, before the mode array exists: that array, and where the
        # task reads M, the Sambe matrix at the least M the harmonic allows
        text = f"harmonic {_count_text(harmonic)}"
        _require_fits("custom_modes", text, (2 * harmonic + 1, dim, dim), "the Fourier modes")
        if "numerics.M" in reads:
            side = (2 * (harmonic + margin) + 1) * dim
            _require_fits("custom_modes", text, (side, side),
                          f"the Sambe matrix at M = {_count_text(harmonic + margin)}")
        try:    # the modes' own checks, H_-n = H_n^dagger
            custom = models._mode_set(float(omega), ns, mats)
        except ValueError as exc:
            raise ConfigError(f"custom_modes: {exc}") from None

    curvature = raw.get("write_curvature", False)
    _require(isinstance(curvature, bool), "write_curvature",
             f"must be true or false, got {curvature!r}")
    metric = raw.get("summary_metric", HFE_REPORT[model][0])     # given only to hfe
    _require(metric in HFE_REPORT[model], "summary_metric",
             f"{metric!r} not in the {model!r} hfe report {list(HFE_REPORT[model])}")

    if "numerics.M" in reads:
        # the largest harmonic of a mode set M must hold; the lattice modes take theirs
        # from M, and keep SELECTION_MARGIN blocks on each side of the central one
        mode_cutoff = 1 if model == "dirac" else custom.n_max if custom else 0
        if model in _LATTICES:
            peierls, width = drive.amplitude, HALF_BANDWIDTH[model]
        else:   # the summed mode norms bound |H(t)|; dirac's taken at k = 0
            modes = custom or models.dirac_modes(0.0, 0.0, drive)
            peierls, width = 0.0, float(np.sum(np.linalg.norm(modes.modes, 2, axis=(1, 2))))
        need = mode_cutoff + margin
        m_cut = numerics.setdefault("M", max(default_replica_cutoff(drive.omega, peierls, width),
                                             need))
        _require(m_cut >= need, "numerics.M",
                 f"must be >= {need} for the {model!r} modes in task {task!r}, got {m_cut}")
    numerics = {key: value for key, value in numerics.items() if f"numerics.{key}" in reads}
    cfg = RunConfig(model=model, task=task, drive=drive, output=output, numerics=numerics,
                    bath=bath, custom_modes=custom, write_curvature=curvature,
                    summary_metric=metric, workers=_env_workers(), raise_m=default_m,
                    raw=copy.deepcopy(raw))
    _check_sizes(cfg)
    if task == "ness":
        # the run's one system, at lindblad.k and decaying through the lowering operator at
        # rate lindblad.gamma, and find_ness's RK4 stability check, before any output exists
        cfg.lindblad = open_system.LindbladSystem(_model_at(cfg, *map(float, kpt))[0],
                                                  [np.sqrt(float(gamma)) * np.eye(2, k=1)])
        steps = numerics["steps_per_period"]
        try:
            open_system.rk4_samples(cfg.lindblad, 0.0, drive.period, drive.period / steps)
        except ValueError as exc:
            raise ConfigError(f"numerics.steps_per_period: {steps} is too few: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# model wiring

def _model_at(cfg: RunConfig, kx=0.0, ky=0.0):
    """The configured model at momentum (kx, ky): (H(t) sampler, mode-set builder).

    The chain1d and honeycomb modes hold every harmonic up to 2M, all that
    the blocks of the Sambe matrix reach, so the edge blocks |m| = M, which
    _certified reads, are the run's only truncation; hfe, which has no M,
    takes them up to highfreq.bessel_tail_order(A).
    """
    drive = cfg.drive
    n_max = (2 * cfg.m_cut if "M" in cfg.numerics
             else highfreq.bessel_tail_order(drive.amplitude))
    if cfg.model == "chain1d":
        return (functools.partial(models.sample_chain_1d, kx, 1.0, drive),
                functools.partial(models.chain_modes, kx, 1.0, drive, n_max))
    if cfg.model == "dirac":
        return (functools.partial(models.sample_dirac, kx, ky, drive),
                functools.partial(models.dirac_modes, kx, ky, drive))
    if cfg.model == "honeycomb":
        return (functools.partial(models.sample_honeycomb, kx, ky, 1.0, drive),
                functools.partial(models.honeycomb_modes, kx, ky, 1.0, drive, n_max))
    return cfg.custom_modes.sample, lambda: cfg.custom_modes


def _modes(cfg: RunConfig, kx=0.0, ky=0.0):
    return _model_at(cfg, kx, ky)[1]()


def _k_grid(cfg: RunConfig):
    numerics = cfg.numerics
    return np.linspace(numerics["k_min"], numerics["k_max"], numerics["n_k"], endpoint=False)


# ---------------------------------------------------------------------------
# output helpers

@contextlib.contextmanager
def _atomic_file(path):
    """A binary file open at path + ".tmp": renamed to `path` on success, removed on any error."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_atomic(path, text):
    with _atomic_file(path) as handle:
        handle.write(text.encode())


def _write_csv(path, header, table):
    """Write an (n_rows, n_cols) float array under a header line.

    Every value prints exactly as '%.12g' % v would, so integral values
    (branch and replica indices) print as str(int) would. Every CSV the
    CLI writes is put together by `_csv_blocks`, here and in greens' per-k
    rows: CSV_BLOCK_ROWS rows at a time, each block turned into bytes by
    a numpy kernel (`_csv_slots`) with no Python call per value:

    * per cell, e = floor(log10|x|) and the 12-digit mantissa m = rint(s),
      s = |x| 10^(11-e); m = 10^12 carries into e + 1;
    * the digits come from a table of 4-digit groups and go into a
      fixed-width slot holding every byte %.12g may print; a keep mask
      looked up by (notation, significant digits, exponent width, sign)
      selects the bytes the cell's text uses, and one boolean compress
      per block cuts the text out of the slots.

    rint(s) is %.12g's correctly rounded mantissa when s is in
    [10^11, 10^12) and not within s 2^-48 of a decimal tie, 16 times the
    worst error of the scaling. The other cells (log10 misses the decade
    just below a power of ten), nan, inf and magnitudes outside
    [1e-290, 1e290] fall back to '%.12g' % v itself (`_exact_text`),
    written into their slot.

    Memory stays bounded by one block, not the file: the kernel's arrays
    are the uint8 slots and bool keep mask (36 bytes each per cell), the
    output and narrow integer keys, under 100 bytes per cell against
    about 16 bytes of text.
    """
    with _atomic_file(path) as handle:
        handle.write(header.encode() + b"\n")
        for block in _csv_blocks(table):
            handle.write(block)


def _csv_blocks(table, lead=()):
    """The rows of a float table as CSV text, one uint8 array per CSV_BLOCK_ROWS rows.

    `lead` holds preformatted leading columns, each a (text, keep) pair
    from _leading_cells with one item per row or one item for every row.
    Each block's lead cells go into the gap _csv_slots leaves before the
    table's cells, and the block's text is cut out in its one compress.
    """
    template = _templates(table.shape[1])
    lead = [[np.broadcast_to(a, len(table)) for a in cells] for cells in lead]
    width = sum(text.itemsize for text, _ in lead)
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        slot, keep = _csv_slots(table[rows], template, lead=width)
        at = 0
        for text, text_keep in lead:
            _bytes_field(slot, at, text.itemsize)[:] = text[rows]
            _bytes_field(keep, at, text.itemsize)[:] = text_keep[rows]
            at += text.itemsize
        block = slot[keep]
        del slot, keep      # one block's slots alive at a time, not two
        yield block


def _templates(n_cols):
    """(n_cols, _SLOT) slot templates, each ending in its column's separator."""
    template = np.tile(np.frombuffer(_SLOT_TEMPLATE, np.uint8), (n_cols, 1))
    template[:-1, -1] = ord(",")
    return template


# The %.12g kernel. A cell's text is cut from a fixed slot holding every byte
# %.12g may print:
#   sign | "0.000" | d0..d11 | d0..d11 | exponent field | separator
# The first digit copy gives the digits before the dot. In the second a dot
# overwrites the last of those, so the dot and the digits after it are one
# run. The exponent field is "e+ddd", or "e+dd" right-aligned. The template's
# "\n" becomes "," for all but the last column.
_SLOT_TEMPLATE = b"-0.000" + b"0" * 24 + b"e+000\n"
_SLOT = len(_SLOT_TEMPLATE)
_INT, _FRAC, _EXP = 6, 18, 30   # slot positions of the two digit copies and the exponent
_EXPONENT, _ZERO = 16, 17       # notation classes after the fixed ones, 0..15 for e = -4..11
_TIE_GUARD = 2.0 ** -48         # relative; the scaled value is within 2^-52 relative of exact
_MIN_ABS, _MAX_ABS = 1e-290, 1e290
_POW_RANGE = 305                # covers 10^(11 - e) for every e of [_MIN_ABS, _MAX_ABS]
# the 4-digit groups "0000".."9999": the ASCII bytes of each in one uint32,
# and the number of trailing zeros of each
_GROUP_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_GROUPS = _GROUP_DIGITS.view(np.uint32).ravel()
_GROUP_ZEROS = np.cumprod(_GROUP_DIGITS[:, ::-1] == ord("0"), axis=1, dtype=np.int8).sum(
    axis=1, dtype=np.int8)
# |x| 10^k as one multiplication (k >= 0) or division (k < 0) by a correctly
# rounded power of ten, exact for |k| <= 22; the other factor is 1
_POWERS = np.array([float(10 ** k) for k in range(_POW_RANGE + 1)])
_UP = np.concatenate([np.ones(_POW_RANGE), _POWERS])
_DOWN = np.concatenate([_POWERS[:0:-1], np.ones(_POW_RANGE + 1)])


# the 5-byte exponent field of e = -400..400, one void item each: "e+ddd", or
# "e+dd" behind a pad byte the keep mask drops
_EXP_FIELDS = np.array([("e%+04d" if abs(e) >= 100 else "0e%+03d") % e for e in range(-400, 401)],
                       dtype="S5").view("V5")


def _keep_table():
    """Keep masks indexed by ((class * 12 + n_digits - 1) * 2 + wide) * 2 + negative."""
    cls = np.arange(18)[:, None, None, None, None]
    nd = np.arange(1, 13)[:, None, None, None]
    wide = np.array([False, True])[:, None, None]   # exponent of 3 digits
    neg = np.array([False, True])[:, None]
    pos = np.arange(_SLOT)
    e = cls - 4
    expo = cls == _EXPONENT
    small = (cls < _EXPONENT) & (e < 0)             # fixed notation, 0.000ddd
    large = (cls < _EXPONENT) & (e >= 0)            # fixed notation, dd.ddd
    lead = np.where(large, e, np.where(expo, 0, -1))  # last digit before the dot
    i = pos - _INT
    f = pos - _FRAC
    keep = (((pos == 0) & neg)
            | ((pos == 1) & ((cls == _ZERO) | small))
            | ((pos == 2) & small)
            | ((pos >= 3) & (pos < _INT) & small & (pos - 3 < -e - 1))
            | ((i >= 0) & (i <= lead))
            | ((f == lead) & (lead >= 0) & (nd > lead + 1))          # the dot
            | ((f > lead) & (f < nd) & (cls != _ZERO))
            | ((pos >= _EXP) & (pos < _SLOT - 1) & expo & ((pos > _EXP) | wide))
            | (pos == _SLOT - 1))
    return keep.reshape(-1, _SLOT)


_KEEP_CELLS = _keep_table().view(f"V{_SLOT}")[:, 0]     # one void item per keep mask


def _exact_text(values):
    """'%.12g' % v of each value, as fixed-width bytes (the kernel's fallback)."""
    return np.array(["%.12g" % v for v in values.tolist()], dtype=f"S{_SLOT - 1}")


def _bytes_field(cells, start, width):
    """Bytes start:start+width along the last axis of `cells`, one void item each."""
    return cells[..., start:start + width].view(f"V{width}")[..., 0]


def _csv_slots(block, template, lead=0):
    """The slots of an (n_rows, n_cols) float block and their keep mask.

    Both are (n_rows, lead + n_cols _SLOT): each row holds its cells'
    slots in order after `lead` bytes left unset for the caller, and
    slot[keep] of the slots is the block's CSV text. `template` is an
    (n_cols, _SLOT) uint8 array, each row a slot template ending in that
    column's separator.
    """
    n_rows, n_cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    certain = (a >= _MIN_ABS) & (a <= _MAX_ABS)
    a[~certain] = 1.0
    e = np.floor(np.log10(a)).astype(np.int16)
    k = _POW_RANGE + 11 - e.astype(np.intp)
    s = a * _UP.take(k) / _DOWN.take(k)
    del a, k
    m = np.rint(s)
    # rint(s) is the correctly rounded mantissa unless s is this close to a
    # tie, or log10 missed the decade (next to a power of ten)
    certain &= np.abs(s - np.floor(s) - 0.5) > s * _TIE_GUARD
    certain &= (s >= 1e11) & (s < 1e12)
    del s
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    m[~certain] = 1e11
    e[~certain] = 0
    m = m.astype(np.int64)
    head = m // 10 ** 4             # floor division is much faster than np.divmod
    lo = m - head * 10 ** 4
    hi = head // 10 ** 4
    mid = head - hi * 10 ** 4
    del m, head
    zeros = np.where(lo > 0, _GROUP_ZEROS.take(lo),
                     4 + np.where(mid > 0, _GROUP_ZEROS.take(mid), 4 + _GROUP_ZEROS.take(hi)))
    digits = np.empty((x.size, 3), np.uint32)
    for j, group in enumerate((hi, mid, lo)):
        digits[:, j] = _GROUPS.take(group)
    del hi, mid, lo
    fixed = (e >= -4) & (e <= 11)
    cls = np.where(zero, _ZERO, np.where(fixed, e + 4, _EXPONENT))
    key = (((cls * 12 + 11 - zeros) * 2 + (np.abs(e) >= 100)) * 2
           + np.signbit(x)).astype(np.int16)
    del cls, zeros

    slot = np.empty((n_rows, lead + n_cols * _SLOT), np.uint8)
    cells = slot[:, lead:].reshape(n_rows, n_cols, _SLOT)
    cells.view(f"V{_SLOT}")[..., 0] = template.view(f"V{_SLOT}")[:, 0]
    digits = digits.view("V12")[:, 0].reshape(n_rows, n_cols)
    _bytes_field(cells, _INT, 12)[:] = digits
    _bytes_field(cells, _FRAC, 12)[:] = digits
    del digits
    _bytes_field(cells, _EXP, 5)[:] = _EXP_FIELDS.take(e + 400).reshape(n_rows, n_cols)
    # the dot after digit e in fixed notation, after d0 in exponent form; for
    # e < 0 it lands on an unused digit of the first copy
    dot = np.arange(n_rows)[:, None] * slot.shape[1] + (lead + _FRAC + _SLOT * np.arange(n_cols))
    dot += np.where(fixed, e, 0).reshape(n_rows, n_cols)
    slot.ravel()[dot] = ord(".")
    del e, fixed, dot
    keep = np.empty(slot.shape, bool)
    keep_cells = keep[:, lead:].reshape(n_rows, n_cols, _SLOT)
    # every key is in range: "clip" spares take a buffered copy of its output
    _KEEP_CELLS.take(key.reshape(n_rows, n_cols), out=keep_cells.view(f"V{_SLOT}")[..., 0],
                     mode="clip")
    del key
    exact = np.flatnonzero(~(certain | zero))
    if exact.size:
        text = _exact_text(x[exact]).view(np.uint8).reshape(exact.size, _SLOT - 1)
        row, col = np.divmod(exact, n_cols)
        cells[row, col, :-1] = text
        keep_cells[row, col, :-1] = text != 0
    return slot, keep


def _write_json(path, payload):
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def config_hash(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(outdir, raw, **fields):
    """outdir/manifest.json: the hash of the config `raw`, the version, then `fields`."""
    _write_json(os.path.join(outdir, "manifest.json"),
                {"config_sha256": config_hash(raw), "version": __version__, **fields})


# ---------------------------------------------------------------------------
# worker processes

def _usable_cpus():
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _env_workers():
    """Worker count from FLOQUET_WORKERS (default: _usable_cpus)."""
    text = os.environ.get("FLOQUET_WORKERS")
    if text is None:
        return _usable_cpus()
    try:
        workers = int(text)
    except ValueError:
        raise ConfigError(f"FLOQUET_WORKERS: not an integer: {text!r}") from None
    _require(workers >= 1, "FLOQUET_WORKERS", f"must be at least 1, got {workers}")
    return workers


# the thread-count setters of numpy's (64-bit ints) and scipy's OpenBLAS, new and old wheels
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.lru_cache(maxsize=1)
def _blas_thread_setters():
    """The _BLAS_THREAD_SETTERS exported by the OpenBLAS libraries loaded in this process.

    Found once per process through /proc/self/maps; none where that file
    is missing or no loaded library exports one.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return ()
    setters = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setters.append(setter)
    return tuple(setters)


# In a pool worker process: the function and items its pool runs. Set there by
# _start_worker when the worker is forked, so neither is ever pickled.
_worker_job = None


def _start_worker(fn, items, blas_setters):
    """Keep the pool's job and run BLAS on one thread: the workers already share the CPUs."""
    global _worker_job
    _worker_job = fn, items
    for setter in blas_setters:
        setter(1)


def _run_item(index):
    """fn(items[index]) in a pool worker: (result, exception, its warnings as _relay takes them).

    Warnings are recorded under the filters the worker inherited, so an
    "error" filter makes the call fail as it would in the caller.
    """
    fn, items = _worker_job
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = fn(items[index]), None
        except Exception as exc:  # noqa: BLE001 - raised again in the caller
            result, error = None, exc
    return result, error, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _relay(caught):
    """Warn each recorded (category, message, filename, lineno) in this process.

    Each goes into the warning registry of the module its file belongs
    to, as warnings.warn raised there would, so the "default", "module"
    and "once" filters show it as often as a run in one process does.
    """
    if not caught:
        return
    modules = {getattr(module, "__file__", None): module for module in list(sys.modules.values())}
    for category, message, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno,
                               module=getattr(module, "__name__", None), registry=registry)


def _submit(pool, index):
    """pool.submit(_run_item, index); a broken pool's error becomes the future's."""
    try:
        return pool.submit(_run_item, index)
    except concurrent.futures.process.BrokenProcessPool as exc:
        future = concurrent.futures.Future()
        future.set_exception(exc)
        return future


def _in_workers(fn, items, workers):
    """Yield (fn(item), None) or (None, the exception it raised) per item, in order.

    The calls run in a pool of up to `workers` processes, and no more than
    _usable_cpus (the fork context starts them all at the first submit),
    forked from this one: they inherit the imported library, where a
    fresh import of numpy and scipy per worker (spawn, forkserver) costs
    about 0.45 s, and `fn` and `items` reach them without pickling; the
    library itself starts no thread that a fork could catch holding a
    lock. Each worker runs BLAS on one thread, through the setters
    _blas_thread_setters finds here before the fork. Items are submitted
    at most twice the pool's size ahead of the one being yielded, so the
    results waiting here stay few however many items there are. Each
    item's warnings are re-raised here (_relay) just before its outcome is
    yielded; a worker that dies fails every item it had not finished with
    BrokenProcessPool.

    The calls run here, one after another, only inside a pool worker
    (pools do not nest) and where the platform cannot fork: at one worker
    they still fork, and all run in that one worker.
    """
    items = list(items)
    if (multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        for item in items:
            try:
                yield fn(item), None
            except Exception as exc:  # noqa: BLE001 - the caller decides
                yield None, exc
        return
    size = min(workers, len(items), _usable_cpus())
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=size, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn, items, _blas_thread_setters())) as pool:
        submitted = min(2 * size, len(items))
        ahead = collections.deque(_submit(pool, index) for index in range(submitted))
        try:
            while ahead:
                future = ahead.popleft()
                if submitted < len(items):
                    ahead.append(_submit(pool, submitted))
                    submitted += 1
                # a worker that died, or an outcome that could not be sent, fails the item
                try:
                    result, error, caught = future.result()
                except Exception as exc:  # noqa: BLE001 - the item's outcome
                    result, error, caught = None, exc, ()
                _relay(caught)
                yield result, error
        finally:
            for future in ahead:    # left behind by an error or a closed generator
                future.cancel()


def _worker_map(fn, items, workers):
    """Yield fn(item) per item, in order, raising an item's exception; at one worker, run here."""
    if workers == 1:
        yield from map(fn, items)
        return
    for result, error in _in_workers(fn, items, workers):
        if error is not None:
            raise error
        yield result


# ---------------------------------------------------------------------------
# tasks

def default_replica_cutoff(omega, amplitude, width):
    """The default M of every task that reads M, ceil(1.9 A + 4 + 2.5 r^0.6 + 5.5 (A/omega)^0.6).

    r = W/omega. A is the Peierls amplitude of a lattice drive, whose harmonics reach
    about A (0 for dirac and custom, whose harmonics are given), and W
    bounds |H(t)|: the half-bandwidth, 2 for chain1d and 3 for honeycomb,
    or the summed norms of the modes. Fitted to the smallest M at which the
    edge weight of _certified is <= 1e-13 at 16 seeded k, with the lattice
    modes filled to 2M: on chain1d and honeycomb at omega 0.3-40 and A
    0.25-50 the rule exceeds it by at least one block (median 4), so that
    a k the scan did not draw still passes; at A 50 it exceeds it by up to
    55. Where it does fail, _certified raises M.
    """
    return math.ceil(1.9 * amplitude + 4.0 + 2.5 * (width / omega) ** 0.6
                     + 5.5 * (amplitude / omega) ** 0.6)


def _certified(cfg: RunConfig, solve):
    """(cfg, result, diagnostics) of solve(cfg) = (result, weights, u0) at a certified M.

    The one place that judges the physical band, from its Fourier weights
    over every k of the run (block m on axis -2, states on axis -1) and its
    states u(0) (_block_sum). Its diagnostics: `edge_weight`, the largest
    weight in the edge blocks m = +-M; `weight0_min`, the smallest central
    one; `selection_error`, max |U0^dagger U0 - I|, 0 for exact picks (the
    Floquet theorem makes the u(0) orthonormal) and of order 1 for a
    duplicate pick, two replicas of one state. Where the edge weight exceeds
    EDGE_WEIGHT_TOL at a default M (cfg.raise_m), the run solves again at M
    plus a quarter, and at least 2 blocks, until it holds or the next M
    fails _check_sizes; the returned cfg holds the M used, and `m_raises`
    counts the raises. A duplicate pick stays as M grows, so the selection
    error raises no M. Where the edge weight still exceeds its tolerance, or
    the selection error SELECTION_TOL, the run warns once. The edge weight
    tracks the truncation error of the quasienergies but bounds it by no
    fixed factor: on honeycomb at omega = 1, A = 4 (12 seeded k against a
    full solve at M = 60, the lattice modes filled to 2M) M = 24 left an
    error of 1.7e-13 at a weight of 2.0e-14, which does not warn; over M =
    19 to 26 the error reached 9 times the weight (M = 20) and at a single k
    122 times that k's own (M = 23). A drive whose harmonics skip the edge
    blocks leaves them empty; the selection error sees that truncation.
    """
    raises = 0
    while True:
        result, weights, u0 = solve(cfg)
        edge = float(np.max(weights[..., [0, -1], :]))
        if edge <= EDGE_WEIGHT_TOL or not cfg.raise_m:
            break
        raised = replace(
            cfg, numerics={**cfg.numerics, "M": cfg.m_cut + max(2, cfg.m_cut // 4)})
        try:
            _check_sizes(raised)
        except ConfigError:
            break
        cfg, raises = raised, raises + 1
    gram = np.swapaxes(u0.conj(), -1, -2) @ u0
    selection = float(np.max(np.abs(gram - np.eye(u0.shape[-1]))))
    if edge > EDGE_WEIGHT_TOL or selection > SELECTION_TOL:
        warnings.warn(
            f"the physical band has Fourier weight {edge:.1e} in the edge blocks |m| = M = "
            f"{cfg.m_cut} and a selection error |U0^dagger U0 - I| of {selection:.1e}, against "
            f"{EDGE_WEIGHT_TOL:g} and {SELECTION_TOL:g}; raise numerics.M, unless the selection "
            "error stays as M grows: that is a duplicate pick, which no M mends", stacklevel=3)
    return cfg, result, {"edge_weight": edge, "m_raises": raises,
                         "weight0_min": float(weights[..., cfg.m_cut, :].min()),
                         "selection_error": selection}


def _block_sum(vectors, dim):
    """U0 of picked extended vectors (..., (2M + 1) dim, dim): the sum of their blocks, u(0)."""
    return vectors.reshape(*vectors.shape[:-2], -1, dim, vectors.shape[-1]).sum(axis=-3)


def _physical_bands(cfg: RunConfig, ks):
    """The physical band's quasienergies, Fourier weights and U0 at `ks`, read k by k."""
    def read(k):
        sol = sambe.physical_band(_modes(cfg, k), cfg.m_cut)
        return sol.quasienergies, sol.fourier_weights(), _block_sum(sol.vectors, sol.dim)

    return tuple(map(np.array, zip(*map(read, ks))))


def task_spectrum(cfg: RunConfig, outdir):
    ks = _k_grid(cfg)

    def solve(cfg):
        # the weights give the replica centre and weight0 too
        bands = _physical_bands(cfg, ks)
        return bands, *bands[1:]

    cfg, (energies, weights, _), diagnostics = _certified(cfg, solve)
    dim = energies.shape[1]
    table = np.column_stack((
        np.repeat(ks, dim), np.tile(np.arange(dim), ks.size),
        (np.argmax(weights, axis=1) - cfg.m_cut).ravel(), energies.ravel(),
        weights[:, cfg.m_cut].ravel()))
    _write_csv(os.path.join(outdir, "spectrum.csv"),
               "k,branch,n_replica,quasienergy,weight0", table)
    band = table[:, 3]
    return {"summary_metric": float(band.max() - band.min()),
            "numerics": cfg.numerics, "diagnostics": diagnostics}


def task_hfe(cfg: RunConfig, outdir):
    amplitude, omega = cfg.drive.amplitude, cfg.drive.omega
    # honeycomb's correction, its Haldane mass, vanishes at k = 0: it is read at the Dirac point K
    k = (4.0 * math.pi / (3.0 * math.sqrt(3.0)), 0.0) if cfg.model == "honeycomb" else (0.0, 0.0)
    report = {"J_eff": lambda: highfreq.effective_hopping_1d(1.0, amplitude),
              "K_eff": lambda: highfreq.haldane_effective(1.0, amplitude, omega).k_eff,
              "dirac_gap": lambda: highfreq.dirac_gap(amplitude, omega),
              "correction_norm": lambda: highfreq.van_vleck_hf(_modes(cfg, *k)).correction_norm}
    payload = {key: float(report[key]()) for key in HFE_REPORT[cfg.model]}
    _write_json(os.path.join(outdir, "hfe.json"), payload)
    return {"summary_metric": payload[cfg.summary_metric], **payload}


def task_chern(cfg: RunConfig, outdir):
    def solve(cfg):
        solver = topology.floquet_band_solver(functools.partial(_modes, cfg), cfg.m_cut)
        grid = topology.band_grid(solver, cfg.numerics["Nk"],
                                  map_rows=functools.partial(_worker_map, workers=cfg.workers))
        return (grid, sambe.fourier_weights(grid.vectors, grid.n_bands),
                _block_sum(grid.vectors, grid.n_bands))

    cfg, grid, diagnostics = _certified(cfg, solve)
    reports = []
    for band in range(grid.n_bands):
        fieldvals = topology.berry_curvature_grid(grid, band)
        number = topology.chern_number(fieldvals)
        residual = abs(fieldvals.total / (2.0 * np.pi) - number)
        # a lone band has no gap: null, since JSON has no infinity
        gap = fieldvals.min_gap if math.isfinite(fieldvals.min_gap) else None
        reports.append({"band": band, "chern": number,
                        "residual": float(residual), "min_gap": gap})
        if cfg.write_curvature:
            # plaquette (i, j) centre at ((i+1/2) b1 + (j+1/2) b2) / nk, i outer
            frac = (np.arange(grid.nk) + 0.5) / grid.nk
            kvec = frac[:, None, None] * grid.b1 + frac[None, :, None] * grid.b2
            table = np.column_stack((kvec.reshape(-1, 2), fieldvals.flux.ravel()))
            _write_csv(os.path.join(outdir, f"curvature_band{band}.csv"),
                       "kx,ky,F", table)
    _write_json(os.path.join(outdir, "chern.json"), {"bands": reports})
    return {"summary_metric": float(reports[0]["chern"]), "bands": reports,
            "numerics": cfg.numerics, "diagnostics": diagnostics}


def _leading_cells(values):
    """(text, keep) of a leading column formatted once for many blocks, each cell with its comma.

    One void item per cell each, trimmed to the slot bytes some cell
    keeps: the bytes no cell keeps add nothing to the text.
    """
    slot, keep = _csv_slots(values[:, None], _templates(2)[:1])
    used = keep.any(axis=0)
    width = f"V{np.count_nonzero(used)}"
    return tuple(np.ascontiguousarray(a[:, used]).view(width)[:, 0] for a in (slot, keep))


def _greens_rows(cfg: RunConfig, nu, nu_cells, item):
    """Write the (nu_unfolded, k, A, N) rows of one k to its part file; return four scalars.

    `item` is (part, k, k_cell): the path the rows go to, and k with its
    cell from _leading_cells. `nu_cells` formats the unfolded axis of `nu`.
    The rows are put together as every CSV is (_csv_blocks). Only four
    scalars go back to the caller: the peak of A, its sum rule
    sum A dnu / dim, the largest N - A and the resolution. A sums the
    Lorentzians of width gamma at the eigenvalues E_a of H_F, sampled at
    nu, once per a; the resolution is |sum A dnu - sum_a I_a| / dim, with
    I_a their exact integral over the zone [-omega/2, omega/2), which the
    bins [nu, nu + dnu) tile.
    """
    part, k, k_cell = item
    grid = open_system.floquet_greens(_modes(cfg, k), cfg.bath, cfg.m_cut, nu)
    _, spec = open_system.spectral_function(grid)
    _, occ = open_system.occupation_function(grid)
    spectral_sum = spec.sum() * (cfg.drive.omega / nu.size) / grid.dim
    half, gamma = 0.5 * cfg.drive.omega, cfg.bath.gamma
    exact = np.sum(np.arctan((half - grid.energies) / gamma)
                   - np.arctan((-half - grid.energies) / gamma)) / (np.pi * grid.dim)
    with open(part, "wb") as handle:
        for block in _csv_blocks(np.column_stack((spec, occ)), (nu_cells, k_cell)):
            handle.write(block)
    return (float(spec.max()), float(spectral_sum), float(np.max(occ - spec)),
            float(abs(spectral_sum - exact)))


def task_greens(cfg: RunConfig, outdir):
    """greens.csv, written from per-k part files in k order.

    Each k's rows are computed and formatted in a worker item
    (_greens_rows), which writes them to a part file of its own in a
    temporary directory inside `outdir` and sends back only its four
    scalars; the text never travels through the pool's result pipe. Here
    each part is appended to greens.csv.tmp as its item completes and then
    deleted. The directory and whatever parts are left in it go on success
    and on any error, a worker that dies included, once the pool has shut
    down, so no worker still writes into it.
    """
    ks = _k_grid(cfg)

    def solve(cfg):
        return None, *_physical_bands(cfg, ks)[1:]

    # M is certified, and raised, before any row is written: greens.csv is streamed once
    cfg, _, diagnostics = _certified(cfg, solve)
    omega = cfg.drive.omega
    nu = np.linspace(-0.5 * omega, 0.5 * omega, cfg.numerics["nu_points"], endpoint=False)
    # the nu_unfolded column is the same at every k, and the k cells of every k come from
    # one call: both are formatted here, before the workers fork
    frequencies = open_system.unfolded_axis(nu, cfg.m_cut, omega)
    rows = functools.partial(_greens_rows, cfg, nu, _leading_cells(frequencies))
    k_text, k_keep = _leading_cells(ks)
    scalars = []
    with (_atomic_file(os.path.join(outdir, "greens.csv")) as handle,
          tempfile.TemporaryDirectory(prefix="greens.parts-", dir=outdir) as parts):
        items = [(os.path.join(parts, f"{i}.csv"), k, (k_text[i:i + 1], k_keep[i:i + 1]))
                 for i, k in enumerate(ks)]
        handle.write(b"nu_unfolded,k,A,N\n")
        # closed, which shuts the pool down, before the parts' directory goes
        with contextlib.closing(_worker_map(rows, items, cfg.workers)) as results:
            for (part, _, _), at_k in zip(items, results):
                with open(part, "rb") as source:
                    shutil.copyfileobj(source, handle)
                os.remove(part)
                scalars.append(at_k)
    peaks, sums, excesses, resolutions = np.array(scalars).T
    return {"summary_metric": float(peaks.max()), "numerics": cfg.numerics,
            "diagnostics": {**diagnostics, "spectral_sum": float(sums.min()),
                            "occupation_excess": float(excesses.max()),
                            "resolution": float(resolutions.max())}}


def task_ness(cfg: RunConfig, outdir):
    ness = open_system.find_ness(cfg.lindblad, cfg.drive.omega, tol=cfg.numerics["tol"],
                                 steps_per_period=cfg.numerics["steps_per_period"])
    header = ["t"]
    for i in range(2):
        for j in range(2):
            header.extend((f"rho_re_{i}{j}", f"rho_im_{i}{j}"))
    # a complex (n, 4) array viewed as float interleaves re and im
    table = np.column_stack((ness.times, ness.states.reshape(-1, 4).view(float)))
    _write_csv(os.path.join(outdir, "ness.csv"), ",".join(header), table)
    purity = float(np.real(np.trace(ness.rho0 @ ness.rho0)))
    health = {"residual": ness.residual, "gap": ness.gap}
    return {"summary_metric": purity, **health, "diagnostics": health}


TASK_RUNNERS = {
    "spectrum": task_spectrum,
    "hfe": task_hfe,
    "chern": task_chern,
    "greens": task_greens,
    "ness": task_ness,
}


def _make_output_dir(path):
    """Create an output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output: cannot create directory {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _output_dir(path):
    """Create the output directory `path` and yield it.

    When the block raises, the directories this created and left empty are removed, deepest first.
    """
    created = _missing_dirs(path)
    _make_output_dir(path)
    try:
        yield path
    except BaseException:
        for node in created:
            try:
                os.rmdir(node)
            except OSError:     # not empty: keep it and its ancestors
                break
        raise


def run_config(cfg: RunConfig):
    """Execute one validated config in its _output_dir; returns the task summary dict.

    A task's "diagnostics" go into the manifest, not the summary, and so do
    the "numerics" it used where it raised its M (_certified).
    """
    with _output_dir(cfg.output) as outdir:
        started = time.monotonic()
        summary = TASK_RUNNERS[cfg.task](cfg, outdir)
        extra = {"diagnostics": summary.pop("diagnostics")} if "diagnostics" in summary else {}
        _write_manifest(outdir, cfg.raw, task=cfg.task,
                        numerics=summary.pop("numerics", cfg.numerics),
                        wall_time_s=time.monotonic() - started, **extra)
    return summary


# ---------------------------------------------------------------------------
# sweep

def _set_by_path(raw, dotted, value):
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted}: path runs through a non-object")
    node[keys[-1]] = value


def _sweep_one(raw, parameter, value_dir):
    """Validate and run one sweep value into its own directory; its summary."""
    raw = copy.deepcopy(raw)
    value, outdir = value_dir
    _set_by_path(raw, parameter, value)
    raw["output"] = outdir
    return run_config(validate_config(raw))


def run_sweep(raw, parameter, values, workers=None):
    """One run per parameter value; aggregate CSV plus per-value directories.

    Each value runs in a worker process (_in_workers), at one worker too;
    `workers` defaults to FLOQUET_WORKERS. Individual failures, a worker that
    dies included, do not stop the sweep; they are recorded in the
    manifest and skipped in the aggregate. After a worker dies, each value
    its broken pool fails runs again alone, one at a time, so only the
    value that killed it fails. The warnings the values raised are
    re-raised here, in value order.
    """
    _require(values, "--values", "at least one value required")
    # float() reads nan, inf and 1e400, which manifest.json cannot hold
    _require(all(math.isfinite(v) for v in values), "--values",
             f"every value must be finite, got {list(values)}")
    leaf = parameter.split(".")[-1]
    names = [f"{leaf}_{value:.10g}" for value in values]
    clashes = sorted({name for name in names if names.count(name) > 1})
    _require(not clashes, "--values", f"values share an output directory: {clashes}")
    # results and failures are keyed by value, and -0.0 == 0.0
    _require(len(set(values)) == len(values), "--values", f"values repeat: {list(values)}")
    base = validate_config(raw)  # fail fast before spawning work
    # the numeric settings the run reads: every dotted key but two non-numeric ones
    numeric = [key for key in _reads(base.model, base.task)
               if "." in key and key not in ("drive.polarization", "lindblad.k")]
    _require(parameter in numeric, "--param", f"must name a numeric setting the {base.task!r} "
             f"task reads on {base.model!r}, one of {numeric}; got {parameter!r}")
    if workers is None:
        workers = base.workers
    _require(isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1,
             "workers", f"must be an integer >= 1, got {workers!r}")
    results, failures = {}, {}
    with _output_dir(base.output) as root:
        run_value = functools.partial(_sweep_one, raw, parameter)
        items = [(v, os.path.join(root, name)) for v, name in zip(values, names)]
        outcomes = _in_workers(run_value, items, workers)  # zipped first: it runs out
        for (summary, error), item, value in zip(outcomes, items, values):
            if isinstance(error, concurrent.futures.process.BrokenProcessPool):  # run alone
                [(summary, error)] = _in_workers(run_value, [item], 1)
            if error is None:
                results[value] = summary
            else:   # recorded, the sweep continues
                failures[value] = str(error)
        table = np.array([(v, results[v]["summary_metric"]) for v in values if v in results],
                         dtype=float).reshape(-1, 2)
        _write_csv(os.path.join(root, "sweep.csv"), "value,summary_metric", table)
        _write_manifest(root, raw, parameter=parameter, values=list(values),
                        failures={str(k): v for k, v in failures.items()})
    return results, failures


# ---------------------------------------------------------------------------
# entry point

# a config or --set value nested deeper than json's recursion limit
_TOO_DEEP = "nested deeper than the JSON reader allows"


def _load_raw(path):
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config: cannot read {path}: {_TOO_DEEP}") from None
    except (OSError, UnicodeDecodeError) as exc:   # a directory, no permission, not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"config: cannot read {path}: {reason}") from None
    # --output and --set write into the root before validate_config sees it
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    return raw


def _apply_overrides(raw, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        key, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except RecursionError:
            raise ConfigError(f"--set: {key}: {_TOO_DEEP}") from None
        _set_by_path(raw, key, value)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="floquet",
        description="Quasienergy spectra and steady states of driven systems")
    sub = parser.add_subparsers(dest="command", required=True)
    # the config and its overrides, shared by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config")
    common.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")

    p_run = sub.add_parser("run", parents=[common], help="execute one task from a JSON config")
    p_run.add_argument("--output", help="override the output directory")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run once per value of a config key")
    p_sweep.add_argument("--param", required=True, help="dotted config key to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")

    p_val = sub.add_parser("validate", parents=[common],
                           help="check a config as run would, creating nothing")
    p_val.add_argument("--output", help="override the output directory")

    args = parser.parse_args(argv)
    try:
        raw = _load_raw(args.config)
        _apply_overrides(raw, args.overrides)
        if getattr(args, "output", None) is not None:     # "" too: validate_config rejects it
            raw["output"] = args.output
        if args.command == "validate":
            validate_config(raw)
            print("config OK")
        elif args.command == "run":
            summary = run_config(validate_config(raw))
            print(json.dumps(summary, sort_keys=True, default=float, allow_nan=False))
        else:
            try:    # an empty item too: float("") raises
                values = [float(item) for item in args.values.split(",")]
            except ValueError:
                raise ConfigError(f"--values: not numeric: {args.values!r}") from None
            results, failures = run_sweep(raw, args.param, values)
            print(json.dumps({"completed": len(results), "failed": len(failures)}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - solver failure surface
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
