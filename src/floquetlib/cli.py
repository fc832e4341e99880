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
reports per model.

The replica cutoff numerics.M is the only cutoff a run takes. The chain1d
and honeycomb modes are built in closed form with every harmonic up to
M - 2 (sambe.SELECTION_MARGIN), so raising M raises both truncations; hfe,
which has no M, builds them up to highfreq.bessel_tail_order(A). M
defaults to max(ceil(A) + 10, mode cutoff) + 2 for spectrum and chern and
+ 6 for greens, the mode cutoff being 1 for dirac, the largest given
harmonic for custom and 0 for chain1d and honeycomb; drive.amplitude may
not exceed 50 where a cutoff derives from it.

Exit codes: 0 success, 2 config/schema error (an unreadable config file,
an output directory that cannot be created and a ness steps_per_period too
coarse for RK4 stability included), 3 solver error. A run that fails
removes the output directories it created while they are still empty.
Outputs are deterministic for a fixed config and written atomically (temp
+ rename), with a manifest.json recording the config hash, version, the
numerics the run read after defaults, and wall time.
For spectrum and chern it also holds "diagnostics": {"edge_weight": ...},
the physical band's largest Fourier weight in the edge blocks |m| = M over
all k; above 1e-13 the run warns that numerics.M is too small.

FLOQUET_WORKERS (default: the CPUs the process may use) caps the forked
worker processes (_in_workers) that run a sweep's values, greens's k-points
(each formatted as CSV text there, written here in k order) and chern's
grid rows (matched here in one ordered pass). Outputs and warnings do not
depend on it, and at 1 greens and chern fork nothing. spectrum stays
serial: a pool item costs more than its 0.8 ms solve per k.
"""

import argparse
import collections
import concurrent.futures
import contextlib
import copy
import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

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
_BUILT_IN = ("chain1d", "dirac", "honeycomb")
MODEL_KEYS = {"custom_modes": ("custom",), "lindblad.k": _BUILT_IN, "drive.amplitude": _BUILT_IN,
              "drive.polarization": _BUILT_IN}
# the models whose mode sets the CLI cuts, at M - sambe.SELECTION_MARGIN (see _model_at)
_LATTICES = ("chain1d", "honeycomb")
# the largest A from which a cutoff may derive: the default M = ceil(A) + 12 or more,
# and the bessel_tail_order(A) harmonics of hfe's lattice modes
MAX_DEFAULT_AMPLITUDE = 50.0
# the physical band's largest Fourier weight in the edge blocks |m| = M above
# which spectrum and chern warn; see _certify_cutoff
EDGE_WEIGHT_TOL = 1e-13
CSV_BLOCK_ROWS = 8192    # rows formatted and written per block by _write_csv


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
    lindblad_gamma: float = 0.0                 # ness only
    lindblad_k: tuple = (0.0, 0.0)              # ness only
    custom_modes: models.FourierModeSet = None
    write_curvature: bool = False
    summary_metric: str = "J_eff"               # the hfe.json key hfe sums up
    workers: int = 1                            # greens and chern: FLOQUET_WORKERS
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
    default_pol = "linear" if model == "chain1d" else "circular"
    polarization = drive_raw.get("polarization", default_pol)
    _require(polarization == default_pol, "drive.polarization",
             f"model {model!r} is defined for {default_pol} polarization, got {polarization!r}")
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

    lindblad_gamma, lindblad_k = 0.0, (0.0, 0.0)
    if task == "ness":
        lindblad = raw.get("lindblad", {})
        gamma = lindblad.get("gamma")
        _require(_is_number(gamma) and gamma > 0, "lindblad.gamma",
                 "ness task needs a positive lindblad.gamma")
        kpt = lindblad.get("k", [0.0, 0.0])
        _require(isinstance(kpt, list) and len(kpt) == 2
                 and all(_is_number(v) for v in kpt), "lindblad.k",
                 "must be a [kx, ky] pair")
        lindblad_gamma, lindblad_k = float(gamma), (float(kpt[0]), float(kpt[1]))

    custom = None
    if model == "custom":
        triples = raw.get("custom_modes")
        _require(isinstance(triples, list) and triples, "custom_modes",
                 "custom model needs a non-empty list of (n, re, im) triples")
        try:
            custom = models.custom_modes(float(omega), triples)
        except ValueError as exc:
            raise ConfigError(f"custom_modes: {exc}") from None
        if task == "ness":
            _require(custom.dim == 2, "custom_modes",
                     f"ness task needs a two-level model (2x2 modes), got {custom.dim}x{custom.dim}")

    curvature = raw.get("write_curvature", False)
    _require(isinstance(curvature, bool), "write_curvature",
             f"must be true or false, got {curvature!r}")
    metric = raw.get("summary_metric", HFE_REPORT[model][0])     # given only to hfe
    _require(metric in HFE_REPORT[model], "summary_metric",
             f"{metric!r} not in the {model!r} hfe report {list(HFE_REPORT[model])}")

    drive = models.DriveProtocol(omega=float(omega), amplitude=float(amplitude),
                                 polarization=polarization)
    # the largest harmonic of a mode set M must hold; the lattice modes take theirs from M
    mode_cutoff = 1 if model == "dirac" else custom.n_max if custom else 0
    # the Sambe matrix needs M >= the model's mode cutoff, and replica selection
    # (spectrum, chern) its margin beyond it. That margin is also their default,
    # certified by _certify_cutoff; greens defaults to six blocks, since its M
    # sets how many zones the unfolded frequency axis covers.
    margin = sambe.SELECTION_MARGIN if task in ("spectrum", "chern") else 0
    m_cut = numerics.setdefault(
        "M", max(models.suggested_n_max(drive.amplitude), mode_cutoff) + (margin or 6))
    if "numerics.M" in reads:
        # the lattice modes end at M - SELECTION_MARGIN, which must not be negative
        need = sambe.SELECTION_MARGIN if model in _LATTICES else mode_cutoff + margin
        _require(m_cut >= need, "numerics.M",
                 f"must be >= {need} for the {model!r} modes in task {task!r}, got {m_cut}")
    numerics = {key: value for key, value in numerics.items() if f"numerics.{key}" in reads}
    # greens spreads its k-points, chern its grid rows over worker processes
    workers = _env_workers() if task in ("greens", "chern") else 1
    cfg = RunConfig(model=model, task=task, drive=drive, output=output, numerics=numerics,
                    bath=bath, lindblad_gamma=lindblad_gamma, lindblad_k=lindblad_k,
                    custom_modes=custom, write_curvature=curvature, summary_metric=metric,
                    workers=workers, raw=copy.deepcopy(raw))
    if task == "ness":
        # find_ness's RK4 stability check, made before any output exists
        period = 2.0 * math.pi / drive.omega
        steps = numerics["steps_per_period"]
        system = _lindblad_system(cfg)
        try:
            open_system.rk4_samples(system, 0.0, period, period / steps)
        except ValueError as exc:
            fewest = open_system.fewest_rk4_steps(system, 0.0, period, steps)
            raise ConfigError(f"numerics.steps_per_period: {steps} is too few: {exc}; "
                              f"the fewest that pass are {fewest}") from None
    return cfg


# ---------------------------------------------------------------------------
# model wiring

def _model_at(cfg: RunConfig, kx=0.0, ky=0.0):
    """The configured model at momentum (kx, ky): (H(t) sampler, mode-set builder).

    The chain1d and honeycomb modes hold every harmonic up to
    M - SELECTION_MARGIN, as many as replica selection leaves room for, so
    M is the run's only cutoff; hfe, which has no M, takes them up to
    highfreq.bessel_tail_order(A).
    """
    drive = cfg.drive
    n_max = (cfg.m_cut - sambe.SELECTION_MARGIN if "M" in cfg.numerics
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


def _lindblad_system(cfg: RunConfig):
    """The ness task's two-level system at lindblad.k, decaying at rate lindblad.gamma."""
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return open_system.LindbladSystem(hamiltonian=_model_at(cfg, *cfg.lindblad_k)[0],
                                      jumps=[np.sqrt(cfg.lindblad_gamma) * lowering])


def _k_grid(cfg: RunConfig):
    numerics = cfg.numerics
    return np.linspace(numerics["k_min"], numerics["k_max"], numerics["n_k"], endpoint=False)


# ---------------------------------------------------------------------------
# output helpers

def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, table):
    """Write an (n_rows, n_cols) float array under a header line.

    Every value prints exactly as '%.12g' % v would, so integral values
    (branch and replica indices) print as str(int) would. The table goes
    out CSV_BLOCK_ROWS rows at a time, each block turned into bytes by a
    numpy kernel (`_csv_bytes`) with no Python call per value:

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
    with _csv_file(path, header) as handle:
        for block in _csv_blocks(table):
            handle.write(block)


@contextlib.contextmanager
def _csv_file(path, header):
    """A binary file open behind its header line, written to path + ".tmp".

    Renamed to `path` when the block exits; removed when it raises.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(header.encode() + b"\n")
            yield handle
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _csv_blocks(table):
    """The rows of a float table as CSV text, one uint8 array per CSV_BLOCK_ROWS rows."""
    template = np.tile(np.frombuffer(_SLOT_TEMPLATE, np.uint8), (table.shape[1], 1))
    template[:-1, -1] = ord(",")
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        yield _csv_bytes(table[start:start + CSV_BLOCK_ROWS], template)


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


_KEEP = _keep_table()


def _exact_text(values):
    """'%.12g' % v of each value, as fixed-width bytes (the kernel's fallback)."""
    return np.array(["%.12g" % v for v in values.tolist()], dtype=f"S{_SLOT - 1}")


def _bytes_field(slot, start, width):
    """Bytes start:start+width of every slot, one void item per slot."""
    return slot[:, start:start + width].view(f"V{width}")[:, 0]


def _csv_bytes(block, template):
    """CSV text of an (n_rows, n_cols) float block as a 1-d uint8 array.

    `template` is an (n_cols, _SLOT) uint8 array, each row a slot template
    ending in that column's separator.
    """
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

    slot = np.empty((x.size, _SLOT), np.uint8)
    slot.view(f"V{_SLOT}").reshape(len(block), -1)[:] = template.view(f"V{_SLOT}")[:, 0]
    digits = digits.view("V12")[:, 0]
    _bytes_field(slot, _INT, 12)[:] = digits
    _bytes_field(slot, _FRAC, 12)[:] = digits
    del digits
    _bytes_field(slot, _EXP, 5)[:] = _EXP_FIELDS.take(e + 400)
    # the dot after digit e in fixed notation, after d0 in exponent form; for
    # e < 0 it lands on an unused digit of the first copy
    lead = np.where(fixed, e, 0)
    slot.ravel()[np.arange(_FRAC, slot.size, _SLOT) + lead] = ord(".")
    del e, fixed, lead
    keep = _KEEP.take(key, axis=0)
    del key
    exact = np.flatnonzero(~(certain | zero))
    if exact.size:
        text = _exact_text(x[exact]).view(np.uint8).reshape(exact.size, _SLOT - 1)
        slot[exact, :-1] = text
        keep[exact, :-1] = text != 0
    return slot[keep]


def _write_json(path, payload):
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_hash(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# worker processes

def _env_workers():
    """Worker count from FLOQUET_WORKERS (default: the CPUs this process may use)."""
    text = os.environ.get("FLOQUET_WORKERS")
    if text is None:
        if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(text)
    except ValueError:
        raise ConfigError(f"FLOQUET_WORKERS: not an integer: {text!r}") from None
    _require(workers >= 1, "FLOQUET_WORKERS", f"must be at least 1, got {workers}")
    return workers


# In a pool worker process: the function and items its pool runs. Set there by
# _start_worker when the worker is forked, so neither is ever pickled.
_worker_job = None


def _start_worker(fn, items):
    global _worker_job
    _worker_job = fn, items


def _run_item(index):
    """fn(items[index]) in a pool worker: (result, exception, warnings raised).

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


def _in_workers(fn, items, workers, isolate=False):
    """Yield (fn(item), None) or (None, the exception it raised) per item, in order.

    The calls run in a pool of up to `workers` processes forked from this
    one: they inherit the imported library, where a fresh import of numpy
    and scipy per worker (spawn, forkserver) costs about 0.45 s, and `fn`
    and `items` reach them without pickling; the library itself starts no
    thread that a fork could catch holding a lock. Items are submitted at
    most 2 x `workers` ahead of the one being yielded, so the results
    waiting here stay few however many items there are. Each item's
    warnings are re-raised here (_relay) just before its outcome is
    yielded; a worker that dies fails every item it had not finished with
    BrokenProcessPool.

    The calls run here, one after another, inside a pool worker (pools do
    not nest), where the platform cannot fork, and with one worker unless
    `isolate` asks for a process of its own even then.
    """
    items = list(items)
    if (multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()
            or (workers == 1 and not isolate)):
        for item in items:
            try:
                yield fn(item), None
            except Exception as exc:  # noqa: BLE001 - the caller decides
                yield None, exc
        return
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(items)), mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn, items)) as pool:
        submitted = min(2 * workers, len(items))
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
    """Yield fn(item) per item, in order, through _in_workers; an item's exception is raised."""
    for result, error in _in_workers(fn, items, workers):
        if error is not None:
            raise error
        yield result


# ---------------------------------------------------------------------------
# tasks

def _certify_cutoff(cfg: RunConfig, weights):
    """Truncation certificate of a run's physical band, as manifest diagnostics.

    `weights` are the band's Fourier weights over every k of the run, the
    block index m on axis -2 and the states on axis -1. The certificate is
    their largest value in the edge blocks m = +-M. A weight above
    EDGE_WEIGHT_TOL = 1e-13 warns, once per run. The weight tracks the
    truncation error of the quasienergies but bounds it by no fixed
    factor: on honeycomb at omega = 1, A = 4 (12 seeded k against a full
    solve at M = 60) M = 24 left an error of 1.15e-12 at a weight of
    9.2e-14, which does not warn, M = 25 an error 33 times its weight, and
    a single k up to 135 times its own.
    """
    edge = float(np.max(weights[..., [0, -1], :]))
    if edge > EDGE_WEIGHT_TOL:
        warnings.warn(
            f"the physical band has Fourier weight {edge:.1e} > {EDGE_WEIGHT_TOL:g} in the "
            f"edge blocks |m| = M = {cfg.m_cut}: quasienergy errors of over 30 times such a "
            "weight have been measured; raise numerics.M", stacklevel=3)
    return {"edge_weight": edge}


def task_spectrum(cfg: RunConfig, outdir):
    ks = _k_grid(cfg)
    bands = [sambe.physical_band(_modes(cfg, k), cfg.m_cut) for k in ks]
    dim = bands[0].dim
    # (n_k, 2M + 1, dim): the replica centre, weight0 and the certificate read it
    weights = sambe.fourier_weights(np.stack([sol.vectors for sol in bands]), dim)
    table = np.column_stack((
        np.repeat(ks, dim), np.tile(np.arange(dim), ks.size),
        (np.argmax(weights, axis=1) - cfg.m_cut).ravel(),
        np.concatenate([sol.quasienergies for sol in bands]), weights[:, cfg.m_cut].ravel()))
    _write_csv(os.path.join(outdir, "spectrum.csv"),
               "k,branch,n_replica,quasienergy,weight0", table)
    band = table[:, 3]
    return {"summary_metric": float(band.max() - band.min()),
            "diagnostics": _certify_cutoff(cfg, weights)}


def task_hfe(cfg: RunConfig, outdir):
    amplitude, omega = cfg.drive.amplitude, cfg.drive.omega
    report = {"J_eff": lambda: highfreq.effective_hopping_1d(1.0, amplitude),
              "K_eff": lambda: highfreq.haldane_effective(1.0, amplitude, omega).k_eff,
              "dirac_gap": lambda: highfreq.dirac_gap(amplitude, omega),
              "correction_norm": lambda: highfreq.van_vleck_hf(_modes(cfg)).correction_norm}
    payload = {key: float(report[key]()) for key in HFE_REPORT[cfg.model]}
    _write_json(os.path.join(outdir, "hfe.json"), payload)
    return {"summary_metric": payload[cfg.summary_metric], **payload}


def task_chern(cfg: RunConfig, outdir):
    solver = topology.floquet_band_solver(functools.partial(_modes, cfg), cfg.m_cut)
    grid = topology.band_grid(solver, cfg.numerics["Nk"],
                              map_rows=functools.partial(_worker_map, workers=cfg.workers))
    reports = []
    for band in range(grid.n_bands):
        fieldvals = topology.berry_curvature_grid(grid, band)
        number = topology.chern_number(fieldvals)
        residual = abs(fieldvals.total / (2.0 * np.pi) - number)
        reports.append({"band": band, "chern": number,
                        "residual": float(residual), "min_gap": fieldvals.min_gap})
        if cfg.write_curvature:
            # plaquette (i, j) centre at ((i+1/2) b1 + (j+1/2) b2) / nk, i outer
            frac = (np.arange(grid.nk) + 0.5) / grid.nk
            kvec = frac[:, None, None] * grid.b1 + frac[None, :, None] * grid.b2
            table = np.column_stack((kvec.reshape(-1, 2), fieldvals.flux.ravel()))
            _write_csv(os.path.join(outdir, f"curvature_band{band}.csv"),
                       "kx,ky,F", table)
    _write_json(os.path.join(outdir, "chern.json"), {"bands": reports})
    weights = sambe.fourier_weights(grid.vectors, grid.n_bands)
    return {"summary_metric": float(reports[0]["chern"]), "bands": reports,
            "diagnostics": _certify_cutoff(cfg, weights)}


def _greens_rows(cfg: RunConfig, nu, k):
    """The greens.csv text of the (nu, k, A, N) rows at one k, and the peak of A there."""
    grid = open_system.floquet_greens(_modes(cfg, k), cfg.bath, cfg.m_cut, nu)
    freqs, spec = open_system.spectral_function(grid)
    _, occ = open_system.occupation_function(grid)
    rows = np.column_stack((freqs, np.full(freqs.size, k), spec, occ))
    return b"".join(_csv_blocks(rows)), spec.max()


def task_greens(cfg: RunConfig, outdir):
    omega = cfg.drive.omega
    nu = np.linspace(-0.5 * omega, 0.5 * omega, cfg.numerics["nu_points"], endpoint=False)
    peaks = []
    # each k's rows are formatted where they are computed and written in k order
    with _csv_file(os.path.join(outdir, "greens.csv"), "nu_unfolded,k,A,N") as handle:
        for text, peak in _worker_map(functools.partial(_greens_rows, cfg, nu), _k_grid(cfg),
                                      cfg.workers):
            handle.write(text)
            peaks.append(peak)
    return {"summary_metric": float(max(peaks))}


def task_ness(cfg: RunConfig, outdir):
    ness = open_system.find_ness(_lindblad_system(cfg), cfg.drive.omega, tol=cfg.numerics["tol"],
                                 steps_per_period=cfg.numerics["steps_per_period"])
    header = ["t"]
    for i in range(2):
        for j in range(2):
            header.extend((f"rho_re_{i}{j}", f"rho_im_{i}{j}"))
    # a complex (n, 4) array viewed as float interleaves re and im
    table = np.column_stack((ness.times, ness.states.reshape(-1, 4).view(float)))
    _write_csv(os.path.join(outdir, "ness.csv"), ",".join(header), table)
    purity = float(np.real(np.trace(ness.rho0 @ ness.rho0)))
    return {"summary_metric": purity, "residual": ness.residual, "gap": ness.gap}


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


def run_config(cfg: RunConfig):
    """Execute one validated config; returns the task summary dict.

    A task's "diagnostics" go into the manifest, not the summary. When the
    task raises, the directories this run created and left empty are
    removed again, deepest first.
    """
    outdir = cfg.output
    created = _missing_dirs(outdir)
    _make_output_dir(outdir)
    started = time.monotonic()
    try:
        summary = TASK_RUNNERS[cfg.task](cfg, outdir)
    except BaseException:
        for path in created:
            try:
                os.rmdir(path)
            except OSError:     # not empty: keep it and its ancestors
                break
        raise
    manifest = {
        "config_sha256": config_hash(cfg.raw),
        "version": __version__,
        "task": cfg.task,
        "numerics": cfg.numerics,
        "wall_time_s": time.monotonic() - started,
    }
    if "diagnostics" in summary:
        manifest["diagnostics"] = summary.pop("diagnostics")
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
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

    Each value runs in a worker process of its own pool (_in_workers, with
    `isolate`, so one worker forks too). Individual failures, a worker that
    dies included, do not stop the sweep; they are recorded in the
    manifest and skipped in the aggregate. The warnings the values raised
    are re-raised here, in value order.
    """
    if not values:
        raise ConfigError("--values: at least one value required")
    # float() reads nan, inf and 1e400, which manifest.json cannot hold
    _require(all(math.isfinite(v) for v in values), "--values",
             f"every value must be finite, got {list(values)}")
    leaf = parameter.split(".")[-1]
    names = [f"{leaf}_{value:.10g}" for value in values]
    clashes = sorted({name for name in names if names.count(name) > 1})
    _require(not clashes, "--values", f"values share an output directory: {clashes}")
    base = validate_config(raw)  # fail fast before spawning work
    # the numeric settings the run reads: every dotted key but two non-numeric ones
    numeric = [key for key in _reads(base.model, base.task)
               if "." in key and key not in ("drive.polarization", "lindblad.k")]
    _require(parameter in numeric, "--param", f"must name a numeric setting the {base.task!r} "
             f"task reads on {base.model!r}, one of {numeric}; got {parameter!r}")
    if workers is None:
        workers = _env_workers()
    _require(isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1,
             "workers", f"must be an integer >= 1, got {workers!r}")
    root = base.output
    _make_output_dir(root)

    results, failures = {}, {}
    outcomes = _in_workers(functools.partial(_sweep_one, raw, parameter),
                           [(v, os.path.join(root, name)) for v, name in zip(values, names)],
                           workers, isolate=True)
    for (summary, error), value in zip(outcomes, values):    # outcomes first: it runs out
        if error is None:
            results[value] = summary
        else:   # recorded, the sweep continues
            failures[value] = str(error)
    table = np.array([(v, results[v]["summary_metric"]) for v in values if v in results],
                     dtype=float).reshape(-1, 2)
    _write_csv(os.path.join(root, "sweep.csv"), "value,summary_metric", table)
    manifest = {
        "config_sha256": config_hash(raw),
        "version": __version__,
        "parameter": parameter,
        "values": list(values),
        "failures": {str(k): v for k, v in failures.items()},
    }
    _write_json(os.path.join(root, "manifest.json"), manifest)
    return results, failures


# ---------------------------------------------------------------------------
# entry point

def _load_raw(path):
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None
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
        if getattr(args, "output", None):
            raw["output"] = args.output
        if args.command == "validate":
            validate_config(raw)
            print("config OK")
            return 0
        if args.command == "run":
            cfg = validate_config(raw)
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"--values: not numeric: {args.values!r}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            summary = run_config(cfg)
            print(json.dumps(summary, sort_keys=True, default=float))
            return 0
        results, failures = run_sweep(raw, args.param, values)
        print(json.dumps({"completed": len(results), "failed": len(failures)}))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - solver failure surface
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
