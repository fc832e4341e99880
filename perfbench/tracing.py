"""Per-layer tracing of floquetlib from outside the library.

The tracer replaces public functions of each module with wrappers at
every namespace that binds them (the package, the defining module and
any module that imported the name), so calls are seen whichever route
the caller takes. A wrapper either records a span (name, start, end,
parent, operation id) or, on hot paths where a span would distort the
time, only counts calls. Spans stay in memory until `dump`.
"""

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict


def _n_steps(args, kwargs):
    return kwargs.get("n_steps", args[3] if len(args) > 3 else 0)


def _observe_select(tracer, args, kwargs, result):
    tracer.add("sambe.kept", result.n_states)
    tracer.add("sambe.computed", args[0].n_states)


def _observe_greens(tracer, args, kwargs, result):
    tracer.add("open_system.floquet_greens.bytes_computed",
               result.g_retarded.nbytes + result.g_keldysh.nbytes)
    tracer.add("open_system.greens.used", len(result.nu) * result.n_blocks * result.dim ** 2)
    tracer.add("open_system.greens.computed", result.g_keldysh.size)


def _observe_ness(tracer, args, kwargs, result):
    tracer.add("open_system.find_ness.periods", result.periods)
    tracer.peak("open_system.find_ness.residual", result.residual)


# (defining module, attribute, kind, observer). kind "span" records a span,
# "count" only counts calls; an observer adds quantities from the arguments
# and result. Writers are counted, not spanned, so run_config's self time
# keeps the row formatting and writing.
TARGETS = [
    ("models", "honeycomb_modes", "span", None),
    ("models", "fourier_modes", "span", None),
    ("bessel", "bessel_j", "count", None),
    ("sambe", "build_floquet_matrix", "span", None),
    ("sambe", "quasienergies", "span", None),
    ("sambe", "select_physical_band", "span", _observe_select),
    ("topology", "band_grid", "span", None),
    ("topology", "berry_curvature_grid", "span", None),
    ("propagator", "evolve", "span",
     lambda tracer, args, kwargs, result: tracer.add("propagator.evolve.steps",
                                                      _n_steps(args, kwargs))),
    ("propagator", "quasienergies_from_monodromy", "span", None),
    ("propagator", "stroboscopic_hf", "span", None),
    ("open_system", "floquet_greens", "span", _observe_greens),
    ("open_system", "spectral_function", "span", None),
    ("open_system", "occupation_function", "span", None),
    ("open_system", "find_ness", "span", _observe_ness),
    ("open_system", "evolve_lindblad", "span", None),
    ("open_system", "lindblad_rhs", "count", None),
    ("cli", "run_config", "span", None),
    ("cli", "run_sweep", "span", None),
    ("cli", "_write_csv", "count",
     lambda tracer, args, kwargs, result: tracer.add("cli.output.rows", len(args[2]))),
    ("cli", "_write_atomic", "count",
     lambda tracer, args, kwargs, result: tracer.add("cli.output.bytes", len(args[1]))),
]
SAMPLERS = ("sample_chain_1d", "sample_dirac", "sample_honeycomb")


class Tracer:
    """Wraps floquetlib functions; records spans, call counts and quantities."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, thread, cpu)
        self.calls = Counter()   # per traced name
        self.via = defaultdict(Counter)  # name -> namespace -> calls
        self.quantities = defaultdict(float)
        self.op = None           # operation id the benchmark is running
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording -------------------------------------------------------

    def add(self, key, value):
        with self._lock:
            self.quantities[key] += value

    def peak(self, key, value):
        with self._lock:
            self.quantities[key] = max(self.quantities[key], value)

    def _count(self, name, namespace):
        with self._lock:
            self.calls[name] += 1
            self.via[name][namespace] += 1

    def _wrap(self, fn, name, namespace, kind, observer):
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                tracer._count(name, namespace)
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(tracer, args, kwargs, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            tracer._count(name, namespace)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0, start = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, cpu1 = time.perf_counter(), time.thread_time()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op,
                                     threading.get_ident(), cpu1 - cpu0))
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result
        return spanned

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target at every floquetlib namespace that binds it."""
        from floquetlib import models

        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == "floquetlib" or name.startswith("floquetlib.")}
        for module, attr, kind, observer in TARGETS:
            original = getattr(namespaces[f"floquetlib.{module}"], attr)
            self._rebind(namespaces, original, f"{module}.{attr}", kind, observer)
        for attr in SAMPLERS:
            self._rebind(namespaces, getattr(models, attr), "models.sample", "count", None)
        sample = models.FourierModeSet.sample
        models.FourierModeSet.sample = self._wrap(sample, "models.sample", "FourierModeSet",
                                                  "count", None)
        self._undo.append((models.FourierModeSet, "sample", sample))

    def _rebind(self, namespaces, original, name, kind, observer):
        for ns_name, module in namespaces.items():
            short = ns_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, self._wrap(original, name, short, kind, observer))
                    self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived numbers -------------------------------------------------

    def span_totals(self):
        """Per name: (busy seconds, self seconds) over all recorded spans.

        Busy time is the span's thread CPU time, so spans on the two sweep
        threads do not count the time they wait for the interpreter lock;
        self time subtracts the busy time of the span's children.
        """
        child_cpu = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_cpu[span[4]] += span[7]
        totals = defaultdict(lambda: [0.0, 0.0])
        for span_id, name, _, _, _, _, _, cpu in self.spans:
            totals[name][0] += cpu
            totals[name][1] += cpu - child_cpu[span_id]
        return totals

    def parallel_efficiency(self, workers):
        """Busy CPU of sweep workers / (workers x sweep wall), over all sweeps.

        A sweep's worker runs are the run_config spans of its operation
        recorded on other threads. Thread CPU time, unlike the per-value
        wall time in the sweep manifests, excludes time spent waiting for
        the interpreter lock, so two workers that take turns read 1/2.
        """
        busy = capacity = 0.0
        for _, name, start, end, _, op, thread, _ in self.spans:
            if name == "cli.run_sweep":
                busy += sum(s[7] for s in self.spans
                            if s[1] == "cli.run_config" and s[5] == op and s[6] != thread)
                capacity += workers * (end - start)
        return busy / capacity if capacity else 0.0

    def dump(self, path):
        """Write spans (one JSON list per line) and the call counts."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"calls": self.calls, "via": self.via,
                                     "quantities": self.quantities}) + "\n")


# per-layer metric -> unit; counts, times and quantities are per traced round
LAYER_UNITS = {
    "models.honeycomb_modes.calls": "count",
    "models.honeycomb_modes.self_s": "s",
    "models.fourier_modes.calls": "count",
    "models.fourier_modes.self_s": "s",
    "bessel.bessel_j.calls": "count",
    "models.sample.calls": "count",
    "sambe.build_floquet_matrix.calls": "count",
    "sambe.build_floquet_matrix.s": "s",
    "sambe.quasienergies.calls": "count",
    "sambe.quasienergies.s": "s",
    "sambe.kept_frac": "ratio",
    "sambe.select_physical_band.s": "s",
    "topology.band_grid.self_s": "s",
    "topology.berry_curvature_grid.s": "s",
    "cli.run_sweep.parallel_efficiency": "ratio",
    "propagator.evolve.calls": "count",
    "propagator.evolve.s": "s",
    "propagator.evolve.steps": "count",
    "propagator.quasienergies_from_monodromy.s": "s",
    "propagator.stroboscopic_hf.s": "s",
    "open_system.floquet_greens.calls": "count",
    "open_system.floquet_greens.s": "s",
    "open_system.floquet_greens.bytes_computed": "B",
    "open_system.greens.used_frac": "ratio",
    "open_system.spectral_function.s": "s",
    "open_system.occupation_function.s": "s",
    "cli.run_config.self_s": "s",
    "cli.output.bytes": "B",
    "cli.output.rows": "count",
    "open_system.find_ness.s": "s",
    "open_system.find_ness.periods": "count",
    "open_system.find_ness.residual": "ratio",
    "open_system.evolve_lindblad.calls": "count",
    "open_system.evolve_lindblad.s": "s",
    "open_system.lindblad_rhs.calls": "count",
}


def layer_metrics(tracer, n_rounds, sweep_workers):
    """Values of every LAYER_UNITS metric, per traced round of the workload."""
    totals = tracer.span_totals()
    q = tracer.quantities
    out = {}
    for metric in LAYER_UNITS:
        layer, quantity = metric.rsplit(".", 1)
        if quantity == "calls":
            out[metric] = tracer.calls[layer] / n_rounds
        elif quantity == "s":
            out[metric] = totals[layer][0] / n_rounds if layer in totals else 0.0
        elif quantity == "self_s":
            out[metric] = totals[layer][1] / n_rounds if layer in totals else 0.0
        elif metric != "open_system.find_ness.residual":
            out[metric] = q[metric] / n_rounds
    out["sambe.kept_frac"] = _ratio(q["sambe.kept"], q["sambe.computed"])
    out["open_system.greens.used_frac"] = _ratio(q["open_system.greens.used"],
                                                 q["open_system.greens.computed"])
    out["open_system.find_ness.residual"] = q["open_system.find_ness.residual"]
    out["cli.run_sweep.parallel_efficiency"] = tracer.parallel_efficiency(sweep_workers)
    return out


def _ratio(num, den):
    return num / den if den else 0.0
