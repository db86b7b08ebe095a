"""Span tracing of starkit's public functions, installed from outside.

`Tracer.install()` wraps every public function defined in each layer
module and rebinds every module-level reference to it across the package,
so a name brought in with `from .star import star_product` is timed in
`transition`, `oscillator`, `verify` and `cli` as well as in `star`.  The
program's files are not edited; `uninstall()` restores the originals.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children.  Counters are taken at the same
boundaries, so ratios are measured where the work happens.
"""

import os
import time
import types
from array import array

import numpy as np

# The package modules, which are the benchmark's layers.  `_accel` is
# private: its kernels are timed through `symbols.evaluate_grid` and
# `numerics.rk4_evolve`.
LAYERS = ("symbols", "expr", "star", "transition", "oscillator", "dynamics",
          "numerics", "verify", "cli")

# evaluate_grid calls on fewer nodes than this are "small" (the 9x9
# equality lattice, quadrature tiles); 201x201 sampling is "large".
SMALL_GRID_NODES = 10_000

# complex128 arrays touched by one classical RK4 step: four stage inputs
# read, four stage slopes written, slopes and state read by the update and
# the new state written.
RK4_ARRAYS_PER_STEP = 14
COMPLEX_BYTES = 16


def _distinct_exponents(f):
    return len({t.expo for t in f.terms})


class Tracer:
    """Records spans and counters for calls into the starkit layers."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names = []
        self.name_ids = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack = []
        self.counters = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._patches = []
        osc = self.modules["oscillator"]
        self._cached = (osc.sho_wigner_eigenstate, osc.sho_offdiagonal)
        self._cache_base = None

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        idx = self.name_ids.get(name)
        if idx is None:
            idx = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name):
        sid = len(self.sp_start)
        self.sp_name.append(self._name_id(name))
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_start.append(time.perf_counter())
        self.sp_end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.sp_end[sid] = time.perf_counter()
        self.stack.pop()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span; used for the benchmark's ops."""
        sid = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def _wrap(self, layer, qualname, fn):
        namer = _NAMERS.get(qualname, lambda args: qualname)
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        tracer = self
        base_error = self.package.errors.StarkitError

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            sid = tracer.open(namer(args))
            try:
                result = fn(*args, **kwargs)
            except base_error as exc:
                # count a typed error once, in the layer it left first
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def public_functions(self):
        """{id(original): (layer, qualname, original)} for every layer."""
        found = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                found[id(obj)] = (layer, f"{layer}.{attr}", obj)
        return found

    def install(self):
        found = self.public_functions()
        wrappers = {key: self._wrap(layer, qualname, fn)
                    for key, (layer, qualname, fn) in found.items()}
        prefix = self.package.__name__ + "."
        targets = [self.package] + [
            mod for mod in vars(self.package).values()
            if isinstance(mod, types.ModuleType)
            and mod.__name__.startswith(prefix)]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self._cache_base = self._cache_counts()

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        hits, misses = (a - b for a, b in zip(self._cache_counts(),
                                               self._cache_base))
        self.counters["oscillator.cache_hits"] = hits
        self.counters["oscillator.cache_misses"] = misses

    def _cache_counts(self):
        hits = misses = 0
        for fn in self._cached:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- results ---------------------------------------------------------

    def span_arrays(self):
        return (np.frombuffer(self.sp_name, dtype=np.int32),
                np.frombuffer(self.sp_parent, dtype=np.int32),
                np.frombuffer(self.sp_start, dtype=np.float64),
                np.frombuffer(self.sp_end, dtype=np.float64))

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        name, parent, start, end = self.span_arrays()
        n_names = len(self.names)
        if not len(name):
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        excl = np.bincount(name, weights=self_time, minlength=n_names)
        return {nm: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path):
        name, parent, start, end = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


# -- per-function span names and counters --------------------------------

def _star_namer(args):
    f, g = args[0], args[1]
    if f.is_polynomial() or g.is_polynomial():
        return "star.star_product.series"
    return "star.star_product.gaussian_pair"


def _grid_namer(args):
    size = np.size(args[1])
    return ("symbols.evaluate_grid.small" if size < SMALL_GRID_NODES
            else "symbols.evaluate_grid.large")


def _normalize_before(tracer, args):
    tracer.count("symbols.normalize.terms_in", len(args[0]))


def _normalize_after(tracer, args, result):
    tracer.count("symbols.normalize.terms_out", len(result.terms))


def _star_after(tracer, args, result):
    tracer.count("star.star_product.terms_out", len(result.terms))


def _apply_after(tracer, args, result):
    f = args[1]
    tracer.count("transition.apply.terms_in", len(f.terms))
    tracer.count("transition.apply.exponents_in", _distinct_exponents(f))


def _grid_after(tracer, args, result):
    f = args[0]
    tracer.count("symbols.evaluate_grid.term_nodes",
                 len(f.terms) * np.size(args[1]))
    tracer.count("symbols.evaluate_grid.terms", len(f.terms))
    tracer.count("symbols.evaluate_grid.exponents", _distinct_exponents(f))


def _rk4_after(tracer, args, result):
    nodes = result.values.size
    t, dt = args[2], args[3]
    steps = max(1, round(t / dt))
    tracer.count("numerics.rk4_evolve.node_steps", nodes * steps)
    tracer.count("numerics.rk4_evolve.steps", steps)


def _export_after(tracer, args, result):
    tracer.count("numerics.export_grid.bytes", os.path.getsize(args[2]))


_NAMERS = {
    "star.star_product": _star_namer,
    "symbols.evaluate_grid": _grid_namer,
}
_BEFORE = {"symbols.normalize": _normalize_before}
_AFTER = {
    "symbols.normalize": _normalize_after,
    "star.star_product": _star_after,
    "transition.apply": _apply_after,
    "symbols.evaluate_grid": _grid_after,
    "numerics.rk4_evolve": _rk4_after,
    "numerics.export_grid": _export_after,
}


def layer_metrics(tracer, specs, overhead_ratio):
    """Values for the per-layer metric specs ({"name", "unit"}) of a run.

    `<span>.calls`, `<span>.self_s` and `verify.<suite>.s` (inclusive
    suite time) come from the spans, `<layer>.errors` from the typed-error
    counts, and the rest from the counters below.  A layer the workload
    never reached reads 0.
    """
    totals = tracer.totals()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def merged(terms_in, terms_out):
        """Share of input terms merged away or pruned."""
        return 1.0 - terms_out / terms_in if terms_in else 0.0

    def total(span, idx):
        return totals.get(span, (0, 0.0, 0.0))[idx]

    derived = {
        "symbols.normalize.terms_in":
            lambda: c.get("symbols.normalize.terms_in", 0),
        "symbols.normalize.merge_ratio":
            lambda: merged(c.get("symbols.normalize.terms_in", 0),
                           c.get("symbols.normalize.terms_out", 0)),
        "star.star_product.terms_out":
            lambda: c.get("star.star_product.terms_out", 0),
        "transition.apply.terms_in":
            lambda: c.get("transition.apply.terms_in", 0),
        "transition.apply.terms_per_exponent":
            lambda: ratio(c.get("transition.apply.terms_in", 0),
                          c.get("transition.apply.exponents_in", 0)),
        "symbols.evaluate_grid.term_nodes":
            lambda: c.get("symbols.evaluate_grid.term_nodes", 0),
        "symbols.evaluate_grid.terms_per_exponent":
            lambda: ratio(c.get("symbols.evaluate_grid.terms", 0),
                          c.get("symbols.evaluate_grid.exponents", 0)),
        "numerics.rk4_evolve.node_steps":
            lambda: c.get("numerics.rk4_evolve.node_steps", 0),
        "numerics.rk4_evolve.node_steps_per_s":
            lambda: ratio(c.get("numerics.rk4_evolve.node_steps", 0),
                          total("numerics.rk4_evolve", 1)),
        "numerics.rk4_evolve.bytes_per_step_computed":
            lambda: RK4_ARRAYS_PER_STEP * COMPLEX_BYTES * ratio(
                c.get("numerics.rk4_evolve.node_steps", 0),
                c.get("numerics.rk4_evolve.steps", 0)),
        "numerics.export_grid.bytes":
            lambda: c.get("numerics.export_grid.bytes", 0),
        "oscillator.cache_hit_ratio":
            lambda: ratio(c.get("oscillator.cache_hits", 0),
                          c.get("oscillator.cache_hits", 0)
                          + c.get("oscillator.cache_misses", 0)),
        "trace.overhead_ratio": lambda: overhead_ratio,
    }
    out = {}
    for spec in specs:
        name = spec["name"]
        head, _, tail = name.rpartition(".")
        if name in derived:
            value = derived[name]()
        elif tail == "calls":
            value = total(head, 0)
        elif tail == "self_s":
            value = total(head, 2)
        elif tail == "s" and head.startswith("verify."):
            value = total(head, 1)
        elif tail == "errors" and head in tracer.errors:
            value = tracer.errors[head]
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out
