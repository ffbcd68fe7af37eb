"""Span tracing of floatlab's public functions, installed from outside.

``Tracer.install`` replaces every public function of the layer modules
(and the public methods of their classes) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  A function
imported by name into another module (``lqr`` takes ``simulate``, ``cost``
and ``matrix_sign`` that way, ``cli`` takes ``save_matrix``) is patched
under that name too, so those calls are seen.  Functions called once per
time step or per sample are counted without a span, which keeps the
overhead small; their time stays in the enclosing span.  ``remove``
restores every original.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "spectral", "resolvent", "discretization", "dynamics", "lqr",
          "linalg", "verification")

#: Called once per step or per sample: counted, no span.
COUNT_ONLY = {"dynamics.Stepper.advance", "dynamics.Trajectory.state_at",
              "discretization.dqdx_nodal"}

#: Non-public methods that mark layer work: the LU factorisation.
EXTRA_METHODS = {"dynamics.Stepper.__init__"}

HALFLINE = ("resolvent.exponential_extension", "resolvent.helmholtz_particular",
            "resolvent.helmholtz_halfline", "resolvent.helmholtz_halfline_with_derivative")


def _care_label(args, kwargs):
    """care_solve spans are named by method, so the two solvers time apart."""
    method = kwargs.get("method", args[1] if len(args) > 1 else "newton_kleinman")
    return "lqr.care_solve[sign]" if method == "hamiltonian_sign" else "lqr.care_solve[nk]"


def _halfline_nodes(name, args, kwargs):
    if name == "resolvent.exponential_extension":
        return len(kwargs["grid"] if "grid" in kwargs else args[3])
    phi = kwargs.get("phi", args[-1])
    return phi.grid.size


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.history_bytes = 0
        self.halfline_nodes = 0
        self._stack: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"floatlab.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    originals[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    for meth, fn in vars(obj).items():
                        name = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or name in EXTRA_METHODS):
                            self._patch(obj, meth, fn, self._wrap(fn, name))
        for fn, name in originals.items():
            wrapper = self._wrap(fn, name)
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patch(mod, attr, fn, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        counts = self.counts
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        label = _care_label if name == "lqr.care_solve" else None
        fixed_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = self._name_id(label(args, kwargs)) if label else fixed_id
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._observe(name, idx, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, idx, args, kwargs, result):
        """Counts read off the arguments and results of particular calls."""
        if name == "discretization.assemble":
            self.counts["discretization.generator_entries"] += result.A.size
        elif name == "dynamics.simulate":
            self.history_bytes += result.states.nbytes
        elif name == "dynamics.simulate_adaptive":
            # more than one chunk means the pieces were concatenated into a copy
            chunks = sum(1 for s in self.spans[idx + 1:]
                         if s[3] == idx and self.names[s[0]] == "dynamics.simulate")
            if chunks > 1:
                self.history_bytes += result.states.nbytes
        elif name == "lqr.care_solve" and result.method == "newton_kleinman":
            self.counts["lqr.nk_iterations"] += result.iterations
        elif name in HALFLINE and not self._inside(idx, HALFLINE):
            self.halfline_nodes += _halfline_nodes(name, args, kwargs)

    def _inside(self, idx, names):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.names[self.spans[parent][0]] in names:
                return True
            parent = self.spans[parent][3]
        return False

    # -- reduction --------------------------------------------------------

    def outermost(self, names):
        """(total seconds, calls) of spans in ``names`` not nested in another of them."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total, calls = 0.0, 0
        for idx, (name_id, start, end, _) in enumerate(self.spans):
            if name_id in ids and not self._inside(idx, names):
                total += end - start
                calls += 1
        return total, calls

    def _child_times(self):
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def layer_self_times(self):
        """{layer: (self seconds, calls)}: span time minus the time of child spans."""
        out = {layer: [0.0, 0] for layer in LAYERS}
        for (name_id, start, end, _), inner in zip(self.spans, self._child_times()):
            entry = out[self.names[name_id].split(".", 1)[0]]
            entry[0] += end - start - inner
            entry[1] += 1
        for name, n in self.counts.items():
            layer = name.split(".", 1)[0]
            if name in COUNT_ONLY:
                out[layer][1] += n
        return {layer: tuple(v) for layer, v in out.items()}

    def function_table(self):
        """{span name: {"calls", "total_s", "self_s"}} for the trace file."""
        table = {}
        for (name_id, start, end, _), inner in zip(self.spans, self._child_times()):
            row = table.setdefault(self.names[name_id],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        for name in COUNT_ONLY:
            if self.counts[name]:
                table[name] = {"calls": self.counts[name], "total_s": None, "self_s": None}
        return dict(sorted(table.items()))


#: Function-level metrics: (metric prefix, span names).  "<prefix>_s" is the
#: time inside the outermost such calls, children included.
FUNCTION_METRICS = (
    ("cli.lqr", ("cli.cmd_lqr",)),
    ("cli.simulate", ("cli.cmd_simulate",)),
    ("cli.resolvent_check", ("cli.cmd_resolvent_check",)),
    ("cli.spectrum", ("cli.cmd_spectrum",)),
    ("discretization.assemble", ("discretization.assemble",)),
    ("discretization.energy_matrix", ("discretization.energy_matrix",)),
    ("dynamics.simulate", ("dynamics.simulate",)),
    ("dynamics.factorize", ("dynamics.Stepper.__init__",)),
    ("dynamics.energy_balance", ("dynamics.energy_balance_report",)),
    ("dynamics.write_csv", ("dynamics.Trajectory.write_csv",)),
    ("dynamics.cost", ("dynamics.cost",)),
    ("lqr.care_nk", ("lqr.care_solve[nk]",)),
    ("lqr.care_sign", ("lqr.care_solve[sign]",)),
    ("lqr.deflate", ("lqr.deflate_zero_modes",)),
    ("lqr.lyapunov_solve", ("lqr.lyapunov_solve",)),
    ("lqr.compare_feedbacks", ("lqr.compare_feedbacks",)),
    ("linalg.matrix_sign", ("linalg.matrix_sign",)),
    ("linalg.save_matrix", ("linalg.save_matrix",)),
    ("resolvent.resolvent_apply", ("resolvent.resolvent_apply",)),
    ("resolvent.halfline", HALFLINE),
    ("spectral.spectrum_distance", ("spectral.spectrum_distance",)),
    ("spectral.singular_points", ("spectral.singular_points",)),
    ("verification.resolvent_defect", ("verification.resolvent_defect",)),
)

#: Call counts reported under their own names.
CALL_METRICS = {
    "discretization.assemble_calls": "discretization.assemble",
    "discretization.energy_matrix_calls": "discretization.energy_matrix",
    "dynamics.simulate_calls": "dynamics.simulate",
    "dynamics.factorizations": "dynamics.factorize",
    "lqr.lyapunov_solves": "lqr.lyapunov_solve",
    "resolvent.resolvent_applies": "resolvent.resolvent_apply",
    "resolvent.halfline_calls": "resolvent.halfline",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    out = {}
    calls = {}
    for prefix, names in FUNCTION_METRICS:
        seconds, n = tracer.outermost(names)
        out[f"{prefix}_s"] = (seconds, "s")
        calls[prefix] = n
    for metric, prefix in CALL_METRICS.items():
        out[metric] = (calls[prefix], "count")
    out["discretization.generator_entries"] = (
        tracer.counts["discretization.generator_entries"], "count")
    out["dynamics.steps"] = (tracer.counts["dynamics.Stepper.advance"], "count")
    out["dynamics.history_mb"] = (tracer.history_bytes / 1e6, "MB")
    out["lqr.nk_iterations"] = (tracer.counts["lqr.nk_iterations"], "count")
    out["resolvent.halfline_nodes"] = (tracer.halfline_nodes, "count")
    for layer, (seconds, n) in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.calls"] = (n, "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
