"""In-memory span tracer wrapped around quadcert's module entry points.

`Tracer.install` replaces each entry point at every binding inside the
package that refers to it (``quadcert.bounds.grid_midpoint_convex``,
``quadcert.kernel.generalized_rule``, ``quadcert.oracle.integrate`` and so
on), so calls are seen wherever the caller looks the name up. Each call
records a span: name, start, end, parent span and the benchmark op it
belongs to. Scalar evaluators built by ``quadcert._backend.make_func`` are
only counted, not spanned. `uninstall` restores every binding.

Self time is a span's duration minus the durations of its direct children;
in single-threaded code children never overlap, so that is the time the
children cover.
"""

import functools
import gzip
import sys
import time
from array import array

# (layer, module inside quadcert, function). Spans are named layer.function.
# quadcert._backend is the "backend" layer because metric names must start
# with a letter.
ENTRY_POINTS = (
    ("functions", "functions", "parse_function_spec"),
    ("functions", "functions", "grid_midpoint_convex"),
    ("backend", "_backend", "adaptive_quad"),
    ("rules", "rules", "generalized_rule"),
    ("rules", "rules", "midpoint_rule"),
    ("rules", "rules", "trapezoid_rule"),
    ("rules", "rules", "perturbed_trapezoid_rule"),
    ("bounds", "bounds", "bound_convex"),
    ("bounds", "bounds", "bound_holder"),
    ("bounds", "bounds", "bound_power_mean"),
    ("bounds", "bounds", "bound_ostrowski"),
    ("bounds", "bounds", "bound_cerone_dragomir"),
    ("oracle", "oracle", "integrate"),
    ("oracle", "oracle", "estimate_norm"),
    ("kernel", "kernel", "identity_residual"),
    ("means", "means", "check_proposition"),
    ("composite", "composite", "composite_generalized"),
    ("composite", "composite", "composite_midpoint"),
    ("composite", "composite", "composite_perturbed_trapezoid"),
    ("cli", "cli", "main"),
    ("cli", "cli", "build_parser"),
)
# Methods of composite.Partition, patched on the class.
PARTITION_METHODS = (("uniform", "composite.Partition.uniform"),
                     ("__post_init__", "composite.Partition.init"))
LAYERS = ("functions", "backend", "rules", "bounds", "oracle", "kernel", "means",
          "composite", "cli")
OP_SPAN = "op"

_NO_PARENT = -1


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names = [OP_SPAN]          # name table; spans store indices
        self._name_index = {OP_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [_NO_PARENT]
        self._layers = [None]           # layer of each open span
        self.op_id = -1
        self.counters = {"evals": 0, "integrate.calls": 0, "subdivisions": 0,
                         "estimate_norm.samples": 0, "composite.evals": 0}
        self.errors = dict.fromkeys(LAYERS, 0)
        self._evals = [0]
        self._restore = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_id, layer=None):
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self._layers.append(layer)
        self.span_start[sid] = time.perf_counter()
        return sid

    def _close(self, sid):
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def begin_op(self, op_id):
        """Open the root span of one benchmark op."""
        self.op_id = op_id
        return self._open(0)

    def end_op(self, sid):
        self._close(sid)

    def _wrap(self, layer, name, fn, on_result=None):
        name_id = self._name_id(name)
        errors = self.errors
        evals = self._evals
        counters = self.counters
        layers = self._layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = layers[-1] != layer
            ev0 = evals[0]
            sid = self._open(name_id, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if outermost:
                    errors[layer] += 1
                raise
            finally:
                self._close(sid)
                if outermost and layer == "composite":
                    counters["composite.evals"] += evals[0] - ev0
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -------------------------------------------------------- patching

    def _on_integrate(self, est):
        self.counters["integrate.calls"] += 1
        self.counters["subdivisions"] += est.subdivisions

    def _on_norm(self, est):
        self.counters["estimate_norm.samples"] += est.samples or 0

    def _count_evals(self, make_func):
        evals = self._evals
        errors = self.errors

        def counted_make_func(*args, **kwargs):
            fn = make_func(*args, **kwargs)

            def evaluator(x):
                evals[0] += 1
                try:
                    return fn(x)
                except BaseException:
                    errors["functions"] += 1
                    raise

            return evaluator

        return counted_make_func

    def install(self):
        """Wrap every entry point at every binding inside the package. Call
        before any FunctionTriple is built: evaluators are counted only when
        ``make_func`` is wrapped at the time they are made."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import quadcert
        import quadcert.cli  # noqa: F401  (the CLI's bindings are patched too)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "quadcert" or k.startswith("quadcert."))]
        hooks = {"oracle.integrate": self._on_integrate,
                 "oracle.estimate_norm": self._on_norm}
        replacements = {}
        for layer, mod_name, attr in ENTRY_POINTS:
            name = f"{layer}.{attr}"
            orig = getattr(sys.modules["quadcert." + mod_name], attr)
            replacements[id(orig)] = (orig, self._wrap(layer, name, orig, hooks.get(name)))
        make_func = sys.modules["quadcert._backend"].make_func
        replacements[id(make_func)] = (make_func, self._count_evals(make_func))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

        partition = sys.modules["quadcert.composite"].Partition
        for attr, name in PARTITION_METHODS:
            raw = vars(partition)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap("composite", name, raw.__func__))
            else:
                new = self._wrap("composite", name, raw)
            setattr(partition, attr, new)
            self._restore.append((partition, attr, raw))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def snapshot(self):
        """Counter values, to take differences over a stretch of ops."""
        return dict(self.counters, evals=self._evals[0])

    # ------------------------------------------------------ exchange

    def export(self):
        """Spans and counters as plain data, for a parent process."""
        return {"names": self.names,
                "spans": [list(t) for t in zip(self.span_name, self.span_parent,
                                               self.span_start, self.span_end)],
                "counters": self.snapshot(), "errors": self.errors}

    def absorb(self, data, op_id):
        """Add a child process's exported spans under the open span."""
        base = len(self.span_name)
        parent = self._stack[-1]
        for name, par, start, end in data["spans"]:
            self.span_name.append(self._name_id(data["names"][name]))
            self.span_parent.append(parent if par == _NO_PARENT else base + par)
            self.span_op.append(op_id)
            self.span_start.append(start)
            self.span_end.append(end)
        for key, value in data["counters"].items():
            if key == "evals":
                self._evals[0] += value
            else:
                self.counters[key] += value
        for layer, value in data["errors"].items():
            self.errors[layer] += value

    # ------------------------------------------------------ analysis

    def self_times(self):
        """Self time of every span: duration minus its children's durations."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent != _NO_PARENT:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        return array("d", (self.span_end[i] - self.span_start[i] - child[i] for i in range(n)))

    def totals(self, ops=None):
        """Per span name: (calls, total seconds, total self seconds,
        seconds not nested in a span of the same layer). ``ops`` restricts
        to spans of those op ids."""
        selfs = self.self_times()
        out = {}
        for sid in range(len(self.span_name)):
            if ops is not None and self.span_op[sid] not in ops:
                continue
            name = self.names[self.span_name[sid]]
            dur = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            layer = name.split(".", 1)[0]
            nested = (parent != _NO_PARENT
                      and self.names[self.span_name[parent]].split(".", 1)[0] == layer)
            calls, total, self_total, outer = out.get(name, (0, 0.0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, self_total + selfs[sid],
                         outer + (0.0 if nested else dur))
        return out

    def write(self, path):
        """Write every span as gzip'd CSV: id,parent,op,name,start,end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,parent,op,name,start,end\n")
            for sid in range(len(self.span_name)):
                out.write(f"{sid},{self.span_parent[sid]},{self.span_op[sid]},"
                          f"{self.names[self.span_name[sid]]},"
                          f"{self.span_start[sid]!r},{self.span_end[sid]!r}\n")
