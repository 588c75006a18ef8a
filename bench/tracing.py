"""Spans and counts around the program's public functions.

`Tracer.install()` replaces every public function of `specfun`, `model`,
`expectation` and `oracle` with a wrapper, in every `hulthen` module
namespace that binds it (`adaptive_quad`, for one, is bound in both
`oracle` and `expectation`), plus `cli.main`.  A wrapper counts calls
and keeps inclusive and self time; self time is a span minus the time
its child spans cover.  Spans (name, start, end, parent) are kept in
memory for the coarse layers and written out at the end; the hot leaf
functions are counted and timed but keep no span each.
"""

import json
import time

LIBRARY_MODULES = ("specfun", "model", "expectation", "oracle")
NAMESPACES = ("hulthen", "hulthen.specfun", "hulthen.model", "hulthen.expectation",
              "hulthen.oracle", "hulthen.cli")
# called thousands of times per operation: aggregated, no span each
LEAVES = frozenset({"model.potential", "model.centrifugal_approx", "model.energy",
                    "specfun.jacobi_p", "specfun.pochhammer", "specfun.beta",
                    "specfun.ln_gamma", "specfun.hyp_terminating", "model.count_nodes",
                    "model.dimensionless", "oracle.interior_nodes"})


class Tracer:
    def __init__(self):
        self.stack = []  # [name, span id, child time]
        self.spans = []  # (name, start, end, parent span id or -1)
        self.op = {}  # name -> [calls, inclusive s, self s] for the current operation
        self.extra = {}  # name -> count for the current operation
        self.op_index = -1
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(name) for name in NAMESPACES}
        wrapped = {}
        for short in LIBRARY_MODULES:
            mod = mods["hulthen." + short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)][1])
        cli = mods["hulthen.cli"]
        self._restore.append((cli, "main", cli.main))
        cli.main = self._wrap_cli_main(cli.main)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "oracle.adaptive_quad":
            def counted(f, *args, **kwargs):
                def integrand(x):
                    self.extra[name + ".evals"] = self.extra.get(name + ".evals", 0) + 1
                    return f(x)
                return fn(integrand, *args, **kwargs)
            return self._timed(name, counted)
        return self._timed(name, fn)

    def _wrap_cli_main(self, fn):
        def main(argv=None):
            return self._timed("cli.main." + argv[0], fn)(argv)
        return main

    def _timed(self, name, fn):
        keep_span = name not in LEAVES
        stack = self.stack

        def wrapper(*args, **kwargs):
            span_id = -1
            if keep_span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                rec = self.op.get(name)
                if rec is None:
                    rec = self.op[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dur - frame[2]
                if not any(f[0] == name for f in stack):
                    rec[1] += dur
                parent = -1
                if stack:
                    stack[-1][2] += dur
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                if keep_span:
                    self.spans[span_id] = (name, t0, t1, parent, self.op_index)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per operation -----------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op_index = index
        self.op = {}
        self.extra = {}

    def end_op(self) -> dict:
        out = {name: list(rec) for name, rec in self.op.items()}
        for name, count in self.extra.items():
            out[name] = [count, 0.0, 0.0]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
