"""Span tracing for the traced run, recorded from outside the package.

``install`` wraps the public functions of the package modules (those the
package exports, plus the CLI's ``main``, ``build_parser`` and ``to_json``)
and rebinds each wrapped name in every
``inellipse`` module namespace that holds it, so calls between modules
(``minecc.classify``, ``cli.canonicalize``, ``family.coefficients``) are seen
too.  The callables returned by ``ratio_sq_function`` count the points they
evaluate but record no spans of their own (there are dozens per solve), so
their time is the caller's self time.  Spans stay in memory as
(name, start_ns, end_ns, parent, op, self_ns) and are written out at the end;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("quad", "family", "minecc", "conic", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, self]
        self.stack = []          # [span index, child ns] of open spans
        self.op = -1
        self.points = 0          # points evaluated through ratio_sq callables
        self.iterations = []     # maximize_ratio_sq iteration counts
        self.unconverged = 0
        self.methods = []        # solve() result methods
        self._restore = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        if stack and self.spans[stack[-1][0]][0] == name:
            return fn(*args, **kwargs)      # direct recursion: one span
        idx = len(self.spans)
        rec = [name, 0, 0, stack[-1][0] if stack else -1, self.op, 0]
        self.spans.append(rec)
        frame = [idx, 0]
        stack.append(frame)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - rec[1]
            rec[2] = end
            rec[5] = dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op as the root span ``bench.op``."""
        self.op = op_id
        return self.call("bench.op", fn, args, {})

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name == "family.ratio_sq_function":
            def wrapper(*args, **kwargs):
                inner = tracer.call(name, fn, args, kwargs)

                def ratio_sq(h):
                    tracer.points += int(np.size(h))
                    return inner(h)
                return ratio_sq
        elif name == "minecc.maximize_ratio_sq":
            max_iter = inspect.signature(fn).parameters["max_iter"].default

            def wrapper(*args, **kwargs):
                x, iters = tracer.call(name, fn, args, kwargs)
                tracer.iterations.append(iters)
                tracer.unconverged += iters == kwargs.get("max_iter", max_iter)
                return x, iters
        elif name == "minecc.solve":
            def wrapper(*args, **kwargs):
                res = tracer.call(name, fn, args, kwargs)
                tracer.methods.append(res.method)
                return res
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        """Wrap the public functions and rebind them everywhere."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "inellipse" or n.startswith("inellipse.")}
        exported = set(mods["inellipse"].__all__)
        wrapped = {}
        for layer in LAYERS:
            mod = mods[f"inellipse.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (attr in exported or layer == "cli")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tself_ns\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec)) + "\n")
