"""Spans around calls into shiftforge's public functions, recorded from
the benchmark's side.

The tracer wraps each target function and rebinds every module attribute
that holds it, so calls from one shiftforge module into another (for
example oracles -> sparsepoly.shifted_term_map) are seen too.  Methods
are rebound on their class.  Nothing in the package's source changes, and
uninstall() puts every original back.

A span is (name, start, end, parent index).  Spans stay in memory, in
flat arrays the garbage collector does not scan, and are written out once,
at the end of the run.  Self time is a span's duration
minus the durations of its direct child spans; calls are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter


# span name, owner (module or module.Class), attribute, counters: each
# counter is (suffix, function of (args, result) giving the increment)
TARGETS = [
    ("sparsepoly.shifted_term_map", "sparsepoly", "shifted_term_map",
     [("terms_out", lambda a, r: len(r))]),
    ("sparsepoly.SparsePoly.shift", "sparsepoly.SparsePoly", "shift",
     [("terms_out", lambda a, r: len(r.terms))]),
    ("sparsepoly.SparsePoly.mul", "sparsepoly.SparsePoly", "mul",
     [("terms_out", lambda a, r: len(r.terms))]),
    ("sparsepoly.text", "sparsepoly", "save_poly",
     [("bytes", lambda a, r: os.path.getsize(a[0]))]),
    ("sparsepoly.text", "sparsepoly", "load_poly",
     [("bytes", lambda a, r: os.path.getsize(a[0]))]),
    ("oracles.search_min_sparsity", "oracles", "search_min_sparsity",
     [("points", lambda a, r: r.points)]),
    ("oracles.maxsat", "oracles", "maxsat", []),
    ("oracles.verify_hn_roundtrip", "oracles", "verify_hn_roundtrip",
     [("solution_points", lambda a, r: r.solution_points or 0),
      ("shift_points", lambda a, r: r.shift_points or 0)]),
    ("hn_reduce.reduce_hn", "hn_reduce", "reduce_hn", []),
    ("hn_reduce.build_hn_instance", "hn_reduce", "build_hn_instance",
     [("terms_out", lambda a, r: r.sigma)]),
    ("hn_reduce.shift_instance", "hn_reduce", "shift_instance", []),
    ("hn_reduce.shift_to_solution", "hn_reduce", "shift_to_solution", []),
    ("quadratizer.quadratize_sparse", "quadratizer", "quadratize_sparse", []),
    ("quadratizer.quadratize_circuit", "quadratizer", "quadratize_circuit",
     [("aux_vars", lambda a, r: r[0].nvars - r[0].n_inputs)]),
    ("quadratizer.normalize_constants", "quadratizer", "normalize_constants", []),
    ("quadratizer.check_solution", "quadratizer", "check_solution", []),
    ("quadratizer.extend_solution", "quadratizer", "extend_solution", []),
    ("amplifier.amplify", "amplifier", "amplify",
     [("terms_out", lambda a, r: r.polynomial.sparsity())]),
    ("amplifier.amplified_shift", "amplifier", "amplified_shift", []),
    ("max3lin.encode_max3lin", "max3lin", "encode_max3lin", []),
    ("max3lin.count_satisfied", "max3lin", "count_satisfied", []),
]


class Tracer:
    def __init__(self, package):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        modules = [package] + [
            getattr(package, m) for m in dir(package)
            if type(getattr(package, m)) is type(package)
        ]
        for name, owner_path, attr, counters in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            holders = {id(owner): owner}
            if "." not in owner_path:
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        holders[id(mod)] = mod
            for holder in holders.values():
                self._patches.append((holder, attr, original, wrapper))

    def _wrap(self, name, fn, counters):
        name_id = len(self.names)
        self.names.append(name)
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        stack, counts = self._stack, self.counts
        keys = [("%s.%s" % (name, suffix), f) for suffix, f in counters]

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            for key, f in keys:
                counts[key] += f(args, result)
            return result

        return traced

    def install(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def _rows(self):
        return zip(self.span_name, self.span_start, self.span_end,
                   self.span_parent)

    def summary(self):
        """Per span name: busy seconds `s`, `self_s`, `calls` and
        `us_per_call`, plus `<parent>.<child>.calls` for direct children
        and the counters the targets define."""
        busy = defaultdict(float)
        child_busy = defaultdict(float)
        calls = defaultdict(int)
        nested = defaultdict(int)
        for name_id, start, end, parent in self._rows():
            name = self.names[name_id]
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                pname = self.names[self.span_name[parent]]
                child_busy[pname] += end - start
                nested["%s.%s.calls" % (pname, name)] += 1
        out = dict(self.counts)
        out.update(nested)
        for name, s in busy.items():
            out[name + ".s"] = s
            out[name + ".self_s"] = s - child_busy[name]
            out[name + ".calls"] = calls[name]
            out[name + ".us_per_call"] = s / calls[name] * 1e6
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self._rows()):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                         % (i, self.names[name_id], start, end, parent))
