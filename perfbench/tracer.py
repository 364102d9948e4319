"""In-memory span tracer that wraps symcrit's public functions from outside.

Every public function of a layer module is replaced, on every module
attribute that binds it (``functional`` imports ``cell_values`` from
``grid`` by name, ``symcrit`` re-exports most of them), by a wrapper that
records one span: name, start, end, parent span and case.  Return values
and exceptions pass through unchanged.  `uninstall` puts every original
binding back.
"""

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("grid", "group", "functional", "symmetrize", "solver", "verify",
          "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []            # (name id, start, end, parent, case id)
        self.stack = [-1]
        self.case = -1
        self.cases = []
        self._saved = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, tracer.case)

        return traced

    @contextlib.contextmanager
    def case_span(self, name):
        """Root span of one case; every span opened inside belongs to it."""
        self.case = len(self.cases)
        self.cases.append(name)
        nid = len(self.names)
        self.names.append(f"case.{name}")
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (nid, t0, t1, -1, self.case)
            self.case = -1

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, symcrit):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "symcrit" or key.startswith("symcrit.")]
        for layer in LAYERS:
            mod = getattr(symcrit, layer)
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, traced)
        record = symcrit.solver.PSRecord
        self._set(record, "append",
                  self.wrap("solver.PSRecord.append", record.append))
        # the solver reaches splu as an attribute of scipy.sparse.linalg
        linalg = symcrit.solver.sparse_linalg
        self._set(linalg, "splu", self.wrap("solver.splu", linalg.splu))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def arrays(self):
        nid, t0, t1, parent, case = (np.array(col) for col in
                                     zip(*self.spans))
        return nid, t0, t1, parent, case

    def count_in_cases(self, name, cases):
        """Calls of span `name` made inside the named cases."""
        nid, _, _, _, case = self.arrays()
        wanted = [i for i, c in enumerate(self.cases) if c in cases]
        return int(np.sum((nid == self.names.index(name))
                          & np.isin(case, wanted)))

    def aggregate(self):
        """Per-name calls and self time, per-case totals, and the check.

        Self time is a span's duration minus the durations of its direct
        children.  Summed over a case, self times must give back the case's
        root span; the check also requires every child to lie inside its
        parent's interval and to belong to the same case.
        """
        nid, t0, t1, parent, case = self.arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.zeros(dur.shape[0])
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        problems = []
        if np.any(case < 0):
            problems.append("a span was recorded outside every case")
        p = parent[has_parent]
        if np.any(case[has_parent] != case[p]):
            problems.append("a span's case differs from its parent's")
        if np.any((t0[has_parent] < t0[p]) | (t1[has_parent] > t1[p])):
            problems.append("a span lies outside its parent's interval")
        per_case = {}
        for sid in np.flatnonzero(~has_parent):
            c = int(case[sid])
            total = float(self_t[case == c].sum())
            per_case[self.cases[c]] = float(dur[sid])
            if abs(total - dur[sid]) > 1e-9 + 1e-9 * dur[sid]:
                problems.append(
                    f"case {self.cases[c]}: self times sum to {total:.9f} s, "
                    f"root span is {dur[sid]:.9f} s")
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_t, minlength=len(self.names))
        by_name = {}
        for i, name in enumerate(self.names):
            if name.startswith("case."):
                continue
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += int(calls[i])
            entry[1] += float(self_s[i])
        return by_name, per_case, problems

    def write(self, path):
        nid, t0, t1, parent, case = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,case\n")
            for sid in range(nid.shape[0]):
                fh.write(f"{sid},{self.names[nid[sid]]},{t0[sid]:.9f},"
                         f"{t1[sid]:.9f},{parent[sid]},"
                         f"{self.cases[case[sid]]}\n")
