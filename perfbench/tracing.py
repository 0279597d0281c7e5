"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``tqograph`` modules with
wrappers for the duration of a traced pass and restores them afterwards;
the program itself is not modified.  Spans are kept in memory as
``[name, start, end, parent index, note]`` and written out when the run
ends.  A layer's self time is its spans' duration minus the part covered
by child spans.

Functions called millions of times (``Gf2Matrix.mat_vec``, ``BitString``
construction, ``StabilizerGroup.in_normalizer``) only get a call counter,
installed in a separate counting pass so that it does not distort the span
times.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from math import comb
from time import perf_counter

# (module, attribute path, span name).  A function imported by name into
# another module is patched there too, since callers look it up there.
SPANS = (
    ("analysis", "z_span_basis", "analysis.z_span"),
    ("analysis", "zperp_basis", "analysis.zperp"),
    ("analysis", "in_W", "analysis.w_member"),
    ("analysis", "in_C", "analysis.point_query"),
    ("analysis", "c_set", "analysis.c_set"),
    ("analysis", "d_max", "analysis.d_max"),
    ("analysis", "verify_codewords", "analysis.verify"),
    ("analysis", "family_scan", "analysis.scan"),
    ("gf2", "Gf2Matrix.kernel_basis", "gf2.kernel"),
    ("stabilizer", "gen_3d_code", "stabilizer.build"),
    ("stabilizer", "gen_3d_code_derived", "stabilizer.build"),
    ("stabilizer", "StabilizerGroup.rank", "stabilizer.rank"),
    ("stabilizer", "normalizer_min_weight", "stabilizer.normalizer_scan"),
    ("stabilizer", "verify_3d_code", "stabilizer.verify"),
    ("oracle", "build_graph_state", "oracle.state_build"),
    ("oracle", "graph_basis_state", "oracle.state_build"),
    ("oracle", "pauli_matrix_element", "oracle.matrix_element"),
    ("oracle", "brute_force_qecc_check", "oracle.qecc_check"),
    ("cli", "gen_family", "graphs.build"),
    ("analysis", "gen_family", "graphs.build"),
    ("cli", "main", "cli"),
)

COUNTS = (
    ("gf2", "Gf2Matrix.mat_vec", "gf2.mat_vec"),
    ("gf2", "BitString.__init__", "gf2.bitstring"),
    ("stabilizer", "StabilizerGroup.in_normalizer", "stabilizer.in_normalizer"),
)


def _normalizer_ops(args, kwargs, result) -> int:
    """Operators enumerated: sum of C(n, w) 3^w up to the weight reached."""
    group = args[0]
    w_max = args[1] if len(args) > 1 else kwargs["w_max"]
    top = result[0] if result is not None else min(w_max, group.n)
    return sum(comb(group.n, w) * 3**w for w in range(1, top + 1))


# What a span keeps from its call, computed after its end time is taken.
NOTES = {
    "analysis.w_member": lambda args, kwargs, result: bool(result),
    "oracle.qecc_check": lambda args, kwargs, result: result.operators_checked,
    "stabilizer.normalizer_scan": _normalizer_ops,
}


class Tracer:
    """Installs span or counter wrappers on a namespace of program modules."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _patch(self, module: str, path: str, make):
        owner = getattr(self.mods, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def install_spans(self):
        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))

    def install_counters(self):
        for module, path, name in COUNTS:
            self._patch(module, path, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def summarize(spans):
    """Per span name: self time, call count, and the notes it kept."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s, calls, notes = Counter(), Counter(), {}
    for i, (name, start, end, _, note) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        calls[name] += 1
        if note is not None:
            notes.setdefault(name, []).append(note)
    return self_s, calls, notes


def calls_under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for record in spans:
        if record[0] != name:
            continue
        parent = record[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
