"""Spans and call counters for the traced benchmark run.

The wrappers are installed from the benchmark's side around public hopflab
functions; ``src/`` is not modified.  A name imported with
``from .linalg import tensor`` is a separate binding in every importing
module (and in dicts such as ``cli.CHECKERS``), so :func:`patch` replaces
every binding of the original object it can find, or those calls would go
uncounted.

Spans stay in memory until the run ends.  Each job is a root span; a span
opened on a thread with no open span of its own (the ``verify-suite`` pool)
is parented to the innermost span open on the job's thread.  Self time is a
span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from hopflab.fields import FieldSpec
from hopflab.linalg import Matrix

perf = time.perf_counter


def _shape_product(m) -> int:
    return m.rows * m.cols


# Traced functions, named <module>.<function>: the stats each reports, and an
# optional measure(args, result) -> {stat: amount}; result is None when the
# call raised.  ``linalg.matmul`` is ``Matrix.__matmul__``.
SPAN_TARGETS: List[Tuple[str, Tuple[str, ...], Optional[Callable]]] = [
    ("linalg.matmul", ("calls", "self_s", "madds"),
     lambda a, r: {"madds": a[0].rows * a[0].cols * a[1].cols}),
    ("linalg.tensor", ("calls", "self_s", "out_entries"),
     lambda a, r: r and {"out_entries": _shape_product(r)}),
    ("linalg.swap_map", ("calls", "self_s", "out_entries"),
     lambda a, r: r and {"out_entries": _shape_product(r)}),
    ("linalg.apply_middle_swap", ("calls", "self_s"), None),
    ("linalg.rref", ("calls", "self_s", "in_entries"),
     lambda a, r: {"in_entries": _shape_product(a[0])}),
    ("linalg.nullspace", ("calls", "busy_s"), None),
    ("linalg.solve_particular", ("calls", "busy_s"), None),
    ("report.matrix_axiom", ("calls", "self_s", "failed"),
     lambda a, r: {"failed": 0 if a[0].checks[-1].passed else 1}),
    *[(f"hopf.check_{kind}", ("calls", "busy_s"), None)
      for kind in ("algebra", "coalgebra", "bialgebra", "hopf")],
    ("hopf.dual_hopf", ("busy_s",), None),
    ("hopf.left_integrals", ("busy_s",), None),
    ("lie.check_lie", ("calls", "busy_s"), None),
    ("lie.check_lie_coalgebra", ("calls", "busy_s"), None),
    ("lie.lie_morphism_check", ("busy_s",), None),
    *[(f"primitives.{name}", ("busy_s", "self_s"), None)
      for name in ("primitives", "indecomposables", "michaelis_verify")],
    *[(f"turaev.{name}", ("calls", "busy_s"), None)
      for name in (
          "check_hopf_group_algebra",
          "check_hopf_group_coalgebra",
          "dagger",
          "total_hopf",
          "family_equations",
          "g_primitives",
          "g_indecomposables",
          "mich_tur1_verify",
          "group_michaelis_verify",
      )],
    ("serialize.load", ("calls", "busy_s", "bytes_in"),
     lambda a, r: {"bytes_in": os.path.getsize(a[0])}),
    ("serialize.dumps", ("calls", "busy_s", "bytes_out"),
     lambda a, r: r and {"bytes_out": len(r.encode())}),
    ("cli.main", ("calls", "self_s"), None),
]

# Scalar call counters: metric name -> FieldSpec methods it sums.
FIELD_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "fields.add.calls": ("add", "sub", "neg"),
    "fields.mul.calls": ("mul",),
    "fields.inv.calls": ("inv",),
    "fields.coerce.calls": ("coerce",),
}

OVERHEAD = "trace.overhead"

UNITS = {"calls": "count", "madds": "count", "out_entries": "count", "in_entries": "count",
         "failed": "count", "self_s": "s", "busy_s": "s", "bytes_in": "bytes",
         "bytes_out": "bytes"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix, stats, _ in SPAN_TARGETS:
        for stat in stats:
            units[f"{prefix}.{stat}"] = UNITS[stat]
    units.update({name: "count" for name in FIELD_COUNTERS})
    units[OVERHEAD] = "ratio"
    return units


def patch(original, replacement, undo: list) -> None:
    """Rebind every hopflab module global and module-level dict value that is
    ``original`` to ``replacement``; record how to restore them in ``undo``."""
    for modname, mod in list(sys.modules.items()):
        if not (modname == "hopflab" or modname.startswith("hopflab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                vars(mod)[key] = replacement
                undo.append((vars(mod), key, original))
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement
                        undo.append((value, k, original))


def _patch_method(cls, attr: str, replacement, undo: list) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    undo.append((cls, attr, original))


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)
    undo.clear()


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Records one span per call of every SPAN_TARGETS function."""

    def __init__(self) -> None:
        # (id, parent id, job, name, start, end, nested in a span of the
        # same name, measured amounts)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_stack: Optional[list] = None
        self._job: Optional[str] = None
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def job(self, job_id: str):
        stack = self._stack()
        self._job_stack, self._job = stack, job_id
        sid = next(self._ids)
        start = perf()
        stack.append((sid, "job"))
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, None, job_id, "job", start, perf(), False, None))

    def _wrap(self, name: str, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1][0]
                nested = any(n == name for _, n in stack)
            else:
                parent = self._job_stack[-1][0] if self._job_stack else None
                nested = False
            sid = next(self._ids)
            stack.append((sid, name))
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                amounts = measure(args, result) if measure else None
                self.spans.append((sid, parent, self._job, name, start, end, nested, amounts))

        return traced

    def install(self) -> None:
        for prefix, _, measure in SPAN_TARGETS:
            if prefix == "linalg.matmul":
                original = Matrix.__matmul__
                _patch_method(Matrix, "__matmul__", self._wrap(prefix, original, measure), self._undo)
                continue
            module, attr = prefix.split(".")
            original = getattr(importlib.import_module(f"hopflab.{module}"), attr)
            patch(original, self._wrap(prefix, original, measure), self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    def metrics(self) -> Dict[str, float]:
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end, nested, amounts in self.spans:
            kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += (end - start) - _covered([k for k in kids if k[0] < k[1]])
            if not nested:
                totals[f"{name}.busy_s"] += end - start
            for stat, amount in (amounts or {}).items():
                totals[f"{name}.{stat}"] += amount
        return totals

    def write(self, path) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "nested", "amounts")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class FieldCounters:
    """Counts FieldSpec scalar calls.

    ``next`` on an ``itertools.count`` is a single C call, so the counts stay
    exact when ``verify-suite`` calls from several threads at once.
    """

    def __init__(self) -> None:
        self._counts = {name: itertools.count() for name in FIELD_COUNTERS}
        self._undo: list = []

    def install(self) -> None:
        for name, methods in FIELD_COUNTERS.items():
            counter = self._counts[name]
            for method in methods:
                _patch_method(FieldSpec, method, self._counting(FieldSpec.__dict__[method], counter),
                              self._undo)

    @staticmethod
    def _counting(fn, counter):
        @functools.wraps(fn)
        def counted(*args):
            next(counter)
            return fn(*args)

        return counted

    def uninstall(self) -> None:
        restore(self._undo)

    def metrics(self) -> Dict[str, int]:
        # repr is "count(N)"; reading it does not advance the counter.
        return {name: int(repr(c)[6:-1]) for name, c in self._counts.items()}
