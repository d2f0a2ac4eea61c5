"""Spans and counters around the public functions of each twohom layer.

The tracer lives outside the library: it replaces each traced function by a
wrapper in every ``twohom`` module namespace that holds it, so both
``from .exactlin import snf`` call sites and module-global calls are caught.
Spans (name, start, end, parent) and counters stay in memory; ``write``
saves them when the run ends.  A paused tracer records nothing, which keeps
oracle checks out of the per-layer totals.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the public entry points of each layer.
# complex2._homology is the uncached homology construction; requests and
# memo hits are counted on Complex2.homology.
TRACED = [
    ("exactlin", "snf", "exactlin.snf"),
    ("exactlin", "hnf", "exactlin.hnf"),
    ("exactlin", "solve_many", "exactlin.solve_many"),
    ("exactlin", "kernel_basis", "exactlin.kernel_basis"),
    ("fpmod", "kernel", "fpmod.kernel"),
    ("fpmod", "column_basis", "fpmod.column_basis"),
    ("fpmod", "factor_through", "fpmod.factor_through"),
    ("fpmod", "invariant_factors", "fpmod.invariant_factors"),
    ("fpmod", "is_valid_mor", "fpmod.is_valid_mor"),
    ("fpmod", "equal_mor", "fpmod.equal_mor"),
    ("twomod", "relative_kernel", "twomod.relative_kernel"),
    ("twomod", "relative_cokernel", "twomod.relative_cokernel"),
    ("twomod", "pi_profile", "twomod.pi_profile"),
    ("twomod", "is_extension", "twomod.is_extension"),
    ("twomod", "check_relative_two_exact", "twomod.check_relative_two_exact"),
    ("complex2", "_homology", "complex2.homology"),
    ("complex2", "induced", "complex2.induced"),
    ("resolution", "resolve", "resolution.resolve"),
    ("resolution", "horseshoe", "resolution.horseshoe"),
    ("resolution", "lift_through", "resolution.lift_through"),
    ("derived", "apply", "derived.apply"),
    ("derived", "long_sequence", "derived.long_sequence"),
    ("derived", "check_long_sequence", "derived.check_long_sequence"),
    ("derived", "find_null_homotopy", "derived.find_null_homotopy"),
    ("cli", "load", "cli.load"),
    ("cli", "_emit", "cli.emit"),
]


def max_bits(*mats) -> int:
    """Largest bit length of any entry of the given twohom matrices."""
    best = 0
    for m in mats:
        for x in m.arr.flat:
            b = int(x).bit_length()
            if b > best:
                best = b
    return best


def _before(name, args):
    """Counters read from the inputs, before the call runs."""
    if name == "exactlin.snf":
        a = args[0]
        return {"cells": a.rows * a.cols,
                "cache_hits": getattr(a, "_snf", None) is not None}
    if name == "exactlin.hnf":
        return {"cache_hits": getattr(args[0], "_hnf", None) is not None}
    if name in ("exactlin.solve_many", "exactlin.kernel_basis",
                "fpmod.invariant_factors"):
        return {"zmod": args[0].ring.is_modular}
    return None


def _after(tracer, name, out, pre):
    """Counters read from the inputs and the result, after the call."""
    c = tracer.counters
    if pre is not None:
        for key, val in pre.items():
            if key == "zmod":
                c["exactlin.zmod_lift.calls"] += int(val)
            else:
                c[f"{name}.{key}"] += int(val)
    if name == "exactlin.snf":
        tracer.note_max(f"{name}.max_out_bits", max_bits(*out))
    elif name == "exactlin.kernel_basis":
        tracer.note_max(f"{name}.max_out_bits", max_bits(out))
    elif name == "exactlin.solve_many":
        c[f"{name}.none"] += out is None
    elif name == "resolution.resolve":
        tracer.note_max(f"{name}.max_diff_bits",
                        max((max_bits(d.f0.mat, d.f1.mat) for d in out.diffs),
                            default=0))


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counters: Counter = Counter()
        self.maxes: dict = {}
        self.paused = False
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one query."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def pause(self):
        """Calls made inside are neither spanned nor counted."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            pre = _before(name, args)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:           # a call that raises still closes its span
                tracer._close(idx)
            _after(tracer, name, out, pre)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from twohom import complex2

        for mod, attr, name in TRACED:
            original = getattr(importlib.import_module(f"twohom.{mod}"), attr)
            self._undo += rebind(original, self._wrap(original, name))
        method = complex2.Complex2.homology
        tracer = self

        def homology(c, n):
            if not tracer.paused:
                tracer.counters["complex2.homology.requests"] += 1
                tracer.counters["complex2.homology.memo_hits"] += n in c._hom
            return method(c, n)

        complex2.Complex2.homology = homology
        self._undo.append((complex2.Complex2, "homology", method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the durations of
        its child spans.  A child's bookkeeping outside its own interval
        (reading counters) counts as the parent's time."""
        self_s = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        out: dict = {}
        for nid, t in zip(self.name_id, self_s):
            nm = self.names[nid]
            out[nm] = out.get(nm, 0.0) + t
        return out

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name_id)

    def write(self, path) -> None:
        """Save every span and counter (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in
                                     sorted(self.counters)], dtype=np.int64),
        )


def rebind(original, replacement) -> list:
    """Point every twohom module attribute bound to ``original`` at
    ``replacement``; returns (module, attribute, original) undo records."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "twohom" or modname.startswith("twohom.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo
