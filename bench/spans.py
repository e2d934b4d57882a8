"""Spans around heckej's public entry points, installed from outside.

`install` wraps each entry point listed in SPANS on its class, or in
every loaded ``heckej`` module that binds it, so no import path escapes.
Spans are kept in memory as (name, start, end, parent, run id) and
written out once by `Tracer.dump`.  `layer_totals` turns one process's
spans into per-layer calls and self times.

``laurent`` is deliberately not wrapped: its calls are too fine-grained
to time from outside without distorting them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name)
SPANS = [
    ("heckej.weyl", "WeylGroup.enumerate_ball", "weyl.enumerate_ball"),
    ("heckej.weyl", "make_group", "weyl.make_group"),
    ("heckej.hecke", "KLTable.extend", "hecke.kl_build"),
    ("heckej.hecke", "StructureConstants.scan_min_exponents", "hecke.scan"),
    ("heckej.hecke", "StructureConstants.h_map", "hecke.h_map"),
    ("heckej.hecke", "StructureConstants.column", "hecke.column"),
    ("heckej.hecke", "HeckeAlgebra.multiply", "hecke.multiply"),
    ("heckej.hecke", "HeckeAlgebra.to_basis", "hecke.to_basis"),
    ("heckej.asymptotic", "JRing.__init__", "asymptotic.jring_init"),
    ("heckej.asymptotic", "JRing.a_function", "asymptotic.a_function"),
    ("heckej.asymptotic", "JRing.gamma_map", "asymptotic.gamma_map"),
    ("heckej.asymptotic", "JRing.j_multiply", "asymptotic.j_multiply"),
    ("heckej.asymptotic", "JRing.phi", "asymptotic.phi"),
    ("heckej.asymptotic", "JRing.phi_of_element", "asymptotic.phi_of_element"),
    ("heckej.asymptotic", "JRing.jta_multiply", "asymptotic.jta_multiply"),
    ("heckej.asymptotic", "JRing.distinguished_involutions", "asymptotic.dinv"),
    ("heckej.sl2", "brute_force_count", "sl2.brute_force_count"),
    ("heckej.sl2", "conv_f_value", "sl2.closed_form"),
    ("heckej.sl2", "verify_relations", "sl2.closed_form"),
    ("heckej.sl2", "canonical_str", "sl2.closed_form"),
    ("heckej.cli", "cached_kl_table", "cli.kl_cache"),
    ("heckej.cli", "main", "cli.main"),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._ball_sizes: dict = {}
        self._scan_radii: set = set()
        self._censuses: set = set()
        self._ball = None  # the unwrapped WeylGroup.enumerate_ball

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counters": dict(self.counters)}) + "\n")

    # -- counters measured at the span boundaries ----------------------------

    def coxeter_ball_size(self, group, radius: int) -> int:
        key = (group.desc, radius)
        if key not in self._ball_sizes:
            ball = self._ball(group, radius)
            self._ball_sizes[key] = sum(1 for e in ball if e.omega == 0)
        return self._ball_sizes[key]


def _after_scan(tr, result, constants, scan_radius, track_len):
    tr.counters["hecke.scan.pairs"] += tr.coxeter_ball_size(constants.group, scan_radius) ** 2
    tr._scan_radii.add(scan_radius)
    tr.counters["asymptotic.scan_radii"] = len(tr._scan_radii)


def _after_h_map(tr, result, *args, **kwargs):
    tr.counters["hecke.h_support"] += len(result)


def _after_count(tr, result, p, m, *args, **kwargs):
    if (p, m) not in tr._censuses:
        tr._censuses.add((p, m))
        tr.counters["sl2.census_cells"] += p ** (2 * m)


AFTER = {
    "hecke.scan": _after_scan,
    "hecke.h_map": _after_h_map,
    "sl2.brute_force_count": _after_count,
}


def install(tracer: Tracer) -> None:
    """Wrap every entry point in SPANS whose module is already imported."""
    from heckej import weyl

    tracer._ball = weyl.WeylGroup.enumerate_ball
    loaded = [m for n, m in list(sys.modules.items()) if n == "heckej" or n.startswith("heckej.")]
    for modname, attr, name in SPANS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = getattr(owner, fn_name)
        factory = WRAPPERS.get(name)
        wrapper = factory(tracer, fn, mod) if factory else tracer.wrap(name, fn, AFTER.get(name))
        if owner_name:
            setattr(owner, fn_name, wrapper)
            continue
        for m in loaded:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapper)


def _kl_build_wrapper(tracer: Tracer, fn, hecke):
    inner = tracer.wrap("hecke.kl_build", fn)

    @functools.wraps(fn)
    def extend(table, radius):
        before = table.radius
        result = inner(table, radius)
        if table.radius > before:
            old = tracer.coxeter_ball_size(table.group, before) if before >= 0 else 0
            new = tracer.coxeter_ball_size(table.group, table.radius)
            tracer.counters["hecke.kl_build.elements"] += new - old
        return result

    return extend


def _kl_cache_wrapper(tracer: Tracer, fn, cli):
    """A call that adds a file to the cache directory wrote a table (cold);
    any other call read one back (warm)."""
    inner = tracer.wrap("cli.kl_cache", fn)

    @functools.wraps(fn)
    def cached_kl_table(ns, desc, radius):
        directory = cli.cache_directory(ns)
        before = set(os.listdir(directory)) if directory.is_dir() else set()
        idx = len(tracer.spans)
        result = inner(ns, desc, radius)
        after = set(os.listdir(directory)) if directory.is_dir() else set()
        tracer.spans[idx][0] = "cli.kl_cache.cold" if after - before else "cli.kl_cache.warm"
        return result

    return cached_kl_table


WRAPPERS = {"hecke.kl_build": _kl_build_wrapper, "cli.kl_cache": _kl_cache_wrapper}


def layer_totals(spans: list[list]) -> tuple[Counter, Counter]:
    """Calls and self time per span name for the spans of one process.

    Self time is a span's duration minus the durations of its direct
    children; the code is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
    return calls, self_s


def load(path: str) -> list[tuple[list[list], dict]]:
    """(spans, counters) per process, in the order the processes wrote them."""
    out = []
    spans: list[list] = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, dict):
                out.append((spans, rec["counters"]))
                spans = []
            else:
                spans.append(rec)
    return out
