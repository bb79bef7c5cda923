"""Outside-in layer trace of ``tensorcube``.

The tracer replaces, for the length of a traced run, the names through which
each module of the package calls into the layer below (for example
``lr_coefficient_memo`` as bound in ``newell_littlewood``) with wrappers that
record one span per call: its site, its parent span, start and end. A
layer's self time is the duration of its spans minus the part their child
spans cover; spans nest strictly in one thread, so that part is the sum of
the children's durations, accumulated as each child ends.

A wrapper's own bookkeeping is not the program's work. Each wrapper reads the
clock once more on entry and once more on leaving, and charges its parent the
whole interval between, plus the per-call cost no clock read can see (the
call into the wrapper and the return from it). A span's own duration, read
between two clock calls, is shortened by the part of those calls it holds.
Both constants are calibrated on a wrapped empty function at the start of
every traced round, because they scale with the CPU's speed of the moment,
which on a shared host drifts by up to a factor of two (a clock read alone
costs about 200 ns on a virtual machine). Everything that is not the child's
own duration goes to ``overhead_ns``, so the self times of all layers add up
to the untraced time of the same work.

Nothing in ``src`` changes. A name a later version of the package no longer
binds is skipped, and the trace file lists the sites it did wrap.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array

# caller module -> names it binds from a lower layer (or, for detection, the
# entry points the CLI reaches through the module and the witness builder)
SITES = {
    "tableaux": ("Partition", "contains"),
    "lr": ("Partition", "contains", "SkewShape", "count_lr_fillings"),
    "newell_littlewood": ("Partition", "enumerate_partitions", "lr_coefficient_memo"),
    "detection": ("Partition", "enumerate_partitions", "nl_coefficient", "nl_coefficient_full",
                  "SkewShape", "enumerate_lr_tableaux", "detects", "build_witness",
                  "verify_odd_theorem", "verify_even_theorem"),
    "cli": ("parse", "lr_coefficient", "lr_coefficient_memo", "nl_coefficient",
            "nl_sum_support", "tensor_decompose", "SkewShape", "enumerate_lr_tableaux"),
}

LAYERS = ("bench", "cli", "detection", "newell_littlewood", "lr", "tableaux", "partitions")
SEARCHES = ("count_lr_fillings", "enumerate_lr_tableaux")
NL_VALUES = ("nl_coefficient", "nl_coefficient_full")
LR_VALUES = ("lr_coefficient", "lr_coefficient_memo")


def layer_of(obj) -> str:
    """The package module an object is defined in: its layer."""
    return getattr(obj, "__module__", "").rpartition(".")[2]


class Tracer:
    """Span recorder and the set of wrapped bindings it owns.

    Every span of the first traced round (the first ``install``) is kept and
    written out; later rounds only add to the per-site totals and counters.
    ``calibration`` is (the wrapper's per-call cost that its clock reads
    miss, the clock time inside a span's own reading), in ns; by default it
    is measured at every ``install``, and each measurement is kept in
    ``calibrations``."""

    def __init__(self, calibration: tuple[int, int] | None = None):
        self.sites: list[str] = []        # "<caller>:<layer>.<function>"
        self.site_layer: list[int] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.overhead_ns = 0
        self.counters = {"fillings": 0, "searches_in_lr": 0, "nl_coefficients": 0,
                         "lr_calls_in_nl": 0, "lr_nonzero_in_nl": 0}
        self.keeping = True
        self.span_site = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        # frame: [site, layer, span id or -1, child ns, parent frame]; the
        # root stands for "no span"
        self.stack: list[list] = [[-1, -1, -1, 0, None]]
        self.fixed = calibration
        self.residual_ns, self.bias_ns = calibration or (0, 0)
        self.calibrations: list[tuple[int, int]] = []
        self._bindings: list[tuple] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _site(self, name: str, layer: str) -> int:
        self.sites.append(name)
        self.site_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.sites) - 1

    def _enter(self, site: int, layer: int) -> list:
        parent = self.stack[-1]
        frame = [site, layer, -1, 0, parent]
        if self.keeping:
            frame[2] = len(self.span_site)
            self.span_site.append(site)
            self.span_parent.append(parent[2])
            self.span_start.append(0)
            self.span_end.append(0)
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, outer: int, start: int, end: int) -> None:
        """Close ``frame``'s span, which ran from ``start`` to ``end`` inside
        a wrapper entered at ``outer``, and charge its parent the wrapper's
        whole cost."""
        self.stack.pop()
        site, _, span, child, parent = frame
        duration = end - start - self.bias_ns
        self.calls[site] += 1
        self.total_ns[site] += duration
        self.self_ns[site] += duration - child
        if span >= 0:
            self.span_start[span] = start
            self.span_end[span] = end
        cost = time.perf_counter_ns() - outer + self.residual_ns
        parent[3] += cost
        self.overhead_ns += cost - duration

    def _tally(self, func: str):
        """The counter update for a call of ``func``, or None."""
        c = self.counters
        lr_layer, nl_layer = LAYERS.index("lr"), LAYERS.index("newell_littlewood")
        if func in SEARCHES:
            def tally(frame, result):
                c["fillings"] += result if type(result) is int else len(result)
                c["searches_in_lr"] += frame[4][1] == lr_layer
        elif func in NL_VALUES:
            def tally(frame, result):
                c["nl_coefficients"] += 1
        elif func in LR_VALUES:
            def tally(frame, result):
                if frame[4][1] == nl_layer:
                    c["lr_calls_in_nl"] += 1
                    c["lr_nonzero_in_nl"] += result != 0
        else:
            return None
        return tally

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording one span per call under site ``name``."""
        site = self._site(name, layer)
        layer_id = LAYERS.index(layer)
        tally = self._tally(name.rpartition(".")[2])
        enter, leave, clock = self._enter, self._leave, time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = clock()
            frame = enter(site, layer_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, outer, start, clock())
                raise
            end = clock()
            if tally is not None:
                tally(frame, result)
            leave(frame, outer, start, end)
            return result

        return traced

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding listed in SITES that the package still has.

        ``nl_coefficient`` as bound in ``newell_littlewood`` itself, which
        ``tensor_decompose`` calls once per candidate weight, only counts
        coefficients: it is a call inside one layer, not a span, and its
        wrapper (one counter update) is left in the layer's self time. The
        wrappers are made on the first install and reused after."""
        if self.fixed is None:
            self.residual_ns, self.bias_ns = calibrate()
            self.calibrations.append((self.residual_ns, self.bias_ns))
        if not self._bindings:
            self._bindings = self._make_bindings()
        for module, name, replacement in self._bindings:
            self._patched.append((module, name, getattr(module, name)))
            setattr(module, name, replacement)

    def _make_bindings(self) -> list[tuple]:
        bindings = []
        for caller, names in SITES.items():
            module = importlib.import_module(f"tensorcube.{caller}")
            for name in names:
                original = getattr(module, name, None)
                layer = layer_of(original)
                if original is not None and layer in LAYERS:
                    wrapped = self.wrap(original, f"{caller}:{layer}.{name}", layer)
                    bindings.append((module, name, wrapped))
        nl = importlib.import_module("tensorcube.newell_littlewood")
        original = getattr(nl, "nl_coefficient", None)
        if original is not None:
            counters = self.counters

            def counted(*args, **kwargs):
                counters["nl_coefficients"] += 1
                return original(*args, **kwargs)

            bindings.append((nl, "nl_coefficient", counted))
        return bindings

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
        self.keeping = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        i = LAYERS.index(layer)
        return sum(ns for ns, l in zip(self.self_ns, self.site_layer) if l == i) / 1e9

    def layer_calls(self, layer: str) -> int:
        i = LAYERS.index(layer)
        return sum(c for c, l in zip(self.calls, self.site_layer) if l == i)

    def function(self, func: str) -> tuple[int, float]:
        """Calls and inclusive seconds of every site of one function."""
        hits = [i for i, s in enumerate(self.sites) if s.endswith("." + func)]
        return (sum(self.calls[i] for i in hits), sum(self.total_ns[i] for i in hits) / 1e9)

    def dump(self, path, extra: dict) -> None:
        """Write sites, counters and the kept spans as one JSON document.

        Span i has a site index, a parent span index (-1 for a root), and
        start and end in ns from the first kept span's start. The span
        arrays are written one at a time, so that only one is ever held as
        Python integers."""
        doc = dict(extra)
        doc["sites"] = [{"site": s, "layer": LAYERS[l], "calls": c,
                         "total_s": t / 1e9, "self_s": x / 1e9}
                        for s, l, c, t, x in zip(self.sites, self.site_layer, self.calls,
                                                 self.total_ns, self.self_ns)]
        doc["counters"] = dict(self.counters)
        doc["overhead_s"] = self.overhead_ns / 1e9
        doc["calibrations_ns"] = [{"residual": r, "bias": b} for r, b in self.calibrations]
        origin = self.span_start[0] if self.span_start else 0
        columns = (("span_site", lambda: self.span_site.tolist()),
                   ("span_parent", lambda: self.span_parent.tolist()),
                   ("span_start_ns", lambda: [t - origin for t in self.span_start]),
                   ("span_end_ns", lambda: [t - origin for t in self.span_end]))
        with open(path, "w") as fh:
            fh.write(json.dumps(doc)[:-1])  # reopened: the span columns follow
            for key, column in columns:
                fh.write(f", {json.dumps(key)}: ")
                json.dump(column(), fh)
            fh.write("}\n")


def calibrate(calls: int = 10_000, repeats: int = 5) -> tuple[int, int]:
    """The wrapper's per-call cost that its clock reads do not see, and the
    clock time a span's own duration holds, in ns.

    Per repetition, over ``calls`` iterations: an empty loop, a loop calling
    an empty function of two arguments, as most wrapped names take, and one
    calling it wrapped. The span's reading less the
    bare call is the bias; the wrapped call's extra cost less what the
    wrapper charged as overhead, and less the bias, is the residual. Medians
    over ``repeats``, at least 0."""
    probe = Tracer(calibration=(0, 0))
    probe.keeping = False

    def empty(a, b):
        pass

    wrapped = probe.wrap(empty, "bench:bench.empty", "bench")
    clock, loop = time.perf_counter_ns, range(calls)
    residuals, biases = [], []
    for _ in range(repeats):
        t = clock()
        for _ in loop:
            pass
        idle = clock() - t
        t = clock()
        for _ in loop:
            empty(0, 0)
        bare = clock() - t
        charged, inner = probe.overhead_ns, probe.total_ns[0]
        t = clock()
        for _ in loop:
            wrapped(0, 0)
        visible = clock() - t
        bias = (probe.total_ns[0] - inner - (bare - idle)) / calls
        biases.append(bias)
        residuals.append((visible - bare - (probe.overhead_ns - charged)) / calls - bias)
    return (max(0, round(statistics.median(residuals))), max(0, round(statistics.median(biases))))
