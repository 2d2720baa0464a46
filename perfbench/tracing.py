"""Outside-in, thread-aware tracing of the program's layers.

The benchmark wraps public functions of the ``backflow`` modules (and the
``TimeGenerator`` batch methods) from here, without touching the package
sources.  A wrapped function is replaced in every ``backflow`` module
namespace that holds it, so calls through ``from .x import f`` copies are
caught as well.  Each call records a span (name, start, end, parent, op id,
thread, work count) in memory.  A span's parent is the innermost open span
of its thread; a worker thread with no open span takes the innermost open
span of the thread that runs the ops (the sweep's ``run_sweep`` while it
waits on its pool).  Self time is a span's duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from backflow.generator import TimeGenerator


def _points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["times"]))


def _workers(args, kwargs):
    return int(kwargs.get("workers", args[1] if len(args) > 1 else 1))


#: (module, attribute, span name, work count from the call's arguments)
FUNCTIONS = [
    ("backflow.dynamics", "evolve", "dynamics.evolve", None),
    ("backflow.dynamics", "propagator_grid", "dynamics.propagator_grid", None),
    ("backflow.generator", "compile_generator", "generator.compile", None),
    ("backflow.rates", "rate_table", "rates.rate_table", None),
    ("backflow.rates", "lorentzian_rate", "rates.lorentzian_rate", None),
    ("backflow.rates", "nondriven_rate", "rates.nondriven_rate", None),
    ("backflow.rates", "nondriven_envelope", "rates.nondriven_envelope", None),
    ("backflow.rates", "nondriven_envelope_derivative", "rates.nondriven_envelope_derivative", None),
    ("backflow.rhp", "rhp_measure", "rhp.measure", None),
    ("backflow.rhp", "g_numeric_grid", "rhp.g_numeric_grid", _points),
    ("backflow.rhp", "g_analytic_grid", "rhp.g_analytic_grid", None),
    ("backflow.blp", "blp_measure", "blp.search", None),
    ("backflow.blp", "bloch_map_grid", "blp.bloch_map_grid", None),
    ("backflow.blp", "pair_distance_series", "blp.objective", None),
    ("backflow.sweep", "run_sweep", "sweep.run", _workers),
    ("backflow.sweep", "_sweep_point", "sweep.point", None),
]

#: TimeGenerator methods: (attribute, span name); work = time points.
METHODS = [
    ("batch", "generator.batch"),
    ("dissipative_batch", "generator.dissipative_batch"),
]

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans while ``enabled``; install() and remove() patch the program."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
            sid = next(self._ids)
            count = work(args, kwargs) if work else 1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op_id,
                                   threading.get_ident(), count))

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) traced, as the root span of one op on this thread."""
        self.op_id = op_id
        self._op_stack = self._stack()
        self.enabled = True
        try:
            return self.span(ROOT_SPAN, fn)(*args)
        finally:
            self.enabled = False

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "backflow" or n.startswith("backflow."))]
        for module, attr, name, work in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.span(name, original, work)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)
        for attr, name in METHODS:
            original = TimeGenerator.__dict__[attr]
            self._patches.append((TimeGenerator, attr, original))
            setattr(TimeGenerator, attr, self.span(name, original, _points))

    def remove(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def dump(self, path):
        fields = ("id", "name", "start", "end", "parent", "op", "thread", "work")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple], n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (per op unless named otherwise) and self-time shares."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for sid, name, start, end, parent, op, thread, count in spans:
        self_by_name[name] += own[sid]
        calls[name] += 1
        work[name] += count

    def layer_self(prefix):
        return sum(v for k, v in self_by_name.items() if k.startswith(prefix))

    def entry_calls(prefix):
        # calls into the layer from outside it
        return sum(1 for s in spans if s[1].startswith(prefix)
                   and not (s[4] in by_id and by_id[s[4]][1].startswith(prefix)))

    search_objective = sum(1 for s in spans if s[1] == "blp.objective"
                           and s[4] in by_id and by_id[s[4]][1] == "blp.search")
    sweep_capacity = sum((s[3] - s[2]) * s[7] for s in spans if s[1] == "sweep.run")
    sweep_busy = sum(s[3] - s[2] for s in spans if s[1] == "sweep.point")
    busy = sum(own.values())
    per_op = 1.0 / n_ops
    metrics = {
        "dynamics.propagator_grid.self_s": self_by_name["dynamics.propagator_grid"] * per_op,
        "dynamics.propagator_grid.calls_per_op": calls["dynamics.propagator_grid"] * per_op,
        "dynamics.evolve.self_s": self_by_name["dynamics.evolve"] * per_op,
        "generator.self_s": layer_self("generator.") * per_op,
        "generator.points": (work["generator.batch"] + work["generator.dissipative_batch"]) * per_op,
        "generator.compile_calls": calls["generator.compile"] * per_op,
        "rates.self_s": layer_self("rates.") * per_op,
        "rates.calls": entry_calls("rates.") * per_op,
        "rhp.g_numeric_grid.self_s": self_by_name["rhp.g_numeric_grid"] * per_op,
        "rhp.g_numeric_grid.points": work["rhp.g_numeric_grid"] * per_op,
        "rhp.g_analytic_grid.self_s": self_by_name["rhp.g_analytic_grid"] * per_op,
        "blp.search.self_s": self_by_name["blp.search"] * per_op,
        "blp.objective.self_s": self_by_name["blp.objective"] * per_op,
        "blp.objective.calls_per_measure": (
            search_objective / calls["blp.search"] if calls["blp.search"] else 0.0),
        "blp.bloch_map_grid.calls_per_op": calls["blp.bloch_map_grid"] * per_op,
        "sweep.wall_s": sum(s[3] - s[2] for s in spans if s[1] == "sweep.run") * per_op,
        "sweep.busy_ratio": sweep_busy / sweep_capacity if sweep_capacity else 0.0,
        "cli.self_s": self_by_name[ROOT_SPAN] * per_op,
        "trace.busy_s": busy * per_op,
    }
    shares = {name: value / busy for name, value in sorted(
        self_by_name.items(), key=lambda kv: -kv[1]) if value > 0.0}
    return metrics, shares


#: Modules whose cumulative import time is reported, in import order.
IMPORT_MODULES = ["backflow", "params", "rates", "generator", "dynamics", "rhp",
                  "blp", "sweep", "plotting", "cli"]

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(python: str, env: dict, cwd, repeats: int = 3) -> dict:
    """Median cumulative import time of each backflow module, via -X importtime."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import backflow.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and (m.group(4) == "backflow" or m.group(4).startswith("backflow.")):
                short = m.group(4).split(".", 1)[-1]
                samples[short].append(int(m.group(2)) * 1e-6)
    return {f"{mod}.import_s": statistics.median(samples[mod]) if samples[mod] else 0.0
            for mod in IMPORT_MODULES}
