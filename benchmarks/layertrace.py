"""In-memory span tracing of robpareto's layers, from outside the package.

A Tracer replaces each traced public function at every module binding it
has (``from .x import f`` copies a function into the importing module, so
patching only the defining module would miss most calls).  Each call
records a span: name, start, end, parent span and the id of the benchmark
operation it belongs to.  Spans live in flat arrays until the run ends;
``write_csv`` saves them and ``layer_metrics`` turns them into the
per-layer metrics named in BENCHMARK.json.

No threads are involved: the benchmark clears ROBPARETO_THREADS, so one
stack of open spans describes the call tree.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>", e.g. "core.Instance.image".
TARGETS = (
    ("cli", "main"),
    ("core", "Instance.image"),
    ("core", "objective_scale"),
    ("core", "instance_from_dict"),
    ("phantom", "generate"),
    ("efficiency", "classify"),
    ("efficiency", "pareto_filter_max"),
    ("geometry", "image_dominates"),
    ("geometry", "dominated_by_hull"),
    ("geometry", "signed_distance"),
    ("linprog", "lp_solve"),
    ("scalarize", "worst_case"),
    ("solve", "minimize_scalarized"),
    ("testing", "harness"),
    ("testing", "random_instance"),
)

# Span statistics reported as per-layer metrics: "<name>.calls", "<name>.s"
# (inclusive time) and "<name>.self_s" (time outside traced children), each
# per traced operation; cli.main.calls, the operation count, is the base.
PER_OP_CALLS = ("core.Instance.image", "efficiency.classify", "efficiency.pareto_filter_max",
                "geometry.dominated_by_hull", "geometry.signed_distance", "linprog.lp_solve",
                "scalarize.worst_case", "solve.minimize_scalarized", "testing.harness")
PER_OP_TOTAL_S = ("core.Instance.image", "core.objective_scale", "core.instance_from_dict",
                  "phantom.generate", "efficiency.pareto_filter_max", "geometry.image_dominates",
                  "geometry.signed_distance", "linprog.lp_solve", "scalarize.worst_case",
                  "testing.random_instance")
PER_OP_SELF_S = ("cli.main", "efficiency.classify", "solve.minimize_scalarized", "testing.harness")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans around the TARGETS while installed (use as a context manager)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list = []
        self.counters: Counter = Counter()
        self._patched: list = []
        self.origin = 0.0

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                stack.pop()
                self.counters[name + ".raised"] += 1
                raise
            self.end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        self.origin = time.perf_counter()
        modules = {name[len("robpareto."):]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("robpareto.") and mod is not None}
        bindings = [m for name, m in sys.modules.items()
                    if m is not None and (name == "robpareto" or name.startswith("robpareto."))]
        for mod_name, path in TARGETS:
            owner, attr = _resolve(modules[mod_name], path)
            original = getattr(owner, attr)
            wrapped = self._wrap(f"{mod_name}.{path}", original, _OBSERVERS.get(f"{mod_name}.{path}"))
            if "." in path:  # a method: its class is its only binding
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    # -- reporting -------------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        child = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for idx, nid in enumerate(self.name_id):
            dur = self.end[idx] - self.start[idx]
            row = stats[self.names[nid]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[idx]
        return stats

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
        stats = self.span_stats()
        ops = stats["cli.main"][0]
        per_op = 1.0 / ops if ops else 0.0
        c = self.counters
        out = {"cli.main.calls": (float(ops), "count")}
        for name in PER_OP_CALLS:
            out[name + ".calls"] = (stats[name][0] * per_op, "1/op")
        for name in PER_OP_TOTAL_S:
            out[name + ".s"] = (stats[name][1] * per_op, "s/op")
        for name in PER_OP_SELF_S:
            out[name + ".self_s"] = (stats[name][2] * per_op, "s/op")
        dom_calls = stats["geometry.image_dominates"][0]
        out["geometry.image_dominates.calls.plain"] = (c["image_dominates.plain"] * per_op, "1/op")
        out["geometry.image_dominates.calls.hull"] = (c["image_dominates.hull"] * per_op, "1/op")
        out["geometry.image_dominates.hit_ratio"] = (_ratio(c["image_dominates.hit"], dom_calls), "ratio")
        lp_calls = stats["linprog.lp_solve"][0]
        out["linprog.lp_solve.optimal_ratio"] = (_ratio(c["lp_solve.optimal"], lp_calls), "ratio")
        out["linprog.lp_solve.failed"] = (c["linprog.lp_solve.raised"] * per_op, "1/op")
        out["solve.evaluations"] = (c["solve.evaluations"] * per_op, "1/op")
        return out

    def layer_shares(self) -> dict:
        """Self time of each layer (module) as a share of all traced operation time."""
        stats = self.span_stats()
        total = stats["cli.main"][1]
        shares = Counter()
        for name, (_, _, self_s) in stats.items():
            shares[name.split(".")[0]] += self_s
        return {layer: (s / total if total else 0.0) for layer, s in shares.most_common()}

    def write_csv(self, path: str) -> None:
        """One line per span; times in seconds from when tracing started."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for idx, nid in enumerate(self.name_id):
                fh.write(f"{idx},{self.names[nid]},{self.start[idx] - origin:.9f},"
                         f"{self.end[idx] - origin:.9f},{self.parent[idx]},{self.op[idx]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _observe_dominates(counters, args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "plain")
    counters["image_dominates." + mode] += 1
    if result is not None:
        counters["image_dominates.hit"] += 1


def _observe_lp(counters, args, kwargs, result):
    if result.status == "optimal":
        counters["lp_solve.optimal"] += 1


def _observe_solve(counters, args, kwargs, result):
    counters["solve.evaluations"] += result.evaluations


_OBSERVERS = {
    "geometry.image_dominates": _observe_dominates,
    "linprog.lp_solve": _observe_lp,
    "solve.minimize_scalarized": _observe_solve,
}
