"""Outside-in tracing: spans and counts recorded around the package's functions.

Nothing in the package is edited. ``Tracer.install`` replaces every binding
of each listed function in the loaded ``survroute`` modules, so callers that
imported a function by name (the engine binds ``archive_insert``, ``choose``
and ``report`` at import) reach the wrapper too. ``uninstall`` puts the
originals back.

A span is ``[name, start, end, parent, call]``: ``parent`` indexes the span
that was open when this one started (-1 for none) and ``call`` numbers the
CLI call it belongs to. Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "cli": ["write_front_csv"],
    "engine": [
        "initialize", "select_from", "vary", "local_search", "replace", "random_immigrants",
        "Evaluator.evaluate",
    ],
    "scheduler": ["choose", "report"],
    "archive": ["insert", "reduce", "nondom", "pareto_ranks", "survival_order"],
    "measures": ["hypervolume_clipped"],
    "netmodel": [
        "load_instance", "RouteProblem.evaluate", "assignment_string", "neighborhood",
        "mutate_reattach", "crossover_parentmix", "heavy_reattach", "random_assignment",
        "brute_force_pareto",
    ],
    "kernels": ["eval_route", "enumerate_routes", "dominance_matrix", "crowding_distance", "hv2d_sweep"],
}
SPAN_NAMES = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
EVAL_STAGES = ("engine.initialize", "engine.vary", "engine.local_search", "engine.random_immigrants")
COUNT_NAMES = [f"{stage}.evals" for stage in EVAL_STAGES] + ["netmodel.neighborhood.neighbors"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (call, key) -> count
        self.walk_us: dict[int, list[float]] = {}  # call -> durations of valid eval_route walks
        self.call = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[(self.call, key)] += n

    def _open_names(self):
        return (self.spans[i][0] for i in reversed(self.stack))

    def _after_evaluate(self, rec, args, result):
        self._count("evaluations")
        stage = next((n for n in self._open_names() if n in EVAL_STAGES), None)
        if stage is not None:
            self._count(f"{stage}.evals")

    def _after_eval_route(self, rec, args, result):
        if result[2]:
            self._count("eval_route.valid")
            self.walk_us.setdefault(self.call, []).append((rec[2] - rec[1]) * 1e6)

    def _after_insert(self, rec, args, result):
        self._count("archive.insert.accepted", int(result[1]))

    def _after_mutate(self, rec, args, result):
        self._count("netmodel.mutate_reattach.noop", int(result == args[1]))

    def _after_random_assignment(self, rec, args, result):
        if rec[3] >= 0 and self.spans[rec[3]][0] == "netmodel.crossover_parentmix":
            self._count("netmodel.crossover_parentmix.fallback")

    def _after_neighborhood(self, rec, args, result):
        self._count("netmodel.neighborhood.neighbors", len(result))

    def _after_enumerate(self, rec, args, result):
        self._count("oracle.valid", int(result[0].sum()))
        self._count("oracle.assignments", int(result[0].size))

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        after = {
            "engine.Evaluator.evaluate": self._after_evaluate,
            "kernels.eval_route": self._after_eval_route,
            "archive.insert": self._after_insert,
            "netmodel.mutate_reattach": self._after_mutate,
            "netmodel.random_assignment": self._after_random_assignment,
            "netmodel.neighborhood": self._after_neighborhood,
            "kernels.enumerate_routes": self._after_enumerate,
        }
        modules = [m for key, m in list(sys.modules.items()) if key == "survroute" or key.startswith("survroute.")]
        for name in SPAN_NAMES:
            layer, _, attr = name.partition(".")
            owner = importlib.import_module(f"survroute.{layer}")
            if "." in attr:  # a method: patch the class attribute
                cls_name, _, attr = attr.partition(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, after.get(name))
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._undo.append((target, key, value))
                        setattr(target, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, call: int) -> dict[str, float]:
        """Per-layer metrics of one traced CLI call."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()  # span index -> time covered by its children
        for i, (name, start, end, parent, call_id) in enumerate(self.spans):
            if call_id != call:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, parent, call_id) in enumerate(self.spans):
            if call_id == call:
                self_s[name] += end - start - child[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]

        def count(key: str) -> int:
            return self.counts[(call, key)]

        for key in COUNT_NAMES:
            out[key] = count(key)
        walks = calls["kernels.eval_route"]
        out["ls.neighbor_use_ratio"] = _ratio(count("engine.local_search.evals"), count("netmodel.neighborhood.neighbors"))
        out["kernels.eval_route.walks_per_eval"] = _ratio(walks, count("evaluations"))
        out["kernels.eval_route.valid_ratio"] = _ratio(count("eval_route.valid"), walks)
        us = self.walk_us.get(call, [])
        if len(us) >= 2:
            q = statistics.quantiles(us, n=100)
            out["kernels.eval_route.us_p50"], out["kernels.eval_route.us_p99"] = q[49], q[98]
        else:
            out["kernels.eval_route.us_p50"] = out["kernels.eval_route.us_p99"] = us[0] if us else 0.0
        out["archive.insert.accept_ratio"] = _ratio(count("archive.insert.accepted"), calls["archive.insert"])
        out["netmodel.mutate_reattach.noop_ratio"] = _ratio(
            count("netmodel.mutate_reattach.noop"), calls["netmodel.mutate_reattach"]
        )
        out["netmodel.crossover_parentmix.fallback_ratio"] = _ratio(
            count("netmodel.crossover_parentmix.fallback"), calls["netmodel.crossover_parentmix"]
        )
        out["oracle.valid_ratio"] = _ratio(count("oracle.valid"), count("oracle.assignments"))
        return out

    def write(self, path) -> None:
        """Dump every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
