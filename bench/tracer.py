"""Span tracer that wraps pathforce's public functions from outside.

Each traced function is replaced, in every pathforce module that binds it,
by a wrapper that times the call. Patching module globals also catches calls
from inside the defining module, e.g. oracle.level_certs recursing into
itself or canonical.canonical_certificate calling certificate_adj.

Spans live in memory as (id, name, parent id, start, end) and are written
out when the run ends. Functions called once per trial or per graph class
are HOT: they are only aggregated (calls, self time, total time), and their
children attach to the nearest recorded span. Self time is a call's duration
minus the time covered by its traced children. Total time counts only the
outermost activation of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from workloads import LEMMA_SUITES

# (module, function) pairs to trace, in report order.
TRACED = (
    ("cli", "main"),
    ("oracle", "run_suite"),
    ("oracle", "level_certs"),
    ("oracle", "random_bipartite_instance"),
    ("oracle", "hypothesis_holds"),
    ("canonical", "certificate_adj"),
    ("graph", "build_graph"),
    ("graph", "is_two_connected"),
    ("graph", "is_essentially_two_connected"),
    ("graph", "decode_graph6"),
    ("constructions", "build_G"),
    ("formulas", "phi"),
    ("solvers", "contains_path"),
    ("solvers", "longest_path"),
    ("solvers", "longest_cycle"),
    ("solvers", "find_cycle_through_X"),
    ("solvers", "path_cover_of_X"),
    ("solvers", "merge_high_end_paths"),
)

HOT = {
    "oracle.random_bipartite_instance", "oracle.hypothesis_holds",
    "canonical.certificate_adj", "graph.build_graph", "graph.is_two_connected",
    "graph.is_essentially_two_connected", "formulas.phi", "solvers.contains_path",
    "solvers.longest_path", "solvers.find_cycle_through_X", "solvers.path_cover_of_X",
    "solvers.merge_high_end_paths",
}

CONNECTIVITY = ("graph.is_two_connected", "graph.is_essentially_two_connected")


def _label(name: str, args: tuple, kwargs: dict) -> str:
    """Per-argument span names where a layer splits naturally."""
    if name == "oracle.level_certs":
        return f"{name}.n{args[0] if args else kwargs['n']}"
    if name == "oracle.run_suite":
        return f"{name}.{args[0] if args else kwargs['suite_id']}"
    return name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.stats: dict[str, list[float]] = {}  # label -> [calls, self_s, total_s]
        self.name_total: Counter = Counter()     # name -> outermost-activation time
        self.by_parent: Counter = Counter()      # (parent label, label) -> calls
        self.counters: Counter = Counter()
        self.level_sizes: dict[int, int] = {}
        self._stack: list[list] = []             # [label, child_s, span id]
        self._open: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "pathforce" or key.startswith("pathforce.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"pathforce.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        record = name not in HOT
        stack, spans, stats, open_, by_parent, name_total = (
            self._stack, self.spans, self.stats, self._open, self.by_parent, self.name_total)
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            label = _label(name, args, kwargs)
            parent = stack[-1] if stack else None
            by_parent[(parent[0] if parent else None, label)] += 1
            span_id = len(spans) if record else None
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [label, 0.0, span_id if record else (parent[2] if parent else None)]
            stack.append(frame)
            open_[label] += 1
            open_[name] += label != name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[label] -= 1
                open_[name] -= label != name
                duration = end - start
                st = stats.setdefault(label, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += duration - frame[1]
                if not open_[label]:
                    st[2] += duration
                if not open_[name]:
                    name_total[name] += duration
                if parent is not None:
                    parent[1] += duration
                if record:
                    spans[span_id] = (span_id, label,
                                      parent[2] if parent else None, start, end)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_solvers_longest_path(self, args, kwargs, result) -> None:
        if not result.optimal:
            self.counters["longest_path.inconclusive"] += 1

    def _on_oracle_random_bipartite_instance(self, args, kwargs, result) -> None:
        profile = args[2] if len(args) > 2 else kwargs.get("profile")
        if profile in ("klz", "essential"):
            self.counters["instance.tested_profile_returned"] += 1

    def _on_oracle_level_certs(self, args, kwargs, result) -> None:
        self.level_sizes[args[0] if args else kwargs["n"]] = len(result)

    def _total(self, name: str, field: int) -> float:
        return sum(st[field] for label, st in self.stats.items()
                   if label == name or label.startswith(name + "."))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; every name is present even when its layer was idle."""
        out: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = int(self._total(name, 0))
            out[f"{name}.self_s"] = self._total(name, 1)
            out[f"{name}.total_s"] = self.name_total[name]
        for n in (7, 8):
            st = self.stats.get(f"oracle.level_certs.n{n}", [0, 0.0, 0.0])
            out[f"oracle.level_certs.n{n}.self_s"] = st[1]
            out[f"oracle.level_certs.n{n}.total_s"] = st[2]
        for suite in (*LEMMA_SUITES, "formula-vs-oracle"):
            out[f"oracle.run_suite.{suite}.total_s"] = \
                self.stats.get(f"oracle.run_suite.{suite}", [0, 0.0, 0.0])[2]
        enum_certs = sum(calls for (parent, label), calls in self.by_parent.items()
                         if label == "canonical.certificate_adj" and parent
                         and parent.startswith("oracle.level_certs."))
        classes = sum(size for n, size in self.level_sizes.items() if n >= 2)
        out["oracle.enum.useful_ratio"] = classes / enum_certs if enum_certs else 0.0
        tests = sum(calls for (parent, label), calls in self.by_parent.items()
                    if label in CONNECTIVITY and parent == "oracle.random_bipartite_instance")
        accepted = self.counters["instance.tested_profile_returned"]
        out["oracle.instance.accept_ratio"] = accepted / tests if tests else 0.0
        out["solvers.longest_path.inconclusive"] = self.counters["longest_path.inconclusive"]
        return out

    def dump(self, path) -> None:
        payload = {
            "spans": [list(s) for s in self.spans if s is not None],
            "span_fields": ["id", "name", "parent", "start_s", "end_s"],
            "aggregates": {label: {"calls": st[0], "self_s": st[1], "total_s": st[2]}
                           for label, st in sorted(self.stats.items())},
            "calls_by_parent": [[p, c, k] for (p, c), k in sorted(
                self.by_parent.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
