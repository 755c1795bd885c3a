"""Per-function tracing of the zerosum library from outside.

`Tracer.install` wraps each function in TARGETS by rebinding it in every
loaded `zerosum` module that holds it (cli, search, structure and
davenport import by name, so rebinding only the defining module would miss
their calls).  A plain function is timed per call; a generator is timed
per `next()`, and each yield counts as one item.  Calls and self time are
aggregated per function; self time is the time inside a call minus the
time inside wrapped callees.  Spans are kept only for jobs and for layer
entries, aggregated per (job, calling layer, entered layer), so sweeps
yielding millions of nodes do not grow the trace.  `uninstall` puts the
original functions back.

A function missing from the library (removed by a refactor) is reported
missing, so its metrics are absent rather than 0.
"""

from __future__ import annotations

import inspect
import sys
import time

# Layer (module) -> public functions whose calls are timed.  `reports` is
# plain data and is not measured.
TARGETS = {
    "cli": ("main",),
    "search": ("find_extremals", "random_search", "construct_extremal"),
    "structure": ("minimal_zero_sums", "max_subgroups_in_extremal_set",
                  "condition_profile", "construct_unbounded_family", "check_es_chain"),
    "davenport": ("davenport_exact", "davenport", "zero_sum_free_sequences",
                  "is_zero_sum_free"),
    "counting": ("sweep_counts", "count_all", "subsums", "extremal_set"),
    "sequences": ("sequence", "seq_sum", "iterate_multisets"),
    "groups": ("quotient_group", "smith_normal_form", "all_subgroups", "subgroup_closure"),
}

# Functions whose distinct argument tuples are counted (distinct_ratio).
DISTINCT = frozenset({"davenport.davenport", "groups.quotient_group"})


class Stat:
    """Aggregate of one wrapped function."""

    __slots__ = ("name", "layer", "generator", "calls", "items", "self_s", "adds",
                 "entries", "keys", "items_by_caller")

    def __init__(self, name: str, layer: str, generator: bool):
        self.name = name
        self.layer = layer
        self.generator = generator
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        self.adds = 0          # group additions done, for ns_per_add
        self.entries = 0       # catalog entries returned (find_extremals)
        self.keys = set() if name in DISTINCT else None
        self.items_by_caller: dict[str, int] = {}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _after_call(stat: Stat, args, kwargs, result) -> None:
    """Counts taken from a call's arguments and result, outside its timing."""
    if stat.keys is not None:
        stat.keys.add((args, tuple(sorted(kwargs.items()))))
    if stat.name == "counting.count_all":
        S = _first_arg(args, kwargs)
        stat.adds += S.group.order * len(S)
    elif stat.name == "search.find_extremals":
        stat.entries += len(result.entries)


def _adds_per_item(stat: Stat, args, kwargs) -> int:
    """sweep_counts does |G| additions for each multiset it yields."""
    if stat.name == "counting.sweep_counts":
        return _first_arg(args, kwargs).order
    return 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        # Each frame: [time inside wrapped callees, layer, function name].
        self.stack: list[list] = []
        self.job = -1
        self.job_spans: list[dict] = []
        # (job, calling layer, entered layer) -> [entries, first start, last end, inclusive s]
        self.layer_entries: dict[tuple, list] = {}
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zerosum" or name.startswith("zerosum."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"zerosum.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                generator = inspect.isgeneratorfunction(original)
                stat = self.stats[name] = Stat(name, layer, generator)
                if generator:
                    wrapper = self._wrap_generator(stat, original)
                else:
                    wrapper = self._wrap_call(stat, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def begin_job(self, argv) -> None:
        self.job += 1
        self.job_spans.append({"job": self.job, "argv": list(argv),
                               "start": time.perf_counter(), "end": None})

    def end_job(self) -> None:
        self.job_spans[-1]["end"] = time.perf_counter()

    def _enter_layer(self, caller_layer: str, layer: str, t0: float, dt: float) -> None:
        key = (self.job, caller_layer, layer)
        entry = self.layer_entries.get(key)
        if entry is None:
            self.layer_entries[key] = [1, t0, t0 + dt, dt]
        else:
            entry[0] += 1
            entry[2] = t0 + dt
            entry[3] += dt

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, stat: Stat, fn):
        stack = self.stack
        clock = time.perf_counter
        layer = stat.layer

        def traced(*args, **kwargs):
            caller_layer = stack[-1][1] if stack else "job"
            frame = [0.0, layer, stat.name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if caller_layer != layer:
                    self._enter_layer(caller_layer, layer, t0, dt)
            _after_call(stat, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, stat: Stat, fn):
        def traced(*args, **kwargs):
            stat.calls += 1
            return self._iterate(stat, fn(*args, **kwargs), _adds_per_item(stat, args, kwargs))

        return traced

    def _iterate(self, stat: Stat, gen, adds_per_item: int):
        stack = self.stack
        clock = time.perf_counter
        layer = stat.layer
        by_caller = stat.items_by_caller
        try:
            while True:
                caller = stack[-1] if stack else None
                caller_layer = caller[1] if caller else "job"
                frame = [0.0, layer, stat.name]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.self_s += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    if caller_layer != layer:
                        self._enter_layer(caller_layer, layer, t0, dt)
                stat.items += 1
                stat.adds += adds_per_item
                caller_name = caller[2] if caller else "job"
                by_caller[caller_name] = by_caller.get(caller_name, 0) + 1
                yield item
        finally:
            gen.close()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-function metrics, named `<layer>.<function>.<metric>`.

        A ratio whose base is 0 (the function was not reached on this
        workload) reads 0."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            if s.generator:
                out[f"{name}.items"] = s.items
            if s.keys is not None:
                out[f"{name}.distinct_ratio"] = len(s.keys) / s.calls if s.calls else 0.0
        for name in ("counting.sweep_counts", "counting.count_all"):
            s = self.stats.get(name)
            if s is not None:
                out[f"{name}.ns_per_add"] = s.self_s * 1e9 / s.adds if s.adds else 0.0
        sweep = self.stats.get("counting.sweep_counts")
        if sweep is not None:
            out["counting.sweep_counts.nodes"] = sweep.items
        find = self.stats.get("search.find_extremals")
        if find is not None:
            out["search.find_extremals.entries"] = find.entries
            if sweep is not None:
                fed = sweep.items_by_caller.get(find.name, 0)
                out["search.find_extremals.hit_ratio"] = find.entries / fed if fed else 0.0
        return out

    def spans(self) -> dict:
        return {
            "jobs": self.job_spans,
            "layer_entries": [
                {"job": job, "caller": caller, "layer": layer, "entries": n,
                 "start": start, "end": end, "inclusive_s": inclusive}
                for (job, caller, layer), (n, start, end, inclusive)
                in sorted(self.layer_entries.items())
            ],
            "missing": self.missing,
        }

