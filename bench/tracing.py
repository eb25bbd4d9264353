"""Outside-in span tracing for teamcoord, installed from the benchmark.

`Tracer.install()` wraps every public function of the teamcoord modules at
each module-level name through which callers reach it (so `cli.read_session`
and `session_io.read_session` share one wrapper), plus `observe` and `act`
on the controller classes that define them. Nothing in the package changes
on disk; `uninstall()` puts the original objects back.

Spans are kept in memory as (name, start_ns, end_ns, parent) records and
folded into per-name and per-layer totals by `fold()`, which the benchmark
calls after each op. A span's self time is its duration minus the durations
of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# module -> layer; the sim package and its three modules form one layer
LAYERS = {
    "teamcoord.cli": "cli",
    "teamcoord.sim": "sim",
    "teamcoord.sim.maps": "sim",
    "teamcoord.sim.world": "sim",
    "teamcoord.sim.policies": "sim",
    "teamcoord.session_io": "session_io",
    "teamcoord.core": "core",
    "teamcoord.occupancy": "occupancy",
    "teamcoord.metrics": "metrics",
    "teamcoord.outcomes": "outcomes",
    "teamcoord.stats": "stats",
    "teamcoord.special": "special",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# short span names for functions whose own names are long or CLI-internal
_ALIASES = {
    "cmd_simulate": "simulate",
    "cmd_metrics": "metrics",
    "cmd_stats": "stats",
    "cmd_timeseries": "timeseries",
    "step_resolved": "step",
    "jensen_shannon_divergence": "jsd",
}

_CONTROLLER_METHODS = ("observe", "act")


def _series_name(args, kwargs) -> str:
    metric = args[1] if len(args) > 1 else kwargs["metric"]
    return f"metrics.series.{getattr(metric, 'value', metric)}"


class Tracer:
    """Records spans while installed; accumulates totals across `fold()` calls."""

    def __init__(self):
        self._spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []  # indices into _spans of the open spans
        self._originals: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)  # inclusive, recursion counted once
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "teamcoord" or name.startswith("teamcoord.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__ in LAYERS
                        and not obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, self._name_of(obj))
                self._patch(module, attr, wrappers[id(obj)])
        policies = sys.modules["teamcoord.sim.policies"]
        for obj in list(vars(policies).values()):
            if not (inspect.isclass(obj) and obj.__module__ == policies.__name__):
                continue
            for method in _CONTROLLER_METHODS:
                fn = obj.__dict__.get(method)
                if inspect.isfunction(fn):
                    self._patch(obj, method, self._wrap(fn, lambda a, k, n=method: f"sim.{n}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _name_of(fn):
        if fn.__name__ == "metric_time_series":
            return _series_name
        name = f"{LAYERS[fn.__module__]}.{_ALIASES.get(fn.__name__, fn.__name__)}"
        return lambda args, kwargs: name

    def _wrap(self, fn, name_of):
        spans, stack = self._spans, self._stack
        hook = _HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            index = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                self._count_error(name, exc)
                raise
            else:
                end = perf_counter_ns()
                if hook is not None:
                    hook(self.counters, args, result)
                return result
            finally:
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])

        return traced

    def _count_error(self, name: str, exc: BaseException) -> None:
        # count an exception once, in the layer it first leaves
        if getattr(exc, "_traced", False):
            return
        try:
            exc._traced = True
        except AttributeError:
            pass
        self.errors[name.split(".", 1)[0]] += 1

    # -- aggregation ------------------------------------------------------------

    def fold(self) -> None:
        """Fold the recorded spans into the totals and drop them."""
        spans = self._spans
        if self._stack:
            raise RuntimeError("fold() called inside an open span")
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_ns[i]
            layer = name.split(".", 1)[0]
            self.calls[name] += 1
            self.self_ns[name] += own
            self.layer_calls[layer] += 1
            self.layer_self_ns[layer] += own
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                self.total_ns[name] += end - start
        spans.clear()


# Counters read off arguments and results at a span's end, outside its timing.

def _count_step(counters, args, result) -> None:
    actions, (_, resolved) = args[1], result
    counters["sim.ticks"] += 1
    for req, done in zip(actions, resolved):
        if req.kind.value != "wait":
            counters["sim.requested"] += 1
            if done.kind.value == "wait":
                counters["sim.degraded"] += 1


def _count_write(counters, args, result) -> None:
    counters["session_io.bytes_written"] += sum(p.stat().st_size for p in result)


def _count_read(counters, args, result) -> None:
    counters["session_io.reads"] += 1
    counters["session_io.lines_read"] += sum(len(p.samples) for p in result.players)


_HOOKS = {
    "step_resolved": _count_step,
    "write_session": _count_write,
    "read_session": _count_read,
}
