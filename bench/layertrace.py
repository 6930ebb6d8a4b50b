"""Outside-in tracing of the library's layers.

:class:`Tracer` replaces each traced function by a wrapper in every
``cyclomag`` module namespace that holds a reference to it, records
calls, total time and self time (total minus the time spent in wrapped
children), and puts the originals back on :meth:`Tracer.uninstall`.
Wrappers record only between :meth:`Tracer.start` and
:meth:`Tracer.stop`, so the benchmark's own checks, which also call the
library, stay out of the figures.
Nothing under ``src/`` is edited; the wrappers exist only while a
tracer is installed.
"""

from __future__ import annotations

import inspect
import sys
import time
import warnings
from collections import defaultdict

import cyclomag
from cyclomag import cli, graphs, relations, walks

# (module, function) pairs traced by name.  ``_iter_inducing_paths`` is
# the one private function that crosses a module boundary (abstraction
# imports it from separation).
FUNCTIONS = (
    ("relations", "ancestors"),
    ("relations", "strongly_connected_components"),
    ("relations", "scc_index"),
    ("relations", "enumerate_simple_paths"),
    ("separation", "sigma_separated"),
    ("separation", "m_separated"),
    ("separation", "sigma_inducing_exists"),
    ("separation", "_iter_inducing_paths"),
    ("separation", "canonical_inducing_separator"),
    ("equivalence", "discriminating_paths"),
    ("equivalence", "condition1"),
    ("equivalence", "unshielded_colliders"),
    ("equivalence", "is_discriminating"),
    ("abstraction", "marginalize"),
    ("abstraction", "represent"),
    ("abstraction", "validate"),
    ("abstraction", "canonical_dmg"),
    ("io_text", "parse_graph"),
    ("io_text", "serialize_graph"),
    ("io_text", "export_dot"),
)
# Constructors traced through ``__init__``; Walk is only counted, since
# witness and path building call it far too often to time each call.
TIMED_CLASSES = ((graphs, "MixedGraph"), (graphs, "DirectedMixedGraph"))
COUNTED_CLASSES = ((walks, "Walk"),)
# CLI subcommands reported as cli.<command>.
CLI_COMMANDS = ("validate", "equiv", "export-dot", "msep")

CAP_WARNING = "discriminating-path enumeration capped"
SEPARATION = ("separation.sigma_separated", "separation.m_separated")
GENERATOR_COUNTS = ("relations.enumerate_simple_paths", "separation._iter_inducing_paths")


class Stat:
    __slots__ = ("calls", "total", "self_time", "yielded", "capped", "separated")

    def __init__(self):
        self.calls = self.yielded = self.capped = self.separated = 0
        self.total = self.self_time = 0.0


def _library_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "cyclomag" or name.startswith("cyclomag.")]


class Tracer:
    """Wraps the traced functions while installed and accumulates :class:`Stat`."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache_info = self._cache_base = None
        self.active = False
        self.cache_hits = self.cache_misses = 0

    # -- wrappers ---------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, stat: Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        stat.total += dt
        stat.self_time += dt - self._stack.pop()
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def generator(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stat.calls += 1
                return tracer._steps(stat, fn(*args, **kwargs))

            return generator
        if name == "equivalence.discriminating_paths":

            def discriminating(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stat.calls += 1
                t0 = tracer._enter()
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                finally:
                    tracer._leave(stat, t0)
                stat.capped += sum(CAP_WARNING in str(w.message) for w in caught)
                stat.yielded += len(result)
                return result

            return discriminating
        count_separated = name in SEPARATION

        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(stat, t0)
            if count_separated:
                stat.separated += result.separated
            return result

        return timed

    def _steps(self, stat: Stat, it):
        # Time spent inside the generator is charged to the frame that
        # resumed it, one resumption at a time.
        try:
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(stat, t0)
                stat.yielded += 1
                yield item
        finally:
            it.close()

    def _counted_init(self, name: str, init):
        stat = self.stats[name]

        def counted(obj, *args, **kwargs):
            stat.calls += self.active
            init(obj, *args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # The memo's counters, read from the lru_cache object itself; absent
        # once the memo is gone, and then the hit ratio stays 0.
        self._cache_info = getattr(relations.strongly_connected_components, "cache_info", None)
        modules = _library_modules()
        for module_name, attr in FUNCTIONS:
            original = getattr(getattr(cyclomag, module_name), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module, cls_name in TIMED_CLASSES:
            cls = getattr(module, cls_name)
            self._patch(cls, "__init__", self._wrap(f"graphs.{cls_name}.init", cls.__dict__["__init__"]))
        for module, cls_name in COUNTED_CLASSES:
            cls = getattr(module, cls_name)
            self._patch(cls, "__init__", self._counted_init(f"walks.{cls_name}.init", cls.__dict__["__init__"]))
        for command in CLI_COMMANDS:
            attr = "_cmd_" + command.replace("-", "_")
            self._patch(cli, attr, self._wrap(f"cli.{command}", getattr(cli, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start(self) -> None:
        """Record from here on."""
        self._cache_base = self._cache_info() if self._cache_info else None
        self.active = True

    def stop(self) -> None:
        self.active = False
        if self._cache_base is not None:
            info = self._cache_info()
            self.cache_hits += info.hits - self._cache_base.hits
            self.cache_misses += info.misses - self._cache_base.misses

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric named in :func:`per_layer_names`, zero when unused."""
        out = {}
        for module_name, attr in FUNCTIONS:
            self._timed_metrics(out, f"{module_name}.{attr}")
        for _, cls_name in TIMED_CLASSES:
            self._timed_metrics(out, f"graphs.{cls_name}.init")
        for _, cls_name in COUNTED_CLASSES:
            out[f"walks.{cls_name}.init.calls"] = self.stats[f"walks.{cls_name}.init"].calls
        for command in CLI_COMMANDS:
            stat = self.stats[f"cli.{command}"]
            out[f"cli.{command}.calls"] = stat.calls
            out[f"cli.{command}.total_s"] = stat.total
        for name in GENERATOR_COUNTS + ("equivalence.discriminating_paths",):
            out[f"{name}.yielded"] = self.stats[name].yielded
        out["equivalence.discriminating_paths.capped"] = self.stats["equivalence.discriminating_paths"].capped
        lookups = self.cache_hits + self.cache_misses
        out["relations.strongly_connected_components.hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        for name in SEPARATION:
            stat = self.stats[name]
            out[f"{name}.separated_frac"] = stat.separated / stat.calls if stat.calls else 0.0
        return out

    def _timed_metrics(self, out: dict, name: str) -> None:
        stat = self.stats[name]
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.total_s"] = stat.total
        out[f"{name}.self_s"] = stat.self_time


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = list(Tracer().metrics()) + ["trace.overhead_frac"]
    out = []
    for name in names:
        if name.endswith("_s"):
            out.append((name, "s", "lower"))
        elif name.endswith(("hit_ratio", "separated_frac")):
            out.append((name, "ratio", "higher"))
        elif name == "trace.overhead_frac":
            out.append((name, "ratio", "lower"))
        else:
            out.append((name, "count", "lower"))
    return out


def library_snapshot() -> list[tuple[object, str, object]]:
    """Every attribute of every library module, and each traced class's ``__init__``."""
    snap = [(m, key, value) for m in _library_modules() for key, value in vars(m).items()]
    for module, cls_name in TIMED_CLASSES + COUNTED_CLASSES:
        cls = getattr(module, cls_name)
        snap.append((cls, "__init__", cls.__dict__["__init__"]))
    return snap


def snapshot_matches(snap) -> bool:
    """True when every attribute in ``snap`` is still the very same object."""
    return all(
        (owner.__dict__.get(key) if isinstance(owner, type) else getattr(owner, key, None)) is value
        for owner, key, value in snap
    )
