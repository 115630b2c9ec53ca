"""Per-layer host timing, taken from outside the program.

:func:`install` wraps the public functions of each layer of ``repro`` —
the graph builder, the policy's profiling and offload selection, the cost
table, task build, the event engine, the result cache, serialization, the
experiment runner, the surrogate and the ``repro.api`` facade — with spans
on ``time.perf_counter``.  The program's files are not touched: each
wrapper replaces the function on its defining module or class, and on
every already-loaded ``repro`` module that imported it by name.

Spans nest per thread.  A layer's time is its *self* time: a span's
duration minus the time its child spans cover.  A call into a layer that is
already open on the same thread (a ``super()`` call, ``from_json`` calling
``from_dict``) folds into the open span.

:func:`parse_importtime` turns ``python -X importtime`` output into the
import-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import re
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Layers reported as ``<name>.calls`` and ``<name>.s``.
TIMED_LAYERS = (
    "nn.build_model",
    "nn.merge_graphs",
    "runtime.prepare",
    "sim.optable.cost_table",
    "sim.tracegen.generate_trace",
    "sim.simulation.init",
    "sim.simulation.run",
    "sim.simulation.faulted_run",
    "sim.engine.run",
    "sim.cache.run_fingerprint",
    "sim.cache.get",
    "sim.cache.read_object",
    "sim.cache.put",
    "sim.results.to_json",
    "sim.results.from_json",
    "experiments.runner.run_jobs",
    "experiments.format_result",
    "surrogate.estimate_run",
    "api.simulate",
)

#: Plain counters (not spans).
COUNTERS = (
    "sim.engine.events",
    "sim.cache.memory_hits",
    "sim.cache.disk_hits",
    "sim.cache.misses",
    "experiments.runner.jobs",
    "surrogate.fallbacks",
)


class Tracer:
    """Accumulates per-layer self time, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, fn: Callable, name, before=None, after=None) -> Callable:
        """Wrap ``fn`` in a span named ``name`` (a string, or a function of
        the call's arguments).  ``before(args, kwargs)`` runs first and its
        value reaches ``after(state, result, error, args)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = name(args) if callable(name) else name
            stack = self._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.self_s[layer] += elapsed - frame[1]
                if after is not None:
                    after(state, result, error, args)

        return wrapper

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with self._lock:
            for layer in TIMED_LAYERS:
                out[f"{layer}.calls"] = self.calls.get(layer, 0)
                out[f"{layer}.s"] = self.self_s.get(layer, 0.0)
            for name in COUNTERS:
                out[name] = self.counts.get(name, 0)
        return out


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's global name for ``original``
    at ``wrapper`` (modules that did ``from x import f``)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def _patch_function(tracer: Tracer, module_name: str, attr: str, name,
                    before=None, after=None) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapper = tracer.span(original, name, before, after)
    setattr(module, attr, wrapper)
    _rebind(original, wrapper)


def _patch_method(tracer: Tracer, cls: type, attr: str, name,
                  before=None, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            tracer.span(raw.__func__, name, before, after)
        ))
    else:
        setattr(cls, attr, tracer.span(raw, name, before, after))


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer of ``repro`` listed in :data:`TIMED_LAYERS`."""
    from repro.sim import cache as sim_cache
    from repro.sim.engine import Engine
    from repro.sim.policy import SchedulingPolicy
    from repro.sim.results import RunResult
    from repro.sim.simulation import Simulation
    import repro.experiments as experiments_pkg
    import repro.runtime.scheduler  # noqa: F401  (registers the policies)
    import repro.hardware.registry as registry

    registry.list_backends()  # loads backend plugins and their policies

    _patch_function(tracer, "repro.nn.models", "build_model", "nn.build_model")
    _patch_function(tracer, "repro.nn.graph", "merge_graphs", "nn.merge_graphs")
    for cls in _subclasses(SchedulingPolicy):
        if "prepare" in cls.__dict__:
            _patch_method(tracer, cls, "prepare", "runtime.prepare")
    _patch_function(tracer, "repro.sim.optable", "cost_table",
                    "sim.optable.cost_table")
    _patch_function(tracer, "repro.sim.tracegen", "generate_trace",
                    "sim.tracegen.generate_trace")
    _patch_method(tracer, Simulation, "__init__", "sim.simulation.init")
    _patch_method(
        tracer, Simulation, "run",
        lambda args: ("sim.simulation.faulted_run"
                      if getattr(args[0], "faults", None) is not None
                      else "sim.simulation.run"),
    )

    def engine_before(args, kwargs):
        return args[0].events_processed

    def engine_after(before, _result, _error, args):
        tracer.count("sim.engine.events", args[0].events_processed - before)

    _patch_method(tracer, Engine, "run", "sim.engine.run",
                  engine_before, engine_after)

    _patch_function(tracer, "repro.sim.cache", "run_fingerprint",
                    "sim.cache.run_fingerprint")

    def get_before(args, kwargs):
        return sim_cache.stats()

    def get_after(before, _result, _error, args):
        after = sim_cache.stats()
        for key in ("memory_hits", "disk_hits", "misses"):
            tracer.count(f"sim.cache.{key}", after[key] - before[key])

    _patch_function(tracer, "repro.sim.cache", "get", "sim.cache.get",
                    get_before, get_after)
    _patch_function(tracer, "repro.sim.cache", "_load_object_text",
                    "sim.cache.read_object")
    _patch_function(tracer, "repro.sim.cache", "put", "sim.cache.put")
    for attr in ("to_dict", "to_json"):
        _patch_method(tracer, RunResult, attr, "sim.results.to_json")
    for attr in ("from_dict", "from_json"):
        _patch_method(tracer, RunResult, attr, "sim.results.from_json")

    def jobs_before(args, kwargs):
        jobs = args[0] if args else kwargs.get("jobs", ())
        tracer.count("experiments.runner.jobs", len(jobs))

    _patch_function(tracer, "repro.experiments.runner", "run_jobs",
                    "experiments.runner.run_jobs", jobs_before)
    for info in pkgutil.iter_modules(experiments_pkg.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "format_result"):
            _patch_function(tracer, module.__name__, "format_result",
                            "experiments.format_result")

    from repro.surrogate import SurrogateUnavailable

    def estimate_after(_state, _result, error, _args):
        if isinstance(error, SurrogateUnavailable):
            tracer.count("surrogate.fallbacks")

    _patch_function(tracer, "repro.surrogate.estimate", "estimate_run",
                    "surrogate.estimate_run", after=estimate_after)
    _patch_function(tracer, "repro.api", "simulate", "api.simulate")


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.snapshot(), fh)


def merge(snapshots: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-process snapshots into one."""
    total: Dict[str, float] = Counter()
    for snap in snapshots:
        for key, value in snap.items():
            total[key] += value
    return dict(total)


_IMPORTTIME = re.compile(
    r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$"
)


def parse_importtime(stderr: str) -> Optional[Dict[str, float]]:
    """``python -X importtime -c "import repro.cli"`` stderr to the import
    layer: cumulative seconds of the ``repro`` imports the statement
    triggered, of ``numpy`` within them, and the count of ``repro.*``
    modules loaded.  ``None`` when no ``repro`` import shows."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((
                int(match.group(2)) * 1e-6,
                len(match.group(3)),
                match.group(4),
            ))
    repro = [e for e in entries if e[2] == "repro" or e[2].startswith("repro.")]
    if not repro:
        return None
    top = min(indent for _c, indent, _n in repro)
    numpy = [e for e in entries if e[2] == "numpy"]
    return {
        "import.repro_cli_s": sum(c for c, indent, _n in repro if indent == top),
        "import.numpy_s": numpy[0][0] if numpy else 0.0,
        "import.repro_modules": len(repro),
    }
